/**
 * @file
 * The HAloop: the VMM's hardware-accelerated BBT kernel (Fig. 6a).
 *
 * The paper's loop, expressed in our implementation ISA:
 *
 *   HAloop:
 *     LDF    F0, [Rx86pc]        ; fetch 16 instruction bytes
 *     XLTX86 F1, F0              ; decode + crack (4-cycle FU)
 *     JCPX   complex_handler     ; CSR.Flag_cmplx -> software path
 *     JCTI   branch_handler      ; CSR.Flag_cti   -> software path
 *     STF    F1, [Rcode$]        ; write micro-ops to the code cache
 *     MOV    Rt0, CSR
 *     AND    Rt1, Rt0, 0x0f  ::  ADD Rx86pc, Rx86pc, Rt1
 *     AND    Rt2, Rt0, 0xf0      ; uops_bytes field in place
 *     SHR    Rt2, Rt2, 3         ; (field*16) >> 3 == bytes (field*2)
 *     ADD    Rcode$, Rcode$, Rt2
 *     JMP    HAloop
 *
 * The class both *executes* the loop functionally (via the micro-op
 * executor and the XltUnit, so VM.be translations are produced by the
 * very mechanism the paper describes) and *accounts* its cost, which
 * the Table-1 bench compares against the paper's 20 cycles per x86
 * instruction. The code cache STF writes is concealed memory: LDF
 * reads guest code, but STF writes a store target the caller owns,
 * which guest code cannot address.
 */

#ifndef CDVM_HWASSIST_HALOOP_HH
#define CDVM_HWASSIST_HALOOP_HH

#include <vector>

#include "hwassist/xlt.hh"
#include "uops/exec.hh"
#include "x86/memory.hh"

namespace cdvm::hwassist
{

/** Sentinel branch targets inside the VMM's own code. */
constexpr Addr HALOOP_TOP = 0xffff0000;
constexpr Addr HALOOP_EXIT_COMPLEX = 0xffff0001;
constexpr Addr HALOOP_EXIT_CTI = 0xffff0002;

/** Functional + cost model of the hardware-assisted BBT loop. */
class HaLoop
{
  public:
    /**
     * @param code   guest memory, which LDF fetches x86 code from
     * @param store  the concealed memory STF writes micro-ops into
     * @param unit   the XLTx86 functional unit
     */
    HaLoop(x86::Memory &code, x86::Memory &store, XltUnit &unit)
        : mem(code), stfTarget(store), xlt(unit)
    {
    }

    /** One completed HAloop iteration (one translated instruction). */
    struct Step
    {
        u8 insnLen = 0;  //!< x86 instruction length (CSR length field)
        u8 uopBytes = 0; //!< encoded micro-op bytes emitted by STF
    };

    /** Outcome of translating one basic block's straight-line body. */
    struct Result
    {
        unsigned insnsTranslated = 0; //!< non-CTI instructions emitted
        u32 bytesEmitted = 0;         //!< micro-op bytes written
        Addr stoppedAt = 0;           //!< x86 PC where the loop exited
        bool stoppedCti = false;      //!< exit through JCTI
        bool stoppedComplex = false;  //!< exit through JCPX
        u64 uopsExecuted = 0;         //!< loop micro-ops retired
        Cycles cycles = 0;            //!< modelled execution time
        /** Per-iteration record, in translation order: lets the VMM
         *  attach x86-pc provenance to the emitted micro-ops. */
        std::vector<Step> steps;
    };

    /**
     * Run the loop: translate straight-line code starting at x86_pc,
     * writing encoded micro-ops into the store target at code_addr.
     */
    Result run(Addr x86_pc, Addr code_addr, unsigned max_insns = 64);

    /** The loop body as micro-ops (for display and inspection). */
    static uops::UopVec program();

    /** Cumulative modelled cycles per translated x86 instruction. */
    double
    measuredCyclesPerInsn() const
    {
        return totalInsns ? static_cast<double>(totalCycles) / totalInsns
                          : 0.0;
    }

  private:
    Cycles uopLatency(const uops::Uop &u) const;

    x86::Memory &mem;
    x86::Memory &stfTarget;
    XltUnit &xlt;
    u64 totalInsns = 0;
    Cycles totalCycles = 0;
};

} // namespace cdvm::hwassist

#endif // CDVM_HWASSIST_HALOOP_HH

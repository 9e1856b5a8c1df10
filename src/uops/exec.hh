/**
 * @file
 * Functional executor for implementation-ISA (micro-op) code.
 *
 * The executor runs the micro-op sequences produced by the BBT and SBT
 * translators against a machine state that mirrors the architected x86
 * state (R0..R7 == EAX..EDI plus EFLAGS). It is the functional truth
 * for "translated native mode" execution and is differentially tested
 * against the x86 reference interpreter.
 */

#ifndef CDVM_UOPS_EXEC_HH
#define CDVM_UOPS_EXEC_HH

#include <array>

#include "common/types.hh"
#include "uops/uop.hh"
#include "x86/interp.hh"
#include "x86/memory.hh"

namespace cdvm::uops
{

/**
 * Handler interface for the XLTx86 micro-op, implemented by the
 * hardware-assist model (hwassist::XltUnit). Splitting the interface
 * from the implementation keeps the ISA layer free of microarchitecture
 * dependencies.
 */
class XltHandler
{
  public:
    virtual ~XltHandler() = default;

    /**
     * Decode the x86 instruction at the start of the 16-byte src
     * window, write encoded micro-ops into the 16-byte dst buffer, and
     * return the CSR value (see uops/csr.hh).
     */
    virtual u32 translate(const u8 src[16], u8 dst[16]) = 0;
};

/**
 * Lazy condition codes: the operands of the last flag-writing ALU
 * micro-op whose EFLAGS have not been computed yet. The executor
 * computes them through x86/flags.hh only where something reads the
 * flags, so they match the interpreter bit for bit by construction.
 */
struct PendingFlags
{
    enum class Kind : u8
    {
        None,  //!< eflags is up to date
        Add,   //!< flags::add(a, b, carry)
        Sub,   //!< flags::sub(a, b, carry)
        Logic, //!< flags::logic(a): a is the result
    };

    Kind kind = Kind::None;
    u8 size = 4;
    u32 a = 0;
    u32 b = 0;
    u32 carry = 0; //!< carry or borrow in (Adc/Sbb)
};

/** Implementation-ISA machine state. */
struct UState
{
    std::array<u32, NUM_UREGS> regs{};
    u32 eflags = 0x202;
    /** Flags still owed to eflags; empty whenever UopExecutor::run or
     *  UopExecutor::exec has returned. */
    PendingFlags pending;
    std::array<std::array<u8, 16>, 32> fregs{}; //!< 128-bit F registers
    u32 csr = 0;

    /** Import architected state from an x86 CpuState (R0..R7, flags). */
    void loadArch(const x86::CpuState &cpu);
    /** Export architected state into an x86 CpuState (eip unchanged). */
    void storeArch(x86::CpuState &cpu) const;
};

/** Why a micro-op block stopped executing. */
enum class BlockExit : u8
{
    FallThrough, //!< ran off the end of the sequence
    Branch,      //!< a taken branch produced the next x86 PC
    VmExit,      //!< ExitVm micro-op (HLT or exit stub)
    Fault,       //!< Trap / divide fault at some micro-op
};

/** Result of executing a translated block. */
struct BlockResult
{
    BlockExit exit = BlockExit::FallThrough;
    Addr nextPc = 0;        //!< next x86-level PC (Branch/FallThrough)
    unsigned uopsRun = 0;   //!< micro-ops executed (including faulting)
    int faultIndex = -1;    //!< index of faulting micro-op, -1 if none
    Addr faultX86Pc = 0;    //!< x86 PC tag of the faulting micro-op
};

/** Micro-op executor over a UState and guest Memory. */
class UopExecutor
{
  public:
    UopExecutor(UState &state, x86::Memory &memory)
        : st(state), mem(memory)
    {
    }

    /** Install the XLTx86 functional-unit model (may be null). */
    void setXltHandler(XltHandler *h) { xlt = h; }

    /**
     * Execute a translated block. EFLAGS are architected again when
     * it returns, whatever the exit.
     *
     * @param uops          The translation body.
     * @param fallthrough   x86 PC that follows the translated region.
     */
    BlockResult run(std::span<const Uop> uops, Addr fallthrough);

    /** Outcome of a single micro-op (used by run and by the HAloop). */
    struct Outcome
    {
        bool taken = false;
        Addr target = 0;
        bool fault = false;
        bool vmExit = false;
    };

    /** Execute one micro-op; EFLAGS are architected on return. */
    Outcome exec(const Uop &u);

  private:
    /** exec's body; force-inlined into run so Outcome stays in
     *  registers across a block. */
    Outcome step(const Uop &u);
    u32 readSized(u8 reg, unsigned size) const;
    Addr effAddr(const Uop &u) const;

    UState &st;
    x86::Memory &mem;
    XltHandler *xlt = nullptr;
};

} // namespace cdvm::uops

#endif // CDVM_UOPS_EXEC_HH

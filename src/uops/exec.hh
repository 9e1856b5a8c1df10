/**
 * @file
 * Functional executor for implementation-ISA (micro-op) code.
 *
 * The executor runs the micro-op sequences produced by the BBT and SBT
 * translators against a machine state that mirrors the architected x86
 * state (R0..R7 == EAX..EDI plus EFLAGS). It is the functional truth
 * for "translated native mode" execution and is differentially tested
 * against the x86 reference interpreter.
 *
 * A body runs in one of two forms:
 *
 *  - the record form: run() walks the 32-byte Uop records through
 *    step(), one switch that tests each record's operand fields. BBT
 *    blocks and every caller outside the code cache use it, and
 *    step() is the reference semantics of every micro-op.
 *  - the bound form: bind() lowers a superblock body once, at code
 *    cache install, into one 16-byte BoundOp per micro-op whose
 *    handler is specialized to the opcode, operand size,
 *    register-or-immediate source, flag write and address mode, with
 *    the operands resolved. run() over a BoundBody dispatches it
 *    direct-threaded: each handler jumps straight to the next op's.
 *    A form without its own handler binds to a fallback handler that
 *    runs the record through step(). Each exit op also carries the
 *    instructions the region retires when it leaves there.
 *
 * Both forms keep the lazy-flag contract: EFLAGS are architected
 * whenever run() or exec() returns.
 */

#ifndef CDVM_UOPS_EXEC_HH
#define CDVM_UOPS_EXEC_HH

#include <array>
#include <memory>

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

/**
 * One micro-op in bound form: the handler bind() chose for it and the
 * operands that handler reads, resolved once.
 */
struct BoundOp
{
    u8 handler = 0; //!< index into the executor's handler table
    u8 dst = 0;
    u8 src1 = 0;
    u8 src2 = 0;    //!< also the index register of a memory op
    u8 shift = 0;   //!< log2 of the index scale; shift count
    u8 cond = 0;    //!< x86 condition of Br / Setcc
    /** x86 instructions the region has retired when the body leaves
     *  at this op: through a taken branch (the owning instruction
     *  completed) or a fault (it did not). */
    u16 retire = 0;
    u32 imm = 0;    //!< immediate or memory displacement
    u32 target = 0; //!< x86 target of Br
};
static_assert(sizeof(BoundOp) == 16);

/**
 * A body in bound form: one BoundOp per micro-op of the record body it
 * was bound from, in order, then an end marker. The record body stays
 * the reference: the fallback handler, and fault reports, read it.
 */
using BoundBody = std::unique_ptr<BoundOp[]>;

/** bind()'s result. */
struct Binding
{
    BoundBody ops;            //!< null: the body runs in record form
    unsigned fallbackOps = 0; //!< ops bound to the fallback handler
};

/**
 * Lower a region body into bound form. pcs is the region's precise-
 * state pc table, which gives each exit op its retire count. A body
 * with an exit op whose pc the table lacks, or whose count does not
 * fit a BoundOp, stays unbound.
 */
Binding bind(std::span<const Uop> body, std::span<const Addr> pcs);

/**
 * Position in the pc table of the instruction that owns the micro-op
 * at uop_index, for a micro-op that faults or branches. A pc can recur
 * in a superblock (a trace that re-enters a block part-way), so the
 * k-th such micro-op of a pc is matched to the pc's k-th table entry:
 * each instruction cracks to at most one branch micro-op and at most
 * one faulting one, and no pass removes either or moves it across
 * another instruction's. Returns pcs.size() when the pc table has no
 * such entry.
 */
std::size_t insnIndex(std::span<const Uop> body, std::span<const Addr> pcs,
                      std::size_t uop_index);

/** Handlers in the bound form's table, End and Fallback included. */
unsigned boundHandlerCount();

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

    /**
     * Execute a body in bound form, direct-threaded. Same contract and
     * BlockResult as the record-form run() over records, the body it
     * was bound from.
     */
    BlockResult run(const BoundOp *ops, std::span<const Uop> records,
                    Addr fallthrough);

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

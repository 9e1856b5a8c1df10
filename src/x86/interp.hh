/**
 * @file
 * Reference functional interpreter for the x86 subset.
 *
 * This is the golden model: the basic block translator, the superblock
 * optimizer and the XLTx86 hardware-assist model are all validated by
 * differential execution against it. It is also the component the
 * "interpretation followed by SBT" staged-emulation strategy of paper
 * Figure 2 models.
 *
 * Flags that real x86 leaves architecturally undefined (e.g. ZF/SF/PF
 * after IMUL) are given fixed, documented values so that differential
 * tests are exact; the micro-op executor shares them through
 * x86/flags.hh.
 */

#ifndef CDVM_X86_INTERP_HH
#define CDVM_X86_INTERP_HH

#include <array>

#include "common/types.hh"
#include "x86/insn.hh"
#include "x86/memory.hh"

namespace cdvm::x86
{

/** Why execution stopped (or that it has not). */
enum class Exit : u8
{
    None = 0,    //!< still running
    Halted,      //!< HLT reached: normal program completion
    Trap,        //!< INT3 or divide fault
    DecodeFault, //!< bytes did not decode
};

/** Display name of an exit reason. */
inline const char *
exitName(Exit e)
{
    switch (e) {
      case Exit::None:
        return "none";
      case Exit::Halted:
        return "halted";
      case Exit::Trap:
        return "trap";
      case Exit::DecodeFault:
        return "decode-fault";
    }
    return "?";
}

/** Architected x86 machine state. */
struct CpuState
{
    std::array<u32, NUM_REGS> regs{};
    u32 eip = 0;
    u32 eflags = 0x202; //!< IF and the always-one bit, as on real hardware
    InstCount icount = 0;

    u32 reg(Reg r) const { return regs[r]; }
    void setReg(Reg r, u32 v) { regs[r] = v; }

    /** Read a register at operand size (handles AH/CH/DH/BH). */
    u32 readReg(Reg r, unsigned size) const;
    /** Write a register at operand size, preserving upper bits. */
    void writeReg(Reg r, unsigned size, u32 v);

    bool flag(u32 bit) const { return eflags & bit; }
    void
    setFlag(u32 bit, bool v)
    {
        eflags = v ? (eflags | bit) : (eflags & ~bit);
    }

    /** True if the two states have identical architected contents. */
    bool sameArchState(const CpuState &o) const;
};

/** Result of executing one instruction. */
struct StepResult
{
    Exit exit = Exit::None;
    bool taken = false;   //!< branch outcome, if a conditional branch
    Insn insn;            //!< the instruction that executed
};

class DecodeCache;

/**
 * Interpreter over a CpuState and a Memory. Its flag semantics live
 * in x86/flags.hh, shared with the micro-op executor.
 *
 * An optional DecodeCache memoizes the fetch+decode half of step();
 * execution semantics are identical with or without it (the cache is
 * invalidated by guest code writes, see decode_cache.hh).
 */
class Interpreter
{
  public:
    Interpreter(CpuState &state, Memory &memory,
                DecodeCache *decode_cache = nullptr)
        : cpu(state), mem(memory), dcache(decode_cache)
    {
    }

    /** Fetch, decode and execute one instruction at cpu.eip. */
    StepResult step();

    /**
     * Execute an already decoded instruction (the common core shared
     * with translated-code validation). Updates eip.
     */
    StepResult execute(const Insn &in);

    /** Run until an exit condition or max_insns retired instructions. */
    Exit run(InstCount max_insns);

  private:
    u32 readOperand(const Operand &o, unsigned size);
    void writeOperand(const Operand &o, unsigned size, u32 v);
    Addr effAddr(const MemRef &m) const;

    CpuState &cpu;
    Memory &mem;
    DecodeCache *dcache; //!< optional decoded-instruction cache
};

} // namespace cdvm::x86

#endif // CDVM_X86_INTERP_HH

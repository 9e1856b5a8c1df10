#include "engine/translated_exec.hh"

#include "common/logging.hh"

namespace cdvm::engine
{

using dbt::TransKind;
using dbt::Translation;

namespace
{

/**
 * Position in the region's pc table of the instruction whose micro-op
 * at fault_index faulted. A pc can recur in a superblock (a trace that
 * re-enters a block part-way), so the k-th faulting micro-op of that
 * pc is matched to the pc's k-th table entry: div, idiv and int3 each
 * crack to exactly one faulting micro-op, which no pass removes or
 * moves across another instruction's.
 */
std::size_t
faultingInsn(std::span<const uops::Uop> body, std::span<const Addr> pcs,
             std::size_t fault_index)
{
    const uops::Uop &f = body[fault_index];
    std::size_t k = 0;
    for (std::size_t i = 0; i < fault_index; ++i)
        k += body[i].x86pc == f.x86pc && body[i].op == f.op;
    for (std::size_t i = 0; i < pcs.size(); ++i) {
        if (pcs[i] == f.x86pc && k-- == 0)
            return i;
    }
    cdvm_panic("faulting micro-op at pc 0x%llx is not in the region's "
               "pc table",
               static_cast<unsigned long long>(f.x86pc));
}

} // namespace

x86::Exit
TranslatedExecutor::run(x86::CpuState &cpu, Translation *t,
                        InstCount &retired)
{
    const std::span<const uops::Uop> body = t->code();
    ustate.loadArch(cpu);
    uops::UopExecutor exe(ustate, mem);
    uops::BlockResult br = exe.run(body, t->fallthroughPc);
    ustate.storeArch(cpu);

    const bool is_sbt = t->kind == TransKind::Superblock;

    if (br.exit == uops::BlockExit::Fault) {
        // Precise state mapping (Fig. 1). The instructions before the
        // faulting one completed, and it wrote only temporaries before
        // its faulting micro-op, so the executor's architected state
        // is the state at its start: retire the completed ones and let
        // the interpreter raise the fault. Re-running the region from
        // its entry instead would repeat their stores.
        ++st.preciseStateRecoveries;
        const u64 done = faultingInsn(
            body, t->pcSpan(), static_cast<std::size_t>(br.faultIndex));
        retired += done;
        cpu.icount += done;
        if (is_sbt)
            st.insnsSbtCode += done;
        else
            st.insnsBbtCode += done;
        cpu.eip = static_cast<u32>(br.faultX86Pc);
        x86::Interpreter interp(cpu, mem);
        const x86::StepResult sr = interp.step();
        if (sr.exit == x86::Exit::None)
            cdvm_panic("translated fault at pc 0x%llx did not reproduce "
                       "under interpretation",
                       static_cast<unsigned long long>(br.faultX86Pc));
        return sr.exit;
    }

    // Count retired x86 instructions: position of the last completed
    // instruction within the region.
    u64 insns = t->numX86Insns;
    if (br.exit == uops::BlockExit::Branch && is_sbt) {
        // A side exit may leave the superblock early.
        int last = br.uopsRun > 0
                       ? static_cast<int>(br.uopsRun) - 1
                       : 0;
        const std::span<const Addr> pcs = t->pcSpan();
        Addr last_pc = body[static_cast<std::size_t>(last)].x86pc;
        for (std::size_t i = 0; i < pcs.size(); ++i) {
            if (pcs[i] == last_pc) {
                insns = i + 1;
                break;
            }
        }
    }
    retired += insns;
    cpu.icount += insns;
    if (is_sbt) {
        st.insnsSbtCode += insns;
        st.uopsSbtCode += br.uopsRun;
    } else {
        st.insnsBbtCode += insns;
        st.uopsBbtCode += br.uopsRun;
    }

    if (br.exit == uops::BlockExit::VmExit) {
        cpu.eip = static_cast<u32>(br.nextPc);
        return x86::Exit::Halted;
    }

    cpu.eip = static_cast<u32>(br.nextPc);

    // Branch-direction profiling on the region's terminating branch.
    if (t->endsInCondBranch) {
        if (cpu.eip == t->condBranchTarget)
            prof.record(t->condBranchPc, true);
        else if (cpu.eip == t->fallthroughPc)
            prof.record(t->condBranchPc, false);
    }
    return x86::Exit::None;
}

} // namespace cdvm::engine

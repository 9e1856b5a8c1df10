#include "engine/translated_exec.hh"

#include "common/logging.hh"

namespace cdvm::engine
{

using dbt::TransKind;
using dbt::Translation;

x86::Exit
TranslatedExecutor::run(x86::CpuState &cpu, Translation *t,
                        InstCount &retired)
{
    const std::span<const uops::Uop> body = t->code();
    const std::span<const Addr> pcs = t->pcSpan();
    ustate.loadArch(cpu);
    uops::UopExecutor exe(ustate, mem);
    const uops::BlockResult br =
        t->bound ? exe.run(t->bound.get(), body, t->fallthroughPc)
                 : exe.run(body, t->fallthroughPc);
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
        const auto fi = static_cast<std::size_t>(br.faultIndex);
        const u64 done = t->bound ? t->bound[fi].retire
                                  : uops::insnIndex(body, pcs, fi);
        if (done >= pcs.size())
            cdvm_panic("faulting micro-op at pc 0x%llx is not in the "
                       "region's pc table",
                       static_cast<unsigned long long>(br.faultX86Pc));
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
    // instruction within the region. A side exit may leave a
    // superblock early; a bound body carries the count on the exit
    // op, a record body finds it in the pc table.
    u64 insns = t->numX86Insns;
    if (br.exit == uops::BlockExit::Branch && is_sbt) {
        const std::size_t last = br.uopsRun - 1;
        if (t->bound) {
            insns = t->bound[last].retire;
        } else if (const std::size_t k = uops::insnIndex(body, pcs, last);
                   k < pcs.size()) {
            insns = k + 1;
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

/**
 * @file
 * Translated-code execution with precise-state recovery.
 *
 * Runs a translation's micro-ops through the micro-op executor and
 * maps the outcome back to architected x86 state: retired-instruction
 * accounting (including superblock side exits), fault recovery that
 * hands the faulting instruction to the interpreter (paper Fig. 1's
 * "may use interpreter" arc), and branch-direction profiling on the
 * region's terminating branch.
 */

#ifndef CDVM_ENGINE_TRANSLATED_EXEC_HH
#define CDVM_ENGINE_TRANSLATED_EXEC_HH

#include "dbt/translation.hh"
#include "engine/engine_config.hh"
#include "engine/profile.hh"
#include "uops/exec.hh"
#include "x86/interp.hh"
#include "x86/memory.hh"

namespace cdvm::engine
{

/** Executes translations and recovers precise state on faults. */
class TranslatedExecutor
{
  public:
    TranslatedExecutor(x86::Memory &memory, EngineStats &stats,
                       BranchProfile &branch_prof)
        : mem(memory), st(stats), prof(branch_prof)
    {
    }

    /**
     * Execute translation t from the current CPU state; increments
     * retired by the x86 instructions the region completed.
     */
    x86::Exit run(x86::CpuState &cpu, dbt::Translation *t,
                  InstCount &retired);

  private:
    x86::Memory &mem;
    EngineStats &st;
    BranchProfile &prof;
    uops::UState ustate;
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_TRANSLATED_EXEC_HH

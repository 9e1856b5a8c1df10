/**
 * @file
 * The staged-emulation cost model: one price table per cold tier.
 *
 * Paper Eq. 1 prices staged emulation with a few measured
 * per-instruction constants (engine/params.hh). Both clocks that run
 * over a StageEvent stream price it here:
 *
 *  - the timing simulator's cycle model (timing/startup_sim.cc)
 *    scales the execution rates by the app's CPIs and adds only the
 *    cache-hierarchy penalties on top;
 *  - the fleet's virtual work clock (fleet/fleet.hh) charges price()
 *    as it is.
 *
 * forTier() is the only place a cold tier maps to its costs.
 */

#ifndef CDVM_ENGINE_COST_MODEL_HH
#define CDVM_ENGINE_COST_MODEL_HH

#include "engine/engine_config.hh"
#include "engine/events.hh"
#include "engine/params.hh"

namespace cdvm::engine
{

/** Cycles per unit of staged-emulation work for one cold tier. */
struct CostModel
{
    /**
     * Untranslated code executed directly, cycles per x86 instruction
     * relative to the reference CPI: interpretation is 10x-100x slower
     * (Section 1.1), x86 mode runs at reference speed. Translate-style
     * tiers never execute cold code directly.
     */
    double coldExec = 1.0;
    /** BBT code relative to SBT code: 82-85% of its IPC (Section
     *  5.3). */
    double bbtExec = params::BBT_VS_SBT_CPI;
    /** SBT-optimized code, the unit the other rates are relative to. */
    double sbtExec = 1.0;
    /** Delta_BBT, cycles per translated x86 instruction. */
    double bbtTranslate = params::BBT_CYCLES_PER_INSN;
    /** Delta_SBT, cycles per optimized x86 instruction. */
    double sbtOptimize = params::SBT_CYCLES_PER_INSN;
    /** Warm install, cycles per installed x86 instruction. */
    double warmInstall = params::WARM_LOAD_MAPPED_CPI;
    /** VMM dispatch when no chain covers a transfer, per Dispatch
     *  event. */
    double dispatch = 30.0;

    /** What one event costs, split by where the work runs. */
    struct Price
    {
        /** Cycles on the emulation thread's critical path. */
        double critical = 0.0;
        /** Cycles of background translator-context occupancy. */
        double occupancy = 0.0;
    };

    /**
     * Price one stage event: its rate times its instructions, or the
     * dispatch cost for a Dispatch instant. Background work (the async
     * SBT pipeline) is occupancy of a private context, never
     * critical-path time.
     */
    Price
    price(const StageEvent &e) const
    {
        double cycles = 0.0;
        switch (e.stage) {
          case TracePhase::Interp:
          case TracePhase::X86Mode:
          case TracePhase::ColdExec:
            cycles = coldExec * static_cast<double>(e.insns);
            break;
          case TracePhase::BbtExec:
            cycles = bbtExec * static_cast<double>(e.insns);
            break;
          case TracePhase::SbtExec:
            cycles = sbtExec * static_cast<double>(e.insns);
            break;
          case TracePhase::BbtTranslate:
            cycles = bbtTranslate * static_cast<double>(e.insns);
            break;
          case TracePhase::SbtOptimize:
            cycles = sbtOptimize * static_cast<double>(e.insns);
            break;
          case TracePhase::WarmInstall:
            cycles = warmInstall * static_cast<double>(e.insns);
            break;
          case TracePhase::Dispatch:
            cycles = dispatch;
            break;
          default:
            break;
        }
        Price p;
        if (e.background)
            p.occupancy = cycles;
        else
            p.critical = cycles;
        return p;
    }

    /**
     * The cost table of one cold tier. Only Delta_BBT and the direct
     * cold-execution rate differ: software BBT 83 cycles/insn, the
     * template tier 40, the XLTx86-assisted HAloop 20; x86 mode and
     * interpretation translate nothing and run cold code at 1x and 35x
     * the reference CPI.
     */
    static CostModel
    forTier(ColdKind cold)
    {
        CostModel c;
        switch (cold) {
          case ColdKind::SoftwareBbt:
            break;
          case ColdKind::TemplateBbt:
            c.bbtTranslate = params::BBT_TMPL_XLATE;
            break;
          case ColdKind::XltAssistedBbt:
            c.bbtTranslate = params::BBT_ASSIST_CYCLES_PER_INSN;
            break;
          case ColdKind::HardwareX86Mode:
            c.bbtTranslate = 0.0;
            break;
          case ColdKind::Interpret:
            c.bbtTranslate = 0.0;
            c.coldExec = params::INTERP_SLOWDOWN;
            break;
        }
        return c;
    }

    bool operator==(const CostModel &) const = default;
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_COST_MODEL_HH

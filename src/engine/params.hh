/**
 * @file
 * The paper's measured staged-emulation constants, in one place.
 *
 * Every layer that needs a number from Hu & Smith, "Reducing Startup
 * Time in Co-Designed Virtual Machines" (ISCA 2006) draws it from
 * here: the per-tier cost model (engine/cost_model.hh) that both the
 * timing simulator and the fleet clock price with, the analytical
 * model (analysis/model.hh) and the benches. Each constant cites the paper
 * section it was measured or derived in.
 */

#ifndef CDVM_ENGINE_PARAMS_HH
#define CDVM_ENGINE_PARAMS_HH

#include "common/types.hh"

namespace cdvm::engine::params
{

// --- BBT translation cost, Delta_BBT (Sections 3.2 and 5.3) --------

/** Software-only BBT: native instructions per x86 instruction. */
inline constexpr double BBT_NATIVE_PER_INSN = 105.0;

/** Software-only BBT: cycles per x86 instruction (Section 5.3). */
inline constexpr double BBT_CYCLES_PER_INSN = 83.0;

/** XLTx86-assisted HAloop (VM.be): micro-ops per x86 instruction. */
inline constexpr double BBT_ASSIST_NATIVE_PER_INSN = 11.0;

/** XLTx86-assisted HAloop (VM.be): cycles per x86 instruction. */
inline constexpr double BBT_ASSIST_CYCLES_PER_INSN = 20.0;

/** XLTx86 functional-unit latency in cycles (Section 4.2). */
inline constexpr unsigned XLT_LATENCY_CYCLES = 4;

/**
 * IR-less template BBT (the software XLTx86, dbt/templates): mapping
 * decoded forms straight to pre-baked micro-op templates skips the
 * per-instruction crack/emit pipeline. bench_host_mips measures the
 * template path at ~2.1x fewer host ns per translated instruction
 * than the uop-lowering BBT on the cold-heavy mix (gated >= 2x in
 * perf-smoke CI); the modeled Delta_BBT scales by the same ratio:
 * 83 / 2.1 ~= 40 cycles, 105 / 2.1 = 50 native insns.
 */
inline constexpr double BBT_TMPL_NATIVE_PER_INSN = 50.0;

/** Template BBT: modeled cycles per translated x86 instruction. */
inline constexpr double BBT_TMPL_XLATE = 40.0;

// --- SBT optimization cost, Delta_SBT (Section 3.2) -----------------

/** Measured Delta_SBT in x86 instructions per translated instruction. */
inline constexpr double SBT_DELTA_X86 = 1152.0;

/** Delta_SBT in native instructions (~1.45 native per x86). */
inline constexpr double SBT_NATIVE_PER_INSN = 1674.0;

/** Delta_SBT in cycles per translated x86 instruction. */
inline constexpr double SBT_CYCLES_PER_INSN = 1340.0;

// --- Eq. 2: the hot threshold ---------------------------------------

/**
 * p: speedup of SBT-optimized code over the code it replaces
 * (Section 3.2 quotes the 1.15-1.2 range; Eq. 2 uses 1.15).
 */
inline constexpr double SBT_SPEEDUP_P = 1.15;

/**
 * Rounded Delta_SBT used when the paper instantiates Eq. 2
 * (N = 1200 / 0.15 = 8000).
 */
inline constexpr double SBT_DELTA_X86_ROUNDED = 1200.0;

/** Eq. 2: N = Delta_SBT / (p - 1), the BBT-profiled hot threshold. */
inline constexpr u64 HOT_THRESHOLD = 8000;

/** Hot threshold under interpretation (Section 3.1: ~25). */
inline constexpr u64 INTERP_HOT_THRESHOLD = 25;

// --- Emulation-quality factors (timing model) -----------------------

/**
 * BBT-generated code runs at 82-85 % of SBT-code IPC (Section 5.3);
 * relative to SBT code we model it 10 % slower.
 */
inline constexpr double BBT_VS_SBT_CPI = 1.10;

/** Interpretation is 10x-100x slower than native (Section 1.1). */
inline constexpr double INTERP_SLOWDOWN = 35.0;

// --- Warm-start install cost (this repo's measured constants) -------

/**
 * Zero-copy image install: translations bind views into the mapped
 * image, so the per-instruction work is the content-address check,
 * arena reservation and the relocation pass -- ~1 cycle per installed
 * x86 instruction on the modeled machine (CostModel::warmInstall, so
 * the timing model and the fleet clock both charge it).
 */
inline constexpr double WARM_LOAD_MAPPED_CPI = 1.0;

} // namespace cdvm::engine::params

#endif // CDVM_ENGINE_PARAMS_HH

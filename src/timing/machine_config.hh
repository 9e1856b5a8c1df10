/**
 * @file
 * Machine configurations (paper Table 2).
 *
 * Four primary machines, plus the interpreter-based VM of Fig. 2:
 *
 *   Ref: superscalar -- conventional x86 processor. Hardware x86
 *        decoders, no dynamic optimization.
 *   VM.soft -- co-designed VM, software-only BBT and SBT.
 *   VM.be   -- co-designed VM, BBT assisted by the backend XLTx86
 *              functional unit.
 *   VM.fe   -- co-designed VM, dual-mode frontend decoders (no BBT).
 *   VM.interp -- staged interpretation + SBT (Fig. 2 only).
 *
 * All machines share the Table 2 pipeline resources and memory
 * hierarchy; they differ in how cold and hot x86 code is emulated and
 * in translation costs.
 */

#ifndef CDVM_TIMING_MACHINE_CONFIG_HH
#define CDVM_TIMING_MACHINE_CONFIG_HH

#include <string>

#include "engine/cost_model.hh"
#include "memsys/hierarchy.hh"

namespace cdvm::timing
{

/** Machine flavours. */
enum class MachineKind : u8
{
    RefSuperscalar,
    VmSoft,
    VmBe,
    VmFe,
    VmInterp,
};

/** How cold (untranslated) code is emulated. */
enum class ColdMode : u8
{
    Native,     //!< Ref: x86 executes directly, always
    Interpret,  //!< software interpretation
    BbtCode,    //!< execute BBT-translated code
    X86Direct,  //!< VM.fe dual-mode execution of x86 code
};

/** Table 2 pipeline resources (shared by all machines). */
struct PipelineParams
{
    unsigned fetchBytes = 16;
    unsigned width = 3;       //!< decode/rename/issue/retire width
    unsigned issueSlots = 36;
    unsigned robEntries = 128;
    unsigned ldqSlots = 32;
    unsigned stqSlots = 20;
    unsigned prfEntries = 128;
    unsigned branchMissPenalty = 12;
};

/** A complete machine configuration for the startup simulator. */
struct MachineConfig
{
    std::string name;
    MachineKind kind = MachineKind::RefSuperscalar;
    ColdMode cold = ColdMode::Native;
    bool hasSbt = false;           //!< hotspot optimization stage
    /**
     * Execution rates, Delta_BBT / Delta_SBT, warm-install and
     * dispatch costs of the machine's cold tier (Ref: the x86-mode
     * tier). The simulator scales the execution rates by the app's
     * CPIs and adds the cache-hierarchy penalties on top.
     */
    engine::CostModel cost;
    /** Eq. 2 threshold. */
    u64 hotThreshold = engine::params::HOT_THRESHOLD;
    PipelineParams pipeline;
    memsys::HierarchyParams memory;

    /**
     * Hotspot coverage at which the published steady-state gain is
     * quoted: the per-instruction gain of optimized code is
     * steadyGain / steadyCoverage (full-run coverage approaches but
     * does not reach 100%, paper Section 5.3).
     */
    double steadyCoverage = 0.85;

    /**
     * Translated-code expansion: code-cache bytes per x86 byte
     * (measured from the real translators in calibration tests).
     */
    double codeExpansion = 1.6;

    /**
     * Fraction of an L2-hit instruction-fetch miss that fetch-ahead
     * hides (sequential prefetch overlaps the 12-cycle L2 latency;
     * full-memory misses stall for real).
     */
    double l2FetchOverlap = 0.7;

    /**
     * Fraction of a translator store miss that actually stalls
     * (write buffers absorb most code-cache write misses).
     */
    double storeStallFraction = 0.3;

    /**
     * Instruction-fetch penalty multiplier for translated code.
     * Code-cache layout is execution-ordered and superblocks fetch
     * straight-line, giving "better temporal locality and more
     * efficient instruction fetching" than the original x86 image
     * (paper Section 3.1). 1.0 = no advantage.
     */
    double vmFetchLocality = 0.7;

    /**
     * x86 decode activity accounting for Fig. 11: true when the
     * machine's frontend x86 decoders are on while executing x86 or
     * cold code.
     */
    bool frontendX86Decoders = false;

    /**
     * Background SBT translation contexts. 0 = the paper's synchronous
     * model (Delta_SBT charged on the emulation thread the instant a
     * region goes hot). N >= 1 moves hotspot optimization onto N
     * concurrent contexts: the emulation thread keeps running the
     * region in its pre-hot mode while the optimization is in flight,
     * and Delta_SBT becomes context occupancy instead of critical-path
     * cycles.
     */
    unsigned asyncTranslators = 0;

    /**
     * Warm start from a translation image (dbt/image, saved by a
     * previous run). Instead of paying Delta_BBT lazily on every first
     * touch, the machine pays an up-front install cost -- validating
     * each record against guest memory and binding it into the code
     * cache -- and then runs every block as BBT code from the first
     * instruction.
     */
    bool warmStart = false;

    /**
     * Fraction of warm-load memory stall hidden by streaming: the
     * loader walks the image and the guest code strictly
     * sequentially, so hardware prefetch covers most read-miss
     * latency and write buffers drain code-cache stores off the
     * critical path. Demand misses during execution get no such
     * treatment (they are priced by the normal fetch/data paths).
     */
    double warmStreamOverlap = 0.85;

    // --- presets --------------------------------------------------------
    static MachineConfig refSuperscalar();
    static MachineConfig vmSoft();
    /** VM.soft with the IR-less template cold tier (software XLTx86):
     *  the template tier's Delta_BBT. */
    static MachineConfig vmSoftTmpl();
    static MachineConfig vmBe();
    static MachineConfig vmFe();
    static MachineConfig vmInterp();
    /** VM.soft with N background SBT contexts. */
    static MachineConfig vmSoftAsync(unsigned contexts = 2);
    /** VM.be with N background SBT contexts. */
    static MachineConfig vmBeAsync(unsigned contexts = 2);
    /** VM.soft warm-started from a translation image. */
    static MachineConfig vmSoftWarm();
    /** VM.be warm-started from a translation image. */
    static MachineConfig vmBeWarm();

    /** All four Table 2 machines in paper order. */
    static std::vector<MachineConfig> table2();
};

} // namespace cdvm::timing

#endif // CDVM_TIMING_MACHINE_CONFIG_HH

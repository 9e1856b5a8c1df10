/**
 * @file
 * Engine configuration and statistics.
 *
 * An EngineConfig names one point in the staged-emulation design
 * space: which ColdExecutor runs untranslated code, which
 * HotspotDetector decides when a region is hot, and the SBT/cache
 * parameters shared by all of them. The named factories compose the
 * paper's configurations:
 *
 *   vm.soft  software BBT cold path  + software exec counters
 *   vm.fe    hardware x86-mode cold  + branch behavior buffer
 *   vm.be    XLTx86-assisted BBT     + software exec counters
 *   vm.dual  XLTx86-assisted BBT     + branch behavior buffer
 *   vm.interp  interpretation        + software entry counters
 */

#ifndef CDVM_ENGINE_ENGINE_CONFIG_HH
#define CDVM_ENGINE_ENGINE_CONFIG_HH

#include <optional>
#include <string>
#include <vector>

#include "dbt/superblock.hh"
#include "engine/params.hh"
#include "hwassist/bbb.hh"
#include "uops/fusion.hh"

namespace cdvm::engine
{

/** The cold-code execution strategies (paper Sections 3-4). */
enum class ColdKind : u8
{
    Interpret,       //!< one instruction at a time (Fig. 2)
    HardwareX86Mode, //!< dual-mode decoders execute x86 directly (VM.fe)
    SoftwareBbt,     //!< software basic-block translation (VM.soft)
    XltAssistedBbt,  //!< HAloop + XLTx86 functional unit (VM.be)
    TemplateBbt,     //!< IR-less template BBT, a software XLTx86
};

/** Hotspot detection strategies. */
enum class DetectorKind : u8
{
    SoftwareCounters, //!< per-translation / per-entry exec counters
    Bbb,              //!< hardware branch behavior buffer (Section 4.1)
};

/** One composed staged-emulation configuration. */
struct EngineConfig
{
    /** Display name ("vm.soft", ... or "custom"). */
    std::string name = "custom";

    ColdKind cold = ColdKind::SoftwareBbt;
    DetectorKind detector = DetectorKind::SoftwareCounters;

    /** Hot threshold for BBT- or BBB-profiled code (Eq. 2: 8000). */
    u64 hotThreshold = params::HOT_THRESHOLD;
    /** Hot threshold under interpretation (Section 3.1: 25). */
    u64 interpHotThreshold = params::INTERP_HOT_THRESHOLD;
    bool enableSbt = true;

    u64 bbtCacheBytes = u64{4} << 20;
    u64 sbtCacheBytes = u64{4} << 20;

    unsigned maxBlockInsns = 64;
    dbt::SuperblockPolicy sbPolicy{};
    uops::FusionConfig fusion{};
    hwassist::BbbParams bbbParams{};

    // Bounds for the runtime profiling maps (0 = minimum of 1).
    std::size_t branchProfCap = 65536;
    std::size_t coldCounterCap = 65536;
    std::size_t sbtFailedCap = 16384;

    // --- host-side dispatch ----------------------------------------
    /** Flat-table capacity preset (entries; rounded to a power of
     *  two). Sized for the BBT-dominated startup transient so the
     *  table does not rehash while cold code floods in. */
    std::size_t lookupReserve = 4096;
    /** Dispatch lookaside cache entries (pow2; 0 disables). */
    std::size_t lookasideEntries = 256;
    /** Interpreter decoded-instruction cache lines (pow2; 0
     *  disables). Only execute-style cold paths consult it. */
    std::size_t decodeCacheEntries = 8192;
    /** Bucket preset for the branch-direction profile (rehash
     *  avoidance during the startup transient; capped at
     *  branchProfCap). */
    std::size_t branchProfReserve = 4096;

    // --- asynchronous SBT pipeline ----------------------------------
    /**
     * Background translator contexts for the SBT (0 = synchronous:
     * hot seeds are optimized on the emulation thread, as the paper
     * models). With N >= 1, hot seeds are formed on the dispatch
     * thread, optimized on a worker, and installed at the deadline
     * the timing model books on N contexts while cold/BBT execution
     * continues.
     */
    unsigned asyncTranslators = 0;
    /** Bound on one engine's pending optimization requests; a request
     *  past it is rejected (back-pressure). */
    std::size_t asyncQueueCap = 64;

    // --- persistent warm start --------------------------------------
    /**
     * Size budget for a saved warm-start image in bytes (0 =
     * unlimited). When the captured image would exceed it, the
     * coldest tail of the hotness ranking is evicted at save time.
     */
    u64 warmImageBudgetBytes = 0;

    // --- continuous profiling / observability -----------------------
    /**
     * Sampling period of the guest-hotness profiler, in executed x86
     * instructions (0 disables sampling). Every period-th instruction
     * the dispatch loop attributes one sample to {guest page,
     * translation, stage}; the aggregate heatmap feeds the warm-start
     * image's hotness ranking and the --profile-out export.
     */
    u64 profileSamplePeriod = 4096;
    /**
     * Capacity of the always-on flight recorder, in stage events
     * (rounded up to a power of two; 0 disables). The ring holds the
     * most recent events for on-demand, flush-storm, and abnormal-exit
     * dumps.
     */
    std::size_t flightRecorderEvents = 4096;
    /**
     * Where flush-storm and abnormal-exit flight dumps are written
     * (empty: storm dumps are skipped and crash dumps go to stderr).
     * What makes a storm is fixed: FlightSink::STORM_FLUSHES flushes
     * within FlightSink::STORM_WINDOW work units.
     */
    std::string flightDumpPath;
    /**
     * Take a SnapshotSeries row of the vmm.* counters every N executed
     * instructions (0 disables). Rows accumulate in Vmm::snapshots().
     */
    u64 snapshotEveryInsns = 0;

    // --- named configurations ---------------------------------------
    static EngineConfig vmSoft();
    static EngineConfig vmFe();
    static EngineConfig vmBe();
    static EngineConfig vmDual();
    static EngineConfig vmInterp();
    /** VM.soft with the IR-less template cold tier. */
    static EngineConfig vmSoftTmpl();
    /** Template cold tier paired with the BBB detector (the closest
     *  software stand-in for the paper's VM.be pairing). */
    static EngineConfig vmBeTmpl();
    /** vm.soft with N background SBT contexts (vm.soft.async). */
    static EngineConfig vmSoftAsync(unsigned contexts = 2);
    /** vm.be with N background SBT contexts (vm.be.async). */
    static EngineConfig vmBeAsync(unsigned contexts = 2);

    /** Look up a named configuration ("vm.soft", "vm.be", ...). */
    static std::optional<EngineConfig> byName(const std::string &name);

    /** All recognised configuration names. */
    static std::vector<std::string> names();
};

/** Aggregate engine statistics. */
struct EngineStats
{
    // x86 instructions retired, by emulation mode.
    u64 insnsInterp = 0;
    u64 insnsX86Mode = 0;
    u64 insnsBbtCode = 0;
    u64 insnsSbtCode = 0;
    // Micro-ops retired in translated code.
    u64 uopsBbtCode = 0;
    u64 uopsSbtCode = 0;
    // Translation activity.
    u64 bbtTranslations = 0;
    u64 bbtInsnsTranslated = 0;
    u64 sbtTranslations = 0;
    u64 sbtInsnsTranslated = 0;
    u64 sbtFormationFailures = 0;
    // Hardware-assisted BBT activity (VM.be / VM.dual).
    u64 xltInsnsTranslated = 0;  //!< instructions through the HAloop
    u64 xltComplexFallbacks = 0; //!< JCPX exits cracked in software
    u64 xltCtiFallbacks = 0;     //!< JCTI exits cracked in software
    // Dispatch machinery.
    u64 dispatches = 0;
    u64 chainFollows = 0;
    u64 chainsInstalled = 0;
    // Events.
    u64 hotspotDetections = 0;
    u64 preciseStateRecoveries = 0;
    u64 bbtCacheFlushes = 0;
    u64 sbtCacheFlushes = 0;
    // Asynchronous SBT pipeline activity.
    u64 asyncSbtRequests = 0;     //!< traces handed to the workers
    u64 asyncSbtInstalls = 0;     //!< background results installed
    u64 asyncSbtStaleDropped = 0; //!< results dropped as stale
    u64 asyncSbtQueueRejects = 0; //!< requests rejected (too many pending)
    // Persistent warm start.
    u64 warmLoaded = 0;         //!< records in the warm image
    u64 warmInstalled = 0;      //!< translations installed pre-dispatch
    u64 warmInsnsInstalled = 0; //!< x86 instructions those cover
    u64 warmInvalidated = 0;   //!< records rejected (stale guest code)
    u64 warmProfileSeeded = 0; //!< branch-profile entries seeded
    u64 warmBodyCopies = 0;    //!< per-record body copies at warm
                               //!< install: 0 by construction (every
                               //!< install is a view into the image)
    u64 warmRelocations = 0;   //!< chain links re-bound at warm start
    u64 warmMappedBytes = 0;   //!< shared-image bytes installed from

    u64
    totalRetired() const
    {
        return insnsInterp + insnsX86Mode + insnsBbtCode + insnsSbtCode;
    }

    bool operator==(const EngineStats &) const = default;
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_ENGINE_CONFIG_HH

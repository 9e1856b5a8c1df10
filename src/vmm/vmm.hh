/**
 * @file
 * The VMM runtime: the concealed software layer that orchestrates
 * staged emulation (paper Fig. 1).
 *
 * Since the engine-layer refactor the Vmm is a thin dispatch core:
 * it owns the run loop (chain-follow, lookup, translate-on-miss,
 * translated execution) and delegates everything configuration-
 * specific to the engine's strategy objects:
 *
 *  - engine::ColdExecutor -- what happens on a lookup miss
 *    (interpret, hardware x86-mode, software BBT, XLTx86-assisted
 *    BBT);
 *  - engine::HotspotDetector -- when a region goes hot (software
 *    exec counters or the hardware BBB);
 *  - engine::SbtBackend -- how a hot seed becomes optimized code;
 *  - engine::CodeCacheManager -- translation registration, arenas,
 *    flush-on-full eviction;
 *  - engine::TranslatedExecutor -- micro-op execution with
 *    precise-state recovery.
 *
 * Everything the core does is narrated as an engine::StageEvent
 * stream; the tracer's track-0 timeline is one consumer (TraceSink)
 * and callers may attach their own sinks (StageCounter gives retire
 * counts per stage).
 *
 * This is the functional VMM: it really translates, really executes
 * micro-ops from a really-allocated code cache, and is differentially
 * tested against pure interpretation. Timing is layered separately in
 * cdvm::timing.
 */

#ifndef CDVM_VMM_VMM_HH
#define CDVM_VMM_VMM_HH

#include <memory>
#include <optional>

#include "common/logging.hh"
#include "common/statreg.hh"
#include "common/trace.hh"
#include "engine/async_sbt.hh"
#include "engine/backend.hh"
#include "engine/cache_mgr.hh"
#include "engine/engine_config.hh"
#include "engine/events.hh"
#include "engine/profile.hh"
#include "engine/profiler.hh"
#include "engine/services.hh"
#include "engine/strategy.hh"
#include "engine/translated_exec.hh"
#include "hwassist/bbb.hh"
#include "x86/interp.hh"
#include "x86/memory.hh"

namespace cdvm::vmm
{

/** The engine configuration doubles as the VMM configuration. */
using VmmConfig = engine::EngineConfig;
/** Engine statistics are the VMM statistics. */
using VmmStats = engine::EngineStats;

/** The virtual machine monitor: the engine's dispatch core. */
class Vmm
{
  public:
    /**
     * Construct one guest context. Everything the Vmm owns is
     * per-context (registers live in the caller's CpuState; guest
     * memory is the caller's Memory; code caches, lookup structures,
     * profilers, and stats are private members) -- the only
     * process-wide couplings are the services passed here:
     *
     *  - services.sbtPool: background SBT requests go to this shared
     *    worker pool instead of a private one (multi-tenant hosting);
     *  - services.imageEndpoint: the warm-start source. Its current
     *    generation is acquired once, here, and installed before the
     *    first dispatched instruction; the Vmm holds that handle for
     *    its whole life, because installed translations are views
     *    into the image.
     *
     * Default-constructed services preserve the classic one-process,
     * one-context behavior exactly.
     */
    Vmm(x86::Memory &memory, const VmmConfig &config = {},
        const engine::SharedServices &services = {});
    ~Vmm();

    /**
     * Emulate from the CPU state until program exit, a trap, or at
     * least max_insns retired x86 instructions (translations complete
     * atomically, so the count may overshoot by one region).
     */
    x86::Exit run(x86::CpuState &cpu, InstCount max_insns);

    const VmmStats &stats() const { return st; }
    const VmmConfig &config() const { return cfg; }
    dbt::TranslationMap &translations() { return ccm.translations(); }
    const dbt::CodeCache &bbtCache() const { return ccm.bbtCache(); }
    const dbt::CodeCache &sbtCache() const { return ccm.sbtCache(); }
    const dbt::SuperblockTranslator &sbt() const
    {
        return sbtBackend.translator();
    }

    /**
     * Capture the live translations, hot counts and branch profile as
     * a built warm-start image, hottest-first; the config's
     * warmImageBudgetBytes evicts the cold tail. A fleet host primes
     * one context per class, captures it, and serves the (merged)
     * image to every later context through an ImageEndpoint.
     */
    dbt::TransImage captureWarmStart() const;

    /**
     * Save the captured warm-start image to path (atomic replace).
     * @return success.
     */
    bool saveWarmStart(const std::string &path) const;

    /** The hotspot detector's BBB (an idle unit when not used). */
    const hwassist::BranchBehaviorBuffer &bbb() const;

    /** Observed taken-bias of the branch at branch_pc, if profiled. */
    std::optional<double>
    branchBias(Addr branch_pc) const
    {
        return branchProf.bias(branch_pc);
    }

    /** The cold-code strategy in use. */
    const engine::ColdExecutor &coldExecutor() const { return *cold; }

    /** The background SBT pipeline (null in synchronous mode). */
    const engine::AsyncSbtEngine *asyncSbtEngine() const
    {
        return asyncSbt.get();
    }

    /**
     * Attach an additional consumer of the engine's stage events
     * (must outlive the Vmm's run() calls).
     */
    void attachSink(engine::StageSink *s) { events.attach(s); }

    /**
     * Publish the full staged-emulation picture into a StatRegistry:
     * vmm.* (this object's counters), dbt.* (translators, code
     * caches, lookup table), hwassist.* (BBB and, per configuration,
     * the XLTx86 unit or dual-mode decoders) and engine.* (profiling
     * containers). Values are copied at call time; call after run().
     */
    void exportStats(StatRegistry &reg) const;

    /**
     * The VMM's virtual trace clock, in work units: retired x86
     * instructions advance it by one each, translation work by the
     * number of instructions translated. It is the event stream's one
     * clock: spans in the global Tracer (track 0), the flight
     * recorder and the profiler's samples all use this timebase.
     */
    u64 traceClock() const { return events.clock(); }

    // --- continuous profiling ---------------------------------------
    /** The guest-hotness sampling profiler (disabled when period 0). */
    const engine::SamplingProfiler &profiler() const { return prof; }

    /** The always-on flight recorder ring. */
    const Tracer &flightRecorder() const { return flight; }

    /** Flush-storm detection counters. */
    const engine::FlightSink &flightSink() const { return flightFeed; }

    /** Dump the flight recorder to path now. @return success. */
    bool
    dumpFlight(const std::string &path) const
    {
        return flight.writeText(path);
    }

    /** Interval snapshots taken on the retired-instruction clock. */
    const SnapshotSeries &snapshots() const { return snaps; }

    /**
     * Take one snapshot row of the vmm.* and engine.* counters now,
     * at the current retire clock. Cheap: no async barrier, no
     * dbt/hwassist export -- safe from inside the run loop.
     */
    void snapshotNow();

    /**
     * Publish only this object's own counters (the vmm.* and
     * engine.(branch_prof|sbt_failed|profiler|flight).* namespaces)
     * -- the barrier-free subset of exportStats that interval
     * snapshots capture.
     */
    void exportCoreStats(StatRegistry &reg) const;

  private:
    x86::Exit runLoop(x86::CpuState &cpu, InstCount max_insns);
    /** Serialize captureWarmStart()'s image (staged as views). */
    std::vector<u8> buildWarmImage() const;
    /** Flight-recorder dump on Trap/DecodeFault exits. */
    void dumpFlightOnAbnormal(x86::Exit e) const;
    void invokeSbt(Addr seed_pc);
    /** Emit the SbtOptimize event and publish the superblock. */
    void installSbt(Addr seed_pc, std::unique_ptr<dbt::Translation> t,
                    bool background);
    /** Install the background optimizations that are due. */
    void drainAsyncSbt();

    x86::Memory &mem;
    VmmConfig cfg;
    /**
     * The warm-start generation acquired from the image endpoint
     * (null: booted cold). Declared before the code caches so it
     * outlives every translation that views into it.
     */
    std::shared_ptr<const dbt::TransImage> warmImage;
    VmmStats st;

    engine::EventStream events;
    engine::TraceSink traceSink;

    /** Per-branch direction profile (bounded; feeds the SBT's bias). */
    engine::BranchProfile branchProf;
    /** Seeds where superblock formation already failed (bounded). */
    engine::BoundedAddrSet sbtFailed;

    engine::CodeCacheManager ccm;
    std::unique_ptr<engine::ColdExecutor> cold;
    std::unique_ptr<engine::HotspotDetector> detector;
    engine::SbtBackend sbtBackend;
    /** Background optimization contexts (cfg.asyncTranslators > 0). */
    std::unique_ptr<engine::AsyncSbtEngine> asyncSbt;
    engine::TranslatedExecutor translatedExec;

    // --- continuous profiling (dispatch-thread only) ----------------
    /**
     * Per-backend host translation-time histograms (wall ns per
     * translate call), split by producing tier so the template tier's
     * speedup is observable in the stats, not just benchmarked:
     * engine.xlate.bbt_ns / tmpl_ns / sbt_ns.
     */
    LogHistogram xlateBbtNs{2.0, 40};
    LogHistogram xlateTmplNs{2.0, 40};
    LogHistogram xlateSbtNs{2.0, 40};
    engine::SamplingProfiler prof;
    Tracer flight;
    engine::FlightSink flightFeed;
    /** This context's registration in the crash-hook registry. */
    CrashHookId crashHook = NO_CRASH_HOOK;
    SnapshotSeries snaps;
    /** Retire clock that triggers the next snapshot row. */
    u64 nextSnapshotAt = 0;

    /**
     * The translation we last exited from (chaining source). A
     * generational handle, not a pointer: a code-cache flush makes it
     * resolve to nullptr instead of dangling.
     */
    dbt::TransId lastTrans;
};

} // namespace cdvm::vmm

#endif // CDVM_VMM_VMM_HH

/**
 * @file
 * The multi-tenant emulation server: many guest contexts, one process.
 *
 * The paper studies one VM booting; a co-designed host in production
 * hosts fleets of them, and the startup transient turns into a boot
 * storm: every arriving context wants BBT translation and SBT
 * optimization at once. FleetServer reproduces that regime
 * functionally:
 *
 *  - each context is a full per-tenant Vmm (private guest memory,
 *    code caches, lookup structures, profilers, stats) constructed
 *    over process-shared services (one SBT worker pool, one shared
 *    warm-start image for every workload);
 *  - a scheduler multiplexes the contexts onto the emulation thread
 *    in retired-instruction time slices (fleet/scheduler.hh);
 *  - a deterministic virtual clock prices every context's staged
 *    work in cycles with its cold tier's engine::CostModel (the
 *    paper's constants, the same table the timing simulator uses),
 *    so time-to-milestone numbers -- and the warm-vs-cold gate built
 *    on them -- are exactly reproducible, independent of host load;
 *  - admission follows an ArrivalCurve (storm, stepped batches,
 *    Poisson churn), and retirement evicts the context's memory and
 *    caches after folding its stats into ctx.<id>.* subtrees.
 *
 * Determinism: everything (workload generation, arrival times,
 * scheduling, async SBT installs, the virtual clock) derives from
 * FleetConfig alone, with or without a shared SBT pool. Host
 * wall-clock appears only in the reported aggregate MIPS.
 */

#ifndef CDVM_FLEET_FLEET_HH
#define CDVM_FLEET_FLEET_HH

#include <memory>
#include <string>
#include <vector>

#include "common/statreg.hh"
#include "common/threadpool.hh"
#include "engine/cost_model.hh"
#include "engine/events.hh"
#include "fleet/arrival.hh"
#include "fleet/scheduler.hh"
#include "vmm/vmm.hh"
#include "workload/program_gen.hh"
#include "x86/interp.hh"
#include "x86/memory.hh"

namespace cdvm::fleet
{

/**
 * Deterministic per-context seed: a splitmix64-style mix of the fleet
 * seed and the context id. Context i of workload class w derives its
 * program from deriveSeed(fleetSeed, w), so reseeding the fleet
 * reseeds every tenant, and the same (fleet seed, context id) always
 * boots the same guest.
 */
u64 deriveSeed(u64 fleet_seed, u64 ctx_id);

/**
 * Shrink an engine config's per-tenant capacity presets so hundreds
 * of co-resident contexts fit one process: smaller code-cache arenas,
 * lookup/lookaside/decode-cache presets, profiling rings. Staging
 * behavior (cold strategy, detector, thresholds) is untouched.
 */
engine::EngineConfig tenantEngineConfig(engine::EngineConfig base);

/**
 * StageSink that prices a context's event stream in virtual cycles
 * with its cold tier's engine::CostModel. Background work (async SBT
 * on a worker thread) is occupancy, not critical-path time, and is
 * not charged.
 */
class WorkClockSink : public engine::StageSink
{
  public:
    explicit WorkClockSink(
        engine::ColdKind tier = engine::ColdKind::SoftwareBbt)
        : model(engine::CostModel::forTier(tier))
    {
    }

    void
    onEvent(const engine::StageEvent &e) override
    {
        acc += model.price(e).critical;
    }

    /**
     * Attach to vm and charge the warm fill its constructor already
     * ran, before any sink could see it, so warm boots pay their
     * install bill on the same clock cold boots pay translation on.
     */
    void attach(vmm::Vmm &vm);

    /** Cycles accumulated so far (monotone). */
    u64 cycles() const { return static_cast<u64>(acc); }

  private:
    engine::CostModel model;
    double acc = 0.0;
};

/** One fleet run's knobs. */
struct FleetConfig
{
    unsigned contexts = 16;
    /** Distinct workload classes; context i runs class i % workloads,
     *  each class generated from deriveSeed(fleetSeed, class). */
    unsigned workloads = 4;
    u64 fleetSeed = 1;

    SchedPolicy policy = SchedPolicy::RoundRobin;
    /** Retired-insn quantum per slice. */
    u64 quantumInsns = 20'000;

    /** Milestone for the startup metric (time-to-first-N-insns). */
    u64 milestoneInsns = 1'000'000;
    /** A context completes at its first HLT with >= target retired
     *  (the generated program reruns until then, so slicing never
     *  changes the final architected state). */
    u64 targetInsns = 1'000'000;

    ArrivalCurve arrival{};

    /** Per-tenant engine template (seed/paths are per-context); run
     *  through tenantEngineConfig() by FleetServer. */
    engine::EngineConfig engineCfg;

    /** Background SBT workers in the process-shared pool (0 = every
     *  tenant optimizes synchronously; tenant asyncTranslators are
     *  overridden to match). */
    unsigned sharedPoolWorkers = 0;
    /** Bound on queued optimization requests in the shared pool,
     *  and on each tenant's pending requests. */
    std::size_t sharedPoolQueueCap = 256;

    /** Workload shape template; seed is overridden per class. */
    workload::ProgramParams workloadParams;

    /**
     * The fleet's warm-start source: ONE shared zero-copy image for
     * every context, from an in-process dbt::ImageStore or a
     * serve::ImageClient bound to an image-host daemon in another
     * process (null: every context cold-boots). Resolved to a
     * generation handle at each admission, so contexts admitted after
     * a publish pick up the new generation while running contexts
     * keep theirs; a null acquire() boots that context cold. Dedupe
     * by guest-page content keeps cross-class records apart. The
     * boot-storm win: N contexts, one verification, one physical
     * copy, relocation-only installs.
     */
    std::shared_ptr<dbt::ImageEndpoint> imageEndpoint;

    /** Fold each retired context's full stat export into a
     *  ctx.<id>.* subtree (exportStats). Off by default: 256 contexts
     *  of per-context histograms are bulky. */
    bool exportPerContext = false;
};

/** One context's lifecycle summary. */
struct ContextResult
{
    unsigned id = 0;
    unsigned workload = 0;
    u64 programSeed = 0;
    u64 admitClock = 0;     //!< fleet cycles at admission
    u64 firstRunClock = 0;  //!< fleet cycles at the first slice
    u64 milestoneClock = 0; //!< fleet cycles when retired hit the
                            //!< milestone (0 = never reached)
    u64 doneClock = 0;      //!< fleet cycles at completion
    u64 retired = 0;        //!< x86 instructions retired
    u64 cycles = 0;         //!< weighted cycles this context consumed
    u64 reruns = 0;         //!< program completions before target
    bool ok = false;        //!< halted normally, first-halt state
                            //!< matched the interpreter reference
    // Headline per-context engine counters (full export optional).
    u64 bbtTranslations = 0;
    u64 sbtTranslations = 0;
    u64 warmInstalled = 0;
    u64 warmInvalidated = 0;
    u64 warmRelocations = 0; //!< chain fixups in the relocation pass
    u64 asyncQueueRejects = 0;
    u64 cacheFlushes = 0;

    /** Admission-to-milestone latency, fleet cycles (0 if never). */
    u64
    timeToMilestone() const
    {
        return milestoneClock ? milestoneClock - admitClock : 0;
    }
};

/** Whole-fleet outcome. */
struct FleetResult
{
    std::vector<ContextResult> contexts;
    u64 fleetClock = 0;   //!< final virtual clock (cycles)
    u64 totalRetired = 0; //!< x86 instructions across the fleet
    u64 totalReruns = 0;
    u64 slices = 0;       //!< scheduler decisions made
    unsigned peakResident = 0; //!< max simultaneously live contexts
    unsigned completed = 0;
    unsigned failed = 0;  //!< abnormal exit or reference mismatch

    double hostSeconds = 0.0; //!< wall time of run() (host metric)
    double guestMips = 0.0;   //!< totalRetired / hostSeconds / 1e6

    // Startup latency distribution (admission -> milestone), fleet
    // cycles, over contexts that reached the milestone. -1 if none.
    unsigned reachedMilestone = 0;
    double p50TimeToMilestone = -1.0;
    double p99TimeToMilestone = -1.0;
};

/** Hosts N contexts over shared services and runs them to completion. */
class FleetServer
{
  public:
    explicit FleetServer(const FleetConfig &config);
    ~FleetServer();

    /** Admit, schedule and retire every context; returns the summary
     *  (also kept for exportStats). Call once. */
    FleetResult run();

    /**
     * Publish fleet.* aggregates and -- with
     * FleetConfig::exportPerContext -- each retired context's full
     * stat export nested under ctx.<id>.*. Call after run().
     */
    void exportStats(StatRegistry &reg) const;

    const FleetConfig &config() const { return cfg; }
    /** The process-shared SBT pool (null when synchronous). */
    const ThreadPool *sharedPool() const { return pool.get(); }

  private:
    struct Tenant;
    struct WorkloadClass;

    void buildWorkloads();
    void admit(std::size_t idx, u64 due);
    void retire(Tenant &t, u64 now);
    u64 remainingOf(const Tenant &t) const;

    FleetConfig cfg;
    engine::EngineConfig tenantCfg; //!< resolved per-tenant template
    std::unique_ptr<ThreadPool> pool;
    std::vector<WorkloadClass> classes;
    std::vector<std::unique_ptr<Tenant>> tenants;
    FleetResult result;
    bool ran = false;
    /** Retired contexts' stat exports, already ctx.<id>.*-prefixed. */
    StatRegistry ctxStats;
};

} // namespace cdvm::fleet

#endif // CDVM_FLEET_FLEET_HH

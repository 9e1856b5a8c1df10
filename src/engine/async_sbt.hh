/**
 * @file
 * The asynchronous SBT pipeline: background superblock optimization.
 *
 * The paper charges the full Delta_SBT (1674 native instructions per
 * translated instruction) on the emulation thread at the moment a
 * region crosses the hot threshold. Real co-designed VMs hide that
 * latency: the dispatch loop keeps retiring cold/BBT code while
 * optimization proceeds on background contexts. This class is that
 * pipeline for the functional VM.
 *
 * Protocol (see DESIGN.md "Asynchronous SBT pipeline"):
 *
 *  - *Form on the dispatch thread.* Superblock formation reads guest
 *    memory and the live branch-direction profile, both owned by the
 *    emulation thread; the Vmm forms the SuperblockTrace at detection
 *    time and hands the workers a self-contained value. Workers never
 *    touch guest-visible state.
 *  - *Book a deadline.* Each request is booked on cfg.asyncTranslators
 *    virtual contexts with the timing model's rule (AsyncContexts),
 *    on the retired-instruction clock.
 *  - *Optimize on a worker.* Each worker context owns a private
 *    SuperblockTranslator, so the expensive optimization runs
 *    unsynchronized; the result goes to the request's own slot.
 *  - *Install on the dispatch thread at the deadline.* The Vmm pops
 *    due requests at dispatch points, waiting for a worker that has
 *    not finished, and publishes the superblock itself. A code-cache
 *    flush therefore never races an install, and results that became
 *    stale (a superblock already published at that seed) are dropped.
 *
 * Back-pressure: a request is rejected while asyncQueueCap of this
 *  engine's requests are pending, and the seed stays cold until a
 *  later detection. A full host queue never drops a request: the
 *  dispatch thread optimizes it itself, at the same deadline. Host
 *  timing decides only how long the dispatch thread waits, so an
 *  async run repeats event for event.
 */

#ifndef CDVM_ENGINE_ASYNC_SBT_HH
#define CDVM_ENGINE_ASYNC_SBT_HH

#include <future>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/stats.hh"
#include "common/threadpool.hh"
#include "dbt/sbt.hh"
#include "dbt/superblock.hh"
#include "engine/async_contexts.hh"
#include "engine/engine_config.hh"

namespace cdvm
{
class StatRegistry;
}

namespace cdvm::engine
{

/** One finished background optimization. */
struct AsyncSbtResult
{
    Addr seed = 0;
    /** The optimized superblock; null when the optimizer declined. */
    std::unique_ptr<dbt::Translation> trans;
    /** Host steady-clock ns around the optimization (telemetry). */
    u64 optStartNs = 0;
    u64 optEndNs = 0;
};

/** Background superblock-optimization contexts. */
class AsyncSbtEngine
{
  public:
    /**
     * Spin up cfg.asyncTranslators worker contexts, each with its own
     * SuperblockTranslator configured like the synchronous SBT's.
     * With shared_pool, no threads are spawned: requests go to the
     * caller-owned pool (one fleet-wide pool for every tenant), with
     * one private translator per pool worker. Bookings, result slots
     * and latency accounting stay per-engine, so results never cross
     * tenants. The shared pool must outlive this engine.
     */
    explicit AsyncSbtEngine(const EngineConfig &cfg,
                            ThreadPool *shared_pool = nullptr);

    /** Waits for this engine's requests still on the workers. */
    ~AsyncSbtEngine() { barrier(); }

    // The request/install side runs on the dispatch thread only.

    /** True when the seed has been requested and not popped yet. */
    bool pending(Addr seed) const;

    /**
     * Book a formed trace requested at retired count now and hand it
     * to a worker. Returns false (back-pressure: the caller leaves the
     * seed cold) when asyncQueueCap requests are already pending.
     */
    bool request(Addr seed, dbt::SuperblockTrace trace, u64 now);

    /** True when a request is due at retired count now. */
    bool due(u64 now) const { return ctxs.due(static_cast<double>(now)); }

    /** Pop the earliest-due request, waiting for its worker. */
    AsyncSbtResult pop();

    /** Wait until every pending request's optimization has finished. */
    void barrier() const;

    /** Pops that had to wait for their worker. */
    u64 waits() const { return nWaits; }
    /** True when the pool is caller-owned (fleet mode). */
    bool sharedPool() const { return !ownedPool; }

    // Per-job pipeline latency, accumulated at pop time (dispatch
    // thread only): request -> optimize start (queue wait), optimize
    // start -> end (worker occupancy), optimize end -> install
    // (deadline wait), and request -> install (end to end).
    const LogHistogram &queueLatency() const { return latQueue; }
    const LogHistogram &optimizeLatency() const { return latOptimize; }
    const LogHistogram &drainLatency() const { return latDrain; }
    const LogHistogram &totalLatency() const { return latTotal; }

    /** Publish dbt.sbt.*-shaped aggregates plus engine.async.*
     *  counters. Call after barrier(). */
    void exportStats(StatRegistry &reg,
                     const std::string &sbt_prefix) const;

  private:
    /** One booked request: its seed and its worker's result slot. */
    struct Request
    {
        Addr seed = 0;
        u64 enqueueNs = 0;
        std::future<AsyncSbtResult> result;
    };

    /** Private pool (classic single-tenant mode); null when shared. */
    std::unique_ptr<ThreadPool> ownedPool;
    /** The pool in use: &*ownedPool or the caller's shared pool. */
    ThreadPool *pool;
    /**
     * One private translator per worker context (index = ctx), plus
     * one for the dispatch thread when the host queue is full.
     */
    std::vector<dbt::SuperblockTranslator> translators;

    std::size_t queueCap;
    /** The virtual contexts and the requests booked on them. */
    AsyncContexts<Request> ctxs;
    /** The seeds of those requests, so pending() is one probe: the
     *  dispatch thread asks on every entry of a hot block. */
    std::unordered_multiset<Addr> bookedSeeds;
    /** Requests the dispatch thread optimized (host queue full). */
    u64 nInline = 0;
    u64 nWaits = 0;
    u64 nWaitNs = 0;

    // Latency histograms (ns, power-of-two buckets).
    LogHistogram latQueue{2.0, 40};
    LogHistogram latOptimize{2.0, 40};
    LogHistogram latDrain{2.0, 40};
    LogHistogram latTotal{2.0, 40};
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_ASYNC_SBT_HH

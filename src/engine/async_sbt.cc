#include "engine/async_sbt.hh"

#include <algorithm>
#include <chrono>

#include "common/statreg.hh"
#include "engine/cost_model.hh"

namespace cdvm::engine
{

namespace
{

/** Monotonic host time in nanoseconds (latency telemetry only). */
u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Delta_SBT in the pre-hot tier's execution units: the instructions
 * the emulation thread retires while one is optimized. Translating
 * tiers run BBT code before a region is hot, the others run cold
 * code (the timing model derives the same ratio from an app's CPIs).
 */
double
latencyPerInsn(ColdKind cold)
{
    const CostModel c = CostModel::forTier(cold);
    const bool translates = cold != ColdKind::Interpret &&
                            cold != ColdKind::HardwareX86Mode;
    return c.sbtOptimize / (translates ? c.bbtExec : c.coldExec);
}

} // namespace

AsyncSbtEngine::AsyncSbtEngine(const EngineConfig &cfg,
                               ThreadPool *shared_pool)
    : ownedPool(shared_pool
                    ? nullptr
                    : std::make_unique<ThreadPool>(cfg.asyncTranslators,
                                                   cfg.asyncQueueCap)),
      pool(shared_pool ? shared_pool : ownedPool.get()),
      queueCap(cfg.asyncQueueCap),
      ctxs(cfg.asyncTranslators, latencyPerInsn(cfg.cold))
{
    // Translators are indexed by the executing worker's context id,
    // so a shared pool needs one per *pool* worker even though this
    // engine may only ever occupy a few of them at once.
    translators.reserve(pool->workers() + 1);
    for (unsigned i = 0; i <= pool->workers(); ++i)
        translators.emplace_back(cfg.fusion);
}

bool
AsyncSbtEngine::pending(Addr seed) const
{
    return std::any_of(ctxs.booked().begin(), ctxs.booked().end(),
                       [seed](const auto &b) { return b.job.seed == seed; });
}

bool
AsyncSbtEngine::request(Addr seed, dbt::SuperblockTrace trace, u64 now)
{
    if (ctxs.booked().size() >= queueCap)
        return false;
    const u64 insns = trace.insns.size();
    // The trace is moved into the task: the worker owns it outright
    // and never touches guest memory or the branch profile.
    auto task = std::make_shared<std::packaged_task<AsyncSbtResult(unsigned)>>(
        [this, seed, tr = std::move(trace)](unsigned ctx) {
            AsyncSbtResult r;
            r.seed = seed;
            r.optStartNs = nowNs();
            r.trans = translators[ctx].translate(tr);
            r.optEndNs = nowNs();
            return r;
        });
    Request rq{seed, nowNs(), task->get_future()};
    if (!pool->trySubmit([task](unsigned ctx) { (*task)(ctx); })) {
        // The host queue is full: optimize here. The deadline is the
        // model's, so only host time changes.
        ++nInline;
        (*task)(pool->workers());
    }
    ctxs.book(static_cast<double>(now), insns, std::move(rq));
    return true;
}

AsyncSbtResult
AsyncSbtEngine::pop()
{
    Request rq = ctxs.pop();
    if (rq.result.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
        const u64 t0 = nowNs();
        rq.result.wait();
        ++nWaits;
        nWaitNs += nowNs() - t0;
    }
    AsyncSbtResult r = rq.result.get();

    const u64 drain_ns = nowNs();
    latQueue.add(r.optStartNs - rq.enqueueNs);
    latOptimize.add(r.optEndNs - r.optStartNs);
    latDrain.add(drain_ns - r.optEndNs);
    latTotal.add(drain_ns - rq.enqueueNs);
    return r;
}

void
AsyncSbtEngine::barrier() const
{
    for (const auto &b : ctxs.booked())
        b.job.result.wait();
}

void
AsyncSbtEngine::exportStats(StatRegistry &reg,
                            const std::string &sbt_prefix) const
{
    u64 superblocks = 0, insns = 0, uops = 0, pairs = 0;
    for (const dbt::SuperblockTranslator &t : translators) {
        superblocks += t.superblocksTranslated();
        insns += t.insnsTranslated();
        uops += t.totalUopsEmitted();
        pairs += t.totalPairsFused();
    }
    reg.set(sbt_prefix + ".superblocks", static_cast<double>(superblocks),
            "hot superblocks optimized");
    reg.set(sbt_prefix + ".insns", static_cast<double>(insns),
            "x86 instructions optimized");
    reg.set(sbt_prefix + ".uops_emitted", static_cast<double>(uops),
            "micro-ops emitted after optimization");
    reg.set(sbt_prefix + ".pairs_fused", static_cast<double>(pairs),
            "macro-op pairs fused");
    reg.set(sbt_prefix + ".fusion_rate",
            uops ? 2.0 * static_cast<double>(pairs) /
                       static_cast<double>(uops)
                 : 0.0,
            "fraction of uops inside fused pairs");

    reg.set("engine.async.contexts",
            static_cast<double>(pool->workers()),
            "background translator contexts");
    reg.set("engine.async.shared_pool", ownedPool ? 0.0 : 1.0,
            "1 when the worker pool is process-shared (fleet mode)");
    reg.set("engine.async.inline", static_cast<double>(nInline),
            "requests optimized on the dispatch thread (host queue "
            "full)");
    reg.set("engine.async.waits", static_cast<double>(nWaits),
            "installs that waited for an unfinished worker");
    reg.set("engine.async.wait_ns", static_cast<double>(nWaitNs),
            "host ns the dispatch thread spent in those waits");

    // Publish the latency distributions by copy: the registry's JSON
    // dump then carries bucket weights plus p50/p90/p95/p99.
    reg.histogram("engine.async.latency.queue_ns", 2.0, 40,
                  "request -> optimize start (ns)") = latQueue;
    reg.histogram("engine.async.latency.optimize_ns", 2.0, 40,
                  "optimize start -> end (ns)") = latOptimize;
    reg.histogram("engine.async.latency.drain_ns", 2.0, 40,
                  "optimize end -> install (ns)") = latDrain;
    reg.histogram("engine.async.latency.total_ns", 2.0, 40,
                  "request -> install (ns)") = latTotal;
}

} // namespace cdvm::engine

/**
 * @file
 * The asynchronous SBT pipeline's test layer.
 *
 * Three concerns, layered:
 *
 *  - ThreadPool unit behaviour: task execution, bounded-queue
 *    back-pressure, drain semantics, destructor draining; and the
 *    AsyncContexts booking rule;
 *  - VMM-level concurrency protocol: code-cache flushes racing
 *    in-flight installs, stale-result dropping, async runs replaying
 *    the same StageEvent stream whatever the workers' host timing;
 *  - differential stress: a seed sweep running every async
 *    configuration against the reference interpreter. The tier-1 run
 *    uses a small sweep; setting CDVM_STRESS widens it to ~100 seeds
 *    (the `stress`-labelled ctest entry does this).
 */

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "common/threadpool.hh"
#include "engine/async_contexts.hh"
#include "engine/cost_model.hh"
#include "engine/events.hh"
#include "helpers.hh"

namespace cdvm
{
namespace
{

using test::RunResult;
using test::runInterp;
using test::runVmm;
using test::sameOutcome;

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, ExecutesAllTasks)
{
    ThreadPool pool(4, 128);
    std::atomic<int> sum{0};
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(pool.trySubmit([&sum](unsigned) { ++sum; }));
    pool.drain();
    EXPECT_EQ(sum.load(), 100);
    EXPECT_EQ(pool.executed(), 100u);
}

TEST(ThreadPool, ContextIdsArePrivatePerWorker)
{
    ThreadPool pool(3);
    std::array<std::atomic<int>, 3> perCtx{};
    for (int i = 0; i < 60; ++i)
        ASSERT_TRUE(pool.trySubmit([&perCtx](unsigned ctx) {
            ASSERT_LT(ctx, 3u);
            ++perCtx[ctx];
        }));
    pool.drain();
    int total = 0;
    for (auto &c : perCtx)
        total += c.load();
    EXPECT_EQ(total, 60);
}

TEST(ThreadPool, BoundedQueueBackPressure)
{
    ThreadPool pool(1, 2);

    // Gate the single worker so the queue genuinely fills up.
    std::mutex mu;
    std::condition_variable cv;
    bool gateOpen = false;
    std::atomic<bool> blockerRunning{false};

    ASSERT_TRUE(pool.trySubmit([&](unsigned) {
        blockerRunning = true;
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return gateOpen; });
    }));
    while (!blockerRunning)
        std::this_thread::yield();

    // Worker busy: capacity-2 queue takes exactly two more tasks.
    std::atomic<int> done{0};
    EXPECT_TRUE(pool.trySubmit([&done](unsigned) { ++done; }));
    EXPECT_TRUE(pool.trySubmit([&done](unsigned) { ++done; }));
    EXPECT_FALSE(pool.trySubmit([&done](unsigned) { ++done; }));

    {
        std::lock_guard<std::mutex> lk(mu);
        gateOpen = true;
    }
    cv.notify_all();
    pool.drain();
    EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPool, DestructorDrainsPendingWork)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i)
            ASSERT_TRUE(
                pool.trySubmit([&done](unsigned) { ++done; }));
    }
    EXPECT_EQ(done.load(), 32);
}

// ---------------------------------------------------------------------
// AsyncContexts: the one install rule
// ---------------------------------------------------------------------

TEST(AsyncContexts, BooksTheLeastLoadedContext)
{
    engine::AsyncContexts<int> c(2, 10.0);
    // Idle contexts: a job starts now and takes 10 per instruction.
    EXPECT_EQ(c.book(100.0, 5, 0), 150.0); // busy until 150
    EXPECT_EQ(c.book(100.0, 2, 1), 120.0); // the other, until 120
    // Both busy: the one free first takes it when it frees up.
    EXPECT_EQ(c.book(110.0, 1, 2), 130.0); // max(120, 110) + 10
    // Idle again by now: the job starts now, not at free time.
    EXPECT_EQ(c.book(200.0, 1, 3), 210.0); // max(130, 200) + 10
    EXPECT_EQ(c.book(0.0, 6, 4), 210.0);   // max(150, 0) + 60
    // Both free at 210: one job each.
    EXPECT_EQ(c.book(0.0, 1, 5), 220.0);
    EXPECT_EQ(c.book(0.0, 1, 6), 220.0);

    // Jobs leave in (deadline, request) order.
    EXPECT_FALSE(c.due(119.0));
    EXPECT_TRUE(c.due(120.0));
    ASSERT_EQ(c.booked().size(), 7u);
    std::vector<int> order;
    while (c.due(1e9))
        order.push_back(c.pop());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3, 4, 5, 6}));
    EXPECT_TRUE(c.booked().empty());
}

// ---------------------------------------------------------------------
// VMM-level async protocol
// ---------------------------------------------------------------------

vmm::VmmConfig
asyncCfg(unsigned contexts = 2)
{
    vmm::VmmConfig c = engine::EngineConfig::vmSoftAsync(contexts);
    c.hotThreshold = 30;
    return c;
}

vmm::VmmConfig
syncCfg()
{
    vmm::VmmConfig c = engine::EngineConfig::vmSoft();
    c.hotThreshold = 30;
    return c;
}

/** Records the full StageEvent stream for replay comparison. */
class RecordingSink : public engine::StageSink
{
  public:
    void onEvent(const engine::StageEvent &e) override
    {
        events.push_back(e);
    }
    std::vector<engine::StageEvent> events;
};

bool
sameEvent(const engine::StageEvent &a, const engine::StageEvent &b)
{
    return a.stage == b.stage && a.insns == b.insns &&
           a.x86Addr == b.x86Addr && a.x86Bytes == b.x86Bytes &&
           a.codeAddr == b.codeAddr && a.codeBytes == b.codeBytes &&
           a.instant == b.instant && a.background == b.background &&
           a.arg == b.arg;
}

/** runVmm with a StageEvent recorder attached. */
RunResult
runVmmRecorded(const workload::Program &prog, x86::Memory &mem,
               const vmm::VmmConfig &cfg, RecordingSink &sink,
               vmm::VmmStats *stats_out = nullptr,
               const engine::SharedServices &svc = {},
               u64 *waits_out = nullptr)
{
    prog.loadInto(mem);
    RunResult r;
    r.cpu = prog.initialState();
    vmm::Vmm monitor(mem, cfg, svc);
    monitor.attachSink(&sink);
    r.exit = monitor.run(r.cpu, 10'000'000);
    r.retired = r.cpu.icount;
    if (stats_out)
        *stats_out = monitor.stats();
    if (waits_out)
        *waits_out = monitor.asyncSbtEngine()->waits();
    return r;
}

workload::Program
stressProgram(u64 seed)
{
    workload::ProgramParams pp;
    pp.seed = seed;
    pp.numFuncs = 3 + static_cast<unsigned>(seed % 3);
    pp.mainIterations = 40;
    return workload::generateProgram(pp);
}

/** Both runs emitted the same StageEvent stream. */
void
expectSameEvents(const RecordingSink &a, const RecordingSink &b)
{
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i)
        ASSERT_TRUE(sameEvent(a.events[i], b.events[i]))
            << "event " << i << " differs between the runs";
}

TEST(AsyncSbt, RunsReplayIdentically)
{
    workload::Program prog = stressProgram(7);

    RecordingSink a, b;
    x86::Memory mem_a, mem_b;
    vmm::VmmStats st_a, st_b;
    RunResult ra = runVmmRecorded(prog, mem_a, asyncCfg(), a, &st_a);
    RunResult rb = runVmmRecorded(prog, mem_b, asyncCfg(), b, &st_b);

    EXPECT_TRUE(sameOutcome(prog, ra, mem_a, rb, mem_b));
    expectSameEvents(a, b);
    EXPECT_TRUE(st_a == st_b);
    ASSERT_GT(st_a.asyncSbtInstalls, 0u);

    // Every superblock was optimized on a background context, so none
    // is critical-path work, and none installs before its deadline:
    // the first waits at least its own Delta_SBT in BBT-code units.
    const engine::CostModel cost =
        engine::CostModel::forTier(engine::ColdKind::SoftwareBbt);
    u64 retired = 0, optimizes = 0;
    for (const engine::StageEvent &e : a.events) {
        if (e.stage == TracePhase::BbtExec ||
            e.stage == TracePhase::SbtExec)
            retired += e.insns;
        if (e.stage != TracePhase::SbtOptimize)
            continue;
        if (optimizes++ == 0) {
            EXPECT_GE(static_cast<double>(retired),
                      static_cast<double>(e.insns) * cost.sbtOptimize /
                          cost.bbtExec);
        }
        EXPECT_TRUE(e.background) << "SbtOptimize at " << e.x86Addr;
    }
    EXPECT_EQ(optimizes, st_a.asyncSbtInstalls);
}

TEST(AsyncSbt, LateWorkerChangesOnlyHostTime)
{
    // One shared worker held behind a gate that another thread opens
    // after about 50 ms: installs that fall due meanwhile wait for it.
    // The booked deadline, not the worker, decides what installs
    // when, so the run is the one a free pool gives.
    workload::Program prog = stressProgram(7);

    RecordingSink free_sink;
    x86::Memory free_mem;
    vmm::VmmStats free_st;
    ThreadPool free_pool(1);
    engine::SharedServices free_svc;
    free_svc.sbtPool = &free_pool;
    RunResult free_run = runVmmRecorded(prog, free_mem, asyncCfg(),
                                        free_sink, &free_st, free_svc);

    ThreadPool pool(1);
    std::mutex mu;
    std::condition_variable cv;
    bool gate_open = false;
    ASSERT_TRUE(pool.trySubmit([&](unsigned) {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return gate_open; });
    }));
    std::thread opener([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        {
            std::lock_guard<std::mutex> lk(mu);
            gate_open = true;
        }
        cv.notify_all();
    });
    RecordingSink late_sink;
    x86::Memory late_mem;
    vmm::VmmStats late_st;
    engine::SharedServices svc;
    svc.sbtPool = &pool;
    u64 waits = 0;
    RunResult late_run = runVmmRecorded(prog, late_mem, asyncCfg(),
                                        late_sink, &late_st, svc, &waits);
    opener.join();

    EXPECT_TRUE(
        sameOutcome(prog, free_run, free_mem, late_run, late_mem));
    expectSameEvents(free_sink, late_sink);
    EXPECT_TRUE(free_st == late_st);
    EXPECT_GT(late_st.asyncSbtInstalls, 0u);
    EXPECT_GT(waits, 0u) << "no install fell due while the gate held";
}

TEST(AsyncSbt, FlushRacingInFlightInstallsStaysCorrect)
{
    // Tiny SBT arena: installs force flushes while more results are
    // in flight. Stale results must be dropped, chains reset, and the
    // architected outcome must still match the interpreter.
    workload::ProgramParams pp;
    pp.seed = 77;
    pp.numFuncs = 6;
    pp.blocksPerFunc = 5;
    pp.mainIterations = 8;
    workload::Program prog = workload::generateProgram(pp);

    x86::Memory ref_mem;
    RunResult ref = runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit),
              static_cast<int>(x86::Exit::Halted));

    vmm::VmmConfig c = asyncCfg();
    c.sbtCacheBytes = 2048; // force flush/retranslate cycles
    x86::Memory mem;
    vmm::VmmStats stats;
    RunResult got = runVmm(prog, mem, c, &stats);
    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem));
    EXPECT_GT(stats.sbtCacheFlushes, 0u)
        << "arena was big enough that flushing never happened";
    EXPECT_GT(stats.asyncSbtInstalls, 0u);
}

TEST(AsyncSbt, SingleContextTinyQueueStaysCorrect)
{
    // The most contended configuration: one worker, a one-slot queue.
    // Rejected requests must leave seeds cold until re-detected.
    workload::Program prog = stressProgram(13);

    x86::Memory ref_mem;
    RunResult ref = runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit),
              static_cast<int>(x86::Exit::Halted));

    vmm::VmmConfig c = asyncCfg(1);
    c.asyncQueueCap = 1;
    x86::Memory mem;
    vmm::VmmStats stats;
    RunResult got = runVmm(prog, mem, c, &stats);
    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem));
    // Every settled request is installed, dropped stale, or a
    // formation failure; some may still be in flight at program exit.
    EXPECT_GT(stats.asyncSbtRequests, 0u);
    EXPECT_GT(stats.asyncSbtQueueRejects, 0u);
    EXPECT_LE(stats.asyncSbtInstalls + stats.asyncSbtStaleDropped +
                  stats.sbtFormationFailures,
              stats.asyncSbtRequests);
}

// ---------------------------------------------------------------------
// Differential stress sweep
// ---------------------------------------------------------------------

/**
 * Seeds for the sweep: the tier-1 run keeps it small; the ctest
 * `stress` entry sets CDVM_STRESS to widen it to ~100 seeds (through
 * every configuration, so roughly 400 full VM runs).
 */
unsigned
sweepSeeds()
{
    const char *env = std::getenv("CDVM_STRESS");
    if (env && *env)
        return static_cast<unsigned>(std::atoi(env));
    return 8;
}

TEST(AsyncStress, SeedSweepAllAsyncConfigs)
{
    const unsigned seeds = sweepSeeds();
    struct Case
    {
        const char *name;
        vmm::VmmConfig cfg;
    };
    const Case cases[] = {
        {"vm.soft", syncCfg()},
        {"vm.soft.async", asyncCfg()},
        {"vm.be.async",
         [] {
             vmm::VmmConfig c = engine::EngineConfig::vmBeAsync();
             c.hotThreshold = 30;
             return c;
         }()},
    };

    for (unsigned seed = 1; seed <= seeds; ++seed) {
        workload::Program prog = stressProgram(1000 + seed);

        x86::Memory ref_mem;
        RunResult ref = runInterp(prog, ref_mem);
        ASSERT_EQ(static_cast<int>(ref.exit),
                  static_cast<int>(x86::Exit::Halted))
            << "seed " << seed;

        for (const Case &c : cases) {
            x86::Memory mem;
            RunResult got = runVmm(prog, mem, c.cfg);
            EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem))
                << c.name << " seed " << seed;
        }
    }
}

} // namespace
} // namespace cdvm

/**
 * @file
 * Continuous-profiling layer tests: the flight-recorder ring (a
 * Tracer: wraparound, overwrite ordering, text dump), the sampling
 * profiler's countdown arithmetic and attribution, agreement between
 * the sampled heatmap and exhaustive per-page accounting, sampler
 * determinism across the deterministic async pipeline, interval
 * snapshots, flush-storm and abnormal-exit auto-dumps, and the async
 * SBT latency histograms.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/statreg.hh"
#include "common/trace.hh"
#include "engine/events.hh"
#include "engine/profiler.hh"
#include "vmm/vmm.hh"
#include "workload/program_gen.hh"
#include "x86/memory.hh"

namespace cdvm
{
namespace
{

engine::StageEvent
spanEvent(TracePhase phase, u64 insns, Addr pc, u64 trans_id = 0)
{
    engine::StageEvent e;
    e.stage = phase;
    e.insns = insns;
    e.x86Addr = pc;
    e.transId = trans_id;
    return e;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::string s((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    return s;
}

// --- flight recorder ----------------------------------------------------

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo)
{
    Tracer rec(5);
    EXPECT_TRUE(rec.enabled());
    EXPECT_EQ(rec.capacity(), 8u);
    Tracer off(0);
    EXPECT_FALSE(off.enabled());
    EXPECT_EQ(off.capacity(), 0u);
}

TEST(FlightRecorder, WraparoundKeepsNewestOldestFirst)
{
    Tracer rec(8);
    for (u64 i = 0; i < 20; ++i)
        rec.span(TracePhase::BbtExec, i * 10, 5, 0x400000 + i);
    EXPECT_EQ(rec.recorded(), 20u);
    EXPECT_EQ(rec.size(), 8u);
    EXPECT_EQ(rec.dropped(), 12u);

    std::vector<TraceEvent> evs = rec.snapshot();
    ASSERT_EQ(evs.size(), 8u);
    // The newest eight events (i = 12..19), oldest first.
    for (u64 i = 0; i < 8; ++i) {
        EXPECT_EQ(evs[i].arg, 0x400000 + 12 + i);
        EXPECT_EQ(evs[i].ts, (12 + i) * 10);
        EXPECT_EQ(evs[i].dur, 5u);
        EXPECT_EQ(evs[i].phase, TracePhase::BbtExec);
    }
}

TEST(FlightRecorder, PartialFillSnapshotsInOrder)
{
    Tracer rec(16);
    rec.span(TracePhase::Interp, 0, 3, 0xa);
    rec.span(TracePhase::BbtTranslate, 3, 7, 0xb);
    rec.instant(TracePhase::CacheFlush, 10, 1);
    EXPECT_EQ(rec.size(), 3u);
    EXPECT_EQ(rec.dropped(), 0u);
    std::vector<TraceEvent> evs = rec.snapshot();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].arg, 0xau);
    EXPECT_EQ(evs[1].phase, TracePhase::BbtTranslate);
    EXPECT_EQ(evs[2].phase, TracePhase::CacheFlush);
}

TEST(FlightRecorder, ClearForgetsButKeepsTheRing)
{
    Tracer rec(8);
    for (u64 i = 0; i < 12; ++i)
        rec.span(TracePhase::SbtExec, i, 1, i);
    rec.clear();
    EXPECT_EQ(rec.recorded(), 0u);
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.capacity(), 8u);
    rec.span(TracePhase::Interp, 99, 1, 7);
    ASSERT_EQ(rec.size(), 1u);
    EXPECT_EQ(rec.snapshot()[0].ts, 99u);
}

TEST(FlightRecorder, DumpTextCarriesTotalsAndPhases)
{
    Tracer rec(4);
    for (u64 i = 0; i < 6; ++i)
        rec.span(i % 2 ? TracePhase::BbtExec : TracePhase::Interp,
                 i * 100, 10, 0x401000 + i);
    std::string txt = rec.dumpText();
    EXPECT_NE(txt.find("4 of 6"), std::string::npos);
    EXPECT_NE(txt.find("2 overwritten"), std::string::npos);
    EXPECT_NE(txt.find("interp"), std::string::npos);
    EXPECT_NE(txt.find("exec-bbt"), std::string::npos);
    EXPECT_NE(txt.find("0x401005"), std::string::npos);
    // The overwritten events are gone from the dump.
    EXPECT_EQ(txt.find("0x401000"), std::string::npos);
}

// --- sampling profiler: countdown arithmetic ----------------------------

TEST(SamplingProfiler, DisabledProfilerNeverSamples)
{
    engine::SamplingProfiler prof(0);
    EXPECT_FALSE(prof.enabled());
    for (int i = 0; i < 100; ++i)
        prof.onEvent(spanEvent(TracePhase::Interp, 1u << 20, 0x400000));
    EXPECT_EQ(prof.samples(), 0u);
}

TEST(SamplingProfiler, CountdownSamplesEveryPeriodUnits)
{
    // Period 10; events chop the work stream as 3 + 7 + 25 + 5 = 40
    // units, so samples land at clocks 10, 20, 30 and 40 regardless
    // of the chopping: one in the 7-unit event, two in the 25-unit
    // event, one in the final 5-unit event.
    engine::SamplingProfiler prof(10);
    engine::EventStream stream;
    stream.attach(&prof);
    stream.emit(spanEvent(TracePhase::Interp, 3, 0x1000));
    EXPECT_EQ(prof.samples(), 0u);
    stream.emit(spanEvent(TracePhase::Interp, 7, 0x2000));
    EXPECT_EQ(prof.samples(), 1u);
    stream.emit(spanEvent(TracePhase::BbtExec, 25, 0x3000, 42));
    EXPECT_EQ(prof.samples(), 3u);
    stream.emit(spanEvent(TracePhase::SbtExec, 5, 0x4000, 43));
    EXPECT_EQ(prof.samples(), 4u);
    EXPECT_EQ(stream.clock(), 40u);

    EXPECT_EQ(prof.pageSamples(0x2000 >> x86::Memory::PAGE_SHIFT), 1u);
    EXPECT_EQ(prof.pageSamples(0x3000 >> x86::Memory::PAGE_SHIFT), 2u);
    EXPECT_EQ(prof.pageSamples(0x4000 >> x86::Memory::PAGE_SHIFT), 1u);
    EXPECT_EQ(prof.transSamples(42), 2u);
    EXPECT_EQ(prof.transSamples(43), 1u);
    EXPECT_EQ(prof.stageSamples(engine::HotStage::Cold), 1u);
    EXPECT_EQ(prof.stageSamples(engine::HotStage::Bbt), 2u);
    EXPECT_EQ(prof.stageSamples(engine::HotStage::Sbt), 1u);
}

TEST(SamplingProfiler, InstantsAndEmptySpansDoNotAdvanceTheClock)
{
    engine::SamplingProfiler prof(4);
    engine::EventStream stream;
    stream.attach(&prof);
    engine::StageEvent flush;
    flush.stage = TracePhase::CacheFlush;
    flush.instant = true;
    flush.insns = 100; // instants never carry work
    stream.emit(flush);
    stream.emit(spanEvent(TracePhase::Interp, 0, 0x5000));
    EXPECT_EQ(stream.clock(), 0u);
    EXPECT_EQ(prof.samples(), 0u);
}

TEST(SamplingProfiler, ChoppingInvariance)
{
    // The same 1000 work units, chopped three different ways, produce
    // the same number of samples at the same work-unit positions.
    const u64 period = 17;
    auto feed = [&](const std::vector<u64> &chop) {
        engine::SamplingProfiler p(period);
        for (u64 n : chop)
            p.onEvent(spanEvent(TracePhase::BbtExec, n, 0x400000));
        return p.samples();
    };
    u64 a = feed(std::vector<u64>(1000, 1));
    u64 b = feed({1000});
    u64 c = feed({3, 997});
    u64 d = feed({499, 2, 499});
    EXPECT_EQ(a, 1000 / period);
    EXPECT_EQ(b, a);
    EXPECT_EQ(c, a);
    EXPECT_EQ(d, a);
}

TEST(SamplingProfiler, RankingIsHotFirstWithDeterministicTies)
{
    engine::SamplingProfiler prof(1);
    prof.onEvent(spanEvent(TracePhase::Interp, 3, 0x9000));
    prof.onEvent(spanEvent(TracePhase::Interp, 1, 0x3000));
    prof.onEvent(spanEvent(TracePhase::Interp, 1, 0x1000));
    std::vector<engine::SamplingProfiler::PageRank> r = prof.ranking();
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0].page, 0x9000u >> x86::Memory::PAGE_SHIFT);
    EXPECT_EQ(r[0].hot.total, 3u);
    // Tie between 0x1000 and 0x3000: ascending page number.
    EXPECT_EQ(r[1].page, 0x1000u >> x86::Memory::PAGE_SHIFT);
    EXPECT_EQ(r[2].page, 0x3000u >> x86::Memory::PAGE_SHIFT);
    EXPECT_EQ(prof.ranking(1).size(), 1u);
}

TEST(SamplingProfiler, JsonAndStatsExportCarryTheHeatmap)
{
    engine::SamplingProfiler prof(2);
    prof.onEvent(spanEvent(TracePhase::SbtExec, 10, 0x400000, 7));
    std::string js = prof.dumpJson();
    EXPECT_NE(js.find("\"period\": 2"), std::string::npos);
    EXPECT_NE(js.find("\"pages\""), std::string::npos);
    EXPECT_NE(js.find("\"translations\""), std::string::npos);
    EXPECT_NE(js.find("\"sbt\""), std::string::npos);

    StatRegistry reg;
    prof.exportStats(reg);
    EXPECT_DOUBLE_EQ(reg.value("engine.profiler.samples"), 5.0);
    EXPECT_DOUBLE_EQ(reg.value("engine.profiler.stage.sbt"), 5.0);
    EXPECT_DOUBLE_EQ(reg.value("engine.profiler.pages"), 1.0);
}

// --- sampled heatmap vs exhaustive accounting ---------------------------

/** Exhaustive ground truth: every covered instruction, by page. */
struct PageWorkSink : engine::StageSink
{
    std::unordered_map<Addr, u64> work;
    u64 total = 0;

    void
    onEvent(const engine::StageEvent &e) override
    {
        if (e.instant || e.insns == 0)
            return;
        work[e.x86Addr >> x86::Memory::PAGE_SHIFT] += e.insns;
        total += e.insns;
    }
};

workload::Program
bigProgram(u64 seed = 20260809)
{
    // Enough code to span several guest pages, so the heatmap has a
    // real distribution to get right. Loop trips are clamped hard:
    // the nested call/loop structure compounds multiplicatively, and
    // wider trips push some seeds past 10^8 retired instructions.
    workload::ProgramParams pp;
    pp.seed = seed;
    pp.numFuncs = 16;
    pp.blocksPerFunc = 8;
    pp.insnsPerBlock = 16;
    pp.mainIterations = 1;
    pp.loopTripMax = 2;
    return workload::generateProgram(pp);
}

TEST(SamplingProfiler, HeatmapAgreesWithExhaustiveAccounting)
{
    workload::Program prog = bigProgram();
    x86::Memory mem;
    prog.loadInto(mem);

    vmm::VmmConfig cfg = engine::EngineConfig::vmSoft();
    cfg.profileSamplePeriod = 64;
    vmm::Vmm vm(mem, cfg);
    PageWorkSink exact;
    vm.attachSink(&exact);

    x86::CpuState cpu = prog.initialState();
    ASSERT_EQ(vm.run(cpu, u64{1} << 40), x86::Exit::Halted);

    const engine::SamplingProfiler &prof = vm.profiler();
    ASSERT_GT(prof.samples(), 100u);
    ASSERT_GE(exact.work.size(), 2u)
        << "program too small to span pages";
    EXPECT_EQ(vm.traceClock(), exact.total);

    // The sampled heatmap must pick the same hottest page as the
    // exhaustive per-instruction accounting...
    std::vector<engine::SamplingProfiler::PageRank> rank =
        prof.ranking();
    ASSERT_FALSE(rank.empty());
    Addr exact_top = 0;
    u64 exact_top_work = 0;
    for (const auto &[page, w] : exact.work) {
        if (w > exact_top_work ||
            (w == exact_top_work && page < exact_top)) {
            exact_top = page;
            exact_top_work = w;
        }
    }
    EXPECT_EQ(rank[0].page, exact_top);

    // ...and every page's sampled share must track its exhaustive
    // share (10-point tolerance: sampling error on thousands of
    // samples is far smaller).
    for (const auto &[page, w] : exact.work) {
        double exact_share =
            static_cast<double>(w) / static_cast<double>(exact.total);
        double sampled_share =
            static_cast<double>(prof.pageSamples(page)) /
            static_cast<double>(prof.samples());
        EXPECT_NEAR(sampled_share, exact_share, 0.10)
            << "page 0x" << std::hex
            << (page << x86::Memory::PAGE_SHIFT);
    }
}

TEST(SamplingProfiler, TranslationAttributionMatchesLiveTranslations)
{
    workload::Program prog = bigProgram();
    x86::Memory mem;
    prog.loadInto(mem);

    vmm::VmmConfig cfg = engine::EngineConfig::vmSoft();
    cfg.profileSamplePeriod = 32;
    vmm::Vmm vm(mem, cfg);
    x86::CpuState cpu = prog.initialState();
    ASSERT_EQ(vm.run(cpu, u64{1} << 40), x86::Exit::Halted);

    std::vector<engine::SamplingProfiler::TransRank> tr =
        vm.profiler().transRanking();
    ASSERT_FALSE(tr.empty());
    for (const auto &row : tr) {
        EXPECT_NE(row.transId, 0u);
        EXPECT_GT(row.hot.samples, 0u);
        EXPECT_GE(row.hot.entryPc, prog.codeBase);
    }
    // Hottest-first ordering.
    for (std::size_t i = 1; i < tr.size(); ++i)
        EXPECT_GE(tr[i - 1].hot.samples, tr[i].hot.samples);
}

// --- determinism across the async pipeline ------------------------------

TEST(SamplingProfiler, AsyncRerunHeatmapIsIdentical)
{
    workload::Program prog = bigProgram(2);

    auto heatmap = [&](const vmm::VmmConfig &cfg) {
        x86::Memory mem;
        prog.loadInto(mem);
        vmm::Vmm vm(mem, cfg);
        x86::CpuState cpu = prog.initialState();
        EXPECT_EQ(vm.run(cpu, u64{1} << 40), x86::Exit::Halted);
        EXPECT_GT(vm.stats().asyncSbtInstalls, 0u);
        return vm.profiler().ranking();
    };

    vmm::VmmConfig async_cfg = engine::EngineConfig::vmSoftAsync();
    async_cfg.hotThreshold = 50; // installs happen inside the run
    async_cfg.profileSamplePeriod = 128;

    std::vector<engine::SamplingProfiler::PageRank> a =
        heatmap(async_cfg);
    std::vector<engine::SamplingProfiler::PageRank> b =
        heatmap(async_cfg);

    // Background superblocks install at their booked deadlines, so an
    // async run replays its event stream and heatmap exactly.
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].page, b[i].page);
        EXPECT_EQ(a[i].hot.total, b[i].hot.total);
        for (unsigned s = 0; s < engine::NUM_HOT_STAGES; ++s)
            EXPECT_EQ(a[i].hot.byStage[s], b[i].hot.byStage[s]);
    }
}

TEST(SamplingProfiler, RerunIsBitIdentical)
{
    workload::Program prog = bigProgram(3);
    auto once = [&] {
        x86::Memory mem;
        prog.loadInto(mem);
        vmm::VmmConfig cfg = engine::EngineConfig::vmSoft();
        cfg.profileSamplePeriod = 64;
        vmm::Vmm vm(mem, cfg);
        x86::CpuState cpu = prog.initialState();
        EXPECT_EQ(vm.run(cpu, u64{1} << 40), x86::Exit::Halted);
        return vm.profiler().dumpJson();
    };
    EXPECT_EQ(once(), once());
}

// --- interval snapshots -------------------------------------------------

TEST(Snapshots, DeltasTelescopeToEndOfRunTotals)
{
    workload::Program prog = bigProgram();
    x86::Memory mem;
    prog.loadInto(mem);

    vmm::VmmConfig cfg = engine::EngineConfig::vmSoft();
    cfg.snapshotEveryInsns = 20'000;
    vmm::Vmm vm(mem, cfg);
    x86::CpuState cpu = prog.initialState();
    ASSERT_EQ(vm.run(cpu, u64{1} << 40), x86::Exit::Halted);
    vm.snapshotNow(); // final row at the end-of-run clock

    const SnapshotSeries &sn = vm.snapshots();
    ASSERT_GE(sn.rows(), 2u);

    // Monotonic snapshot clocks, one per interval boundary.
    for (std::size_t r = 1; r < sn.rows(); ++r)
        EXPECT_GT(sn.clockAt(r), sn.clockAt(r - 1));

    // The last row captures the end-of-run totals, and the interval
    // deltas telescope back to exactly that total.
    const std::size_t last = sn.rows() - 1;
    EXPECT_DOUBLE_EQ(sn.at(last, "vmm.insns.total"),
                     static_cast<double>(vm.stats().totalRetired()));
    double delta_sum = 0.0;
    for (std::size_t r = 0; r < sn.rows(); ++r) {
        double d = sn.delta(r, "vmm.insns.total");
        EXPECT_GE(d, 0.0); // retire counters never go backwards
        delta_sum += d;
    }
    EXPECT_DOUBLE_EQ(delta_sum, sn.at(last, "vmm.insns.total"));

    std::string js = sn.dumpJson();
    EXPECT_NE(js.find("\"rows\""), std::string::npos);
    EXPECT_NE(js.find("vmm.insns.total"), std::string::npos);
    EXPECT_NE(js.find("\"deltas\""), std::string::npos);
}

TEST(Snapshots, SeriesCapturesOnlyScalarAndGaugeStats)
{
    StatRegistry reg;
    reg.set("vmm.insns.total", 123.0);
    double backing = 9.0;
    reg.gauge("dbt.used", [&backing] { return backing; });
    reg.running("vmm.block_size").add(4.0);
    reg.histogram("engine.lat", 2.0, 8).add(100.0);

    SnapshotSeries sn;
    sn.take(reg, 1000);
    ASSERT_EQ(sn.rows(), 1u);
    EXPECT_DOUBLE_EQ(sn.at(0, "vmm.insns.total"), 123.0);
    EXPECT_DOUBLE_EQ(sn.at(0, "dbt.used"), 9.0);
    // Distributions are not snapshot material.
    EXPECT_EQ(sn.dumpJson().find("vmm.block_size"), std::string::npos);
    EXPECT_EQ(sn.dumpJson().find("engine.lat"), std::string::npos);
}

// --- percentile export --------------------------------------------------

TEST(StatsJson, HistogramLeavesCarryTailPercentiles)
{
    StatRegistry reg;
    LogHistogram &h = reg.histogram("engine.async.latency.total_ns",
                                    2.0, 40);
    for (int i = 0; i < 95; ++i)
        h.add(1000.0);
    for (int i = 0; i < 5; ++i)
        h.add(1e6); // a 5% tail of slow outliers
    std::string js = reg.dumpJson();
    EXPECT_NE(js.find("\"p50\""), std::string::npos);
    EXPECT_NE(js.find("\"p95\""), std::string::npos);
    EXPECT_NE(js.find("\"p99\""), std::string::npos);
    // The p99 leaf reflects the tail, not the median.
    EXPECT_GT(h.percentile(99), h.percentile(50) * 10.0);
}

// --- flush storms and abnormal-exit dumps -------------------------------

TEST(FlightSink, FlushStormTriggersAutomaticDump)
{
    const std::string path = "test_profiler_storm_dump.txt";
    std::remove(path.c_str());

    workload::Program prog = bigProgram();
    x86::Memory mem;
    prog.loadInto(mem);

    // A BBT arena far smaller than the translated working set forces
    // flush-refill thrash: STORM_FLUSHES flushes inside the window.
    vmm::VmmConfig cfg = engine::EngineConfig::vmSoft();
    cfg.bbtCacheBytes = u64{2} << 10;
    cfg.enableSbt = false;
    cfg.flightDumpPath = path;
    vmm::Vmm vm(mem, cfg);
    x86::CpuState cpu = prog.initialState();
    ASSERT_EQ(vm.run(cpu, u64{1} << 40), x86::Exit::Halted);

    ASSERT_GE(vm.stats().bbtCacheFlushes,
              engine::FlightSink::STORM_FLUSHES);
    EXPECT_GT(vm.flightSink().storms(), 0u);
    EXPECT_GT(vm.flightSink().stormDumps(), 0u);
    std::string dump = slurp(path);
    EXPECT_NE(dump.find("flight recorder"), std::string::npos);
    EXPECT_NE(dump.find("cache-flush"), std::string::npos);
    std::remove(path.c_str());
}

TEST(FlightSink, StormCountingWorksWithoutADumpPath)
{
    Tracer rec(64);
    engine::FlightSink sink(rec, "");
    engine::StageEvent flush;
    flush.stage = TracePhase::CacheFlush;
    flush.instant = true;
    for (unsigned i = 0; i < 2 * engine::FlightSink::STORM_FLUSHES; ++i)
        sink.onEvent(flush);
    EXPECT_EQ(sink.storms(), 2u);
    EXPECT_EQ(sink.stormDumps(), 0u);
    EXPECT_EQ(rec.recorded(), 2u * engine::FlightSink::STORM_FLUSHES);
}

TEST(FlightDump, AbnormalExitWritesThePostMortem)
{
    const std::string path = "test_profiler_crash_dump.txt";
    std::remove(path.c_str());

    // Garbage bytes at the entry point: the decoder faults on the
    // first dispatch and the run loop dumps the flight recorder.
    x86::Memory mem;
    const std::vector<u8> garbage{0x0f, 0xff, 0xff, 0xff};
    mem.writeBlock(0x00400000, garbage);
    x86::CpuState cpu;
    cpu.eip = 0x00400000;

    vmm::VmmConfig cfg = engine::EngineConfig::vmSoft();
    cfg.flightDumpPath = path;
    vmm::Vmm vm(mem, cfg);
    EXPECT_EQ(vm.run(cpu, 1000), x86::Exit::DecodeFault);
    std::string dump = slurp(path);
    EXPECT_NE(dump.find("flight recorder"), std::string::npos);
    std::remove(path.c_str());
}

// --- async pipeline latency telemetry -----------------------------------

TEST(AsyncLatency, DrainedJobsPopulateTheHistograms)
{
    workload::Program prog = bigProgram();
    x86::Memory mem;
    prog.loadInto(mem);

    vmm::VmmConfig cfg = engine::EngineConfig::vmSoftAsync();
    cfg.hotThreshold = 50;
    vmm::Vmm vm(mem, cfg);
    x86::CpuState cpu = prog.initialState();
    ASSERT_EQ(vm.run(cpu, u64{1} << 40), x86::Exit::Halted);

    const engine::AsyncSbtEngine *async = vm.asyncSbtEngine();
    ASSERT_NE(async, nullptr);
    ASSERT_GT(vm.stats().asyncSbtInstalls, 0u);

    const double n = static_cast<double>(vm.stats().asyncSbtInstalls);
    EXPECT_DOUBLE_EQ(async->queueLatency().totalWeight(), n);
    EXPECT_DOUBLE_EQ(async->optimizeLatency().totalWeight(), n);
    EXPECT_DOUBLE_EQ(async->drainLatency().totalWeight(), n);
    EXPECT_DOUBLE_EQ(async->totalLatency().totalWeight(), n);
    // Total covers its parts; optimize really took time.
    EXPECT_GT(async->optimizeLatency().percentile(50), 0.0);
    EXPECT_GE(async->totalLatency().percentile(50),
              async->optimizeLatency().percentile(50));

    StatRegistry reg;
    vm.exportStats(reg);
    std::string js = reg.dumpJson();
    EXPECT_NE(js.find("\"latency\""), std::string::npos);
    EXPECT_NE(js.find("\"p99\""), std::string::npos);
}

/**
 * TSan-targeted: free-running background optimizations while the
 * dispatch thread samples every event. The profiler and flight
 * recorder are dispatch-thread-only; this run fails under
 * -fsanitize=thread if any install/drain path breaks that contract.
 */
TEST(AsyncProfile, SamplingDuringFreeRunningAsyncInstalls)
{
    workload::Program prog = bigProgram();
    for (unsigned round = 0; round < 3; ++round) {
        x86::Memory mem;
        prog.loadInto(mem);
        vmm::VmmConfig cfg = engine::EngineConfig::vmSoftAsync();
        cfg.hotThreshold = 50;
        cfg.profileSamplePeriod = 16;
        cfg.flightRecorderEvents = 256;
        vmm::Vmm vm(mem, cfg);
        x86::CpuState cpu = prog.initialState();
        ASSERT_EQ(vm.run(cpu, u64{1} << 40), x86::Exit::Halted);
        EXPECT_GT(vm.profiler().samples(), 0u);
        EXPECT_GT(vm.flightRecorder().recorded(), 0u);
        StatRegistry reg;
        vm.exportStats(reg); // barriers the workers before reading
        EXPECT_GT(reg.value("engine.profiler.samples"), 0.0);
    }
}

} // namespace
} // namespace cdvm

/**
 * @file
 * Observability-layer tests: the hierarchical StatRegistry, the phase
 * tracer (ring wraparound, disabled-mode no-op), span coalescing,
 * histogram percentiles, the checked file writers, and the
 * VMM/timing stat exports.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/statreg.hh"
#include "common/trace.hh"
#include "engine/profiler.hh"
#include "timing/startup_sim.hh"
#include "vmm/vmm.hh"
#include "workload/winstone.hh"
#include "x86/asm.hh"

namespace cdvm
{
namespace
{

TEST(StatRegistry, ScalarSetAddAndValue)
{
    StatRegistry reg;
    reg.set("vmm.bbt.translations", 3.0, "blocks");
    reg.add("vmm.bbt.translations", 2.0);
    EXPECT_DOUBLE_EQ(reg.value("vmm.bbt.translations"), 5.0);
    EXPECT_TRUE(reg.has("vmm.bbt.translations"));
    EXPECT_FALSE(reg.has("vmm.bbt.nope"));
    EXPECT_DOUBLE_EQ(reg.value("vmm.bbt.nope"), 0.0);

    // The cached-reference fast path observes set()/add().
    double &c = reg.scalar("vmm.dispatches");
    c += 7.0;
    EXPECT_DOUBLE_EQ(reg.value("vmm.dispatches"), 7.0);
    reg.add("vmm.dispatches", 1.0);
    EXPECT_DOUBLE_EQ(c, 8.0);
}

TEST(StatRegistry, GaugePullsAtDumpTime)
{
    StatRegistry reg;
    double backing = 1.0;
    reg.gauge("dbt.codecache.used", [&backing] { return backing; });
    backing = 42.0;
    EXPECT_DOUBLE_EQ(reg.value("dbt.codecache.used"), 42.0);
}

TEST(StatRegistry, NamesAreSortedAndComplete)
{
    StatRegistry reg;
    reg.set("b.two", 2.0);
    reg.set("a.one", 1.0);
    reg.set("b.one.deep", 3.0);
    std::vector<std::string> n = reg.names();
    ASSERT_EQ(n.size(), 3u);
    EXPECT_EQ(n[0], "a.one");
    EXPECT_EQ(n[1], "b.one.deep");
    EXPECT_EQ(n[2], "b.two");
}

TEST(StatRegistry, JsonNestsByPathSegment)
{
    StatRegistry reg;
    reg.set("vmm.insns.total", 100.0);
    reg.set("vmm.dispatches", 4.0);
    reg.set("timing.pipeline.cycles", 250.0);
    std::string js = reg.dumpJson();
    // Group keys appear once; leaves carry the values.
    EXPECT_NE(js.find("\"vmm\""), std::string::npos);
    EXPECT_NE(js.find("\"insns\""), std::string::npos);
    EXPECT_NE(js.find("\"total\": 100"), std::string::npos);
    EXPECT_NE(js.find("\"pipeline\""), std::string::npos);
    EXPECT_NE(js.find("\"cycles\": 250"), std::string::npos);
    // Integral values print without a fraction.
    EXPECT_EQ(js.find("100.0"), std::string::npos);
}

TEST(StatRegistry, RunningAndHistogramDistributions)
{
    StatRegistry reg;
    RunningStat &rs = reg.running("vmm.block_size");
    rs.add(2.0);
    rs.add(4.0);
    rs.add(6.0);
    LogHistogram &h = reg.histogram("vmm.exec_freq", 10.0, 6);
    h.add(5);
    h.add(50);
    std::string js = reg.dumpJson();
    EXPECT_NE(js.find("\"mean\": 4"), std::string::npos);
    EXPECT_NE(js.find("\"stddev\""), std::string::npos);
    EXPECT_NE(js.find("\"p90\""), std::string::npos);
}

TEST(RunningStat, StddevAndVariance)
{
    RunningStat rs;
    EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
    rs.add(10.0);
    EXPECT_DOUBLE_EQ(rs.variance(), 0.0); // n < 2
    RunningStat s2;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s2.add(v);
    EXPECT_NEAR(s2.variance(), 4.0, 1e-9); // classic textbook set
    EXPECT_NEAR(s2.stddev(), 2.0, 1e-9);
}

TEST(LogHistogram, PercentileInterpolation)
{
    LogHistogram h(10.0, 6);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0); // empty
    // 100 values in [1, 10), 100 in [10, 100).
    h.add(5, 100.0);
    h.add(50, 100.0);
    double p50 = h.percentile(50.0);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p50, 10.0);
    double p99 = h.percentile(99.0);
    EXPECT_GT(p99, 10.0);
    EXPECT_LE(p99, 100.0);
    // Clamped arguments behave.
    EXPECT_LE(h.percentile(-5.0), h.percentile(200.0));
}

TEST(Tracer, DisabledModeIsFreeAndEmpty)
{
    Tracer tr;
    EXPECT_FALSE(tr.enabled());
    EXPECT_EQ(tr.capacity(), 0u); // no allocation when disabled
    tr.span(TracePhase::Interp, 0, 10);
    tr.instant(TracePhase::Chain, 5);
    EXPECT_EQ(tr.recorded(), 0u);
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_TRUE(tr.snapshot().empty());
}

TEST(Tracer, RingWraparoundKeepsNewest)
{
    Tracer tr;
    tr.enable(4);
    EXPECT_TRUE(tr.enabled());
    EXPECT_EQ(tr.capacity(), 4u);
    for (u64 i = 0; i < 10; ++i)
        tr.span(TracePhase::BbtExec, i * 100, 50, i);
    EXPECT_EQ(tr.recorded(), 10u);
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.dropped(), 6u);
    std::vector<TraceEvent> evs = tr.snapshot();
    ASSERT_EQ(evs.size(), 4u);
    // Oldest-first snapshot of the newest four events (args 6..9).
    for (u64 i = 0; i < 4; ++i) {
        EXPECT_EQ(evs[i].arg, 6 + i);
        EXPECT_EQ(evs[i].ts, (6 + i) * 100);
    }
    tr.disable();
    EXPECT_EQ(tr.capacity(), 0u);
}

TEST(Tracer, ChromeJsonHasPhasesTracksAndMetadata)
{
    Tracer tr;
    tr.enable(16);
    tr.span(TracePhase::Interp, 0, 100, 7, 0);
    tr.span(TracePhase::BbtTranslate, 100, 20, 0, 0);
    tr.instant(TracePhase::CacheFlush, 120, 1, 1);
    std::string js = tr.dumpChromeJson();
    EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(js.find("\"name\": \"interp\""), std::string::npos);
    EXPECT_NE(js.find("\"cat\": \"translate\""), std::string::npos);
    EXPECT_NE(js.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(js.find("\"ph\": \"i\""), std::string::npos);
    // Thread-name metadata for both tracks used.
    EXPECT_NE(js.find("\"vmm\""), std::string::npos);
    EXPECT_NE(js.find("\"timing\""), std::string::npos);
    EXPECT_NE(js.find("\"dropped_events\": 0"), std::string::npos);
}

TEST(Tracer, SpanCoalescerMergesBackToBack)
{
    Tracer tr;
    tr.enable(16);
    {
        SpanCoalescer co(tr, 0);
        co.add(TracePhase::SbtExec, 0, 10, 1);
        co.add(TracePhase::SbtExec, 10, 10, 2);  // contiguous: merge
        co.add(TracePhase::SbtExec, 20, 5, 3);   // contiguous: merge
        co.add(TracePhase::BbtExec, 25, 5, 4);   // phase change: flush
        co.add(TracePhase::BbtExec, 100, 5, 5);  // gap: flush
    } // dtor flushes the open span
    std::vector<TraceEvent> evs = tr.snapshot();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].phase, TracePhase::SbtExec);
    EXPECT_EQ(evs[0].ts, 0u);
    EXPECT_EQ(evs[0].dur, 25u);
    EXPECT_EQ(evs[1].phase, TracePhase::BbtExec);
    EXPECT_EQ(evs[1].dur, 5u);
    EXPECT_EQ(evs[2].ts, 100u);
}

/** Load a 400-trip counted loop at 0x400000; returns its entry state. */
x86::CpuState
loadCountedLoop(x86::Memory &mem)
{
    x86::Assembler as(0x00400000);
    auto loop = as.newLabel();
    as.movRI(x86::ECX, 400);
    as.movRI(x86::EBX, 0);
    as.bind(loop);
    as.aluRR(x86::Op::Add, x86::EBX, x86::ECX);
    as.dec(x86::ECX);
    as.jcc(x86::Cond::NE, loop);
    as.hlt();
    mem.writeBlock(0x00400000, as.finalize());
    x86::CpuState cpu;
    cpu.eip = 0x00400000;
    return cpu;
}

/**
 * Every file writer reports a write that fails only at the final
 * flush: /dev/full accepts the open and the buffered fwrite, then
 * fails fclose with ENOSPC.
 */
TEST(Observability, WritersReportFailedFinalFlush)
{
    std::FILE *probe = std::fopen("/dev/full", "w");
    if (!probe)
        GTEST_SKIP() << "/dev/full is not available";
    std::fclose(probe);
    const std::string full = "/dev/full";

    StatRegistry reg;
    reg.set("vmm.insns.total", 1.0);
    EXPECT_FALSE(reg.writeJson(full));
    SnapshotSeries snaps;
    snaps.take(reg, 1);
    EXPECT_FALSE(snaps.writeJson(full));
    Tracer tr(4);
    tr.span(TracePhase::Interp, 0, 1);
    EXPECT_FALSE(tr.writeChromeJson(full));
    EXPECT_FALSE(tr.writeText(full));
    EXPECT_FALSE(engine::SamplingProfiler(1).writeJson(full));
}

/** End-to-end: a real VMM run populates vmm.* and dbt.* stats. */
TEST(Observability, VmmExportPopulatesRegistry)
{
    x86::Memory mem;
    x86::CpuState cpu = loadCountedLoop(mem);

    vmm::VmmConfig cfg;
    cfg.hotThreshold = 20;
    vmm::Vmm vm(mem, cfg);
    Tracer &tr = Tracer::global();
    tr.enable(1024);
    EXPECT_EQ(vm.run(cpu, 10'000'000), x86::Exit::Halted);

    StatRegistry reg;
    vm.exportStats(reg);
    EXPECT_GT(reg.value("vmm.insns.total"), 0.0);
    EXPECT_GT(reg.value("vmm.bbt.translations"), 0.0);
    EXPECT_GT(reg.value("dbt.bbt.blocks"), 0.0);
    EXPECT_GT(reg.value("dbt.codecache.bbt.used_bytes"), 0.0);
    EXPECT_GT(reg.value("dbt.lookup.lookups"), 0.0);
    EXPECT_DOUBLE_EQ(reg.value("vmm.insns.total"),
                     static_cast<double>(vm.stats().totalRetired()));
    // The run recorded translate/exec phase spans on track 0.
    EXPECT_GT(tr.recorded(), 0u);
    EXPECT_GT(vm.traceClock(), 0u);
    tr.disable();
}

/**
 * The global tracer and the Vmm's flight ring are two instances of
 * one ring type fed from one stream clock: with a flight ring large
 * enough to drop nothing, both hold the same timeline.
 */
TEST(Observability, FlightRingAndTracerShareTheStreamClock)
{
    x86::Memory mem;
    x86::CpuState cpu = loadCountedLoop(mem);

    Tracer &tr = Tracer::global();
    tr.enable(4096);
    vmm::VmmConfig cfg;
    cfg.hotThreshold = 20;
    cfg.flightRecorderEvents = 4096;
    vmm::Vmm vm(mem, cfg);
    EXPECT_EQ(vm.run(cpu, 10'000'000), x86::Exit::Halted);

    const std::vector<TraceEvent> global = tr.snapshot();
    const std::vector<TraceEvent> flight = vm.flightRecorder().snapshot();
    tr.disable();
    ASSERT_EQ(vm.flightRecorder().dropped(), 0u);
    ASSERT_FALSE(flight.empty());
    ASSERT_EQ(global.size(), flight.size());
    for (std::size_t i = 0; i < flight.size(); ++i) {
        EXPECT_EQ(global[i].ts, flight[i].ts) << "event " << i;
        EXPECT_EQ(global[i].dur, flight[i].dur) << "event " << i;
        EXPECT_EQ(global[i].phase, flight[i].phase) << "event " << i;
    }
    EXPECT_EQ(flight.back().ts + flight.back().dur, vm.traceClock());

    StatRegistry reg;
    vm.exportStats(reg);
    EXPECT_DOUBLE_EQ(reg.value("vmm.trace_clock"),
                     static_cast<double>(vm.traceClock()));
}

/** End-to-end: a startup-sim run populates timing.* stats. */
TEST(Observability, StartupSimExportPopulatesRegistry)
{
    timing::StartupSim sim(timing::MachineConfig::vmSoft(),
                           workload::winstoneAverage(200'000));
    timing::StartupResult r = sim.run();
    StatRegistry reg;
    r.exportStats(reg, "timing.startup");
    EXPECT_GT(reg.value("timing.startup.total_cycles"), 0.0);
    EXPECT_DOUBLE_EQ(reg.value("timing.startup.total_insns"),
                     static_cast<double>(r.totalInsns));
    double stage_sum =
        reg.value("timing.startup.cycles.cold_exec") +
        reg.value("timing.startup.cycles.bbt_exec") +
        reg.value("timing.startup.cycles.sbt_exec") +
        reg.value("timing.startup.cycles.bbt_xlate") +
        reg.value("timing.startup.cycles.sbt_xlate") +
        reg.value("timing.startup.cycles.dispatch");
    EXPECT_NEAR(stage_sum,
                reg.value("timing.startup.total_cycles"),
                1.0 + stage_sum * 1e-9);
}

} // namespace
} // namespace cdvm

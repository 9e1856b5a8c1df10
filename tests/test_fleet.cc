/**
 * @file
 * Multi-tenant fleet tests: the crash-hook registry, per-context stat
 * subtrees, the shared SBT pool under many producers, arrival curves,
 * scheduling policies, deterministic seeding, and the single-context
 * equivalence + warm-vs-cold properties of FleetServer.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/statreg.hh"
#include "common/threadpool.hh"
#include "engine/cost_model.hh"
#include "fleet/arrival.hh"
#include "fleet/fleet.hh"
#include "fleet/scheduler.hh"
#include "timing/machine_config.hh"
#include "vmm/vmm.hh"
#include "workload/program_gen.hh"
#include "x86/interp.hh"
#include "x86/memory.hh"

using namespace cdvm;

namespace
{

/** The fleet tests' standard small workload shape (short runs). */
workload::ProgramParams
smallShape(u64 seed)
{
    workload::ProgramParams p;
    p.seed = seed;
    p.numFuncs = 5;
    p.blocksPerFunc = 3;
    p.insnsPerBlock = 8;
    p.mainIterations = 2;
    return p;
}

/** Run a plain Vmm on prog until >= target retired at a HLT. */
x86::CpuState
runToTarget(vmm::Vmm &vm, const workload::Program &prog, u64 target)
{
    x86::CpuState cpu = prog.initialState();
    for (;;) {
        // Past the target, keep granting budget until the HLT:
        // run(cpu, 0) would retire nothing.
        const u64 done = vm.stats().totalRetired();
        const x86::Exit e =
            vm.run(cpu, done < target ? target - done : target);
        if (e == x86::Exit::Halted) {
            if (vm.stats().totalRetired() >= target)
                return cpu;
            cpu = prog.initialState();
        } else {
            EXPECT_EQ(e, x86::Exit::None);
        }
    }
}

/**
 * Prime one image per workload class, past the target so the hot set
 * is optimized, and pin their merge in an in-process store: the
 * fleet's one warm-start source.
 */
std::shared_ptr<dbt::ImageStore>
primedImageStore(const fleet::FleetConfig &cfg)
{
    const engine::EngineConfig tcfg =
        fleet::tenantEngineConfig(cfg.engineCfg);
    std::vector<dbt::TransImage> parts;
    for (unsigned w = 0; w < cfg.workloads; ++w) {
        workload::ProgramParams p = cfg.workloadParams;
        p.seed = fleet::deriveSeed(cfg.fleetSeed, w);
        workload::Program prog = workload::generateProgram(p);
        x86::Memory mem;
        prog.loadInto(mem);
        vmm::Vmm vm(mem, tcfg);
        runToTarget(vm, prog, 2 * cfg.targetInsns);
        parts.push_back(vm.captureWarmStart());
    }
    dbt::ImageBuilder b;
    for (const dbt::TransImage &part : parts)
        b.add(part);
    auto img = std::make_shared<dbt::TransImage>();
    EXPECT_EQ(dbt::TransImage::adopt(b.build(), *img),
              dbt::LoadError::None);
    return std::make_shared<dbt::ImageStore>(img);
}

// --- crash-hook registry -------------------------------------------

TEST(CrashHooks, AddRunRemove)
{
    const std::size_t base = crashHookCount();
    int a = 0, b = 0;
    const CrashHookId ha = addCrashHook([&] { ++a; });
    const CrashHookId hb = addCrashHook([&] { ++b; });
    EXPECT_NE(ha, NO_CRASH_HOOK);
    EXPECT_NE(ha, hb);
    EXPECT_EQ(crashHookCount(), base + 2);

    runCrashHooks();
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 1);

    removeCrashHook(ha);
    EXPECT_EQ(crashHookCount(), base + 1);
    runCrashHooks();
    EXPECT_EQ(a, 1); // removed: not run again
    EXPECT_EQ(b, 2);

    removeCrashHook(hb);
    EXPECT_EQ(crashHookCount(), base);
    // Unknown / null ids are no-ops.
    removeCrashHook(hb);
    removeCrashHook(NO_CRASH_HOOK);
    EXPECT_EQ(addCrashHook(nullptr), NO_CRASH_HOOK);
    EXPECT_EQ(crashHookCount(), base);
}

TEST(CrashHooks, RecursionGuard)
{
    int runs = 0;
    const CrashHookId h = addCrashHook([&] {
        ++runs;
        runCrashHooks(); // a hook that panics again must not recurse
    });
    runCrashHooks();
    EXPECT_EQ(runs, 1);
    removeCrashHook(h);
}

TEST(CrashHooks, EveryLiveVmmRegistersItsOwn)
{
    const std::size_t base = crashHookCount();
    workload::Program prog = workload::generateProgram(smallShape(3));

    x86::Memory m1, m2;
    prog.loadInto(m1);
    prog.loadInto(m2);
    auto v1 = std::make_unique<vmm::Vmm>(m1);
    EXPECT_EQ(crashHookCount(), base + 1);
    auto v2 = std::make_unique<vmm::Vmm>(m2);
    EXPECT_EQ(crashHookCount(), base + 2);
    v1.reset(); // destroying one context must not strand the other's
    EXPECT_EQ(crashHookCount(), base + 1);
    v2.reset();
    EXPECT_EQ(crashHookCount(), base);
}

// --- per-context stat subtrees -------------------------------------

TEST(StatMerge, NestsEveryKindUnderPrefix)
{
    StatRegistry src;
    src.set("vmm.retired", 42.0, "scalar");
    src.gauge("vmm.rate", [] { return 2.5; }, "gauge");
    RunningStat &rs = src.running("vmm.lat", "running");
    rs.add(1.0);
    rs.add(3.0);
    src.histogram("vmm.hist", 2.0, 8, "hist").add(4.0);

    StatRegistry dst;
    dst.set("fleet.contexts", 2.0, "fleet scalar");
    dst.merge(src, "ctx.0");
    dst.merge(src, "ctx.1");

    EXPECT_DOUBLE_EQ(dst.value("ctx.0.vmm.retired"), 42.0);
    // Gauges freeze to their value at merge time.
    EXPECT_DOUBLE_EQ(dst.value("ctx.1.vmm.rate"), 2.5);
    EXPECT_TRUE(dst.has("ctx.0.vmm.lat"));
    EXPECT_TRUE(dst.has("ctx.1.vmm.hist"));
    EXPECT_DOUBLE_EQ(dst.value("fleet.contexts"), 2.0);

    // Re-merging the same prefix overwrites rather than accumulates.
    src.set("vmm.retired", 43.0, "scalar");
    dst.merge(src, "ctx.0");
    EXPECT_DOUBLE_EQ(dst.value("ctx.0.vmm.retired"), 43.0);

    // The JSON dump nests the subtree by path segment.
    const std::string js = dst.dumpJson();
    EXPECT_NE(js.find("\"ctx\""), std::string::npos);
    EXPECT_NE(js.find("\"retired\""), std::string::npos);
}

// --- arrival curves -------------------------------------------------

TEST(Arrival, StormAllAtZero)
{
    fleet::ArrivalCurve c;
    const std::vector<u64> at = c.admitClocks(5, 99);
    ASSERT_EQ(at.size(), 5u);
    for (u64 t : at)
        EXPECT_EQ(t, 0u);
}

TEST(Arrival, StepBatches)
{
    auto c = fleet::ArrivalCurve::parse("step:2@1000");
    ASSERT_TRUE(c.has_value());
    const std::vector<u64> at = c->admitClocks(5, 1);
    const std::vector<u64> want = {0, 0, 1000, 1000, 2000};
    EXPECT_EQ(at, want);
    EXPECT_EQ(c->describe(), "step:2@1000");
}

TEST(Arrival, PoissonDeterministicNondecreasing)
{
    auto c = fleet::ArrivalCurve::parse("poisson:4");
    ASSERT_TRUE(c.has_value());
    const std::vector<u64> a = c->admitClocks(64, 7);
    const std::vector<u64> b = c->admitClocks(64, 7);
    EXPECT_EQ(a, b); // pure function of (curve, n, seed)
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_LE(a[i - 1], a[i]);
    EXPECT_NE(a, c->admitClocks(64, 8));
}

TEST(Arrival, ParseRejectsMalformed)
{
    EXPECT_FALSE(fleet::ArrivalCurve::parse("gauss").has_value());
    EXPECT_FALSE(fleet::ArrivalCurve::parse("poisson:0").has_value());
    EXPECT_FALSE(fleet::ArrivalCurve::parse("step:0@5").has_value());
    EXPECT_FALSE(fleet::ArrivalCurve::parse("step:3@").has_value());
    EXPECT_FALSE(fleet::ArrivalCurve::parse("step:3@9x").has_value());
}

// --- scheduler ------------------------------------------------------

TEST(Scheduler, RoundRobinRotates)
{
    fleet::FleetScheduler s(fleet::SchedPolicy::RoundRobin, 100);
    const std::vector<u64> rem = {10, 10, 10};
    for (unsigned round = 0; round < 3; ++round)
        for (std::size_t want = 0; want < rem.size(); ++want) {
            const auto d = s.next(rem);
            EXPECT_EQ(d.slot, want);
            EXPECT_EQ(d.sliceInsns, 100u);
        }
    EXPECT_EQ(s.slices(), 9u);
}

TEST(Scheduler, LoadRatioScalesAndClamps)
{
    fleet::FleetScheduler s(fleet::SchedPolicy::LoadRatio, 1000);
    // Slot 0 holds ~5x the mean remaining work; the rest are nearly
    // done, far below a quarter of the mean.
    const std::vector<u64> rem = {1'000'000, 10, 10, 10, 10};
    const auto d0 = s.next(rem);
    EXPECT_EQ(d0.slot, 0u);
    EXPECT_EQ(d0.sliceInsns, 4000u); // clamped at 4x quantum
    const auto d1 = s.next(rem);
    EXPECT_EQ(d1.slot, 1u);
    EXPECT_EQ(d1.sliceInsns, 250u); // clamped at quantum/4

    // Balanced work degenerates to the plain quantum.
    fleet::FleetScheduler t(fleet::SchedPolicy::LoadRatio, 1000);
    const std::vector<u64> even = {500, 500, 500};
    EXPECT_EQ(t.next(even).sliceInsns, 1000u);
}

TEST(Scheduler, PolicyNames)
{
    EXPECT_EQ(fleet::schedPolicyByName("rr"),
              fleet::SchedPolicy::RoundRobin);
    EXPECT_EQ(fleet::schedPolicyByName("loadratio"),
              fleet::SchedPolicy::LoadRatio);
    EXPECT_FALSE(fleet::schedPolicyByName("fifo").has_value());
}

// --- deterministic seeding -----------------------------------------

TEST(FleetSeeding, DerivedSeedsAreStableAndDistinct)
{
    EXPECT_EQ(fleet::deriveSeed(1, 0), fleet::deriveSeed(1, 0));
    EXPECT_NE(fleet::deriveSeed(1, 0), fleet::deriveSeed(1, 1));
    EXPECT_NE(fleet::deriveSeed(1, 0), fleet::deriveSeed(2, 0));
    EXPECT_NE(fleet::deriveSeed(0, 0), 0u); // never the zero seed
}

// --- shared SBT pool under many producers --------------------------

TEST(SharedPool, BackPressureLeavesSeedsColdPerContext)
{
    // Two tenants over one 1-worker pool with a 1-deep queue, each
    // allowed one pending request: rejects are expected, counted per
    // engine, and must only degrade the rejecting context to its cold
    // path -- never corrupt state.
    workload::Program p0 = workload::generateProgram(smallShape(11));
    workload::Program p1 = workload::generateProgram(smallShape(12));

    engine::EngineConfig cfg = fleet::tenantEngineConfig({});
    cfg.asyncTranslators = 1;
    cfg.asyncQueueCap = 1;
    cfg.hotThreshold = 50; // request storms
    const u64 target = 400'000;

    struct Pair
    {
        x86::CpuState end0, end1;
        engine::EngineStats st0, st1;
    };
    auto run_pair = [&](Pair &r) {
        ThreadPool pool(1, 1);
        engine::SharedServices svc;
        svc.sbtPool = &pool;
        x86::Memory m0, m1;
        p0.loadInto(m0);
        p1.loadInto(m1);
        vmm::Vmm v0(m0, cfg, svc);
        vmm::Vmm v1(m1, cfg, svc);
        r.end0 = runToTarget(v0, p0, target);
        r.end1 = runToTarget(v1, p1, target);
        ASSERT_NE(v0.asyncSbtEngine(), nullptr);
        EXPECT_TRUE(v0.asyncSbtEngine()->sharedPool());
        r.st0 = v0.stats();
        r.st1 = v1.stats();
    };
    Pair a, b;
    run_pair(a);

    // Differential reference: the same programs, synchronous.
    engine::EngineConfig sync = cfg;
    sync.asyncTranslators = 0;
    x86::Memory r0, r1;
    p0.loadInto(r0);
    p1.loadInto(r1);
    vmm::Vmm w0(r0, sync);
    vmm::Vmm w1(r1, sync);
    const x86::CpuState ref0 = runToTarget(w0, p0, target);
    const x86::CpuState ref1 = runToTarget(w1, p1, target);

    EXPECT_EQ(a.end0.regs, ref0.regs);
    EXPECT_EQ(a.end0.eip, ref0.eip);
    EXPECT_EQ(a.end1.regs, ref1.regs);
    EXPECT_EQ(a.end1.eip, ref1.eip);
    // Both runs end at a HLT of the same program with the work done.
    // Async and sync retire totals may differ by a rerun: superblock
    // side exits account differently from the BBT path.
    EXPECT_GE(a.st0.totalRetired(), target);
    EXPECT_GE(w0.stats().totalRetired(), target);
    EXPECT_GE(a.st1.totalRetired(), target);
    EXPECT_GE(w1.stats().totalRetired(), target);
    EXPECT_GT(a.st0.asyncSbtQueueRejects + a.st1.asyncSbtQueueRejects,
              0u);

    // Which requests are rejected is decided by the pending bound on
    // the retired-instruction clock, not by how fast the one worker
    // drains its queue: a second run rejects the same requests and
    // retires the same mix in every mode.
    run_pair(b);
    EXPECT_EQ(a.st0.asyncSbtQueueRejects, b.st0.asyncSbtQueueRejects);
    EXPECT_EQ(a.st1.asyncSbtQueueRejects, b.st1.asyncSbtQueueRejects);
    EXPECT_EQ(a.st0.insnsBbtCode, b.st0.insnsBbtCode);
    EXPECT_EQ(a.st0.insnsSbtCode, b.st0.insnsSbtCode);
    EXPECT_EQ(a.st1.insnsBbtCode, b.st1.insnsBbtCode);
    EXPECT_EQ(a.st1.insnsSbtCode, b.st1.insnsSbtCode);
    EXPECT_TRUE(a.st0 == b.st0);
    EXPECT_TRUE(a.st1 == b.st1);
}

TEST(SharedPool, ManyProducersOnePool)
{
    // A small fleet's worth of contexts hammering one 2-worker pool
    // concurrently with their own dispatch loops (the TSan target).
    ThreadPool pool(2, 4);
    engine::EngineConfig cfg = fleet::tenantEngineConfig({});
    cfg.asyncTranslators = 2;
    cfg.asyncQueueCap = 4;
    cfg.hotThreshold = 100;
    engine::SharedServices svc;
    svc.sbtPool = &pool;

    constexpr unsigned N = 6;
    std::vector<workload::Program> progs;
    std::vector<std::unique_ptr<x86::Memory>> mems;
    std::vector<std::unique_ptr<vmm::Vmm>> vms;
    for (unsigned i = 0; i < N; ++i) {
        progs.push_back(
            workload::generateProgram(smallShape(100 + i)));
        mems.push_back(std::make_unique<x86::Memory>());
        progs[i].loadInto(*mems[i]);
        vms.push_back(
            std::make_unique<vmm::Vmm>(*mems[i], cfg, svc));
    }
    // Interleave slices round-robin so requests from all contexts
    // overlap in the pool.
    std::vector<x86::CpuState> cpus;
    for (unsigned i = 0; i < N; ++i)
        cpus.push_back(progs[i].initialState());
    const u64 target = 120'000;
    for (bool any = true; any;) {
        any = false;
        for (unsigned i = 0; i < N; ++i) {
            if (vms[i]->stats().totalRetired() >= target)
                continue;
            any = true;
            const x86::Exit e = vms[i]->run(cpus[i], 10'000);
            if (e == x86::Exit::Halted)
                cpus[i] = progs[i].initialState();
            else
                ASSERT_EQ(e, x86::Exit::None);
        }
    }
    for (unsigned i = 0; i < N; ++i)
        EXPECT_GE(vms[i]->stats().totalRetired(), target);
}

// --- one cost model for both clocks ---------------------------------

TEST(CostModel, FleetClockAndTimingMachinesShareOnePriceTable)
{
    // One event of each kind either clock sees.
    auto ev = [](TracePhase stage, u64 insns) {
        engine::StageEvent e;
        e.stage = stage;
        e.insns = insns;
        return e;
    };
    std::vector<engine::StageEvent> events = {
        ev(TracePhase::Interp, 1000),
        ev(TracePhase::X86Mode, 2000),
        ev(TracePhase::BbtTranslate, 3000),
        ev(TracePhase::SbtOptimize, 400),
        ev(TracePhase::SbtOptimize, 500),
        ev(TracePhase::BbtExec, 6000),
        ev(TracePhase::SbtExec, 7000),
        ev(TracePhase::WarmInstall, 8000),
        ev(TracePhase::Chain, 0),
        ev(TracePhase::CacheFlush, 0),
    };
    events[4].background = true;
    events[8].instant = true;
    events[9].instant = true;

    for (const std::string &name : engine::EngineConfig::names()) {
        const engine::EngineConfig cfg =
            *engine::EngineConfig::byName(name);
        const engine::CostModel model =
            engine::CostModel::forTier(cfg.cold);
        fleet::WorkClockSink clock(cfg.cold);
        double want = 0.0;
        for (const engine::StageEvent &e : events) {
            clock.onEvent(e);
            want += model.price(e).critical;
        }
        EXPECT_EQ(clock.cycles(), static_cast<u64>(want)) << name;
        // Background Delta_SBT is occupancy, never critical path.
        EXPECT_EQ(model.price(events[4]).critical, 0.0) << name;
        EXPECT_EQ(model.price(events[4]).occupancy,
                  model.price(events[3]).critical * 500 / 400)
            << name;
    }

    // Each tier's timing machine carries the same table.
    const std::pair<engine::ColdKind, timing::MachineConfig> machines[] = {
        {engine::ColdKind::Interpret, timing::MachineConfig::vmInterp()},
        {engine::ColdKind::HardwareX86Mode, timing::MachineConfig::vmFe()},
        {engine::ColdKind::SoftwareBbt, timing::MachineConfig::vmSoft()},
        {engine::ColdKind::XltAssistedBbt, timing::MachineConfig::vmBe()},
        {engine::ColdKind::TemplateBbt,
         timing::MachineConfig::vmSoftTmpl()},
    };
    for (const auto &[tier, machine] : machines)
        EXPECT_EQ(machine.cost, engine::CostModel::forTier(tier))
            << machine.name;
}

TEST(CostModel, WorkClockChargesTheConstructorWarmFill)
{
    fleet::FleetConfig cfg;
    cfg.workloads = 1;
    cfg.targetInsns = 100'000;
    cfg.workloadParams = smallShape(0);
    engine::SharedServices svc;
    svc.imageEndpoint = primedImageStore(cfg);

    workload::ProgramParams p = cfg.workloadParams;
    p.seed = fleet::deriveSeed(cfg.fleetSeed, 0);
    const workload::Program prog = workload::generateProgram(p);
    x86::Memory mem;
    prog.loadInto(mem);
    vmm::Vmm vm(mem, fleet::tenantEngineConfig(cfg.engineCfg), svc);
    const u64 filled = vm.stats().warmInsnsInstalled;
    ASSERT_GT(filled, 0u);

    // The fill ran before any sink could attach; attach() bills it.
    fleet::WorkClockSink clock(cfg.engineCfg.cold);
    clock.attach(vm);
    EXPECT_EQ(clock.cycles(),
              static_cast<u64>(
                  engine::CostModel::forTier(cfg.engineCfg.cold)
                      .warmInstall *
                  static_cast<double>(filled)));
}

// --- FleetServer ----------------------------------------------------

TEST(Fleet, SingleContextMatchesPlainVmm)
{
    fleet::FleetConfig cfg;
    cfg.contexts = 1;
    cfg.workloads = 1;
    cfg.fleetSeed = 5;
    cfg.targetInsns = 200'000;
    cfg.milestoneInsns = 100'000;
    cfg.workloadParams = smallShape(0); // seed overridden per class

    fleet::FleetServer server(cfg);
    const fleet::FleetResult fr = server.run();
    ASSERT_EQ(fr.contexts.size(), 1u);
    const fleet::ContextResult &c = fr.contexts[0];
    EXPECT_TRUE(c.ok);
    EXPECT_EQ(fr.completed, 1u);

    // The same tenant, undisturbed: identical program, identical
    // (shrunken) engine config, run in one big slice.
    workload::ProgramParams p = cfg.workloadParams;
    p.seed = fleet::deriveSeed(cfg.fleetSeed, 0);
    EXPECT_EQ(c.programSeed, p.seed);
    workload::Program prog = workload::generateProgram(p);
    x86::Memory mem;
    prog.loadInto(mem);
    vmm::Vmm vm(mem, fleet::tenantEngineConfig(cfg.engineCfg));
    runToTarget(vm, prog, cfg.targetInsns);

    // Time slicing must not change what was emulated.
    EXPECT_EQ(c.retired, vm.stats().totalRetired());
    EXPECT_EQ(c.bbtTranslations, vm.stats().bbtTranslations);
    EXPECT_EQ(c.sbtTranslations, vm.stats().sbtTranslations);
}

TEST(Fleet, DeterministicAcrossRuns)
{
    // Synchronous tenants, and tenants over a shared async pool.
    for (unsigned workers : {0u, 2u}) {
        SCOPED_TRACE(workers);
        fleet::FleetConfig cfg;
        cfg.contexts = 6;
        cfg.workloads = 3;
        cfg.fleetSeed = 9;
        cfg.targetInsns = 120'000;
        cfg.milestoneInsns = 60'000;
        cfg.arrival = *fleet::ArrivalCurve::parse("poisson:8");
        cfg.policy = fleet::SchedPolicy::LoadRatio;
        cfg.workloadParams = smallShape(0);
        cfg.sharedPoolWorkers = workers;

        fleet::FleetServer s1(cfg);
        fleet::FleetServer s2(cfg);
        const fleet::FleetResult a = s1.run();
        const fleet::FleetResult b = s2.run();
        EXPECT_EQ(a.fleetClock, b.fleetClock);
        EXPECT_EQ(a.totalRetired, b.totalRetired);
        EXPECT_EQ(a.slices, b.slices);
        ASSERT_EQ(a.contexts.size(), b.contexts.size());
        for (std::size_t i = 0; i < a.contexts.size(); ++i) {
            EXPECT_EQ(a.contexts[i].milestoneClock,
                      b.contexts[i].milestoneClock);
            EXPECT_EQ(a.contexts[i].retired, b.contexts[i].retired);
            EXPECT_EQ(a.contexts[i].sbtTranslations,
                      b.contexts[i].sbtTranslations);
            EXPECT_EQ(a.contexts[i].asyncQueueRejects,
                      b.contexts[i].asyncQueueRejects);
            EXPECT_TRUE(a.contexts[i].ok);
        }
    }
}

TEST(Fleet, PerContextStatSubtreesExport)
{
    fleet::FleetConfig cfg;
    cfg.contexts = 3;
    cfg.workloads = 2;
    cfg.targetInsns = 60'000;
    cfg.milestoneInsns = 30'000;
    cfg.workloadParams = smallShape(0);
    cfg.exportPerContext = true;

    fleet::FleetServer server(cfg);
    const fleet::FleetResult r = server.run();
    EXPECT_EQ(r.completed, 3u);

    StatRegistry reg;
    server.exportStats(reg);
    EXPECT_DOUBLE_EQ(reg.value("fleet.contexts"), 3.0);
    EXPECT_DOUBLE_EQ(reg.value("fleet.completed"), 3.0);
    EXPECT_GT(reg.value("fleet.retired_total"), 0.0);
    for (unsigned i = 0; i < 3; ++i) {
        const std::string pfx = "ctx." + std::to_string(i);
        EXPECT_TRUE(reg.has(pfx + ".vmm.insns.total")) << pfx;
        EXPECT_GT(reg.value(pfx + ".vmm.insns.total"), 0.0);
    }
    // Nested JSON carries the subtrees.
    const std::string js = reg.dumpJson();
    EXPECT_NE(js.find("\"ctx\""), std::string::npos);
    EXPECT_NE(js.find("\"fleet\""), std::string::npos);
}

TEST(Fleet, WarmBeatsColdP99)
{
    fleet::FleetConfig cfg;
    cfg.contexts = 8;
    cfg.workloads = 2;
    cfg.fleetSeed = 3;
    cfg.targetInsns = 400'000;
    cfg.milestoneInsns = 400'000;
    cfg.workloadParams = smallShape(0);

    fleet::FleetServer cold(cfg);
    const fleet::FleetResult cr = cold.run();
    EXPECT_EQ(cr.completed, cfg.contexts);
    EXPECT_EQ(cr.reachedMilestone, cfg.contexts);

    cfg.imageEndpoint = primedImageStore(cfg);

    fleet::FleetServer warm(cfg);
    const fleet::FleetResult wr = warm.run();
    EXPECT_EQ(wr.completed, cfg.contexts);
    EXPECT_EQ(wr.reachedMilestone, cfg.contexts);
    EXPECT_GT(wr.contexts[0].warmInstalled, 0u);

    // The tentpole gate, in miniature: warm p99 strictly faster.
    EXPECT_GT(wr.p99TimeToMilestone, 0.0);
    EXPECT_LT(wr.p99TimeToMilestone, cr.p99TimeToMilestone);
}

TEST(Fleet, TemplateTierColdP99BelowSoftware)
{
    // The software and template BBT tiers retire the same blocks; only
    // Delta_BBT differs (83 vs 40 cycles/insn), so a cold template
    // fleet reaches its milestone strictly sooner.
    fleet::FleetConfig cfg;
    cfg.contexts = 8;
    cfg.workloads = 2;
    cfg.fleetSeed = 3;
    cfg.targetInsns = 400'000;
    cfg.milestoneInsns = 400'000;
    cfg.workloadParams = smallShape(0);

    cfg.engineCfg = engine::EngineConfig::vmSoft();
    const fleet::FleetResult soft = fleet::FleetServer(cfg).run();
    cfg.engineCfg = engine::EngineConfig::vmSoftTmpl();
    const fleet::FleetResult tmpl = fleet::FleetServer(cfg).run();

    EXPECT_EQ(tmpl.totalRetired, soft.totalRetired);
    EXPECT_EQ(tmpl.reachedMilestone, cfg.contexts);
    EXPECT_GT(tmpl.p99TimeToMilestone, 0.0);
    EXPECT_LT(tmpl.p99TimeToMilestone, soft.p99TimeToMilestone);
}

TEST(Fleet, EndpointBoundFleetExportsImageStats)
{
    // A fleet bound to an image store reports the image it serves.
    fleet::FleetConfig cfg;
    cfg.contexts = 2;
    cfg.workloads = 2;
    cfg.targetInsns = 50'000;
    cfg.milestoneInsns = 50'000;
    cfg.workloadParams = smallShape(0);
    const std::shared_ptr<dbt::ImageStore> store = primedImageStore(cfg);
    cfg.imageEndpoint = store;

    fleet::FleetServer server(cfg);
    const fleet::FleetResult r = server.run();
    EXPECT_EQ(r.completed, cfg.contexts);

    StatRegistry reg;
    server.exportStats(reg);
    const std::shared_ptr<const dbt::TransImage> img = store->acquire();
    EXPECT_GT(reg.value("fleet.warm.image.bytes"), 0.0);
    EXPECT_DOUBLE_EQ(reg.value("fleet.warm.image.bytes"),
                     static_cast<double>(img->sizeBytes()));
    EXPECT_DOUBLE_EQ(reg.value("fleet.warm.image.records"),
                     static_cast<double>(img->recordCount()));
    EXPECT_GT(reg.value("fleet.warm.installed_total"), 0.0);
}

TEST(Fleet, SharedPoolFleetCompletes)
{
    // Fleet + shared async SBT pool end to end (TSan coverage of the
    // scheduler interleaving many engines over one pool).
    fleet::FleetConfig cfg;
    cfg.contexts = 6;
    cfg.workloads = 3;
    cfg.targetInsns = 100'000;
    cfg.milestoneInsns = 50'000;
    cfg.sharedPoolWorkers = 2;
    cfg.sharedPoolQueueCap = 4;
    cfg.workloadParams = smallShape(0);

    fleet::FleetServer server(cfg);
    const fleet::FleetResult r = server.run();
    EXPECT_EQ(r.completed + r.failed, cfg.contexts);
    EXPECT_EQ(r.failed, 0u);
    for (const fleet::ContextResult &c : r.contexts)
        EXPECT_GE(c.retired, cfg.targetInsns);
}

} // namespace

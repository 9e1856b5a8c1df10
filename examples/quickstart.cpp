/**
 * @file
 * Quickstart: assemble a small x86 program, run it under the full
 * co-designed VM (cold execution -> hotspot detection -> SBT), and
 * compare with the reference interpreter.
 *
 * Any of the engine's named configurations can drive the run:
 *
 *   $ ./build/examples/quickstart --config=vm.soft   # software BBT
 *   $ ./build/examples/quickstart --config=vm.soft.tmpl # template BBT
 *   $ ./build/examples/quickstart --config=vm.fe    # x86-mode + BBB
 *   $ ./build/examples/quickstart --config=vm.be    # XLTx86 HAloop
 *   $ ./build/examples/quickstart --config=vm.dual  # HAloop + BBB
 *
 * With the observability flags the run also exports the VM-wide stats
 * registry and a Chrome-trace timeline of the emulation phases:
 *
 *   $ ./build/examples/quickstart --stats-json=out.json \
 *         --trace-out=trace.json
 *
 * --save-cache writes the run's warm-start image; a later
 * --load-cache boots warm from it, or says why it could not and boots
 * cold:
 *
 *   $ ./build/examples/quickstart --save-cache=warm.img
 *   $ ./build/examples/quickstart --load-cache=warm.img
 *
 * With --contexts > 1 the quickstart instead boots a multi-tenant
 * fleet (src/fleet): N contexts admitted along --arrival, time-sliced
 * by --policy, cold and then warm-started from one image merged from
 * per-workload captures primed in-process:
 *
 *   $ ./build/examples/quickstart --contexts=64 --arrival=poisson:8
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include "analysis/startup_curve.hh"
#include "x86/decode_cache.hh"
#include "common/cli.hh"
#include "common/statreg.hh"
#include "engine/engine_config.hh"
#include "fleet/fleet.hh"
#include "serve/image_client.hh"
#include "serve/image_host.hh"
#include "timing/startup_sim.hh"
#include "vmm/vmm.hh"
#include "workload/winstone.hh"
#include "x86/asm.hh"
#include "x86/interp.hh"

using namespace cdvm;
using namespace cdvm::x86;

namespace
{

volatile std::sig_atomic_t g_stop = 0;

void
onStopSignal(int)
{
    g_stop = 1;
}

/** Timing-machine preset matching an engine configuration. */
timing::MachineConfig
machineFor(const std::string &name, bool warm_start)
{
    timing::MachineConfig m = timing::MachineConfig::vmSoft();
    if (name == "vm.fe")
        m = timing::MachineConfig::vmFe();
    else if (name == "vm.be" || name == "vm.dual")
        m = timing::MachineConfig::vmBe();
    else if (name == "vm.be.async")
        m = timing::MachineConfig::vmBeAsync();
    else if (name == "vm.soft.async")
        m = timing::MachineConfig::vmSoftAsync();
    else if (name == "vm.soft.tmpl" || name == "vm.be.tmpl")
        m = timing::MachineConfig::vmSoftTmpl();
    else if (name == "vm.interp")
        m = timing::MachineConfig::vmInterp();
    // A warm boot also warm-starts the timing model: translations are
    // installed from the image before the first instruction.
    if (warm_start) {
        m.warmStart = true;
        m.name += ".warm";
    }
    return m;
}

/**
 * Fleet mode (--contexts > 1): boot a multi-tenant storm of the
 * chosen engine configuration, cold and then warm-started from one
 * image merged from per-workload captures primed in-process, and
 * report the
 * startup-latency distribution on the fleet's virtual cycle clock.
 */
int
runFleet(const Cli &cli, const vmm::VmmConfig &base)
{
    fleet::FleetConfig cfg;
    cfg.contexts = static_cast<unsigned>(cli.num("contexts"));
    cfg.workloads = cfg.contexts < 4 ? cfg.contexts : 4;
    cfg.engineCfg = base;
    workload::ProgramParams shape;
    shape.numFuncs = 5;
    shape.blocksPerFunc = 3;
    shape.insnsPerBlock = 8;
    shape.mainIterations = 2;
    cfg.workloadParams = shape;
    cfg.targetInsns = 500'000;
    cfg.milestoneInsns = 500'000;

    auto arr = fleet::ArrivalCurve::parse(cli.str("arrival"));
    if (!arr) {
        std::fprintf(stderr, "unknown --arrival '%s'\n",
                     cli.str("arrival").c_str());
        return 1;
    }
    cfg.arrival = *arr;
    auto pol = fleet::schedPolicyByName(cli.str("policy"));
    if (!pol) {
        std::fprintf(stderr, "unknown --policy '%s'\n",
                     cli.str("policy").c_str());
        return 1;
    }
    cfg.policy = *pol;

    std::printf("booting a %u-context fleet (%s arrival, %s "
                "scheduling, %s tenants)...\n",
                cfg.contexts, cfg.arrival.describe().c_str(),
                fleet::schedPolicyName(cfg.policy),
                base.name.c_str());

    fleet::FleetServer cold(cfg);
    const fleet::FleetResult cr = cold.run();
    std::printf("cold: %u/%u contexts done, p50/p99 to %lluk insns = "
                "%.0f / %.0f cycles, %.1f MIPS aggregate\n",
                cr.completed, cfg.contexts,
                static_cast<unsigned long long>(
                    cfg.milestoneInsns / 1000),
                cr.p50TimeToMilestone, cr.p99TimeToMilestone,
                cr.guestMips);

    // Warm series: prime one image per workload class and serve the
    // merge of them to the whole fleet.
    const engine::EngineConfig tcfg =
        fleet::tenantEngineConfig(cfg.engineCfg);
    std::vector<dbt::TransImage> parts;
    for (unsigned w = 0; w < cfg.workloads; ++w) {
        workload::ProgramParams p = cfg.workloadParams;
        p.seed = fleet::deriveSeed(cfg.fleetSeed, w);
        const workload::Program prog = workload::generateProgram(p);
        Memory mem;
        prog.loadInto(mem);
        vmm::Vmm vm(mem, tcfg);
        CpuState cpu = prog.initialState();
        while (vm.stats().totalRetired() < 2 * cfg.targetInsns) {
            const Exit e = vm.run(cpu, 2 * cfg.targetInsns -
                                           vm.stats().totalRetired());
            if (e == Exit::Halted)
                cpu = prog.initialState();
            else if (e != Exit::None)
                break;
        }
        parts.push_back(vm.captureWarmStart());
    }
    dbt::ImageBuilder merge;
    for (const dbt::TransImage &part : parts)
        merge.add(part);
    auto merged = std::make_shared<dbt::TransImage>();
    if (dbt::TransImage::adopt(merge.build(), *merged) ==
        dbt::LoadError::None)
        cfg.imageEndpoint = std::make_shared<dbt::ImageStore>(merged);
    fleet::FleetServer warm(cfg);
    const fleet::FleetResult wr = warm.run();
    std::printf("warm: %u/%u contexts done, p50/p99 to %lluk insns = "
                "%.0f / %.0f cycles, %.1f MIPS aggregate "
                "(p99 %.2fx faster)\n",
                wr.completed, cfg.contexts,
                static_cast<unsigned long long>(
                    cfg.milestoneInsns / 1000),
                wr.p50TimeToMilestone, wr.p99TimeToMilestone,
                wr.guestMips,
                wr.p99TimeToMilestone > 0.0
                    ? cr.p99TimeToMilestone / wr.p99TimeToMilestone
                    : 0.0);

    StatRegistry local_cold, local_warm;
    cold.exportStats(local_cold);
    warm.exportStats(local_warm);
    StatRegistry &reg = StatRegistry::global();
    reg.merge(local_cold, "fleet_demo.cold");
    reg.merge(local_warm, "fleet_demo.warm");
    dumpObservability();

    const bool ok = cr.completed == cfg.contexts &&
                    wr.completed == cfg.contexts &&
                    cr.failed == 0 && wr.failed == 0;
    std::printf("\nevery context completed with the reference "
                "architected state: %s\n",
                ok ? "YES" : "NO");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("Run a small program under the co-designed VM and the "
            "reference interpreter, then a startup-transient timing "
            "simulation; optionally export stats and a phase trace.");
    cli.flag("config", "vm.soft",
             "engine configuration: vm.soft|vm.fe|vm.be|vm.dual|"
             "vm.interp|vm.soft.tmpl|vm.be.tmpl|vm.soft.async|"
             "vm.be.async");
    cli.flag("load-cache", "",
             "warm start: load a translation image saved by a previous "
             "run (stale records fall back to cold; an unloadable file "
             "boots cold and says why)");
    cli.flag("save-cache", "",
             "save the translation image after the run");
    cli.flag("cache-budget", "0",
             "size budget in bytes for the saved translation image "
             "(0: unbounded; the coldest records are evicted to fit)");
    cli.flag("profile-out", "",
             "write the guest-hotness heatmap (sampling profiler) as "
             "JSON");
    cli.flag("flight-dump", "",
             "write the flight-recorder ring here after the run (the "
             "same path receives flush-storm and abnormal-exit dumps)");
    cli.flag("snapshot-every", "0",
             "take an interval snapshot of the vmm.* counters every N "
             "retired instructions (0 = off)");
    cli.flag("serve-image", "",
             "after the run, publish the captured translation image "
             "on this Unix-domain socket and serve it to sibling "
             "processes until SIGINT/SIGTERM");
    cli.flag("connect-image", "",
             "warm start by mapping the image served by an image "
             "host daemon at this socket (falls back to a cold boot "
             "when the daemon is unreachable)");
    cli.flag("contexts", "1",
             "host this many guest contexts as a multi-tenant fleet "
             "(1 = the classic single-VM quickstart)");
    cli.flag("arrival", "storm",
             "fleet admission curve: storm | step:<batch>@<cycles> | "
             "poisson:<rate-per-Mcycle>");
    cli.flag("policy", "rr",
             "fleet scheduling policy: rr | loadratio");
    addObservabilityFlags(cli);
    cli.parse(argc, argv);
    applyObservabilityFlags(cli);

    const std::string cfg_name = cli.str("config");
    std::optional<vmm::VmmConfig> named =
        engine::EngineConfig::byName(cfg_name);
    if (!named) {
        std::fprintf(stderr, "unknown --config '%s'; known:",
                     cfg_name.c_str());
        for (const std::string &n : engine::EngineConfig::names())
            std::fprintf(stderr, " %s", n.c_str());
        std::fprintf(stderr, "\n");
        return 1;
    }

    if (cli.num("contexts") > 1)
        return runFleet(cli, *named);

    // A tiny program: sum = sum(i*i for i in 1..100), looped enough
    // times that the VM's hotspot optimizer kicks in.
    Assembler as(0x00400000);
    auto outer = as.newLabel();
    auto inner = as.newLabel();

    as.movRI(EDI, 200);  // outer trip count
    as.movRI(EBX, 0);    // accumulator
    as.bind(outer);
    as.movRI(ECX, 100);  // inner trip count
    as.bind(inner);
    as.movRR(EAX, ECX);
    as.imulRR(EAX, ECX); // i*i
    as.aluRR(Op::Add, EBX, EAX);
    as.dec(ECX);
    as.jcc(Cond::NE, inner);
    as.dec(EDI);
    as.jcc(Cond::NE, outer);
    as.hlt();

    std::vector<u8> image = as.finalize();
    std::printf("assembled %zu bytes of x86 code at 0x%x\n\n",
                image.size(), 0x00400000);

    // --- reference run: pure interpretation ---------------------------
    Memory ref_mem;
    ref_mem.writeBlock(0x00400000, image);
    CpuState ref_cpu;
    ref_cpu.eip = 0x00400000;
    ref_cpu.regs[ESP] = 0x7fff0000;
    Interpreter interp(ref_cpu, ref_mem);
    Exit e = interp.run(100'000'000);
    std::printf("interpreter: exit=%d, EBX=0x%08x, %llu instructions\n",
                static_cast<int>(e), ref_cpu.regs[EBX],
                static_cast<unsigned long long>(ref_cpu.icount));

    // --- the co-designed VM -------------------------------------------
    Memory vm_mem;
    vm_mem.writeBlock(0x00400000, image);
    CpuState vm_cpu;
    vm_cpu.eip = 0x00400000;
    vm_cpu.regs[ESP] = 0x7fff0000;

    vmm::VmmConfig cfg = *named;
    // Small demo: detect hotspots quickly (both detector kinds).
    cfg.hotThreshold = 50;
    cfg.interpHotThreshold = 50;
    cfg.bbbParams.hotThreshold = 50;
    cfg.warmImageBudgetBytes =
        static_cast<u64>(cli.num("cache-budget"));
    cfg.flightDumpPath = cli.str("flight-dump");
    cfg.snapshotEveryInsns =
        static_cast<u64>(cli.num("snapshot-every"));

    // Warm start: bind the VM to its one image source. The endpoint
    // resolves to a generation handle inside the Vmm ctor. Either
    // source degrades to a cold boot: an unreachable daemon leaves the
    // handle null, an unloadable file is reported and never bound.
    engine::SharedServices svc;
    if (!cli.str("connect-image").empty()) {
        // Cross-process: map the image an image-host daemon serves.
        auto img_client = std::make_shared<serve::ImageClient>();
        if (img_client->connect(cli.str("connect-image")) &&
            img_client->acquire()) {
            const auto img = img_client->acquire();
            std::printf("connected to image host %s: generation "
                        "%llu, %llu bytes mapped %s\n",
                        cli.str("connect-image").c_str(),
                        static_cast<unsigned long long>(
                            img_client->generation()),
                        static_cast<unsigned long long>(
                            img->sizeBytes()),
                        dbt::MapSource::kindName(img->backingKind()));
        } else {
            std::printf("image host unreachable (%s): cold boot\n",
                        img_client->lastError().c_str());
        }
        svc.imageEndpoint = img_client;
    } else if (!cli.str("load-cache").empty()) {
        auto img = std::make_shared<dbt::TransImage>();
        const dbt::LoadError err =
            dbt::TransImage::load(cli.str("load-cache"), *img);
        if (err == dbt::LoadError::None)
            svc.imageEndpoint = std::make_shared<dbt::ImageStore>(img);
        else
            std::printf("warm image not loaded: %s\n",
                        dbt::loadErrorDetail(err).c_str());
    }
    const bool warm = svc.imageEndpoint && svc.imageEndpoint->acquire();

    vmm::Vmm vm(vm_mem, cfg, svc);
    const auto host_t0 = std::chrono::steady_clock::now();
    e = vm.run(vm_cpu, 100'000'000);
    const std::chrono::duration<double> host_dt =
        std::chrono::steady_clock::now() - host_t0;

    const vmm::VmmStats &st = vm.stats();
    std::printf("co-designed VM (%s): exit=%d, EBX=0x%08x\n\n",
                cfg.name.c_str(), static_cast<int>(e),
                vm_cpu.regs[EBX]);
    std::printf("staged emulation statistics:\n");
    std::printf("  BBT translations:       %llu (%llu x86 insns)\n",
                static_cast<unsigned long long>(st.bbtTranslations),
                static_cast<unsigned long long>(st.bbtInsnsTranslated));
    std::printf("  hotspots detected:      %llu\n",
                static_cast<unsigned long long>(st.hotspotDetections));
    std::printf("  superblocks optimized:  %llu (%llu x86 insns)\n",
                static_cast<unsigned long long>(st.sbtTranslations),
                static_cast<unsigned long long>(st.sbtInsnsTranslated));
    std::printf("  insns in BBT code:      %llu\n",
                static_cast<unsigned long long>(st.insnsBbtCode));
    std::printf("  insns in hotspot code:  %llu (%.1f%% coverage)\n",
                static_cast<unsigned long long>(st.insnsSbtCode),
                100.0 * static_cast<double>(st.insnsSbtCode) /
                    static_cast<double>(st.totalRetired()));
    std::printf("  dispatches / chained:   %llu / %llu\n",
                static_cast<unsigned long long>(st.dispatches),
                static_cast<unsigned long long>(st.chainFollows));
    if (warm) {
        std::printf("  warm start:             %llu loaded, %llu "
                    "installed, %llu invalidated, %llu profile "
                    "entries seeded\n",
                    static_cast<unsigned long long>(st.warmLoaded),
                    static_cast<unsigned long long>(st.warmInstalled),
                    static_cast<unsigned long long>(
                        st.warmInvalidated),
                    static_cast<unsigned long long>(
                        st.warmProfileSeeded));
        std::printf("  warm load path:         %llu body copies, "
                    "%llu relocations, %llu bytes mapped\n",
                    static_cast<unsigned long long>(st.warmBodyCopies),
                    static_cast<unsigned long long>(
                        st.warmRelocations),
                    static_cast<unsigned long long>(
                        st.warmMappedBytes));
    }
    if (cfg.asyncTranslators > 0) {
        std::printf("  async SBT requests:     %llu (%llu installed, "
                    "%llu stale, %llu rejected)\n",
                    static_cast<unsigned long long>(st.asyncSbtRequests),
                    static_cast<unsigned long long>(st.asyncSbtInstalls),
                    static_cast<unsigned long long>(
                        st.asyncSbtStaleDropped),
                    static_cast<unsigned long long>(
                        st.asyncSbtQueueRejects));
    }

    // Host fast-path metrics: how fast this host emulated, and how
    // well the dispatch lookaside / decode cache served the run
    // (bench_host_mips measures these systematically).
    std::printf("\nhost fast path:\n");
    std::printf("  host guest-MIPS:        %.1f (%llu insns in "
                "%.3f s)\n",
                host_dt.count() > 0.0
                    ? static_cast<double>(st.totalRetired()) /
                          host_dt.count() / 1e6
                    : 0.0,
                static_cast<unsigned long long>(st.totalRetired()),
                host_dt.count());
    const dbt::TranslationMap &tmap = vm.translations();
    const u64 ls_total = tmap.lookasideHits() + tmap.lookasideMisses();
    if (ls_total) {
        std::printf("  lookaside hit rate:     %.1f%% (%llu of %llu "
                    "non-chained dispatches)\n",
                    100.0 * static_cast<double>(tmap.lookasideHits()) /
                        static_cast<double>(ls_total),
                    static_cast<unsigned long long>(
                        tmap.lookasideHits()),
                    static_cast<unsigned long long>(ls_total));
    }
    if (const x86::DecodeCache *dc = vm.coldExecutor().decodeCache()) {
        std::printf("  decode-cache hit rate:  %.1f%% (%llu of %llu "
                    "interpreted fetches)\n",
                    100.0 * dc->hitRate(),
                    static_cast<unsigned long long>(dc->hits()),
                    static_cast<unsigned long long>(dc->hits() +
                                                    dc->misses()));
    }

    // Continuous profiling: the sampling profiler's view of the run,
    // the flight recorder, and any interval snapshots.
    const engine::SamplingProfiler &prof = vm.profiler();
    if (prof.enabled() && prof.samples()) {
        std::printf("\n%s", prof.dumpTopN(5).c_str());
    }
    if (!cli.str("profile-out").empty()) {
        std::printf("wrote hotness profile: %s (%s)\n",
                    cli.str("profile-out").c_str(),
                    prof.writeJson(cli.str("profile-out")) ? "ok"
                                                           : "FAILED");
    }
    if (!cfg.flightDumpPath.empty()) {
        std::printf("wrote flight dump: %s (%s; %zu of %llu events "
                    "retained, %llu storms)\n",
                    cfg.flightDumpPath.c_str(),
                    vm.dumpFlight(cfg.flightDumpPath) ? "ok" : "FAILED",
                    vm.flightRecorder().size(),
                    static_cast<unsigned long long>(
                        vm.flightRecorder().recorded()),
                    static_cast<unsigned long long>(
                        vm.flightSink().storms()));
    }
    if (cfg.snapshotEveryInsns) {
        std::printf("interval snapshots: %zu rows every %llu insns\n",
                    vm.snapshots().rows(),
                    static_cast<unsigned long long>(
                        cfg.snapshotEveryInsns));
    }

    if (!cli.str("save-cache").empty()) {
        std::printf("\nsaved warm-start image: %s (%s)\n",
                    cli.str("save-cache").c_str(),
                    vm.saveWarmStart(cli.str("save-cache")) ? "ok"
                                                            : "FAILED");
    }

    // --- startup-transient timing simulation --------------------------
    // A short run of the matching Table 2 machine over the
    // suite-average workload, plus the reference superscalar for the
    // breakeven point: publishes timing.startup.* (per-stage cycles,
    // milestone ladder) and traces the cycle-timebase phases on
    // track 1.
    workload::AppProfile app = workload::winstoneAverage(2'000'000);
    timing::StartupSim sim(machineFor(cfg.name, warm), app);
    timing::StartupResult sr = sim.run();
    timing::StartupSim ref_sim(timing::MachineConfig::refSuperscalar(),
                               app);
    timing::StartupResult ref_sr = ref_sim.run();
    std::printf("\nstartup sim (%s, %s): %llu insns in %llu cycles "
                "(ref: %llu)\n",
                sr.machine.c_str(), sr.app.c_str(),
                static_cast<unsigned long long>(sr.totalInsns),
                static_cast<unsigned long long>(sr.totalCycles),
                static_cast<unsigned long long>(ref_sr.totalCycles));

    // --- observability export -----------------------------------------
    StatRegistry &reg = StatRegistry::global();
    vm.exportStats(reg);
    analysis::exportStartupStats(sr, reg, "timing.startup", &ref_sr);
    analysis::exportStartupStats(ref_sr, reg, "timing.ref_startup");
    dumpObservability();

    bool ok = ref_cpu.regs[EBX] == vm_cpu.regs[EBX] &&
              ref_cpu.eip == vm_cpu.eip;
    std::printf("\narchitected state matches the interpreter: %s\n",
                ok ? "YES" : "NO");

    // --- cross-process image serving ----------------------------------
    // Turn this process into an image-host daemon: capture what the
    // run translated, seal it into one immutable memory object, and
    // hand the fd to every --connect-image sibling until a stop
    // signal. N siblings share ONE physical copy of the image.
    if (ok && !cli.str("serve-image").empty()) {
        serve::ImageHost host;
        if (!host.publish(vm.captureWarmStart().bytes()) ||
            !host.start(cli.str("serve-image"))) {
            std::fprintf(stderr, "image host failed: %s\n",
                         host.lastError().c_str());
            return 1;
        }
        std::signal(SIGINT, onStopSignal);
        std::signal(SIGTERM, onStopSignal);
        std::printf("serving warm-start image on %s (%zu records, "
                    "generation %llu); stop with SIGINT/SIGTERM\n",
                    cli.str("serve-image").c_str(),
                    host.acquire()->recordCount(),
                    static_cast<unsigned long long>(
                        host.generation()));
        std::fflush(stdout);
        while (!g_stop)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        const serve::ImageHost::Stats hs = host.stats();
        host.stop();
        std::printf("image host done: %llu clients served, %llu "
                    "images sent\n",
                    static_cast<unsigned long long>(hs.clientsServed),
                    static_cast<unsigned long long>(hs.imagesSent));
    }
    return ok ? 0 : 1;
}

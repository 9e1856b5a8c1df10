/**
 * @file
 * Boot-storm benchmark: N guest contexts starting up on one
 * multi-tenant emulation server (src/fleet).
 *
 * The paper's startup problem, multiplied: when a fleet of contexts
 * arrives at once, every one of them wants BBT translation and SBT
 * optimization during exactly the window the others do too. This
 * harness boots the same fleet twice -- cold, and warm-started from
 * per-workload translation images captured by a priming run --
 * and reports the startup-latency distribution (admission to the
 * first `--milestone` retired instructions, on the fleet's
 * deterministic virtual cycle clock) plus the aggregate host-side
 * guest MIPS.
 *
 * The warm fleet boots from ONE shared zero-copy translation image:
 * the per-class priming captures are merged through the content-
 * addressed ImageBuilder (cross-class records deduped by guest-page
 * content) and every context installs borrowed views out of the same
 * mapping -- one parse, one physical copy, relocation-only installs.
 *
 * The binary self-gates: it exits non-zero unless every context
 * reaches the milestone, the warm fleet's p99 time-to-milestone is
 * strictly below the cold fleet's, and the shared image installed in
 * the warm fleet. The virtual clock makes the
 * latency gate exactly reproducible: host load can change the MIPS
 * number, never the latencies.
 *
 *   $ ./build/bench/bench_fleet --contexts=256 --arrival=storm
 *   $ ./build/bench/bench_fleet --arrival=poisson:8 --policy=loadratio
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/statreg.hh"
#include "dbt/image.hh"
#include "fleet/fleet.hh"

using namespace cdvm;

namespace
{

/**
 * Workload shape: short programs (tens of thousands of dynamic insns
 * per run) that halt and rerun until the context's target, so every
 * context retires its target regardless of slicing and the overshoot
 * past it is bounded by one run. Hot counts persist across reruns,
 * so the hot set crosses the SBT threshold within the first couple
 * million instructions -- inside the priming window, which is what
 * puts the superblocks into the warm images.
 */
workload::ProgramParams
fleetWorkloadShape()
{
    workload::ProgramParams p;
    p.numFuncs = 5;
    p.blocksPerFunc = 3;
    p.insnsPerBlock = 8;
    p.mainIterations = 2;
    return p;
}

/**
 * Prime one warm image per workload class: run a solo tenant of that
 * class to prime_insns and capture its translations, hot counts and
 * branch profile, exactly what a production host would persist from
 * the previous boot.
 */
std::vector<dbt::TransImage>
primeWarmImages(const fleet::FleetConfig &cfg, u64 prime_insns)
{
    std::vector<dbt::TransImage> images;
    images.reserve(cfg.workloads);
    const engine::EngineConfig tcfg =
        fleet::tenantEngineConfig(cfg.engineCfg);
    for (unsigned w = 0; w < cfg.workloads; ++w) {
        workload::ProgramParams p = cfg.workloadParams;
        p.seed = fleet::deriveSeed(cfg.fleetSeed, w);
        const workload::Program prog = workload::generateProgram(p);

        x86::Memory mem;
        prog.loadInto(mem);
        vmm::Vmm vm(mem, tcfg);
        x86::CpuState cpu = prog.initialState();
        while (vm.stats().totalRetired() < prime_insns) {
            const x86::Exit e =
                vm.run(cpu, prime_insns - vm.stats().totalRetired());
            if (e == x86::Exit::Halted)
                cpu = prog.initialState();
            else if (e != x86::Exit::None) {
                std::fprintf(stderr,
                             "priming workload %u: unexpected exit\n",
                             w);
                break;
            }
        }
        images.push_back(vm.captureWarmStart());
    }
    return images;
}

/** Build stats of the one shared image the warm fleet boots from. */
struct SharedImage
{
    std::shared_ptr<const dbt::TransImage> image;
    u64 blobBytes = 0;
    u64 records = 0;
    u64 dedupeHits = 0;
    u64 evicted = 0;
};

/**
 * Merge every per-class priming capture into ONE content-addressed
 * image and verify-adopt it, exactly what a production fleet host
 * would persist and mmap: identical records across classes collapse
 * to one physical copy; a non-zero budget evicts the coldest records.
 */
SharedImage
buildSharedImage(const fleet::FleetConfig &cfg, u64 prime_insns,
                 u64 budget_bytes)
{
    const std::vector<dbt::TransImage> parts =
        primeWarmImages(cfg, prime_insns);
    dbt::ImageBuilder builder(
        dbt::ImageBuilder::Options{budget_bytes, 1});
    for (const dbt::TransImage &part : parts)
        builder.add(part);
    const std::vector<u8> blob = builder.build();

    SharedImage si;
    si.blobBytes = blob.size();
    si.dedupeHits = builder.dedupeHits();
    si.evicted = builder.evicted();
    auto img = std::make_shared<dbt::TransImage>();
    if (dbt::TransImage::adopt(blob, *img) != dbt::LoadError::None) {
        std::fprintf(stderr,
                     "shared image failed verification; warm fleet "
                     "will boot cold\n");
        return si;
    }
    si.records = img->recordCount();
    si.image = std::move(img);
    return si;
}

void
jsonSeries(std::FILE *f, const char *key, const fleet::FleetResult &r)
{
    std::fprintf(
        f,
        "    \"%s\": {\n"
        "      \"completed\": %u,\n"
        "      \"failed\": %u,\n"
        "      \"fleet_clock_cycles\": %llu,\n"
        "      \"retired_total\": %llu,\n"
        "      \"slices\": %llu,\n"
        "      \"peak_resident\": %u,\n"
        "      \"reached_milestone\": %u,\n"
        "      \"p50_time_to_milestone_cycles\": %.0f,\n"
        "      \"p99_time_to_milestone_cycles\": %.0f,\n"
        "      \"host_seconds\": %.4f,\n"
        "      \"guest_mips\": %.2f\n"
        "    }",
        key, r.completed, r.failed,
        static_cast<unsigned long long>(r.fleetClock),
        static_cast<unsigned long long>(r.totalRetired),
        static_cast<unsigned long long>(r.slices), r.peakResident,
        r.reachedMilestone, r.p50TimeToMilestone,
        r.p99TimeToMilestone, r.hostSeconds, r.guestMips);
}

bool
seriesSane(const char *name, const fleet::FleetResult &r,
           unsigned contexts)
{
    bool ok = true;
    if (r.completed != contexts || r.failed != 0) {
        std::fprintf(stderr,
                     "%s: %u/%u contexts completed, %u failed\n",
                     name, r.completed, contexts, r.failed);
        ok = false;
    }
    if (r.reachedMilestone != contexts) {
        std::fprintf(stderr,
                     "%s: only %u/%u contexts reached the milestone\n",
                     name, r.reachedMilestone, contexts);
        ok = false;
    }
    if (!(r.guestMips > 0.0)) {
        std::fprintf(stderr, "%s: non-positive aggregate MIPS\n",
                     name);
        ok = false;
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("Boot-storm benchmark: cold vs warm startup of a "
            "multi-tenant emulation fleet");
    cli.flag("contexts", "256", "guest contexts to host");
    cli.flag("workloads", "8", "distinct workload classes");
    cli.flag("seed", "1", "fleet seed (derives every tenant seed)");
    cli.flag("policy", "rr", "scheduler policy: rr | loadratio");
    cli.flag("quantum", "20000", "retired-insn quantum per slice");
    cli.flag("arrival", "storm",
             "arrival curve: storm | step:<batch>@<cycles> | "
             "poisson:<rate-per-Mcycle>");
    cli.flag("milestone", "1000000",
             "startup milestone (retired insns per context)");
    cli.flag("target", "1000000",
             "retired insns after which a context completes");
    cli.flag("pool", "0",
             "shared background-SBT workers (0: synchronous)");
    cli.flag("image-budget", "0",
             "shared-image size budget in bytes (0: unbounded; the "
             "coldest records are evicted to fit)");
    cli.flag("json", "BENCH_fleet.json", "output report path");
    addObservabilityFlags(cli);
    cli.parse(argc, argv);
    applyObservabilityFlags(cli);

    fleet::FleetConfig cfg;
    cfg.contexts = static_cast<unsigned>(cli.num("contexts"));
    cfg.workloads = static_cast<unsigned>(cli.num("workloads"));
    cfg.fleetSeed = static_cast<u64>(cli.num("seed"));
    cfg.quantumInsns = static_cast<u64>(cli.num("quantum"));
    cfg.milestoneInsns = static_cast<u64>(cli.num("milestone"));
    cfg.targetInsns = static_cast<u64>(cli.num("target"));
    cfg.sharedPoolWorkers =
        static_cast<unsigned>(cli.num("pool"));
    cfg.workloadParams = fleetWorkloadShape();

    if (auto pol = fleet::schedPolicyByName(cli.str("policy")))
        cfg.policy = *pol;
    else {
        std::fprintf(stderr, "unknown policy '%s'\n",
                     cli.str("policy").c_str());
        return 2;
    }
    if (auto arr = fleet::ArrivalCurve::parse(cli.str("arrival")))
        cfg.arrival = *arr;
    else {
        std::fprintf(stderr, "unknown arrival curve '%s'\n",
                     cli.str("arrival").c_str());
        return 2;
    }

    std::printf("=== Boot storm: %u contexts (%u workload classes), "
                "%s arrival, %s scheduling ===\n",
                cfg.contexts, cfg.workloads,
                cfg.arrival.describe().c_str(),
                fleet::schedPolicyName(cfg.policy));

    // Cold series: every context translates everything itself.
    fleet::FleetServer cold(cfg);
    const fleet::FleetResult cr = cold.run();
    std::printf("cold: %u/%u done, p50 %.0f / p99 %.0f cycles to "
                "%lluk insns, %.1f MIPS aggregate (%.2fs host)\n",
                cr.completed, cfg.contexts, cr.p50TimeToMilestone,
                cr.p99TimeToMilestone,
                static_cast<unsigned long long>(cfg.milestoneInsns /
                                                1000),
                cr.guestMips, cr.hostSeconds);

    // Warm series: every context boots from ONE shared zero-copy
    // image merged out of the per-class priming captures, as a
    // production host would persist from the previous boot. Prime
    // past the target so the hot set is fully optimized.
    const SharedImage si = buildSharedImage(
        cfg, 2 * cfg.targetInsns,
        static_cast<u64>(cli.num("image-budget")));
    if (si.image)
        cfg.imageEndpoint = std::make_shared<dbt::ImageStore>(si.image);
    std::printf("shared image: %llu records in %llu bytes "
                "(%llu cross-class dedupe hits, %llu evicted)\n",
                static_cast<unsigned long long>(si.records),
                static_cast<unsigned long long>(si.blobBytes),
                static_cast<unsigned long long>(si.dedupeHits),
                static_cast<unsigned long long>(si.evicted));
    fleet::FleetServer warm(cfg);
    const fleet::FleetResult wr = warm.run();
    std::printf("warm: %u/%u done, p50 %.0f / p99 %.0f cycles to "
                "%lluk insns, %.1f MIPS aggregate (%.2fs host)\n",
                wr.completed, cfg.contexts, wr.p50TimeToMilestone,
                wr.p99TimeToMilestone,
                static_cast<unsigned long long>(cfg.milestoneInsns /
                                                1000),
                wr.guestMips, wr.hostSeconds);

    // Shared-image install aggregates across the warm fleet.
    u64 warm_installed = 0, warm_relocs = 0, warm_invalidated = 0;
    for (const fleet::ContextResult &c : wr.contexts) {
        warm_installed += c.warmInstalled;
        warm_relocs += c.warmRelocations;
        warm_invalidated += c.warmInvalidated;
    }

    bool ok = seriesSane("cold", cr, cfg.contexts) &&
              seriesSane("warm", wr, cfg.contexts);
    if (!si.image) {
        std::printf("GATE FAILED: shared image did not build\n");
        ok = false;
    }
    if (warm_installed == 0) {
        std::printf("GATE FAILED: shared-image boots must install\n");
        ok = false;
    } else {
        std::printf("shared-image installs: %llu translations across "
                    "the fleet, %llu relocations\n",
                    static_cast<unsigned long long>(warm_installed),
                    static_cast<unsigned long long>(warm_relocs));
    }
    if (!(wr.p99TimeToMilestone > 0.0 &&
          wr.p99TimeToMilestone < cr.p99TimeToMilestone)) {
        std::printf("GATE FAILED: warm p99 time-to-milestone (%.0f) "
                    "must be strictly below cold (%.0f)\n",
                    wr.p99TimeToMilestone, cr.p99TimeToMilestone);
        ok = false;
    } else {
        std::printf("gate: warm p99 %.0f < cold p99 %.0f "
                    "(%.2fx faster)\n",
                    wr.p99TimeToMilestone, cr.p99TimeToMilestone,
                    cr.p99TimeToMilestone / wr.p99TimeToMilestone);
    }

    std::FILE *f = std::fopen(cli.str("json").c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n",
                     cli.str("json").c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"contexts\": %u,\n"
                 "  \"workloads\": %u,\n"
                 "  \"seed\": %llu,\n"
                 "  \"arrival\": \"%s\",\n"
                 "  \"policy\": \"%s\",\n"
                 "  \"quantum_insns\": %llu,\n"
                 "  \"milestone_insns\": %llu,\n"
                 "  \"target_insns\": %llu,\n"
                 "  \"pool_workers\": %u,\n"
                 "  \"series\": {\n",
                 cfg.contexts, cfg.workloads,
                 static_cast<unsigned long long>(cfg.fleetSeed),
                 cfg.arrival.describe().c_str(),
                 fleet::schedPolicyName(cfg.policy),
                 static_cast<unsigned long long>(cfg.quantumInsns),
                 static_cast<unsigned long long>(cfg.milestoneInsns),
                 static_cast<unsigned long long>(cfg.targetInsns),
                 cfg.sharedPoolWorkers);
    jsonSeries(f, "cold", cr);
    std::fprintf(f, ",\n");
    jsonSeries(f, "warm", wr);
    std::fprintf(f,
                 "\n  },\n"
                 "  \"shared_image\": {\n"
                 "    \"blob_bytes\": %llu,\n"
                 "    \"records\": %llu,\n"
                 "    \"dedupe_hits\": %llu,\n"
                 "    \"evicted\": %llu,\n"
                 "    \"fleet_warm_installed\": %llu,\n"
                 "    \"fleet_warm_invalidated\": %llu,\n"
                 "    \"fleet_warm_relocations\": %llu\n"
                 "  },\n"
                 "  \"gate\": {\n",
                 static_cast<unsigned long long>(si.blobBytes),
                 static_cast<unsigned long long>(si.records),
                 static_cast<unsigned long long>(si.dedupeHits),
                 static_cast<unsigned long long>(si.evicted),
                 static_cast<unsigned long long>(warm_installed),
                 static_cast<unsigned long long>(warm_invalidated),
                 static_cast<unsigned long long>(warm_relocs));
    std::fprintf(f,
                 "    \"cold_p99_cycles\": %.0f,\n"
                 "    \"warm_p99_cycles\": %.0f,\n"
                 "    \"speedup\": %.4f,\n"
                 "    \"ok\": %s\n"
                 "  }\n"
                 "}\n",
                 cr.p99TimeToMilestone, wr.p99TimeToMilestone,
                 wr.p99TimeToMilestone > 0.0
                     ? cr.p99TimeToMilestone / wr.p99TimeToMilestone
                     : 0.0,
                 ok ? "true" : "false");
    std::fclose(f);

    // Fold both series into the global registry (bench.fleet.*) so
    // --stats-json carries the fleet trajectory per PR.
    StatRegistry local_cold, local_warm;
    cold.exportStats(local_cold);
    warm.exportStats(local_warm);
    StatRegistry::global().merge(local_cold, "bench.fleet.cold");
    StatRegistry::global().merge(local_warm, "bench.fleet.warm");
    dumpObservability();
    return ok ? 0 : 1;
}

/**
 * @file
 * Host-side guest-MIPS benchmark: how fast does the *simulator itself*
 * emulate, per engine configuration, and how well do the dispatch
 * lookaside and the decode cache serve each run?
 *
 * This is a wall-clock benchmark of the host reproduction, not a model
 * of the paper's machine (Fig. 1b "Translation Lookup in Code Cache"
 * as a host cost).
 *
 * The "coldheavy" row is the paper's startup worst case made
 * permanent: vm.interp with the hot threshold pushed out of reach, so
 * every block entry pays a dispatch lookup and every instruction a
 * fetch+decode. CI asserts that both caches serve it and records the
 * whole matrix in BENCH_host.json. A second measurement gates the
 * template tier's raw translation cost against the uop-lowering BBT.
 *
 *   $ ./build/bench/bench_host_mips --json=BENCH_host.json
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "dbt/bbt.hh"
#include "dbt/templates.hh"
#include "vmm/vmm.hh"
#include "workload/program_gen.hh"
#include "x86/decode_cache.hh"

using namespace cdvm;

namespace
{

/** The template tier must translate this much faster per insn. */
constexpr double TMPL_GATE_MIN_SPEEDUP = 2.0;

struct RunStat
{
    double seconds = 0.0;
    u64 retired = 0;
    double mips = 0.0;
    double lookasideHitRate = 0.0;
    double decodeHitRate = 0.0;
};

workload::Program
mixProgram()
{
    // The standard mix: calls, loops, indirect branches, byte/16-bit
    // traffic and guarded divides, the same generator the differential
    // tests sweep.
    workload::ProgramParams pp;
    pp.seed = 20260807;
    pp.numFuncs = 8;
    pp.blocksPerFunc = 5;
    pp.insnsPerBlock = 8;
    pp.mainIterations = 1000000; // effectively: run until the budget
    return workload::generateProgram(pp);
}

/** Emulate `insns` guest instructions under cfg; time the host. */
RunStat
measure(vmm::VmmConfig cfg, const workload::Program &prog, u64 insns)
{
    x86::Memory mem;
    prog.loadInto(mem);
    vmm::Vmm vm(mem, cfg);
    x86::CpuState cpu = prog.initialState();

    const auto t0 = std::chrono::steady_clock::now();
    u64 done = 0;
    while (done < insns) {
        x86::Exit e = vm.run(cpu, insns - done);
        done = vm.stats().totalRetired();
        if (e == x86::Exit::Halted) {
            // Restart the program; translations (if any) stay warm,
            // and nothing reloads the image so the decode cache keeps
            // its lines too.
            cpu = prog.initialState();
        } else if (e != x86::Exit::None) {
            std::fprintf(stderr, "unexpected exit %d under %s\n",
                         static_cast<int>(e), cfg.name.c_str());
            std::exit(1);
        }
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;

    RunStat r;
    r.seconds = dt.count();
    r.retired = done;
    r.mips = r.seconds > 0.0
                 ? static_cast<double>(done) / r.seconds / 1e6
                 : 0.0;
    const dbt::TranslationMap &map = vm.translations();
    const u64 ls = map.lookasideHits() + map.lookasideMisses();
    r.lookasideHitRate =
        ls ? static_cast<double>(map.lookasideHits()) /
                 static_cast<double>(ls)
           : 0.0;
    if (const x86::DecodeCache *dc = vm.coldExecutor().decodeCache())
        r.decodeHitRate = dc->hitRate();
    return r;
}

/**
 * Basic-block entry PCs of the mix, in first-touch order: run the
 * program once under BBT-only emulation and read the map back.
 */
std::vector<Addr>
blockEntryPcs(const workload::Program &prog)
{
    x86::Memory mem;
    prog.loadInto(mem);
    vmm::VmmConfig cfg = engine::EngineConfig::vmSoft();
    cfg.enableSbt = false;
    vmm::Vmm vm(mem, cfg);
    x86::CpuState cpu = prog.initialState();
    vm.run(cpu, 2'000'000);
    std::vector<Addr> pcs;
    vm.translations().forEach([&](const dbt::Translation &t) {
        if (t.kind == dbt::TransKind::BasicBlock)
            pcs.push_back(t.entryPc);
    });
    return pcs;
}

/**
 * Raw host translation cost of one backend over an entry-pc list.
 * The sweep is timed in `rounds` independent rounds of `reps` passes
 * each and the *minimum* per-instruction time is reported: scheduler
 * and frequency interference only ever add time, so the min of
 * several rounds estimates the translation cost itself rather than
 * the noise floor of the machine.
 */
template <typename Translator>
double
xlateNsPerInsn(Translator &tx, const std::vector<Addr> &pcs,
               unsigned reps, unsigned rounds = 1,
               u64 *insns_out = nullptr)
{
    double best = 0.0;
    u64 total_insns = 0;
    for (unsigned round = 0; round < rounds; ++round) {
        u64 insns = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (unsigned rep = 0; rep < reps; ++rep)
            for (Addr pc : pcs)
                if (auto t = tx.translate(pc))
                    insns += t->numX86Insns;
        const std::chrono::duration<double, std::nano> dt =
            std::chrono::steady_clock::now() - t0;
        total_insns += insns;
        if (insns) {
            double ns = dt.count() / static_cast<double>(insns);
            if (best == 0.0 || ns < best)
                best = ns;
        }
    }
    if (insns_out)
        *insns_out = total_insns;
    return best;
}

void
jsonRun(std::FILE *f, const char *key, const RunStat &r)
{
    std::fprintf(f,
                 "    \"%s\": {\"seconds\": %.6f, \"retired\": %llu, "
                 "\"mips\": %.3f, \"lookaside_hit_rate\": %.4f, "
                 "\"decode_hit_rate\": %.4f}",
                 key, r.seconds,
                 static_cast<unsigned long long>(r.retired), r.mips,
                 r.lookasideHitRate, r.decodeHitRate);
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("Host guest-MIPS and dispatch-cache hit rates per engine "
            "configuration, plus the template translation-cost gate; "
            "writes a JSON report for the CI perf-smoke job.");
    cli.flag("json", "BENCH_host.json", "output report path");
    cli.flag("ablate-tmpl", "0",
             "1: sweep template rule coverage 0/25/50/75/100% and "
             "record the translation-cost curve");
    u64 insns = bench::standardSetup(cli, argc, argv, 3'000'000);

    workload::Program prog = mixProgram();

    // The measured matrix. "coldheavy" is vm.interp with hotspot
    // optimization pushed out of reach, i.e. the startup transient
    // made permanent (every step decodes, every block entry
    // dispatches).
    struct Point
    {
        std::string key;
        vmm::VmmConfig cfg;
    };
    std::vector<Point> points;
    {
        vmm::VmmConfig cold = engine::EngineConfig::vmInterp();
        cold.name = "vm.interp.coldheavy";
        cold.interpHotThreshold = u64{1} << 40;
        points.push_back({"coldheavy", cold});
        points.push_back({"vm.interp", engine::EngineConfig::vmInterp()});
        points.push_back({"vm.soft", engine::EngineConfig::vmSoft()});
        points.push_back(
            {"vm.soft.tmpl", engine::EngineConfig::vmSoftTmpl()});
        points.push_back({"vm.be", engine::EngineConfig::vmBe()});
        points.push_back(
            {"vm.soft.async", engine::EngineConfig::vmSoftAsync()});
    }

    std::FILE *f = std::fopen(cli.str("json").c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n",
                     cli.str("json").c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"instructions\": %llu,\n  \"configs\": {\n",
                 static_cast<unsigned long long>(insns));

    StatRegistry &reg = StatRegistry::global();
    bool first = true;
    for (const Point &p : points) {
        const RunStat r = measure(p.cfg, prog, insns);
        std::printf("[%-16s] %8.2f MIPS  (lookaside %.1f%%, decode "
                    "cache %.1f%%)\n",
                    p.key.c_str(), r.mips, 100.0 * r.lookasideHitRate,
                    100.0 * r.decodeHitRate);

        if (!first)
            std::fprintf(f, ",\n");
        first = false;
        jsonRun(f, p.key.c_str(), r);

        reg.set("bench.host_mips." + p.key + ".mips", r.mips,
                "host guest-MIPS");
    }

    std::fprintf(f, "\n  },\n");

    // --- raw host translation cost: template tier vs uop-lowering BBT
    // (the measurement behind engine/params BBT_TMPL_XLATE).
    const std::vector<Addr> pcs = blockEntryPcs(prog);
    const unsigned max_block =
        engine::EngineConfig::vmSoft().maxBlockInsns;
    x86::Memory xmem;
    prog.loadInto(xmem);
    const unsigned reps = 80;
    const unsigned rounds = 7;

    dbt::BasicBlockTranslator sw_tx(xmem, max_block);
    dbt::TemplateTranslator tm_tx(xmem, max_block, 100);
    // Warm both paths once (rule-table build, allocator steady state).
    (void)xlateNsPerInsn(sw_tx, pcs, 2);
    (void)xlateNsPerInsn(tm_tx, pcs, 2);
    const double sw_ns = xlateNsPerInsn(sw_tx, pcs, reps, rounds);
    u64 tmpl_insns = 0;
    const double tm_ns =
        xlateNsPerInsn(tm_tx, pcs, reps, rounds, &tmpl_insns);
    const double tmpl_speedup = tm_ns > 0.0 ? sw_ns / tm_ns : 0.0;
    const u64 covered =
        tm_tx.templatedInsns() + tm_tx.fallbackInsns();
    const double coverage =
        covered ? 100.0 * static_cast<double>(tm_tx.templatedInsns()) /
                      static_cast<double>(covered)
                : 0.0;
    std::printf("\n[xlate           ] software BBT: %6.1f ns/insn, "
                "template BBT: %6.1f ns/insn  (%.2fx, rule coverage "
                "%.1f%%)\n",
                sw_ns, tm_ns, tmpl_speedup, coverage);
    std::fprintf(f,
                 "  \"tmpl_xlate\": {\"sw_ns_per_insn\": %.2f, "
                 "\"tmpl_ns_per_insn\": %.2f, \"speedup\": %.4f, "
                 "\"coverage_pct\": %.2f, \"insns\": %llu},\n",
                 sw_ns, tm_ns, tmpl_speedup, coverage,
                 static_cast<unsigned long long>(tmpl_insns));
    reg.set("bench.host_mips.xlate.sw_ns_per_insn", sw_ns,
            "uop-lowering BBT host translation cost");
    reg.set("bench.host_mips.xlate.tmpl_ns_per_insn", tm_ns,
            "template BBT host translation cost");
    reg.set("bench.host_mips.xlate.tmpl_speedup", tmpl_speedup,
            "template over uop-lowering translation speedup");

    // --- optional coverage ablation: how the translation cost decays
    // as the rule table is artificially truncated.
    if (cli.on("ablate-tmpl")) {
        std::fprintf(f, "  \"ablate_tmpl\": [\n");
        const unsigned sweeps[] = {0, 25, 50, 75, 100};
        for (std::size_t i = 0; i < std::size(sweeps); ++i) {
            dbt::TemplateTranslator ab(xmem, max_block, sweeps[i]);
            (void)xlateNsPerInsn(ab, pcs, 2);
            const double ns = xlateNsPerInsn(ab, pcs, reps / 4, 3);
            const u64 tot = ab.templatedInsns() + ab.fallbackInsns();
            const double cov =
                tot ? 100.0 *
                          static_cast<double>(ab.templatedInsns()) /
                          static_cast<double>(tot)
                    : 0.0;
            std::printf("[ablate-tmpl %3u%%] %6.1f ns/insn  "
                        "(covered %.1f%% of insns)\n",
                        sweeps[i], ns, cov);
            std::fprintf(f,
                         "    {\"rules_pct\": %u, \"ns_per_insn\": "
                         "%.2f, \"covered_insn_pct\": %.2f}%s\n",
                         sweeps[i], ns, cov,
                         i + 1 < std::size(sweeps) ? "," : "");
        }
        std::fprintf(f, "  ],\n");
    }

    std::fprintf(f,
                 "  \"tmpl_gate\": {\"speedup\": %.4f, \"threshold\": "
                 "%.2f}\n}\n",
                 tmpl_speedup, TMPL_GATE_MIN_SPEEDUP);
    std::fclose(f);
    dumpObservability();

    if (tmpl_speedup < TMPL_GATE_MIN_SPEEDUP) {
        std::fprintf(stderr,
                     "FAIL: template tier %.2fx < %.2fx over the "
                     "uop-lowering BBT per translated insn\n",
                     tmpl_speedup, TMPL_GATE_MIN_SPEEDUP);
        return 1;
    }
    std::printf("template-xlate gate: %.2fx >= %.2fx  OK\n",
                tmpl_speedup, TMPL_GATE_MIN_SPEEDUP);
    return 0;
}

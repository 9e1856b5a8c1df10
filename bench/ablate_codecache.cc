/**
 * @file
 * Ablation: code-cache pressure and retranslation, plus the host
 * fast-path cache capacities.
 *
 * Section 1.1 warns that a limited code cache causes hotspot
 * retranslations when switched-out tasks resume. This harness runs the
 * *functional* VMM (real translations, real arena management) with
 * shrinking code caches and reports flush / retranslation behaviour.
 *
 * A second sweep ablates the host-side dispatch caches: lookaside
 * entries, decode-cache lines (0 disables either), and the lookup
 * table's capacity preset, reporting host ns/instruction and hit
 * rates for each point.
 */

#include <chrono>

#include "bench_common.hh"
#include "vmm/vmm.hh"
#include "workload/program_gen.hh"
#include "x86/decode_cache.hh"

using namespace cdvm;

int
main(int argc, char **argv)
{
    Cli cli("Ablation: code-cache size sweep (functional VMM)");
    cli.parse(argc, argv);

    std::printf("=== Code-cache pressure ablation (functional VMM, "
                "real translations) ===\n\n");

    workload::ProgramParams pp;
    pp.seed = 2026;
    pp.numFuncs = 6;
    pp.blocksPerFunc = 5;
    pp.mainIterations = 60;
    workload::Program prog = workload::generateProgram(pp);

    TextTable t({"BBT cache", "flushes", "BBT translations",
                 "insns translated", "translation ratio",
                 "chain follows %"});
    for (u64 kb : {256ull, 16ull, 8ull, 4ull, 2ull, 1ull}) {
        x86::Memory mem;
        prog.loadInto(mem);
        x86::CpuState cpu = prog.initialState();
        vmm::VmmConfig vc;
        vc.hotThreshold = 50;
        vc.bbtCacheBytes = kb * 1024;
        vmm::Vmm vm(mem, vc);
        vm.run(cpu, 20'000'000);
        const vmm::VmmStats &st = vm.stats();
        double ratio =
            st.bbtTranslations
                ? static_cast<double>(st.bbtInsnsTranslated) /
                      static_cast<double>(st.totalRetired())
                : 0.0;
        double chain_pct =
            100.0 * static_cast<double>(st.chainFollows) /
            static_cast<double>(st.chainFollows + st.dispatches);
        t.addRow({std::to_string(kb) + " KB",
                  fmtCount(st.bbtCacheFlushes),
                  fmtCount(st.bbtTranslations),
                  fmtCount(st.bbtInsnsTranslated), fmtDouble(ratio, 4),
                  fmtDouble(chain_pct, 1)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Shrinking the arena forces flush/retranslate cycles: "
                "the same static code is\nretranslated repeatedly "
                "(rising translation ratio), exactly the multitasking\n"
                "concern of Section 1.1.\n");

    // --- host dispatch-cache capacity sweep ---------------------------
    // Ablate the dispatch lookaside, the decode cache, and the table
    // preset on the cold-heavy (permanent startup transient) workload
    // where host dispatch cost matters most.
    std::printf("\n=== Host dispatch-cache capacity ablation (vm.interp, "
                "cold-heavy) ===\n\n");
    struct Sweep
    {
        const char *label;
        std::size_t lookaside;
        std::size_t decodeLines;
        std::size_t reserve;
    };
    const Sweep sweeps[] = {
        {"no caches", 0, 0, 64},
        {"ls 64", 64, 0, 64},
        {"ls 256", 256, 0, 4096},
        {"dc 1k", 0, 1024, 4096},
        {"ls 256 + dc 1k", 256, 1024, 4096},
        {"ls 256 + dc 8k", 256, 8192, 4096},
        {"ls 1k + dc 8k", 1024, 8192, 16384},
    };
    TextTable ht({"variant", "host ns/insn", "lookaside hit %",
                  "decode hit %", "rehashes"});
    for (const Sweep &s : sweeps) {
        x86::Memory mem;
        prog.loadInto(mem);
        x86::CpuState cpu = prog.initialState();
        vmm::VmmConfig vc = engine::EngineConfig::vmInterp();
        vc.interpHotThreshold = u64{1} << 40; // stay cold forever
        vc.lookasideEntries = s.lookaside;
        vc.decodeCacheEntries = s.decodeLines;
        vc.lookupReserve = s.reserve;
        vmm::Vmm vm(mem, vc);
        const auto t0 = std::chrono::steady_clock::now();
        vm.run(cpu, 4'000'000);
        const std::chrono::duration<double, std::nano> dt =
            std::chrono::steady_clock::now() - t0;
        const u64 retired = vm.stats().totalRetired();
        const dbt::TranslationMap &map = vm.translations();
        const u64 ls = map.lookasideHits() + map.lookasideMisses();
        const x86::DecodeCache *dc = vm.coldExecutor().decodeCache();
        ht.addRow(
            {s.label,
             fmtDouble(retired ? dt.count() /
                                     static_cast<double>(retired)
                               : 0.0,
                       1),
             ls ? fmtDouble(100.0 *
                                static_cast<double>(
                                    map.lookasideHits()) /
                                static_cast<double>(ls),
                            1)
                : "-",
             dc ? fmtDouble(100.0 * dc->hitRate(), 1) : "-",
             fmtCount(map.rehashes())});
    }
    std::printf("%s\n", ht.render().c_str());
    std::printf("The decode cache carries the cold-heavy win; the "
                "lookaside trims the remaining\nper-block dispatch "
                "probe, and the capacity preset removes rehash storms "
                "during the\nBBT-dominated startup transient.\n");
    return 0;
}

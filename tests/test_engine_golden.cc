/**
 * @file
 * Golden-file regression for the engine's functional counts.
 *
 * Three fixed-seed programs -- a hot_loop-like looping program, a
 * default one with calls (its superblocks repeat pcs), and a boot-storm
 * tenant -- run under every EngineConfig preset, async ones included,
 * with the differential tests' low hot thresholds so that superblocks
 * form. Every EngineStats count and the retired-instruction count
 * (cpu.icount) must match tests/golden/engine_counts.txt. The engine
 * is deterministic (async installs fall at booked deadlines), so any
 * drift is a change in what the engine does, not only in how fast it
 * does it. Host-time figures are not part of the file. Refresh it with
 * CDVM_UPDATE_GOLDEN=1 after verifying a change is intended.
 */

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "helpers.hh"

#ifndef CDVM_TEST_SRC_DIR
#define CDVM_TEST_SRC_DIR "."
#endif

namespace cdvm
{
namespace
{

using engine::EngineStats;

/** Every EngineStats count, by the name the golden file uses. */
const std::pair<const char *, u64 EngineStats::*> STAT_FIELDS[] = {
    {"insns_interp", &EngineStats::insnsInterp},
    {"insns_x86_mode", &EngineStats::insnsX86Mode},
    {"insns_bbt_code", &EngineStats::insnsBbtCode},
    {"insns_sbt_code", &EngineStats::insnsSbtCode},
    {"uops_bbt_code", &EngineStats::uopsBbtCode},
    {"uops_sbt_code", &EngineStats::uopsSbtCode},
    {"bbt_translations", &EngineStats::bbtTranslations},
    {"bbt_insns_translated", &EngineStats::bbtInsnsTranslated},
    {"sbt_translations", &EngineStats::sbtTranslations},
    {"sbt_insns_translated", &EngineStats::sbtInsnsTranslated},
    {"sbt_formation_failures", &EngineStats::sbtFormationFailures},
    {"xlt_insns_translated", &EngineStats::xltInsnsTranslated},
    {"xlt_complex_fallbacks", &EngineStats::xltComplexFallbacks},
    {"xlt_cti_fallbacks", &EngineStats::xltCtiFallbacks},
    {"dispatches", &EngineStats::dispatches},
    {"chain_follows", &EngineStats::chainFollows},
    {"chains_installed", &EngineStats::chainsInstalled},
    {"hotspot_detections", &EngineStats::hotspotDetections},
    {"precise_state_recoveries", &EngineStats::preciseStateRecoveries},
    {"bbt_cache_flushes", &EngineStats::bbtCacheFlushes},
    {"sbt_cache_flushes", &EngineStats::sbtCacheFlushes},
    {"async_sbt_requests", &EngineStats::asyncSbtRequests},
    {"async_sbt_installs", &EngineStats::asyncSbtInstalls},
    {"async_sbt_stale_dropped", &EngineStats::asyncSbtStaleDropped},
    {"async_sbt_queue_rejects", &EngineStats::asyncSbtQueueRejects},
    {"warm_loaded", &EngineStats::warmLoaded},
    {"warm_installed", &EngineStats::warmInstalled},
    {"warm_insns_installed", &EngineStats::warmInsnsInstalled},
    {"warm_invalidated", &EngineStats::warmInvalidated},
    {"warm_profile_seeded", &EngineStats::warmProfileSeeded},
    {"warm_body_copies", &EngineStats::warmBodyCopies},
    {"warm_relocations", &EngineStats::warmRelocations},
    {"warm_mapped_bytes", &EngineStats::warmMappedBytes},
};

/** The three program shapes, at sizes a unit test can run. */
std::vector<std::pair<std::string, workload::Program>>
programs()
{
    workload::ProgramParams hot; // the hot_loop shape, fewer iterations
    hot.seed = 11;
    hot.numFuncs = 8;
    hot.blocksPerFunc = 5;
    hot.withCalls = false;
    hot.loopTripMin = 50;
    hot.loopTripMax = 200;
    hot.mainIterations = 8;

    workload::ProgramParams calls; // differential seed 7: repeated pcs
    calls.seed = 7;
    calls.numFuncs = 4;
    calls.mainIterations = 40;

    workload::ProgramParams storm; // the boot-storm tenant shape
    storm.seed = 3;
    storm.numFuncs = 5;
    storm.blocksPerFunc = 3;
    storm.insnsPerBlock = 8;
    storm.loopTripMax = 4;
    storm.mainIterations = 12;

    return {{"hot_loop", workload::generateProgram(hot)},
            {"calls", workload::generateProgram(calls)},
            {"storm", workload::generateProgram(storm)}};
}

TEST(EngineGolden, EveryPresetMatchesGoldenCounts)
{
    const std::string path = std::string(CDVM_TEST_SRC_DIR) +
                             "/golden/engine_counts.txt";

    std::map<std::string, u64> got;
    for (const auto &[prog_name, prog] : programs()) {
        for (const std::string &name : engine::EngineConfig::names()) {
            vmm::VmmConfig cfg = *engine::EngineConfig::byName(name);
            cfg.hotThreshold = 30; // as in the differential tests
            cfg.interpHotThreshold = 10;
            cfg.bbbParams.hotThreshold = 30;
            x86::Memory mem;
            vmm::VmmStats st;
            const test::RunResult r = test::runVmm(prog, mem, cfg, &st);
            ASSERT_EQ(static_cast<int>(r.exit),
                      static_cast<int>(x86::Exit::Halted))
                << prog_name << " under " << name;
            const std::string key = prog_name + "." + name + ".";
            got[key + "icount"] = r.cpu.icount;
            for (const auto &[field, member] : STAT_FIELDS)
                got[key + field] = st.*member;
        }
    }

    if (std::getenv("CDVM_UPDATE_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << "# engine functional counts: program.preset.count value\n";
        for (const auto &[key, value] : got)
            out << key << " " << value << "\n";
        GTEST_SKIP() << "golden file regenerated: " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (regenerate with CDVM_UPDATE_GOLDEN=1)";
    std::map<std::string, u64> want;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key;
        u64 value = 0;
        ASSERT_TRUE(static_cast<bool>(ls >> key >> value))
            << "malformed golden line: " << line;
        want[key] = value;
    }

    ASSERT_EQ(want.size(), got.size())
        << "golden count set changed; regenerate the file";
    for (const auto &[key, value] : want) {
        const auto it = got.find(key);
        ASSERT_NE(it, got.end()) << "missing count " << key;
        EXPECT_EQ(it->second, value) << key;
    }
}

} // namespace
} // namespace cdvm

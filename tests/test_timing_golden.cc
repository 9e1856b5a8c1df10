/**
 * @file
 * Golden-file regression for the startup timing simulator.
 *
 * Two guarantees:
 *
 *  - Async N=0 is the synchronous model, bit for bit: vmSoftAsync(0)
 *    and vmBeAsync(0) must reproduce vmSoft/vmBe exactly (every cycle
 *    bucket, every curve sample). The async overlap model must be a
 *    pure extension, never a perturbation of the paper's baselines.
 *
 *  - The fig2/fig8 headline numbers on a fixed-seed small trace match
 *    tests/golden/startup_small.txt. The simulator is deterministic,
 *    so any drift is a (possibly unintentional) model change; refresh
 *    the file with CDVM_UPDATE_GOLDEN=1 after verifying the change is
 *    intended.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "timing/startup_sim.hh"
#include "workload/winstone.hh"

#ifndef CDVM_TEST_SRC_DIR
#define CDVM_TEST_SRC_DIR "."
#endif

namespace cdvm
{
namespace
{

constexpr u64 GOLDEN_INSNS = 1'000'000;

timing::StartupResult
simulate(const timing::MachineConfig &m)
{
    workload::AppProfile app = workload::winstoneAverage(GOLDEN_INSNS);
    timing::StartupSim sim(m, app);
    return sim.run();
}

// ---------------------------------------------------------------------
// N=0 async == sync, bit for bit
// ---------------------------------------------------------------------

void
expectBitIdentical(const timing::StartupResult &a,
                   const timing::StartupResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.totalInsns, b.totalInsns);
    EXPECT_EQ(a.insnsCold, b.insnsCold);
    EXPECT_EQ(a.insnsBbt, b.insnsBbt);
    EXPECT_EQ(a.insnsSbt, b.insnsSbt);
    EXPECT_EQ(a.staticInsnsBbt, b.staticInsnsBbt);
    EXPECT_EQ(a.staticInsnsSbt, b.staticInsnsSbt);
    EXPECT_EQ(a.bbtTranslations, b.bbtTranslations);
    EXPECT_EQ(a.sbtRegionTranslations, b.sbtRegionTranslations);
    for (size_t i = 0;
         i < static_cast<size_t>(timing::CycleCat::NUM_CATS); ++i)
        EXPECT_EQ(a.catCycles[i], b.catCycles[i]) << "category " << i;
    EXPECT_EQ(a.decodeActiveCycles, b.decodeActiveCycles);
    EXPECT_EQ(a.bgSbtXlateCycles, b.bgSbtXlateCycles);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].cycles, b.samples[i].cycles)
            << "sample " << i;
        EXPECT_EQ(a.samples[i].insns, b.samples[i].insns)
            << "sample " << i;
    }
}

TEST(TimingGolden, AsyncZeroContextsIsBitIdenticalToSyncSoft)
{
    timing::MachineConfig async0 = timing::MachineConfig::vmSoftAsync(0);
    async0.name = "VM.soft"; // only the model must match, not the label
    expectBitIdentical(simulate(timing::MachineConfig::vmSoft()),
                       simulate(async0));
}

TEST(TimingGolden, AsyncZeroContextsIsBitIdenticalToSyncBe)
{
    timing::MachineConfig async0 = timing::MachineConfig::vmBeAsync(0);
    async0.name = "VM.be";
    expectBitIdentical(simulate(timing::MachineConfig::vmBe()),
                       simulate(async0));
}

TEST(TimingGolden, AsyncOverlapStrictlyReducesCriticalPath)
{
    timing::StartupResult sync =
        simulate(timing::MachineConfig::vmSoft());
    timing::StartupResult async2 =
        simulate(timing::MachineConfig::vmSoftAsync(2));

    // Same work retired, strictly fewer emulation-thread cycles: the
    // Delta_SBT that was on the critical path became occupancy.
    EXPECT_EQ(sync.totalInsns, async2.totalInsns);
    EXPECT_LT(async2.totalCycles, sync.totalCycles);
    EXPECT_GT(async2.bgSbtXlateCycles, 0.0);
    EXPECT_EQ(sync.bgSbtXlateCycles, 0.0);
    EXPECT_EQ(
        async2
            .catCycles[static_cast<size_t>(timing::CycleCat::SbtXlate)],
        0.0)
        << "async machine still charged SBT work on the critical path";
}

// ---------------------------------------------------------------------
// Golden-file comparison
// ---------------------------------------------------------------------

std::map<std::string, double>
metricsFor(const char *key, const timing::StartupResult &r)
{
    std::map<std::string, double> m;
    auto put = [&](const char *name, double v) {
        m[std::string(key) + "." + name] = v;
    };
    put("total_cycles", static_cast<double>(r.totalCycles));
    put("total_insns", static_cast<double>(r.totalInsns));
    put("insns_sbt", static_cast<double>(r.insnsSbt));
    put("static_insns_sbt", static_cast<double>(r.staticInsnsSbt));
    put("sbt_xlate_cycles",
        r.catCycles[static_cast<size_t>(timing::CycleCat::SbtXlate)]);
    put("sbt_xlate_bg_cycles", r.bgSbtXlateCycles);
    return m;
}

TEST(TimingGolden, Fig2Fig8MachinesMatchGoldenFile)
{
    const std::string path = std::string(CDVM_TEST_SRC_DIR) +
                             "/golden/startup_small.txt";

    std::map<std::string, double> got;
    struct Entry
    {
        const char *key;
        timing::MachineConfig cfg;
    };
    const Entry entries[] = {
        {"ref", timing::MachineConfig::refSuperscalar()},
        {"vm_interp", timing::MachineConfig::vmInterp()},
        {"vm_soft", timing::MachineConfig::vmSoft()},
        {"vm_be", timing::MachineConfig::vmBe()},
        {"vm_fe", timing::MachineConfig::vmFe()},
        {"vm_soft_async", timing::MachineConfig::vmSoftAsync(2)},
        {"vm_be_async", timing::MachineConfig::vmBeAsync(2)},
        {"vm_soft_tmpl", timing::MachineConfig::vmSoftTmpl()},
        {"vm_soft_warm", timing::MachineConfig::vmSoftWarm()},
        {"vm_be_warm", timing::MachineConfig::vmBeWarm()},
    };
    for (const Entry &e : entries) {
        for (const auto &kv : metricsFor(e.key, simulate(e.cfg)))
            got[kv.first] = kv.second;
    }

    if (std::getenv("CDVM_UPDATE_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << "# startup-sim golden metrics: winstoneAverage("
            << GOLDEN_INSNS << ")\n";
        for (const auto &kv : got) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", kv.second);
            out << kv.first << " " << buf << "\n";
        }
        GTEST_SKIP() << "golden file regenerated: " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (regenerate with CDVM_UPDATE_GOLDEN=1)";

    std::map<std::string, double> want;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string k;
        double v;
        ASSERT_TRUE(static_cast<bool>(ls >> k >> v))
            << "malformed golden line: " << line;
        want[k] = v;
    }

    ASSERT_EQ(want.size(), got.size())
        << "golden metric set changed; regenerate the file";
    for (const auto &kv : want) {
        auto it = got.find(kv.first);
        ASSERT_NE(it, got.end()) << "missing metric " << kv.first;
        // The simulator is deterministic; the only slack allowed is
        // the %.17g round-trip.
        const double tol =
            1e-12 * std::max(1.0, std::fabs(kv.second));
        EXPECT_NEAR(it->second, kv.second, tol) << kv.first;
    }
}

} // namespace
} // namespace cdvm

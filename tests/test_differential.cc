/**
 * @file
 * The centerpiece property suite: differential execution.
 *
 * For randomly generated programs, every emulation strategy of the
 * co-designed VM -- pure interpretation, BBT-only, staged BBT+SBT,
 * interpreter+SBT, and x86-mode (VM.fe) with hardware hotspot
 * detection -- must produce exactly the same architected x86 state and
 * the same data memory image as the reference interpreter.
 */

#include <gtest/gtest.h>

#include "helpers.hh"

namespace cdvm
{
namespace
{

using test::RunResult;
using test::runInterp;
using test::runVmm;

using test::sameOutcome;

vmm::VmmConfig
cfgSoft()
{
    vmm::VmmConfig c = engine::EngineConfig::vmSoft();
    c.hotThreshold = 30; // low threshold so SBT really triggers
    return c;
}

vmm::VmmConfig
cfgSoftTmpl()
{
    vmm::VmmConfig c = engine::EngineConfig::vmSoftTmpl();
    c.hotThreshold = 30;
    return c;
}

vmm::VmmConfig
cfgBeTmpl()
{
    vmm::VmmConfig c = engine::EngineConfig::vmBeTmpl();
    c.hotThreshold = 30;
    return c;
}

vmm::VmmConfig
cfgBbtOnly()
{
    vmm::VmmConfig c = engine::EngineConfig::vmSoft();
    c.enableSbt = false;
    return c;
}

vmm::VmmConfig
cfgInterpSbt()
{
    vmm::VmmConfig c = engine::EngineConfig::vmInterp();
    c.interpHotThreshold = 10;
    return c;
}

vmm::VmmConfig
cfgFrontend()
{
    vmm::VmmConfig c = engine::EngineConfig::vmFe();
    c.bbbParams.hotThreshold = 30;
    return c;
}

vmm::VmmConfig
cfgBackend()
{
    vmm::VmmConfig c = engine::EngineConfig::vmBe();
    c.hotThreshold = 30;
    return c;
}

vmm::VmmConfig
cfgDual()
{
    vmm::VmmConfig c = engine::EngineConfig::vmDual();
    c.bbbParams.hotThreshold = 30;
    return c;
}

vmm::VmmConfig
cfgSoftAsync()
{
    vmm::VmmConfig c = engine::EngineConfig::vmSoftAsync();
    c.hotThreshold = 30;
    return c;
}

vmm::VmmConfig
cfgBackendAsync()
{
    vmm::VmmConfig c = engine::EngineConfig::vmBeAsync();
    c.hotThreshold = 30;
    return c;
}

class DifferentialTest : public ::testing::TestWithParam<u64>
{
};

TEST_P(DifferentialTest, AllStrategiesMatchInterpreter)
{
    workload::ProgramParams pp;
    pp.seed = GetParam();
    pp.numFuncs = 3 + static_cast<unsigned>(GetParam() % 3);
    pp.mainIterations = 40;
    workload::Program prog = workload::generateProgram(pp);

    x86::Memory ref_mem;
    RunResult ref = runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit),
              static_cast<int>(x86::Exit::Halted))
        << "reference run did not halt";

    struct Case
    {
        const char *name;
        vmm::VmmConfig cfg;
    };
    const Case cases[] = {
        {"vm.soft (BBT+SBT)", cfgSoft()},
        {"vm.soft.tmpl (template BBT+SBT)", cfgSoftTmpl()},
        {"vm.be.tmpl (template BBT+BBB)", cfgBeTmpl()},
        {"BBT only", cfgBbtOnly()},
        {"interp+SBT", cfgInterpSbt()},
        {"vm.fe (x86-mode+BBB)", cfgFrontend()},
        {"vm.be (XLT-assisted BBT)", cfgBackend()},
        {"vm.dual (XLT+BBB)", cfgDual()},
        {"vm.soft.async", cfgSoftAsync()},
        {"vm.be.async", cfgBackendAsync()},
    };

    for (const Case &c : cases) {
        x86::Memory mem;
        vmm::VmmStats stats;
        RunResult got = runVmm(prog, mem, c.cfg, &stats);
        EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem))
            << c.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10, 11, 12));

TEST(DifferentialFeatures, FeatureKnobsStillMatch)
{
    for (u64 seed = 100; seed < 106; ++seed) {
        workload::ProgramParams pp;
        pp.seed = seed;
        pp.withDiv = seed % 2 == 0;
        pp.withIndirect = seed % 3 != 0;
        pp.with16Bit = seed % 2 == 1;
        pp.mainIterations = 25;
        workload::Program prog = workload::generateProgram(pp);

        x86::Memory ref_mem;
        RunResult ref = runInterp(prog, ref_mem);
        ASSERT_EQ(static_cast<int>(ref.exit),
                  static_cast<int>(x86::Exit::Halted));

        x86::Memory mem;
        RunResult got = runVmm(prog, mem, cfgSoft());
        EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem))
            << "seed " << seed;
    }
}

TEST(DifferentialStats, SbtActuallyRunsAndFuses)
{
    workload::ProgramParams pp;
    pp.seed = 42;
    pp.mainIterations = 60;
    workload::Program prog = workload::generateProgram(pp);

    x86::Memory mem;
    vmm::VmmStats stats;
    runVmm(prog, mem, cfgSoft(), &stats);

    EXPECT_GT(stats.bbtTranslations, 0u);
    EXPECT_GT(stats.sbtTranslations, 0u)
        << "hot threshold was never crossed; test workload too small";
    EXPECT_GT(stats.insnsSbtCode, 0u);
    EXPECT_GT(stats.hotspotDetections, 0u);
    EXPECT_GT(stats.chainFollows, 0u);
}

TEST(DifferentialStats, TinyCodeCacheStillCorrect)
{
    // Large static footprint (lots of code to translate) but a short
    // dynamic run, so retranslation-after-flush dominates.
    workload::ProgramParams pp;
    pp.seed = 77;
    pp.numFuncs = 6;
    pp.blocksPerFunc = 5;
    pp.mainIterations = 4;
    workload::Program prog = workload::generateProgram(pp);

    x86::Memory ref_mem;
    RunResult ref = runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit),
              static_cast<int>(x86::Exit::Halted))
        << "reference run did not halt within budget";

    vmm::VmmConfig c = cfgSoft();
    c.bbtCacheBytes = 1024; // force flush/retranslate cycles
    c.sbtCacheBytes = 8192;

    x86::Memory mem;
    vmm::VmmStats stats;
    RunResult got = runVmm(prog, mem, c, &stats);
    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem))
        << "tiny code cache";
    EXPECT_GT(stats.bbtCacheFlushes, 0u)
        << "cache was big enough that flushing never happened";

    // The template tier must survive the same flush/retranslate storm.
    vmm::VmmConfig ct = cfgSoftTmpl();
    ct.bbtCacheBytes = 1024;
    ct.sbtCacheBytes = 8192;
    x86::Memory mem_t;
    vmm::VmmStats stats_t;
    RunResult got_t = runVmm(prog, mem_t, ct, &stats_t);
    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got_t, mem_t))
        << "tiny code cache (template tier)";
    EXPECT_GT(stats_t.bbtCacheFlushes, 0u);
}

} // namespace
} // namespace cdvm

/**
 * @file
 * Timing-layer tests: machine configurations, the OoO pipeline model's
 * structural behaviours, and invariants of the startup simulator.
 */

#include <gtest/gtest.h>

#include "analysis/startup_curve.hh"
#include "timing/machine_config.hh"
#include "timing/pipeline.hh"
#include "timing/startup_sim.hh"
#include "workload/winstone.hh"

namespace cdvm::timing
{
namespace
{

uops::Uop
alu(u8 d, u8 s1, u8 s2)
{
    uops::Uop u;
    u.op = uops::UOp::Add;
    u.dst = d;
    u.src1 = s1;
    u.src2 = s2;
    u.writeFlags = false;
    return u;
}

TEST(MachineConfig, PresetsMatchTable2)
{
    auto machines = MachineConfig::table2();
    ASSERT_EQ(machines.size(), 4u);
    EXPECT_EQ(machines[0].kind, MachineKind::RefSuperscalar);
    EXPECT_EQ(machines[1].kind, MachineKind::VmSoft);
    EXPECT_EQ(machines[2].kind, MachineKind::VmBe);
    EXPECT_EQ(machines[3].kind, MachineKind::VmFe);

    EXPECT_DOUBLE_EQ(machines[1].cost.bbtTranslate, 83.0);
    EXPECT_DOUBLE_EQ(machines[2].cost.bbtTranslate, 20.0);
    EXPECT_DOUBLE_EQ(machines[3].cost.bbtTranslate, 0.0);
    EXPECT_DOUBLE_EQ(MachineConfig::vmSoftTmpl().cost.bbtTranslate, 40.0);
    EXPECT_DOUBLE_EQ(MachineConfig::vmInterp().cost.coldExec, 35.0);
    for (const auto &m : machines) {
        EXPECT_EQ(m.pipeline.width, 3u);
        EXPECT_EQ(m.pipeline.robEntries, 128u);
        EXPECT_EQ(m.memory.memLatency, 168u);
    }
    EXPECT_EQ(MachineConfig::vmInterp().hotThreshold, 25u);
}

TEST(Pipeline, WidthBoundsIpc)
{
    // Fully independent single-cycle ops: IPC limited by ALU units /
    // width.
    uops::UopVec v;
    for (u8 i = 0; i < 12; ++i)
        v.push_back(alu(i % 24, (i + 1) % 24 + 1, uops::UREG_NONE));
    // Make them truly independent.
    for (u8 i = 0; i < 12; ++i) {
        v[i].dst = i;
        v[i].src1 = 24;
        v[i].src2 = 25;
    }
    PipelineSim sim;
    PipelineResult r = sim.run(v, 2000);
    EXPECT_GT(r.uopIpc(), 2.5);
    EXPECT_LE(r.uopIpc(), 3.05);
}

TEST(Pipeline, DependenceChainSerializes)
{
    // A strict chain executes at ~1 IPC.
    uops::UopVec v;
    for (int i = 0; i < 12; ++i)
        v.push_back(alu(0, 0, 1));
    PipelineSim sim;
    PipelineResult r = sim.run(v, 2000);
    EXPECT_LT(r.uopIpc(), 1.2);
    EXPECT_GT(r.uopIpc(), 0.8);
}

TEST(Pipeline, FusionSpeedsUpDependentPairs)
{
    // Alternating producer/consumer pairs: fusion should approach 2x.
    uops::UopVec v;
    for (int i = 0; i < 8; ++i) {
        uops::Uop head = alu(0, 2, 3);
        head.fusedHead = true;
        v.push_back(head);
        v.push_back(alu(1, 0, 4)); // consumes r0
        // Next pair reads fresh sources: break the cross-pair chain.
        v.push_back(alu(2, 5, 6));
        v.back().dst = 2;
    }
    PipelineSim sim;
    PipelineResult fused = sim.run(v, 2000);
    PipelineResult plain = sim.run(unfused(v), 2000);
    EXPECT_GT(fused.uopIpc(), plain.uopIpc() * 1.05);
    EXPECT_GT(fused.fusedFraction(), 0.5);
}

TEST(Pipeline, LoadLatencyVisible)
{
    // load -> use chains run slower than ALU chains.
    uops::UopVec loads;
    for (int i = 0; i < 8; ++i) {
        uops::Uop ld;
        ld.op = uops::UOp::Ld;
        ld.dst = 0;
        ld.src1 = 0;
        ld.hasImm = true;
        loads.push_back(ld);
    }
    uops::UopVec alus;
    for (int i = 0; i < 8; ++i)
        alus.push_back(alu(0, 0, 1));
    PipelineSim sim;
    PipelineResult rl = sim.run(loads, 1000);
    PipelineResult ra = sim.run(alus, 1000);
    EXPECT_LT(rl.uopIpc() * 2.0, ra.uopIpc() + 0.01);
}

TEST(StartupSim, CycleConservation)
{
    workload::AppProfile app = workload::winstoneAverage(3'000'000);
    for (const MachineConfig &m : MachineConfig::table2()) {
        StartupSim sim(m, app);
        StartupResult r = sim.run();
        // Category cycles must sum to total cycles (within rounding).
        double sum = 0;
        for (double c : r.catCycles)
            sum += c;
        EXPECT_NEAR(sum, static_cast<double>(r.totalCycles),
                    static_cast<double>(r.totalCycles) * 1e-6 + 2)
            << m.name;
        // Mode instruction counts must sum to the trace length.
        EXPECT_EQ(r.insnsCold + r.insnsBbt + r.insnsSbt, r.totalInsns)
            << m.name;
        // Samples are monotone in both axes.
        for (std::size_t i = 1; i < r.samples.size(); ++i) {
            EXPECT_GE(r.samples[i].cycles, r.samples[i - 1].cycles);
            EXPECT_GE(r.samples[i].insns, r.samples[i - 1].insns);
        }
    }
}

TEST(StartupSim, MachineInvariants)
{
    workload::AppProfile app = workload::winstoneAverage(3'000'000);

    StartupResult ref =
        StartupSim(MachineConfig::refSuperscalar(), app).run();
    StartupResult soft = StartupSim(MachineConfig::vmSoft(), app).run();
    StartupResult be = StartupSim(MachineConfig::vmBe(), app).run();
    StartupResult fe = StartupSim(MachineConfig::vmFe(), app).run();

    // Ref never translates; decoders always on.
    EXPECT_EQ(ref.staticInsnsBbt, 0u);
    EXPECT_EQ(ref.insnsSbt, 0u);
    EXPECT_NEAR(ref.decodeActiveCycles,
                static_cast<double>(ref.totalCycles),
                static_cast<double>(ref.totalCycles) * 1e-9);

    // VM.soft has no hardware decoders at all.
    EXPECT_DOUBLE_EQ(soft.decodeActiveCycles, 0.0);
    // VM.be's decoder is on only during translation: a small share.
    EXPECT_GT(be.decodeActiveCycles, 0.0);
    EXPECT_LT(be.decodeActiveCycles, 0.1 * be.totalCycles);
    // VM.fe's decoders are on exactly during cold (x86-mode) cycles.
    EXPECT_NEAR(fe.decodeActiveCycles,
                fe.catCycles[static_cast<size_t>(CycleCat::ColdExec)],
                1.0);

    // The assisted startup hierarchy: fe <= be <= soft total cycles.
    EXPECT_LE(fe.totalCycles, be.totalCycles);
    EXPECT_LE(be.totalCycles, soft.totalCycles);

    // soft and be translate the same code; fe translates none.
    EXPECT_EQ(soft.staticInsnsBbt, be.staticInsnsBbt);
    EXPECT_EQ(fe.staticInsnsBbt, 0u);
    // All VM machines agree on hotspot identification.
    EXPECT_EQ(soft.staticInsnsSbt, fe.staticInsnsSbt);
    EXPECT_EQ(soft.insnsSbt, fe.insnsSbt);
}

TEST(StartupSim, BbtXlateCostScalesWithAssist)
{
    workload::AppProfile app = workload::winstoneAverage(3'000'000);
    StartupResult soft = StartupSim(MachineConfig::vmSoft(), app).run();
    StartupResult be = StartupSim(MachineConfig::vmBe(), app).run();
    double soft_x =
        soft.catCycles[static_cast<size_t>(CycleCat::BbtXlate)];
    double be_x = be.catCycles[static_cast<size_t>(CycleCat::BbtXlate)];
    // The core translation work shrinks 83 -> 20 cycles/insn; memory
    // traffic is shared, so expect between 2x and 4.2x overall.
    EXPECT_GT(soft_x / be_x, 1.8);
    EXPECT_LT(soft_x / be_x, 4.5);
}

TEST(StartupCurveAnalysis, BreakevenSemantics)
{
    workload::AppProfile app = workload::winstoneAverage(4'000'000);
    StartupResult ref =
        StartupSim(MachineConfig::refSuperscalar(), app).run();
    StartupResult fe = StartupSim(MachineConfig::vmFe(), app).run();
    StartupResult interp =
        StartupSim(MachineConfig::vmInterp(), app).run();

    // The interpreter-based VM must not break even on a short trace.
    EXPECT_LT(analysis::breakevenCycle(interp, ref), 0.0);
    // insnsAtCycle is monotone and clamps at the end.
    double a = analysis::insnsAtCycle(ref, 1e5);
    double b = analysis::insnsAtCycle(ref, 1e6);
    EXPECT_LE(a, b);
    EXPECT_DOUBLE_EQ(
        analysis::insnsAtCycle(ref, 1e18),
        static_cast<double>(ref.totalInsns));
    // Normalized curve values are positive and bounded.
    Series s = analysis::normalizedIpcCurve(ref, "ref");
    for (double y : s.y) {
        EXPECT_GE(y, 0.0);
        EXPECT_LE(y, 1.5);
    }
    (void)fe;
}

} // namespace
} // namespace cdvm::timing

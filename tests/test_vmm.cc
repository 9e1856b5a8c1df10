/**
 * @file
 * VMM runtime tests beyond the differential suite: precise-state
 * recovery through faults in translated code, staged-transition
 * behaviour, chaining, and the analytical model.
 */

#include <gtest/gtest.h>

#include "analysis/model.hh"
#include "helpers.hh"
#include "x86/asm.hh"

namespace cdvm
{
namespace
{

using namespace cdvm::x86;

TEST(Model, Eq2PaperNumbers)
{
    EXPECT_NEAR(analysis::paperHotThreshold(), 8000.0, 1e-6);
    EXPECT_NEAR(analysis::hotThreshold(1152.0, 1.15), 7680.0, 1.0);
    EXPECT_NEAR(analysis::hotThreshold(1200.0, 1.20), 6000.0, 1.0);
}

TEST(Model, Eq1PaperNumbers)
{
    analysis::Eq1Breakdown e = analysis::paperEq1();
    EXPECT_NEAR(e.bbtComponent, 15.75e6, 1e3);
    EXPECT_NEAR(e.sbtComponent, 5.022e6, 1e3);
    EXPECT_GT(e.bbtComponent, e.sbtComponent * 3.0);
}

TEST(Vmm, PreciseStateOnDivideFault)
{
    // A fault inside translated code must leave exactly the
    // interpreter's registers, memory and retire count: recovery may
    // not run a completed store a second time. Three regions fault: a
    // block whose middle instruction faults, a block that stores
    // before the fault, and a superblock loop that faults on its
    // 20,000th pass.
    const MemRef word{REG_NONE, REG_NONE, 1, 0x00800000};
    std::vector<workload::Program> progs;
    {
        Assembler as(0x1000);
        as.movRI(EAX, 100);
        as.movRI(EDX, 0);
        as.movRI(EBX, 7);          // some state before the fault
        as.aluRI(Op::Add, EBX, 1);
        as.movRI(ECX, 0);
        as.divA(ECX);              // #DE
        as.movRI(ESI, 0x999);      // must NOT execute
        as.hlt();
        progs.push_back(test::snippetProgram(as));
    }
    {
        Assembler as(0x1000);
        as.incMem(word);
        as.movRI(ECX, 0);
        as.divA(ECX);
        as.hlt();
        progs.push_back(test::snippetProgram(as));
    }
    {
        Assembler as(0x1000);
        auto loop = as.newLabel();
        as.movRI(EDI, 20000);
        as.bind(loop);
        as.incMem(word);
        as.dec(EDI);
        as.movRI(EAX, 100);
        as.movRI(EDX, 0);
        as.divA(EDI);              // divides by zero on pass 20,000
        as.jmp(loop);
        progs.push_back(test::snippetProgram(as));
    }

    for (const char *name : {"vm.soft", "vm.soft.tmpl", "vm.be"}) {
        for (std::size_t i = 0; i < progs.size(); ++i) {
            x86::Memory ref_mem;
            test::RunResult ref = test::runInterp(progs[i], ref_mem);
            ASSERT_EQ(static_cast<int>(ref.exit),
                      static_cast<int>(Exit::Trap));

            x86::Memory mem;
            vmm::VmmStats stats;
            test::RunResult got = test::runVmm(
                progs[i], mem, *engine::EngineConfig::byName(name),
                &stats);
            EXPECT_TRUE(
                test::sameOutcome(progs[i], ref, ref_mem, got, mem))
                << name << " program " << i;
            EXPECT_EQ(got.retired, ref.retired) << name << " program " << i;
            EXPECT_GT(stats.preciseStateRecoveries, 0u) << name;
            if (i == 2) { // the loop faulted inside its superblock
                EXPECT_GT(stats.insnsSbtCode, 0u) << name;
            }
        }
    }
}

TEST(Vmm, SideExitAtARepeatedPcRetiresTheLaterCopy)
{
    // The superblock seeded at `top` runs top's block, follows the
    // jump back to `inner` -- part-way into the block it already
    // holds -- and so holds inner's three instructions twice. The
    // inner count alternates 2 and 6: at 2 the body leaves through
    // the second copy of `je outer`, and the region must retire
    // every instruction up to that copy, not up to the first one.
    Assembler as(0x1000);
    auto top = as.newLabel();
    auto inner = as.newLabel();
    auto outer = as.newLabel();
    as.movRI(EDI, 3000);
    as.movRI(EBX, 0);
    as.bind(top);
    as.aluRI(Op::Xor, EBX, 4);
    as.movRR(ECX, EBX);
    as.aluRI(Op::Add, ECX, 2); // 2 or 6 inner passes
    as.bind(inner);
    as.aluRI(Op::Add, ESI, 3);
    as.dec(ECX);
    as.jcc(Cond::E, outer); // taken 1 time in 4: not taken on trace
    as.jmp(inner);
    as.bind(outer);
    as.dec(EDI);
    as.jcc(Cond::NE, top);
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    x86::Memory ref_mem;
    test::RunResult ref = test::runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit), static_cast<int>(Exit::Halted));
    for (const char *name : {"vm.soft", "vm.soft.tmpl", "vm.be",
                             "vm.soft.async"}) {
        vmm::VmmConfig cfg = *engine::EngineConfig::byName(name);
        cfg.hotThreshold = 500;
        x86::Memory mem;
        vmm::VmmStats st;
        test::RunResult got = test::runVmm(prog, mem, cfg, &st);
        EXPECT_TRUE(test::sameOutcome(prog, ref, ref_mem, got, mem))
            << name;
        EXPECT_GT(st.insnsSbtCode, st.insnsBbtCode) << name;
    }
}

TEST(Vmm, CodeCacheArenaIsNotGuestVisible)
{
    // Translator state lives in concealed memory: installing a
    // translation writes nothing into guest memory (the code-cache
    // arenas are address reservations), and neither does the XLTx86
    // HAloop's STF. Store a word inside the BBT arena and one at the
    // address the HAloop once wrote through, run 400 fresh blocks, and
    // load both back.
    const MemRef arena{REG_NONE, REG_NONE, 1,
                       static_cast<i32>(0xe0000400u)};
    const MemRef haloop{REG_NONE, REG_NONE, 1,
                        static_cast<i32>(0xf8000000u)};
    Assembler as(0x1000);
    as.movMI(arena, 0x12345678);
    as.movMI(haloop, 0x9abcdef0);
    for (int i = 0; i < 400; ++i) {
        auto next = as.newLabel();
        as.aluRI(Op::Add, EAX, i);
        as.jmp(next);
        as.bind(next);
    }
    as.movRM(EBX, arena);
    as.movRM(ESI, haloop);
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    x86::Memory ref_mem;
    test::RunResult ref = test::runInterp(prog, ref_mem);
    ASSERT_EQ(ref.cpu.regs[EBX], 0x12345678u);
    ASSERT_EQ(ref.cpu.regs[ESI], 0x9abcdef0u);

    for (const char *name : {"vm.soft", "vm.soft.tmpl", "vm.be", "vm.dual",
                             "vm.soft.async", "vm.be.async"}) {
        x86::Memory mem;
        test::RunResult got =
            test::runVmm(prog, mem, *engine::EngineConfig::byName(name));
        EXPECT_EQ(got.cpu.regs[EBX], 0x12345678u) << name;
        EXPECT_EQ(got.cpu.regs[ESI], 0x9abcdef0u) << name;
        EXPECT_TRUE(test::sameOutcome(prog, ref, ref_mem, got, mem))
            << name;
    }
}

TEST(Vmm, Int3PreciseState)
{
    Assembler as(0x1000);
    as.movRI(EAX, 42);
    as.int3();
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    x86::Memory mem;
    vmm::VmmStats stats;
    test::RunResult got = test::runVmm(prog, mem, vmm::VmmConfig{},
                                       &stats);
    EXPECT_EQ(static_cast<int>(got.exit), static_cast<int>(Exit::Trap));
    EXPECT_EQ(got.cpu.regs[EAX], 42u);
}

TEST(Vmm, StagedTransitionCounts)
{
    // A two-phase program: phase 1 loops block A hot; phase 2 touches
    // fresh code. Verifies the staged pipeline acted as configured.
    Assembler as(0x1000);
    auto loop = as.newLabel();
    as.movRI(ECX, 3000);
    as.bind(loop);
    as.aluRI(Op::Add, EAX, 1);
    as.aluRI(Op::Xor, EDX, 3);
    as.dec(ECX);
    as.jcc(Cond::NE, loop);
    for (int i = 0; i < 50; ++i)
        as.aluRI(Op::Add, ESI, i); // cold tail, BBT only
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    vmm::VmmConfig cfg;
    cfg.hotThreshold = 500;
    x86::Memory mem;
    vmm::VmmStats st;
    test::RunResult r = test::runVmm(prog, mem, cfg, &st);
    ASSERT_EQ(static_cast<int>(r.exit), static_cast<int>(Exit::Halted));

    EXPECT_GT(st.bbtTranslations, 0u);
    EXPECT_EQ(st.sbtTranslations, 1u); // exactly the hot loop
    EXPECT_GT(st.insnsSbtCode, st.insnsBbtCode);
    EXPECT_GT(st.chainFollows, st.dispatches); // loop chains to itself
    EXPECT_EQ(st.insnsInterp, 0u);
    EXPECT_EQ(st.insnsX86Mode, 0u);
}

TEST(Vmm, NoSbtBelowThreshold)
{
    Assembler as(0x1000);
    auto loop = as.newLabel();
    as.movRI(ECX, 50); // well below the threshold
    as.bind(loop);
    as.aluRI(Op::Add, EAX, 1);
    as.dec(ECX);
    as.jcc(Cond::NE, loop);
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    vmm::VmmConfig cfg;
    cfg.hotThreshold = 8000;
    x86::Memory mem;
    vmm::VmmStats st;
    test::runVmm(prog, mem, cfg, &st);
    EXPECT_EQ(st.sbtTranslations, 0u);
    EXPECT_EQ(st.hotspotDetections, 0u);
}

TEST(Vmm, X86ModeUsesBbbAndNoBbt)
{
    Assembler as(0x1000);
    auto loop = as.newLabel();
    as.movRI(ECX, 2000);
    as.bind(loop);
    as.aluRI(Op::Add, EAX, 1);
    as.dec(ECX);
    as.jcc(Cond::NE, loop);
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    vmm::VmmConfig cfg;
    cfg.cold = engine::ColdKind::HardwareX86Mode;
    cfg.detector = engine::DetectorKind::Bbb;
    cfg.bbbParams.hotThreshold = 300;
    x86::Memory mem;
    vmm::VmmStats st;
    test::RunResult r = test::runVmm(prog, mem, cfg, &st);
    ASSERT_EQ(static_cast<int>(r.exit), static_cast<int>(Exit::Halted));
    EXPECT_EQ(st.bbtTranslations, 0u);
    EXPECT_GT(st.insnsX86Mode, 0u);
    EXPECT_GT(st.sbtTranslations, 0u); // BBB found the loop
    EXPECT_GT(st.insnsSbtCode, 0u);
}

TEST(Vmm, ChainInstallsOnlyWhenALinkChanges)
{
    // A hot loop with an alternating inner branch: BBT blocks chain to
    // each other, then the SBT superblock takes over and the exits are
    // retargeted to it. Every later exit finds its link already in
    // place, so installs stay near the translation count while follows
    // grow with the trip count.
    Assembler as(0x1000);
    auto loop = as.newLabel();
    auto skip = as.newLabel();
    as.movRI(ECX, 20000);
    as.bind(loop);
    as.aluRI(Op::Add, EAX, 1);
    as.testRI(ECX, 1);
    as.jcc(Cond::E, skip);
    as.aluRI(Op::Xor, EDX, 3);
    as.bind(skip);
    as.dec(ECX);
    as.jcc(Cond::NE, loop);
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    struct ChainCounter : engine::StageSink
    {
        u64 instants = 0;
        void
        onEvent(const engine::StageEvent &e) override
        {
            if (e.stage == TracePhase::Chain)
                ++instants;
        }
    } chains;

    vmm::VmmConfig cfg;
    cfg.hotThreshold = 500;
    x86::Memory mem;
    prog.loadInto(mem);
    x86::CpuState cpu = prog.initialState();
    vmm::Vmm vm(mem, cfg);
    vm.attachSink(&chains);
    ASSERT_EQ(static_cast<int>(vm.run(cpu, 10'000'000)),
              static_cast<int>(Exit::Halted));
    const vmm::VmmStats &st = vm.stats();

    ASSERT_EQ(st.bbtCacheFlushes + st.sbtCacheFlushes, 0u);
    ASSERT_GT(st.sbtTranslations, 0u);
    const u64 translations = st.bbtTranslations + st.sbtTranslations;
    EXPECT_GT(st.chainsInstalled, 0u);
    EXPECT_LE(st.chainsInstalled, 4 * translations);
    EXPECT_EQ(chains.instants, st.chainsInstalled);
    // Only the counting changed: follows, dispatches and the BBT/SBT
    // retire split (exits reach each new superblock at the same point)
    // are the values this loop had when every chained exit counted as
    // an install.
    EXPECT_EQ(st.chainFollows, 20997u);
    EXPECT_EQ(st.dispatches, 5u);
    EXPECT_EQ(st.insnsBbtCode, 4005u);
    EXPECT_EQ(st.insnsSbtCode, 105997u);
}

TEST(Vmm, BudgetOvershootIsBounded)
{
    Assembler as(0x1000);
    auto loop = as.newLabel();
    as.movRI(ECX, 100000);
    as.bind(loop);
    as.dec(ECX);
    as.jcc(Cond::NE, loop);
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    x86::Memory mem;
    prog.loadInto(mem);
    x86::CpuState cpu = prog.initialState();
    vmm::Vmm vm(mem, vmm::VmmConfig{});
    x86::Exit e = vm.run(cpu, 1000);
    EXPECT_EQ(static_cast<int>(e), static_cast<int>(Exit::None));
    // Translations complete atomically: overshoot stays within one
    // region (64 insns max by default).
    EXPECT_GE(vm.stats().totalRetired(), 1000u);
    EXPECT_LE(vm.stats().totalRetired(), 1000u + 200u);
}

} // namespace
} // namespace cdvm

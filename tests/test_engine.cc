/**
 * @file
 * Engine-layer tests: named configurations, the code-cache manager's
 * flush-on-full behaviour (chains reset, stale translations
 * unreachable, execution still correct), VM.be functional parity with
 * VM.soft, and the StagedPipeline event stream feeding two consumers.
 */

#include <gtest/gtest.h>

#include "engine/backend.hh"
#include "engine/cache_mgr.hh"
#include "engine/engine_config.hh"
#include "engine/events.hh"
#include "engine/profile.hh"
#include "engine/staged_pipeline.hh"
#include "helpers.hh"
#include "workload/trace_gen.hh"
#include "x86/asm.hh"

namespace cdvm
{
namespace
{

using namespace cdvm::x86;

TEST(EngineConfig, ByNameRoundTrip)
{
    for (const std::string &n : engine::EngineConfig::names()) {
        std::optional<engine::EngineConfig> c =
            engine::EngineConfig::byName(n);
        ASSERT_TRUE(c.has_value()) << n;
        EXPECT_EQ(c->name, n);
    }
    EXPECT_FALSE(engine::EngineConfig::byName("vm.bogus").has_value());
}

TEST(EngineConfig, NamedConfigsComposeDistinctStrategies)
{
    engine::EngineConfig soft = engine::EngineConfig::vmSoft();
    EXPECT_EQ(soft.cold, engine::ColdKind::SoftwareBbt);
    EXPECT_EQ(soft.detector, engine::DetectorKind::SoftwareCounters);

    engine::EngineConfig fe = engine::EngineConfig::vmFe();
    EXPECT_EQ(fe.cold, engine::ColdKind::HardwareX86Mode);
    EXPECT_EQ(fe.detector, engine::DetectorKind::Bbb);

    engine::EngineConfig be = engine::EngineConfig::vmBe();
    EXPECT_EQ(be.cold, engine::ColdKind::XltAssistedBbt);
    EXPECT_EQ(be.detector, engine::DetectorKind::SoftwareCounters);

    engine::EngineConfig dual = engine::EngineConfig::vmDual();
    EXPECT_EQ(dual.cold, engine::ColdKind::XltAssistedBbt);
    EXPECT_EQ(dual.detector, engine::DetectorKind::Bbb);
}

/** Sink that records every event it sees. */
struct RecordingSink : engine::StageSink
{
    std::vector<engine::StageEvent> events;
    void onEvent(const engine::StageEvent &e) override
    {
        events.push_back(e);
    }

    unsigned
    count(TracePhase stage) const
    {
        unsigned n = 0;
        for (const engine::StageEvent &e : events)
            if (e.stage == stage)
                ++n;
        return n;
    }
};

/** A tiny straight-line block ending in HLT, assembled at `at`. */
void
emitBlock(x86::Memory &mem, Addr at)
{
    Assembler as(at);
    as.movRI(EAX, 1);
    as.aluRI(Op::Add, EAX, 2);
    as.hlt();
    mem.writeBlock(at, as.finalize());
}

TEST(CodeCacheManager, FlushResetsChainsAndDropsStaleTranslations)
{
    x86::Memory mem;
    emitBlock(mem, 0x1000);
    emitBlock(mem, 0x2000);
    emitBlock(mem, 0x3000);

    engine::SoftwareBbtBackend backend(mem, 64);
    auto t1 = backend.translate(0x1000);
    auto t2 = backend.translate(0x2000);
    auto t3 = backend.translate(0x3000);
    ASSERT_TRUE(t1 && t2 && t3);

    auto align4 = [](u64 v) { return (v + 3) & ~u64{3}; };
    engine::EngineConfig cfg = engine::EngineConfig::vmSoft();
    // Room for exactly two blocks: the third install must flush.
    cfg.bbtCacheBytes = align4(t1->codeBytes) + align4(t2->codeBytes);

    engine::EngineStats st;
    engine::EventStream events;
    RecordingSink rec;
    events.attach(&rec);
    engine::CodeCacheManager ccm(cfg, st, events);

    // A superblock in the (large) SBT arena chains into the BBT set.
    auto sb = backend.translate(0x1000);
    sb->kind = dbt::TransKind::Superblock;
    dbt::Translation *psb = ccm.install(std::move(sb)).trans;
    ASSERT_NE(psb, nullptr);

    auto r1 = ccm.install(std::move(t1));
    auto r2 = ccm.install(std::move(t2));
    EXPECT_FALSE(r1.flushed);
    EXPECT_FALSE(r2.flushed);
    ASSERT_TRUE(r1.trans && r2.trans);

    // Chain both within the BBT set and from the superblock into it.
    ASSERT_TRUE(r1.trans->addChain(0x2000, r2.trans->id));
    ASSERT_TRUE(psb->addChain(0x2000, r2.trans->id));
    EXPECT_EQ(ccm.resolve(r1.trans->chainedTo(0x2000)), r2.trans);
    EXPECT_EQ(ccm.resolve(psb->chainedTo(0x2000)), r2.trans);
    const dbt::TransId id2 = r2.trans->id;

    // Third install overflows the arena: flush-everything.
    auto r3 = ccm.install(std::move(t3));
    EXPECT_TRUE(r3.flushed);
    ASSERT_NE(r3.trans, nullptr);
    EXPECT_EQ(st.bbtCacheFlushes, 1u);
    EXPECT_EQ(rec.count(TracePhase::CacheFlush), 1u);

    // Stale basic blocks are unreachable; the superblock survives but
    // its chain into the doomed set was conservatively cleared.
    EXPECT_EQ(ccm.lookup(0x1000, dbt::TransKind::BasicBlock), nullptr);
    EXPECT_EQ(ccm.lookup(0x2000), nullptr);
    EXPECT_EQ(ccm.lookup(0x1000, dbt::TransKind::Superblock), psb);
    EXPECT_FALSE(psb->chainedTo(0x2000));
    EXPECT_EQ(ccm.lookup(0x3000), r3.trans);
    EXPECT_FALSE(r3.trans->chainedTo(0x1000));
    // A pre-flush handle into the doomed set resolves null forever.
    EXPECT_EQ(ccm.resolve(id2), nullptr);
}

TEST(CodeCacheManager, ExecutionCorrectAcrossForcedFlush)
{
    // Many distinct blocks through a cache that holds only a few:
    // every strategy must still match the interpreter while flushing.
    workload::ProgramParams pp;
    pp.seed = 1234;
    pp.numFuncs = 6;
    pp.blocksPerFunc = 5;
    pp.mainIterations = 6;
    workload::Program prog = workload::generateProgram(pp);

    x86::Memory ref_mem;
    test::RunResult ref = test::runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit),
              static_cast<int>(x86::Exit::Halted));

    for (const char *name : {"vm.soft", "vm.be"}) {
        engine::EngineConfig cfg =
            *engine::EngineConfig::byName(name);
        cfg.hotThreshold = 30;
        cfg.bbtCacheBytes = 1024; // force flush/retranslate cycles

        x86::Memory mem;
        vmm::VmmStats st;
        test::RunResult got = test::runVmm(prog, mem, cfg, &st);
        ASSERT_EQ(static_cast<int>(got.exit),
                  static_cast<int>(x86::Exit::Halted))
            << name;
        EXPECT_EQ(got.cpu.eip, ref.cpu.eip) << name;
        for (unsigned r = 0; r < x86::NUM_REGS; ++r)
            EXPECT_EQ(got.cpu.regs[r], ref.cpu.regs[r])
                << name << " reg " << r;
        EXPECT_GT(st.bbtCacheFlushes, 0u) << name;
        EXPECT_EQ(st.totalRetired(), ref.retired) << name;
    }
}

TEST(Engine, VmBeRetiresExactlyWhatVmSoftDoes)
{
    // The XLTx86-assisted BBT must form the same blocks as the
    // software BBT: identical retired totals, stage mix and state.
    for (u64 seed : {7u, 21u, 33u}) {
        workload::ProgramParams pp;
        pp.seed = seed;
        pp.mainIterations = 40;
        workload::Program prog = workload::generateProgram(pp);

        engine::EngineConfig soft = engine::EngineConfig::vmSoft();
        soft.hotThreshold = 30;
        engine::EngineConfig be = engine::EngineConfig::vmBe();
        be.hotThreshold = 30;

        x86::Memory mem_soft, mem_be;
        vmm::VmmStats st_soft, st_be;
        test::RunResult a = test::runVmm(prog, mem_soft, soft, &st_soft);
        test::RunResult b = test::runVmm(prog, mem_be, be, &st_be);

        ASSERT_EQ(static_cast<int>(a.exit), static_cast<int>(b.exit))
            << "seed " << seed;
        EXPECT_EQ(a.cpu.eip, b.cpu.eip) << "seed " << seed;
        EXPECT_EQ(st_soft.totalRetired(), st_be.totalRetired())
            << "seed " << seed;
        EXPECT_EQ(st_soft.insnsBbtCode, st_be.insnsBbtCode)
            << "seed " << seed;
        EXPECT_EQ(st_soft.insnsSbtCode, st_be.insnsSbtCode)
            << "seed " << seed;
        EXPECT_EQ(st_soft.bbtTranslations, st_be.bbtTranslations)
            << "seed " << seed;
        // And the hardware path really ran.
        EXPECT_GT(st_be.xltInsnsTranslated, 0u) << "seed " << seed;
    }
}

TEST(StagedPipeline, OneStateMachineTwoConsumers)
{
    // Two blocks in one region; the third touch of block 0 crosses the
    // hot threshold and optimizes the whole region.
    std::vector<workload::BlockInfo> blocks(2);
    blocks[0] = {0x1000, 10, 30, 0};
    blocks[1] = {0x1040, 10, 30, 0};

    engine::StagedParams p;
    p.translateCold = true;
    p.hasSbt = true;
    p.hotThreshold = 3;

    engine::EventStream events;
    engine::StageCounter counts;
    RecordingSink rec;
    events.attach(&counts);
    events.attach(&rec);

    engine::StagedPipeline pipe(blocks, p, events);
    pipe.touch(0); // translate + BbtExec
    pipe.touch(0); // BbtExec
    pipe.touch(0); // crosses threshold: SbtOptimize + SbtExec
    pipe.touch(1); // region already hot: SbtExec, never translated

    EXPECT_EQ(counts.bbtTranslations, 1u);
    EXPECT_EQ(counts.staticInsnsBbt, 10u);
    EXPECT_EQ(counts.sbtTranslations, 1u);
    EXPECT_EQ(counts.staticInsnsSbt, 20u); // whole region
    EXPECT_EQ(counts.insnsCold, 0u);
    EXPECT_EQ(counts.insnsBbt, 20u);
    EXPECT_EQ(counts.insnsSbt, 20u);
    EXPECT_EQ(counts.totalInsns(), 40u);

    // Both consumers saw the same stream.
    u64 rec_insns = 0;
    for (const engine::StageEvent &e : rec.events)
        if (!e.instant && e.stage != TracePhase::BbtTranslate &&
            e.stage != TracePhase::SbtOptimize)
            rec_insns += e.insns;
    EXPECT_EQ(rec_insns, counts.totalInsns());
    EXPECT_EQ(rec.count(TracePhase::BbtTranslate), 1u);
    EXPECT_EQ(rec.count(TracePhase::SbtOptimize), 1u);
    EXPECT_EQ(rec.count(TracePhase::Dispatch), 1u);

    // Translated stages carry a code-cache image.
    for (const engine::StageEvent &e : rec.events) {
        if (e.stage == TracePhase::BbtExec ||
            e.stage == TracePhase::SbtExec) {
            EXPECT_NE(e.codeAddr, 0u);
            EXPECT_GT(e.codeBytes, 0u);
        }
    }
}

TEST(StagedPipeline, ColdOnlyMachineNeverTranslates)
{
    std::vector<workload::BlockInfo> blocks(1);
    blocks[0] = {0x1000, 8, 24, 0};

    engine::StagedParams p;
    p.translateCold = false;
    p.hasSbt = false;

    engine::EventStream events;
    engine::StageCounter counts;
    events.attach(&counts);
    engine::StagedPipeline pipe(blocks, p, events);
    for (int i = 0; i < 5; ++i)
        pipe.touch(0);

    EXPECT_EQ(counts.bbtTranslations, 0u);
    EXPECT_EQ(counts.sbtTranslations, 0u);
    EXPECT_EQ(counts.insnsCold, 40u);
    EXPECT_EQ(counts.insnsBbt, 0u);
}

TEST(EngineProfile, BranchProfileIsBounded)
{
    engine::BranchProfile prof(4);
    for (Addr pc = 0x100; pc < 0x100 + 16; ++pc)
        prof.record(pc, true);
    EXPECT_LE(prof.size(), 4u);
    EXPECT_EQ(prof.capacity(), 4u);
    EXPECT_EQ(prof.evictions(), 12u);
}

TEST(EngineProfile, BoundedSetEvictsOnFull)
{
    engine::BoundedAddrSet set(4);
    for (Addr pc = 0x100; pc < 0x100 + 10; ++pc)
        set.insert(pc);
    EXPECT_LE(set.size(), 4u);
    EXPECT_EQ(set.evictions(), 6u);
    // The most recent insert always sticks.
    EXPECT_TRUE(set.contains(0x109));
}

} // namespace
} // namespace cdvm

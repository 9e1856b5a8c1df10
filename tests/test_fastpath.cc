/**
 * @file
 * Host fast-path tests: the flat translation table (tortured against a
 * std::unordered_map oracle), the dispatch lookaside cache's epoch
 * invalidation, the decoded-instruction cache's coherence with guest
 * code writes, the guest page cache in front of Memory's page map, and
 * flat-table dispatch under a real Vmm against pinned staging counts.
 */

#include <array>
#include <cstring>
#include <random>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/statreg.hh"
#include "dbt/lookup.hh"
#include "helpers.hh"
#include "x86/decode_cache.hh"

namespace cdvm
{
namespace
{

using namespace cdvm::x86;

std::unique_ptr<dbt::Translation>
makeTrans(Addr pc, dbt::TransKind kind)
{
    auto t = std::make_unique<dbt::Translation>();
    t->entryPc = pc;
    t->kind = kind;
    return t;
}

// --- decode cache ----------------------------------------------------

TEST(DecodeCache, HitsAfterFirstFetch)
{
    Memory mem;
    Assembler as(0x1000);
    as.movRI(EAX, 1);
    as.hlt();
    mem.writeBlock(0x1000, as.finalize());

    DecodeCache dc(64);
    const DecodeResult &a = dc.fetchDecode(mem, 0x1000);
    ASSERT_TRUE(a.ok);
    EXPECT_EQ(dc.misses(), 1u);
    const DecodeResult &b = dc.fetchDecode(mem, 0x1000);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(dc.hits(), 1u);
    EXPECT_EQ(b.insn.length, a.insn.length);
}

TEST(DecodeCache, CodeWriteInvalidates)
{
    Memory mem;
    Assembler as(0x1000);
    as.movRI(EAX, 0x11111111);
    as.hlt();
    mem.writeBlock(0x1000, as.finalize());

    DecodeCache dc(64);
    ASSERT_TRUE(dc.fetchDecode(mem, 0x1000).ok);
    ASSERT_TRUE(dc.fetchDecode(mem, 0x1000).ok); // cached
    EXPECT_EQ(dc.hits(), 1u);
    const u64 ver = mem.codeVersion();

    // Rewrite the mov's immediate in place: same page the cache
    // fetched through, so the write must bump the code version and
    // the next fetch must re-decode the new bytes.
    Assembler as2(0x1000);
    as2.movRI(EAX, 0x22222222);
    as2.hlt();
    mem.writeBlock(0x1000, as2.finalize());
    EXPECT_GT(mem.codeVersion(), ver);

    const DecodeResult &dr = dc.fetchDecode(mem, 0x1000);
    ASSERT_TRUE(dr.ok);
    ASSERT_TRUE(dr.insn.src.isImm());
    EXPECT_EQ(dr.insn.src.imm, 0x22222222);
    EXPECT_EQ(dc.misses(), 2u);
}

TEST(DecodeCache, DataWritesDoNotInvalidate)
{
    Memory mem;
    Assembler as(0x1000);
    as.movRI(EAX, 1);
    as.hlt();
    mem.writeBlock(0x1000, as.finalize());

    DecodeCache dc(64);
    ASSERT_TRUE(dc.fetchDecode(mem, 0x1000).ok);
    const u64 ver = mem.codeVersion();

    // Heavy store traffic to a pure data page: the common case that
    // must NOT flush cached decodes.
    for (u32 i = 0; i < 256; ++i)
        mem.write32(0x00800000 + 4 * i, i);
    EXPECT_EQ(mem.codeVersion(), ver);
    ASSERT_TRUE(dc.fetchDecode(mem, 0x1000).ok);
    EXPECT_EQ(dc.hits(), 1u);
    EXPECT_EQ(dc.misses(), 1u);
}

TEST(DecodeCache, FetchThroughHoleIsUncacheable)
{
    Memory mem;
    // A one-byte hlt at the very last byte of an otherwise untouched
    // page: the decoder's fetch window spills into the next,
    // unallocated page. That hole can't be marked as a code page, so
    // the decode must not be cached (a later write materializing the
    // page would not bump the code version).
    const Addr pc = 0x5000 + Memory::PAGE_SIZE - 1;
    mem.write8(pc, 0xF4); // hlt
    DecodeCache dc(64);
    ASSERT_TRUE(dc.fetchDecode(mem, pc).ok);
    ASSERT_TRUE(dc.fetchDecode(mem, pc).ok);
    EXPECT_EQ(dc.hits(), 0u);
    EXPECT_EQ(dc.misses(), 2u);

    // Materialize the next page; the window is now hole-free and the
    // decode becomes cacheable again.
    mem.write8(pc + 1, 0x90);
    ASSERT_TRUE(dc.fetchDecode(mem, pc).ok);
    ASSERT_TRUE(dc.fetchDecode(mem, pc).ok);
    EXPECT_EQ(dc.hits(), 1u);
}

TEST(DecodeCache, InterpreterSeesCodeRewrite)
{
    // End-to-end: an interpreter running through the decode cache must
    // execute rewritten code, not a stale cached decode.
    Memory mem;
    Assembler as(0x1000);
    as.movRI(EAX, 7);
    as.hlt();
    mem.writeBlock(0x1000, as.finalize());

    DecodeCache dc(256);
    CpuState cpu;
    cpu.eip = 0x1000;
    {
        Interpreter interp(cpu, mem, &dc);
        EXPECT_EQ(interp.run(100), Exit::Halted);
    }
    EXPECT_EQ(cpu.regs[EAX], 7u);

    Assembler as2(0x1000);
    as2.movRI(EAX, 9);
    as2.hlt();
    mem.writeBlock(0x1000, as2.finalize());

    cpu = CpuState{};
    cpu.eip = 0x1000;
    {
        Interpreter interp(cpu, mem, &dc);
        EXPECT_EQ(interp.run(100), Exit::Halted);
    }
    EXPECT_EQ(cpu.regs[EAX], 9u);
}

// --- guest page cache --------------------------------------------------

// Two pages this far apart share a line in any direct-mapped page
// cache of up to 64 K lines.
constexpr Addr ALIAS_STRIDE = Addr{1} << 28;

TEST(PageCache, HoleReadsZeroThenSeesTheWrite)
{
    Memory mem;
    const Addr a = 0x00400000;
    // Warm a line with a real page, then read a hole that maps to the
    // same line: the hole must read zero and must not be cached.
    mem.write32(a, 0x11223344);
    EXPECT_EQ(mem.read32(a + ALIAS_STRIDE), 0u);
    EXPECT_EQ(mem.read16(a + ALIAS_STRIDE + 2), 0u);
    EXPECT_EQ(mem.read8(a + ALIAS_STRIDE + 7), 0u);
    EXPECT_EQ(mem.numPages(), 1u);

    mem.write32(a + ALIAS_STRIDE, 0xcafef00d);
    EXPECT_EQ(mem.read32(a + ALIAS_STRIDE), 0xcafef00du);
    EXPECT_EQ(mem.read32(a), 0x11223344u);
    EXPECT_EQ(mem.read32(a + ALIAS_STRIDE), 0xcafef00du);
    EXPECT_EQ(mem.numPages(), 2u);

    // A hole read first, then written through write8 alone.
    const Addr b = 0x00900000;
    EXPECT_EQ(mem.read8(b), 0u);
    mem.write8(b, 0x5a);
    EXPECT_EQ(mem.read8(b), 0x5au);
}

TEST(PageCache, CachedCodePageWritesBumpCodeVersion)
{
    Memory mem;
    const Addr code = 0x1000;
    Assembler as(code);
    as.movRI(EAX, 1);
    as.hlt();
    mem.writeBlock(code, as.finalize());
    // Warm the line through the write path, then mark the page as
    // code: the cached line and the fetch path must share one page.
    mem.write32(code + 0x100, 0);
    u8 window[16];
    ASSERT_TRUE(mem.fetchCode(code, window, sizeof(window)));

    u64 ver = mem.codeVersion();
    mem.write8(code + 0x200, 1);
    EXPECT_GT(mem.codeVersion(), ver);
    ver = mem.codeVersion();
    mem.write16(code + 0x202, 2);
    EXPECT_GT(mem.codeVersion(), ver);
    ver = mem.codeVersion();
    mem.write32(code + 0x204, 3);
    EXPECT_GT(mem.codeVersion(), ver);

    // A data page sharing the code page's line does not bump it.
    ver = mem.codeVersion();
    mem.write32(code + ALIAS_STRIDE, 4);
    EXPECT_EQ(mem.codeVersion(), ver);
    mem.write32(code + 0x208, 5); // back to the code page
    EXPECT_GT(mem.codeVersion(), ver);

    // The DecodeCache contract end to end: a cached decode is dropped.
    DecodeCache dc(64);
    ASSERT_TRUE(dc.fetchDecode(mem, code).ok);
    ASSERT_TRUE(dc.fetchDecode(mem, code).ok);
    Assembler as2(code);
    as2.movRI(EAX, 0x77);
    std::vector<u8> patch = as2.finalize();
    u32 imm;
    std::memcpy(&imm, patch.data() + 1, 4);
    mem.write32(code + 1, imm);
    const DecodeResult &dr = dc.fetchDecode(mem, code);
    ASSERT_TRUE(dr.ok);
    EXPECT_EQ(dr.insn.src.imm, 0x77);
}

TEST(PageCache, AccessesStraddlingAPageBoundary)
{
    const Addr edge = 0x00600000; // start of the second page
    for (Addr back = 1; back <= 3; ++back) {
        // Both pages allocated.
        Memory mem;
        mem.write8(edge - 8, 0);
        mem.write8(edge + 8, 0);
        mem.write32(edge - back, 0xa1b2c3d4);
        EXPECT_EQ(mem.read32(edge - back), 0xa1b2c3d4u) << back;
        mem.write16(edge - 1, 0xbeef);
        EXPECT_EQ(mem.read16(edge - 1), 0xbeefu);
        EXPECT_EQ(mem.read8(edge - 1), 0xefu);
        EXPECT_EQ(mem.read8(edge), 0xbeu);

        // The second page is a hole: reads see zero high bytes, and a
        // straddling write creates it.
        Memory holes;
        holes.write8(edge - 8, 0);
        holes.write32(edge - 4, 0x01020304);
        EXPECT_EQ(holes.read32(edge - back),
                  0x01020304u >> (8 * (4 - back))) << back;
        EXPECT_EQ(holes.read16(edge - 1), 0x01u);
        holes.write16(edge - 1, 0x5566);
        EXPECT_EQ(holes.numPages(), 2u);
        EXPECT_EQ(holes.read16(edge - 1), 0x5566u);
        holes.write32(edge + Memory::PAGE_SIZE - back, 0x99887766);
        EXPECT_EQ(holes.numPages(), 3u);
        EXPECT_EQ(holes.read32(edge + Memory::PAGE_SIZE - back),
                  0x99887766u) << back;
        EXPECT_EQ(holes.bytesWritten(), 1u + 4u + 2u + 4u);
    }
}

TEST(PageCache, CopiesKeepTheirWritesApart)
{
    Memory src;
    src.write32(0x2000, 1);
    src.write32(0x3000, 2);
    EXPECT_EQ(src.read32(0x2000), 1u); // warm the cache

    Memory copy(src);
    EXPECT_EQ(copy.read32(0x2000), 1u); // warm the copy's cache
    copy.write32(0x2000, 10);
    src.write32(0x3000, 20);
    EXPECT_EQ(src.read32(0x2000), 1u);
    EXPECT_EQ(copy.read32(0x3000), 2u);
    EXPECT_EQ(copy.read32(0x2000), 10u);
    EXPECT_EQ(src.read32(0x3000), 20u);

    Memory assigned;
    assigned.write32(0x2000, 99);
    EXPECT_EQ(assigned.read32(0x2000), 99u); // warm before assignment
    assigned = src;
    EXPECT_EQ(assigned.read32(0x2000), 1u);
    assigned.write32(0x2000, 30);
    src.write32(0x2000, 40);
    EXPECT_EQ(assigned.read32(0x2000), 30u);
    EXPECT_EQ(src.read32(0x2000), 40u);
    EXPECT_EQ(assigned.read32(0x3000), 20u);
    EXPECT_EQ(copy.read32(0x2000), 10u);
}

TEST(PageCache, MoveLeavesTheSourceEmpty)
{
    Memory src;
    src.write32(0x2000, 7);
    EXPECT_EQ(src.read32(0x2000), 7u);
    Memory moved(std::move(src));
    EXPECT_EQ(moved.read32(0x2000), 7u);
    EXPECT_EQ(src.numPages(), 0u);
    EXPECT_EQ(src.read32(0x2000), 0u);
    src.write32(0x2000, 8);
    EXPECT_EQ(moved.read32(0x2000), 7u);

    Memory target;
    target.write32(0x2000, 9);
    EXPECT_EQ(target.read32(0x2000), 9u);
    target = std::move(moved);
    EXPECT_EQ(target.read32(0x2000), 7u);
    EXPECT_EQ(moved.read32(0x2000), 0u);
}

// --- dispatch lookaside ----------------------------------------------

TEST(Lookaside, NegativeCachingAndInstallRefresh)
{
    dbt::TranslationMap map(
        dbt::TranslationMap::Config{64, 16});
    // Two misses on the same pc: the second is served by the
    // lookaside's negative entry but still counts as a lookup miss.
    EXPECT_EQ(map.lookup(0x100), nullptr);
    EXPECT_EQ(map.lookup(0x100), nullptr);
    EXPECT_EQ(map.lookups(), 2u);
    EXPECT_EQ(map.lookupMisses(), 2u);
    EXPECT_GE(map.lookasideHits(), 1u);

    // Installing at that pc must refresh the line: the negative entry
    // may not shadow the new translation.
    dbt::Translation *t =
        map.insert(makeTrans(0x100, dbt::TransKind::BasicBlock));
    EXPECT_EQ(map.lookup(0x100), t);
}

TEST(Lookaside, EpochInvalidationOnFlush)
{
    dbt::TranslationMap map(
        dbt::TranslationMap::Config{64, 16});
    dbt::Translation *bb =
        map.insert(makeTrans(0x100, dbt::TransKind::BasicBlock));
    EXPECT_EQ(map.lookup(0x100), bb);
    EXPECT_EQ(map.lookup(0x100), bb); // lookaside-served
    EXPECT_GE(map.lookasideHits(), 1u);
    const u64 e0 = map.flushEpoch();

    // eraseKind bumps the epoch: every lookaside line filled before
    // the flush is stale by construction, so the dangling pointer in
    // it can never be returned.
    map.eraseKind(dbt::TransKind::BasicBlock);
    EXPECT_GT(map.flushEpoch(), e0);
    EXPECT_EQ(map.lookup(0x100), nullptr);

    dbt::Translation *sb =
        map.insert(makeTrans(0x100, dbt::TransKind::Superblock));
    EXPECT_EQ(map.lookup(0x100), sb);
    map.clear();
    EXPECT_GT(map.flushEpoch(), e0 + 1);
    EXPECT_EQ(map.lookup(0x100), nullptr);
    EXPECT_EQ(map.size(), 0u);
}

TEST(TranslationMap, OverwriteKeepsOldAliveUntilFlush)
{
    dbt::TranslationMap map;
    dbt::Translation *oldt =
        map.insert(makeTrans(0x100, dbt::TransKind::BasicBlock));
    dbt::Translation *other =
        map.insert(makeTrans(0x200, dbt::TransKind::BasicBlock));
    EXPECT_TRUE(other->addChain(0x100, oldt->id));
    const dbt::TransId old_id = oldt->id;

    dbt::Translation *newt =
        map.insert(makeTrans(0x100, dbt::TransKind::BasicBlock));
    EXPECT_EQ(map.overwrites(), 1u);
    EXPECT_EQ(map.numBasicBlocks(), 2u); // live count, not arena size
    EXPECT_EQ(map.lookup(0x100), newt);
    // The overwritten translation is unreachable through the table but
    // still owned by the arena: the chain handle into it keeps
    // resolving until the kind is flushed.
    EXPECT_EQ(map.resolve(other->chainedTo(0x100)), oldt);
    EXPECT_EQ(oldt->entryPc, 0x100u);

    map.eraseKind(dbt::TransKind::BasicBlock);
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.overwrites(), 1u);
    EXPECT_EQ(map.resolve(old_id), nullptr);
}

TEST(TranslationMap, StatsExportIncludesLookaside)
{
    dbt::TranslationMap map;
    map.insert(makeTrans(0x100, dbt::TransKind::BasicBlock));
    map.lookup(0x100);
    map.lookup(0x100);
    map.lookup(0x999);
    StatRegistry reg;
    map.exportStats(reg, "t");
    EXPECT_TRUE(reg.has("t.lookups"));
    EXPECT_TRUE(reg.has("t.misses"));
    EXPECT_TRUE(reg.has("t.overwrites"));
    EXPECT_TRUE(reg.has("t.lookaside.hit_rate"));
    EXPECT_TRUE(reg.has("t.flush_epoch"));
}

// --- flat table vs oracle --------------------------------------------

TEST(FlatTableTorture, MatchesUnorderedMapOracle)
{
    // Random interleaving of insert / lookup / eraseKind / clear /
    // reserve against a trivially-correct oracle. PCs are
    // collision-heavy on purpose: identical low bits (the part a
    // naive mask-indexed table would key on) with entropy only in
    // the high bits, plus a small pool so overwrites are frequent.
    dbt::TranslationMap map(
        dbt::TranslationMap::Config{16, 32});
    std::unordered_map<Addr, std::array<bool, 2>> oracle;

    std::mt19937_64 rng(20260807);
    auto randPc = [&rng]() -> Addr {
        return 0x00400000u + (static_cast<Addr>(rng() % 509) << 20);
    };

    auto checkLookup = [&](Addr pc) {
        const auto it = oracle.find(pc);
        const bool bb = it != oracle.end() && it->second[0];
        const bool sb = it != oracle.end() && it->second[1];
        dbt::Translation *got = map.lookup(pc);
        if (!bb && !sb) {
            ASSERT_EQ(got, nullptr) << "pc 0x" << std::hex << pc;
            return;
        }
        ASSERT_NE(got, nullptr) << "pc 0x" << std::hex << pc;
        ASSERT_EQ(got->entryPc, pc);
        // SBT-preferred resolution.
        ASSERT_EQ(got->kind, sb ? dbt::TransKind::Superblock
                                : dbt::TransKind::BasicBlock);
        ASSERT_EQ(map.lookup(pc, dbt::TransKind::BasicBlock) != nullptr,
                  bb);
        ASSERT_EQ(map.lookup(pc, dbt::TransKind::Superblock) != nullptr,
                  sb);
    };

    for (int op = 0; op < 60000; ++op) {
        const u64 roll = rng() % 1000;
        if (roll < 450) { // insert
            const Addr pc = randPc();
            const dbt::TransKind kind = (rng() & 1)
                                            ? dbt::TransKind::Superblock
                                            : dbt::TransKind::BasicBlock;
            dbt::Translation *t = map.insert(makeTrans(pc, kind));
            ASSERT_NE(t, nullptr);
            ASSERT_EQ(t->entryPc, pc);
            oracle[pc][kind == dbt::TransKind::Superblock ? 1 : 0] =
                true;
        } else if (roll < 980) { // lookup
            checkLookup(randPc());
        } else if (roll < 994) { // eraseKind
            const unsigned k = rng() & 1;
            map.eraseKind(k ? dbt::TransKind::Superblock
                            : dbt::TransKind::BasicBlock);
            for (auto it = oracle.begin(); it != oracle.end();) {
                it->second[k] = false;
                if (!it->second[0] && !it->second[1])
                    it = oracle.erase(it);
                else
                    ++it;
            }
        } else if (roll < 998) { // clear
            map.clear();
            oracle.clear();
        } else { // reserve mid-stream must not lose entries
            map.reserve(1024);
        }

        if (op % 997 == 0) {
            std::size_t bb = 0, sb = 0;
            for (const auto &[pc, kinds] : oracle) {
                bb += kinds[0];
                sb += kinds[1];
            }
            ASSERT_EQ(map.numBasicBlocks(), bb) << "op " << op;
            ASSERT_EQ(map.numSuperblocks(), sb) << "op " << op;
        }
    }

    // Full final sweep over every pc the stream ever touched.
    for (Addr base = 0; base < 509; ++base)
        checkLookup(0x00400000u + (base << 20));
    // forEach visits exactly the live set.
    std::size_t visited = 0;
    map.forEach([&](const dbt::Translation &t) {
        ++visited;
        const auto it = oracle.find(t.entryPc);
        ASSERT_NE(it, oracle.end());
        ASSERT_TRUE(
            it->second[t.kind == dbt::TransKind::Superblock ? 1 : 0]);
    });
    EXPECT_EQ(visited, map.size());
}

// --- flat-table dispatch under a real Vmm ----------------------------

TEST(FlatDispatch, IdenticalOutcomeAndPinnedStaging)
{
    // The lookup table and its lookaside are host-side structures:
    // architected state must match the interpreter, and the staging
    // decisions must match the counts pinned below (measured when the
    // two-map dispatch still existed and agreed with the flat table on
    // every one). A tiny BBT cache forces flush/retranslate cycles so
    // the epoch invalidation and table rebuild paths run too.
    struct Pinned
    {
        u64 seed, cacheKb, retired, bbt, sbt, flushes, dispatches,
            chainFollows;
    };
    const Pinned pins[] = {
        {1, 256, 1187653, 39, 31, 0, 78, 25313},
        {1, 2, 1187653, 55, 31, 1, 94, 25370},
        {7, 256, 3792688, 37, 31, 0, 1652, 59928},
        {7, 2, 3792688, 47, 31, 1, 413, 61196},
        {42, 256, 667168, 33, 27, 0, 2148, 13587},
        {42, 2, 667168, 52, 27, 1, 1746, 14065},
    };
    for (const Pinned &p : pins) {
        workload::ProgramParams pp;
        pp.seed = p.seed;
        pp.numFuncs = 4;
        pp.blocksPerFunc = 4;
        pp.mainIterations = 40;
        workload::Program prog = workload::generateProgram(pp);

        x86::Memory ref_mem;
        test::RunResult ref = test::runInterp(prog, ref_mem);
        ASSERT_EQ(ref.exit, Exit::Halted) << "seed " << p.seed;

        vmm::VmmConfig cfg;
        cfg.hotThreshold = 30;
        cfg.bbtCacheBytes = p.cacheKb * 1024;
        x86::Memory mem;
        vmm::VmmStats st;
        test::RunResult r = test::runVmm(prog, mem, cfg, &st);

        const std::string at = "seed " + std::to_string(p.seed) +
                               " cache " + std::to_string(p.cacheKb);
        EXPECT_TRUE(test::sameOutcome(prog, ref, ref_mem, r, mem)) << at;
        // Staging decisions, not just final state.
        EXPECT_EQ(st.totalRetired(), p.retired) << at;
        EXPECT_EQ(st.bbtTranslations, p.bbt) << at;
        EXPECT_EQ(st.sbtTranslations, p.sbt) << at;
        EXPECT_EQ(st.bbtCacheFlushes, p.flushes) << at;
        EXPECT_EQ(st.dispatches, p.dispatches) << at;
        EXPECT_EQ(st.chainFollows, p.chainFollows) << at;
    }
}

TEST(FlatDispatch, FlushesBumpEpochUnderVmm)
{
    workload::ProgramParams pp;
    pp.seed = 3;
    pp.numFuncs = 5;
    pp.blocksPerFunc = 5;
    pp.mainIterations = 50;
    workload::Program prog = workload::generateProgram(pp);

    x86::Memory mem;
    prog.loadInto(mem);
    x86::CpuState cpu = prog.initialState();
    vmm::VmmConfig cfg;
    cfg.hotThreshold = 30;
    cfg.bbtCacheBytes = 2 * 1024; // force flushes
    vmm::Vmm vm(mem, cfg);
    ASSERT_EQ(vm.run(cpu, 10'000'000), Exit::Halted);
    ASSERT_GT(vm.stats().bbtCacheFlushes, 0u);
    // Every code-cache flush must have advanced the lookaside epoch.
    EXPECT_GT(vm.translations().flushEpoch(),
              vm.stats().bbtCacheFlushes);
}

} // namespace
} // namespace cdvm

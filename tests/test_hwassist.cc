/**
 * @file
 * Hardware-assist tests: the XLTx86 functional unit (vs the software
 * cracker, property-style), the CSR format, the HAloop functional
 * behaviour and cost, the BBB hotspot detector, and the dual-mode
 * decoder model.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "hwassist/bbb.hh"
#include "x86/asm.hh"
#include "hwassist/dualmode.hh"
#include "hwassist/haloop.hh"
#include "hwassist/xlt.hh"
#include "uops/crack.hh"
#include "uops/csr.hh"
#include "uops/encoding.hh"
#include "workload/program_gen.hh"
#include "x86/decoder.hh"

namespace cdvm
{
namespace
{

TEST(Csr, FieldRoundTrip)
{
    u32 c = uops::csr::make(11, 14, false, false);
    EXPECT_EQ(uops::csr::ilen(c), 11u);
    EXPECT_EQ(uops::csr::uopBytes(c), 14u);
    EXPECT_FALSE(uops::csr::isComplex(c));
    EXPECT_FALSE(uops::csr::isCti(c));

    c = uops::csr::make(1, 0, true, false);
    EXPECT_TRUE(uops::csr::isComplex(c));
    c = uops::csr::make(5, 0, false, true);
    EXPECT_TRUE(uops::csr::isCti(c));
}

TEST(Xlt, MatchesSoftwareCracker)
{
    // Property: for every decodable non-CTI, non-complex instruction in
    // a generated program, XLTx86 emits exactly the encoded bytes the
    // software cracker would.
    workload::ProgramParams pp;
    pp.seed = 31;
    workload::Program prog = workload::generateProgram(pp);
    hwassist::XltUnit xlt;
    unsigned checked = 0;

    std::size_t pos = 0;
    while (pos + 16 < prog.image.size()) {
        u8 src[16];
        std::memcpy(src, prog.image.data() + pos, 16);
        u8 dst[16];
        u32 csr = xlt.translate(src, dst);

        x86::DecodeResult dr = x86::decode(
            std::span<const u8>(src, 16), /*pc=*/0);
        if (!dr.ok) {
            EXPECT_TRUE(uops::csr::isComplex(csr));
            ++pos;
            continue;
        }
        EXPECT_EQ(uops::csr::ilen(csr), dr.insn.length);
        if (dr.insn.isCti()) {
            EXPECT_TRUE(uops::csr::isCti(csr));
        } else if (!uops::csr::isComplex(csr)) {
            uops::CrackResult cr = uops::crack(dr.insn);
            std::vector<u8> sw = uops::encode(cr.uops);
            ASSERT_LE(sw.size(), 16u);
            EXPECT_EQ(uops::csr::uopBytes(csr), sw.size());
            if (!sw.empty()) {
                EXPECT_EQ(std::memcmp(dst, sw.data(), sw.size()), 0);
            }
            ++checked;
        }
        pos += dr.insn.length;
    }
    EXPECT_GT(checked, 100u);
    EXPECT_GT(xlt.invocations(), checked);
}

TEST(Xlt, FlagsComplexCases)
{
    hwassist::XltUnit xlt;
    u8 dst[16];
    const u8 div[16] = {0xf7, 0xf1}; // div ecx
    EXPECT_TRUE(uops::csr::isComplex(xlt.translate(div, dst)));
    const u8 cpuid[16] = {0x0f, 0xa2};
    EXPECT_TRUE(uops::csr::isComplex(xlt.translate(cpuid, dst)));
    const u8 bad[16] = {0x0f, 0x0b}; // UD2
    EXPECT_TRUE(uops::csr::isComplex(xlt.translate(bad, dst)));
    const u8 jmp[16] = {0xeb, 0x02};
    u32 c = xlt.translate(jmp, dst);
    EXPECT_TRUE(uops::csr::isCti(c));
    EXPECT_FALSE(uops::csr::isComplex(c));
    EXPECT_EQ(xlt.complexCases(), 3u);
    EXPECT_EQ(xlt.ctiCases(), 1u);
}

TEST(HaLoop, TranslatesStraightLineCode)
{
    x86::Memory mem;
    x86::Assembler as(0x2000);
    as.movRI(x86::EAX, 3);
    as.aluRI(x86::Op::Add, x86::EAX, 4);
    as.movRR(x86::EDX, x86::EAX);
    as.ret();
    mem.writeBlock(0x2000, as.finalize());

    hwassist::XltUnit xlt;
    x86::Memory code_cache;
    hwassist::HaLoop loop(mem, code_cache, xlt);
    auto r = loop.run(0x2000, 0xe0000000, 64);

    EXPECT_EQ(r.insnsTranslated, 3u);
    EXPECT_TRUE(r.stoppedCti); // the RET
    EXPECT_FALSE(r.stoppedComplex);
    EXPECT_GT(r.bytesEmitted, 0u);
    // STF wrote the concealed code cache, not guest memory.
    EXPECT_EQ(mem.read32(0xe0000000), 0u);

    // The emitted code-cache bytes decode back to the same micro-ops
    // the software BBT would produce for the straight-line body.
    std::vector<u8> cc = code_cache.readBlock(0xe0000000, r.bytesEmitted);
    uops::UopVec decoded;
    ASSERT_TRUE(uops::decodeAll(
        std::span<const u8>(cc.data(), cc.size()), decoded));
    EXPECT_GE(decoded.size(), 3u);
}

TEST(HaLoop, CostNearPaperTwentyCycles)
{
    workload::ProgramParams pp;
    pp.seed = 17;
    workload::Program prog = workload::generateProgram(pp);
    x86::Memory mem;
    prog.loadInto(mem);
    hwassist::XltUnit xlt;
    x86::Memory code_cache;
    hwassist::HaLoop loop(mem, code_cache, xlt);
    Addr pc = prog.codeBase;
    Addr cc = 0xe0000000;
    while (pc < prog.codeBase + prog.image.size()) {
        auto r = loop.run(pc, cc, 64);
        cc += r.bytesEmitted;
        u8 win[x86::MAX_INSN_LEN + 1];
        mem.fetchWindow(r.stoppedAt, win, sizeof(win));
        unsigned len = x86::insnLength(
            std::span<const u8>(win, sizeof(win)), r.stoppedAt);
        pc = r.stoppedAt + (len ? len : 1);
    }
    // Paper: ~20 cycles per x86 instruction for the assisted BBT.
    EXPECT_GT(loop.measuredCyclesPerInsn(), 10.0);
    EXPECT_LT(loop.measuredCyclesPerInsn(), 25.0);
}

TEST(HaLoop, StopsAtComplex)
{
    x86::Memory mem;
    x86::Assembler as(0x2000);
    as.movRI(x86::ECX, 3);
    as.divA(x86::ECX); // complex
    as.ret();
    mem.writeBlock(0x2000, as.finalize());
    hwassist::XltUnit xlt;
    x86::Memory code_cache;
    hwassist::HaLoop loop(mem, code_cache, xlt);
    auto r = loop.run(0x2000, 0xe0000000, 64);
    EXPECT_EQ(r.insnsTranslated, 1u);
    EXPECT_TRUE(r.stoppedComplex);
    EXPECT_EQ(r.stoppedAt, 0x2005u); // after the mov
}

TEST(Bbb, DetectsHotTargetsOnce)
{
    hwassist::BbbParams p;
    p.hotThreshold = 100;
    hwassist::BranchBehaviorBuffer bbb(p);
    for (int i = 0; i < 99; ++i)
        EXPECT_FALSE(bbb.recordBranch(0x4000));
    EXPECT_TRUE(bbb.recordBranch(0x4000));
    EXPECT_FALSE(bbb.recordBranch(0x4000)); // reported only once
    EXPECT_EQ(bbb.detections(), 1u);
}

TEST(Bbb, BulkCounting)
{
    hwassist::BbbParams p;
    p.hotThreshold = 1000;
    hwassist::BranchBehaviorBuffer bbb(p);
    EXPECT_FALSE(bbb.recordBranch(0x4000, 999));
    EXPECT_TRUE(bbb.recordBranch(0x4000, 1));
}

TEST(Bbb, ConflictsEvict)
{
    hwassist::BbbParams p;
    p.entries = 16; // tiny: force conflicts
    p.hotThreshold = 10;
    hwassist::BranchBehaviorBuffer bbb(p);
    Pcg32 rng(1);
    for (int i = 0; i < 10000; ++i)
        bbb.recordBranch(rng.next() & 0xffff);
    EXPECT_GT(bbb.tagConflicts(), 0u);
    bbb.reset();
    EXPECT_FALSE(bbb.recordBranch(0x4000, 9));
}

TEST(DualMode, DecodeMatchesCracker)
{
    x86::Memory mem;
    x86::Assembler as(0x3000);
    as.aluRR(x86::Op::Add, x86::EAX, x86::EDX);
    mem.writeBlock(0x3000, as.finalize());

    hwassist::DualModeDecoder dm(mem);
    hwassist::DualModeDecoder::Decoded out;
    ASSERT_TRUE(dm.decodeAt(0x3000, out));
    EXPECT_EQ(out.insn.op, x86::Op::Add);
    ASSERT_EQ(out.uops.size(), 1u);
    EXPECT_EQ(out.uops[0].op, uops::UOp::Add);
    EXPECT_EQ(dm.insnsDecoded(), 1u);
}

TEST(DualMode, ModeSwitchingAndActivity)
{
    x86::Memory mem;
    hwassist::DualModeDecoder dm(mem);
    EXPECT_EQ(dm.mode(), hwassist::DecodeMode::X86);
    dm.tick(100);
    dm.setMode(hwassist::DecodeMode::Native);
    dm.tick(50);
    dm.setMode(hwassist::DecodeMode::Native); // no-op
    dm.setMode(hwassist::DecodeMode::X86);
    dm.tick(25);
    EXPECT_EQ(dm.x86ModeCycles(), 125u);
    EXPECT_EQ(dm.nativeModeCycles(), 50u);
    EXPECT_EQ(dm.modeSwitches(), 2u);
}

} // namespace
} // namespace cdvm

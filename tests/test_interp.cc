/** @file Interpreter semantics: flags, partial registers, stack ops. */

#include <bit>
#include <random>

#include <gtest/gtest.h>

#include "helpers.hh"
#include "x86/asm.hh"
#include "x86/flags.hh"
#include "x86/interp.hh"

namespace cdvm::x86
{
namespace
{

struct Machine
{
    Memory mem;
    CpuState cpu;

    explicit Machine(Assembler &as)
    {
        std::vector<u8> img = as.finalize();
        mem.writeBlock(as.origin(), img);
        cpu.eip = static_cast<u32>(as.origin());
        cpu.regs[ESP] = 0x7fff0000;
    }

    Exit
    run()
    {
        Interpreter in(cpu, mem);
        return in.run(100000);
    }
};

TEST(Interp, AddCarryAndOverflow)
{
    Assembler as(0x1000);
    as.movRI(EAX, 0xffffffff);
    as.aluRI(Op::Add, EAX, 1);
    as.hlt();
    Machine m(as);
    EXPECT_EQ(m.run(), Exit::Halted);
    EXPECT_EQ(m.cpu.regs[EAX], 0u);
    EXPECT_TRUE(m.cpu.flag(FLAG_CF));
    EXPECT_TRUE(m.cpu.flag(FLAG_ZF));
    EXPECT_FALSE(m.cpu.flag(FLAG_OF));
    EXPECT_TRUE(m.cpu.flag(FLAG_AF));
}

TEST(Interp, SignedOverflow)
{
    Assembler as(0x1000);
    as.movRI(EAX, 0x7fffffff);
    as.aluRI(Op::Add, EAX, 1);
    as.hlt();
    Machine m(as);
    m.run();
    EXPECT_EQ(m.cpu.regs[EAX], 0x80000000u);
    EXPECT_TRUE(m.cpu.flag(FLAG_OF));
    EXPECT_TRUE(m.cpu.flag(FLAG_SF));
    EXPECT_FALSE(m.cpu.flag(FLAG_CF));
}

TEST(Interp, SubBorrowChain)
{
    Assembler as(0x1000);
    as.movRI(EAX, 0);
    as.movRI(EDX, 5);
    as.aluRI(Op::Sub, EAX, 1); // EAX=-1, CF=1
    as.aluRI(Op::Sbb, EDX, 0); // EDX=4
    as.hlt();
    Machine m(as);
    m.run();
    EXPECT_EQ(m.cpu.regs[EAX], 0xffffffffu);
    EXPECT_EQ(m.cpu.regs[EDX], 4u);
}

TEST(Interp, IncPreservesCarry)
{
    Assembler as(0x1000);
    as.stc();
    as.movRI(EAX, 7);
    as.inc(EAX);
    as.hlt();
    Machine m(as);
    m.run();
    EXPECT_EQ(m.cpu.regs[EAX], 8u);
    EXPECT_TRUE(m.cpu.flag(FLAG_CF));
}

TEST(Interp, HighByteRegisters)
{
    Assembler as(0x1000);
    as.movRI(EAX, 0x11223344);
    // mov ah, 0x99  (b4 99)
    as.db(0xb4);
    as.db(0x99);
    // add al, ah  (00 e0)
    as.db(0x00);
    as.db(0xe0);
    as.hlt();
    Machine m(as);
    m.run();
    // AL = 0x44 + 0x99 = 0xdd; AH = 0x99.
    EXPECT_EQ(m.cpu.regs[EAX], 0x112299ddu);
}

TEST(Interp, SixteenBitPreservesUpper)
{
    Assembler as(0x1000);
    as.movRI(EAX, 0xaaaa0001);
    as.movRI(ECX, 0x5555ffff);
    as.db(0x66); // add ax, cx
    as.aluRR(Op::Add, EAX, ECX);
    as.hlt();
    Machine m(as);
    m.run();
    EXPECT_EQ(m.cpu.regs[EAX], 0xaaaa0000u);
    EXPECT_TRUE(m.cpu.flag(FLAG_CF));
    EXPECT_TRUE(m.cpu.flag(FLAG_ZF));
}

TEST(Interp, PushPopCallRet)
{
    Assembler as(0x1000);
    auto fn = as.newLabel();
    auto over = as.newLabel();
    as.movRI(EAX, 1);
    as.call(fn);
    as.aluRI(Op::Add, EAX, 100);
    as.jmp(over);
    as.bind(fn);
    as.push(EAX);
    as.movRI(EAX, 42);
    as.pop(EDX); // EDX = 1
    as.ret();
    as.bind(over);
    as.hlt();
    Machine m(as);
    EXPECT_EQ(m.run(), Exit::Halted);
    EXPECT_EQ(m.cpu.regs[EAX], 142u);
    EXPECT_EQ(m.cpu.regs[EDX], 1u);
    EXPECT_EQ(m.cpu.regs[ESP], 0x7fff0000u); // balanced
}

TEST(Interp, MulWideAndDiv)
{
    Assembler as(0x1000);
    as.movRI(EAX, 0x10000);
    as.movRI(ECX, 0x10000);
    as.mulA(ECX); // EDX:EAX = 0x1_0000_0000
    as.hlt();
    Machine m(as);
    m.run();
    EXPECT_EQ(m.cpu.regs[EAX], 0u);
    EXPECT_EQ(m.cpu.regs[EDX], 1u);
    EXPECT_TRUE(m.cpu.flag(FLAG_CF));
    EXPECT_TRUE(m.cpu.flag(FLAG_OF));

    Assembler as2(0x1000);
    as2.movRI(EDX, 0);
    as2.movRI(EAX, 100);
    as2.movRI(ECX, 7);
    as2.divA(ECX);
    as2.hlt();
    Machine m2(as2);
    m2.run();
    EXPECT_EQ(m2.cpu.regs[EAX], 14u);
    EXPECT_EQ(m2.cpu.regs[EDX], 2u);
}

TEST(Interp, DivideByZeroTraps)
{
    Assembler as(0x1000);
    as.movRI(ECX, 0);
    as.divA(ECX);
    as.hlt();
    Machine m(as);
    EXPECT_EQ(m.run(), Exit::Trap);
}

TEST(Interp, IdivOverflowTraps)
{
    Assembler as(0x1000);
    as.movRI(EAX, 0x80000000); // EDX:EAX = INT_MIN (sign-extended)
    as.movRI(EDX, 0xffffffff);
    as.movRI(ECX, 0xffffffff); // -1
    as.idivA(ECX);             // INT_MIN / -1 overflows
    as.hlt();
    Machine m(as);
    EXPECT_EQ(m.run(), Exit::Trap);
}

TEST(Interp, ShiftFlagSemantics)
{
    Assembler as(0x1000);
    as.movRI(EAX, 0x80000001);
    as.shiftRI(Op::Shl, EAX, 1); // CF = old MSB
    as.hlt();
    Machine m(as);
    m.run();
    EXPECT_EQ(m.cpu.regs[EAX], 2u);
    EXPECT_TRUE(m.cpu.flag(FLAG_CF));

    Assembler as2(0x1000);
    as2.movRI(EAX, 0xf0000000);
    as2.shiftRI(Op::Sar, EAX, 4);
    as2.hlt();
    Machine m2(as2);
    m2.run();
    EXPECT_EQ(m2.cpu.regs[EAX], 0xff000000u);

    // Shift by zero leaves flags untouched.
    Assembler as3(0x1000);
    as3.stc();
    as3.movRI(ECX, 0); // CL = 0
    as3.movRI(EAX, 5);
    as3.shiftRCl(Op::Shl, EAX);
    as3.hlt();
    Machine m3(as3);
    m3.run();
    EXPECT_EQ(m3.cpu.regs[EAX], 5u);
    EXPECT_TRUE(m3.cpu.flag(FLAG_CF));
}

TEST(Interp, CondBranchMatrix)
{
    // For each cc, set flags via cmp and verify the branch agrees with
    // condTrue.
    struct Case
    {
        u32 a, b;
    };
    const Case cases[] = {{5, 5}, {3, 5}, {5, 3}, {0x80000000, 1},
                          {1, 0x80000000}, {0, 0}};
    for (const Case &c : cases) {
        for (unsigned cc = 0; cc < 16; ++cc) {
            Assembler as(0x1000);
            auto yes = as.newLabel();
            as.movRI(EAX, c.a);
            as.aluRI(Op::Cmp, EAX, static_cast<i32>(c.b));
            as.jcc(static_cast<Cond>(cc), yes);
            as.movRI(EDX, 0);
            as.hlt();
            as.bind(yes);
            as.movRI(EDX, 1);
            as.hlt();
            Machine m(as);
            m.run();

            CpuState ref;
            u32 junk;
            ref.eflags = flags::sub(c.a, c.b, 0, 4, junk);
            bool expect = condTrue(static_cast<Cond>(cc), ref.eflags);
            EXPECT_EQ(m.cpu.regs[EDX], expect ? 1u : 0u)
                << "cc=" << cc << " a=" << c.a << " b=" << c.b;
        }
    }
}

// --- flag helpers against a wide-arithmetic reference -------------------
//
// Each reference computes the result in 64-bit arithmetic and reads
// every flag off it directly, independently of how flags.hh derives
// them. The undefined cases (shift OF for counts above 1, counts at or
// past the operand width) follow the same formulas as the defined ones.

u32
mask(unsigned size)
{
    return size == 4 ? 0xffffffffu : (1u << (size * 8)) - 1;
}

i64
signedAt(u32 v, unsigned size)
{
    const unsigned n = size * 8;
    const i64 x = v & mask(size);
    return x >= (i64{1} << (n - 1)) ? x - (i64{1} << n) : x;
}

u32
refZsp(u32 r, unsigned size)
{
    u32 f = 0;
    if (r == 0)
        f |= FLAG_ZF;
    if (r >> (size * 8 - 1))
        f |= FLAG_SF;
    if (std::popcount(r & 0xff) % 2 == 0)
        f |= FLAG_PF;
    return f;
}

struct RefResult
{
    u32 result;
    u32 flags;
};

RefResult
refAddSub(bool is_sub, u32 a, u32 b, u32 c, unsigned size)
{
    a &= mask(size);
    b &= mask(size);
    const i64 lo = -(i64{1} << (size * 8 - 1));
    const i64 hi = (i64{1} << (size * 8 - 1)) - 1;
    const i64 wide = is_sub ? i64{a} - b - c : i64{a} + b + c;
    const i64 swide = is_sub ? signedAt(a, size) - signedAt(b, size) - c
                             : signedAt(a, size) + signedAt(b, size) + c;
    const u32 r = static_cast<u32>(wide) & mask(size);
    u32 f = refZsp(r, size);
    if (wide < 0 || wide > i64{mask(size)})
        f |= FLAG_CF;
    if (swide < lo || swide > hi)
        f |= FLAG_OF;
    if ((a ^ b ^ r) & 0x10) // carry or borrow into bit 4
        f |= FLAG_AF;
    return {r, f};
}

RefResult
refShift(Op op, u32 a, u32 count, unsigned size, u32 old)
{
    const unsigned n = size * 8;
    const u64 v = a & mask(size);
    count &= 0x1f;
    if (count == 0)
        return {static_cast<u32>(v), old};
    u64 r = 0;
    bool cf = false, of = false;
    switch (op) {
      case Op::Shl: {
        const u64 wide = v << count; // bit n is the last bit out
        r = wide & mask(size);
        cf = (wide >> n) & 1;
        of = cf != ((r >> (n - 1)) & 1);
        break;
      }
      case Op::Shr:
        r = v >> count;
        cf = (v >> (count - 1)) & 1;
        of = (v >> (n - 1)) & 1;
        break;
      case Op::Sar: {
        const i64 s = signedAt(static_cast<u32>(v), size);
        r = static_cast<u64>(s >> count) & mask(size);
        cf = (s >> (count - 1)) & 1;
        break;
      }
      case Op::Rol:
      case Op::Ror: {
        // Rotate through a doubled copy of the operand.
        const unsigned c = count % n;
        const u64 twice = (v << n) | v;
        r = (op == Op::Rol ? twice >> (n - c) : twice >> c) & mask(size);
        const bool msb = (r >> (n - 1)) & 1;
        cf = op == Op::Rol ? (r & 1) : msb;
        of = op == Op::Rol ? cf != msb : msb != ((r >> (n - 2)) & 1);
        break;
      }
      default:
        break;
    }
    u32 f = op == Op::Rol || op == Op::Ror
                ? old & (FLAG_ZF | FLAG_SF | FLAG_PF | FLAG_AF)
                : refZsp(static_cast<u32>(r), size);
    if (cf)
        f |= FLAG_CF;
    if (of)
        f |= FLAG_OF;
    return {static_cast<u32>(r), f};
}

constexpr Op SHIFT_OPS[] = {Op::Shl, Op::Shr, Op::Sar, Op::Rol, Op::Ror};
// Old EFLAGS for shifts: none set, and every arithmetic flag set.
constexpr u32 OLD_FLAGS[] = {0, FLAG_ALL};

TEST(Flags, AddSubEveryByteOperandPair)
{
    for (u32 a = 0; a < 256; ++a) {
        for (u32 b = 0; b < 256; ++b) {
            for (u32 c = 0; c < 2; ++c) {
                u32 r;
                const RefResult add = refAddSub(false, a, b, c, 1);
                ASSERT_EQ(flags::add(a, b, c, 1, r), add.flags)
                    << a << "+" << b << "+" << c;
                ASSERT_EQ(r, add.result);
                const RefResult sub = refAddSub(true, a, b, c, 1);
                ASSERT_EQ(flags::sub(a, b, c, 1, r), sub.flags)
                    << a << "-" << b << "-" << c;
                ASSERT_EQ(r, sub.result);
            }
        }
    }
}

TEST(Flags, LogicEveryByteResult)
{
    for (u32 r = 0; r < 256; ++r)
        ASSERT_EQ(flags::logic(r, 1), refZsp(r, 1)) << r;
}

TEST(Flags, ShiftsAndRotatesEveryByteAndCount)
{
    for (Op op : SHIFT_OPS) {
        for (u32 a = 0; a < 256; ++a) {
            for (u32 count = 0; count < 32; ++count) {
                for (u32 old : OLD_FLAGS) {
                    const flags::ShiftResult got =
                        flags::shift(op, a, count, 1, old);
                    const RefResult want = refShift(op, a, count, 1, old);
                    ASSERT_EQ(got.result, want.result)
                        << opName(op) << " " << a << " by " << count;
                    ASSERT_EQ(got.eflags, want.flags)
                        << opName(op) << " " << a << " by " << count;
                }
            }
        }
    }
}

TEST(Flags, WordAndDwordSamples)
{
    std::mt19937 rng(17);
    for (unsigned size : {2u, 4u}) {
        for (int i = 0; i < 20000; ++i) {
            const u32 a = rng(), b = rng(), c = rng() & 1;
            u32 r;
            const RefResult add = refAddSub(false, a, b, c, size);
            ASSERT_EQ(flags::add(a, b, c, size, r), add.flags);
            ASSERT_EQ(r, add.result);
            const RefResult sub = refAddSub(true, a, b, c, size);
            ASSERT_EQ(flags::sub(a, b, c, size, r), sub.flags);
            ASSERT_EQ(r, sub.result);
            ASSERT_EQ(flags::logic(a & mask(size), size),
                      refZsp(a & mask(size), size));

            const Op op = SHIFT_OPS[rng() % 5];
            const u32 count = rng() % 32, old = OLD_FLAGS[rng() % 2];
            const flags::ShiftResult got =
                flags::shift(op, a, count, size, old);
            const RefResult want = refShift(op, a, count, size, old);
            ASSERT_EQ(got.result, want.result)
                << opName(op) << " " << a << " by " << count;
            ASSERT_EQ(got.eflags, want.flags)
                << opName(op) << " " << a << " by " << count;
        }
    }
}

TEST(Interp, XchgAndLea)
{
    Assembler as(0x1000);
    as.movRI(EAX, 1);
    as.movRI(EDX, 2);
    as.xchg(EAX, EDX);
    as.lea(ECX, MemRef{EAX, EDX, 4, 10}); // 2 + 1*4 + 10
    as.hlt();
    Machine m(as);
    m.run();
    EXPECT_EQ(m.cpu.regs[EAX], 2u);
    EXPECT_EQ(m.cpu.regs[EDX], 1u);
    EXPECT_EQ(m.cpu.regs[ECX], 16u);
}

TEST(Interp, DecodeFaultReported)
{
    Assembler as(0x1000);
    as.db(0x0f);
    as.db(0x0b); // UD2
    Machine m(as);
    EXPECT_EQ(m.run(), Exit::DecodeFault);
}

} // namespace
} // namespace cdvm::x86

/**
 * @file
 * Cracking + micro-op executor differential tests: for random
 * instruction mixes, executing the cracked micro-ops, in record form
 * and bound, must produce the same architected state as the reference
 * interpreter, instruction by instruction; and every micro-op form
 * must run the same bound as through step().
 */

#include <algorithm>
#include <functional>
#include <set>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "uops/crack.hh"
#include "uops/encoding.hh"
#include "uops/exec.hh"
#include "x86/asm.hh"
#include "x86/decoder.hh"
#include "x86/interp.hh"

namespace cdvm
{
namespace
{

using uops::UopExecutor;
using uops::UState;
using x86::Assembler;
using x86::Cond;
using x86::CpuState;
using x86::Insn;
using x86::MemRef;
using x86::Memory;
using x86::Op;
using x86::Reg;

/** Random-but-valid architected state. */
CpuState
randomState(Pcg32 &rng)
{
    CpuState cpu;
    for (unsigned r = 0; r < x86::NUM_REGS; ++r)
        cpu.regs[r] = rng.next();
    cpu.regs[x86::ESP] = 0x7fff0000 - rng.below(64) * 4;
    cpu.eflags = 0x202 | (rng.next() & x86::FLAG_ALL);
    return cpu;
}

/**
 * Execute one decoded instruction from the same initial state through
 * the interpreter and through its cracked micro-ops, in record form or
 * bound, and compare everything.
 */
void
checkInsnForm(const Insn &in, const CpuState &start,
              Memory &mem_template, bool bound, const std::string &label)
{
    // Interpreter path.
    Memory mem_a = mem_template;
    CpuState cpu_a = start;
    x86::Interpreter interp(cpu_a, mem_a);
    x86::StepResult sr = interp.execute(in);

    // Cracked micro-op path.
    uops::CrackResult cr = uops::crack(in);
    const Addr pcs[] = {in.pc};
    const uops::Binding b = uops::bind(cr.uops, pcs);
    ASSERT_TRUE(b.ops) << label;
    Memory mem_b = mem_template;
    UState ust;
    ust.loadArch(start);
    UopExecutor exe(ust, mem_b);
    const uops::BlockResult br =
        bound ? exe.run(b.ops.get(), cr.uops, in.nextPc())
              : exe.run(cr.uops, in.nextPc());
    CpuState cpu_b = start;
    ust.storeArch(cpu_b);
    cpu_b.eip = static_cast<u32>(br.nextPc);

    if (sr.exit == x86::Exit::Trap) {
        EXPECT_EQ(static_cast<int>(br.exit),
                  static_cast<int>(uops::BlockExit::Fault))
            << label;
        return;
    }
    if (sr.exit == x86::Exit::Halted) {
        EXPECT_EQ(static_cast<int>(br.exit),
                  static_cast<int>(uops::BlockExit::VmExit))
            << label;
        return;
    }

    for (unsigned r = 0; r < x86::NUM_REGS; ++r)
        EXPECT_EQ(cpu_a.regs[r], cpu_b.regs[r])
            << label << " reg " << x86::regName(static_cast<Reg>(r))
            << "\n  insn: " << in.toString();
    EXPECT_EQ(cpu_a.eflags & x86::FLAG_ALL,
              cpu_b.eflags & x86::FLAG_ALL)
        << label << "\n  insn: " << in.toString();
    EXPECT_EQ(cpu_a.eip, cpu_b.eip)
        << label << "\n  insn: " << in.toString();

    // Memory effects: compare the data window.
    std::vector<u8> da = mem_a.readBlock(0x00800000, 8192);
    std::vector<u8> db = mem_b.readBlock(0x00800000, 8192);
    EXPECT_EQ(da, db) << label << "\n  insn: " << in.toString();
    std::vector<u8> sa = mem_a.readBlock(0x7ffeff00, 0x200);
    std::vector<u8> sb = mem_b.readBlock(0x7ffeff00, 0x200);
    EXPECT_EQ(sa, sb) << label << "\n  insn: " << in.toString();
}

void
checkInsn(const Insn &in, const CpuState &start, Memory &mem_template,
          const std::string &label)
{
    checkInsnForm(in, start, mem_template, false, label);
    checkInsnForm(in, start, mem_template, true, label + " (bound)");
}

/** Decode the single instruction an assembler callback emits. */
Insn
assembleOne(const std::function<void(Assembler &)> &emit)
{
    Assembler as(0x1000);
    emit(as);
    std::vector<u8> buf = as.finalize();
    buf.resize(x86::MAX_INSN_LEN + 1, 0x90);
    x86::DecodeResult dr =
        x86::decode(std::span<const u8>(buf.data(), buf.size()), 0x1000);
    EXPECT_TRUE(dr.ok) << dr.error;
    return dr.insn;
}

class CrackExecRandom : public ::testing::TestWithParam<u64>
{
};

TEST_P(CrackExecRandom, RandomInstructionMix)
{
    Pcg32 rng(GetParam(), 7);
    Memory mem_template;
    // Seed data memory with deterministic noise.
    for (Addr a = 0x00800000; a < 0x00800000 + 4096; a += 4)
        mem_template.write32(a, rng.next());

    static const Op alu_ops[] = {Op::Add, Op::Or, Op::Adc, Op::Sbb,
                                 Op::And, Op::Sub, Op::Xor, Op::Cmp};

    for (int iter = 0; iter < 400; ++iter) {
        CpuState start = randomState(rng);
        // Constrain base registers so memory operands land in the
        // seeded data window.
        start.regs[x86::EBX] = 0x00800000 + rng.below(512) * 4;
        start.regs[x86::ESI] = rng.below(200);

        MemRef m{x86::EBX, rng.chance(0.5) ? x86::ESI : x86::REG_NONE,
                 4, static_cast<i32>(rng.below(1024))};

        unsigned pick = rng.below(20);
        Insn in;
        switch (pick) {
          case 0:
            in = assembleOne([&](Assembler &a) {
                a.aluRR(alu_ops[rng.below(8)],
                        static_cast<Reg>(rng.below(8)),
                        static_cast<Reg>(rng.below(8)));
            });
            break;
          case 1:
            in = assembleOne([&](Assembler &a) {
                a.aluRM(alu_ops[rng.below(8)],
                        static_cast<Reg>(rng.below(8)), m);
            });
            break;
          case 2:
            in = assembleOne([&](Assembler &a) {
                a.aluMR(alu_ops[rng.below(8)], m,
                        static_cast<Reg>(rng.below(8)));
            });
            break;
          case 3:
            in = assembleOne([&](Assembler &a) {
                a.aluMI(alu_ops[rng.below(8)], m,
                        static_cast<i32>(rng.next()));
            });
            break;
          case 4: { // byte ALU incl. high-byte registers
            u8 row = static_cast<u8>(rng.below(8));
            u8 modrm = static_cast<u8>(0xc0 | rng.below(64));
            in = assembleOne([&](Assembler &a) {
                a.db(static_cast<u8>(row << 3)); // op r/m8, r8
                a.db(modrm);
            });
            break;
          }
          case 5:
            in = assembleOne([&](Assembler &a) {
                a.db(0x66);
                a.aluRR(alu_ops[rng.below(8)],
                        static_cast<Reg>(rng.below(8)),
                        static_cast<Reg>(rng.below(8)));
            });
            break;
          case 6:
            in = assembleOne([&](Assembler &a) {
                a.movRM(static_cast<Reg>(rng.below(8)), m);
            });
            break;
          case 7:
            in = assembleOne([&](Assembler &a) {
                a.movMR(m, static_cast<Reg>(rng.below(8)));
            });
            break;
          case 8:
            in = assembleOne([&](Assembler &a) {
                if (rng.chance(0.5))
                    a.movzxM(static_cast<Reg>(rng.below(8)), m,
                             rng.chance(0.5) ? 1 : 2);
                else
                    a.movsx(static_cast<Reg>(rng.below(8)),
                            static_cast<Reg>(rng.below(8)),
                            rng.chance(0.5) ? 1 : 2);
            });
            break;
          case 9:
            in = assembleOne([&](Assembler &a) {
                a.shiftRI(rng.chance(0.5)
                              ? (rng.chance(0.5) ? Op::Shl : Op::Shr)
                              : (rng.chance(0.5) ? Op::Sar
                                 : rng.chance(0.5) ? Op::Rol
                                                   : Op::Ror),
                          static_cast<Reg>(rng.below(8)),
                          static_cast<u8>(rng.below(40)));
            });
            break;
          case 10:
            in = assembleOne([&](Assembler &a) {
                a.shiftRCl(rng.chance(0.5) ? Op::Shl : Op::Sar,
                           static_cast<Reg>(rng.below(8)));
            });
            break;
          case 11:
            in = assembleOne([&](Assembler &a) {
                if (rng.chance(0.5))
                    a.imulRR(static_cast<Reg>(rng.below(8)),
                             static_cast<Reg>(rng.below(8)));
                else
                    a.imulRRI(static_cast<Reg>(rng.below(8)),
                              static_cast<Reg>(rng.below(8)),
                              static_cast<i32>(rng.next()));
            });
            break;
          case 12:
            in = assembleOne([&](Assembler &a) {
                switch (rng.below(4)) {
                  case 0: a.mulA(static_cast<Reg>(rng.below(8))); break;
                  case 1: a.imulA(static_cast<Reg>(rng.below(8))); break;
                  case 2: a.divA(static_cast<Reg>(rng.below(8))); break;
                  default: a.idivA(static_cast<Reg>(rng.below(8))); break;
                }
            });
            break;
          case 13:
            in = assembleOne([&](Assembler &a) {
                if (rng.chance(0.5))
                    a.push(static_cast<Reg>(rng.below(8)));
                else
                    a.pop(static_cast<Reg>(rng.below(8)));
            });
            break;
          case 14:
            in = assembleOne([&](Assembler &a) {
                switch (rng.below(4)) {
                  case 0: a.inc(static_cast<Reg>(rng.below(8))); break;
                  case 1: a.dec(static_cast<Reg>(rng.below(8))); break;
                  case 2: a.notReg(static_cast<Reg>(rng.below(8))); break;
                  default: a.negReg(static_cast<Reg>(rng.below(8))); break;
                }
            });
            break;
          case 15:
            in = assembleOne([&](Assembler &a) {
                a.setcc(static_cast<Cond>(rng.below(16)),
                        static_cast<Reg>(rng.below(8)));
            });
            break;
          case 16:
            in = assembleOne([&](Assembler &a) {
                a.xchg(static_cast<Reg>(rng.below(8)),
                       static_cast<Reg>(rng.below(8)));
            });
            break;
          case 17:
            in = assembleOne([&](Assembler &a) { a.cdq(); });
            break;
          case 18:
            in = assembleOne([&](Assembler &a) {
                a.lea(static_cast<Reg>(rng.below(8)), m);
            });
            break;
          default:
            in = assembleOne([&](Assembler &a) {
                if (rng.chance(0.5))
                    a.testRR(static_cast<Reg>(rng.below(8)),
                             static_cast<Reg>(rng.below(8)));
                else
                    a.aluRI(alu_ops[rng.below(8)],
                            static_cast<Reg>(rng.below(8)),
                            static_cast<i32>(rng.next()));
            });
            break;
        }
        checkInsn(in, start, mem_template,
                  "seed " + std::to_string(GetParam()) + " iter " +
                      std::to_string(iter));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrackExecRandom,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(CrackExec, BranchesAndCalls)
{
    Pcg32 rng(11, 3);
    for (int iter = 0; iter < 100; ++iter) {
        CpuState start = randomState(rng);
        Memory mem;

        Assembler as(0x1000);
        auto l = as.newLabel();
        unsigned pick = rng.below(5);
        switch (pick) {
          case 0:
            as.jcc(static_cast<Cond>(rng.below(16)), l);
            break;
          case 1:
            as.jmp(l);
            break;
          case 2:
            as.call(l);
            break;
          case 3:
            start.regs[x86::EDI] = 0x1400;
            as.jmpInd(x86::EDI);
            break;
          default:
            // ret: plant a return address.
            mem.write32(start.regs[x86::ESP], 0x2222);
            as.ret();
            break;
        }
        for (int n = 0; n < 32; ++n)
            as.nop();
        as.bind(l);
        as.hlt();

        std::vector<u8> buf = as.finalize();
        buf.resize(x86::MAX_INSN_LEN + 32, 0x90);
        x86::DecodeResult dr = x86::decode(
            std::span<const u8>(buf.data(), buf.size()), 0x1000);
        ASSERT_TRUE(dr.ok);
        checkInsn(dr.insn, start, mem, "cti iter " + std::to_string(iter));
    }
}

TEST(CrackExec, UopCountsAreCisclike)
{
    // Sanity-check the crack expansion ratio on representative forms.
    auto count = [](const std::function<void(Assembler &)> &e) {
        Assembler as(0x1000);
        e(as);
        std::vector<u8> buf = as.finalize();
        buf.resize(x86::MAX_INSN_LEN + 1, 0x90);
        x86::DecodeResult dr = x86::decode(
            std::span<const u8>(buf.data(), buf.size()), 0x1000);
        EXPECT_TRUE(dr.ok);
        return uops::crack(dr.insn).uops.size();
    };

    EXPECT_EQ(count([](Assembler &a) { a.aluRR(Op::Add, x86::EAX,
                                               x86::ECX); }),
              1u);
    EXPECT_EQ(count([](Assembler &a) {
                  a.movRM(x86::EAX, MemRef{x86::EBX, x86::REG_NONE, 1, 4});
              }),
              1u);
    EXPECT_EQ(count([](Assembler &a) {
                  a.aluMR(Op::Add, MemRef{x86::EBX, x86::REG_NONE, 1, 4},
                          x86::ECX);
              }),
              3u); // load, add, store
    EXPECT_EQ(count([](Assembler &a) { a.push(x86::EAX); }), 2u);
    EXPECT_EQ(count([](Assembler &a) { a.pop(x86::EAX); }), 2u);
    EXPECT_EQ(count([](Assembler &a) { a.ret(); }), 3u);
    EXPECT_LE(count([](Assembler &a) {
                  auto l = a.newLabel();
                  a.bind(l);
                  a.call(l);
              }),
              4u);
}

TEST(CrackExec, ComplexClassification)
{
    auto crackOf = [](std::initializer_list<u8> bytes) {
        std::vector<u8> v(bytes);
        v.resize(x86::MAX_INSN_LEN + 1, 0x90);
        x86::DecodeResult dr = x86::decode(
            std::span<const u8>(v.data(), v.size()), 0x1000);
        EXPECT_TRUE(dr.ok) << dr.error;
        return uops::crack(dr.insn);
    };
    EXPECT_TRUE(crackOf({0xf7, 0xf1}).complex);  // div ecx
    EXPECT_TRUE(crackOf({0x0f, 0xa2}).complex);  // cpuid
    EXPECT_FALSE(crackOf({0x01, 0xc1}).complex); // add
    EXPECT_FALSE(crackOf({0x8b, 0x03}).complex); // mov eax,[ebx]
}

/** Build an instruction from its fields (no encoding needed). */
Insn
makeInsn(Op op, unsigned size, x86::Operand dst,
         x86::Operand src = x86::Operand::none())
{
    Insn in;
    in.op = op;
    in.opSize = static_cast<u8>(size);
    in.dst = dst;
    in.src = src;
    return in;
}

TEST(CrackExec, FaultingInsnsWriteOnlyTemporariesBeforeTheFault)
{
    // Precise-state recovery resumes the interpreter at a faulting
    // div/idiv/int3 from the executor's state, which holds only if
    // the micro-ops before the faulting one touch no architected
    // register, flag or memory. Recovery also finds the instruction
    // by counting its faulting micro-ops, so there must be exactly
    // one. (The template tier's rules equal the cracker's output by
    // the TemplateRules lint.)
    std::vector<Insn> forms{makeInsn(Op::Int3, 4, {})};
    for (Op op : {Op::DivA, Op::IdivA}) {
        for (unsigned size : {1u, 2u, 4u}) {
            for (unsigned r = 0; r < x86::NUM_REGS; ++r) {
                forms.push_back(makeInsn(
                    op, size, {},
                    x86::Operand::makeReg(static_cast<Reg>(r))));
            }
            forms.push_back(makeInsn(op, size, {},
                                     x86::Operand::makeMem(MemRef{
                                         x86::EBX, x86::ESI, 4, 0x40})));
        }
    }

    for (const Insn &in : forms) {
        const uops::UopVec v = uops::crack(in).uops;
        unsigned faulting = 0;
        for (const uops::Uop &u : v) {
            faulting += u.op == uops::UOp::DivWide ||
                        u.op == uops::UOp::IdivWide ||
                        u.op == uops::UOp::Trap;
        }
        ASSERT_EQ(faulting, 1u) << in.toString();
        const uops::UOp last = v.back().op;
        EXPECT_TRUE(last == uops::UOp::DivWide ||
                    last == uops::UOp::IdivWide ||
                    last == uops::UOp::Trap)
            << in.toString();
        for (std::size_t i = 0; i + 1 < v.size(); ++i) {
            const uops::Uop &u = v[i];
            const u8 d = u.destination();
            EXPECT_TRUE(d == uops::UREG_NONE || d >= x86::NUM_REGS)
                << in.toString() << ": " << u.toString();
            EXPECT_FALSE(u.isStore()) << in.toString();
            EXPECT_FALSE(u.writeFlags) << in.toString();
        }
    }
}

TEST(CrackExec, LazyFlagsMatchInterpreterAtEveryConsumer)
{
    // The executor records a flag-writing ALU micro-op's operands and
    // computes EFLAGS only where something reads them. Run a stale
    // producer, then every producer, then every consumer, as ONE
    // block, so each consumer meets a pending record; the outcome
    // must equal the interpreter's, through run() in record form and
    // bound, and through exec() one micro-op at a time.
    using x86::Operand;
    const Operand eax = Operand::makeReg(x86::EAX);
    const Operand ebx = Operand::makeReg(x86::EBX);
    const Operand ecx = Operand::makeReg(x86::ECX);
    const Operand edx = Operand::makeReg(x86::EDX);
    const Operand esi = Operand::makeReg(x86::ESI);

    std::vector<std::function<Insn(unsigned)>> producers;
    for (Op op : {Op::Add, Op::Adc, Op::Sub, Op::Sbb, Op::Cmp, Op::And,
                  Op::Or, Op::Xor, Op::Test}) {
        producers.push_back(
            [=](unsigned sz) { return makeInsn(op, sz, eax, ebx); });
    }
    for (Op op : {Op::Neg, Op::Inc, Op::Dec}) {
        producers.push_back(
            [=](unsigned sz) { return makeInsn(op, sz, eax); });
    }
    producers.push_back([=](unsigned sz) {
        return makeInsn(Op::Shl, sz, eax, Operand::makeImm(1));
    });
    // Eager writers: the stale record must not survive them.
    producers.push_back([=](unsigned sz) {
        return makeInsn(Op::Imul, sz == 1 ? 2 : sz, eax, ebx);
    });
    producers.push_back(
        [=](unsigned sz) { return makeInsn(Op::MulA, sz, Operand{}, ebx); });

    std::vector<std::function<Insn(unsigned)>> consumers;
    consumers.push_back(nullptr); // the block ends with a pending record
    for (unsigned c = 0; c < 16; ++c) {
        consumers.push_back([=](unsigned) {
            Insn in = makeInsn(Op::Jcc, 4, Operand{});
            in.cond = static_cast<Cond>(c);
            in.target = 0x9000;
            return in;
        });
        consumers.push_back([=](unsigned) {
            Insn in = makeInsn(Op::Setcc, 1, ecx);
            in.cond = static_cast<Cond>(c);
            return in;
        });
    }
    for (Op op : {Op::Adc, Op::Sbb}) {
        consumers.push_back(
            [=](unsigned sz) { return makeInsn(op, sz, edx, esi); });
    }
    for (Op op : {Op::Inc, Op::Dec}) {
        consumers.push_back(
            [=](unsigned sz) { return makeInsn(op, sz, edx); });
    }
    for (Op op : {Op::Clc, Op::Stc, Op::Cmc}) {
        consumers.push_back([=](unsigned) { return makeInsn(op, 4, {}); });
    }
    for (Op op : {Op::Shl, Op::Shr, Op::Sar, Op::Rol, Op::Ror}) {
        for (i64 count : {0, 1}) {
            consumers.push_back([=](unsigned sz) {
                return makeInsn(op, sz, edx, Operand::makeImm(count));
            });
        }
    }

    static const u32 vals[] = {0,          1,          0x7f,
                               0x80,       0xff,       0x7fff,
                               0x8000,     0xffff,     0x7fffffff,
                               0x80000000, 0xffffffff, 0x12345678};
    Memory mem;
    unsigned runs = 0, mismatches = 0;
    for (unsigned size : {1u, 2u, 4u}) {
        for (std::size_t p = 0; p < producers.size(); ++p) {
            for (std::size_t c = 0; c < consumers.size(); ++c) {
                std::vector<Insn> block;
                block.push_back(makeInsn(Op::Cmp, 4, ecx, edx)); // stale
                block.push_back(producers[p](size));
                if (consumers[c])
                    block.push_back(consumers[c](size));
                for (std::size_t i = 0; i < block.size(); ++i) {
                    block[i].pc = 0x1000 + 4 * i;
                    block[i].length = 4;
                }
                const uops::UopVec body = uops::crackAll(block).uops;
                std::vector<Addr> pcs;
                for (const Insn &in : block)
                    pcs.push_back(in.pc);
                const uops::Binding bound = uops::bind(body, pcs);
                ASSERT_TRUE(bound.ops);

                for (std::size_t k = 0; k < std::size(vals) *
                                                std::size(vals);
                     ++k) {
                    CpuState start;
                    start.regs[x86::EAX] = vals[k / std::size(vals)];
                    start.regs[x86::EBX] = vals[k % std::size(vals)];
                    start.regs[x86::ECX] = 0x80000000u + k;
                    start.regs[x86::EDX] = start.regs[x86::EAX] ^ 0x5a5a;
                    start.regs[x86::ESI] = start.regs[x86::EBX] + 3;
                    // Both carry-in values reach Adc/Sbb producers.
                    start.eflags = (k & 1) ? 0x202 | x86::FLAG_ALL : 0x202;
                    start.eip = 0x1000;

                    CpuState ref = start;
                    x86::Interpreter interp(ref, mem);
                    for (const Insn &in : block) {
                        if (interp.execute(in).taken)
                            break;
                    }

                    UState ust;
                    ust.loadArch(start);
                    UopExecutor exe(ust, mem);
                    const uops::BlockResult br =
                        exe.run(body, block.back().nextPc());
                    CpuState got = start;
                    ust.storeArch(got);
                    got.eip = static_cast<u32>(br.nextPc);

                    UState bst;
                    bst.loadArch(start);
                    UopExecutor bexe(bst, mem);
                    const uops::BlockResult bbr =
                        bexe.run(bound.ops.get(), body,
                                 block.back().nextPc());

                    // exec(), the HAloop's entry point, must leave
                    // EFLAGS architected after every micro-op.
                    UState one;
                    one.loadArch(start);
                    UopExecutor single(one, mem);
                    bool settled = true;
                    for (const uops::Uop &u : body) {
                        const bool taken = single.exec(u).taken;
                        settled = settled && one.pending.kind ==
                                                 uops::PendingFlags::Kind::None;
                        if (taken)
                            break;
                    }

                    ++runs;
                    const bool same =
                        got.regs == ref.regs && got.eip == ref.eip &&
                        (got.eflags & x86::FLAG_ALL) ==
                            (ref.eflags & x86::FLAG_ALL) &&
                        ust.pending.kind == uops::PendingFlags::Kind::None &&
                        settled && one.regs == ust.regs &&
                        one.eflags == ust.eflags && bst.regs == ust.regs &&
                        bst.eflags == ust.eflags &&
                        bst.pending.kind == uops::PendingFlags::Kind::None &&
                        bbr.nextPc == br.nextPc &&
                        bbr.uopsRun == br.uopsRun;
                    if (!same && ++mismatches <= 5) {
                        ADD_FAILURE()
                            << "size " << size << ": "
                            << block[1].toString() << " ; "
                            << block.back().toString() << " from eax 0x"
                            << std::hex << start.regs[x86::EAX]
                            << " ebx 0x" << start.regs[x86::EBX]
                            << " eflags 0x" << start.eflags
                            << ": eflags 0x"
                            << (got.eflags & x86::FLAG_ALL)
                            << " vs 0x" << (ref.eflags & x86::FLAG_ALL)
                            << ", eip 0x" << got.eip << " vs 0x"
                            << ref.eip;
                    }
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << runs << " blocks";
}

/** XLTx86 stand-in: echoes the source window, reports a fixed CSR. */
class EchoXlt : public uops::XltHandler
{
  public:
    u32
    translate(const u8 src[16], u8 dst[16]) override
    {
        std::copy(src, src + 16, dst);
        return 0x5;
    }
};

TEST(BoundForm, EveryFormMatchesStepAndTheRecordForm)
{
    // Lower every micro-op form -- opcode x size 1/2/4 x register or
    // immediate source x flag write x UREG_NONE operands x address
    // mode -- between a pending flag producer and a flag consumer, and
    // run it bound, in record form and through exec() one micro-op at
    // a time, from several states. Registers, EFLAGS, memory and the
    // BlockResult must agree, and every handler must be reached.
    using uops::Uop;
    using uops::UOp;
    constexpr u8 NONE = uops::UREG_NONE;
    constexpr Addr PC0 = 0x1000;
    const Addr pcs[] = {PC0, PC0 + 4, PC0 + 8};

    Memory mem_template;
    Pcg32 rng(5, 9);
    for (Addr a = 0x00800000; a < 0x00801000; a += 4)
        mem_template.write32(a, rng.next());

    std::vector<UState> starts(4);
    for (std::size_t i = 0; i < starts.size(); ++i) {
        UState &s = starts[i];
        for (u32 &v : s.regs)
            v = rng.next();
        s.regs[uops::R_EBX] = 0x00800100 + static_cast<u32>(i) * 0x3f;
        static const u32 index[] = {3, 0xffffffff, 0x80000000, 0};
        s.regs[uops::R_ECX] = index[i];
        s.regs[uops::R_EDX] = i == 1 ? 0x00900000 : static_cast<u32>(i);
        s.regs[uops::R_ESI] = i & 1 ? 0x80000000 : 0xff;
        s.regs[uops::R_EDI] = i & 2 ? 0x7fffffff : 0xff;
        s.eflags = 0x202 | ((i & 1) ? static_cast<u32>(x86::FLAG_ALL) : 0);
        for (auto &f : s.fregs)
            f.fill(static_cast<u8>(i * 7));
        s.csr = static_cast<u32>(i);
    }
    static const i32 imms[] = {0x40, -1, 0x7f, 0x11};

    EchoXlt xlt;
    std::set<u8> reached;
    unsigned forms = 0, mismatches = 0;
    for (unsigned opi = 0; opi < static_cast<unsigned>(UOp::NUM_UOPS);
         ++opi) {
      for (unsigned size : {1u, 2u, 4u}) {
      for (bool has_imm : {false, true}) {
      for (bool wf : {false, true}) {
      for (u8 dst : {u8{uops::R_T0}, u8{uops::R_EBX}, NONE}) {
      for (u8 src1 : {u8{uops::R_EBX}, u8{uops::R_ESI}, NONE}) {
      for (u8 src2 : {u8{uops::R_ECX}, NONE}) {
      for (u8 scale : {u8{1}, u8{4}, u8{3}}) {
        Uop u;
        u.op = static_cast<UOp>(opi);
        if (scale != 1 && !u.isMem() && u.op != UOp::Lea)
            continue; // the scale is an address-mode field
        u.size = static_cast<u8>(size);
        u.hasImm = has_imm;
        u.writeFlags = wf;
        u.dst = dst;
        u.src1 = src1;
        u.src2 = src2;
        u.scale = scale;
        u.imm = imms[forms % std::size(imms)];
        // x86 conditions, and for Br also the CSR tests and Always.
        u.cond = static_cast<u8>(forms % (u.op == UOp::Br ? 19 : 16));
        u.target = 0x3000;
        u.x86pc = PC0 + 4;

        // A pending Sub record before, a flag consumer after.
        Uop producer;
        producer.op = UOp::Sub;
        producer.dst = uops::R_T3;
        producer.src1 = uops::R_ESI;
        producer.src2 = uops::R_EDI;
        producer.writeFlags = true;
        producer.x86pc = PC0;
        Uop consumer;
        consumer.op = UOp::Setcc;
        consumer.dst = uops::R_T2;
        consumer.cond = static_cast<u8>(forms % 16);
        consumer.x86pc = PC0 + 8;
        const std::vector<Uop> body{producer, u, consumer};
        ++forms;

        const uops::Binding b = uops::bind(body, pcs);
        ASSERT_TRUE(b.ops);
        for (std::size_t i = 0; i <= body.size(); ++i)
            reached.insert(b.ops[i].handler);
        if (u.isBranch()) {
            EXPECT_EQ(b.ops[1].retire, 2u);
        } else if (u.op == UOp::DivWide || u.op == UOp::IdivWide ||
                   u.op == UOp::Trap) {
            EXPECT_EQ(b.ops[1].retire, 1u);
        }

        for (const UState &start : starts) {
            Memory mem_r = mem_template, mem_b = mem_template,
                   mem_e = mem_template;
            UState sr = start, sb = start, se = start;
            UopExecutor er(sr, mem_r), eb(sb, mem_b), ee(se, mem_e);
            er.setXltHandler(&xlt);
            eb.setXltHandler(&xlt);
            ee.setXltHandler(&xlt);
            const uops::BlockResult rr = er.run(body, 0x2000);
            const uops::BlockResult rb =
                eb.run(b.ops.get(), body, 0x2000);
            for (const Uop &x : body) {
                const UopExecutor::Outcome o = ee.exec(x);
                if (o.taken || o.fault || o.vmExit)
                    break;
            }

            // Memory: the data window and the effective address.
            const Addr ea =
                static_cast<u32>(u.imm) +
                (u.src1 != NONE ? start.regs[u.src1] : 0) +
                (u.src2 != NONE ? start.regs[u.src2] * u.scale : 0);
            auto bytes = [&](Memory &m) {
                std::vector<u8> v = m.readBlock(0x00800000, 0x1000);
                const std::vector<u8> at =
                    m.readBlock(static_cast<u32>(ea), 16);
                v.insert(v.end(), at.begin(), at.end());
                return v;
            };
            const bool same =
                sb.regs == sr.regs && sb.eflags == sr.eflags &&
                sb.fregs == sr.fregs && sb.csr == sr.csr &&
                sb.pending.kind == uops::PendingFlags::Kind::None &&
                se.regs == sr.regs && se.eflags == sr.eflags &&
                rb.exit == rr.exit && rb.nextPc == rr.nextPc &&
                rb.uopsRun == rr.uopsRun &&
                rb.faultIndex == rr.faultIndex &&
                rb.faultX86Pc == rr.faultX86Pc &&
                bytes(mem_b) == bytes(mem_r) &&
                bytes(mem_e) == bytes(mem_r);
            if (!same && ++mismatches <= 5)
                ADD_FAILURE() << "form " << u.toString() << " size "
                              << size << " handler "
                              << int(b.ops[1].handler);
        }
      }}}}}}}
    }
    EXPECT_EQ(mismatches, 0u) << "of " << forms << " forms";
    EXPECT_EQ(reached.size(), uops::boundHandlerCount())
        << "a handler no form lowers to";
}

} // namespace
} // namespace cdvm

#include "uops/exec.hh"

#include <cassert>
#include <cstdint>

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "uops/csr.hh"
#include "x86/flags.hh"

namespace cdvm::uops
{

using x86::FLAG_ALL;
using x86::FLAG_CF;
namespace flags = x86::flags;

namespace
{

/** Compute the flags the pending record owes into eflags, if any. */
inline void
settle(u32 &eflags, PendingFlags &p)
{
    if (p.kind == PendingFlags::Kind::None)
        return;
    u32 r;
    const u32 f = p.kind == PendingFlags::Kind::Add
                      ? flags::add(p.a, p.b, p.carry, p.size, r)
                  : p.kind == PendingFlags::Kind::Sub
                      ? flags::sub(p.a, p.b, p.carry, p.size, r)
                      : flags::logic(p.a, p.size);
    eflags = (eflags & ~FLAG_ALL) | (f & FLAG_ALL);
    p.kind = PendingFlags::Kind::None;
}

inline void
settleFlags(UState &st)
{
    settle(st.eflags, st.pending);
}

/*
 * The bound form's handler set. Besides End (the marker after the last
 * op) and Fallback (any form without its own handler: the record runs
 * through step()), it holds one handler for each micro-op form that
 * makes up at least 0.5% of the superblock micro-ops executed on the
 * end-to-end benchmark's hot_loop or boot_storm workload (seed 1).
 * Names read Op[Src][Size][F]: RR a register second source, RI an
 * immediate one, operand size 4 unless a digit says otherwise, F for a
 * flag write; B and BI are the address modes base+disp and
 * base+index*scale+disp. No specialized handler sees a UREG_NONE
 * operand: such a form binds to Fallback.
 */
#define CDVM_BOUND_HANDLERS(X)                                           \
    X(End) X(Fallback)                                                   \
    X(Limm) X(Mov) X(Zext8) X(Ins8) X(InsHi8) X(Ins16)                   \
    X(AddRR) X(AddRI) X(AddRRF) X(AddRR2) X(SubRI)                       \
    X(AndRR) X(AndRI) X(OrRR) X(OrRIF) X(XorRR) X(XorRRF)                \
    X(CmpRR) X(CmpRI) X(IncF) X(DecF) X(Neg) X(ShlRI) X(ShrRI)           \
    X(ImulRI) X(DivWide) X(Setcc)                                        \
    X(LdB) X(LdBI) X(StB) X(StBI) X(LeaBI) X(Br)

enum Handler : u8
{
#define CDVM_HANDLER_ENUM(name) H_##name,
    CDVM_BOUND_HANDLERS(CDVM_HANDLER_ENUM)
#undef CDVM_HANDLER_ENUM
    NUM_HANDLERS
};

/** A real register operand (not UREG_NONE, in range). */
constexpr bool
reg(u8 r)
{
    return r < UREG_NONE;
}

/** log2 of a memory index scale, or -1 when it is not 1/2/4/8. */
constexpr int
scaleLog2(u8 scale)
{
    return scale == 1 ? 0 : scale == 2 ? 1 : scale == 4 ? 2
         : scale == 8 ? 3 : -1;
}

/** Choose u's handler and resolve its operands into o. */
Handler
lower(const Uop &u, BoundOp &o)
{
    o.dst = u.dst;
    o.src1 = u.src1;
    o.src2 = u.src2;
    o.imm = static_cast<u32>(u.imm);

    const bool d = reg(u.dst);
    const bool s1 = reg(u.src1);
    const bool w4 = u.size == 4;
    // Two-source ALU forms at size 4 without a flag write.
    const bool rr = w4 && !u.hasImm && s1 && reg(u.src2) && d;
    const bool ri = w4 && u.hasImm && s1 && d;
    const bool nf = !u.writeFlags;
    const int sh = scaleLog2(u.scale);
    // Memory operands: base+disp, or base+index*scale+disp.
    const bool mb = s1 && u.src2 == UREG_NONE;
    const bool mbi = s1 && reg(u.src2) && sh >= 0;
    o.shift = sh > 0 ? static_cast<u8>(sh) : 0;

    switch (u.op) {
      case UOp::Limm: return d ? H_Limm : H_Fallback;
      case UOp::Mov: return d && s1 ? H_Mov : H_Fallback;
      case UOp::Zext8: return d && s1 ? H_Zext8 : H_Fallback;
      case UOp::Ins8: return d && s1 ? H_Ins8 : H_Fallback;
      case UOp::InsHi8: return d && s1 ? H_InsHi8 : H_Fallback;
      case UOp::Ins16: return d && s1 ? H_Ins16 : H_Fallback;

      case UOp::Add:
        if (rr)
            return nf ? H_AddRR : H_AddRRF;
        if (ri && nf)
            return H_AddRI;
        if (u.size == 2 && !u.hasImm && s1 && reg(u.src2) && d && nf)
            return H_AddRR2;
        return H_Fallback;
      case UOp::Sub: return ri && nf ? H_SubRI : H_Fallback;
      case UOp::And:
        return rr && nf ? H_AndRR : ri && nf ? H_AndRI : H_Fallback;
      case UOp::Or:
        return rr && nf ? H_OrRR : ri && !nf ? H_OrRIF : H_Fallback;
      case UOp::Xor:
        return rr ? (nf ? H_XorRR : H_XorRRF) : H_Fallback;
      case UOp::Cmp:
        // Cmp always records its flags; it writes no register.
        if (w4 && s1 && !u.hasImm && reg(u.src2))
            return H_CmpRR;
        return w4 && s1 && u.hasImm ? H_CmpRI : H_Fallback;
      case UOp::Inc:
        return w4 && d && s1 && !nf ? H_IncF : H_Fallback;
      case UOp::Dec:
        return w4 && d && s1 && !nf ? H_DecF : H_Fallback;
      case UOp::Neg: return w4 && d && s1 && nf ? H_Neg : H_Fallback;
      case UOp::Shl:
      case UOp::Shr:
        if (!(ri && nf))
            return H_Fallback;
        o.shift = static_cast<u8>(u.imm & 0x1f);
        return u.op == UOp::Shl ? H_ShlRI : H_ShrRI;
      case UOp::Imul: return ri && nf ? H_ImulRI : H_Fallback;
      case UOp::DivWide: return w4 && s1 ? H_DivWide : H_Fallback;
      case UOp::Setcc:
        o.cond = u.cond;
        return d && u.cond < 16 ? H_Setcc : H_Fallback;

      case UOp::Ld:
        return d && mb ? H_LdB : d && mbi ? H_LdBI : H_Fallback;
      case UOp::St:
        return d && mb ? H_StB : d && mbi ? H_StBI : H_Fallback;
      case UOp::Lea: return d && mbi ? H_LeaBI : H_Fallback;

      case UOp::Br:
        o.cond = u.cond;
        o.target = static_cast<u32>(u.target);
        return u.cond < 16 && u.target == o.target ? H_Br : H_Fallback;

      default:
        return H_Fallback;
    }
}

} // namespace

std::size_t
insnIndex(std::span<const Uop> body, std::span<const Addr> pcs,
          std::size_t uop_index)
{
    const Uop &f = body[uop_index];
    std::size_t k = 0;
    for (std::size_t i = 0; i < uop_index; ++i)
        k += body[i].x86pc == f.x86pc && body[i].op == f.op;
    for (std::size_t i = 0; i < pcs.size(); ++i) {
        if (pcs[i] == f.x86pc && k-- == 0)
            return i;
    }
    return pcs.size();
}

Binding
bind(std::span<const Uop> body, std::span<const Addr> pcs)
{
    // Value-initialized: the marker after the last op is H_End (0).
    BoundBody ops = std::make_unique<BoundOp[]>(body.size() + 1);
    unsigned fallback = 0;
    for (std::size_t i = 0; i < body.size(); ++i) {
        const Uop &u = body[i];
        BoundOp &o = ops[i];
        o.handler = lower(u, o);
        fallback += o.handler == H_Fallback;

        // Exit ops carry the region's retired count when the body
        // leaves there: through a taken branch its instruction
        // completed; through a fault it did not.
        const bool faults = u.op == UOp::DivWide ||
                            u.op == UOp::IdivWide || u.op == UOp::Trap;
        if (!u.isBranch() && !faults)
            continue;
        const std::size_t k = insnIndex(body, pcs, i);
        const std::size_t n = u.isBranch() ? k + 1 : k;
        if (k >= pcs.size() || n > UINT16_MAX)
            return Binding{};
        o.retire = static_cast<u16>(n);
    }
    return Binding{std::move(ops), fallback};
}

unsigned
boundHandlerCount()
{
    return NUM_HANDLERS;
}

void
UState::loadArch(const x86::CpuState &cpu)
{
    for (unsigned i = 0; i < x86::NUM_REGS; ++i)
        regs[i] = cpu.regs[i];
    eflags = cpu.eflags;
}

void
UState::storeArch(x86::CpuState &cpu) const
{
    for (unsigned i = 0; i < x86::NUM_REGS; ++i)
        cpu.regs[i] = regs[i];
    cpu.eflags = eflags;
}

u32
UopExecutor::readSized(u8 reg, unsigned size) const
{
    if (reg == UREG_NONE)
        return 0;
    return flags::trunc(st.regs[reg], size);
}

Addr
UopExecutor::effAddr(const Uop &u) const
{
    u32 a = static_cast<u32>(u.imm);
    if (u.src1 != UREG_NONE)
        a += st.regs[u.src1];
    if (u.src2 != UREG_NONE)
        a += st.regs[u.src2] * u.scale;
    return a;
}

[[gnu::always_inline]] inline UopExecutor::Outcome
UopExecutor::step(const Uop &u)
{
    Outcome out;

    // Eager writers replace every arithmetic flag, so whatever the
    // pending record owed is dead.
    auto setArith = [&](u32 f) {
        st.eflags = (st.eflags & ~FLAG_ALL) | (f & FLAG_ALL);
        st.pending.kind = PendingFlags::Kind::None;
    };
    // Lazy writers only record their operands (see settleFlags).
    auto defer = [&](PendingFlags::Kind k, u32 a, u32 b, u32 carry) {
        st.pending = PendingFlags{k, u.size, a, b, carry};
    };
    auto carryIn = [&]() -> u32 {
        settleFlags(st);
        return (st.eflags & FLAG_CF) ? 1 : 0;
    };
    // Second ALU source: register or folded immediate.
    auto srcB = [&](unsigned size) -> u32 {
        if (u.hasImm)
            return flags::trunc(static_cast<u32>(u.imm), size);
        return readSized(u.src2, size);
    };
    auto writeDst = [&](u32 v) {
        if (u.dst != UREG_NONE)
            st.regs[u.dst] = v;
    };

    const unsigned size = u.size;

    switch (u.op) {
      case UOp::Nop:
        break;

      case UOp::Add:
      case UOp::Adc: {
        const u32 a = readSized(u.src1, size);
        const u32 b = srcB(size);
        const u32 cin = u.op == UOp::Adc ? carryIn() : 0;
        if (u.writeFlags)
            defer(PendingFlags::Kind::Add, a, b, cin);
        writeDst(flags::trunc(a + b + cin, size));
        break;
      }
      case UOp::Sub:
      case UOp::Sbb: {
        const u32 a = readSized(u.src1, size);
        const u32 b = srcB(size);
        const u32 bin = u.op == UOp::Sbb ? carryIn() : 0;
        if (u.writeFlags)
            defer(PendingFlags::Kind::Sub, a, b, bin);
        writeDst(flags::trunc(a - b - bin, size));
        break;
      }
      case UOp::Cmp:
        defer(PendingFlags::Kind::Sub, readSized(u.src1, size),
              srcB(size), 0);
        break;
      case UOp::And:
      case UOp::Or:
      case UOp::Xor: {
        u32 a = readSized(u.src1, size);
        u32 b = srcB(size);
        u32 r = u.op == UOp::And ? (a & b)
                                 : u.op == UOp::Or ? (a | b) : (a ^ b);
        r = flags::trunc(r, size);
        if (u.writeFlags)
            defer(PendingFlags::Kind::Logic, r, 0, 0);
        writeDst(r);
        break;
      }
      case UOp::Tst:
        defer(PendingFlags::Kind::Logic,
              flags::trunc(readSized(u.src1, size) & srcB(size), size),
              0, 0);
        break;
      case UOp::Inc:
      case UOp::Dec: {
        u32 a = readSized(u.src1, size);
        u32 r;
        u32 f = u.op == UOp::Inc ? flags::add(a, 1, 0, size, r)
                                 : flags::sub(a, 1, 0, size, r);
        if (u.writeFlags) {
            settleFlags(st); // CF survives
            f = (f & ~FLAG_CF) | (st.eflags & FLAG_CF);
            setArith(f);
        }
        writeDst(r);
        break;
      }
      case UOp::Not:
        writeDst(flags::trunc(~readSized(u.src1, size), size));
        break;
      case UOp::Neg: {
        const u32 a = readSized(u.src1, size);
        if (u.writeFlags)
            defer(PendingFlags::Kind::Sub, 0, a, 0);
        writeDst(flags::trunc(0 - a, size));
        break;
      }

      case UOp::Shl:
      case UOp::Shr:
      case UOp::Sar:
      case UOp::Rol:
      case UOp::Ror: {
        static const x86::Op map[] = {x86::Op::Shl, x86::Op::Shr,
                                      x86::Op::Sar, x86::Op::Rol,
                                      x86::Op::Ror};
        x86::Op xop = map[static_cast<unsigned>(u.op) -
                          static_cast<unsigned>(UOp::Shl)];
        u32 a = readSized(u.src1, size);
        u32 count = u.hasImm ? static_cast<u32>(u.imm)
                             : (st.regs[u.src2] & 0xff);
        if (u.writeFlags)
            settleFlags(st); // count 0 and rotates keep old flags
        flags::ShiftResult sr =
            flags::shift(xop, a, count, size, st.eflags & FLAG_ALL);
        if (u.writeFlags)
            setArith(sr.eflags);
        writeDst(sr.result);
        break;
      }

      case UOp::Imul: {
        u32 a = readSized(u.src1, size);
        u32 b = srcB(size);
        u32 f;
        u32 r = flags::imulTrunc(a, b, size, f);
        if (u.writeFlags)
            setArith(f);
        // IMUL destination register is written at operand size with
        // upper bits preserved (x86 two-operand semantics at size 2).
        if (size == 4) {
            writeDst(r);
        } else if (u.dst != UREG_NONE) {
            u32 mask = size == 2 ? 0xffffu : 0xffu;
            st.regs[u.dst] = (st.regs[u.dst] & ~mask) | (r & mask);
        }
        break;
      }
      case UOp::MulWide:
      case UOp::ImulWide: {
        u32 a = readSized(R_EAX, size);
        u32 b = readSized(u.src1, size);
        flags::WideMul wm =
            flags::mulWide(u.op == UOp::ImulWide, a, b, size);
        if (size == 1) {
            st.regs[R_EAX] = (st.regs[R_EAX] & 0xffff0000) |
                             ((wm.hi & 0xff) << 8) | (wm.lo & 0xff);
        } else if (size == 2) {
            st.regs[R_EAX] = (st.regs[R_EAX] & 0xffff0000) | wm.lo;
            st.regs[R_EDX] = (st.regs[R_EDX] & 0xffff0000) | wm.hi;
        } else {
            st.regs[R_EAX] = wm.lo;
            st.regs[R_EDX] = wm.hi;
        }
        if (u.writeFlags)
            setArith(wm.flags);
        break;
      }
      case UOp::DivWide:
      case UOp::IdivWide: {
        u32 b = readSized(u.src1, size);
        u32 hi = size == 1 ? ((st.regs[R_EAX] >> 8) & 0xff)
                           : readSized(R_EDX, size);
        u32 lo = readSized(R_EAX, size);
        flags::WideDiv wd =
            flags::divWide(u.op == UOp::IdivWide, hi, lo, b, size);
        if (wd.fault) {
            out.fault = true;
            return out;
        }
        if (size == 1) {
            st.regs[R_EAX] = (st.regs[R_EAX] & 0xffff0000) |
                             ((wd.rem & 0xff) << 8) | (wd.quot & 0xff);
        } else if (size == 2) {
            st.regs[R_EAX] = (st.regs[R_EAX] & 0xffff0000) | wd.quot;
            st.regs[R_EDX] = (st.regs[R_EDX] & 0xffff0000) | wd.rem;
        } else {
            st.regs[R_EAX] = wd.quot;
            st.regs[R_EDX] = wd.rem;
        }
        break;
      }

      case UOp::Mov:
        writeDst(st.regs[u.src1]);
        break;
      case UOp::Limm:
        writeDst(static_cast<u32>(u.imm));
        break;
      case UOp::Zext8:
        writeDst(st.regs[u.src1] & 0xff);
        break;
      case UOp::Zext16:
        writeDst(st.regs[u.src1] & 0xffff);
        break;
      case UOp::Sext8:
        writeDst(static_cast<u32>(sext(st.regs[u.src1] & 0xff, 8)));
        break;
      case UOp::Sext16:
        writeDst(static_cast<u32>(sext(st.regs[u.src1] & 0xffff, 16)));
        break;
      case UOp::ExtHi8:
        writeDst((st.regs[u.src1] >> 8) & 0xff);
        break;
      case UOp::Ins8:
        st.regs[u.dst] = (st.regs[u.dst] & 0xffffff00) |
                         (st.regs[u.src1] & 0xff);
        break;
      case UOp::InsHi8:
        st.regs[u.dst] = (st.regs[u.dst] & 0xffff00ff) |
                         ((st.regs[u.src1] & 0xff) << 8);
        break;
      case UOp::Ins16:
        st.regs[u.dst] = (st.regs[u.dst] & 0xffff0000) |
                         (st.regs[u.src1] & 0xffff);
        break;
      case UOp::Setcc:
        settleFlags(st);
        writeDst(x86::condTrue(static_cast<x86::Cond>(u.cond),
                               st.eflags)
                     ? 1
                     : 0);
        break;

      case UOp::Ld:
        writeDst(mem.read32(effAddr(u)));
        break;
      case UOp::Ldz8:
        writeDst(mem.read8(effAddr(u)));
        break;
      case UOp::Ldz16:
        writeDst(mem.read16(effAddr(u)));
        break;
      case UOp::Lds8:
        writeDst(static_cast<u32>(sext(mem.read8(effAddr(u)), 8)));
        break;
      case UOp::Lds16:
        writeDst(static_cast<u32>(sext(mem.read16(effAddr(u)), 16)));
        break;
      case UOp::St:
        mem.write32(effAddr(u), st.regs[u.dst]);
        break;
      case UOp::St8:
        mem.write8(effAddr(u), static_cast<u8>(st.regs[u.dst]));
        break;
      case UOp::St16:
        mem.write16(effAddr(u), static_cast<u16>(st.regs[u.dst]));
        break;
      case UOp::Lea:
        writeDst(static_cast<u32>(effAddr(u)));
        break;

      case UOp::LdF: {
        Addr a = effAddr(u);
        mem.fetchWindow(a, st.fregs[u.dst].data(), 16);
        break;
      }
      case UOp::StF: {
        Addr a = effAddr(u);
        mem.writeBlock(a, std::span<const u8>(st.fregs[u.dst].data(),
                                              16));
        break;
      }

      case UOp::Br: {
        bool taken;
        if (u.cond < 16) {
            settleFlags(st);
            taken = x86::condTrue(static_cast<x86::Cond>(u.cond),
                                  st.eflags);
        } else if (u.cond == static_cast<u8>(UCond::CsrCmplx)) {
            taken = csr::isComplex(st.csr);
        } else if (u.cond == static_cast<u8>(UCond::CsrCti)) {
            taken = csr::isCti(st.csr);
        } else {
            taken = true;
        }
        if (taken) {
            out.taken = true;
            out.target = u.target;
        }
        break;
      }
      case UOp::Jmp:
        out.taken = true;
        out.target = u.target;
        break;
      case UOp::Jr:
        out.taken = true;
        out.target = st.regs[u.src1];
        break;

      case UOp::Clc:
        settleFlags(st);
        st.eflags &= ~FLAG_CF;
        break;
      case UOp::Stc:
        settleFlags(st);
        st.eflags |= FLAG_CF;
        break;
      case UOp::Cmc:
        settleFlags(st);
        st.eflags ^= FLAG_CF;
        break;

      case UOp::XltX86: {
        if (!xlt)
            cdvm_panic("XLTx86 executed without a functional unit");
        st.csr = xlt->translate(st.fregs[u.src1].data(),
                                st.fregs[u.dst].data());
        break;
      }
      case UOp::MovCsr:
        writeDst(st.csr);
        break;

      case UOp::CpuidOp:
        st.regs[R_EAX] = 0x00000001;
        st.regs[R_EBX] = 0x43445648;
        st.regs[R_ECX] = 0x4d563836;
        st.regs[R_EDX] = 0x00000000;
        break;
      case UOp::RdtscOp:
        st.regs[R_EAX] = 0x5eed0000;
        st.regs[R_EDX] = 0;
        break;

      case UOp::ExitVm:
        out.vmExit = true;
        break;
      case UOp::Trap:
        out.fault = true;
        break;

      case UOp::NUM_UOPS:
        cdvm_panic("executing invalid micro-op");
    }
    return out;
}

UopExecutor::Outcome
UopExecutor::exec(const Uop &u)
{
    const Outcome o = step(u);
    settleFlags(st);
    return o;
}

BlockResult
UopExecutor::run(std::span<const Uop> uops, Addr fallthrough)
{
    BlockResult res;
    for (std::size_t i = 0; i < uops.size(); ++i) {
        const Outcome o = step(uops[i]);
        ++res.uopsRun;
        if (o.fault) {
            res.exit = BlockExit::Fault;
            res.faultIndex = static_cast<int>(i);
            res.faultX86Pc = uops[i].x86pc;
            break;
        }
        if (o.vmExit) {
            res.exit = BlockExit::VmExit;
            res.nextPc = uops[i].x86pc;
            break;
        }
        if (o.taken) {
            res.exit = BlockExit::Branch;
            res.nextPc = o.target;
            break;
        }
    }
    if (res.exit == BlockExit::FallThrough)
        res.nextPc = fallthrough;
    settleFlags(st);
    return res;
}

BlockResult
UopExecutor::run(const BoundOp *ops, std::span<const Uop> records,
                 Addr fallthrough)
{
    // Direct-threaded: every handler ends by jumping straight to the
    // next op's handler. Table order is the Handler enum's.
    static const void *const table[] = {
#define CDVM_HANDLER_LABEL(name) &&h_##name,
        CDVM_BOUND_HANDLERS(CDVM_HANDLER_LABEL)
#undef CDVM_HANDLER_LABEL
    };
    static_assert(std::size(table) == NUM_HANDLERS);

    // EFLAGS and the pending record live in locals for the whole
    // body: no store to a guest register can alias them.
    u32 *const r = st.regs.data();
    u32 fl = st.eflags;
    PendingFlags pf = st.pending;
    const BoundOp *op = ops;
    BlockResult res;

    using Kind = PendingFlags::Kind;
    auto defer = [&pf](Kind k, u32 a, u32 b) {
        pf = PendingFlags{k, 4, a, b, 0};
    };
    // Inc/Dec: replace every arithmetic flag but CF.
    auto incDec = [&](u32 f) {
        settle(fl, pf);
        f = (f & ~FLAG_CF) | (fl & FLAG_CF);
        fl = (fl & ~FLAG_ALL) | (f & FLAG_ALL);
    };
    auto index = [&] { return static_cast<std::size_t>(op - ops); };

#define CDVM_NEXT()                                                      \
    do {                                                                 \
        ++op;                                                            \
        goto *table[op->handler];                                        \
    } while (0)

    goto *table[op->handler];

  h_End:
    res.nextPc = fallthrough;
    res.uopsRun = static_cast<unsigned>(index());
    goto done;

  h_Fallback: {
    const Uop &u = records[index()];
    st.eflags = fl;
    st.pending = pf;
    const Outcome o = step(u);
    fl = st.eflags;
    pf = st.pending;
    if (o.fault)
        goto fault;
    if (o.vmExit) {
        res.exit = BlockExit::VmExit;
        res.nextPc = u.x86pc;
        goto left;
    }
    if (o.taken) {
        res.nextPc = o.target;
        goto branch;
    }
    CDVM_NEXT();
  }

  h_Limm:
    r[op->dst] = op->imm;
    CDVM_NEXT();
  h_Mov:
    r[op->dst] = r[op->src1];
    CDVM_NEXT();
  h_Zext8:
    r[op->dst] = r[op->src1] & 0xff;
    CDVM_NEXT();
  h_Ins8:
    r[op->dst] = (r[op->dst] & 0xffffff00) | (r[op->src1] & 0xff);
    CDVM_NEXT();
  h_InsHi8:
    r[op->dst] = (r[op->dst] & 0xffff00ff) | ((r[op->src1] & 0xff) << 8);
    CDVM_NEXT();
  h_Ins16:
    r[op->dst] = (r[op->dst] & 0xffff0000) | (r[op->src1] & 0xffff);
    CDVM_NEXT();

  h_AddRR:
    r[op->dst] = r[op->src1] + r[op->src2];
    CDVM_NEXT();
  h_AddRI:
    r[op->dst] = r[op->src1] + op->imm;
    CDVM_NEXT();
  h_AddRRF: {
    const u32 a = r[op->src1], b = r[op->src2];
    defer(Kind::Add, a, b);
    r[op->dst] = a + b;
    CDVM_NEXT();
  }
  h_AddRR2:
    r[op->dst] = (r[op->src1] + r[op->src2]) & 0xffff;
    CDVM_NEXT();
  h_SubRI:
    r[op->dst] = r[op->src1] - op->imm;
    CDVM_NEXT();
  h_AndRR:
    r[op->dst] = r[op->src1] & r[op->src2];
    CDVM_NEXT();
  h_AndRI:
    r[op->dst] = r[op->src1] & op->imm;
    CDVM_NEXT();
  h_OrRR:
    r[op->dst] = r[op->src1] | r[op->src2];
    CDVM_NEXT();
  h_OrRIF: {
    const u32 v = r[op->src1] | op->imm;
    defer(Kind::Logic, v, 0);
    r[op->dst] = v;
    CDVM_NEXT();
  }
  h_XorRR:
    r[op->dst] = r[op->src1] ^ r[op->src2];
    CDVM_NEXT();
  h_XorRRF: {
    const u32 v = r[op->src1] ^ r[op->src2];
    defer(Kind::Logic, v, 0);
    r[op->dst] = v;
    CDVM_NEXT();
  }
  h_CmpRR:
    defer(Kind::Sub, r[op->src1], r[op->src2]);
    CDVM_NEXT();
  h_CmpRI:
    defer(Kind::Sub, r[op->src1], op->imm);
    CDVM_NEXT();
  h_IncF: {
    u32 v;
    incDec(flags::add(r[op->src1], 1, 0, 4, v));
    r[op->dst] = v;
    CDVM_NEXT();
  }
  h_DecF: {
    u32 v;
    incDec(flags::sub(r[op->src1], 1, 0, 4, v));
    r[op->dst] = v;
    CDVM_NEXT();
  }
  h_Neg:
    r[op->dst] = 0 - r[op->src1];
    CDVM_NEXT();
  h_ShlRI:
    r[op->dst] = r[op->src1] << op->shift;
    CDVM_NEXT();
  h_ShrRI:
    r[op->dst] = r[op->src1] >> op->shift;
    CDVM_NEXT();
  h_ImulRI: {
    u32 f;
    r[op->dst] = flags::imulTrunc(r[op->src1], op->imm, 4, f);
    CDVM_NEXT();
  }
  h_DivWide: {
    const flags::WideDiv wd =
        flags::divWide(false, r[R_EDX], r[R_EAX], r[op->src1], 4);
    if (wd.fault)
        goto fault;
    r[R_EAX] = wd.quot;
    r[R_EDX] = wd.rem;
    CDVM_NEXT();
  }
  h_Setcc:
    settle(fl, pf);
    r[op->dst] = x86::condTrue(static_cast<x86::Cond>(op->cond), fl);
    CDVM_NEXT();

  h_LdB:
    r[op->dst] = mem.read32(op->imm + r[op->src1]);
    CDVM_NEXT();
  h_LdBI:
    r[op->dst] = mem.read32(op->imm + r[op->src1] +
                            (r[op->src2] << op->shift));
    CDVM_NEXT();
  h_StB:
    mem.write32(op->imm + r[op->src1], r[op->dst]);
    CDVM_NEXT();
  h_StBI:
    mem.write32(op->imm + r[op->src1] + (r[op->src2] << op->shift),
                r[op->dst]);
    CDVM_NEXT();
  h_LeaBI:
    r[op->dst] = op->imm + r[op->src1] + (r[op->src2] << op->shift);
    CDVM_NEXT();

  h_Br:
    settle(fl, pf);
    if (x86::condTrue(static_cast<x86::Cond>(op->cond), fl)) {
        res.nextPc = op->target;
        goto branch;
    }
    CDVM_NEXT();

#undef CDVM_NEXT

  fault:
    res.exit = BlockExit::Fault;
    res.faultIndex = static_cast<int>(index());
    res.faultX86Pc = records[index()].x86pc;
    goto left;
  branch:
    res.exit = BlockExit::Branch;
  left:
    res.uopsRun = static_cast<unsigned>(index()) + 1;
  done:
    st.eflags = fl;
    st.pending = pf;
    settleFlags(st);
    return res;
}

} // namespace cdvm::uops

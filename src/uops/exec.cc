#include "uops/exec.hh"

#include <cassert>

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

/** Compute the flags the pending record owes, if any. */
inline void
settleFlags(UState &st)
{
    PendingFlags &p = st.pending;
    if (p.kind == PendingFlags::Kind::None)
        return;
    u32 r;
    const u32 f = p.kind == PendingFlags::Kind::Add
                      ? flags::add(p.a, p.b, p.carry, p.size, r)
                  : p.kind == PendingFlags::Kind::Sub
                      ? flags::sub(p.a, p.b, p.carry, p.size, r)
                      : flags::logic(p.a, p.size);
    st.eflags = (st.eflags & ~FLAG_ALL) | (f & FLAG_ALL);
    p.kind = PendingFlags::Kind::None;
}

} // namespace

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

} // namespace cdvm::uops

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

    auto setArith = [&](u32 f) {
        st.eflags = (st.eflags & ~FLAG_ALL) | (f & FLAG_ALL);
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
        u32 a = readSized(u.src1, size);
        u32 b = srcB(size);
        u32 cin = (u.op == UOp::Adc && (st.eflags & FLAG_CF)) ? 1 : 0;
        u32 r;
        u32 f = flags::add(a, b, cin, size, r);
        if (u.writeFlags)
            setArith(f);
        writeDst(r);
        break;
      }
      case UOp::Sub:
      case UOp::Sbb: {
        u32 a = readSized(u.src1, size);
        u32 b = srcB(size);
        u32 bin = (u.op == UOp::Sbb && (st.eflags & FLAG_CF)) ? 1 : 0;
        u32 r;
        u32 f = flags::sub(a, b, bin, size, r);
        if (u.writeFlags)
            setArith(f);
        writeDst(r);
        break;
      }
      case UOp::Cmp: {
        u32 r;
        setArith(flags::sub(readSized(u.src1, size), srcB(size), 0,
                            size, r));
        break;
      }
      case UOp::And:
      case UOp::Or:
      case UOp::Xor: {
        u32 a = readSized(u.src1, size);
        u32 b = srcB(size);
        u32 r = u.op == UOp::And ? (a & b)
                                 : u.op == UOp::Or ? (a | b) : (a ^ b);
        r = flags::trunc(r, size);
        if (u.writeFlags)
            setArith(flags::logic(r, size));
        writeDst(r);
        break;
      }
      case UOp::Tst: {
        u32 r = flags::trunc(readSized(u.src1, size) & srcB(size), size);
        setArith(flags::logic(r, size));
        break;
      }
      case UOp::Inc:
      case UOp::Dec: {
        u32 a = readSized(u.src1, size);
        u32 r;
        u32 f = u.op == UOp::Inc ? flags::add(a, 1, 0, size, r)
                                 : flags::sub(a, 1, 0, size, r);
        if (u.writeFlags) {
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
        u32 r;
        u32 f = flags::sub(0, readSized(u.src1, size), 0, size, r);
        if (u.writeFlags)
            setArith(f);
        writeDst(r);
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
        st.eflags &= ~FLAG_CF;
        break;
      case UOp::Stc:
        st.eflags |= FLAG_CF;
        break;
      case UOp::Cmc:
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
    return step(u);
}

BlockResult
UopExecutor::run(std::span<const Uop> uops, Addr fallthrough)
{
    BlockResult res;
    for (std::size_t i = 0; i < uops.size(); ++i) {
        Outcome o = step(uops[i]);
        ++res.uopsRun;
        if (o.fault) {
            res.exit = BlockExit::Fault;
            res.faultIndex = static_cast<int>(i);
            res.faultX86Pc = uops[i].x86pc;
            return res;
        }
        if (o.vmExit) {
            res.exit = BlockExit::VmExit;
            res.nextPc = uops[i].x86pc;
            return res;
        }
        if (o.taken) {
            res.exit = BlockExit::Branch;
            res.nextPc = o.target;
            return res;
        }
    }
    res.exit = BlockExit::FallThrough;
    res.nextPc = fallthrough;
    return res;
}

} // namespace cdvm::uops

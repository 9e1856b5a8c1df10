#include "x86/interp.hh"

#include <cassert>

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "x86/decode_cache.hh"
#include "x86/decoder.hh"
#include "x86/flags.hh"

namespace cdvm::x86
{

// --- CpuState ---------------------------------------------------------------

u32
CpuState::readReg(Reg r, unsigned size) const
{
    if (size == 1) {
        if (r >= 4) // AH/CH/DH/BH
            return (regs[r - 4] >> 8) & 0xff;
        return regs[r] & 0xff;
    }
    if (size == 2)
        return regs[r] & 0xffff;
    return regs[r];
}

void
CpuState::writeReg(Reg r, unsigned size, u32 v)
{
    if (size == 1) {
        if (r >= 4) { // AH/CH/DH/BH
            Reg base = static_cast<Reg>(r - 4);
            regs[base] = (regs[base] & 0xffff00ff) | ((v & 0xff) << 8);
        } else {
            regs[r] = (regs[r] & 0xffffff00) | (v & 0xff);
        }
        return;
    }
    if (size == 2) {
        regs[r] = (regs[r] & 0xffff0000) | (v & 0xffff);
        return;
    }
    regs[r] = v;
}

bool
CpuState::sameArchState(const CpuState &o) const
{
    return regs == o.regs && eip == o.eip &&
           (eflags & FLAG_ALL) == (o.eflags & FLAG_ALL);
}

// --- Interpreter --------------------------------------------------------------

Addr
Interpreter::effAddr(const MemRef &m) const
{
    u32 a = static_cast<u32>(m.disp);
    if (m.hasBase())
        a += cpu.regs[m.base];
    if (m.hasIndex())
        a += cpu.regs[m.index] * m.scale;
    return a;
}

u32
Interpreter::readOperand(const Operand &o, unsigned size)
{
    switch (o.kind) {
      case Operand::Kind::Reg:
        return cpu.readReg(o.reg, size);
      case Operand::Kind::Imm:
        return flags::trunc(static_cast<u32>(o.imm), size);
      case Operand::Kind::Mem: {
        Addr a = effAddr(o.mem);
        switch (size) {
          case 1: return mem.read8(a);
          case 2: return mem.read16(a);
          default: return mem.read32(a);
        }
      }
      case Operand::Kind::None:
        break;
    }
    cdvm_panic("read of empty operand");
}

void
Interpreter::writeOperand(const Operand &o, unsigned size, u32 v)
{
    switch (o.kind) {
      case Operand::Kind::Reg:
        cpu.writeReg(o.reg, size, v);
        return;
      case Operand::Kind::Mem: {
        Addr a = effAddr(o.mem);
        switch (size) {
          case 1: mem.write8(a, static_cast<u8>(v)); return;
          case 2: mem.write16(a, static_cast<u16>(v)); return;
          default: mem.write32(a, v); return;
        }
      }
      default:
        cdvm_panic("write to non-lvalue operand");
    }
}

StepResult
Interpreter::step()
{
    if (dcache) {
        const DecodeResult &dr = dcache->fetchDecode(mem, cpu.eip);
        if (!dr.ok) {
            StepResult sr;
            sr.exit = Exit::DecodeFault;
            return sr;
        }
        return execute(dr.insn);
    }
    u8 window[MAX_INSN_LEN + 1];
    mem.fetchWindow(cpu.eip, window, sizeof(window));
    DecodeResult dr = decode(std::span<const u8>(window, sizeof(window)),
                             cpu.eip);
    if (!dr.ok) {
        StepResult sr;
        sr.exit = Exit::DecodeFault;
        return sr;
    }
    return execute(dr.insn);
}

StepResult
Interpreter::execute(const Insn &in)
{
    StepResult sr;
    sr.insn = in;
    const unsigned size = in.opSize;
    u32 next_eip = static_cast<u32>(in.nextPc());

    // Replace only the arithmetic flag bits; keep system bits.
    auto setArith = [&](u32 f) {
        cpu.eflags = (cpu.eflags & ~FLAG_ALL) | (f & FLAG_ALL);
    };

    switch (in.op) {
      case Op::Add:
      case Op::Adc: {
        u32 a = readOperand(in.dst, size);
        u32 b = readOperand(in.src, size);
        u32 cin = (in.op == Op::Adc && cpu.flag(FLAG_CF)) ? 1 : 0;
        u32 r;
        setArith(flags::add(a, b, cin, size, r));
        writeOperand(in.dst, size, r);
        break;
      }
      case Op::Sub:
      case Op::Sbb: {
        u32 a = readOperand(in.dst, size);
        u32 b = readOperand(in.src, size);
        u32 bin = (in.op == Op::Sbb && cpu.flag(FLAG_CF)) ? 1 : 0;
        u32 r;
        setArith(flags::sub(a, b, bin, size, r));
        writeOperand(in.dst, size, r);
        break;
      }
      case Op::Cmp: {
        u32 a = readOperand(in.dst, size);
        u32 b = readOperand(in.src, size);
        u32 r;
        setArith(flags::sub(a, b, 0, size, r));
        break;
      }
      case Op::And:
      case Op::Or:
      case Op::Xor: {
        u32 a = readOperand(in.dst, size);
        u32 b = readOperand(in.src, size);
        u32 r = in.op == Op::And ? (a & b)
                                 : in.op == Op::Or ? (a | b) : (a ^ b);
        r = flags::trunc(r, size);
        setArith(flags::logic(r, size));
        writeOperand(in.dst, size, r);
        break;
      }
      case Op::Test: {
        u32 a = readOperand(in.dst, size);
        u32 b = readOperand(in.src, size);
        setArith(flags::logic(flags::trunc(a & b, size), size));
        break;
      }
      case Op::Inc:
      case Op::Dec: {
        u32 a = readOperand(in.dst, size);
        u32 r;
        u32 f = in.op == Op::Inc ? flags::add(a, 1, 0, size, r)
                                 : flags::sub(a, 1, 0, size, r);
        // INC/DEC preserve CF.
        f = (f & ~FLAG_CF) | (cpu.eflags & FLAG_CF);
        setArith(f);
        writeOperand(in.dst, size, r);
        break;
      }
      case Op::Not: {
        u32 a = readOperand(in.dst, size);
        writeOperand(in.dst, size, flags::trunc(~a, size));
        break; // NOT writes no flags
      }
      case Op::Neg: {
        u32 a = readOperand(in.dst, size);
        u32 r;
        u32 f = flags::sub(0, a, 0, size, r);
        setArith(f);
        writeOperand(in.dst, size, r);
        break;
      }
      case Op::Shl:
      case Op::Shr:
      case Op::Sar:
      case Op::Rol:
      case Op::Ror: {
        u32 a = readOperand(in.dst, size);
        u32 count = in.src.isReg() ? cpu.readReg(ECX, 1)
                                   : static_cast<u32>(in.src.imm);
        flags::ShiftResult out =
            flags::shift(in.op, a, count, size, cpu.eflags & FLAG_ALL);
        setArith(out.eflags);
        writeOperand(in.dst, size, out.result);
        break;
      }
      case Op::Imul: {
        // Two- or three-operand signed multiply.
        u32 a = readOperand(in.src, size);
        u32 b = in.src2.isNone() ? cpu.readReg(in.dst.reg, size)
                                 : flags::trunc(
                                       static_cast<u32>(in.src2.imm), size);
        u32 f;
        u32 r = flags::imulTrunc(a, b, size, f);
        setArith(f);
        cpu.writeReg(in.dst.reg, size, r);
        break;
      }
      case Op::MulA:
      case Op::ImulA: {
        u32 b = readOperand(in.src, size);
        u32 a = cpu.readReg(EAX, size);
        flags::WideMul wm =
            flags::mulWide(in.op == Op::ImulA, a, b, size);
        if (size == 1) {
            // AX = AH:AL result.
            cpu.writeReg(EAX, 2, (wm.hi << 8) | wm.lo);
        } else {
            cpu.writeReg(EAX, size, wm.lo);
            cpu.writeReg(EDX, size, wm.hi);
        }
        setArith(wm.flags);
        break;
      }
      case Op::DivA:
      case Op::IdivA: {
        u32 b = readOperand(in.src, size);
        u32 hi = size == 1 ? cpu.readReg(static_cast<Reg>(4), 1) // AH
                           : cpu.readReg(EDX, size);
        u32 lo = cpu.readReg(EAX, size);
        flags::WideDiv wd =
            flags::divWide(in.op == Op::IdivA, hi, lo, b, size);
        if (wd.fault) {
            sr.exit = Exit::Trap;
            return sr;
        }
        if (size == 1) {
            cpu.writeReg(EAX, 1, wd.quot);
            cpu.writeReg(static_cast<Reg>(4), 1, wd.rem); // AH
        } else {
            cpu.writeReg(EAX, size, wd.quot);
            cpu.writeReg(EDX, size, wd.rem);
        }
        break; // flags undefined after div: leave unchanged (documented)
      }
      case Op::Mov: {
        u32 v = readOperand(in.src, size);
        writeOperand(in.dst, size, v);
        break;
      }
      case Op::Movzx: {
        u32 v = readOperand(in.src, size); // size = source size
        cpu.writeReg(in.dst.reg, 4, v);
        break;
      }
      case Op::Movsx: {
        u32 v = readOperand(in.src, size);
        cpu.writeReg(in.dst.reg, 4,
                     static_cast<u32>(sext(v, size * 8)));
        break;
      }
      case Op::Lea: {
        cpu.writeReg(in.dst.reg, 4, static_cast<u32>(effAddr(in.src.mem)));
        break;
      }
      case Op::Xchg: {
        u32 a = readOperand(in.dst, size);
        u32 b = readOperand(in.src, size);
        writeOperand(in.dst, size, b);
        writeOperand(in.src, size, a);
        break;
      }
      case Op::Push: {
        u32 v = readOperand(in.src, 4);
        cpu.regs[ESP] -= 4;
        mem.write32(cpu.regs[ESP], v);
        break;
      }
      case Op::Pop: {
        u32 v = mem.read32(cpu.regs[ESP]);
        cpu.regs[ESP] += 4;
        writeOperand(in.dst, 4, v);
        break;
      }
      case Op::Cdq:
        cpu.regs[EDX] = (cpu.regs[EAX] & 0x80000000) ? 0xffffffff : 0;
        break;
      case Op::Jcc:
        sr.taken = condTrue(in.cond, cpu.eflags);
        if (sr.taken)
            next_eip = static_cast<u32>(in.target);
        break;
      case Op::Jmp:
        sr.taken = true;
        next_eip = static_cast<u32>(in.target);
        break;
      case Op::JmpInd:
        sr.taken = true;
        next_eip = readOperand(in.src, 4);
        break;
      case Op::Call:
        sr.taken = true;
        cpu.regs[ESP] -= 4;
        mem.write32(cpu.regs[ESP], next_eip);
        next_eip = static_cast<u32>(in.target);
        break;
      case Op::CallInd: {
        sr.taken = true;
        u32 t = readOperand(in.src, 4);
        cpu.regs[ESP] -= 4;
        mem.write32(cpu.regs[ESP], next_eip);
        next_eip = t;
        break;
      }
      case Op::Ret: {
        sr.taken = true;
        next_eip = mem.read32(cpu.regs[ESP]);
        cpu.regs[ESP] += 4 + static_cast<u32>(in.src.isImm() ? in.src.imm
                                                             : 0);
        break;
      }
      case Op::Setcc:
        writeOperand(in.dst, 1, condTrue(in.cond, cpu.eflags) ? 1 : 0);
        break;
      case Op::Clc:
        cpu.setFlag(FLAG_CF, false);
        break;
      case Op::Stc:
        cpu.setFlag(FLAG_CF, true);
        break;
      case Op::Cmc:
        cpu.setFlag(FLAG_CF, !cpu.flag(FLAG_CF));
        break;
      case Op::Nop:
        break;
      case Op::Hlt:
        sr.exit = Exit::Halted;
        cpu.eip = static_cast<u32>(in.pc); // halt does not advance
        ++cpu.icount;
        return sr;
      case Op::Int3:
        sr.exit = Exit::Trap;
        return sr;
      case Op::Cpuid:
        // Deterministic fixed identification values.
        cpu.regs[EAX] = 0x00000001;
        cpu.regs[EBX] = 0x43445648; // "CDVH"
        cpu.regs[ECX] = 0x4d563836; // "MV86"
        cpu.regs[EDX] = 0x00000000;
        break;
      case Op::Rdtsc:
        // Deterministic fixed value: translated and interpreted
        // executions must agree bit-for-bit in differential tests.
        cpu.regs[EAX] = 0x5eed0000;
        cpu.regs[EDX] = 0;
        break;
      case Op::Invalid:
      case Op::NUM_OPS:
        cdvm_panic("executing invalid instruction");
    }

    cpu.eip = next_eip;
    ++cpu.icount;
    return sr;
}

Exit
Interpreter::run(InstCount max_insns)
{
    InstCount limit = cpu.icount + max_insns;
    while (cpu.icount < limit) {
        StepResult sr = step();
        if (sr.exit != Exit::None)
            return sr.exit;
    }
    return Exit::None;
}

} // namespace cdvm::x86

#include "uops/crack.hh"

#include <cassert>

#include "common/logging.hh"

namespace cdvm::uops
{

using x86::Insn;
using x86::MemRef;
using x86::Op;
using x86::Operand;

namespace
{

/** Crack-time emitter with per-instruction temp allocation. */
class Cracker
{
  public:
    explicit Cracker(const Insn &insn) : in(insn) {}

    CrackResult
    run()
    {
        crackInsn();
        for (Uop &u : out)
            u.x86pc = in.pc;
        CrackResult res;
        res.complex = in.isComplex() || encodedBytes(out) > 16;
        res.uops = std::move(out);
        return res;
    }

  private:
    const Insn &in;
    UopVec out;
    u8 next_temp = R_T0;

    u8
    temp()
    {
        assert(next_temp <= R_T3 && "out of crack temporaries");
        return next_temp++;
    }

    Uop &
    emit(UOp op)
    {
        out.push_back(Uop{});
        out.back().op = op;
        return out.back();
    }

    /** Fill memory addressing fields from a MemRef. */
    static void
    setMem(Uop &u, const MemRef &m)
    {
        u.src1 = m.hasBase() ? static_cast<u8>(m.base) : UREG_NONE;
        u.src2 = m.hasIndex() ? static_cast<u8>(m.index) : UREG_NONE;
        u.scale = m.scale;
        u.imm = m.disp;
        u.hasImm = true;
    }

    /** Sized load opcode (zero-extending). */
    static UOp
    loadOp(unsigned size)
    {
        switch (size) {
          case 1: return UOp::Ldz8;
          case 2: return UOp::Ldz16;
          default: return UOp::Ld;
        }
    }

    static UOp
    storeOp(unsigned size)
    {
        switch (size) {
          case 1: return UOp::St8;
          case 2: return UOp::St16;
          default: return UOp::St;
        }
    }

    /** Emit a load of a memory operand into a temp; returns the temp. */
    u8
    emitLoad(const MemRef &m, unsigned size)
    {
        u8 t = temp();
        Uop &u = emit(loadOp(size));
        u.dst = t;
        setMem(u, m);
        return t;
    }

    /** Emit a store of reg to memory at size. */
    void
    emitStore(const MemRef &m, unsigned size, u8 reg)
    {
        Uop &u = emit(storeOp(size));
        u.dst = reg; // data register
        setMem(u, m);
    }

    /**
     * Materialize the value of a source operand at the instruction's
     * operand size. Returns a register whose low `size` bytes hold the
     * value. May emit Ld / Limm / ExtHi8 micro-ops.
     */
    u8
    srcValue(const Operand &o, unsigned size)
    {
        switch (o.kind) {
          case Operand::Kind::Reg:
            if (size == 1 && o.reg >= 4) {
                // AH/CH/DH/BH: extract bits 15:8 of the base register.
                u8 t = temp();
                Uop &u = emit(UOp::ExtHi8);
                u.dst = t;
                u.src1 = static_cast<u8>(o.reg - 4);
                return t;
            }
            return static_cast<u8>(o.reg);
          case Operand::Kind::Imm: {
            u8 t = temp();
            Uop &u = emit(UOp::Limm);
            u.dst = t;
            u.hasImm = true;
            u.imm = static_cast<i32>(o.imm);
            return t;
          }
          case Operand::Kind::Mem:
            return emitLoad(o.mem, size);
          case Operand::Kind::None:
            break;
        }
        cdvm_panic("srcValue on empty operand");
    }

    /**
     * Write `val_reg` (a full register holding the sized result
     * zero-extended) back to the destination operand at size.
     */
    void
    writeDest(const Operand &o, unsigned size, u8 val_reg)
    {
        if (o.isMem()) {
            emitStore(o.mem, size, val_reg);
            return;
        }
        assert(o.isReg());
        if (size == 4) {
            if (val_reg != o.reg) {
                Uop &u = emit(UOp::Mov);
                u.dst = static_cast<u8>(o.reg);
                u.src1 = val_reg;
            }
            return;
        }
        if (size == 2) {
            Uop &u = emit(UOp::Ins16);
            u.dst = static_cast<u8>(o.reg);
            u.src1 = val_reg;
            return;
        }
        // size == 1
        if (o.reg >= 4) {
            Uop &u = emit(UOp::InsHi8);
            u.dst = static_cast<u8>(o.reg - 4);
            u.src1 = val_reg;
        } else {
            Uop &u = emit(UOp::Ins8);
            u.dst = static_cast<u8>(o.reg);
            u.src1 = val_reg;
        }
    }

    /**
     * Destination register for an ALU result: the architected register
     * itself when a direct full-width write is possible, else a temp
     * that writeDest later merges/stores.
     */
    u8
    aluDest(const Operand &o, unsigned size)
    {
        if (o.isReg() && size == 4)
            return static_cast<u8>(o.reg);
        return temp();
    }

    /** Standard two-operand ALU pattern (op dst, dst, src). */
    void
    twoOpAlu(UOp op, bool write_result, bool write_flags)
    {
        const unsigned size = in.opSize;
        u8 a = srcValue(in.dst, size);
        u8 b = srcValue(in.src, size);
        u8 d = write_result ? aluDest(in.dst, size) : UREG_NONE;
        Uop &u = emit(op);
        u.dst = d;
        u.src1 = a;
        u.src2 = b;
        u.size = static_cast<u8>(size);
        u.writeFlags = write_flags;
        // Immediate folding: if the second source came from a Limm we
        // just emitted, fold it into the ALU op.
        foldImmediate(u);
        if (write_result)
            writeDest(in.dst, size, d);
    }

    /**
     * If the ALU uop's src2 is the destination of the immediately
     * preceding Limm, fold the immediate into the ALU op and drop the
     * Limm. This mirrors how real crackers emit reg-imm micro-ops.
     */
    void
    foldImmediate(Uop &alu)
    {
        if (out.size() < 2)
            return;
        Uop &prev = out[out.size() - 2];
        if (prev.op != UOp::Limm || prev.dst != alu.src2)
            return;
        alu.src2 = UREG_NONE;
        alu.hasImm = true;
        alu.imm = prev.imm;
        // Remove the Limm (alu is out.back()).
        Uop saved = out.back();
        out.pop_back();
        out.pop_back();
        out.push_back(saved);
    }

    /** One-operand read-modify-write ALU (inc/dec/not/neg, shifts). */
    void
    oneOpAlu(UOp op, bool write_flags, const Operand *count = nullptr)
    {
        const unsigned size = in.opSize;
        u8 a = srcValue(in.dst, size);
        u8 d = aluDest(in.dst, size);
        u8 cnt = UREG_NONE;
        i32 cnt_imm = 0;
        bool has_cnt_imm = false;
        if (count) {
            if (count->isImm()) {
                has_cnt_imm = true;
                cnt_imm = static_cast<i32>(count->imm);
            } else {
                cnt = static_cast<u8>(x86::ECX); // count in CL
            }
        }
        Uop &u = emit(op);
        u.dst = d;
        u.src1 = a;
        u.src2 = cnt;
        u.size = static_cast<u8>(size);
        u.writeFlags = write_flags;
        u.hasImm = has_cnt_imm;
        u.imm = cnt_imm;
        writeDest(in.dst, size, d);
    }

    void
    crackInsn()
    {
        const unsigned size = in.opSize;
        switch (in.op) {
          case Op::Add: twoOpAlu(UOp::Add, true, true); return;
          case Op::Adc: twoOpAlu(UOp::Adc, true, true); return;
          case Op::Sub: twoOpAlu(UOp::Sub, true, true); return;
          case Op::Sbb: twoOpAlu(UOp::Sbb, true, true); return;
          case Op::And: twoOpAlu(UOp::And, true, true); return;
          case Op::Or: twoOpAlu(UOp::Or, true, true); return;
          case Op::Xor: twoOpAlu(UOp::Xor, true, true); return;
          case Op::Cmp: twoOpAlu(UOp::Cmp, false, true); return;
          case Op::Test: twoOpAlu(UOp::Tst, false, true); return;

          case Op::Inc: oneOpAlu(UOp::Inc, true); return;
          case Op::Dec: oneOpAlu(UOp::Dec, true); return;
          case Op::Not: oneOpAlu(UOp::Not, false); return;
          case Op::Neg: oneOpAlu(UOp::Neg, true); return;

          case Op::Shl: oneOpAlu(UOp::Shl, true, &in.src); return;
          case Op::Shr: oneOpAlu(UOp::Shr, true, &in.src); return;
          case Op::Sar: oneOpAlu(UOp::Sar, true, &in.src); return;
          case Op::Rol: oneOpAlu(UOp::Rol, true, &in.src); return;
          case Op::Ror: oneOpAlu(UOp::Ror, true, &in.src); return;

          case Op::Imul: {
            // dst_reg = src * (src2 imm | dst_reg)
            u8 a = srcValue(in.src, size);
            Uop &u = emit(UOp::Imul);
            u.dst = static_cast<u8>(in.dst.reg);
            u.size = static_cast<u8>(size);
            u.writeFlags = true;
            if (in.src2.isImm()) {
                u.src1 = a;
                u.hasImm = true;
                u.imm = static_cast<i32>(in.src2.imm);
            } else {
                u.src1 = static_cast<u8>(in.dst.reg);
                u.src2 = a;
            }
            return;
          }
          case Op::MulA:
          case Op::ImulA:
          case Op::DivA:
          case Op::IdivA: {
            u8 a = srcValue(in.src, size);
            UOp op = in.op == Op::MulA ? UOp::MulWide
                     : in.op == Op::ImulA ? UOp::ImulWide
                     : in.op == Op::DivA ? UOp::DivWide
                                         : UOp::IdivWide;
            Uop &u = emit(op);
            u.src1 = a;
            u.size = static_cast<u8>(size);
            u.writeFlags = in.op == Op::MulA || in.op == Op::ImulA;
            return;
          }

          case Op::Mov: {
            if (in.src.isImm() && in.dst.isReg() && size == 4) {
                Uop &u = emit(UOp::Limm);
                u.dst = static_cast<u8>(in.dst.reg);
                u.hasImm = true;
                u.imm = static_cast<i32>(in.src.imm);
                return;
            }
            if (in.src.isMem() && in.dst.isReg() && size == 4) {
                Uop &u = emit(UOp::Ld);
                u.dst = static_cast<u8>(in.dst.reg);
                setMem(u, in.src.mem);
                return;
            }
            if (in.src.isReg() && in.dst.isMem()) {
                u8 v = srcValue(in.src, size);
                emitStore(in.dst.mem, size, v);
                return;
            }
            u8 v = srcValue(in.src, size);
            writeDest(in.dst, size, v);
            return;
          }
          case Op::Movzx: {
            // in.opSize is the *source* size; dest is 32-bit.
            if (in.src.isMem()) {
                Uop &u = emit(size == 1 ? UOp::Ldz8 : UOp::Ldz16);
                u.dst = static_cast<u8>(in.dst.reg);
                setMem(u, in.src.mem);
                return;
            }
            u8 v = srcValue(in.src, size);
            Uop &u = emit(size == 1 ? UOp::Zext8 : UOp::Zext16);
            u.dst = static_cast<u8>(in.dst.reg);
            u.src1 = v;
            return;
          }
          case Op::Movsx: {
            if (in.src.isMem()) {
                Uop &u = emit(size == 1 ? UOp::Lds8 : UOp::Lds16);
                u.dst = static_cast<u8>(in.dst.reg);
                setMem(u, in.src.mem);
                return;
            }
            u8 v = srcValue(in.src, size);
            Uop &u = emit(size == 1 ? UOp::Sext8 : UOp::Sext16);
            u.dst = static_cast<u8>(in.dst.reg);
            u.src1 = v;
            return;
          }
          case Op::Lea: {
            Uop &u = emit(UOp::Lea);
            u.dst = static_cast<u8>(in.dst.reg);
            setMem(u, in.src.mem);
            return;
          }
          case Op::Xchg: {
            u8 a = srcValue(in.dst, size);
            u8 b = srcValue(in.src, size);
            u8 t = temp();
            Uop &m = emit(UOp::Mov);
            m.dst = t;
            m.src1 = a;
            writeDest(in.dst, size, b);
            writeDest(in.src, size, t);
            return;
          }

          case Op::Push: {
            // ST value, [esp-4] ; SUB esp, 4 (no flags).
            u8 v = srcValue(in.src, 4);
            Uop &st = emit(UOp::St);
            st.dst = v;
            st.src1 = R_ESP;
            st.hasImm = true;
            st.imm = -4;
            Uop &sub = emit(UOp::Sub);
            sub.dst = R_ESP;
            sub.src1 = R_ESP;
            sub.hasImm = true;
            sub.imm = 4;
            return;
          }
          case Op::Pop: {
            if (in.dst.isReg()) {
                Uop &ld = emit(UOp::Ld);
                ld.dst = static_cast<u8>(in.dst.reg);
                ld.src1 = R_ESP;
                ld.hasImm = true;
                ld.imm = 0;
                Uop &add = emit(UOp::Add);
                add.dst = R_ESP;
                add.src1 = R_ESP;
                add.hasImm = true;
                add.imm = 4;
                // pop esp: the loaded value wins; re-emit nothing (the
                // Add above would corrupt it). Handle by ordering: x86
                // pop esp writes the loaded value.
                if (in.dst.reg == x86::ESP)
                    out.pop_back();
                return;
            }
            // pop mem: load, bump esp, store.
            u8 t = temp();
            Uop &ld = emit(UOp::Ld);
            ld.dst = t;
            ld.src1 = R_ESP;
            ld.hasImm = true;
            ld.imm = 0;
            Uop &add = emit(UOp::Add);
            add.dst = R_ESP;
            add.src1 = R_ESP;
            add.hasImm = true;
            add.imm = 4;
            emitStore(in.dst.mem, 4, t);
            return;
          }

          case Op::Cdq: {
            Uop &m = emit(UOp::Mov);
            m.dst = R_EDX;
            m.src1 = R_EAX;
            Uop &s = emit(UOp::Sar);
            s.dst = R_EDX;
            s.src1 = R_EDX;
            s.hasImm = true;
            s.imm = 31;
            s.writeFlags = false;
            return;
          }

          case Op::Jcc: {
            Uop &u = emit(UOp::Br);
            u.cond = static_cast<u8>(in.cond);
            u.target = in.target;
            return;
          }
          case Op::Jmp: {
            Uop &u = emit(UOp::Jmp);
            u.target = in.target;
            return;
          }
          case Op::JmpInd: {
            u8 t = srcValue(in.src, 4);
            Uop &u = emit(UOp::Jr);
            u.src1 = t;
            return;
          }
          case Op::Call: {
            // LIMM t, ret ; ST t,[esp-4] ; SUB esp,4 ; JMP target.
            u8 t = temp();
            Uop &li = emit(UOp::Limm);
            li.dst = t;
            li.hasImm = true;
            li.imm = static_cast<i32>(in.nextPc());
            Uop &st = emit(UOp::St);
            st.dst = t;
            st.src1 = R_ESP;
            st.hasImm = true;
            st.imm = -4;
            Uop &sub = emit(UOp::Sub);
            sub.dst = R_ESP;
            sub.src1 = R_ESP;
            sub.hasImm = true;
            sub.imm = 4;
            Uop &j = emit(UOp::Jmp);
            j.target = in.target;
            return;
          }
          case Op::CallInd: {
            u8 tgt = srcValue(in.src, 4);
            if (tgt == R_ESP) {
                // call *%esp jumps to ESP's value *before* the push.
                u8 c = temp();
                Uop &mv = emit(UOp::Mov);
                mv.dst = c;
                mv.src1 = R_ESP;
                tgt = c;
            }
            u8 t = temp();
            Uop &li = emit(UOp::Limm);
            li.dst = t;
            li.hasImm = true;
            li.imm = static_cast<i32>(in.nextPc());
            Uop &st = emit(UOp::St);
            st.dst = t;
            st.src1 = R_ESP;
            st.hasImm = true;
            st.imm = -4;
            Uop &sub = emit(UOp::Sub);
            sub.dst = R_ESP;
            sub.src1 = R_ESP;
            sub.hasImm = true;
            sub.imm = 4;
            Uop &j = emit(UOp::Jr);
            j.src1 = tgt;
            return;
          }
          case Op::Ret: {
            u8 t = temp();
            Uop &ld = emit(UOp::Ld);
            ld.dst = t;
            ld.src1 = R_ESP;
            ld.hasImm = true;
            ld.imm = 0;
            Uop &add = emit(UOp::Add);
            add.dst = R_ESP;
            add.src1 = R_ESP;
            add.hasImm = true;
            // Wraps like the 32-bit ESP update (operand sweeps reach
            // INT32_MAX, where an i32 sum would overflow).
            add.imm = static_cast<i32>(static_cast<u32>(
                4 + (in.src.isImm() ? in.src.imm : 0)));
            Uop &j = emit(UOp::Jr);
            j.src1 = t;
            return;
          }

          case Op::Setcc: {
            u8 t = temp();
            Uop &u = emit(UOp::Setcc);
            u.dst = t;
            u.cond = static_cast<u8>(in.cond);
            writeDest(in.dst, 1, t);
            return;
          }
          case Op::Clc: emit(UOp::Clc); return;
          case Op::Stc: emit(UOp::Stc); return;
          case Op::Cmc: emit(UOp::Cmc); return;
          case Op::Nop: emit(UOp::Nop); return;
          case Op::Hlt: emit(UOp::ExitVm); return;
          case Op::Int3: emit(UOp::Trap); return;
          case Op::Cpuid: emit(UOp::CpuidOp); return;
          case Op::Rdtsc: emit(UOp::RdtscOp); return;

          case Op::Invalid:
          case Op::NUM_OPS:
            cdvm_panic("cracking invalid instruction");
        }
    }
};

} // namespace

CrackResult
crack(const Insn &in)
{
    return Cracker(in).run();
}

CrackResult
crackAll(const std::vector<Insn> &insns)
{
    CrackResult all;
    for (const Insn &in : insns) {
        CrackResult one = crack(in);
        all.complex = all.complex || one.complex;
        for (Uop &u : one.uops)
            all.uops.push_back(u);
    }
    return all;
}

} // namespace cdvm::uops

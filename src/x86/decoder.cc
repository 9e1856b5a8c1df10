#include "x86/decoder.hh"

#include <cassert>

#include "common/bitfield.hh"

namespace cdvm::x86
{

namespace
{

/** Cursor over the instruction byte window. */
class Cursor
{
  public:
    Cursor(std::span<const u8> w) : win(w) {}

    bool
    haveBytes(unsigned n) const
    {
        return pos + n <= win.size();
    }

    bool
    fetch8(u8 &out)
    {
        if (!haveBytes(1))
            return false;
        out = win[pos++];
        return true;
    }

    bool
    fetch16(u16 &out)
    {
        if (!haveBytes(2))
            return false;
        out = static_cast<u16>(win[pos] | (win[pos + 1] << 8));
        pos += 2;
        return true;
    }

    bool
    fetch32(u32 &out)
    {
        if (!haveBytes(4))
            return false;
        out = static_cast<u32>(win[pos]) |
              (static_cast<u32>(win[pos + 1]) << 8) |
              (static_cast<u32>(win[pos + 2]) << 16) |
              (static_cast<u32>(win[pos + 3]) << 24);
        pos += 4;
        return true;
    }

    unsigned consumed() const { return pos; }

  private:
    std::span<const u8> win;
    unsigned pos = 0;
};

struct ModRm
{
    Operand rm;    //!< register or memory operand
    u8 regField;   //!< the 3-bit reg field (register number or opcode ext)
};

/** Decode ModRM (+ optional SIB and displacement). */
bool
decodeModRm(Cursor &cur, ModRm &out, const char *&err)
{
    u8 modrm = 0;
    if (!cur.fetch8(modrm)) {
        err = "truncated modrm";
        return false;
    }
    const u8 mod = static_cast<u8>(bits(modrm, 7, 6));
    out.regField = static_cast<u8>(bits(modrm, 5, 3));
    const u8 rm = static_cast<u8>(bits(modrm, 2, 0));

    if (mod == 3) {
        out.rm = Operand::makeReg(static_cast<Reg>(rm));
        return true;
    }

    MemRef mem;
    if (rm == 4) {
        // SIB byte follows.
        u8 sib = 0;
        if (!cur.fetch8(sib)) {
            err = "truncated sib";
            return false;
        }
        const u8 scale = static_cast<u8>(bits(sib, 7, 6));
        const u8 index = static_cast<u8>(bits(sib, 5, 3));
        const u8 base = static_cast<u8>(bits(sib, 2, 0));
        mem.scale = static_cast<u8>(1u << scale);
        if (index != 4)
            mem.index = static_cast<Reg>(index);
        if (base == 5 && mod == 0) {
            // No base, disp32 follows (handled below via mod==0 special).
            u32 d = 0;
            if (!cur.fetch32(d)) {
                err = "truncated disp32 (sib)";
                return false;
            }
            mem.disp = static_cast<i32>(d);
            out.rm = Operand::makeMem(mem);
            return true;
        }
        mem.base = static_cast<Reg>(base);
    } else if (rm == 5 && mod == 0) {
        // disp32 absolute.
        u32 d = 0;
        if (!cur.fetch32(d)) {
            err = "truncated disp32";
            return false;
        }
        mem.disp = static_cast<i32>(d);
        out.rm = Operand::makeMem(mem);
        return true;
    } else {
        mem.base = static_cast<Reg>(rm);
    }

    if (mod == 1) {
        u8 d = 0;
        if (!cur.fetch8(d)) {
            err = "truncated disp8";
            return false;
        }
        mem.disp = static_cast<i32>(sext(d, 8));
    } else if (mod == 2) {
        u32 d = 0;
        if (!cur.fetch32(d)) {
            err = "truncated disp32";
            return false;
        }
        mem.disp = static_cast<i32>(d);
    }
    out.rm = Operand::makeMem(mem);
    return true;
}

/** ALU row opcode for the classic 0x00..0x3D pattern. */
Op
aluRowOp(u8 row)
{
    static const Op ops[] = {Op::Add, Op::Or, Op::Adc, Op::Sbb,
                             Op::And, Op::Sub, Op::Xor, Op::Cmp};
    assert(row < 8);
    return ops[row];
}

/** Group-1 (0x80/0x81/0x83) opcode extension. */
Op
group1Op(u8 ext)
{
    return aluRowOp(ext);
}

/** Group-2 shift/rotate opcode extension. */
bool
group2Op(u8 ext, Op &op)
{
    switch (ext) {
      case 0: op = Op::Rol; return true;
      case 1: op = Op::Ror; return true;
      case 4: op = Op::Shl; return true;
      case 5: op = Op::Shr; return true;
      case 7: op = Op::Sar; return true;
      default: return false;
    }
}

bool
fetchImm(Cursor &cur, unsigned size, bool sext8, i64 &out,
         const char *&err)
{
    if (size == 1) {
        u8 v = 0;
        if (!cur.fetch8(v)) {
            err = "truncated imm8";
            return false;
        }
        out = sext8 ? sext(v, 8) : static_cast<i64>(v);
        return true;
    }
    if (size == 2) {
        u16 v = 0;
        if (!cur.fetch16(v)) {
            err = "truncated imm16";
            return false;
        }
        out = static_cast<i64>(v);
        return true;
    }
    u32 v = 0;
    if (!cur.fetch32(v)) {
        err = "truncated imm32";
        return false;
    }
    out = static_cast<i64>(v);
    return true;
}

/**
 * Decode the instruction whose first opcode byte b follows the
 * prefixes; false (with err set) when the bytes do not decode.
 */
bool
decodeOpcode(Cursor &cur, u8 b, unsigned osz, Addr pc, Insn &in,
             const char *&err)
{
    ModRm mrm;

    // --- Classic ALU rows: op r/m,r ; op r,r/m ; op acc,imm ---------------
    if (b <= 0x3d && (b & 0x07) <= 0x05 && ((b & 0x38) >> 3) <= 7 &&
        (b & 0xc0) == 0x00 && (b & 0x07) != 0x06 && (b & 0x07) != 0x07) {
        const Op op = aluRowOp(static_cast<u8>((b >> 3) & 7));
        const u8 form = b & 7;
        switch (form) {
          case 0: // r/m8, r8
          case 1: // r/m32, r32
            if (!decodeModRm(cur, mrm, err))
                return false;
            in.op = op;
            in.opSize = form == 0 ? 1 : static_cast<u8>(osz);
            in.dst = mrm.rm;
            in.src = Operand::makeReg(static_cast<Reg>(mrm.regField));
            return true;
          case 2: // r8, r/m8
          case 3: // r32, r/m32
            if (!decodeModRm(cur, mrm, err))
                return false;
            in.op = op;
            in.opSize = form == 2 ? 1 : static_cast<u8>(osz);
            in.dst = Operand::makeReg(static_cast<Reg>(mrm.regField));
            in.src = mrm.rm;
            return true;
          case 4: // AL, imm8
          case 5: { // eAX, imm32
            i64 imm = 0;
            unsigned isz = form == 4 ? 1 : osz;
            if (!fetchImm(cur, isz, false, imm, err))
                return false;
            in.op = op;
            in.opSize = form == 4 ? 1 : static_cast<u8>(osz);
            in.dst = Operand::makeReg(EAX);
            in.src = Operand::makeImm(imm);
            return true;
          }
        }
    }

    switch (b) {
      // --- INC/DEC r32, PUSH/POP r32 ------------------------------------
      case 0x40: case 0x41: case 0x42: case 0x43:
      case 0x44: case 0x45: case 0x46: case 0x47:
        in.op = Op::Inc;
        in.dst = Operand::makeReg(static_cast<Reg>(b - 0x40));
        return true;
      case 0x48: case 0x49: case 0x4a: case 0x4b:
      case 0x4c: case 0x4d: case 0x4e: case 0x4f:
        in.op = Op::Dec;
        in.dst = Operand::makeReg(static_cast<Reg>(b - 0x48));
        return true;
      case 0x50: case 0x51: case 0x52: case 0x53:
      case 0x54: case 0x55: case 0x56: case 0x57:
        in.op = Op::Push;
        in.src = Operand::makeReg(static_cast<Reg>(b - 0x50));
        return true;
      case 0x58: case 0x59: case 0x5a: case 0x5b:
      case 0x5c: case 0x5d: case 0x5e: case 0x5f:
        in.op = Op::Pop;
        in.dst = Operand::makeReg(static_cast<Reg>(b - 0x58));
        return true;

      // --- PUSH imm -------------------------------------------------------
      case 0x68: {
        i64 imm = 0;
        if (!fetchImm(cur, osz, false, imm, err))
            return false;
        in.op = Op::Push;
        in.src = Operand::makeImm(imm);
        return true;
      }
      case 0x6a: {
        i64 imm = 0;
        if (!fetchImm(cur, 1, true, imm, err))
            return false;
        in.op = Op::Push;
        in.src = Operand::makeImm(imm);
        return true;
      }

      // --- IMUL r, r/m, imm ------------------------------------------------
      case 0x69:
      case 0x6b: {
        if (!decodeModRm(cur, mrm, err))
            return false;
        i64 imm = 0;
        if (!fetchImm(cur, b == 0x69 ? osz : 1, b == 0x6b, imm, err))
            return false;
        in.op = Op::Imul;
        in.dst = Operand::makeReg(static_cast<Reg>(mrm.regField));
        in.src = mrm.rm;
        in.src2 = Operand::makeImm(imm);
        return true;
      }

      // --- Jcc rel8 ---------------------------------------------------------
      case 0x70: case 0x71: case 0x72: case 0x73:
      case 0x74: case 0x75: case 0x76: case 0x77:
      case 0x78: case 0x79: case 0x7a: case 0x7b:
      case 0x7c: case 0x7d: case 0x7e: case 0x7f: {
        i64 rel = 0;
        if (!fetchImm(cur, 1, true, rel, err))
            return false;
        in.op = Op::Jcc;
        in.cond = static_cast<Cond>(b - 0x70);
        in.length = static_cast<u8>(cur.consumed());
        in.target = pc + in.length + rel;
        return true;
      }

      // --- Group 1: ALU r/m, imm ---------------------------------------------
      case 0x80:
      case 0x81:
      case 0x83: {
        if (!decodeModRm(cur, mrm, err))
            return false;
        i64 imm = 0;
        unsigned isz = (b == 0x81) ? osz : 1;
        if (!fetchImm(cur, isz, b == 0x83, imm, err))
            return false;
        in.op = group1Op(mrm.regField);
        in.opSize = (b == 0x80) ? 1 : static_cast<u8>(osz);
        in.dst = mrm.rm;
        in.src = Operand::makeImm(imm);
        return true;
      }

      // --- TEST, XCHG, MOV families --------------------------------------------
      case 0x84:
      case 0x85:
        if (!decodeModRm(cur, mrm, err))
            return false;
        in.op = Op::Test;
        in.opSize = (b == 0x84) ? 1 : static_cast<u8>(osz);
        in.dst = mrm.rm;
        in.src = Operand::makeReg(static_cast<Reg>(mrm.regField));
        return true;
      case 0x86:
      case 0x87:
        if (!decodeModRm(cur, mrm, err))
            return false;
        in.op = Op::Xchg;
        in.opSize = (b == 0x86) ? 1 : static_cast<u8>(osz);
        in.dst = mrm.rm;
        in.src = Operand::makeReg(static_cast<Reg>(mrm.regField));
        return true;
      case 0x88:
      case 0x89:
        if (!decodeModRm(cur, mrm, err))
            return false;
        in.op = Op::Mov;
        in.opSize = (b == 0x88) ? 1 : static_cast<u8>(osz);
        in.dst = mrm.rm;
        in.src = Operand::makeReg(static_cast<Reg>(mrm.regField));
        return true;
      case 0x8a:
      case 0x8b:
        if (!decodeModRm(cur, mrm, err))
            return false;
        in.op = Op::Mov;
        in.opSize = (b == 0x8a) ? 1 : static_cast<u8>(osz);
        in.dst = Operand::makeReg(static_cast<Reg>(mrm.regField));
        in.src = mrm.rm;
        return true;
      case 0x8d:
        if (!decodeModRm(cur, mrm, err))
            return false;
        if (!mrm.rm.isMem()) {
            err = "lea with register source";
            return false;
        }
        in.op = Op::Lea;
        in.dst = Operand::makeReg(static_cast<Reg>(mrm.regField));
        in.src = mrm.rm;
        return true;
      case 0x8f:
        if (!decodeModRm(cur, mrm, err))
            return false;
        if (mrm.regField != 0) {
            err = "bad 0x8f extension";
            return false;
        }
        in.op = Op::Pop;
        in.dst = mrm.rm;
        return true;

      case 0x90:
        in.op = Op::Nop;
        return true;

      case 0x99:
        in.op = Op::Cdq;
        return true;

      case 0xa8:
      case 0xa9: {
        i64 imm = 0;
        unsigned isz = (b == 0xa8) ? 1 : osz;
        if (!fetchImm(cur, isz, false, imm, err))
            return false;
        in.op = Op::Test;
        in.opSize = (b == 0xa8) ? 1 : static_cast<u8>(osz);
        in.dst = Operand::makeReg(EAX);
        in.src = Operand::makeImm(imm);
        return true;
      }

      // --- MOV r, imm -----------------------------------------------------------
      case 0xb0: case 0xb1: case 0xb2: case 0xb3:
      case 0xb4: case 0xb5: case 0xb6: case 0xb7: {
        i64 imm = 0;
        if (!fetchImm(cur, 1, false, imm, err))
            return false;
        in.op = Op::Mov;
        in.opSize = 1;
        in.dst = Operand::makeReg(static_cast<Reg>(b - 0xb0));
        in.src = Operand::makeImm(imm);
        return true;
      }
      case 0xb8: case 0xb9: case 0xba: case 0xbb:
      case 0xbc: case 0xbd: case 0xbe: case 0xbf: {
        i64 imm = 0;
        if (!fetchImm(cur, osz, false, imm, err))
            return false;
        in.op = Op::Mov;
        in.dst = Operand::makeReg(static_cast<Reg>(b - 0xb8));
        in.src = Operand::makeImm(imm);
        return true;
      }

      // --- Shift groups -----------------------------------------------------------
      case 0xc0:
      case 0xc1: {
        if (!decodeModRm(cur, mrm, err))
            return false;
        Op op;
        if (!group2Op(mrm.regField, op)) {
            err = "bad shift extension";
            return false;
        }
        i64 imm = 0;
        if (!fetchImm(cur, 1, false, imm, err))
            return false;
        in.op = op;
        in.opSize = (b == 0xc0) ? 1 : static_cast<u8>(osz);
        in.dst = mrm.rm;
        in.src = Operand::makeImm(imm & 0x1f);
        return true;
      }
      case 0xd0:
      case 0xd1: {
        if (!decodeModRm(cur, mrm, err))
            return false;
        Op op;
        if (!group2Op(mrm.regField, op)) {
            err = "bad shift extension";
            return false;
        }
        in.op = op;
        in.opSize = (b == 0xd0) ? 1 : static_cast<u8>(osz);
        in.dst = mrm.rm;
        in.src = Operand::makeImm(1);
        return true;
      }
      case 0xd2:
      case 0xd3: {
        if (!decodeModRm(cur, mrm, err))
            return false;
        Op op;
        if (!group2Op(mrm.regField, op)) {
            err = "bad shift extension";
            return false;
        }
        in.op = op;
        in.opSize = (b == 0xd2) ? 1 : static_cast<u8>(osz);
        in.dst = mrm.rm;
        in.src = Operand::makeReg(ECX); // count in CL
        return true;
      }

      // --- RET --------------------------------------------------------------------
      case 0xc2: {
        i64 imm = 0;
        if (!fetchImm(cur, 2, false, imm, err))
            return false;
        in.op = Op::Ret;
        in.src = Operand::makeImm(imm);
        return true;
      }
      case 0xc3:
        in.op = Op::Ret;
        return true;

      // --- MOV r/m, imm --------------------------------------------------------------
      case 0xc6:
      case 0xc7: {
        if (!decodeModRm(cur, mrm, err))
            return false;
        if (mrm.regField != 0) {
            err = "bad c6/c7 extension";
            return false;
        }
        i64 imm = 0;
        unsigned isz = (b == 0xc6) ? 1 : osz;
        if (!fetchImm(cur, isz, false, imm, err))
            return false;
        in.op = Op::Mov;
        in.opSize = (b == 0xc6) ? 1 : static_cast<u8>(osz);
        in.dst = mrm.rm;
        in.src = Operand::makeImm(imm);
        return true;
      }

      case 0xcc:
        in.op = Op::Int3;
        return true;

      // --- CALL/JMP rel ------------------------------------------------------------------
      case 0xe8: {
        i64 rel = 0;
        if (!fetchImm(cur, 4, false, rel, err))
            return false;
        in.op = Op::Call;
        in.length = static_cast<u8>(cur.consumed());
        in.target = pc + in.length + static_cast<i32>(rel);
        return true;
      }
      case 0xe9: {
        i64 rel = 0;
        if (!fetchImm(cur, 4, false, rel, err))
            return false;
        in.op = Op::Jmp;
        in.length = static_cast<u8>(cur.consumed());
        in.target = pc + in.length + static_cast<i32>(rel);
        return true;
      }
      case 0xeb: {
        i64 rel = 0;
        if (!fetchImm(cur, 1, true, rel, err))
            return false;
        in.op = Op::Jmp;
        in.length = static_cast<u8>(cur.consumed());
        in.target = pc + in.length + rel;
        return true;
      }

      case 0xf4:
        in.op = Op::Hlt;
        return true;
      case 0xf5:
        in.op = Op::Cmc;
        return true;
      case 0xf8:
        in.op = Op::Clc;
        return true;
      case 0xf9:
        in.op = Op::Stc;
        return true;

      // --- Group 3: TEST/NOT/NEG/MUL/IMUL/DIV/IDIV -------------------------------------------
      case 0xf6:
      case 0xf7: {
        if (!decodeModRm(cur, mrm, err))
            return false;
        const u8 sz = (b == 0xf6) ? 1 : static_cast<u8>(osz);
        switch (mrm.regField) {
          case 0:
          case 1: { // TEST r/m, imm
            i64 imm = 0;
            if (!fetchImm(cur, sz == 1 ? 1 : osz, false, imm, err))
                return false;
            in.op = Op::Test;
            in.opSize = sz;
            in.dst = mrm.rm;
            in.src = Operand::makeImm(imm);
            return true;
          }
          case 2:
            in.op = Op::Not;
            in.opSize = sz;
            in.dst = mrm.rm;
            return true;
          case 3:
            in.op = Op::Neg;
            in.opSize = sz;
            in.dst = mrm.rm;
            return true;
          case 4:
            in.op = Op::MulA;
            in.opSize = sz;
            in.src = mrm.rm;
            return true;
          case 5:
            in.op = Op::ImulA;
            in.opSize = sz;
            in.src = mrm.rm;
            return true;
          case 6:
            in.op = Op::DivA;
            in.opSize = sz;
            in.src = mrm.rm;
            return true;
          case 7:
            in.op = Op::IdivA;
            in.opSize = sz;
            in.src = mrm.rm;
            return true;
        }
        err = "bad group-3 extension";
        return false;
      }

      // --- Group 4/5 ----------------------------------------------------------------------------
      case 0xfe: {
        if (!decodeModRm(cur, mrm, err))
            return false;
        if (mrm.regField > 1) {
            err = "bad group-4 extension";
            return false;
        }
        in.op = mrm.regField == 0 ? Op::Inc : Op::Dec;
        in.opSize = 1;
        in.dst = mrm.rm;
        return true;
      }
      case 0xff: {
        if (!decodeModRm(cur, mrm, err))
            return false;
        switch (mrm.regField) {
          case 0:
            in.op = Op::Inc;
            in.dst = mrm.rm;
            return true;
          case 1:
            in.op = Op::Dec;
            in.dst = mrm.rm;
            return true;
          case 2:
            in.op = Op::CallInd;
            in.src = mrm.rm;
            return true;
          case 4:
            in.op = Op::JmpInd;
            in.src = mrm.rm;
            return true;
          case 6:
            in.op = Op::Push;
            in.src = mrm.rm;
            return true;
        }
        err = "bad group-5 extension";
        return false;
      }

      // --- Two-byte opcodes ------------------------------------------------------------------------
      case 0x0f: {
        u8 b2 = 0;
        if (!cur.fetch8(b2)) {
            err = "truncated 0f opcode";
            return false;
        }
        if (b2 >= 0x80 && b2 <= 0x8f) { // Jcc rel32
            i64 rel = 0;
            if (!fetchImm(cur, 4, false, rel, err))
                return false;
            in.op = Op::Jcc;
            in.cond = static_cast<Cond>(b2 - 0x80);
            in.length = static_cast<u8>(cur.consumed());
            in.target = pc + in.length + static_cast<i32>(rel);
            return true;
        }
        if (b2 >= 0x90 && b2 <= 0x9f) { // SETcc r/m8
            if (!decodeModRm(cur, mrm, err))
                return false;
            in.op = Op::Setcc;
            in.cond = static_cast<Cond>(b2 - 0x90);
            in.opSize = 1;
            in.dst = mrm.rm;
            return true;
        }
        switch (b2) {
          case 0x31:
            in.op = Op::Rdtsc;
            return true;
          case 0xa2:
            in.op = Op::Cpuid;
            return true;
          case 0xaf:
            if (!decodeModRm(cur, mrm, err))
                return false;
            in.op = Op::Imul;
            in.dst = Operand::makeReg(static_cast<Reg>(mrm.regField));
            in.src = mrm.rm;
            return true;
          case 0xb6:
          case 0xb7:
            if (!decodeModRm(cur, mrm, err))
                return false;
            in.op = Op::Movzx;
            in.opSize = (b2 == 0xb6) ? 1 : 2; // source size
            in.dst = Operand::makeReg(static_cast<Reg>(mrm.regField));
            in.src = mrm.rm;
            return true;
          case 0xbe:
          case 0xbf:
            if (!decodeModRm(cur, mrm, err))
                return false;
            in.op = Op::Movsx;
            in.opSize = (b2 == 0xbe) ? 1 : 2; // source size
            in.dst = Operand::makeReg(static_cast<Reg>(mrm.regField));
            in.src = mrm.rm;
            return true;
        }
        err = "unsupported 0f opcode";
        return false;
      }

      default:
        break;
    }

    err = "unsupported opcode";
    return false;
}

} // namespace

DecodeResult
decode(std::span<const u8> window, Addr pc)
{
    DecodeResult res;
    Insn &in = res.insn;
    in.pc = pc;
    Cursor cur(window);

    // --- Prefix scan -----------------------------------------------------
    bool opsize16 = false;
    unsigned prefix_count = 0;
    u8 b = 0;
    for (;;) {
        if (!cur.fetch8(b)) {
            res.error = "empty window";
            return res;
        }
        bool is_prefix = true;
        switch (b) {
          case 0x66: opsize16 = true; break;
          case 0xf0:            // LOCK
          case 0xf2:            // REPNE
          case 0xf3:            // REP
          case 0x26: case 0x2e: case 0x36: case 0x3e:
          case 0x64: case 0x65: // segment overrides (flat model: ignored)
            break;
          default:
            is_prefix = false;
            break;
        }
        if (!is_prefix)
            break;
        if (++prefix_count > 8) {
            res.error = "too many prefixes";
            return res;
        }
    }

    const unsigned osz = opsize16 ? 2 : 4;
    in.opSize = static_cast<u8>(osz);

    if (!decodeOpcode(cur, b, osz, pc, in, res.error))
        return res;
    in.length = static_cast<u8>(cur.consumed());
    if (in.length > MAX_INSN_LEN) {
        res.error = "instruction too long";
        return res;
    }
    res.ok = true;
    return res;
}

unsigned
insnLength(std::span<const u8> window, Addr pc)
{
    DecodeResult r = decode(window, pc);
    return r.ok ? r.insn.length : 0;
}

} // namespace cdvm::x86

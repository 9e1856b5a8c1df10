/**
 * @file
 * x86 arithmetic-flag helpers.
 *
 * The reference interpreter and the micro-op executor both compute
 * EFLAGS through these functions, so translated code matches the
 * golden model bit-for-bit by construction. They are inline because
 * the executor calls them on nearly every micro-op: an out-of-line
 * call to `trunc` cost more than the masking it does.
 */

#ifndef CDVM_X86_FLAGS_HH
#define CDVM_X86_FLAGS_HH

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "x86/insn.hh"
#include "x86/regs.hh"

namespace cdvm::x86::flags
{

/** Truncate v to size bytes. */
inline u32
trunc(u32 v, unsigned size)
{
    switch (size) {
      case 1: return v & 0xff;
      case 2: return v & 0xffff;
      default: return v;
    }
}

/** Sign bit of v at size bytes. */
inline bool
signBit(u32 v, unsigned size)
{
    return v & (1u << (size * 8 - 1));
}

/** Even parity of the low byte (PF). */
inline bool
parityEven(u32 v)
{
    v &= 0xff;
    v ^= v >> 4;
    v ^= v >> 2;
    v ^= v >> 1;
    return !(v & 1);
}

/** ZF/SF/PF for a result (used by INC/DEC merge and shifts). */
inline u32
zsp(u32 result, unsigned size)
{
    u32 f = 0;
    u32 r = trunc(result, size);
    if (r == 0)
        f |= FLAG_ZF;
    if (signBit(r, size))
        f |= FLAG_SF;
    if (parityEven(r))
        f |= FLAG_PF;
    return f;
}

/** Flags after an addition (with optional carry-in), at size bytes. */
inline u32
add(u32 a, u32 b, u32 carry_in, unsigned size, u32 &result)
{
    a = trunc(a, size);
    b = trunc(b, size);
    u64 wide = static_cast<u64>(a) + b + carry_in;
    result = trunc(static_cast<u32>(wide), size);
    u32 f = zsp(result, size);
    if (wide >> (size * 8))
        f |= FLAG_CF;
    const bool sa = signBit(a, size), sb = signBit(b, size),
               sr = signBit(result, size);
    if (sa == sb && sr != sa)
        f |= FLAG_OF;
    if (((a & 0xf) + (b & 0xf) + carry_in) & 0x10)
        f |= FLAG_AF;
    return f;
}

/** Flags after a subtraction a - b - borrow_in, at size bytes. */
inline u32
sub(u32 a, u32 b, u32 borrow_in, unsigned size, u32 &result)
{
    a = trunc(a, size);
    b = trunc(b, size);
    u64 wide = static_cast<u64>(a) - b - borrow_in;
    result = trunc(static_cast<u32>(wide), size);
    u32 f = zsp(result, size);
    if (static_cast<u64>(a) < static_cast<u64>(b) + borrow_in)
        f |= FLAG_CF;
    const bool sa = signBit(a, size), sb = signBit(b, size),
               sr = signBit(result, size);
    if (sa != sb && sr != sa)
        f |= FLAG_OF;
    if (((a & 0xf) - (b & 0xf) - borrow_in) & 0x10)
        f |= FLAG_AF;
    return f;
}

/** Flags after a bitwise logical op whose result is given. */
inline u32
logic(u32 result, unsigned size)
{
    return zsp(result, size); // CF = OF = AF = 0
}

/** Result of a shift/rotate: value plus the complete new EFLAGS. */
struct ShiftResult
{
    u32 result;
    u32 eflags; //!< full replacement arithmetic-flag set
};

/**
 * Execute a shift or rotate (Op::Shl/Shr/Sar/Rol/Ror) with exact x86
 * flag semantics. count is already masked to 5 bits; count == 0
 * returns the inputs unchanged.
 */
inline ShiftResult
shift(Op op, u32 a, u32 count, unsigned size, u32 old_eflags)
{
    count &= 0x1f;
    if (count == 0)
        return ShiftResult{trunc(a, size), old_eflags};

    const unsigned nbits = size * 8;
    u32 r = a;
    bool cf = old_eflags & FLAG_CF;
    bool of = old_eflags & FLAG_OF;

    switch (op) {
      case Op::Shl:
        if (count >= nbits) {
            cf = count == nbits ? (a & 1) : false;
            r = 0;
        } else {
            cf = (a >> (nbits - count)) & 1;
            r = trunc(a << count, size);
        }
        of = cf != signBit(r, size);
        break;
      case Op::Shr:
        if (count >= nbits) {
            cf = count == nbits ? signBit(a, size) : false;
            r = 0;
        } else {
            cf = (a >> (count - 1)) & 1;
            r = trunc(a, size) >> count;
        }
        of = signBit(a, size);
        break;
      case Op::Sar: {
        i32 sa = static_cast<i32>(sext(trunc(a, size), nbits));
        if (count >= nbits) {
            r = trunc(static_cast<u32>(sa >> (nbits - 1)), size);
            cf = sa < 0;
        } else {
            cf = (sa >> (count - 1)) & 1;
            r = trunc(static_cast<u32>(sa >> count), size);
        }
        of = false;
        break;
      }
      case Op::Rol: {
        u32 c = count % nbits;
        u32 v = trunc(a, size);
        if (c)
            v = trunc((v << c) | (v >> (nbits - c)), size);
        r = v;
        cf = v & 1;
        of = cf != signBit(v, size);
        break;
      }
      case Op::Ror: {
        u32 c = count % nbits;
        u32 v = trunc(a, size);
        if (c)
            v = trunc((v >> c) | (v << (nbits - c)), size);
        r = v;
        cf = signBit(v, size);
        of = signBit(v, size) != ((v >> (nbits - 2)) & 1);
        break;
      }
      default:
        cdvm_panic("flags::shift on non-shift op");
    }

    u32 f = zsp(r, size);
    if (op == Op::Rol || op == Op::Ror) {
        // Rotates preserve ZF/SF/PF/AF; only CF/OF change.
        f = old_eflags & (FLAG_ZF | FLAG_SF | FLAG_PF | FLAG_AF);
    }
    if (cf)
        f |= FLAG_CF;
    if (of)
        f |= FLAG_OF;
    return ShiftResult{r, f};
}

/** Widening multiply outcome. */
struct WideMul
{
    u32 lo;
    u32 hi;
    u32 flags; //!< arithmetic flags (CF/OF on overflow + deterministic ZSP)
};

/** EDX:EAX-style widening multiply at size bytes. */
inline WideMul
mulWide(bool is_signed, u32 a, u32 b, unsigned size)
{
    a = trunc(a, size);
    b = trunc(b, size);
    u64 wide;
    if (is_signed) {
        wide = static_cast<u64>(sext(a, size * 8) * sext(b, size * 8));
    } else {
        wide = static_cast<u64>(a) * b;
    }
    WideMul out;
    out.lo = trunc(static_cast<u32>(wide), size);
    out.hi = trunc(static_cast<u32>(wide >> (size * 8)), size);
    bool over;
    if (is_signed) {
        over = static_cast<i64>(wide) != sext(out.lo, size * 8);
    } else {
        over = out.hi != 0;
    }
    out.flags = zsp(out.lo, size);
    if (over)
        out.flags |= FLAG_CF | FLAG_OF;
    return out;
}

/** Widening divide outcome. */
struct WideDiv
{
    u32 quot;
    u32 rem;
    bool fault; //!< divide by zero or quotient overflow
};

/** EDX:EAX-style divide at size bytes; hi:lo / b. */
inline WideDiv
divWide(bool is_signed, u32 hi, u32 lo, u32 b, unsigned size)
{
    WideDiv out{0, 0, false};
    b = trunc(b, size);
    if (b == 0) {
        out.fault = true;
        return out;
    }
    u64 num = (static_cast<u64>(trunc(hi, size)) << (size * 8)) |
              trunc(lo, size);
    if (!is_signed) {
        u64 q = num / b, r = num % b;
        if (q >> (size * 8)) {
            out.fault = true;
            return out;
        }
        out.quot = static_cast<u32>(q);
        out.rem = static_cast<u32>(r);
        return out;
    }
    i64 snum = sext(num, size * 16 <= 64 ? size * 16 : 64);
    if (size == 4)
        snum = static_cast<i64>(num);
    i64 sb = sext(b, size * 8);
    i64 q = snum / sb, r = snum % sb;
    i64 qlo = -(i64{1} << (size * 8 - 1));
    i64 qhi = (i64{1} << (size * 8 - 1)) - 1;
    if (q < qlo || q > qhi) {
        out.fault = true;
        return out;
    }
    out.quot = trunc(static_cast<u32>(q), size);
    out.rem = trunc(static_cast<u32>(r), size);
    return out;
}

/** Truncating signed multiply (IMUL r, r/m) with flag computation. */
inline u32
imulTrunc(u32 a, u32 b, unsigned size, u32 &flags_out)
{
    i64 prod = sext(trunc(a, size), size * 8) *
               sext(trunc(b, size), size * 8);
    u32 r = trunc(static_cast<u32>(prod), size);
    flags_out = zsp(r, size);
    if (prod != sext(r, size * 8))
        flags_out |= FLAG_CF | FLAG_OF;
    return r;
}

} // namespace cdvm::x86::flags

#endif // CDVM_X86_FLAGS_HH

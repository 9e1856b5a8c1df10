/**
 * @file
 * Byte-level decoder for the x86 subset.
 *
 * This is the "first-level" (vertical) decode step of the paper's
 * dual-mode decoder: it turns raw variable-length CISC bytes into the
 * semantic Insn form. The same decoder is used by the reference
 * interpreter, the basic block translator (BBT), and the XLTx86
 * backend-assist model -- so all of them agree on instruction
 * boundaries and semantics by construction.
 */

#ifndef CDVM_X86_DECODER_HH
#define CDVM_X86_DECODER_HH

#include <span>

#include "common/types.hh"
#include "x86/insn.hh"

namespace cdvm::x86
{

/** Maximum encoded length the subset can produce / the decoder accepts. */
constexpr unsigned MAX_INSN_LEN = 15;

/** Outcome of a decode attempt. */
struct DecodeResult
{
    Insn insn;              //!< valid iff ok
    bool ok = false;
    const char *error = ""; //!< static diagnostic when !ok

    explicit operator bool() const { return ok; }
};

/**
 * Decode one instruction from the byte window starting at pc.
 *
 * @param window Bytes beginning at pc; must contain the whole
 *               instruction (provide at least MAX_INSN_LEN bytes when
 *               available, the decoder never reads past the actual
 *               instruction length).
 * @param pc     Guest address of window[0], used to resolve relative
 *               branch targets and recorded in the result.
 */
DecodeResult decode(std::span<const u8> window, Addr pc);

/**
 * Instruction-length-only scan (used by fetch and by the XLTx86 unit's
 * length field). Returns 0 if the bytes do not decode.
 */
unsigned insnLength(std::span<const u8> window, Addr pc);

} // namespace cdvm::x86

#endif // CDVM_X86_DECODER_HH

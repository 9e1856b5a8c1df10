/**
 * @file
 * Translator lab: feed raw x86 hex bytes through every decode path.
 *
 * For each instruction given on the command line (or a built-in tour
 * of interesting encodings), shows: the decode, the cracked micro-ops
 * with their 16/32-bit encodings, and what the XLTx86 backend assist
 * returns for it (CSR fields).
 *
 *   $ ./build/examples/translator_lab                 # built-in tour
 *   $ ./build/examples/translator_lab "01 d8" "f7 f1" # your own bytes
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "hwassist/xlt.hh"
#include "uops/crack.hh"
#include "uops/csr.hh"
#include "uops/encoding.hh"
#include "x86/decoder.hh"

using namespace cdvm;

namespace
{

std::vector<u8>
parseHex(const std::string &s)
{
    std::vector<u8> out;
    unsigned v = 0;
    int digits = 0;
    for (char c : s) {
        int d = -1;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            d = c - 'A' + 10;
        if (d < 0) {
            if (digits) {
                out.push_back(static_cast<u8>(v));
                v = 0;
                digits = 0;
            }
            continue;
        }
        v = v * 16 + static_cast<unsigned>(d);
        if (++digits == 2) {
            out.push_back(static_cast<u8>(v));
            v = 0;
            digits = 0;
        }
    }
    if (digits)
        out.push_back(static_cast<u8>(v));
    return out;
}

void
lab(const std::vector<u8> &bytes)
{
    std::printf("bytes:");
    for (u8 b : bytes)
        std::printf(" %02x", b);
    std::printf("\n");

    std::vector<u8> win = bytes;
    win.resize(x86::MAX_INSN_LEN + 1, 0x90);
    x86::DecodeResult dr = x86::decode(
        std::span<const u8>(win.data(), win.size()), 0x1000);
    if (!dr.ok) {
        std::printf("  decode: FAILED (%s)\n\n", dr.error);
        return;
    }
    std::printf("  decode: %-28s length=%u%s%s\n",
                dr.insn.toString().c_str(), dr.insn.length,
                dr.insn.isCti() ? "  [CTI]" : "",
                dr.insn.isComplex() ? "  [complex]" : "");

    uops::CrackResult cr = uops::crack(dr.insn);
    std::printf("  crack:  %zu micro-op(s)%s\n", cr.uops.size(),
                cr.complex ? "  [software path]" : "");
    for (const uops::Uop &u : cr.uops) {
        u8 enc[uops::MAX_UOP_BYTES];
        unsigned n = uops::encodeOne(u, enc);
        std::printf("    %-36s ", u.toString().c_str());
        std::printf("[%u bytes:", n);
        for (unsigned i = 0; i < n; ++i)
            std::printf(" %02x", enc[i]);
        std::printf("]\n");
    }

    hwassist::XltUnit xlt;
    u8 src[16] = {0};
    std::memcpy(src, bytes.data(),
                std::min<std::size_t>(bytes.size(), 16));
    u8 dst[16];
    u32 csr = xlt.translate(src, dst);
    std::printf("  XLTx86: x86_ilen=%u uops_bytes=%u Flag_cmplx=%d "
                "Flag_cti=%d\n\n",
                uops::csr::ilen(csr), uops::csr::uopBytes(csr),
                uops::csr::isComplex(csr), uops::csr::isCti(csr));
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("=== translator lab: x86 -> fusible micro-ops -> "
                "XLTx86 ===\n\n");
    if (argc > 1) {
        for (int i = 1; i < argc; ++i)
            lab(parseHex(argv[i]));
        return 0;
    }
    // Built-in tour.
    const char *tour[] = {
        "01 d8",                   // add eax, ebx
        "03 44 9e 08",             // add eax, [esi+ebx*4+8]
        "83 c1 7f",                // add ecx, 0x7f
        "66 01 c8",                // add ax, cx (operand-size prefix)
        "00 e0",                   // add al, ah (high-byte subregister)
        "8d 04 8d 0a 00 00 00",    // lea eax, [ecx*4+10]
        "55",                      // push ebp
        "c3",                      // ret
        "0f af c3",                // imul eax, ebx
        "f7 f1",                   // div ecx (complex: software path)
        "0f a2",                   // cpuid (complex)
        "b8 78 56 34 12",          // mov eax, 0x12345678
        "0f 94 c0",                // sete al
        "c1 e0 05",                // shl eax, 5
        "eb fe",                   // jmp short $ (CTI)
    };
    for (const char *t : tour)
        lab(parseHex(t));
    return 0;
}

/**
 * @file
 * Table 1 / Fig. 6: the XLTx86 hardware accelerator.
 *
 * Demonstrates the new implementation-ISA instruction and measures the
 * hardware-assisted BBT loop (HAloop) against the software-only BBT:
 * the paper reports 83 cycles per x86 instruction for software BBT and
 * 20 cycles with the backend assist. Includes the XLTx86 latency
 * sensitivity ablation (2 / 4 / 8 cycles).
 */

#include <cstdio>

#include "bench_common.hh"
#include "engine/params.hh"
#include "hwassist/haloop.hh"
#include "x86/decoder.hh"
#include "uops/csr.hh"
#include "workload/program_gen.hh"

using namespace cdvm;

namespace
{

/** Average HAloop cycles/instruction over generated programs. */
double
measureHaloop(Cycles xlt_latency, double *uops_per_insn = nullptr)
{
    hwassist::XltUnit xlt(hwassist::XltParams{xlt_latency});
    double cyc = 0, insns = 0, uops = 0;
    for (u64 seed = 1; seed <= 5; ++seed) {
        workload::ProgramParams pp;
        pp.seed = seed;
        workload::Program prog = workload::generateProgram(pp);
        x86::Memory mem;
        prog.loadInto(mem);
        x86::Memory code_cache;
        hwassist::HaLoop loop(mem, code_cache, xlt);
        // Translate straight-line regions spread through the image.
        Addr pc = prog.codeBase;
        Addr cc = 0xe0000000;
        while (pc < prog.codeBase + prog.image.size()) {
            auto r = loop.run(pc, cc, 64);
            cyc += static_cast<double>(r.cycles);
            insns += r.insnsTranslated;
            uops += static_cast<double>(r.uopsExecuted);
            cc += r.bytesEmitted;
            // Skip the CTI / complex instruction the loop stopped at
            // (the VMM's branch handler would chain it in software).
            u8 win[x86::MAX_INSN_LEN + 1];
            mem.fetchWindow(r.stoppedAt, win, sizeof(win));
            unsigned len = x86::insnLength(
                std::span<const u8>(win, sizeof(win)), r.stoppedAt);
            pc = r.stoppedAt + (len ? len : 1);
        }
    }
    if (uops_per_insn)
        *uops_per_insn = insns ? uops / insns : 0;
    return insns ? cyc / insns : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("Table 1: XLTx86 backend accelerator");
    cli.parse(argc, argv);

    std::printf("=== Table 1: the XLTx86 instruction ===\n\n");
    std::printf("  XLTX86 Fdst, Fsrc\n");
    std::printf("  Decode an x86 instruction aligned at the beginning "
                "of the 128-bit Fsrc\n");
    std::printf("  register, generate 16b/32b micro-ops into Fdst, "
                "and set CSR:\n");
    std::printf("    CSR[3:0]  x86_ilen      decoded instruction "
                "length (bytes)\n");
    std::printf("    CSR[7:4]  uops_bytes    emitted micro-op "
                "half-words (bytes/2)\n");
    std::printf("    CSR[8]    Flag_cmplx    defer to the software "
                "path\n");
    std::printf("    CSR[9]    Flag_cti      control transfer: branch "
                "handler\n\n");

    std::printf("--- Fig. 6a: the HAloop in the implementation ISA "
                "---\n");
    for (const uops::Uop &u : hwassist::HaLoop::program())
        std::printf("    %s\n", u.toString().c_str());
    std::printf("\n");

    // Demonstrate one XLTx86 execution.
    hwassist::XltUnit demo;
    const u8 add_eax_imm[16] = {0x05, 0x78, 0x56, 0x34, 0x12}; // add eax, 0x12345678
    u8 out[16];
    u32 csr = demo.translate(add_eax_imm, out);
    std::printf("XLTX86 on 'add eax, 0x12345678': x86_ilen=%u "
                "uops_bytes=%u cmplx=%d cti=%d\n",
                uops::csr::ilen(csr), uops::csr::uopBytes(csr),
                uops::csr::isComplex(csr), uops::csr::isCti(csr));
    const u8 ret_insn[16] = {0xc3};
    csr = demo.translate(ret_insn, out);
    std::printf("XLTX86 on 'ret':                 x86_ilen=%u "
                "uops_bytes=%u cmplx=%d cti=%d\n\n",
                uops::csr::ilen(csr), uops::csr::uopBytes(csr),
                uops::csr::isComplex(csr), uops::csr::isCti(csr));

    // --- BBT cost: software vs hardware-assisted ---------------------
    const double sw_cycles = engine::params::BBT_CYCLES_PER_INSN;
    double uops_per_insn = 0;
    double ha4 = measureHaloop(4, &uops_per_insn);

    std::printf("--- BBT translation cost per x86 instruction ---\n");
    TextTable t({"scheme", "cycles/insn", "native instrs/insn",
                 "paper"});
    t.addRow({"software BBT (VM.soft)", fmtDouble(sw_cycles, 0),
              fmtDouble(engine::params::BBT_NATIVE_PER_INSN, 0),
              "83 cyc / 105 instrs"});
    t.addRow({"HAloop + XLTx86 (VM.be)", fmtDouble(ha4, 1),
              fmtDouble(uops_per_insn, 1), "20 cyc"});
    std::printf("%s\n", t.render().c_str());
    std::printf("speedup from the backend assist: %.1fx (paper: 83/20 "
                "= 4.2x)\n\n",
                sw_cycles / ha4);

    std::printf("--- ablation: XLTx86 latency sensitivity ---\n");
    TextTable t2({"XLTx86 latency", "HAloop cycles/insn"});
    for (Cycles lat : {2u, 4u, 8u})
        t2.addRow({fmtDouble(static_cast<double>(lat), 0) + " cycles",
                   fmtDouble(measureHaloop(lat), 1)});
    std::printf("%s", t2.render().c_str());
    return 0;
}

/**
 * @file
 * Shared helpers for the test suite.
 */

#ifndef CDVM_TESTS_HELPERS_HH
#define CDVM_TESTS_HELPERS_HH

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "vmm/vmm.hh"
#include "workload/program_gen.hh"
#include "x86/asm.hh"
#include "x86/interp.hh"
#include "x86/memory.hh"

namespace cdvm::test
{

/** Outcome of a full program run. */
struct RunResult
{
    x86::Exit exit = x86::Exit::None;
    x86::CpuState cpu;
    InstCount retired = 0;
};

/** Run a program to completion under pure interpretation. */
inline RunResult
runInterp(const workload::Program &prog, x86::Memory &mem,
          InstCount max_insns = 10'000'000)
{
    prog.loadInto(mem);
    RunResult r;
    r.cpu = prog.initialState();
    x86::Interpreter interp(r.cpu, mem);
    r.exit = interp.run(max_insns);
    r.retired = r.cpu.icount;
    return r;
}

/** Run a program to completion under a VMM configuration. */
inline RunResult
runVmm(const workload::Program &prog, x86::Memory &mem,
       const vmm::VmmConfig &cfg, vmm::VmmStats *stats_out = nullptr,
       InstCount max_insns = 10'000'000)
{
    prog.loadInto(mem);
    RunResult r;
    r.cpu = prog.initialState();
    vmm::Vmm monitor(mem, cfg);
    r.exit = monitor.run(r.cpu, max_insns);
    r.retired = r.cpu.icount;
    if (stats_out)
        *stats_out = monitor.stats();
    return r;
}

/**
 * Compare two runs' architected state and memory windows, and, when
 * both halted, the instructions they retired: every tier must account
 * for exactly the instructions the interpreter runs.
 *
 * AssertionResult-style predicate: usable as
 * EXPECT_TRUE(sameOutcome(...)) << "seed " << seed, so a failing
 * sweep iteration reports which seed/config diverged instead of
 * aborting the whole test from inside a void helper.
 */
inline ::testing::AssertionResult
sameOutcome(const workload::Program &prog, const RunResult &ref,
            x86::Memory &ref_mem, const RunResult &got,
            x86::Memory &got_mem)
{
    std::ostringstream why;
    if (ref.exit != got.exit)
        why << " exit " << static_cast<int>(ref.exit) << " vs "
            << static_cast<int>(got.exit) << ";";
    if (ref.exit == x86::Exit::Halted && got.exit == x86::Exit::Halted &&
        ref.retired != got.retired)
        why << " retired " << ref.retired << " vs " << got.retired << ";";
    if (ref.cpu.eip != got.cpu.eip)
        why << " eip 0x" << std::hex << ref.cpu.eip << " vs 0x"
            << got.cpu.eip << std::dec << ";";
    for (unsigned r = 0; r < x86::NUM_REGS; ++r) {
        if (ref.cpu.regs[r] != got.cpu.regs[r])
            why << " reg " << x86::regName(static_cast<x86::Reg>(r))
                << " 0x" << std::hex << ref.cpu.regs[r] << " vs 0x"
                << got.cpu.regs[r] << std::dec << ";";
    }
    if ((ref.cpu.eflags & x86::FLAG_ALL) !=
        (got.cpu.eflags & x86::FLAG_ALL))
        why << " eflags 0x" << std::hex
            << (ref.cpu.eflags & x86::FLAG_ALL) << " vs 0x"
            << (got.cpu.eflags & x86::FLAG_ALL) << std::dec << ";";

    if (ref_mem.readBlock(prog.dataBase, prog.dataBytes) !=
        got_mem.readBlock(prog.dataBase, prog.dataBytes))
        why << " data segment differs;";
    if (ref_mem.readBlock(prog.stackTop - 4096, 4096) !=
        got_mem.readBlock(prog.stackTop - 4096, 4096))
        why << " stack window differs;";

    if (why.str().empty())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "outcome mismatch:"
                                         << why.str();
}

/** Assemble a single snippet at a fixed origin and load it. */
inline workload::Program
snippetProgram(x86::Assembler &as)
{
    workload::Program p;
    p.codeBase = as.origin();
    p.entry = as.origin();
    p.image = as.finalize();
    p.dataBase = 0x00800000;
    p.dataBytes = 64 * 1024;
    p.stackTop = 0x7fff0000;
    return p;
}

} // namespace cdvm::test

#endif // CDVM_TESTS_HELPERS_HH

#include "engine/backend.hh"

#include <span>

#include "common/logging.hh"
#include "common/statreg.hh"
#include "uops/crack.hh"
#include "uops/encoding.hh"
#include "x86/decoder.hh"

namespace cdvm::engine
{

using dbt::TransKind;
using dbt::Translation;

void
SoftwareBbtBackend::exportStats(StatRegistry &reg,
                                const std::string &prefix) const
{
    xlator.exportStats(reg, prefix);
}

void
TemplateBbtBackend::exportStats(StatRegistry &reg,
                                const std::string &prefix) const
{
    xlator.exportStats(reg, prefix);
}

std::unique_ptr<Translation>
XltBbtBackend::translate(Addr pc)
{
    auto t = std::make_unique<Translation>();
    t->kind = TransKind::BasicBlock;
    t->provenance = dbt::TransProvenance::XltBbt;
    t->entryPc = pc;

    // Block-forming rules mirror the software BBT exactly (same
    // covered instructions, same block-ending conditions), so VM.be
    // translations retire the same totals as VM.soft's.
    Addr cur = pc;
    u8 window[x86::MAX_INSN_LEN + 1];
    unsigned budget = maxInsns;
    bool done = false;
    while (!done && budget > 0) {
        // Straight-line body: the HAloop fetches, XLTx86-decodes and
        // stores encoded micro-ops into the scratch memory.
        hwassist::HaLoop::Result r = loop.run(cur, 0, budget);
        st.xltInsnsTranslated += r.insnsTranslated;

        // Lift the emitted encoding back into the translation,
        // attaching x86-pc provenance per HAloop iteration.
        u32 off = 0;
        for (const hwassist::HaLoop::Step &step : r.steps) {
            std::vector<u8> body = scratch.readBlock(off, step.uopBytes);
            uops::UopVec v;
            if (!uops::decodeAll(
                    std::span<const u8>(body.data(), body.size()), v))
                cdvm_fatal("XLTx86 emitted an undecodable micro-op "
                           "body at x86 pc 0x%llx",
                           static_cast<unsigned long long>(cur));
            for (uops::Uop &u : v) {
                u.x86pc = cur;
                t->uops.push_back(u);
            }
            t->x86pcs.push_back(cur);
            ++t->numX86Insns;
            t->x86Bytes += step.insnLen;
            cur += step.insnLen;
            off += step.uopBytes;
            --budget;
        }
        if (budget == 0)
            break; // block cut at the size limit, as in the BBT

        if (r.stoppedCti) {
            // The branch handler (software path): decode and crack
            // the CTI, terminate the block with branch metadata.
            ++st.xltCtiFallbacks;
            mem.fetchWindow(cur, window, sizeof(window));
            x86::DecodeResult dr = x86::decode(
                std::span<const u8>(window, sizeof(window)), cur);
            if (!dr.ok) {
                if (t->numX86Insns == 0)
                    return nullptr;
                break;
            }
            const x86::Insn &in = dr.insn;
            uops::CrackResult cr = uops::crack(in);
            t->containsComplex = t->containsComplex || cr.complex;
            for (uops::Uop &u : cr.uops)
                t->uops.push_back(u);
            t->x86pcs.push_back(in.pc);
            ++t->numX86Insns;
            t->x86Bytes += in.length;
            cur = in.nextPc();
            t->endsInCti = true;
            if (in.isCondBranch()) {
                t->endsInCondBranch = true;
                t->condBranchTarget = in.target;
                t->condBranchPc = in.pc;
            }
            done = true;
        } else if (r.stoppedComplex) {
            // The complex handler (software path): crack the one
            // instruction in software and resume the HAloop. An
            // undecodable instruction also raises Flag_cmplx; then
            // the block is cut before it (empty block = bad entry).
            mem.fetchWindow(cur, window, sizeof(window));
            x86::DecodeResult dr = x86::decode(
                std::span<const u8>(window, sizeof(window)), cur);
            if (!dr.ok) {
                if (t->numX86Insns == 0)
                    return nullptr;
                break;
            }
            ++st.xltComplexFallbacks;
            const x86::Insn &in = dr.insn;
            uops::CrackResult cr = uops::crack(in);
            t->containsComplex = t->containsComplex || cr.complex;
            for (uops::Uop &u : cr.uops)
                t->uops.push_back(u);
            t->x86pcs.push_back(in.pc);
            ++t->numX86Insns;
            t->x86Bytes += in.length;
            cur = in.nextPc();
            --budget;
        } else {
            done = true; // HAloop consumed the whole budget
        }
    }

    t->fallthroughPc = cur;
    t->codeBytes = uops::encodedBytes(t->uops);
    ++nBlocks;
    nInsns += t->numX86Insns;
    return t;
}

void
XltBbtBackend::exportStats(StatRegistry &reg,
                           const std::string &prefix) const
{
    reg.set(prefix + ".blocks", static_cast<double>(nBlocks),
            "basic blocks translated (HAloop)");
    reg.set(prefix + ".insns", static_cast<double>(nInsns),
            "x86 instructions translated");
    reg.set(prefix + ".insns_per_block",
            nBlocks ? static_cast<double>(nInsns) /
                          static_cast<double>(nBlocks)
                    : 0.0,
            "mean block length");
    xltUnit.exportStats(reg, "hwassist.xlt");
    reg.set("hwassist.haloop.cycles_per_insn",
            loop.measuredCyclesPerInsn(),
            "measured HAloop cycles per x86 instruction");
}

std::unique_ptr<Translation>
SbtBackend::translate(Addr seed_pc)
{
    std::optional<dbt::SuperblockTrace> trace = form(seed_pc);
    if (!trace)
        return nullptr;
    return xlator.translate(*trace);
}

std::optional<dbt::SuperblockTrace>
SbtBackend::form(Addr seed_pc)
{
    dbt::SuperblockFormer former(mem, bias, policy);
    std::optional<dbt::SuperblockTrace> trace = former.form(seed_pc);
    if (!trace || trace->insns.empty())
        return std::nullopt;
    return trace;
}

void
SbtBackend::exportStats(StatRegistry &reg,
                        const std::string &prefix) const
{
    xlator.exportStats(reg, prefix);
}

} // namespace cdvm::engine

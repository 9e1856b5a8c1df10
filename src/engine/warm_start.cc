#include "engine/warm_start.hh"

#include <algorithm>
#include <unordered_map>

namespace cdvm::engine
{

using dbt::TransId;
using dbt::Translation;

namespace
{

/**
 * True when every micro-op names a real opcode and real registers. The
 * body comes from outside the program, and the executor indexes its
 * register files with these fields unchecked.
 */
bool
uopFieldsInRange(std::span<const uops::Uop> body)
{
    return std::all_of(body.begin(), body.end(), [](const uops::Uop &u) {
        return u.op < uops::UOp::NUM_UOPS && u.dst < uops::NUM_UREGS &&
               u.src1 < uops::NUM_UREGS && u.src2 < uops::NUM_UREGS;
    });
}

} // namespace

WarmStartReport
warmStartInstall(const dbt::TransImage &img, const x86::Memory &mem,
                 CodeCacheManager &ccm, BranchProfile &prof,
                 EventStream *events)
{
    WarmStartReport rep;
    rep.loaded = img.recordCount();
    rep.mappedBytes = img.sizeBytes();

    // Content-address revalidation against THIS context's guest
    // memory: one key per distinct page list, each page hashed once.
    std::unordered_map<Addr, u64> page_hash;
    std::vector<u64> list_key(img.pageListCount());
    for (std::size_t k = 0; k < list_key.size(); ++k)
        list_key[k] = dbt::pageListKey(mem, img.pageList(k), page_hash);

    // A dense scan of the index: only the records whose key matches
    // are dereferenced.
    const std::span<const dbt::ImageRecordRef> index = img.recordIndex();
    std::vector<TransId> record_ids(index.size());
    for (std::size_t i = 0; i < index.size(); ++i) {
        const dbt::ImageRecordRef &ref = index[i];
        if (ref.pageKey != list_key[ref.pageList]) {
            ++rep.invalidated;
            continue;
        }
        // The key vouches for the list's pages; the list must also be
        // exactly the pages this record's code covers.
        const dbt::TransImage::RecordView v = img.record(i);
        const dbt::ImageRecordHeader &rh = *v.hdr;
        std::vector<Addr> covered = dbt::coveredPages(rh.entryPc,
                                                      v.x86pcs);
        std::sort(covered.begin(), covered.end());
        const std::span<const Addr> list = img.pageList(ref.pageList);
        if (!std::equal(covered.begin(), covered.end(), list.begin(),
                        list.end()) ||
            !uopFieldsInRange(v.uops)) {
            ++rep.invalidated;
            continue;
        }

        // Zero-copy: the Translation borrows the body and pc table
        // straight from the mapped image. No decode, no copy.
        auto t = std::make_unique<Translation>();
        t->kind = rh.kind ? dbt::TransKind::Superblock
                          : dbt::TransKind::BasicBlock;
        t->entryPc = rh.entryPc;
        t->numX86Insns = rh.nPcs; // one pc per covered instruction
        t->x86Bytes = rh.x86Bytes;
        t->fallthroughPc = rh.fallthroughPc;
        t->containsComplex = rh.flags & dbt::IMG_F_COMPLEX;
        t->endsInCti = rh.flags & dbt::IMG_F_ENDS_CTI;
        t->endsInCondBranch = rh.flags & dbt::IMG_F_ENDS_COND;
        t->provenance = static_cast<dbt::TransProvenance>(
            (rh.flags & dbt::IMG_F_PROV_MASK) >> dbt::IMG_F_PROV_SHIFT);
        t->condBranchTarget = rh.condBranchTarget;
        t->condBranchPc = rh.condBranchPc;
        t->execCount = rh.execCount;
        t->codeBytes = rh.codeBytes;
        t->mappedUops = v.uops.data();
        t->mappedUopCount = rh.nUops;
        t->mappedPcs = v.x86pcs.data();
        t->mappedPcCount = rh.nPcs;

        CodeCacheManager::InstallResult res = ccm.install(std::move(t));
        record_ids[i] = res.trans->id;
        ++rep.installed;
        rep.installedInsns += res.trans->numX86Insns;
        if (events) {
            StageEvent ev;
            ev.stage = TracePhase::WarmInstall;
            ev.insns = res.trans->numX86Insns;
            ev.x86Addr = res.trans->entryPc;
            ev.x86Bytes = res.trans->x86Bytes;
            ev.codeAddr = res.trans->codeAddr;
            ev.codeBytes = res.trans->codeBytes;
            ev.arg = res.trans->entryPc;
            ev.transId = res.trans->id.raw();
            events->emit(ev);
        }
    }

    // Single relocation pass over the flat table: TransId handles make
    // each fixup one resolve + one slot write; links whose endpoint
    // was invalidated (or flushed mid-fill) drop out naturally.
    for (const dbt::ImageReloc &r : img.relocs()) {
        Translation *from = ccm.resolve(record_ids[r.fromRecord]);
        if (!from)
            continue;
        const TransId to = record_ids[r.toRecord];
        if (ccm.resolve(to) && from->addChain(r.targetPc, to))
            ++rep.relocations;
    }

    for (const dbt::ImageBranchStat &b : img.branchProfile()) {
        prof.seed(b.pc, b.taken, b.notTaken);
        ++rep.profileSeeded;
    }
    return rep;
}

} // namespace cdvm::engine

/**
 * @file
 * The zero-copy translation image (dbt/image): capture, format,
 * warm-start and sharing paths.
 *
 * Format robustness: a captured image carries every field of the live
 * translations it was built from; truncation at any point (including
 * every section boundary), trailing bytes and arbitrary bit flips are
 * rejected with a typed error -- never a crash, never a parse -- and
 * a corrupt file leaves the VM cleanly cold.
 *
 * Zero-copy: an image install binds views into the image, yet retires
 * bit-identical state to a cold run.
 *
 * Sharing: one writer appending generations races N reader contexts
 * installing from the same store; publishes never invalidate a held
 * generation; a 256-context fleet booting from one shared image
 * retires identically to per-context private loads.
 */

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dbt/image.hh"
#include "engine/cache_mgr.hh"
#include "engine/warm_start.hh"
#include "fleet/fleet.hh"
#include "helpers.hh"

namespace cdvm
{
namespace
{

using test::RunResult;
using test::runInterp;
using test::sameOutcome;

vmm::VmmConfig
cfgSoft()
{
    vmm::VmmConfig c = engine::EngineConfig::vmSoft();
    c.hotThreshold = 30; // low threshold so SBT entries exist too
    return c;
}

workload::Program
testProgram(u64 seed = 7)
{
    workload::ProgramParams pp;
    pp.seed = seed;
    return workload::generateProgram(pp);
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

/** A Vmm that ran a program to its first halt, kept alive so tests
 *  can compare its live translations with what it captured. */
struct Primed
{
    x86::Memory mem;
    std::unique_ptr<vmm::Vmm> vm;
    RunResult run;

    Primed(const workload::Program &prog, const vmm::VmmConfig &cfg)
    {
        prog.loadInto(mem);
        vm = std::make_unique<vmm::Vmm>(mem, cfg);
        run.cpu = prog.initialState();
        run.exit = vm->run(run.cpu, 10'000'000);
        run.retired = run.cpu.icount;
    }
};

/** Run a program cold and capture its warm-start image. */
dbt::TransImage
capturedImage(const workload::Program &prog,
              const vmm::VmmConfig &cfg = cfgSoft())
{
    return Primed(prog, cfg).vm->captureWarmStart();
}

/** An image's bytes as an owned blob (to truncate, flip or save). */
std::vector<u8>
blobOf(const dbt::TransImage &img)
{
    const std::span<const u8> b = img.bytes();
    return {b.begin(), b.end()};
}

/** Adopt a blob, asserting success. */
dbt::TransImage
adopted(std::span<const u8> bytes)
{
    dbt::TransImage img;
    EXPECT_EQ(dbt::TransImage::adopt(bytes, img), dbt::LoadError::None);
    return img;
}

/** An endpoint pinned to one loaded image file. */
std::shared_ptr<dbt::ImageEndpoint>
pinnedFile(const std::string &path)
{
    auto img = std::make_shared<dbt::TransImage>();
    EXPECT_EQ(dbt::TransImage::load(path, *img), dbt::LoadError::None);
    return std::make_shared<dbt::ImageStore>(img);
}

/** runVmm with a warm-start source bound. */
RunResult
runWarm(const workload::Program &prog, x86::Memory &mem,
        const vmm::VmmConfig &cfg,
        std::shared_ptr<dbt::ImageEndpoint> endpoint,
        vmm::VmmStats *stats_out)
{
    engine::SharedServices svc;
    svc.imageEndpoint = std::move(endpoint);
    prog.loadInto(mem);
    RunResult r;
    r.cpu = prog.initialState();
    vmm::Vmm vm(mem, cfg, svc);
    r.exit = vm.run(r.cpu, 10'000'000);
    r.retired = r.cpu.icount;
    *stats_out = vm.stats();
    return r;
}

/** Run a plain Vmm on prog until >= target retired at a HLT (the
 *  fleet's completion rule, so solo runs compare exactly). */
void
runToTarget(vmm::Vmm &vm, const workload::Program &prog, u64 target)
{
    x86::CpuState cpu = prog.initialState();
    for (;;) {
        // Past the target, keep granting budget until the HLT (the
        // fleet's completion rule): run(cpu, 0) would retire nothing.
        const u64 done = vm.stats().totalRetired();
        const x86::Exit e =
            vm.run(cpu, done < target ? target - done : target);
        if (e == x86::Exit::Halted) {
            if (vm.stats().totalRetired() >= target)
                return;
            cpu = prog.initialState();
        } else {
            ASSERT_EQ(e, x86::Exit::None);
        }
    }
}

/** A private install target: guest memory + the engine structures a
 *  warm install writes into. */
struct InstallTarget
{
    x86::Memory mem;
    engine::EngineConfig cfg = cfgSoft();
    engine::EngineStats stats;
    engine::EventStream events;
    engine::BranchProfile prof;
    engine::CodeCacheManager ccm{cfg, stats, events};

    explicit InstallTarget(const workload::Program &prog)
    {
        prog.loadInto(mem);
    }
};

/** Re-seal a hand-edited blob: recompute its whole-image checksum. */
void
reseal(std::vector<u8> &blob)
{
    constexpr std::size_t at = offsetof(dbt::ImageHeader, checksum);
    const u64 zero = 0;
    std::memcpy(blob.data() + at, &zero, sizeof zero);
    const u64 sum = dbt::imageHash(blob);
    std::memcpy(blob.data() + at, &sum, sizeof sum);
}

/** One chain link by what it joins: from (entryPc, kind), exit slot,
 *  target pc, to (entryPc, kind). */
using Link = std::tuple<Addr, u8, u32, Addr, Addr, u8>;

/** The chain links an image's relocations carry. */
std::set<Link>
linksOf(const dbt::TransImage &img)
{
    std::set<Link> links;
    for (const dbt::ImageReloc &r : img.relocs()) {
        const dbt::ImageRecordHeader &from = *img.record(r.fromRecord).hdr;
        const dbt::ImageRecordHeader &to = *img.record(r.toRecord).hdr;
        links.emplace(from.entryPc, from.kind, r.exitSlot, r.targetPc,
                      to.entryPc, to.kind);
    }
    return links;
}

/** Field-by-field Uop equality, the precise-state tag included. */
bool
sameUop(const uops::Uop &a, const uops::Uop &b)
{
    return a.op == b.op && a.dst == b.dst && a.src1 == b.src1 &&
           a.src2 == b.src2 && a.size == b.size && a.scale == b.scale &&
           a.cond == b.cond && a.hasImm == b.hasImm && a.imm == b.imm &&
           a.writeFlags == b.writeFlags &&
           a.fusedHead == b.fusedHead && a.target == b.target &&
           a.x86pc == b.x86pc;
}

// ---------------------------------------------------------------------
// Format: round trip, header sanity
// ---------------------------------------------------------------------

TEST(Image, RoundTripFieldEquality)
{
    // Every record of a captured image carries its live translation's
    // fields and body exactly, and the relocations carry its chains --
    // under each cold tier, whose translators set codeBytes
    // independently of the image.
    for (const char *name : {"vm.soft", "vm.soft.tmpl", "vm.be"}) {
        SCOPED_TRACE(name);
        vmm::VmmConfig cfg = *engine::EngineConfig::byName(name);
        cfg.hotThreshold = 30;
        Primed p(testProgram(), cfg);
        const std::vector<u8> blob = blobOf(p.vm->captureWarmStart());
        dbt::TransImage img = adopted(blob);
        dbt::TranslationMap &map = p.vm->translations();

        // The image keeps no instruction count: a warm install takes
        // it from the pc table, so every translator must push exactly
        // one pc per instruction it counts.
        std::size_t live = 0, links = 0;
        map.forEach([&](const dbt::Translation &t) {
            ++live;
            EXPECT_EQ(t.numX86Insns, t.pcSpan().size()) << t.entryPc;
            for (const dbt::Translation::Chain &ch : t.chains)
                links += map.resolve(ch.to) != nullptr;
        });
        ASSERT_GT(img.recordCount(), 0u);
        ASSERT_EQ(img.recordCount(), live);
        ASSERT_GT(img.pageListCount(), 0u);

        for (std::size_t i = 0; i < img.recordCount(); ++i) {
            const dbt::TransImage::RecordView v = img.record(i);
            const dbt::ImageRecordHeader &h = *v.hdr;
            const dbt::Translation *t = map.lookup(
                h.entryPc, static_cast<dbt::TransKind>(h.kind));
            ASSERT_NE(t, nullptr) << i;
            EXPECT_EQ(h.nPcs, t->numX86Insns) << i;
            EXPECT_EQ(h.x86Bytes, t->x86Bytes) << i;
            EXPECT_EQ(h.fallthroughPc, t->fallthroughPc) << i;
            EXPECT_EQ(bool(h.flags & dbt::IMG_F_COMPLEX),
                      t->containsComplex)
                << i;
            EXPECT_EQ(bool(h.flags & dbt::IMG_F_ENDS_CTI), t->endsInCti)
                << i;
            EXPECT_EQ(bool(h.flags & dbt::IMG_F_ENDS_COND),
                      t->endsInCondBranch)
                << i;
            EXPECT_EQ((h.flags & dbt::IMG_F_PROV_MASK) >>
                          dbt::IMG_F_PROV_SHIFT,
                      static_cast<unsigned>(t->provenance))
                << i;
            EXPECT_EQ(h.condBranchTarget, t->condBranchTarget) << i;
            EXPECT_EQ(h.condBranchPc, t->condBranchPc) << i;
            EXPECT_EQ(h.execCount, t->execCount) << i;
            EXPECT_EQ(h.codeBytes, t->codeBytes) << i;
            // The image trusts the translator's arena size: it must be
            // the encoded size of the body it carries.
            EXPECT_EQ(h.codeBytes, uops::encodedBytes(v.uops)) << i;

            const std::span<const Addr> pcs = t->pcSpan();
            EXPECT_TRUE(std::equal(v.x86pcs.begin(), v.x86pcs.end(),
                                   pcs.begin(), pcs.end()))
                << i;
            const std::span<const uops::Uop> code = t->code();
            ASSERT_EQ(v.uops.size(), code.size()) << i;
            for (std::size_t u = 0; u < code.size(); ++u)
                EXPECT_TRUE(sameUop(v.uops[u], code[u]))
                    << i << " uop " << u;
        }

        // One relocation per live chain, each from a distinct exit
        // slot to the record of the live successor.
        EXPECT_EQ(img.relocs().size(), links);
        std::set<std::pair<u32, u32>> exits;
        for (const dbt::ImageReloc &r : img.relocs()) {
            EXPECT_TRUE(exits.emplace(r.fromRecord, r.exitSlot).second)
                << r.fromRecord;
            const dbt::ImageRecordHeader &fh = *img.record(r.fromRecord).hdr;
            const dbt::Translation *from = map.lookup(
                fh.entryPc, static_cast<dbt::TransKind>(fh.kind));
            ASSERT_NE(from, nullptr) << r.fromRecord;
            const dbt::Translation::Chain &ch = from->chains[r.exitSlot];
            const dbt::Translation *to = map.resolve(ch.to);
            ASSERT_NE(to, nullptr) << r.fromRecord;
            EXPECT_EQ(r.targetPc, ch.targetPc) << r.fromRecord;
            const dbt::ImageRecordHeader &th = *img.record(r.toRecord).hdr;
            EXPECT_EQ(th.entryPc, to->entryPc) << r.fromRecord;
            EXPECT_EQ(th.kind, to->kind == dbt::TransKind::Superblock)
                << r.fromRecord;
        }

        // Adopting the same bytes twice yields the same image.
        dbt::TransImage img2 = adopted(blob);
        EXPECT_EQ(img2.recordCount(), img.recordCount());
        EXPECT_EQ(img2.header().checksum, img.header().checksum);
    }
}

TEST(Image, BranchProfileRoundTrip)
{
    // The captured profile seeds a warm boot with the biases the cold
    // run observed.
    workload::Program prog = testProgram();
    Primed p(prog, cfgSoft());
    dbt::TransImage img = p.vm->captureWarmStart();
    ASSERT_FALSE(img.branchProfile().empty());

    InstallTarget t(prog);
    engine::warmStartInstall(img, t.mem, t.ccm, t.prof);
    for (std::size_t i = 0; i < img.branchProfile().size(); ++i) {
        const dbt::ImageBranchStat &b = img.branchProfile()[i];
        if (i > 0) {
            EXPECT_LT(img.branchProfile()[i - 1].pc, b.pc) << i;
        }
        const std::optional<double> want = p.vm->branchBias(b.pc);
        const std::optional<double> got = t.prof.bias(b.pc);
        ASSERT_EQ(got.has_value(), want.has_value()) << i;
        if (want) {
            EXPECT_DOUBLE_EQ(*got, *want) << i;
        }
    }
}

TEST(Image, HeaderAndSectionSanity)
{
    dbt::TransImage img = capturedImage(testProgram());

    const dbt::ImageHeader &h = img.header();
    EXPECT_EQ(h.magic, dbt::IMAGE_MAGIC);
    EXPECT_EQ(h.version, dbt::IMAGE_VERSION);
    EXPECT_EQ(h.sectionCount, dbt::IMAGE_NUM_SECTIONS);
    EXPECT_EQ(h.totalBytes, img.sizeBytes());
    EXPECT_EQ(h.generation, 1u);
    EXPECT_EQ(h.dedupeHits, 0u);
    EXPECT_EQ(h.evicted, 0u);

    u64 prevEnd = sizeof(dbt::ImageHeader);
    for (u32 s = 0; s < dbt::IMAGE_NUM_SECTIONS; ++s) {
        const dbt::ImageSectionDesc &d = h.sections[s];
        EXPECT_EQ(d.offset % 8, 0u) << s;
        EXPECT_GE(d.offset, prevEnd) << s;
        EXPECT_LE(d.offset + d.bytes, h.totalBytes) << s;
        prevEnd = d.offset + d.bytes;
    }

    // Each page list is a strictly ascending run of 4K pages, and the
    // lists are distinct and in sorted order.
    for (std::size_t k = 0; k < img.pageListCount(); ++k) {
        const std::span<const Addr> list = img.pageList(k);
        ASSERT_FALSE(list.empty()) << k;
        for (std::size_t i = 0; i < list.size(); ++i) {
            EXPECT_EQ(list[i] % 4096, 0u) << k;
            if (i > 0) {
                EXPECT_LT(list[i - 1], list[i]) << k;
            }
        }
        if (k > 0) {
            const std::span<const Addr> prev = img.pageList(k - 1);
            EXPECT_TRUE(std::lexicographical_compare(
                prev.begin(), prev.end(), list.begin(), list.end()))
                << k;
        }
    }
}

TEST(Image, HashGoldenValues)
{
    // imageHash is XXH64 with seed 0; these are its reference values
    // for the bytes i * 131 + 7. Every image hashes with it, so any
    // change here needs an IMAGE_VERSION bump.
    const std::pair<std::size_t, u64> golden[] = {
        {0, 0xEF46DB3751D8E999ull},  {1, 0xA96C7F0CE858BBB7ull},
        {7, 0x2744460DD675D2C0ull},  {8, 0x994B676B71CE94DDull},
        {31, 0x6711D55E306B5D8Full}, {32, 0x07F7B8E3BC5D6E25ull},
        {33, 0x09F85EEB4E1CBE9Full}, {4096, 0xCF05ADF75ACA30CFull},
    };
    std::vector<u8> page(4096);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<u8>(i * 131 + 7);
    for (const auto &[n, want] : golden) {
        EXPECT_EQ(dbt::imageHash(std::span<const u8>(page.data(), n)),
                  want)
            << "n=" << n;
    }

    // A guest page hashes exactly its 4K bytes; a hole reads as zeros.
    x86::Memory mem;
    mem.writeBlock(0x10000, page);
    EXPECT_EQ(dbt::guestPageHash(mem, 0x10000), 0xCF05ADF75ACA30CFull);
    EXPECT_EQ(dbt::guestPageHash(mem, 0x20000),
              dbt::imageHash(std::vector<u8>(4096, 0)));
}

TEST(Image, PageListRefsMatchCoveredPages)
{
    // Every record's page-list ref is exactly its sorted covered
    // pages -- in a capture, in a merge of two classes, and after
    // eviction -- and every list is used by some record.
    const dbt::TransImage iA = capturedImage(testProgram(7));
    const dbt::TransImage iB = capturedImage(testProgram(8));
    dbt::ImageBuilder merge;
    merge.add(iA);
    merge.add(iB);
    const dbt::TransImage merged = adopted(merge.build());
    dbt::ImageBuilder small(
        dbt::ImageBuilder::Options{merged.sizeBytes() / 3, 1});
    small.add(merged);
    const dbt::TransImage evicted = adopted(small.build());
    ASSERT_GT(small.evicted(), 0u);

    for (const dbt::TransImage *img : {&iA, &merged, &evicted}) {
        std::vector<bool> used(img->pageListCount(), false);
        for (std::size_t i = 0; i < img->recordCount(); ++i) {
            const dbt::TransImage::RecordView v = img->record(i);
            std::vector<Addr> want =
                dbt::coveredPages(v.hdr->entryPc, v.x86pcs);
            std::sort(want.begin(), want.end());
            const u32 list = img->recordIndex()[i].pageList;
            const std::span<const Addr> got = img->pageList(list);
            EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin(),
                                   got.end()))
                << i;
            used[list] = true;
        }
        EXPECT_EQ(std::count(used.begin(), used.end(), false), 0);
    }
}

// ---------------------------------------------------------------------
// Rejection: truncation, trailing bytes and bit flips, always typed
// ---------------------------------------------------------------------

TEST(Image, TruncationSweepTyped)
{
    const std::vector<u8> blob = blobOf(capturedImage(testProgram()));
    dbt::TransImage whole = adopted(blob);

    // Every section boundary exactly, plus a sweep over the body.
    std::vector<std::size_t> cuts;
    for (u32 s = 0; s < dbt::IMAGE_NUM_SECTIONS; ++s) {
        const dbt::ImageSectionDesc &d = whole.header().sections[s];
        cuts.push_back(d.offset);
        cuts.push_back(d.offset + d.bytes);
    }
    const std::size_t step = std::max<std::size_t>(1, blob.size() / 97);
    for (std::size_t len = 0; len < blob.size(); len += step)
        cuts.push_back(len);

    for (std::size_t len : cuts) {
        if (len >= blob.size())
            continue;
        dbt::TransImage out;
        const dbt::LoadError err = dbt::TransImage::adopt(
            std::span<const u8>(blob.data(), len), out);
        EXPECT_EQ(err, dbt::LoadError::Truncated) << "len=" << len;
    }
}

TEST(Image, TrailingBytesRejected)
{
    // An image source holds exactly one image: bytes after totalBytes
    // are Corrupt, whether adopted or loaded from a file.
    std::vector<u8> padded = blobOf(capturedImage(testProgram()));
    padded.resize(padded.size() + 64, 0xAB);
    dbt::TransImage out;
    EXPECT_EQ(dbt::TransImage::adopt(padded, out),
              dbt::LoadError::Corrupt);

    const std::string path = tempPath("image_trailing.cdvmimg");
    ASSERT_TRUE(dbt::TransImage::save(path, padded));
    EXPECT_EQ(dbt::TransImage::load(path, out), dbt::LoadError::Corrupt);
    std::remove(path.c_str());
}

TEST(Image, BitFlipSweepTyped)
{
    const std::vector<u8> blob = blobOf(capturedImage(testProgram()));
    ASSERT_GT(blob.size(), 2 * sizeof(dbt::ImageHeader));

    // A strided sweep over the whole blob, plus every byte of the
    // header, of one full 32-byte hash stripe mid-image and of the
    // last 64 bytes: a dropped hash lane or an unhashed tail shows up
    // even where the stride steps over it.
    std::vector<std::size_t> positions;
    const std::size_t step = std::max<std::size_t>(1, blob.size() / 61);
    for (std::size_t pos = 0; pos < blob.size(); pos += step)
        positions.push_back(pos);
    auto every = [&positions](std::size_t from, std::size_t n) {
        for (std::size_t pos = from; pos < from + n; ++pos)
            positions.push_back(pos);
    };
    every(0, sizeof(dbt::ImageHeader));
    every(blob.size() / 2 & ~std::size_t{31}, 32);
    every(blob.size() - 64, 64);

    for (std::size_t pos : positions) {
        std::vector<u8> bad = blob;
        bad[pos] ^= 0x40;
        dbt::TransImage out;
        const dbt::LoadError err = dbt::TransImage::adopt(bad, out);
        EXPECT_NE(err, dbt::LoadError::None) << "pos=" << pos;
        if (pos < 8) {
            EXPECT_EQ(err, dbt::LoadError::BadMagic) << "pos=" << pos;
        } else if (pos < 12) {
            EXPECT_EQ(err, dbt::LoadError::BadVersion) << "pos=" << pos;
        } else {
            // Size, checksum, index or body damage: structural.
            EXPECT_TRUE(err == dbt::LoadError::Truncated ||
                        err == dbt::LoadError::Corrupt)
                << "pos=" << pos << " err=" << static_cast<int>(err);
        }
    }
}

TEST(Image, FutureVersionsRejected)
{
    // Any other version is refused before its checksum is looked at:
    // a future one, and the previous formats (v2, v3), which are
    // rebuilt, never migrated.
    for (u8 version : {u8{0x7F}, u8{2}, u8{3}}) {
        std::vector<u8> blob = blobOf(capturedImage(testProgram()));
        blob[8] = version; // ImageHeader::version low byte
        dbt::TransImage out;
        EXPECT_EQ(dbt::TransImage::adopt(blob, out),
                  dbt::LoadError::BadVersion)
            << int{version};
    }
}

TEST(Image, CorruptFileFallsBackCold)
{
    workload::Program prog = testProgram();
    std::vector<u8> blob = blobOf(capturedImage(prog));

    // Flip one byte deep in the record section and write it out: the
    // load is refused with a typed error, so nothing gets bound.
    blob[blob.size() / 2] ^= 0x01;
    const std::string path = tempPath("image_corrupt.cdvmimg");
    ASSERT_TRUE(dbt::TransImage::save(path, blob));
    dbt::TransImage img;
    EXPECT_EQ(dbt::TransImage::load(path, img), dbt::LoadError::Corrupt);
    std::remove(path.c_str());

    // A VM whose source has nothing to offer boots cleanly cold.
    x86::Memory mem, ref_mem;
    vmm::VmmStats st;
    const RunResult got = runWarm(
        prog, mem, cfgSoft(), std::make_shared<dbt::ImageStore>(), &st);
    const RunResult ref = runInterp(prog, ref_mem);
    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem));
    EXPECT_EQ(st.warmLoaded, 0u);
    EXPECT_EQ(st.warmInstalled, 0u);
    EXPECT_EQ(st.warmMappedBytes, 0u);
}

// ---------------------------------------------------------------------
// Content addressing: staleness and dedupe
// ---------------------------------------------------------------------

TEST(Image, StalePageHashInvalidation)
{
    // Capture program A, then boot program B (different code at the
    // same addresses): every mismatching record silently cold-falls.
    const std::string path = tempPath("image_stale.cdvmimg");
    ASSERT_TRUE(dbt::TransImage::save(
        path, capturedImage(testProgram(7)).bytes()));

    workload::Program progB = testProgram(8);
    x86::Memory mem, ref_mem;
    vmm::VmmStats st;
    const RunResult got =
        runWarm(progB, mem, cfgSoft(), pinnedFile(path), &st);
    const RunResult ref = runInterp(progB, ref_mem);
    EXPECT_TRUE(sameOutcome(progB, ref, ref_mem, got, mem));

    EXPECT_GT(st.warmLoaded, 0u);
    EXPECT_GT(st.warmInvalidated, 0u);
    EXPECT_EQ(st.warmInstalled + st.warmInvalidated, st.warmLoaded);
    EXPECT_EQ(st.warmBodyCopies, 0u);
    std::remove(path.c_str());
}

TEST(Image, MismatchedPageListFallsBackCold)
{
    // A checksum-valid image where two records trade their (pageKey,
    // page list) refs: each key still matches its list, but neither
    // list is the pages the record's code covers, so both records
    // fall back cold and everything else installs. The program spans
    // several code pages, so its records use more than one list.
    workload::ProgramParams pp;
    pp.seed = 7;
    pp.numFuncs = 24;
    pp.mainIterations = 1;
    pp.loopTripMax = 4;
    const workload::Program prog = workload::generateProgram(pp);
    std::vector<u8> blob = blobOf(capturedImage(prog));
    const dbt::TransImage img = adopted(blob);
    const std::span<const dbt::ImageRecordRef> index = img.recordIndex();
    std::size_t b = 1;
    while (b < index.size() && index[b].pageList == index[0].pageList)
        ++b;
    ASSERT_LT(b, index.size());
    dbt::ImageRecordRef r0 = index[0], rb = index[b];
    std::swap(r0.pageKey, rb.pageKey);
    std::swap(r0.pageList, rb.pageList);
    const u64 at = img.header()
                       .sections[static_cast<u32>(
                           dbt::ImageSection::RecordIndex)]
                       .offset;
    std::memcpy(blob.data() + at, &r0, sizeof r0);
    std::memcpy(blob.data() + at + b * sizeof rb, &rb, sizeof rb);
    reseal(blob);
    auto bad = std::make_shared<dbt::TransImage>(adopted(blob));

    InstallTarget t(prog);
    const engine::WarmStartReport rep =
        engine::warmStartInstall(*bad, t.mem, t.ccm, t.prof);
    EXPECT_EQ(rep.invalidated, 2u);
    EXPECT_EQ(rep.installed, bad->recordCount() - 2);

    x86::Memory mem, ref_mem;
    vmm::VmmStats st;
    const RunResult got = runWarm(
        prog, mem, cfgSoft(), std::make_shared<dbt::ImageStore>(bad), &st);
    const RunResult ref = runInterp(prog, ref_mem);
    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem));
    EXPECT_EQ(st.warmInvalidated, 2u);
}

TEST(Image, OutOfRangeUopFieldFallsBackCold)
{
    // A checksum-valid image whose micro-op names an opcode or a
    // register that does not exist (the executor indexes its register
    // files with these fields unchecked): that one record falls back
    // cold, everything else installs, and the run retires exactly as
    // the interpreter does. One case per checked field of one lea.
    const workload::Program prog = testProgram();
    const std::vector<u8> blob = blobOf(capturedImage(prog));
    const dbt::TransImage img = adopted(blob);
    const std::span<const uops::Uop> body = img.record(0).uops;
    const auto lea = std::find_if(body.begin(), body.end(),
                                  [](const uops::Uop &u) {
                                      return u.op == uops::UOp::Lea;
                                  });
    ASSERT_NE(lea, body.end());
    const std::size_t at = static_cast<std::size_t>(
        reinterpret_cast<const u8 *>(&*lea) - img.bytes().data());

    const std::pair<std::size_t, u8> patches[] = {
        {offsetof(uops::Uop, op), static_cast<u8>(uops::UOp::NUM_UOPS)},
        {offsetof(uops::Uop, dst), 200},
        {offsetof(uops::Uop, src1), uops::NUM_UREGS},
        {offsetof(uops::Uop, src2), 0xFF},
    };
    for (const auto &[field, value] : patches) {
        SCOPED_TRACE(field);
        std::vector<u8> bad_blob = blob;
        bad_blob[at + field] = value;
        reseal(bad_blob);
        auto bad = std::make_shared<dbt::TransImage>(adopted(bad_blob));

        InstallTarget t(prog);
        const engine::WarmStartReport rep =
            engine::warmStartInstall(*bad, t.mem, t.ccm, t.prof);
        // Stop here if the record installed: running it would write
        // outside the register file.
        ASSERT_EQ(rep.invalidated, 1u);
        EXPECT_EQ(rep.installed, bad->recordCount() - 1);

        x86::Memory mem, ref_mem;
        vmm::VmmStats st;
        const RunResult got =
            runWarm(prog, mem, cfgSoft(),
                    std::make_shared<dbt::ImageStore>(bad), &st);
        const RunResult ref = runInterp(prog, ref_mem);
        EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem));
        EXPECT_EQ(st.warmInvalidated, 1u);
    }
}

TEST(Image, DedupeAcrossContexts)
{
    // Two contexts booting the same guest image capture identical
    // translations; the builder keeps one physical record per content.
    workload::Program prog = testProgram(11);
    const dbt::TransImage i1 = capturedImage(prog);
    const dbt::TransImage i2 = capturedImage(prog);
    ASSERT_GT(i1.recordCount(), 0u);
    ASSERT_EQ(i1.recordCount(), i2.recordCount());

    dbt::ImageBuilder b;
    b.add(i1);
    b.add(i2);
    EXPECT_EQ(b.dedupeHits(), i2.recordCount());
    const std::vector<u8> blob = b.build();

    dbt::TransImage img = adopted(blob);
    EXPECT_EQ(img.recordCount(), i1.recordCount());
    EXPECT_EQ(img.header().dedupeHits, i2.recordCount());

    // Both contexts install the full set from the shared record.
    InstallTarget t1(prog), t2(prog);
    const engine::WarmStartReport a =
        engine::warmStartInstall(img, t1.mem, t1.ccm, t1.prof);
    const engine::WarmStartReport c =
        engine::warmStartInstall(img, t2.mem, t2.ccm, t2.prof);
    EXPECT_EQ(a.installed, img.recordCount());
    EXPECT_EQ(c.installed, img.recordCount());
    EXPECT_EQ(a.invalidated, 0u);
    EXPECT_EQ(c.invalidated, 0u);
}

TEST(Image, MergedImageKeepsConflictingClassesApart)
{
    // Two workload classes place *different* code at the same guest
    // addresses. A merged image must install each class's records
    // only in the matching context (per-record content addresses).
    workload::Program progA = testProgram(7);
    workload::Program progB = testProgram(8);
    const dbt::TransImage iA = capturedImage(progA);
    const dbt::TransImage iB = capturedImage(progB);

    dbt::ImageBuilder b;
    b.add(iA);
    b.add(iB);
    dbt::TransImage img = adopted(b.build());
    ASSERT_GT(img.recordCount(), iA.recordCount());

    InstallTarget tA(progA), tB(progB);
    const engine::WarmStartReport repA =
        engine::warmStartInstall(img, tA.mem, tA.ccm, tA.prof);
    const engine::WarmStartReport repB =
        engine::warmStartInstall(img, tB.mem, tB.ccm, tB.prof);

    // Every record either installs or invalidates, per context, and
    // each context accepts at least its own class's captures.
    EXPECT_EQ(repA.installed + repA.invalidated, img.recordCount());
    EXPECT_EQ(repB.installed + repB.invalidated, img.recordCount());
    EXPECT_GE(repA.installed, iA.recordCount());
    EXPECT_GT(repA.invalidated, 0u);
    EXPECT_GE(repB.installed, iB.recordCount());
    EXPECT_GT(repB.invalidated, 0u);
}

TEST(Image, MergeKeepsChainLinks)
{
    // A merge re-binds each part's chain links from its relocations:
    // every link of every part is in the merged image, and a context
    // installing its class from the merge re-binds as many links as
    // from its own capture. Two captures of one program share every
    // record; two conflicting classes put different code at the same
    // addresses.
    const std::pair<u64, u64> cases[] = {{11, 11}, {7, 8}};
    for (const auto &[seedA, seedB] : cases) {
        SCOPED_TRACE(seedB);
        const workload::Program progA = testProgram(seedA);
        const dbt::TransImage iA = capturedImage(progA);
        const dbt::TransImage iB = capturedImage(testProgram(seedB));
        dbt::ImageBuilder b;
        b.add(iA);
        b.add(iB);
        const dbt::TransImage merged = adopted(b.build());

        const std::set<Link> links = linksOf(merged);
        EXPECT_EQ(links.size(), merged.relocs().size());
        for (const dbt::TransImage *part : {&iA, &iB}) {
            ASSERT_FALSE(part->relocs().empty());
            for (const Link &l : linksOf(*part))
                EXPECT_EQ(links.count(l), 1u) << std::get<0>(l);
        }

        InstallTarget own(progA), shared(progA);
        const engine::WarmStartReport a =
            engine::warmStartInstall(iA, own.mem, own.ccm, own.prof);
        const engine::WarmStartReport m = engine::warmStartInstall(
            merged, shared.mem, shared.ccm, shared.prof);
        EXPECT_GT(a.relocations, 0u);
        EXPECT_EQ(m.relocations, a.relocations);
    }
}

// ---------------------------------------------------------------------
// Zero-copy: views into the image and bit-identical warm runs
// ---------------------------------------------------------------------

TEST(Image, ZeroCopyInstallStats)
{
    workload::Program prog = testProgram();
    dbt::TransImage img = capturedImage(prog);

    InstallTarget mapped(prog);
    const engine::WarmStartReport mr = engine::warmStartInstall(
        img, mapped.mem, mapped.ccm, mapped.prof);
    EXPECT_EQ(mr.loaded, img.recordCount());
    EXPECT_EQ(mr.installed, img.recordCount());
    EXPECT_EQ(mr.invalidated, 0u);
    EXPECT_GT(mr.installedInsns, 0u);
    EXPECT_EQ(mr.mappedBytes, img.sizeBytes());
    EXPECT_EQ(mr.relocations, img.relocs().size());

    // Installed translations really are views into the image, and a
    // superblock's bound form is an array of this process's own.
    std::size_t superblocks = 0;
    for (std::size_t i = 0; i < img.recordCount(); ++i) {
        const dbt::TransImage::RecordView v = img.record(i);
        const dbt::Translation *t =
            mapped.ccm.lookup(v.hdr->entryPc,
                              static_cast<dbt::TransKind>(v.hdr->kind));
        ASSERT_NE(t, nullptr) << i;
        EXPECT_TRUE(t->mappedBody()) << i;
        EXPECT_EQ(t->code().data(), v.uops.data()) << i;
        EXPECT_EQ(t->pcSpan().data(), v.x86pcs.data()) << i;
        const bool sb = t->kind == dbt::TransKind::Superblock;
        superblocks += sb;
        EXPECT_EQ(t->bound != nullptr, sb) << i;
    }
    EXPECT_GT(superblocks, 0u) << "no superblock records to bind";
}

TEST(Image, WarmRunBitIdenticalToCold)
{
    workload::Program prog = testProgram(21);
    const std::string path = tempPath("image_warm.cdvmimg");

    // Cold run; save the image through the engine's own save path.
    vmm::VmmStats cold_st;
    Primed cold(prog, cfgSoft());
    cold_st = cold.vm->stats();
    ASSERT_TRUE(cold.vm->saveWarmStart(path));

    // Warm run maps the image: zero body copies, identical retire.
    x86::Memory warm_mem, ref_mem;
    vmm::VmmStats warm_st;
    const RunResult warm =
        runWarm(prog, warm_mem, cfgSoft(), pinnedFile(path), &warm_st);
    const RunResult ref = runInterp(prog, ref_mem);

    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, warm, warm_mem));
    EXPECT_TRUE(sameOutcome(prog, cold.run, cold.mem, warm, warm_mem));
    EXPECT_EQ(warm.retired, cold.run.retired);
    EXPECT_GT(warm_st.warmInstalled, 0u);
    EXPECT_EQ(warm_st.warmInstalled, warm_st.warmLoaded);
    EXPECT_EQ(warm_st.warmInvalidated, 0u);
    EXPECT_EQ(warm_st.warmBodyCopies, 0u);
    EXPECT_GT(warm_st.warmMappedBytes, 0u);
    EXPECT_GT(warm_st.warmRelocations, 0u);
    // And it saved translation work: the warm run re-translates
    // strictly fewer basic blocks than the cold run did.
    EXPECT_LT(warm_st.bbtTranslations, cold_st.bbtTranslations);
    std::remove(path.c_str());
}

TEST(Image, TemplateProvenanceRoundTrip)
{
    workload::Program prog = testProgram(33);
    const std::string path = tempPath("image_tmpl.cdvmimg");

    vmm::VmmConfig cfg = engine::EngineConfig::vmSoftTmpl();
    cfg.hotThreshold = 30;

    // Cold run under the template tier; the captured image remembers
    // the producing tier.
    Primed cold(prog, cfg);
    {
        const dbt::TransImage img = cold.vm->captureWarmStart();
        std::size_t tmpl = 0, sbt = 0;
        for (std::size_t i = 0; i < img.recordCount(); ++i) {
            const auto prov = static_cast<dbt::TransProvenance>(
                (img.record(i).hdr->flags & dbt::IMG_F_PROV_MASK) >>
                dbt::IMG_F_PROV_SHIFT);
            tmpl += prov == dbt::TransProvenance::TmplBbt;
            sbt += prov == dbt::TransProvenance::Sbt;
        }
        EXPECT_GT(tmpl, 0u) << "no template-built blocks captured";
        EXPECT_GT(sbt, 0u) << "no superblocks captured";
        ASSERT_TRUE(cold.vm->saveWarmStart(path));
    }

    // Warm boot: the zero-copy install restores provenance, the run
    // needs no cold template translation, and retire is identical.
    engine::SharedServices svc;
    svc.imageEndpoint = pinnedFile(path);
    x86::Memory warm_mem;
    prog.loadInto(warm_mem);
    RunResult warm;
    warm.cpu = prog.initialState();
    vmm::Vmm vm(warm_mem, cfg, svc);

    std::size_t tmpl_installed = 0, installed = 0;
    vm.translations().forEach([&](const dbt::Translation &t) {
        ++installed;
        tmpl_installed +=
            t.provenance == dbt::TransProvenance::TmplBbt;
    });
    EXPECT_GT(installed, 0u) << "warm start installed nothing";
    EXPECT_GT(tmpl_installed, 0u)
        << "template provenance lost across the image";

    warm.exit = vm.run(warm.cpu, 10'000'000);
    warm.retired = warm.cpu.icount;
    EXPECT_TRUE(sameOutcome(prog, cold.run, cold.mem, warm, warm_mem));
    EXPECT_EQ(warm.retired, cold.run.retired);
    EXPECT_EQ(vm.stats().bbtTranslations, 0u)
        << "warm template boot fell back to cold translation";
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Eviction
// ---------------------------------------------------------------------

TEST(Image, EvictionByBudgetKeepsHotPrefix)
{
    workload::Program prog = testProgram();
    // Hottest-first capture so the ranking is meaningful.
    const dbt::TransImage full = capturedImage(prog);
    ASSERT_GT(full.recordCount(), 4u);

    dbt::ImageBuilder b(
        dbt::ImageBuilder::Options{full.sizeBytes() / 2, 1});
    b.add(full);
    const std::vector<u8> small = b.build();
    ASSERT_GT(b.evicted(), 0u);
    EXPECT_LE(small.size(), full.sizeBytes() / 2);

    dbt::TransImage img = adopted(small);
    EXPECT_EQ(img.header().evicted, b.evicted());
    EXPECT_EQ(img.recordCount(), full.recordCount() - b.evicted());

    // The kept set is the hottest prefix of the ranking, and the
    // survivors still install (chains to evicted records dropped).
    for (std::size_t i = 0; i < img.recordCount(); ++i)
        EXPECT_EQ(img.record(i).hdr->entryPc,
                  full.record(i).hdr->entryPc)
            << i;
    InstallTarget t(prog);
    const engine::WarmStartReport rep =
        engine::warmStartInstall(img, t.mem, t.ccm, t.prof);
    EXPECT_EQ(rep.installed, img.recordCount());

    // No budget pressure: nothing evicted.
    dbt::ImageBuilder loose(
        dbt::ImageBuilder::Options{2 * full.sizeBytes(), 1});
    loose.add(full);
    loose.build();
    EXPECT_EQ(loose.evicted(), 0u);
}

// ---------------------------------------------------------------------
// Sharing: single writer, concurrent readers (TSan targets)
// ---------------------------------------------------------------------

TEST(ImageConcurrency, ManyReadersOneWriterAppend)
{
    workload::Program prog = testProgram(11);
    auto base = std::make_shared<const dbt::TransImage>(
        capturedImage(prog));
    const dbt::TransImage delta = capturedImage(testProgram(31));

    dbt::ImageStore store;
    store.publish(base);

    constexpr unsigned kReaders = 4;
    constexpr unsigned kInstallsPerReader = 6;
    constexpr unsigned kAppends = 5;
    std::atomic<unsigned> installs{0};
    std::atomic<bool> failed{false};

    std::vector<std::thread> readers;
    for (unsigned r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
            for (unsigned i = 0; i < kInstallsPerReader; ++i) {
                // Hold the generation across the whole install; the
                // writer may publish newer ones meanwhile.
                std::shared_ptr<const dbt::TransImage> img =
                    store.acquire();
                if (!img) {
                    failed = true;
                    return;
                }
                InstallTarget t(prog);
                const engine::WarmStartReport rep =
                    engine::warmStartInstall(*img, t.mem, t.ccm,
                                             t.prof);
                if (rep.installed < base->recordCount()) {
                    failed = true;
                    return;
                }
                installs.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    std::thread writer([&] {
        for (unsigned i = 0; i < kAppends; ++i) {
            if (store.append(delta) != dbt::LoadError::None)
                failed = true;
        }
    });
    for (std::thread &t : readers)
        t.join();
    writer.join();

    EXPECT_FALSE(failed.load());
    EXPECT_EQ(installs.load(), kReaders * kInstallsPerReader);
    EXPECT_EQ(store.generation(), 1u + kAppends);

    // The final generation holds both contexts' records, deduped.
    std::shared_ptr<const dbt::TransImage> fin = store.acquire();
    ASSERT_NE(fin, nullptr);
    EXPECT_EQ(fin->recordCount(),
              base->recordCount() + delta.recordCount());
}

TEST(ImageConcurrency, PublishNeverInvalidatesHeldGenerations)
{
    workload::Program prog = testProgram(11);
    const dbt::TransImage delta = capturedImage(testProgram(31));

    dbt::ImageStore store;
    store.publish(
        std::make_shared<const dbt::TransImage>(capturedImage(prog)));

    std::atomic<bool> writerDone{false};
    std::atomic<bool> failed{false};

    std::vector<std::thread> readers;
    for (unsigned r = 0; r < 4; ++r) {
        readers.emplace_back([&] {
            // Pin the first generation and keep reading it while the
            // writer merges replacements underneath.
            std::shared_ptr<const dbt::TransImage> pinned =
                store.acquire();
            std::vector<Addr> want;
            for (std::size_t i = 0; i < pinned->recordCount(); ++i)
                want.push_back(pinned->record(i).hdr->entryPc);
            do {
                for (std::size_t i = 0; i < pinned->recordCount();
                     ++i) {
                    const dbt::TransImage::RecordView v =
                        pinned->record(i);
                    if (v.hdr->entryPc != want[i] || v.uops.empty()) {
                        failed = true;
                        return;
                    }
                }
            } while (!writerDone.load(std::memory_order_acquire));
        });
    }
    std::thread writer([&] {
        for (unsigned i = 0; i < 8; ++i) {
            if (store.append(delta) != dbt::LoadError::None)
                failed = true;
        }
        writerDone.store(true, std::memory_order_release);
    });
    for (std::thread &t : readers)
        t.join();
    writer.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(store.generation(), 9u);
}

// ---------------------------------------------------------------------
// Fleet: 256 contexts booting from ONE shared image
// ---------------------------------------------------------------------

TEST(ImageFleet, SharedImageBootStormRetireIdentical)
{
    fleet::FleetConfig cfg;
    cfg.contexts = 256;
    cfg.workloads = 2;
    cfg.fleetSeed = 3;
    cfg.targetInsns = 40'000;
    cfg.milestoneInsns = 40'000;
    cfg.quantumInsns = 10'000;
    {
        workload::ProgramParams p;
        p.numFuncs = 5;
        p.blocksPerFunc = 3;
        p.insnsPerBlock = 8;
        p.mainIterations = 2;
        cfg.workloadParams = p;
    }

    fleet::FleetServer cold(cfg);
    const fleet::FleetResult cr = cold.run();
    ASSERT_EQ(cr.completed, cfg.contexts);
    ASSERT_EQ(cr.reachedMilestone, cfg.contexts);

    // Prime every class, merge the captures into ONE shared image.
    const engine::EngineConfig tcfg =
        fleet::tenantEngineConfig(cfg.engineCfg);
    std::vector<workload::Program> progs;
    std::vector<dbt::TransImage> parts;
    for (unsigned w = 0; w < cfg.workloads; ++w) {
        workload::ProgramParams p = cfg.workloadParams;
        p.seed = fleet::deriveSeed(cfg.fleetSeed, w);
        progs.push_back(workload::generateProgram(p));
        x86::Memory mem;
        progs.back().loadInto(mem);
        vmm::Vmm vm(mem, tcfg);
        runToTarget(vm, progs.back(), 2 * cfg.targetInsns);
        parts.push_back(vm.captureWarmStart());
    }
    dbt::ImageBuilder b;
    for (const dbt::TransImage &part : parts)
        b.add(part);
    const std::vector<u8> blob = b.build();
    cfg.imageEndpoint = std::make_shared<dbt::ImageStore>(
        std::make_shared<const dbt::TransImage>(adopted(blob)));

    fleet::FleetServer warm(cfg);
    const fleet::FleetResult wr = warm.run();
    ASSERT_EQ(wr.completed, cfg.contexts);
    ASSERT_EQ(wr.reachedMilestone, cfg.contexts);

    // Boot-storm win: every context installed from the one image, and
    // warm p99 startup beats cold strictly.
    for (const fleet::ContextResult &c : wr.contexts) {
        EXPECT_GT(c.warmInstalled, 0u) << c.id;
        EXPECT_TRUE(c.ok) << c.id;
    }
    EXPECT_GT(wr.p99TimeToMilestone, 0.0);
    EXPECT_LT(wr.p99TimeToMilestone, cr.p99TimeToMilestone);

    // Retire-identical to per-context PRIVATE loads: a solo Vmm per
    // class adopts its own private copy of the same bytes and must
    // emulate exactly what every fleet context of that class did.
    for (unsigned w = 0; w < cfg.workloads; ++w) {
        engine::SharedServices svc;
        svc.imageEndpoint = std::make_shared<dbt::ImageStore>(
            std::make_shared<const dbt::TransImage>(adopted(blob)));
        x86::Memory mem;
        progs[w].loadInto(mem);
        vmm::Vmm vm(mem, tcfg, svc);
        runToTarget(vm, progs[w], cfg.targetInsns);
        const vmm::VmmStats &st = vm.stats();
        for (const fleet::ContextResult &c : wr.contexts) {
            if (c.workload != w)
                continue;
            EXPECT_EQ(c.retired, st.totalRetired()) << c.id;
            EXPECT_EQ(c.warmInstalled, st.warmInstalled) << c.id;
            EXPECT_EQ(c.warmInvalidated, st.warmInvalidated) << c.id;
            EXPECT_EQ(c.warmRelocations, st.warmRelocations) << c.id;
            EXPECT_EQ(c.bbtTranslations, st.bbtTranslations) << c.id;
            EXPECT_EQ(c.sbtTranslations, st.sbtTranslations) << c.id;
        }
    }
}

} // namespace
} // namespace cdvm

#include "dbt/image.hh"

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>

#include "x86/decoder.hh"

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

namespace cdvm::dbt
{

namespace
{

constexpr u64 IMAGE_ALIGN = 8;
constexpr std::size_t PAGE_BYTES = 4096;
constexpr Addr PAGE_MASK = ~static_cast<Addr>(PAGE_BYTES - 1);

u64
align8(u64 v)
{
    return (v + (IMAGE_ALIGN - 1)) & ~(IMAGE_ALIGN - 1);
}

u64
readU64(const u8 *p)
{
    u64 v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
}

u64
rotl64(u64 v, unsigned r)
{
    return (v << r) | (v >> (64 - r));
}

constexpr u64 XXH_P1 = 0x9E3779B185EBCA87ull;
constexpr u64 XXH_P2 = 0xC2B2AE3D27D4EB4Full;
constexpr u64 XXH_P3 = 0x165667B19E3779F9ull;
constexpr u64 XXH_P4 = 0x85EBCA77C2B2AE63ull;
constexpr u64 XXH_P5 = 0x27D4EB2F165667C5ull;

u64
xxhRound(u64 acc, u64 input)
{
    return rotl64(acc + input * XXH_P2, 31) * XXH_P1;
}

u64
xxhMerge(u64 h, u64 lane)
{
    return (h ^ xxhRound(0, lane)) * XXH_P1 + XXH_P4;
}

/**
 * Incremental imageHash (XXH64, seed 0; values hashed in host = image
 * byte order). Four lanes advance independently over each 32-byte
 * stripe, so no byte waits on the previous byte's multiply.
 */
class Hash64
{
  public:
    void
    add(const void *p, std::size_t n)
    {
        if (n == 0)
            return;
        const u8 *b = static_cast<const u8 *>(p);
        total += n;
        if (buffered) {
            const std::size_t take = std::min(STRIPE - buffered, n);
            std::memcpy(buf + buffered, b, take);
            buffered += take;
            b += take;
            n -= take;
            if (buffered < STRIPE)
                return;
            stripes(buf, STRIPE);
            buffered = 0;
        }
        const std::size_t whole = n - n % STRIPE;
        stripes(b, whole);
        std::memcpy(buf, b + whole, n - whole);
        buffered = n - whole;
    }

    template <typename T>
    void
    put(const T &v)
    {
        add(&v, sizeof v);
    }

    u64
    digest() const
    {
        u64 h = XXH_P5;
        if (total >= STRIPE) {
            h = rotl64(lane[0], 1) + rotl64(lane[1], 7) +
                rotl64(lane[2], 12) + rotl64(lane[3], 18);
            for (u64 l : lane)
                h = xxhMerge(h, l);
        }
        h += total;
        std::size_t i = 0;
        for (; i + 8 <= buffered; i += 8)
            h = rotl64(h ^ xxhRound(0, readU64(buf + i)), 27) * XXH_P1 +
                XXH_P4;
        if (i + 4 <= buffered) {
            u32 w = 0;
            std::memcpy(&w, buf + i, sizeof w);
            h = rotl64(h ^ (w * XXH_P1), 23) * XXH_P2 + XXH_P3;
            i += 4;
        }
        for (; i < buffered; ++i)
            h = rotl64(h ^ (buf[i] * XXH_P5), 11) * XXH_P1;
        h ^= h >> 33;
        h *= XXH_P2;
        h ^= h >> 29;
        h *= XXH_P3;
        h ^= h >> 32;
        return h;
    }

  private:
    static constexpr std::size_t STRIPE = 32;

    /** Advance the lanes over n (a multiple of STRIPE) bytes. */
    void
    stripes(const u8 *p, std::size_t n)
    {
        u64 v0 = lane[0], v1 = lane[1], v2 = lane[2], v3 = lane[3];
        for (const u8 *end = p + n; p != end; p += STRIPE) {
            v0 = xxhRound(v0, readU64(p));
            v1 = xxhRound(v1, readU64(p + 8));
            v2 = xxhRound(v2, readU64(p + 16));
            v3 = xxhRound(v3, readU64(p + 24));
        }
        lane[0] = v0;
        lane[1] = v1;
        lane[2] = v2;
        lane[3] = v3;
    }

    u64 lane[4] = {XXH_P1 + XXH_P2, XXH_P2, 0, 0 - XXH_P1};
    u8 buf[STRIPE] = {};
    std::size_t buffered = 0;
    u64 total = 0;
};

/** Record blob size: header + pc table + raw uop bodies, 8-aligned. */
u64
recordBlobBytes(u64 n_pcs, u64 n_uops)
{
    return align8(sizeof(ImageRecordHeader) + n_pcs * sizeof(Addr) +
                  n_uops * sizeof(uops::Uop));
}

/**
 * Deterministic Uop image bytes: every member is copied into zeroed
 * storage at its own offset, so padding bytes are always zero, never
 * whatever the translator's vector happened to hold. These are also
 * the bytes a record's content key hashes.
 */
void
writeUop(u8 *dst, const uops::Uop &u)
{
    std::memset(dst, 0, sizeof(uops::Uop));
    auto put = [dst](std::size_t off, const auto &field) {
        std::memcpy(dst + off, &field, sizeof field);
    };
    put(offsetof(uops::Uop, op), u.op);
    put(offsetof(uops::Uop, dst), u.dst);
    put(offsetof(uops::Uop, src1), u.src1);
    put(offsetof(uops::Uop, src2), u.src2);
    put(offsetof(uops::Uop, size), u.size);
    put(offsetof(uops::Uop, scale), u.scale);
    put(offsetof(uops::Uop, cond), u.cond);
    put(offsetof(uops::Uop, hasImm), u.hasImm);
    put(offsetof(uops::Uop, imm), u.imm);
    put(offsetof(uops::Uop, writeFlags), u.writeFlags);
    put(offsetof(uops::Uop, fusedHead), u.fusedHead);
    put(offsetof(uops::Uop, target), u.target);
    put(offsetof(uops::Uop, x86pc), u.x86pc);
}

/** Flag bits that are part of a record's semantic identity (the
 *  producing tier is not: identical code dedupes across tiers). */
constexpr u8 IMG_F_SEMANTIC = IMG_F_COMPLEX | IMG_F_ENDS_CTI |
                              IMG_F_ENDS_COND;

/** Semantic identity of a record (counts and chains excluded, so
 *  identical code dedupes across contexts that ran it differently). */
u64
contentKeyOf(const ImageRecordHeader &h, u64 page_key,
             std::span<const Addr> pcs, std::span<const uops::Uop> body)
{
    Hash64 f;
    f.put(h.kind);
    f.put(static_cast<u8>(h.flags & IMG_F_SEMANTIC));
    f.put(h.entryPc);
    f.put(h.x86Bytes);
    f.put(h.fallthroughPc);
    f.put(h.condBranchTarget);
    f.put(h.condBranchPc);
    f.put(page_key);
    f.put(static_cast<u32>(pcs.size()));
    f.add(pcs.data(), pcs.size_bytes());
    f.put(static_cast<u32>(body.size()));
    u8 clean[sizeof(uops::Uop)];
    for (const uops::Uop &u : body) {
        writeUop(clean, u);
        f.add(clean, sizeof clean);
    }
    return f.digest();
}

/** Full equality check behind a contentKey match (collision guard). */
bool
sameRecord(const ImageRecordHeader &a, u64 a_key,
           std::span<const Addr> a_pcs, std::span<const uops::Uop> a_body,
           const ImageRecordHeader &b, u64 b_key,
           std::span<const Addr> b_pcs, std::span<const uops::Uop> b_body)
{
    if (a.kind != b.kind ||
        (a.flags & IMG_F_SEMANTIC) != (b.flags & IMG_F_SEMANTIC) ||
        a.entryPc != b.entryPc || a.x86Bytes != b.x86Bytes ||
        a.fallthroughPc != b.fallthroughPc ||
        a.condBranchTarget != b.condBranchTarget ||
        a.condBranchPc != b.condBranchPc || a_key != b_key ||
        !std::equal(a_pcs.begin(), a_pcs.end(), b_pcs.begin(),
                    b_pcs.end()) ||
        a_body.size() != b_body.size())
        return false;
    u8 ca[sizeof(uops::Uop)], cb[sizeof(uops::Uop)];
    for (std::size_t i = 0; i < a_body.size(); ++i) {
        writeUop(ca, a_body[i]);
        writeUop(cb, b_body[i]);
        if (std::memcmp(ca, cb, sizeof ca) != 0)
            return false;
    }
    return true;
}

/** The header fields of one live translation (chains unset). */
ImageRecordHeader
headerOf(const Translation &t)
{
    ImageRecordHeader h;
    h.entryPc = t.entryPc;
    h.fallthroughPc = t.fallthroughPc;
    h.condBranchTarget = t.condBranchTarget;
    h.condBranchPc = t.condBranchPc;
    h.execCount = t.execCount;
    h.x86Bytes = t.x86Bytes;
    h.codeBytes = t.codeBytes;
    h.nPcs = static_cast<u32>(t.pcSpan().size());
    h.nUops = static_cast<u32>(t.code().size());
    h.kind = t.kind == TransKind::Superblock ? 1 : 0;
    h.flags = (t.containsComplex ? IMG_F_COMPLEX : 0) |
              (t.endsInCti ? IMG_F_ENDS_CTI : 0) |
              (t.endsInCondBranch ? IMG_F_ENDS_COND : 0) |
              static_cast<u8>(static_cast<u8>(t.provenance)
                              << IMG_F_PROV_SHIFT);
    return h;
}

u64
idKey(TransId id)
{
    return static_cast<u64>(id.idx) << 32 | id.gen;
}

/** Per-thread errno detail behind LoadError::Io (see lastIoErrno). */
thread_local int last_io_errno = 0;

} // namespace

int
lastIoErrno()
{
    return last_io_errno;
}

void
setLastIoErrno(int err)
{
    last_io_errno = err;
}

std::string
loadErrorDetail(LoadError e)
{
    std::string s = loadErrorName(e);
    if (e == LoadError::Io && last_io_errno) {
        s += ": ";
        s += std::strerror(last_io_errno);
    }
    return s;
}

const char *
loadErrorName(LoadError e)
{
    switch (e) {
      case LoadError::None: return "none";
      case LoadError::Io: return "io";
      case LoadError::BadMagic: return "bad-magic";
      case LoadError::BadVersion: return "bad-version";
      case LoadError::Truncated: return "truncated";
      case LoadError::Corrupt: return "corrupt";
    }
    return "?";
}

u64
imageHash(std::span<const u8> bytes)
{
    Hash64 h;
    h.add(bytes.data(), bytes.size());
    return h.digest();
}

u64
guestPageHash(const x86::Memory &mem, Addr page)
{
    u8 bytes[PAGE_BYTES];
    mem.fetchWindow(page, bytes, sizeof bytes);
    return imageHash(bytes);
}

std::vector<Addr>
coveredPages(Addr entry_pc, std::span<const Addr> x86pcs)
{
    std::vector<Addr> pages;
    auto add = [&pages](Addr page) {
        for (Addr p : pages) {
            if (p == page)
                return;
        }
        pages.push_back(page);
    };
    // Conservative: every covered instruction may straddle into the
    // next page (x86 insns are up to MAX_INSN_LEN bytes).
    for (Addr pc : x86pcs) {
        add(pc & PAGE_MASK);
        add((pc + x86::MAX_INSN_LEN - 1) & PAGE_MASK);
    }
    add(entry_pc & PAGE_MASK);
    return pages;
}

u64
pageListKey(const x86::Memory &mem, std::span<const Addr> sorted_pages,
            std::unordered_map<Addr, u64> &page_hash)
{
    Hash64 f;
    for (Addr page : sorted_pages) {
        auto it = page_hash.find(page);
        if (it == page_hash.end())
            it = page_hash.emplace(page, guestPageHash(mem, page)).first;
        f.put(page);
        f.put(it->second);
    }
    return f.digest();
}

// --- TransImage -----------------------------------------------------

TransImage::~TransImage()
{
    reset();
}

TransImage &
TransImage::operator=(TransImage &&other) noexcept
{
    if (this == &other)
        return *this;
    reset();
    backing = std::move(other.backing);
    base = other.base;
    len = other.len;
    hdr = other.hdr;
    lists = other.lists;
    listPages = other.listPages;
    recIndex = other.recIndex;
    recordsBase = other.recordsBase;
    relocations = other.relocations;
    branches = other.branches;
    other.reset();
    return *this;
}

void
TransImage::reset()
{
    backing = MapSource();
    base = nullptr;
    len = 0;
    hdr = nullptr;
    lists = {};
    listPages = {};
    recIndex = {};
    recordsBase = nullptr;
    relocations = {};
    branches = {};
}

LoadError
TransImage::verify()
{
    // The header fields are read with plain loads only after the
    // magic/version/size gates; every *record* field is read only
    // after the whole-image checksum passed, so a bit flip can never
    // reach a raw-POD load (no UB on corrupt input).
    if (len < sizeof(ImageHeader))
        return LoadError::Truncated;
    if (readU64(base) != IMAGE_MAGIC)
        return LoadError::BadMagic;
    u32 version = 0;
    std::memcpy(&version, base + 8, sizeof version);
    if (version != IMAGE_VERSION)
        return LoadError::BadVersion;
    const u64 total = readU64(base + 16);
    if (total < sizeof(ImageHeader))
        return LoadError::Corrupt;
    if (total > len)
        return LoadError::Truncated;

    // Whole-image checksum with the checksum field read as zero.
    {
        Hash64 h;
        h.add(base, 24);
        h.put(u64{0});
        h.add(base + 32, total - 32);
        if (h.digest() != readU64(base + 24))
            return LoadError::Corrupt;
    }

    hdr = reinterpret_cast<const ImageHeader *>(base);
    if (hdr->sectionCount != IMAGE_NUM_SECTIONS)
        return LoadError::Corrupt;

    // Section table: in-order, 8-aligned, inside the base image, and
    // byte-count consistent with the fixed entry sizes (PageLists: at
    // least its list table, then whole pages).
    static constexpr u64 entry_bytes[IMAGE_NUM_SECTIONS] = {
        0, sizeof(ImageRecordRef), 0, sizeof(ImageReloc),
        sizeof(ImageBranchStat)};
    u64 prev_end = sizeof(ImageHeader);
    for (u32 s = 0; s < IMAGE_NUM_SECTIONS; ++s) {
        const ImageSectionDesc &d = hdr->sections[s];
        if (d.offset % IMAGE_ALIGN || d.offset < prev_end ||
            d.bytes > total || d.offset > total - d.bytes)
            return LoadError::Corrupt;
        if (entry_bytes[s] && d.bytes != d.count * entry_bytes[s])
            return LoadError::Corrupt;
        prev_end = d.offset + d.bytes;
    }

    auto desc = [this](ImageSection s) -> const ImageSectionDesc & {
        return hdr->sections[static_cast<u32>(s)];
    };
    const ImageSectionDesc &dp = desc(ImageSection::PageLists);
    const ImageSectionDesc &di = desc(ImageSection::RecordIndex);
    const ImageSectionDesc &dr = desc(ImageSection::Records);
    const ImageSectionDesc &dl = desc(ImageSection::Relocs);
    const ImageSectionDesc &db = desc(ImageSection::BranchProfile);

    if (dp.count > dp.bytes / sizeof(ImagePageList) ||
        (dp.bytes - dp.count * sizeof(ImagePageList)) % sizeof(Addr))
        return LoadError::Corrupt;
    const u64 list_table = dp.count * sizeof(ImagePageList);
    lists = {reinterpret_cast<const ImagePageList *>(base + dp.offset),
             static_cast<std::size_t>(dp.count)};
    listPages = {reinterpret_cast<const Addr *>(base + dp.offset +
                                                list_table),
                 static_cast<std::size_t>((dp.bytes - list_table) /
                                          sizeof(Addr))};
    recIndex = {reinterpret_cast<const ImageRecordRef *>(base +
                                                         di.offset),
                static_cast<std::size_t>(di.count)};
    recordsBase = base + dr.offset;
    relocations = {reinterpret_cast<const ImageReloc *>(base +
                                                        dl.offset),
                   static_cast<std::size_t>(dl.count)};
    branches = {reinterpret_cast<const ImageBranchStat *>(base +
                                                          db.offset),
                static_cast<std::size_t>(db.count)};

    // Every list lies inside the page array.
    for (const ImagePageList &l : lists) {
        if (l.first > listPages.size() ||
            l.count > listPages.size() - l.first)
            return LoadError::Corrupt;
    }

    // Per-record structural bounds.
    const u64 n = di.count;
    for (u64 i = 0; i < n; ++i) {
        const u64 off = recIndex[i].offset;
        if (off % IMAGE_ALIGN ||
            off > dr.bytes ||
            dr.bytes - off < sizeof(ImageRecordHeader) ||
            recIndex[i].pageList >= lists.size())
            return LoadError::Corrupt;
        const auto *rh = reinterpret_cast<const ImageRecordHeader *>(
            recordsBase + off);
        if (rh->kind > 1 || rh->flags > 31 || rh->nUops == 0)
            return LoadError::Corrupt;
        const u64 body =
            recordBlobBytes(rh->nPcs, rh->nUops);
        if (dr.bytes - off < body)
            return LoadError::Corrupt;
    }
    for (const ImageReloc &r : relocations) {
        if (r.fromRecord >= n || r.toRecord >= n || r.exitSlot >= 2)
            return LoadError::Corrupt;
    }
    return LoadError::None;
}

TransImage::RecordView
TransImage::record(std::size_t i) const
{
    RecordView v;
    const u8 *p = recordsBase + recIndex[i].offset;
    v.hdr = reinterpret_cast<const ImageRecordHeader *>(p);
    v.x86pcs = {reinterpret_cast<const Addr *>(
                    p + sizeof(ImageRecordHeader)),
                v.hdr->nPcs};
    v.uops = {reinterpret_cast<const uops::Uop *>(
                  p + sizeof(ImageRecordHeader) +
                  v.hdr->nPcs * sizeof(Addr)),
              v.hdr->nUops};
    return v;
}

LoadError
TransImage::adopt(std::span<const u8> bytes, TransImage &out)
{
    return fromSource(MapSource::ownedCopy(bytes), out);
}

LoadError
TransImage::load(const std::string &path, TransImage &out)
{
    LoadError e = LoadError::None;
    MapSource src = MapSource::mapFile(path, e);
    if (e != LoadError::None)
        return e;
    return fromSource(std::move(src), out);
}

LoadError
TransImage::loadFd(int fd, TransImage &out)
{
    LoadError e = LoadError::None;
    MapSource src = MapSource::mapFd(fd, e);
    if (e != LoadError::None)
        return e;
    return fromSource(std::move(src), out);
}

LoadError
TransImage::fromSource(MapSource src, TransImage &out)
{
    TransImage img;
    img.backing = std::move(src);
    img.base = img.backing.data();
    img.len = img.backing.size();
    const LoadError e = img.verify();
    if (e != LoadError::None)
        return e;
    if (img.hdr->totalBytes != img.len)
        return LoadError::Corrupt; // trailing bytes after the image
    out = std::move(img);
    return LoadError::None;
}

bool
atomicWriteFile(const std::string &path, std::span<const u8> bytes)
{
#ifdef __unix__
    // The temp file must live in the same directory as path so the
    // final rename() is same-filesystem and therefore atomic.
    std::string tmp = path + ".tmp.XXXXXX";
    const int fd = ::mkstemp(tmp.data());
    if (fd < 0) {
        setLastIoErrno(errno);
        return false;
    }
    bool ok = true;
    std::size_t done = 0;
    while (ok && done < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setLastIoErrno(errno);
            ok = false;
            break;
        }
        done += static_cast<std::size_t>(n);
    }
    // The rename must not be observable before the data is durable,
    // or a crash could leave the new name pointing at torn contents.
    if (ok && ::fsync(fd) != 0) {
        setLastIoErrno(errno);
        ok = false;
    }
    if (::close(fd) != 0 && ok) {
        setLastIoErrno(errno);
        ok = false;
    }
    if (ok && ::rename(tmp.c_str(), path.c_str()) != 0) {
        setLastIoErrno(errno);
        ok = false;
    }
    if (!ok)
        ::unlink(tmp.c_str());
    return ok;
#else
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        setLastIoErrno(errno);
        return false;
    }
    bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    if (!ok)
        setLastIoErrno(errno);
    if (std::fclose(f) != 0 && ok) {
        setLastIoErrno(errno);
        ok = false;
    }
    if (ok) {
        std::remove(path.c_str());
        ok = std::rename(tmp.c_str(), path.c_str()) == 0;
        if (!ok)
            setLastIoErrno(errno);
    }
    if (!ok)
        std::remove(tmp.c_str());
    return ok;
#endif
}

bool
TransImage::save(const std::string &path, std::span<const u8> image)
{
    // Atomic replace: a concurrent mapper of path sees either the old
    // complete image or the new one, never a truncated-then-rewritten
    // window.
    return atomicWriteFile(path, image);
}

// --- ImageBuilder ---------------------------------------------------

void
ImageBuilder::add(const TranslationMap &map, const x86::Memory &mem,
                  std::span<const ImageBranchStat> branch_profile,
                  const HotnessFn &hotness)
{
    for (const ImageBranchStat &b : branch_profile)
        addBranch(b);

    // Collect the live set first: the hotness ordering must be fixed
    // before staging assigns record indices.
    std::vector<const Translation *> live;
    map.forEach([&](const Translation &t) { live.push_back(&t); });
    if (hotness) {
        std::stable_sort(live.begin(), live.end(),
                         [&hotness](const Translation *a,
                                    const Translation *b) {
                             const u64 ha = hotness(*a);
                             const u64 hb = hotness(*b);
                             if (ha != hb)
                                 return ha > hb;
                             return a->entryPc < b->entryPc;
                         });
    }

    // Stage every live translation under its content address, hashing
    // each touched guest page once. Read through the views: a
    // translation installed zero-copy from a mapped image has no owned
    // body, only the view.
    std::unordered_map<Addr, u64> page_hash;
    std::unordered_map<u64, u32> id_to_index;
    std::vector<u32> index(live.size(), NO_RECORD);
    for (std::size_t i = 0; i < live.size(); ++i) {
        const Translation &t = *live[i];
        // An empty body is nothing a warm install could use.
        if (t.code().empty())
            continue;
        std::vector<Addr> pages = coveredPages(t.entryPc, t.pcSpan());
        std::sort(pages.begin(), pages.end());
        index[i] = stage(headerOf(t), pageListKey(mem, pages, page_hash),
                         pages, t.pcSpan(), t.code());
        id_to_index.emplace(idKey(t.id), index[i]);
    }

    // Chains, by builder index. Links to translations outside the
    // staged set (overwritten, or already flushed) are dropped.
    for (std::size_t i = 0; i < live.size(); ++i) {
        if (index[i] == NO_RECORD)
            continue;
        for (unsigned c = 0; c < 2; ++c) {
            const Translation::Chain &ch = live[i]->chains[c];
            if (!ch.to)
                continue;
            const auto it = id_to_index.find(idKey(ch.to));
            if (it != id_to_index.end())
                bindChain(index[i], c, ch.targetPc, it->second);
        }
    }
}

void
ImageBuilder::add(const TransImage &img)
{
    // Stage records straight off the image, keeping each record's
    // pageKey and page list: the key can only be computed against the
    // guest memory of the context that captured the record, which a
    // merge does not have.
    for (const ImageBranchStat &b : img.branchProfile())
        addBranch(b);

    std::vector<u32> remap(img.recordCount(), NO_RECORD);
    for (std::size_t j = 0; j < img.recordCount(); ++j) {
        const TransImage::RecordView v = img.record(j);
        const ImageRecordRef &ref = img.recordIndex()[j];
        remap[j] = stage(*v.hdr, ref.pageKey, img.pageList(ref.pageList),
                         v.x86pcs, v.uops);
    }
    // Chains, remapped to builder indices in one pass over the
    // relocations (verify() bounds their records and slots). A dedupe
    // hit may fill a shared record's still-empty chain slots, never
    // overwrite them.
    for (const ImageReloc &r : img.relocs())
        bindChain(remap[r.fromRecord], r.exitSlot, r.targetPc,
                  remap[r.toRecord]);
}

void
ImageBuilder::addBranch(const ImageBranchStat &b)
{
    auto &cur = branch[b.pc];
    cur.first = std::max(cur.first, b.taken);
    cur.second = std::max(cur.second, b.notTaken);
}

u32
ImageBuilder::stage(const ImageRecordHeader &hdr, u64 page_key,
                    std::span<const Addr> page_list,
                    std::span<const Addr> pcs,
                    std::span<const uops::Uop> body)
{
    const u64 ck = contentKeyOf(hdr, page_key, pcs, body);
    const auto hit = byContent.find(ck);
    if (hit != byContent.end()) {
        Staged &kept = recs[hit->second];
        if (sameRecord(kept.hdr, kept.pageKey, kept.x86pcs, kept.uops,
                       hdr, page_key, pcs, body)) {
            // Shared record: keep the hotter exec count of the two.
            kept.hdr.execCount = std::max(kept.hdr.execCount,
                                          hdr.execCount);
            ++nDedupe;
            return hit->second;
        }
    }

    const u32 idx = static_cast<u32>(recs.size());
    Staged s;
    s.hdr = hdr;
    s.hdr.nPcs = static_cast<u32>(pcs.size());
    s.hdr.nUops = static_cast<u32>(body.size());
    s.hdr.pad0 = 0;
    s.hdr.pad1 = 0;
    s.x86pcs = pcs;
    s.uops = body;
    s.pageKey = page_key;
    s.pageList =
        pageLists
            .try_emplace(std::vector<Addr>(page_list.begin(),
                                           page_list.end()),
                         static_cast<u32>(pageLists.size()))
            .first->second;
    recs.push_back(s);
    byContent.emplace(ck, idx);
    return idx;
}

void
ImageBuilder::bindChain(u32 from, unsigned slot, Addr target_pc,
                        u32 to)
{
    Staged &s = recs[from];
    if (s.chainRecord[slot] == NO_RECORD) {
        s.chainTargetPc[slot] = target_pc;
        s.chainRecord[slot] = to;
    }
}

std::vector<u8>
ImageBuilder::build()
{
    // Hotness-ranked eviction against the size budget: records are
    // already ranked (capture order is hottest-first), so the budget
    // drops the coldest tail. Fixed sections are charged first, the
    // page lists at their size before eviction (an upper bound).
    std::size_t kept = recs.size();
    if (opt.sizeBudgetBytes) {
        u64 acc = sizeof(ImageHeader) +
                  branch.size() * sizeof(ImageBranchStat);
        for (const auto &entry : pageLists)
            acc += sizeof(ImagePageList) +
                   entry.first.size() * sizeof(Addr);
        kept = 0;
        for (const Staged &s : recs) {
            const u64 cost = recordBlobBytes(s.hdr.nPcs, s.hdr.nUops) +
                             sizeof(ImageRecordRef) +
                             2 * sizeof(ImageReloc);
            if (acc + cost > opt.sizeBudgetBytes)
                break;
            acc += cost;
            ++kept;
        }
    }
    nEvicted = recs.size() - kept;

    // The page lists the kept records use, in sorted order; list_of
    // maps a builder list id to its PageLists entry.
    constexpr u32 UNUSED = 0xFFFFFFFFu;
    std::vector<u32> list_of(pageLists.size(), UNUSED);
    for (std::size_t i = 0; i < kept; ++i)
        list_of[recs[i].pageList] = 0;
    std::vector<ImagePageList> list_table;
    std::vector<Addr> list_pages;
    for (const auto &[pages, id] : pageLists) {
        if (list_of[id] == UNUSED)
            continue;
        list_of[id] = static_cast<u32>(list_table.size());
        list_table.push_back(
            ImagePageList{static_cast<u32>(list_pages.size()),
                          static_cast<u32>(pages.size())});
        list_pages.insert(list_pages.end(), pages.begin(), pages.end());
    }

    // Record blob offsets and the flat relocation list (links into
    // the evicted tail are dropped).
    std::vector<ImageRecordRef> rec_index(kept);
    u64 rec_bytes = 0;
    std::vector<ImageReloc> relocs;
    for (std::size_t i = 0; i < kept; ++i) {
        const Staged &s = recs[i];
        rec_index[i] = ImageRecordRef{rec_bytes, s.pageKey,
                                      list_of[s.pageList], 0};
        rec_bytes += recordBlobBytes(s.hdr.nPcs, s.hdr.nUops);
        for (unsigned c = 0; c < 2; ++c) {
            if (s.chainRecord[c] < kept) {
                ImageReloc r;
                r.targetPc = s.chainTargetPc[c];
                r.fromRecord = static_cast<u32>(i);
                r.toRecord = s.chainRecord[c];
                r.exitSlot = c;
                relocs.push_back(r);
            }
        }
    }

    ImageHeader hdr;
    hdr.generation = opt.generation;
    hdr.dedupeHits = nDedupe;
    hdr.evicted = nEvicted;
    u64 off = sizeof(ImageHeader);
    auto place = [&](ImageSection s, u64 bytes, u64 count) {
        ImageSectionDesc &d =
            hdr.sections[static_cast<u32>(s)];
        d.offset = off;
        d.bytes = bytes;
        d.count = count;
        off += align8(bytes);
    };
    const u64 list_table_bytes = list_table.size() * sizeof(ImagePageList);
    place(ImageSection::PageLists,
          list_table_bytes + list_pages.size() * sizeof(Addr),
          list_table.size());
    place(ImageSection::RecordIndex, kept * sizeof(ImageRecordRef),
          kept);
    place(ImageSection::Records, rec_bytes, kept);
    place(ImageSection::Relocs, relocs.size() * sizeof(ImageReloc),
          relocs.size());
    place(ImageSection::BranchProfile,
          branch.size() * sizeof(ImageBranchStat), branch.size());
    hdr.totalBytes = off;

    std::vector<u8> out(off, 0);
    auto at = [&out](u64 o) { return out.data() + o; };
    auto sec = [&hdr](ImageSection s) -> const ImageSectionDesc & {
        return hdr.sections[static_cast<u32>(s)];
    };

    u8 *p = at(sec(ImageSection::PageLists).offset);
    std::copy_n(reinterpret_cast<const u8 *>(list_table.data()),
                list_table_bytes, p);
    std::copy_n(reinterpret_cast<const u8 *>(list_pages.data()),
                list_pages.size() * sizeof(Addr), p + list_table_bytes);

    std::copy_n(reinterpret_cast<const u8 *>(rec_index.data()),
                kept * sizeof(ImageRecordRef),
                at(sec(ImageSection::RecordIndex).offset));

    for (std::size_t i = 0; i < kept; ++i) {
        const Staged &s = recs[i];
        u8 *rp =
            at(sec(ImageSection::Records).offset + rec_index[i].offset);
        std::memcpy(rp, &s.hdr, sizeof s.hdr);
        rp += sizeof s.hdr;
        std::memcpy(rp, s.x86pcs.data(), s.x86pcs.size_bytes());
        rp += s.x86pcs.size_bytes();
        for (const uops::Uop &u : s.uops) {
            writeUop(rp, u);
            rp += sizeof(uops::Uop);
        }
    }

    std::memcpy(at(sec(ImageSection::Relocs).offset), relocs.data(),
                relocs.size() * sizeof(ImageReloc));

    p = at(sec(ImageSection::BranchProfile).offset);
    for (const auto &[pc, counts] : branch) {
        const ImageBranchStat bs{pc, counts.first, counts.second};
        std::memcpy(p, &bs, sizeof bs);
        p += sizeof bs;
    }

    std::memcpy(out.data(), &hdr, sizeof hdr);
    // Checksum with its own field zeroed, then patched in.
    const u64 sum = imageHash(out);
    std::memcpy(out.data() + 24, &sum, sizeof sum);
    return out;
}

// --- ImageStore -----------------------------------------------------

LoadError
ImageStore::append(const TransImage &delta, u64 size_budget)
{
    const std::shared_ptr<const TransImage> basis = acquire();
    ImageBuilder b(ImageBuilder::Options{
        size_budget,
        (basis ? basis->header().generation : 0) + 1});
    if (basis)
        b.add(*basis);
    b.add(delta);
    auto next = std::make_shared<TransImage>();
    const LoadError e = TransImage::adopt(b.build(), *next);
    if (e != LoadError::None)
        return e;
    publish(std::move(next));
    return LoadError::None;
}

} // namespace cdvm::dbt

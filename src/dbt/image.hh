/**
 * @file
 * Zero-copy shared translation image: the one warm-start format. A
 * VM's translations, hot counts and branch profile are laid out as one
 * contiguous, page-aligned, content-addressed blob that is mmap'd (or
 * adopted with a single memcpy) and patched in a single relocation
 * pass.
 *
 * The image stores the execution form directly -- raw
 * trivially-copyable uops::Uop arrays with the precise-state tags
 * already attached -- so a warm install binds a Translation to a
 * *view* into the mapped image and never touches the body bytes. N
 * fleet contexts (and sibling processes mapping the same file) share
 * one physical copy.
 *
 * Layout (little-endian, every section 8-aligned):
 *
 *   ImageHeader  magic "CDVMIMG2" | version | section table
 *                | whole-image checksum (imageHash with the field read
 *                  as zero, verified before ANY record byte is
 *                  interpreted)
 *   PageLists    { first, count }* list table, then Addr pages[]:
 *                the deduplicated sorted covered-page runs
 *   RecordIndex  { offset, pageKey, pageList }* per record,
 *                hotness-ranked
 *   Records      ImageRecordHeader | Addr x86pcs[] | uops::Uop body[]
 *   Relocs       { targetPc, fromRecord, toRecord, exitSlot }*: the
 *                image's only copy of its chain links
 *   BranchProfile{ pc, taken, notTaken }* sorted: its only copy of
 *                the branch counts
 *
 * Content addressing: each record is keyed by a pageKey -- imageHash
 * over the sorted (guest page, page-content hash) pairs its code
 * covers -- so a merged multi-context image stays correct even when
 * two workload classes put *different* code at the same guest
 * addresses. The installer computes one key per page list against its
 * own guest memory, scans the dense RecordIndex, and touches only the
 * records whose key matches; any other record silently falls back
 * cold.
 *
 * Sharing protocol: single writer, many readers. Readers acquire a
 * shared_ptr<const TransImage> (ImageEndpoint::acquire) and install
 * from it; the writer builds a *new* generation and publishes it with
 * one shared_ptr swap. An old generation stays alive -- and every view
 * into it stays valid -- until its last reader releases the handle.
 */

#ifndef CDVM_DBT_IMAGE_HH
#define CDVM_DBT_IMAGE_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "dbt/lookup.hh"
#include "dbt/mapsource.hh"
#include "dbt/translation.hh"
#include "uops/uop.hh"
#include "x86/memory.hh"

namespace cdvm::dbt
{

/** Image file magic ("CDVMIMG2" as a little-endian u64). */
constexpr u64 IMAGE_MAGIC = 0x32474D494D564443ull;
/** Image format version; any other version is BadVersion (images are
 *  rebuilt, never migrated). */
constexpr u32 IMAGE_VERSION = 4;

/** Why an image failed to load. */
enum class LoadError
{
    None,
    Io,         //!< file missing / unreadable
    BadMagic,   //!< not an image file
    BadVersion, //!< format version mismatch
    Truncated,  //!< file ends mid-image
    Corrupt,    //!< checksum mismatch (bit flip) or malformed structure
};

const char *loadErrorName(LoadError e);

/**
 * errno captured at this thread's most recent failing I/O operation on
 * an image load or save path (0 = no failure recorded).
 * LoadError::Io says *that* an OS call failed; this says *why*.
 */
int lastIoErrno();
/** Record errno detail for lastIoErrno() (load/save internals). */
void setLastIoErrno(int err);
/** loadErrorName() plus, for Io, the captured strerror detail. */
std::string loadErrorDetail(LoadError e);

/**
 * Atomically replace path with bytes: write a temp file in the same
 * directory, flush it to stable storage (fsync where available), then
 * rename() over path. A concurrent reader of path sees either the old
 * complete file or the new complete file, never a torn mix -- the
 * contract the image host relies on when replacing an image under
 * live mappers. On failure the temp file is removed and lastIoErrno()
 * has the detail.
 */
bool atomicWriteFile(const std::string &path, std::span<const u8> bytes);

/**
 * The format's one hash: XXH64 (seed 0) -- four independent 64-bit
 * lanes over 32-byte stripes, so a long input hashes at memory speed.
 * The whole-image checksum, page hashes, page keys and record content
 * keys all use it; changing it changes every image, so it needs an
 * IMAGE_VERSION bump.
 */
u64 imageHash(std::span<const u8> bytes);

/** imageHash of one 4K guest code page (staleness unit). */
u64 guestPageHash(const x86::Memory &mem, Addr page);

/**
 * The 4K guest pages a translated region touches (conservative: each
 * covered instruction may straddle into the next page). The unit of a
 * record's content address.
 */
std::vector<Addr> coveredPages(Addr entry_pc,
                               std::span<const Addr> x86pcs);

/** Rank of a translation for hotness-ordered capture; bigger = hotter. */
using HotnessFn = std::function<u64(const Translation &)>;

/** Record index meaning "no record" (an unchained exit). */
constexpr u32 NO_RECORD = 0xFFFFFFFFu;

/** Section order in the image's section table. */
enum class ImageSection : u32
{
    PageLists = 0,
    RecordIndex,
    Records,
    Relocs,
    BranchProfile,
    NUM_SECTIONS,
};

constexpr u32 IMAGE_NUM_SECTIONS =
    static_cast<u32>(ImageSection::NUM_SECTIONS);

/** One section's extent: byte offset from image start + entry count. */
struct ImageSectionDesc
{
    u64 offset = 0; //!< from the start of the image, 8-aligned
    u64 bytes = 0;
    u64 count = 0;  //!< entries (records for Records)
};
static_assert(sizeof(ImageSectionDesc) == 24);

/** The image header; the first bytes of the blob. */
struct ImageHeader
{
    u64 magic = IMAGE_MAGIC;
    u32 version = IMAGE_VERSION;
    u32 sectionCount = IMAGE_NUM_SECTIONS;
    u64 totalBytes = 0; //!< base image size (deltas follow, if any)
    /** imageHash over [0, totalBytes) with this field read as zero.
     *  Verified before any other field of the image is trusted. */
    u64 checksum = 0;
    u64 generation = 0; //!< builder generation (compaction counter)
    u64 dedupeHits = 0; //!< records merged by content at build time
    u64 evicted = 0;    //!< cold-tail records dropped by the budget
    ImageSectionDesc sections[IMAGE_NUM_SECTIONS];
};
static_assert(sizeof(ImageHeader) ==
              56 + 24 * IMAGE_NUM_SECTIONS);

/**
 * PageLists table entry: one sorted covered-page run, pages
 * [first, first + count) of the Addr array that follows the table.
 * Every distinct run appears once.
 */
struct ImagePageList
{
    u32 first = 0;
    u32 count = 0;
};
static_assert(sizeof(ImagePageList) == 8);

/** RecordIndex entry: where a record lives and what it is keyed by. */
struct ImageRecordRef
{
    u64 offset = 0;  //!< into the Records section
    /** imageHash over the sorted (page, content hash) pairs of the
     *  record's page list -- the content address the installer
     *  recomputes against its own guest memory. */
    u64 pageKey = 0;
    u32 pageList = 0; //!< PageLists entry: sorted coveredPages()
    u32 pad0 = 0;
};
static_assert(sizeof(ImageRecordRef) == 24);

/** One relocation: re-bind fromRecord's exit chain to toRecord. */
struct ImageReloc
{
    Addr targetPc = 0;
    u32 fromRecord = 0;
    u32 toRecord = 0;
    u32 exitSlot = 0; //!< chain slot (0 taken, 1 fall-through)
    u32 pad0 = 0;
};
static_assert(sizeof(ImageReloc) == 24);

/** BranchProfile entry (engine::BranchProfile seed). */
struct ImageBranchStat
{
    Addr pc = 0;
    u64 taken = 0;
    u64 notTaken = 0;
};
static_assert(sizeof(ImageBranchStat) == 24);

/** Record flags (ImageRecordHeader::flags). */
enum : u8
{
    IMG_F_COMPLEX = 1,
    IMG_F_ENDS_CTI = 2,
    IMG_F_ENDS_COND = 4,
    /** Bits 3-4: producing tier (TransProvenance). Images written
     *  before the template tier read back 0 = SwBbt. */
    IMG_F_PROV_SHIFT = 3,
    IMG_F_PROV_MASK = 0x18,
};

/**
 * One record: the header, then nPcs Addr x86pcs, then nUops raw
 * uops::Uop bodies (8-aligned; the Uop's x86pc provenance tag is
 * stored in place, so nothing needs re-attachment at install). The
 * pc table has one entry per covered instruction, so nPcs is also the
 * translation's instruction count. build() copies the header byte for
 * byte, so its padding is explicit and zeroed.
 */
struct ImageRecordHeader
{
    Addr entryPc = 0;
    Addr fallthroughPc = 0;
    Addr condBranchTarget = 0;
    Addr condBranchPc = 0;
    u64 execCount = 0;
    u32 x86Bytes = 0;
    u32 codeBytes = 0; //!< encoded size (code-cache arena accounting)
    u32 nPcs = 0;
    u32 nUops = 0;
    u8 kind = 0;  //!< 0 BasicBlock, 1 Superblock
    u8 flags = 0; //!< IMG_F_*
    u16 pad0 = 0;
    u32 pad1 = 0;
};
static_assert(sizeof(ImageRecordHeader) == 64);
static_assert(std::has_unique_object_representations_v<ImageRecordHeader>,
              "ImageRecordHeader has implicit padding");
static_assert(std::is_trivially_copyable_v<uops::Uop>);
static_assert(alignof(uops::Uop) <= 8);
static_assert(sizeof(uops::Uop) % 8 == 0);

/**
 * A record pageKey: imageHash over the (page, guestPageHash) pairs of
 * a sorted page list, read from mem. page_hash memoizes the page
 * hashes across calls, so each page is hashed once.
 */
u64 pageListKey(const x86::Memory &mem, std::span<const Addr> sorted_pages,
                std::unordered_map<Addr, u64> &page_hash);

/**
 * A verified, read-only translation image. Backed by an explicit
 * MapSource — a private file mapping, a MAP_SHARED mapping of a
 * daemon-passed fd, or one adopted aligned buffer (one memcpy). All
 * accessors return views into that backing store; the TransImage must
 * outlive every view, which the Vmm guarantees by holding the acquired
 * generation handle for its whole life.
 */
class TransImage
{
  public:
    TransImage() = default;
    ~TransImage();
    TransImage(TransImage &&other) noexcept { *this = std::move(other); }
    TransImage &operator=(TransImage &&other) noexcept;
    TransImage(const TransImage &) = delete;
    TransImage &operator=(const TransImage &) = delete;

    /**
     * Map (or, off unix, read) an image file zero-copy. The file must
     * hold exactly one image: trailing bytes are Corrupt. out is valid
     * only on LoadError::None.
     */
    static LoadError load(const std::string &path, TransImage &out);

    /**
     * Map an already-open image fd MAP_SHARED read-only (the
     * cross-process serving path: a sealed memfd or file received
     * over a Unix-domain socket). The fd is borrowed — the caller may
     * close it after this returns. Verifies exactly like load().
     */
    static LoadError loadFd(int fd, TransImage &out);

    /** Adopt a serialized image byte-for-byte (one memcpy into an
     *  8-aligned buffer); verifies exactly like load(). */
    static LoadError adopt(std::span<const u8> bytes, TransImage &out);

    /** Write a built image blob to path (atomic temp+fsync+rename
     *  replace: a concurrent mapper never observes a torn image). */
    static bool save(const std::string &path, std::span<const u8> image);

    const ImageHeader &header() const { return *hdr; }
    u64 sizeBytes() const { return len; }
    /** The verified image bytes (what save() and publishing take). */
    std::span<const u8> bytes() const
    {
        return {base, static_cast<std::size_t>(len)};
    }
    /** Backed by a shareable mapping (file or passed fd) rather than
     *  a private heap copy. */
    bool isMapped() const { return backing.shared(); }
    MapSource::Kind backingKind() const { return backing.kind(); }
    /** Page-residency snapshot of the backing (dbt.image.pages.*). */
    MapResidency residency() const { return backing.residency(); }

    std::size_t recordCount() const { return recIndex.size(); }

    /** Zero-copy views into one record. */
    struct RecordView
    {
        const ImageRecordHeader *hdr = nullptr;
        std::span<const Addr> x86pcs;
        std::span<const uops::Uop> uops;
    };
    RecordView record(std::size_t i) const;

    /** The dense per-record index (same order as record()). */
    std::span<const ImageRecordRef> recordIndex() const
    {
        return recIndex;
    }
    std::size_t pageListCount() const { return lists.size(); }
    /** One sorted covered-page run of the PageLists section. */
    std::span<const Addr> pageList(std::size_t k) const
    {
        return listPages.subspan(lists[k].first, lists[k].count);
    }
    std::span<const ImageReloc> relocs() const { return relocations; }
    std::span<const ImageBranchStat> branchProfile() const
    {
        return branches;
    }

  private:
    /** Verify magic/version/size/checksum, then structure; bind the
     *  section views. base/len must already be set. */
    LoadError verify();
    void reset();
    /** Shared load tail over any backing: verify the one image it
     *  holds. out is valid only on LoadError::None. */
    static LoadError fromSource(MapSource src, TransImage &out);

    MapSource backing;        //!< owns the bytes (map or heap copy)
    const u8 *base = nullptr; //!< verified image bytes (8-aligned)
    u64 len = 0;              //!< image size (== header().totalBytes)

    const ImageHeader *hdr = nullptr;
    std::span<const ImagePageList> lists;
    std::span<const Addr> listPages;
    std::span<const ImageRecordRef> recIndex;
    const u8 *recordsBase = nullptr;
    std::span<const ImageReloc> relocations;
    std::span<const ImageBranchStat> branches;
};

/**
 * Builds image blobs from live translation maps and existing images:
 * content-addressed dedupe (two contexts with identical guest pages
 * share one record), hotness-ranked order (insertion order -- capture
 * is hottest-first), and cold-tail eviction against a size budget at
 * build().
 *
 * A staged record is its header fields plus views: its x86 pcs and
 * uops are read straight out of the source until build() lays them
 * out, never copied or re-encoded before. So every source handed to
 * add() -- the TranslationMap (and its guest memory) or the TransImage
 * -- must outlive build() and stay unmodified until it returns.
 */
class ImageBuilder
{
  public:
    struct Options
    {
        /** Total image size budget in bytes (0 = unlimited). When the
         *  blob would exceed it, the coldest tail of the record
         *  ranking is dropped and counted in evicted(). */
        u64 sizeBudgetBytes = 0;
        /** Generation stamp for the built header. */
        u64 generation = 1;
    };

    ImageBuilder() = default;
    explicit ImageBuilder(Options o) : opt(o) {}

    /**
     * Capture: stage every live translation of map (views into the
     * translations) with its hot counts and live chains, content-
     * addressed against mem, plus a branch profile. With a hotness
     * function, records are ordered hottest-first (ties by ascending
     * entry PC), so a warm start installs the most valuable
     * translations before the code-cache arenas can fill and flush;
     * without one, map iteration order is kept. Chains into
     * translations that are not live are dropped.
     */
    void add(const TranslationMap &map, const x86::Memory &mem,
             std::span<const ImageBranchStat> branch_profile,
             const HotnessFn &hotness = {});
    /** Merge an existing image (views into its records). */
    void add(const TransImage &img);

    /** Serialize to the checksummed image blob. */
    std::vector<u8> build();

    u64 dedupeHits() const { return nDedupe; }
    /** Valid after build(). */
    u64 evicted() const { return nEvicted; }
    std::size_t records() const { return recs.size(); }

  private:
    struct Staged
    {
        ImageRecordHeader hdr;
        std::span<const Addr> x86pcs;
        std::span<const uops::Uop> uops;
        u64 pageKey = 0;  //!< the content address it was staged under
        u32 pageList = 0; //!< builder id of its sorted page list
        /** Chain slots by builder index (NO_RECORD = unchained);
         *  build() writes them out as the Relocs section. */
        Addr chainTargetPc[2] = {0, 0};
        u32 chainRecord[2] = {NO_RECORD, NO_RECORD};
    };

    /** Dedupe-or-stage one record (chains unset; caller binds them).
     *  @return the builder index the record landed on. */
    u32 stage(const ImageRecordHeader &hdr, u64 page_key,
              std::span<const Addr> page_list, std::span<const Addr> pcs,
              std::span<const uops::Uop> body);
    /** Fill a staged record's chain slot if it is still empty. */
    void bindChain(u32 from, unsigned slot, Addr target_pc, u32 to);
    /** Merge one branch-profile entry (the hotter counts win). */
    void addBranch(const ImageBranchStat &b);

    Options opt;
    std::vector<Staged> recs;
    /** Record content key -> builder index: the build-time dedupe. */
    std::unordered_map<u64, u32> byContent;
    /** Distinct sorted page lists -> builder list id. */
    std::map<std::vector<Addr>, u32> pageLists;
    std::map<Addr, std::pair<u64, u64>> branch; //!< pc -> counts
    u64 nDedupe = 0;
    u64 nEvicted = 0;
};

/**
 * Where a VM gets its warm-start image generations from -- the one
 * warm-start source. Two bindings: ImageStore (in-process, the image
 * lives in this address space; a file loaded or an image built here is
 * pinned by constructing a store around it) and serve::ImageClient
 * (cross-process, the image is a MAP_SHARED mapping of an fd served by
 * an ImageHost daemon). Consumers — Vmm construction, fleet admission
 * — resolve the endpoint to a generation handle and never care which
 * binding it is.
 */
class ImageEndpoint
{
  public:
    virtual ~ImageEndpoint() = default;

    /** The current image generation (null = boot cold). The handle
     *  stays valid after newer generations are published. */
    virtual std::shared_ptr<const TransImage> acquire() const = 0;

    /** Monotonic publish counter (0 = nothing published yet). */
    virtual u64 generation() const = 0;
};

/**
 * Generation store for single-writer / concurrent-reader sharing.
 * Readers acquire the current image handle; the writer merges a delta
 * into a *new* image and publishes it with one swap. Old generations
 * stay valid until their last reader releases the handle (shared_ptr
 * lifetime), so installs racing a publish are safe.
 */
class ImageStore : public ImageEndpoint
{
  public:
    ImageStore() = default;
    /** A store pinned to one image (generation 1 when non-null). */
    explicit ImageStore(std::shared_ptr<const TransImage> initial)
        : cur(std::move(initial)), gen(cur ? 1 : 0)
    {
    }

    /** Reader side: the current generation (may be null). */
    std::shared_ptr<const TransImage>
    acquire() const override
    {
        std::lock_guard<std::mutex> lock(mu);
        return cur;
    }

    /** Writer side: swap in a new generation. */
    void
    publish(std::shared_ptr<const TransImage> next)
    {
        std::lock_guard<std::mutex> lock(mu);
        cur = std::move(next);
        ++gen;
    }

    /**
     * Writer side: merge the current generation with a delta image
     * (dedupe + optional size budget) and publish the result. Readers
     * mid-install keep their old generation.
     */
    LoadError append(const TransImage &delta, u64 size_budget = 0);

    u64
    generation() const override
    {
        std::lock_guard<std::mutex> lock(mu);
        return gen;
    }

  private:
    mutable std::mutex mu;
    std::shared_ptr<const TransImage> cur;
    u64 gen = 0;
};

} // namespace cdvm::dbt

#endif // CDVM_DBT_IMAGE_HH

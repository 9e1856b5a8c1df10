/**
 * @file
 * Sparse guest physical memory for functional execution.
 *
 * Pages are allocated on first touch; unwritten bytes read as zero.
 * Translation bodies live in host memory (dbt::Translation), not
 * here: the VMM's code-cache arenas are address ranges it reserves
 * for the timing model, so a guest store into one reads back
 * unchanged. Only the XLTx86 HAloop model stores here, into its own
 * scratch window (engine::XltBbtBackend).
 *
 * A small direct-mapped page cache sits in front of the page map, so a
 * guest load or store usually costs one array probe instead of a hash
 * lookup. Const reads fill that cache too: only one thread may read a
 * given Memory at a time, as only one may write it.
 */

#ifndef CDVM_X86_MEMORY_HH
#define CDVM_X86_MEMORY_HH

#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace cdvm::x86
{

/** Byte-addressed sparse memory with on-demand page allocation. */
class Memory
{
  public:
    static constexpr unsigned PAGE_SHIFT = 12;
    static constexpr Addr PAGE_SIZE = Addr{1} << PAGE_SHIFT;

    Memory() = default;
    /** A copy owns its own pages; its page cache starts empty. */
    Memory(const Memory &o);
    Memory &operator=(const Memory &o);
    /** The moved-from Memory is left empty, its page cache too. */
    Memory(Memory &&o) noexcept;
    Memory &operator=(Memory &&o) noexcept;

    // Guest loads and stores. The access that stays inside one page
    // is inline; one that crosses a page or reads a hole is not.

    u8
    read8(Addr a) const
    {
        const Page *p = findPage(a);
        return p ? p->bytes[a & (PAGE_SIZE - 1)] : 0;
    }

    u16
    read16(Addr a) const
    {
        const Page *p = findPage(a);
        const Addr off = a & (PAGE_SIZE - 1);
        if (p && off + 2 <= PAGE_SIZE) {
            u16 v;
            std::memcpy(&v, p->bytes.data() + off, 2);
            return v;
        }
        return read16Slow(a);
    }

    u32
    read32(Addr a) const
    {
        const Page *p = findPage(a);
        const Addr off = a & (PAGE_SIZE - 1);
        if (p && off + 4 <= PAGE_SIZE) {
            u32 v;
            std::memcpy(&v, p->bytes.data() + off, 4);
            return v;
        }
        return read32Slow(a);
    }

    void
    write8(Addr a, u8 v)
    {
        Page *p = getPage(a);
        noteWrite(*p);
        p->bytes[a & (PAGE_SIZE - 1)] = v;
        ++written;
    }

    void
    write16(Addr a, u16 v)
    {
        const Addr off = a & (PAGE_SIZE - 1);
        if (off + 2 > PAGE_SIZE)
            return write16Slow(a, v);
        Page *p = getPage(a);
        noteWrite(*p);
        std::memcpy(p->bytes.data() + off, &v, 2);
        written += 2;
    }

    void
    write32(Addr a, u32 v)
    {
        const Addr off = a & (PAGE_SIZE - 1);
        if (off + 4 > PAGE_SIZE)
            return write32Slow(a, v);
        Page *p = getPage(a);
        noteWrite(*p);
        std::memcpy(p->bytes.data() + off, &v, 4);
        written += 4;
    }

    /** Bulk copy into memory (e.g., loading a program image). */
    void writeBlock(Addr a, std::span<const u8> data);

    /** Bulk copy out of memory; returns bytes (zero-filled holes). */
    std::vector<u8> readBlock(Addr a, std::size_t len) const;

    /**
     * Read up to n bytes into out (used for instruction fetch windows).
     * Always fills n bytes; holes read as zero.
     */
    void fetchWindow(Addr a, u8 *out, std::size_t n) const;

    /**
     * Instruction fetch for the decode cache: like fetchWindow, but
     * additionally marks the touched pages as *code pages*. Writes to
     * code pages bump codeVersion so cached decodes are invalidated
     * (self-modifying code, program reloads); writes to pure data
     * pages do not. Returns false when the window read through an
     * unallocated page (such a fetch must not be cached: the hole
     * cannot be marked, so a write creating the page later would not
     * bump codeVersion).
     */
    bool fetchCode(Addr a, u8 *out, std::size_t n) const;

    /**
     * Generation of the guest's code bytes: bumped by every write
     * that touches a page previously fetched through fetchCode.
     */
    u64 codeVersion() const { return codeVer; }

    /** Number of pages currently allocated. */
    std::size_t numPages() const { return pages.size(); }

    /** Total bytes written through this interface (stat). */
    u64 bytesWritten() const { return written; }

  private:
    struct Page
    {
        explicit Page(std::size_t n) : bytes(n, 0) {}

        std::vector<u8> bytes;
        /** Served instruction fetches (set from const fetch paths). */
        mutable bool code = false;
    };

    /**
     * One page-cache line. It only ever names an allocated page (a
     * hole is never cached, so a write that creates the page is seen),
     * and map nodes never move, so the pointer stays valid until the
     * map itself is replaced by a copy or move.
     */
    struct CacheLine
    {
        Addr pageNum = NO_PAGE;
        Page *page = nullptr;
    };
    static constexpr Addr NO_PAGE = ~Addr{0};
    static constexpr unsigned CACHE_LINES = 64;

    /** Allocated page holding a (creating it if needed). */
    Page *
    getPage(Addr a)
    {
        const Addr pn = a >> PAGE_SHIFT;
        const CacheLine &l = cache[pn & (CACHE_LINES - 1)];
        return l.pageNum == pn ? l.page : getPageSlow(pn);
    }
    /** Page holding a, or null for a hole. */
    const Page *
    findPage(Addr a) const
    {
        const Addr pn = a >> PAGE_SHIFT;
        const CacheLine &l = cache[pn & (CACHE_LINES - 1)];
        return l.pageNum == pn ? l.page : findPageSlow(pn);
    }
    Page *getPageSlow(Addr pn);
    const Page *findPageSlow(Addr pn) const;
    u16 read16Slow(Addr a) const;
    u32 read32Slow(Addr a) const;
    void write16Slow(Addr a, u16 v);
    void write32Slow(Addr a, u32 v);
    void clearCache() { cache.fill(CacheLine{}); }
    /** Bump codeVersion when writing into a code page. */
    void
    noteWrite(const Page &p)
    {
        if (p.code)
            ++codeVer;
    }

    std::unordered_map<Addr, Page> pages;
    u64 written = 0;
    u64 codeVer = 0;
    mutable std::array<CacheLine, CACHE_LINES> cache;
};

} // namespace cdvm::x86

#endif // CDVM_X86_MEMORY_HH

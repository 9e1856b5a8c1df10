#include "x86/memory.hh"

#include <cstring>
#include <utility>

namespace cdvm::x86
{

Memory::Memory(const Memory &o)
    : pages(o.pages), written(o.written), codeVer(o.codeVer)
{
}

Memory &
Memory::operator=(const Memory &o)
{
    if (this != &o) {
        clearCache(); // before the map drops the nodes it points to
        pages = o.pages;
        written = o.written;
        codeVer = o.codeVer;
    }
    return *this;
}

Memory::Memory(Memory &&o) noexcept
    : pages(std::move(o.pages)), written(o.written), codeVer(o.codeVer)
{
    o.pages.clear();
    o.clearCache();
}

Memory &
Memory::operator=(Memory &&o) noexcept
{
    if (this != &o) {
        clearCache();
        pages = std::move(o.pages);
        written = o.written;
        codeVer = o.codeVer;
        o.pages.clear();
        o.clearCache();
    }
    return *this;
}

Memory::Page *
Memory::getPageSlow(Addr pn)
{
    auto it = pages.find(pn);
    if (it == pages.end())
        it = pages.emplace(pn, Page(PAGE_SIZE)).first;
    cache[pn & (CACHE_LINES - 1)] = CacheLine{pn, &it->second};
    return &it->second;
}

const Memory::Page *
Memory::findPageSlow(Addr pn) const
{
    auto it = pages.find(pn);
    if (it == pages.end())
        return nullptr; // holes are never cached
    // The map is not const, only this view of it: caching a mutable
    // pointer lets getPage share the line.
    Page *p = const_cast<Page *>(&it->second);
    cache[pn & (CACHE_LINES - 1)] = CacheLine{pn, p};
    return p;
}

u16
Memory::read16Slow(Addr a) const
{
    return static_cast<u16>(read8(a) | (read8(a + 1) << 8));
}

u32
Memory::read32Slow(Addr a) const
{
    return static_cast<u32>(read16(a)) | (static_cast<u32>(read16(a + 2)) << 16);
}

void
Memory::write16Slow(Addr a, u16 v)
{
    write8(a, static_cast<u8>(v));
    write8(a + 1, static_cast<u8>(v >> 8));
}

void
Memory::write32Slow(Addr a, u32 v)
{
    write16(a, static_cast<u16>(v));
    write16(a + 2, static_cast<u16>(v >> 16));
}

void
Memory::writeBlock(Addr a, std::span<const u8> data)
{
    for (std::size_t i = 0; i < data.size();) {
        Page *p = getPage(a + i);
        noteWrite(*p);
        Addr off = (a + i) & (PAGE_SIZE - 1);
        std::size_t chunk = std::min<std::size_t>(PAGE_SIZE - off,
                                                  data.size() - i);
        std::memcpy(p->bytes.data() + off, data.data() + i, chunk);
        written += chunk;
        i += chunk;
    }
}

std::vector<u8>
Memory::readBlock(Addr a, std::size_t len) const
{
    std::vector<u8> out(len, 0);
    fetchWindow(a, out.data(), len);
    return out;
}

void
Memory::fetchWindow(Addr a, u8 *out, std::size_t n) const
{
    for (std::size_t i = 0; i < n;) {
        const Page *p = findPage(a + i);
        Addr off = (a + i) & (PAGE_SIZE - 1);
        std::size_t chunk = std::min<std::size_t>(PAGE_SIZE - off, n - i);
        if (p)
            std::memcpy(out + i, p->bytes.data() + off, chunk);
        else
            std::memset(out + i, 0, chunk);
        i += chunk;
    }
}

bool
Memory::fetchCode(Addr a, u8 *out, std::size_t n) const
{
    bool all_present = true;
    for (std::size_t i = 0; i < n;) {
        const Page *p = findPage(a + i);
        Addr off = (a + i) & (PAGE_SIZE - 1);
        std::size_t chunk = std::min<std::size_t>(PAGE_SIZE - off, n - i);
        if (p) {
            p->code = true;
            std::memcpy(out + i, p->bytes.data() + off, chunk);
        } else {
            // A hole cannot be marked, so a later write creating the
            // page would not bump codeVersion: the caller must not
            // cache a decode that read through it.
            all_present = false;
            std::memset(out + i, 0, chunk);
        }
        i += chunk;
    }
    return all_present;
}

} // namespace cdvm::x86

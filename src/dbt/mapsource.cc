#include "dbt/mapsource.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "dbt/image.hh"

#ifdef __unix__
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace cdvm::dbt
{

namespace
{

#ifdef __unix__
std::size_t
hostPageSize()
{
    static const std::size_t sz = [] {
        const long v = ::sysconf(_SC_PAGESIZE);
        return v > 0 ? static_cast<std::size_t>(v) : 4096u;
    }();
    return sz;
}
#endif

} // namespace

MapSource::~MapSource()
{
    reset();
}

MapSource &
MapSource::operator=(MapSource &&other) noexcept
{
    if (this == &other)
        return *this;
    reset();
    knd = other.knd;
    base = other.base;
    len = other.len;
    mapBase = other.mapBase;
    mapLen = other.mapLen;
    owned = std::move(other.owned);
    other.mapBase = nullptr;
    other.mapLen = 0;
    other.reset();
    return *this;
}

void
MapSource::reset()
{
#ifdef __unix__
    if (mapBase && ::munmap(mapBase, mapLen) != 0)
        cdvm_debug("munmap(%p, %zu) failed: %s", mapBase, mapLen,
                   std::strerror(errno));
#endif
    mapBase = nullptr;
    mapLen = 0;
    owned.reset();
    base = nullptr;
    len = 0;
    knd = Kind::None;
}

MapSource
MapSource::ownedCopy(std::span<const u8> bytes)
{
    MapSource src;
    src.owned = std::make_unique<u64[]>((bytes.size() + 7) / 8);
    if (!bytes.empty())
        std::memcpy(src.owned.get(), bytes.data(), bytes.size());
    src.base = reinterpret_cast<const u8 *>(src.owned.get());
    src.len = bytes.size();
    src.knd = Kind::OwnedBuffer;
    return src;
}

MapSource
MapSource::mapFile(const std::string &path, LoadError &err)
{
    MapSource src;
#ifdef __unix__
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        setLastIoErrno(errno);
        err = LoadError::Io;
        return src;
    }
    err = LoadError::None;
    src = mapFd(fd, err);
    if (::close(fd) != 0 && err == LoadError::None)
        cdvm_debug("close('%s') failed: %s", path.c_str(),
                   std::strerror(errno));
    if (err == LoadError::None)
        src.knd = Kind::FileMap; // distinguish from the passed-fd path
    return src;
#else
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        setLastIoErrno(errno);
        err = LoadError::Io;
        return src;
    }
    std::vector<u8> data;
    u8 buf[65536];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        data.insert(data.end(), buf, buf + got);
    // A short read from a failing device must be a typed I/O error,
    // never mistaken for a truncated (but well-read) file.
    const bool read_err = std::ferror(f) != 0;
    const int read_errno = errno;
    if (std::fclose(f) != 0)
        cdvm_debug("fclose('%s') failed: %s", path.c_str(),
                   std::strerror(errno));
    if (read_err) {
        setLastIoErrno(read_errno);
        err = LoadError::Io;
        return src;
    }
    err = LoadError::None;
    return ownedCopy(data);
#endif
}

MapSource
MapSource::mapFd(int fd, LoadError &err)
{
    MapSource src;
#ifdef __unix__
    struct stat sb{};
    if (::fstat(fd, &sb) != 0) {
        setLastIoErrno(errno);
        err = LoadError::Io;
        return src;
    }
    if (sb.st_size == 0) {
        err = LoadError::Truncated; // empty file, not an I/O fault
        return src;
    }
    if (sb.st_size < 0) {
        setLastIoErrno(EINVAL);
        err = LoadError::Io;
        return src;
    }
    void *m = ::mmap(nullptr, static_cast<std::size_t>(sb.st_size),
                     PROT_READ, MAP_SHARED, fd, 0);
    if (m == MAP_FAILED) {
        setLastIoErrno(errno);
        err = LoadError::Io;
        return src;
    }
    src.mapBase = m;
    src.mapLen = static_cast<std::size_t>(sb.st_size);
    src.base = static_cast<const u8 *>(m);
    src.len = src.mapLen;
    src.knd = Kind::SharedFd;
    err = LoadError::None;
    return src;
#else
    (void)fd;
    setLastIoErrno(ENOTSUP);
    err = LoadError::Io;
    return src;
#endif
}

MapResidency
MapSource::residency() const
{
    MapResidency r;
    if (empty() || len == 0)
        return r;
#ifdef __unix__
    const std::size_t page = hostPageSize();
    r.pagesTotal = (len + page - 1) / page;
    if (mapBase) {
        std::vector<unsigned char> vec(r.pagesTotal, 0);
        if (::mincore(mapBase, mapLen, vec.data()) == 0) {
            for (unsigned char v : vec)
                r.pagesResident += v & 1;
        } else {
            cdvm_debug("mincore failed: %s", std::strerror(errno));
            r.pagesResident = 0;
        }
        r.pagesShared = shared() ? r.pagesResident : 0;
        return r;
    }
    // Owned heap buffer: trivially resident, never shared.
    r.pagesResident = r.pagesTotal;
    r.pagesShared = 0;
    return r;
#else
    r.pagesTotal = (len + 4095) / 4096;
    r.pagesResident = r.pagesTotal;
    r.pagesShared = 0;
    return r;
#endif
}

const char *
MapSource::kindName(Kind k)
{
    switch (k) {
      case Kind::None: return "none";
      case Kind::OwnedBuffer: return "owned-buffer";
      case Kind::FileMap: return "file-map";
      case Kind::SharedFd: return "shared-fd";
    }
    return "?";
}

} // namespace cdvm::dbt

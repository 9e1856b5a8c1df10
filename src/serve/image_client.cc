#include "serve/image_client.hh"

#include "serve/protocol.hh"

#ifdef __unix__
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace cdvm::serve
{

bool
ImageClient::failed(const std::string &what)
{
    std::lock_guard<std::mutex> lock(mu);
    err = what;
    return false;
}

std::string
ImageClient::lastError() const
{
    std::lock_guard<std::mutex> lock(mu);
    return err;
}

std::shared_ptr<const dbt::TransImage>
ImageClient::acquire() const
{
    std::lock_guard<std::mutex> lock(mu);
    return cur;
}

u64
ImageClient::generation() const
{
    std::lock_guard<std::mutex> lock(mu);
    return gen;
}

bool
ImageClient::connect(const std::string &socket_path)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        path = socket_path;
    }
    return refresh();
}

#ifdef __unix__

namespace
{

/** fd's object can never change size or content again (sealed). */
bool
sealedImmutable(int fd)
{
#ifdef F_GET_SEALS
    constexpr int need = F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_WRITE;
    const int seals = ::fcntl(fd, F_GET_SEALS);
    return seals >= 0 && (seals & need) == need;
#else
    (void)fd; // no seals on this host: immutability is unprovable
    return false;
#endif
}

} // namespace

bool
ImageClient::refresh()
{
    std::string sock_path;
    {
        std::lock_guard<std::mutex> lock(mu);
        sock_path = path;
    }
    if (sock_path.empty())
        return failed("refresh: no socket path (connect first)");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (sock_path.size() >= sizeof(addr.sun_path))
        return failed("refresh: socket path too long");
    std::memcpy(addr.sun_path, sock_path.c_str(), sock_path.size() + 1);

    // One short-lived connection per handshake: the daemon stays
    // connection-free between refreshes and a crashed client leaks
    // nothing into it.
    const int s = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (s < 0)
        return failed(std::string("refresh: socket: ") +
                      std::strerror(errno));
    struct timeval tv{5, 0};
    ::setsockopt(s, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(s, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    if (::connect(s, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        const int e = errno;
        ::close(s);
        return failed(std::string("refresh: connect: ") +
                      std::strerror(e));
    }

    ImageRequest req;
    ImageReply rep{};
    int fd = -1;
    const bool io_ok = sendWithFd(s, &req, sizeof req, -1) &&
                       recvWithFd(s, &rep, sizeof rep, &fd);
    ::close(s);
    if (!io_ok) {
        if (fd >= 0)
            ::close(fd);
        return failed("refresh: handshake I/O failed");
    }
    if (rep.magic != SERVE_MAGIC || rep.version != SERVE_VERSION) {
        if (fd >= 0)
            ::close(fd);
        return failed("refresh: reply magic/version mismatch");
    }
    switch (static_cast<ReplyStatus>(rep.status)) {
      case ReplyStatus::NoImage:
        if (fd >= 0)
            ::close(fd);
        return true; // daemon up, nothing published: stay cold
      case ReplyStatus::Image:
        break;
      case ReplyStatus::BadRequest:
      default:
        if (fd >= 0)
            ::close(fd);
        return failed("refresh: daemon rejected the request");
    }
    if (fd < 0)
        return failed("refresh: reply carried no descriptor");

    {
        std::lock_guard<std::mutex> lock(mu);
        if (cur && gen == rep.generation) {
            ::close(fd);
            return true; // already mapping this generation
        }
    }

    // Verifying the image once at connect is only sound if its bytes
    // cannot change afterwards.
    if (!sealedImmutable(fd)) {
        ::close(fd);
        return failed("refresh: unsealed image fd (needs "
                      "F_SEAL_SHRINK|F_SEAL_GROW|F_SEAL_WRITE)");
    }

    auto img = std::make_shared<dbt::TransImage>();
    const dbt::LoadError e = dbt::TransImage::loadFd(fd, *img);
    ::close(fd); // the MAP_SHARED mapping keeps the object alive
    if (e != dbt::LoadError::None)
        return failed(std::string("refresh: map/verify: ") +
                      dbt::loadErrorDetail(e));
    if (img->sizeBytes() != rep.imageBytes)
        return failed("refresh: image size disagrees with reply");

    std::lock_guard<std::mutex> lock(mu);
    cur = std::move(img);
    gen = rep.generation;
    err.clear();
    return true;
}

#else // !__unix__

bool
ImageClient::refresh()
{
    return failed("image serving requires a unix host");
}

#endif // __unix__

} // namespace cdvm::serve

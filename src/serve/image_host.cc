#include "serve/image_host.hh"

#include "serve/protocol.hh"

#ifdef __unix__

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace cdvm::serve
{

namespace
{

/**
 * Materialize blob into an immutable anonymous memory object and
 * return its read-only fd (-1 on failure). Prefers a sealed memfd;
 * falls back to an unlinked temp file (same sharing semantics, minus
 * the seals) where memfd_create is unavailable.
 */
int
sealBlob(std::span<const u8> blob, std::string &err)
{
    int fd = -1;
#ifdef MFD_ALLOW_SEALING
    fd = ::memfd_create("cdvm-image", MFD_CLOEXEC | MFD_ALLOW_SEALING);
#endif
    bool is_memfd = fd >= 0;
    if (fd < 0) {
        char tmpl[] = "/tmp/cdvm-image-XXXXXX";
        fd = ::mkstemp(tmpl);
        if (fd < 0) {
            err = std::string("seal: mkstemp: ") + std::strerror(errno);
            return -1;
        }
        ::unlink(tmpl); // anonymous: name gone, object lives via fds
    }
    std::size_t done = 0;
    while (done < blob.size()) {
        const ssize_t n =
            ::write(fd, blob.data() + done, blob.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            err = std::string("seal: write: ") + std::strerror(errno);
            ::close(fd);
            return -1;
        }
        done += static_cast<std::size_t>(n);
    }
#ifdef F_ADD_SEALS
    // Immutability is the cross-process safety contract: once sealed,
    // no writer exists, so a client's MAP_SHARED view can never be
    // changed (or shrunk into a SIGBUS) underneath an install.
    if (is_memfd &&
        ::fcntl(fd, F_ADD_SEALS,
                F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_WRITE) != 0) {
        err = std::string("seal: F_ADD_SEALS: ") + std::strerror(errno);
        ::close(fd);
        return -1;
    }
#else
    (void)is_memfd;
#endif
    if (::lseek(fd, 0, SEEK_SET) != 0) {
        err = std::string("seal: lseek: ") + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

ImageHost::~ImageHost()
{
    stop();
    std::lock_guard<std::mutex> lock(mu);
    if (curFd >= 0)
        ::close(curFd);
    curFd = -1;
}

void
ImageHost::setError(const std::string &what)
{
    std::lock_guard<std::mutex> lock(mu);
    err = what;
}

std::string
ImageHost::lastError() const
{
    std::lock_guard<std::mutex> lock(mu);
    return err;
}

ImageHost::Stats
ImageHost::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return st;
}

std::shared_ptr<const dbt::TransImage>
ImageHost::acquire() const
{
    return store.acquire();
}

u64
ImageHost::generation() const
{
    return store.generation();
}

bool
ImageHost::start(const std::string &socket_path)
{
    if (running()) {
        setError("start: already running");
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        setError("start: socket path too long");
        return false;
    }
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        setError(std::string("start: socket: ") + std::strerror(errno));
        return false;
    }
    ::unlink(socket_path.c_str()); // replace a stale socket file
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(fd, 64) != 0) {
        setError(std::string("start: bind/listen: ") +
                 std::strerror(errno));
        ::close(fd);
        return false;
    }
    if (::pipe(stopPipe) != 0) {
        setError(std::string("start: pipe: ") + std::strerror(errno));
        ::close(fd);
        return false;
    }
    listenFd = fd;
    sockPath = socket_path;
    thr = std::thread(&ImageHost::serveLoop, this);
    return true;
}

void
ImageHost::stop()
{
    if (!running())
        return;
    // One byte down the self-pipe unblocks poll(); the loop exits.
    const char b = 0;
    [[maybe_unused]] ssize_t n = ::write(stopPipe[1], &b, 1);
    thr.join();
    ::close(stopPipe[0]);
    ::close(stopPipe[1]);
    stopPipe[0] = stopPipe[1] = -1;
    ::close(listenFd);
    listenFd = -1;
    if (!sockPath.empty())
        ::unlink(sockPath.c_str());
    sockPath.clear();
}

void
ImageHost::serveLoop()
{
    for (;;) {
        struct pollfd fds[2];
        fds[0] = {listenFd, POLLIN, 0};
        fds[1] = {stopPipe[0], POLLIN, 0};
        const int r = ::poll(fds, 2, -1);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            setError(std::string("poll: ") + std::strerror(errno));
            return;
        }
        if (fds[1].revents)
            return; // stop() signalled
        if (!(fds[0].revents & POLLIN))
            continue;
        const int c = ::accept(listenFd, nullptr, nullptr);
        if (c < 0)
            continue;
        // A stalled client must not wedge the daemon: bound both
        // directions of the tiny fixed-size exchange.
        struct timeval tv{5, 0};
        ::setsockopt(c, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        ::setsockopt(c, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
        handleClient(c);
        ::close(c);
    }
}

void
ImageHost::handleClient(int sock)
{
    ImageRequest req{};
    const bool got = recvWithFd(sock, &req, sizeof req, nullptr);

    ImageReply rep;
    int fd_to_send = -1;
    int dup_fd = -1;
    {
        std::lock_guard<std::mutex> lock(mu);
        ++st.clientsServed;
        if (!got || req.magic != SERVE_MAGIC ||
            req.version != SERVE_VERSION) {
            rep.status = static_cast<u32>(ReplyStatus::BadRequest);
            ++st.badRequests;
        } else if (curFd < 0) {
            rep.status = static_cast<u32>(ReplyStatus::NoImage);
        } else {
            // Dup under the lock so a racing publish() closing curFd
            // can never invalidate the descriptor mid-send.
            dup_fd = ::dup(curFd);
            if (dup_fd < 0) {
                rep.status = static_cast<u32>(ReplyStatus::NoImage);
            } else {
                rep.status = static_cast<u32>(ReplyStatus::Image);
                rep.generation = curGen;
                rep.imageBytes = curBytes;
                fd_to_send = dup_fd;
                ++st.imagesSent;
            }
        }
    }
    sendWithFd(sock, &rep, sizeof rep, fd_to_send);
    if (dup_fd >= 0)
        ::close(dup_fd);
}

bool
ImageHost::publish(std::span<const u8> blob)
{
    std::string seal_err;
    const int fd = sealBlob(blob, seal_err);
    if (fd < 0) {
        setError(seal_err);
        return false;
    }

    // Verify through the exact path a client will take: map the
    // sealed fd shared and run full image verification. The host
    // never serves bytes it could not install itself.
    auto img = std::make_shared<dbt::TransImage>();
    const dbt::LoadError e = dbt::TransImage::loadFd(fd, *img);
    if (e != dbt::LoadError::None) {
        setError(std::string("publish: verify: ") +
                 dbt::loadErrorDetail(e));
        ::close(fd);
        return false;
    }

    store.publish(std::move(img));
    int old = -1;
    {
        std::lock_guard<std::mutex> lock(mu);
        old = curFd;
        curFd = fd;
        curGen = store.generation();
        curBytes = blob.size();
        ++st.publishes;
    }
    if (old >= 0)
        ::close(old); // clients' mappings keep the old object alive
    return true;
}

} // namespace cdvm::serve

#else // !__unix__

namespace cdvm::serve
{

ImageHost::~ImageHost() = default;

void
ImageHost::setError(const std::string &what)
{
    std::lock_guard<std::mutex> lock(mu);
    err = what;
}

std::string
ImageHost::lastError() const
{
    std::lock_guard<std::mutex> lock(mu);
    return err;
}

ImageHost::Stats
ImageHost::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return st;
}

std::shared_ptr<const dbt::TransImage>
ImageHost::acquire() const
{
    return store.acquire();
}

u64
ImageHost::generation() const
{
    return store.generation();
}

bool
ImageHost::start(const std::string &)
{
    setError("image serving requires a unix host");
    return false;
}

void
ImageHost::stop()
{
}

bool
ImageHost::publish(std::span<const u8> blob)
{
    // No fd transport, but the in-process endpoint still works.
    auto img = std::make_shared<dbt::TransImage>();
    if (dbt::TransImage::adopt(blob, *img) != dbt::LoadError::None) {
        setError("publish: blob failed verification");
        return false;
    }
    store.publish(std::move(img));
    std::lock_guard<std::mutex> lock(mu);
    ++st.publishes;
    return true;
}

} // namespace cdvm::serve

#endif // __unix__

/**
 * @file
 * ImageHost: the warm-start image daemon.
 *
 * Owns the single-writer role of an ImageStore and serves its current
 * generation to every co-resident VM process. Each published
 * generation is materialized once into a sealed anonymous memory
 * object (memfd_create + F_SEAL_SHRINK|GROW|WRITE, with an unlinked
 * temp file as the portable fallback); clients receive the read-only
 * descriptor over a Unix-domain socket (SCM_RIGHTS) and map it
 * MAP_SHARED, so N mapper processes fault in ONE physical copy of the
 * translation image instead of N private ones.
 *
 * Generation lifetime across processes: sealing makes the object
 * immutable, and the kernel keeps it alive while any mapping or
 * descriptor references it. The host closing its fd after a newer
 * publish therefore never invalidates a client mid-install — the old
 * generation dies only when the last client unmaps it, the same
 * shared_ptr discipline ImageStore gives threads, enforced by the
 * kernel for processes.
 *
 * The host is itself an ImageEndpoint (backed by its store), so the
 * serving process can warm-boot its own VMs from the same generation
 * it hands out.
 */

#ifndef CDVM_SERVE_IMAGE_HOST_HH
#define CDVM_SERVE_IMAGE_HOST_HH

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>

#include "dbt/image.hh"

namespace cdvm::serve
{

class ImageHost : public dbt::ImageEndpoint
{
  public:
    struct Stats
    {
        u64 publishes = 0;     //!< generations sealed and swapped in
        u64 clientsServed = 0; //!< requests answered (any status)
        u64 imagesSent = 0;    //!< replies that carried an fd
        u64 badRequests = 0;   //!< magic/version mismatches
    };

    ImageHost() = default;
    ~ImageHost() override;
    ImageHost(const ImageHost &) = delete;
    ImageHost &operator=(const ImageHost &) = delete;

    /**
     * Bind socket_path (any stale socket file is replaced) and start
     * the accept loop. @return success; on failure the host is inert
     * and lastError() explains why.
     */
    bool start(const std::string &socket_path);

    /** Stop the accept loop and remove the socket file. Idempotent;
     *  published generations stay acquirable in-process. */
    void stop();

    bool running() const { return thr.joinable(); }

    /**
     * Seal a built image blob into a fresh memory object, verify it
     * (TransImage::loadFd — exactly what a client will do), and swap
     * it in as the generation served to new requests. Clients holding
     * the previous generation keep it (see file comment).
     */
    bool publish(std::span<const u8> blob);

    /** In-process endpoint view of the served store. */
    std::shared_ptr<const dbt::TransImage> acquire() const override;
    u64 generation() const override;

    Stats stats() const;
    std::string lastError() const;

  private:
    void serveLoop();
    void handleClient(int sock);
    void setError(const std::string &what);

    dbt::ImageStore store;

    mutable std::mutex mu; //!< curFd/curGen/curBytes/st/err
    int listenFd = -1;
    int stopPipe[2] = {-1, -1};
    int curFd = -1; //!< sealed object of the current generation
    u64 curGen = 0;
    u64 curBytes = 0;
    Stats st;
    std::string err;
    std::string sockPath;
    std::thread thr;
};

} // namespace cdvm::serve

#endif // CDVM_SERVE_IMAGE_HOST_HH

/**
 * @file
 * ImageClient: the mapper side of cross-process image serving.
 *
 * Speaks the serve/protocol handshake to an ImageHost daemon,
 * receives the sealed image fd over SCM_RIGHTS, and maps it
 * MAP_SHARED read-only (TransImage::loadFd). It exposes the same
 * generation-handle API as dbt::ImageStore (via dbt::ImageEndpoint),
 * so warmStartInstall and every consumer above it are untouched: a VM
 * can be bound to an in-process store or to a socket client behind
 * one interface.
 *
 * Failure policy is fall-back-to-cold: a missing daemon, a refused
 * connection, a garbled handshake, or an fd not sealed against
 * writes and resizes leaves acquire() null and the VM boots cold —
 * serving is an accelerator, never a dependency.
 */

#ifndef CDVM_SERVE_IMAGE_CLIENT_HH
#define CDVM_SERVE_IMAGE_CLIENT_HH

#include <memory>
#include <mutex>
#include <string>

#include "dbt/image.hh"

namespace cdvm::serve
{

class ImageClient : public dbt::ImageEndpoint
{
  public:
    ImageClient() = default;
    ~ImageClient() override = default;
    ImageClient(const ImageClient &) = delete;
    ImageClient &operator=(const ImageClient &) = delete;

    /**
     * Remember socket_path and fetch the current generation.
     * @return true if the handshake succeeded (even with NoImage —
     * the daemon is up, it just has nothing published yet); false
     * leaves the client usable for later refresh() retries and
     * lastError() explains what failed.
     */
    bool connect(const std::string &socket_path);

    /**
     * Re-run the handshake; map and swap in the daemon's generation
     * if it changed. Handles already holding the old generation stay
     * valid (kernel-side lifetime, see image_host.hh).
     */
    bool refresh();

    /** Current mapped generation (null = boot cold). */
    std::shared_ptr<const dbt::TransImage> acquire() const override;
    /** Daemon generation counter from the last good handshake. */
    u64 generation() const override;

    std::string lastError() const;

  private:
    bool failed(const std::string &what);

    mutable std::mutex mu;
    std::string path;
    std::shared_ptr<const dbt::TransImage> cur;
    u64 gen = 0;
    std::string err;
};

} // namespace cdvm::serve

#endif // CDVM_SERVE_IMAGE_CLIENT_HH

/**
 * @file
 * Process-shared services for multi-context emulation.
 *
 * A Vmm used to be the whole process: one guest context, one set of
 * worker threads, one warm-start image read off disk. A multi-tenant
 * server hosts hundreds of contexts in one process, and splitting the
 * Vmm's state into *per-context* (registers, guest memory, code caches,
 * lookup structures, profilers, stats) versus *process-shared*
 * (background translation workers, the warm-start image source) is
 * what makes that cheap:
 *
 *  - SharedServices::sbtPool -- one bounded ThreadPool whose worker
 *    contexts serve every tenant's background SBT requests. Each
 *    Vmm's AsyncSbtEngine keeps its own bookings, deadlines and
 *    result slots, so results can never cross tenants; only the
 *    workers and the host queue are shared.
 *  - SharedServices::imageEndpoint -- the one warm-start source. Every
 *    context warm-starting from it installs views into the same
 *    verified image: the image is mapped and checksummed once per
 *    process (or once per host, when a daemon serves it), while
 *    installation (validation against the context's own guest memory,
 *    code-cache allocation, chain re-binding) stays per-context.
 *
 * A default SharedServices boots the Vmm cold with a private pool.
 */

#ifndef CDVM_ENGINE_SERVICES_HH
#define CDVM_ENGINE_SERVICES_HH

#include <memory>

#include "common/threadpool.hh"
#include "dbt/image.hh"

namespace cdvm::engine
{

/** Services a multi-context host shares across its tenants. */
struct SharedServices
{
    /**
     * Background SBT worker pool shared by all contexts (null: each
     * Vmm with asyncTranslators > 0 spins up a private pool). The
     * pool must outlive every Vmm constructed against it.
     */
    ThreadPool *sbtPool = nullptr;

    /**
     * Where to get the warm-start image from: a dbt::ImageStore (an
     * image built or loaded in this process, pinned with
     * std::make_shared<dbt::ImageStore>(image)) or a
     * serve::ImageClient bound to an image-host daemon. Resolved to a
     * generation handle at Vmm construction (and at fleet admission);
     * null, or a null acquire(), means boot cold, so a missing or
     * failed daemon degrades gracefully.
     */
    std::shared_ptr<dbt::ImageEndpoint> imageEndpoint;
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_SERVICES_HH

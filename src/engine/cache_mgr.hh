/**
 * @file
 * The engine's code-cache manager: translation registration,
 * flush-on-full eviction, and lookup.
 *
 * Owns the translation lookup table and both bump-allocated arenas
 * (BBT blocks and SBT superblocks, paper Fig. 1). Installing a
 * translation reserves arena space for its encoded size and publishes
 * it in the map; installing a superblock also lowers its body into
 * the executor's bound form (uops::bind), whatever produced it: the
 * synchronous SBT, an async install or a warm install. The arenas are
 * reservations only: the body executes from the Translation itself
 * and is never written into guest memory, but codeAddr/codeBytes feed
 * the timing model and a full arena still forces the classic
 * flush-everything policy: the arena is reset, every translation of
 * that kind is dropped from the map, and all chains into the doomed
 * set are conservatively cleared.
 */

#ifndef CDVM_ENGINE_CACHE_MGR_HH
#define CDVM_ENGINE_CACHE_MGR_HH

#include <memory>

#include "dbt/codecache.hh"
#include "dbt/lookup.hh"
#include "engine/engine_config.hh"
#include "engine/events.hh"

namespace cdvm::engine
{

/** Owns the lookup table and both code-cache arenas. */
class CodeCacheManager
{
  public:
    CodeCacheManager(const EngineConfig &cfg, EngineStats &stats,
                     EventStream &events);

    /** Outcome of installing a translation. */
    struct InstallResult
    {
        dbt::Translation *trans = nullptr;
        /** True when installation forced an arena flush (chains and
         *  cached dispatch state are stale). */
        bool flushed = false;
    };

    /**
     * Register a new translation: reserve arena space (flushing on
     * full), bind a superblock's body, and publish it in the map.
     * Emits a CacheFlush stage event when eviction happened.
     */
    InstallResult install(std::unique_ptr<dbt::Translation> t);

    dbt::Translation *lookup(Addr pc) { return map.lookup(pc); }

    dbt::Translation *
    lookup(Addr pc, dbt::TransKind kind)
    {
        return map.lookup(pc, kind);
    }

    /** Resolve a translation handle (nullptr once flushed). */
    dbt::Translation *resolve(dbt::TransId id) { return map.resolve(id); }

    const dbt::Translation *
    resolve(dbt::TransId id) const
    {
        return map.resolve(id);
    }

    dbt::TranslationMap &translations() { return map; }
    const dbt::TranslationMap &translations() const { return map; }
    const dbt::CodeCache &bbtCache() const { return bbtCc; }
    const dbt::CodeCache &sbtCache() const { return sbtCc; }

    /** Publish dbt.codecache.* and dbt.lookup.* counters. */
    void exportStats(StatRegistry &reg) const;

  private:
    EngineStats &st;
    EventStream &events;

    dbt::TranslationMap map;
    dbt::CodeCache bbtCc;
    dbt::CodeCache sbtCc;

    u64 boundUops = 0;         //!< superblock micro-ops bound
    u64 boundFallbackUops = 0; //!< of those, on the fallback handler
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_CACHE_MGR_HH

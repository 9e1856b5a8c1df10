#include "engine/cache_mgr.hh"

#include "common/logging.hh"
#include "common/statreg.hh"

namespace cdvm::engine
{

using dbt::TransKind;
using dbt::Translation;

namespace
{

// The guest addresses the two arenas reserve (paper Fig. 1).
constexpr Addr BBT_CACHE_BASE = 0xe0000000;
constexpr Addr SBT_CACHE_BASE = 0xe8000000;

} // namespace

CodeCacheManager::CodeCacheManager(const EngineConfig &cfg,
                                   EngineStats &stats,
                                   EventStream &event_stream)
    : st(stats),
      events(event_stream),
      map(dbt::TranslationMap::Config{cfg.lookupReserve,
                                      cfg.lookasideEntries}),
      bbtCc("bbt-cache", BBT_CACHE_BASE, cfg.bbtCacheBytes),
      sbtCc("sbt-cache", SBT_CACHE_BASE, cfg.sbtCacheBytes)
{
}

CodeCacheManager::InstallResult
CodeCacheManager::install(std::unique_ptr<Translation> t)
{
    InstallResult res;
    const TransKind kind = t->kind;
    dbt::CodeCache &cc = kind == TransKind::BasicBlock ? bbtCc : sbtCc;
    Addr at = cc.allocate(t->codeBytes);
    if (at == 0) {
        // Arena full: flush it and drop the associated translations
        // (chains are conservatively reset); then the allocation must
        // succeed unless the translation is bigger than the arena.
        cc.flush();
        map.eraseKind(kind);
        res.flushed = true;
        if (kind == TransKind::BasicBlock)
            ++st.bbtCacheFlushes;
        else
            ++st.sbtCacheFlushes;
        StageEvent ev;
        ev.stage = TracePhase::CacheFlush;
        ev.instant = true;
        ev.arg = kind == TransKind::BasicBlock;
        events.emit(ev);
        at = cc.allocate(t->codeBytes);
        if (at == 0)
            cdvm_fatal("translation (%u bytes) exceeds code cache '%s'",
                       t->codeBytes, cc.name().c_str());
    }
    t->codeAddr = at;
    if (kind == TransKind::Superblock) {
        // Superblocks are hot by construction: lower each one once,
        // here, into the bound form. BBT blocks stay in record form,
        // since a cold block runs too few times to repay lowering.
        uops::Binding b = uops::bind(t->code(), t->pcSpan());
        if (b.ops) {
            boundUops += t->code().size();
            boundFallbackUops += b.fallbackOps;
            t->bound = std::move(b.ops);
        }
    }
    res.trans = map.insert(std::move(t));
    return res;
}

void
CodeCacheManager::exportStats(StatRegistry &reg) const
{
    bbtCc.exportStats(reg, "dbt.codecache.bbt");
    sbtCc.exportStats(reg, "dbt.codecache.sbt");
    map.exportStats(reg, "dbt.lookup");
    reg.set("dbt.sbt.bound_uops", static_cast<double>(boundUops),
            "superblock micro-ops lowered into bound form at install");
    reg.set("dbt.sbt.bound_fallback_pct",
            boundUops ? 100.0 * static_cast<double>(boundFallbackUops) /
                            static_cast<double>(boundUops)
                      : 0.0,
            "share of bound micro-ops on the fallback handler (%)");
}

} // namespace cdvm::engine

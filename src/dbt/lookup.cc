#include "dbt/lookup.hh"

#include "common/logging.hh"
#include "common/statreg.hh"

namespace cdvm::dbt
{

namespace
{

std::size_t
roundPow2(std::size_t n, std::size_t min_cap)
{
    std::size_t cap = min_cap;
    while (cap < n)
        cap <<= 1;
    return cap;
}

} // namespace

TranslationMap::TranslationMap(const Config &cfg)
    : slots(roundPow2(cfg.reserveEntries, 64))
{
    if (cfg.lookasideEntries)
        lookaside.resize(roundPow2(cfg.lookasideEntries, 16));
}

bool
TranslationMap::isLive(const Translation *t) const
{
    const Slot *s = findSlot(t->entryPc);
    return s && s->byKind[kindIdx(t->kind)] == t->id;
}

TranslationMap::Slot *
TranslationMap::findSlot(Addr pc)
{
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = fibHash(pc) >> 32 & mask;; i = (i + 1) & mask) {
        Slot &s = slots[i];
        if (s.empty())
            return nullptr;
        if (s.pc == pc)
            return &s;
    }
}

const TranslationMap::Slot *
TranslationMap::findSlot(Addr pc) const
{
    return const_cast<TranslationMap *>(this)->findSlot(pc);
}

TranslationMap::Slot &
TranslationMap::probeFor(Addr pc)
{
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = fibHash(pc) >> 32 & mask;; i = (i + 1) & mask) {
        Slot &s = slots[i];
        if (s.empty() || s.pc == pc)
            return s;
    }
}

void
TranslationMap::growTo(std::size_t new_cap)
{
    std::vector<Slot> old = std::move(slots);
    slots.assign(new_cap, Slot{});
    slotsUsed = 0;
    ++nRehashes;
    for (const Slot &s : old) {
        if (s.empty())
            continue;
        Slot &d = probeFor(s.pc);
        d = s;
        ++slotsUsed;
    }
}

void
TranslationMap::maybeGrow()
{
    // Keep the load factor under 3/4 so probe chains stay short even
    // with collision-heavy synthetic PCs.
    if ((slotsUsed + 1) * 4 >= slots.size() * 3)
        growTo(slots.size() * 2);
}

void
TranslationMap::rebuildFromOrder()
{
    for (Slot &s : slots)
        s = Slot{};
    slotsUsed = 0;
    for (unsigned k = 0; k < 2; ++k) {
        // Replay the surviving installs in order so a pc/kind
        // overwrite resolves to the most recent translation, as
        // before.
        for (TransId id : order[k]) {
            const Translation *t = resolve(id);
            if (!t)
                continue;
            maybeGrow();
            Slot &s = probeFor(t->entryPc);
            if (s.empty()) {
                ++slotsUsed;
                s.pc = t->entryPc;
            }
            s.byKind[k] = id;
        }
    }
}

void
TranslationMap::lsUpdate(Addr pc, TransId t)
{
    if (lookaside.empty())
        return;
    LsEntry &e =
        lookaside[fibHash(pc) >> 32 & (lookaside.size() - 1)];
    e.pc = pc;
    e.epoch = epoch;
    e.trans = t;
}

Translation *
TranslationMap::lookup(Addr pc)
{
    ++nLookups;
    // Dispatch lookaside: one direct-mapped line resolves the common
    // case (same cold pc re-dispatched, or a hot pc between chains).
    // Negative results are cached too; both stay correct because an
    // install at pc refreshes the line and a flush bumps the epoch.
    if (!lookaside.empty()) {
        LsEntry &e =
            lookaside[fibHash(pc) >> 32 & (lookaside.size() - 1)];
        if (e.pc == pc && e.epoch == epoch) {
            ++lsHits;
            Translation *t = resolve(e.trans);
            if (!t)
                ++nMisses;
            return t;
        }
        ++lsMisses;
    }
    TransId tid;
    if (const Slot *s = findSlot(pc))
        tid = s->byKind[1] ? s->byKind[1] : s->byKind[0];
    Translation *t = resolve(tid);
    if (!t)
        ++nMisses;
    lsUpdate(pc, tid);
    return t;
}

Translation *
TranslationMap::lookup(Addr pc, TransKind kind)
{
    ++nLookups;
    TransId tid;
    if (const Slot *s = findSlot(pc))
        tid = s->byKind[kindIdx(kind)];
    Translation *t = resolve(tid);
    if (!t)
        ++nMisses;
    return t;
}

Translation *
TranslationMap::insert(std::unique_ptr<Translation> t)
{
    const unsigned k = kindIdx(t->kind);
    const Addr pc = t->entryPc;

    // Allocate an arena slot (reusing a freed one keeps the arena
    // dense across flush cycles) and stamp the translation's id.
    u32 slot;
    if (!freeList.empty()) {
        slot = freeList.back();
        freeList.pop_back();
    } else {
        slot = static_cast<u32>(arena.size());
        arena.emplace_back();
    }
    ArenaEntry &ae = arena[slot];
    const TransId id{slot + 1, ae.gen};
    t->id = id;
    Translation *raw = t.get();
    ae.t = std::move(t);
    order[k].push_back(id);

    maybeGrow();
    Slot &s = probeFor(pc);
    if (s.empty()) {
        ++slotsUsed;
        s.pc = pc;
    } else if (s.byKind[k]) {
        // Same pc/kind installed again: the old translation stays in
        // the arena (chains into it remain safe) but is no longer
        // dispatchable. Count it instead of leaking stats.
        ++nOverwrites;
        ++overwritten[k];
    }
    s.byKind[k] = id;
    // Refresh the lookaside line with the new SBT-preferred resolution
    // so a cached (possibly negative) entry for this pc cannot go
    // stale.
    lsUpdate(pc, s.byKind[1] ? s.byKind[1] : s.byKind[0]);
    return raw;
}

void
TranslationMap::unchainAll()
{
    for (unsigned k = 0; k < 2; ++k) {
        for (TransId id : order[k]) {
            if (Translation *t = resolve(id))
                t->clearChains();
        }
    }
}

void
TranslationMap::freeEntry(TransId id)
{
    ArenaEntry &e = arena[id.idx - 1];
    e.t.reset();
    ++e.gen; // any surviving handle to this slot now resolves null
    freeList.push_back(id.idx - 1);
}

void
TranslationMap::eraseKind(TransKind kind)
{
    // Chains may cross kinds, so conservatively unchain everything;
    // surviving translations re-chain lazily through the VMM.
    unchainAll();
    const unsigned k = kindIdx(kind);
    for (TransId id : order[k])
        freeEntry(id);
    order[k].clear();
    overwritten[k] = 0;
    ++epoch; // every lookaside line is now stale by construction
    rebuildFromOrder(); // O(live in the surviving kind)
}

void
TranslationMap::clear()
{
    for (unsigned k = 0; k < 2; ++k) {
        for (TransId id : order[k])
            freeEntry(id);
        order[k].clear();
        overwritten[k] = 0;
    }
    ++epoch;
    for (Slot &s : slots)
        s = Slot{};
    slotsUsed = 0;
}

void
TranslationMap::reserve(std::size_t n)
{
    // Size for load factor < 3/4 at n entries.
    std::size_t want = roundPow2(n + n / 2, 64);
    if (want > slots.size())
        growTo(want);
}

void
TranslationMap::exportStats(StatRegistry &reg,
                            const std::string &prefix) const
{
    reg.set(prefix + ".lookups", static_cast<double>(nLookups),
            "dispatch lookups not covered by chaining");
    reg.set(prefix + ".misses", static_cast<double>(nMisses),
            "lookups that found no translation");
    reg.set(prefix + ".overwrites", static_cast<double>(nOverwrites),
            "installs that replaced a live pc/kind entry");
    reg.set(prefix + ".live_basic_blocks",
            static_cast<double>(numBasicBlocks()),
            "live BBT translations");
    reg.set(prefix + ".live_superblocks",
            static_cast<double>(numSuperblocks()),
            "live SBT translations");
    reg.set(prefix + ".capacity", static_cast<double>(slots.size()),
            "table slot capacity");
    reg.set(prefix + ".rehashes", static_cast<double>(nRehashes),
            "table growth rehashes");
    reg.set(prefix + ".flush_epoch", static_cast<double>(epoch),
            "lookaside invalidation epoch");
    if (!lookaside.empty()) {
        reg.set(prefix + ".lookaside.hits",
                static_cast<double>(lsHits),
                "dispatches resolved by the lookaside cache");
        reg.set(prefix + ".lookaside.misses",
                static_cast<double>(lsMisses),
                "dispatches that fell through to the table");
        const u64 total = lsHits + lsMisses;
        reg.set(prefix + ".lookaside.hit_rate",
                total ? static_cast<double>(lsHits) /
                            static_cast<double>(total)
                      : 0.0,
                "lookaside hit fraction of non-chained dispatches");
    }
}

} // namespace cdvm::dbt

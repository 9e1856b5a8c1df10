/**
 * @file
 * The translation lookup table: architected PC -> translation.
 *
 * The VMM runtime consults this map on every dispatch that is not
 * covered by chaining (Fig. 1b "Translation Lookup in Code Cache"),
 * which makes it the hottest host-side data structure in the whole
 * reproduction. It is a single open-addressing hash table with
 * power-of-two capacity and fibonacci (multiplicative) hashing on the
 * PC. Each slot holds the PC and both per-kind translation ids, so one
 * probe sequence resolves the SBT-preferred dispatch lookup. The table
 * is insert-only between flushes (no tombstones); eraseKind rebuilds
 * from the surviving installs in O(live). In front of it sits a small
 * direct-mapped **dispatch lookaside cache** (pc -> resolved TransId,
 * negative entries included) that is epoch-invalidated on every flush
 * and entry-updated on every install.
 *
 * Ownership is one generational arena: insert allocates a slot (from
 * the free list or by appending) and stamps the translation with its
 * TransId {slot, generation}; eraseKind frees every slot of that kind
 * and bumps the freed slots' generations, so every handle into the
 * flushed kind — chains, the lookaside, the VMM's last-executed
 * cursor — resolves to nullptr from then on. An insert that
 * overwrites an existing pc/kind entry keeps the old translation
 * alive (and safely chainable) until the next flush of its kind
 * instead of leaving dangling references; overwrites are counted and
 * exported.
 */

#ifndef CDVM_DBT_LOOKUP_HH
#define CDVM_DBT_LOOKUP_HH

#include <memory>
#include <string>
#include <vector>

#include "dbt/translation.hh"

namespace cdvm
{
class StatRegistry;
}

namespace cdvm::dbt
{

/** Fibonacci (multiplicative) hash: scrambles low-entropy PCs. */
inline u64
fibHash(u64 pc)
{
    return pc * 0x9E3779B97F4A7C15ull;
}

/** Owning map from x86 entry PC to translation. */
class TranslationMap
{
  public:
    /** Capacity presets (VmmConfig-sized). */
    struct Config
    {
        /** Initial table capacity hint (entries; rounded to pow2). */
        std::size_t reserveEntries = 4096;
        /** Dispatch lookaside entries (pow2; 0 disables). */
        std::size_t lookasideEntries = 256;
    };

    TranslationMap() : TranslationMap(Config{}) {}
    explicit TranslationMap(const Config &cfg);

    /** Find a translation for pc, preferring superblocks. */
    Translation *lookup(Addr pc);

    /** Find only a translation of the given kind. */
    Translation *lookup(Addr pc, TransKind kind);

    /** Resolve a handle; nullptr if null, freed, or from a past life. */
    Translation *
    resolve(TransId id)
    {
        if (id.idx == 0 || id.idx > arena.size())
            return nullptr;
        ArenaEntry &e = arena[id.idx - 1];
        return e.gen == id.gen ? e.t.get() : nullptr;
    }

    const Translation *
    resolve(TransId id) const
    {
        return const_cast<TranslationMap *>(this)->resolve(id);
    }

    /** Register a new translation (takes ownership, assigns its id). */
    Translation *insert(std::unique_ptr<Translation> t);

    /** Remove every translation of the given kind (arena flush). */
    void eraseKind(TransKind kind);

    /** Remove everything. */
    void clear();

    /** Pre-size the table for n live translations (rehash avoidance). */
    void reserve(std::size_t n);

    std::size_t size() const { return liveCount(0) + liveCount(1); }
    std::size_t numBasicBlocks() const { return liveCount(0); }
    std::size_t numSuperblocks() const { return liveCount(1); }
    u64 lookups() const { return nLookups; }
    u64 lookupMisses() const { return nMisses; }
    u64 overwrites() const { return nOverwrites; }
    u64 rehashes() const { return nRehashes; }
    u64 lookasideHits() const { return lsHits; }
    u64 lookasideMisses() const { return lsMisses; }
    /** Current flush epoch (bumped by eraseKind/clear). */
    u64 flushEpoch() const { return epoch; }
    /** Table slot capacity. */
    std::size_t capacity() const { return slots.size(); }

    /** Publish lookup/occupancy counters under prefix. */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;

    /** Visit every live (table-reachable) translation, install order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (unsigned k = 0; k < 2; ++k) {
            for (TransId id : order[k]) {
                const Translation *t = resolve(id);
                if (t && isLive(t))
                    fn(*t);
            }
        }
    }

  private:
    /** One arena slot: the owned translation plus its generation. */
    struct ArenaEntry
    {
        std::unique_ptr<Translation> t;
        u32 gen = 1;
    };

    /**
     * One table slot: the PC plus both per-kind ids, so the
     * SBT-preferred lookup resolves in a single probe sequence. A slot
     * with both ids null is empty (the table is insert-only between
     * flushes, so no tombstones exist).
     */
    struct Slot
    {
        Addr pc = 0;
        TransId byKind[2];

        bool empty() const { return !byKind[0] && !byKind[1]; }
    };

    /** Direct-mapped lookaside entry: resolved dispatch at an epoch. */
    struct LsEntry
    {
        Addr pc = 0;
        u64 epoch = 0; //!< 0: never filled
        TransId trans; //!< null: cached negative result
    };

    static unsigned kindIdx(TransKind k)
    {
        return k == TransKind::BasicBlock ? 0 : 1;
    }

    std::size_t liveCount(unsigned k) const
    {
        return order[k].size() - overwritten[k];
    }

    /** True when t is still reachable through the table. */
    bool isLive(const Translation *t) const;

    Slot *findSlot(Addr pc);
    const Slot *findSlot(Addr pc) const;
    /** Find pc's slot or the empty slot where it belongs. */
    Slot &probeFor(Addr pc);
    void growTo(std::size_t new_cap);
    void maybeGrow();
    void rebuildFromOrder();
    /** Refill / invalidate the lookaside line for pc. */
    void lsUpdate(Addr pc, TransId t);

    /** Drop chains in every translation that points into a doomed set. */
    void unchainAll();

    /** Free one arena slot: destroy + generation bump. */
    void freeEntry(TransId id);


    // Ownership: the generational arena. Freed slots go on the free
    // list with a bumped generation; `order[k]` records the install
    // order per kind ([0]=BBT, [1]=SBT) for flushes and rebuilds, and
    // `overwritten` counts installs no longer reachable through the
    // table (pc/kind overwrites).
    std::vector<ArenaEntry> arena;
    std::vector<u32> freeList; //!< 0-based arena indices
    std::vector<TransId> order[2];
    std::size_t overwritten[2] = {0, 0};

    // The table and its lookaside.
    std::vector<Slot> slots; //!< pow2 capacity
    std::size_t slotsUsed = 0;
    std::vector<LsEntry> lookaside; //!< pow2; empty when disabled
    u64 epoch = 1; //!< flush epoch; lookaside entries from older epochs
                   //!< are stale by construction

    u64 nLookups = 0;
    u64 nMisses = 0;
    u64 nOverwrites = 0;
    u64 nRehashes = 0;
    u64 lsHits = 0;
    u64 lsMisses = 0;
};

} // namespace cdvm::dbt

#endif // CDVM_DBT_LOOKUP_HH

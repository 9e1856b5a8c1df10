/**
 * @file
 * Translation descriptors: the unit the DBT system produces, caches,
 * chains and executes.
 *
 * Translations are addressed by generational **TransId handles**
 * rather than raw pointers. The owning TranslationMap hands out ids at
 * insert time and resolves them on use; a flush bumps the generation
 * of the freed slots, so any id that survived a flush resolves to
 * nullptr instead of dangling. This keeps every cross-translation
 * reference (chains, the dispatch lookaside, the VMM's last-executed
 * cursor) safe by construction and makes a translation a relocatable,
 * serializable value: nothing in it encodes the address of another
 * translation or of its own heap allocation.
 */

#ifndef CDVM_DBT_TRANSLATION_HH
#define CDVM_DBT_TRANSLATION_HH

#include <span>
#include <vector>

#include "common/types.hh"
#include "uops/uop.hh"

namespace cdvm::dbt
{

/** BBT block or SBT superblock. */
enum class TransKind : u8
{
    BasicBlock,
    Superblock,
};

/**
 * Which translator produced a translation. Persisted (two bits of the
 * warm image's record flags), so a warm-started VM knows which tier
 * each restored translation came from and the template tier's work
 * survives a save/boot round trip.
 */
enum class TransProvenance : u8
{
    SwBbt = 0,   //!< software uop-lowering BBT (the default)
    TmplBbt = 1, //!< IR-less template BBT (software XLTx86)
    XltBbt = 2,  //!< XLTx86-assisted BBT (hardware-assist model)
    Sbt = 3,     //!< superblock optimizer
};

/**
 * Generational handle to a translation owned by a TranslationMap.
 *
 * idx is 1-based (0 means "no translation"); gen must match the
 * owning arena slot's current generation for the handle to resolve.
 * Default-constructed ids are the null handle.
 */
struct TransId
{
    u32 idx = 0;
    u32 gen = 0;

    explicit operator bool() const { return idx != 0; }
    bool operator==(const TransId &) const = default;

    /** Pack into one u64 key (0 iff null handle); fromRaw inverts. */
    u64
    raw() const
    {
        return (static_cast<u64>(gen) << 32) | idx;
    }

    static TransId
    fromRaw(u64 v)
    {
        return TransId{static_cast<u32>(v),
                       static_cast<u32>(v >> 32)};
    }
};

/** The null handle (resolves to nullptr). */
inline constexpr TransId NO_TRANS{};

/**
 * One translation: the micro-op body plus the metadata the VMM needs
 * for dispatch, profiling, chaining and precise-state recovery.
 */
struct Translation
{
    TransKind kind = TransKind::BasicBlock;
    Addr entryPc = 0;       //!< architected (x86) entry address
    Addr codeAddr = 0;      //!< code-cache address reserved for the body
    u32 codeBytes = 0;      //!< encoded size (the reservation's length)
    /** Architected instructions covered: one pcSpan() entry each. */
    u32 numX86Insns = 0;
    u32 x86Bytes = 0;       //!< architected bytes covered
    Addr fallthroughPc = 0; //!< x86 PC following the translated region
    bool containsComplex = false;
    /** Producing tier (persisted across warm-start save/boot). */
    TransProvenance provenance = TransProvenance::SwBbt;
    bool endsInCti = false;
    /** True if the final covered instruction is a conditional branch. */
    bool endsInCondBranch = false;
    /** Its taken target (valid when endsInCondBranch). */
    Addr condBranchTarget = 0;
    /** Its x86 PC (valid when endsInCondBranch). */
    Addr condBranchPc = 0;

    /** This translation's own handle (set by TranslationMap::insert). */
    TransId id;

    /** Execution form of the body (decoded once at translation time).
     *  Empty when the body is a zero-copy view into a mapped warm
     *  image (mappedUops) -- always read it through code(). */
    uops::UopVec uops;

    /**
     * Side table for precise state: x86 PC of every covered
     * instruction in translation order (Fig. 1 "precise state mapping").
     * Empty for mapped bodies -- always read it through pcSpan().
     */
    std::vector<Addr> x86pcs;

    /**
     * Zero-copy warm start: a translation installed from a mapped
     * dbt::TransImage borrows its body and pc table straight from the
     * image instead of owning copies. The image outlives every
     * translation (the engine holds it on the services handle), so
     * the views cannot dangle.
     */
    const uops::Uop *mappedUops = nullptr;
    u32 mappedUopCount = 0;
    const Addr *mappedPcs = nullptr;
    u32 mappedPcCount = 0;

    /** True when the body lives in a mapped warm image. */
    bool mappedBody() const { return mappedUops != nullptr; }

    /** The executable body, wherever it lives. */
    std::span<const uops::Uop>
    code() const
    {
        return mappedUops
                   ? std::span<const uops::Uop>(mappedUops,
                                                mappedUopCount)
                   : std::span<const uops::Uop>(uops);
    }

    /** The precise-state pc table, wherever it lives. */
    std::span<const Addr>
    pcSpan() const
    {
        return mappedPcs
                   ? std::span<const Addr>(mappedPcs, mappedPcCount)
                   : std::span<const Addr>(x86pcs);
    }

    // --- profiling (maintained by the VMM during emulation) ----------
    /** Entries into this translation. The terminating branch's
     *  direction counts live in engine::BranchProfile. */
    u64 execCount = 0;

    // --- chaining ------------------------------------------------------
    /**
     * Direct links from this translation's exits to successor
     * translations, keyed by successor x86 entry PC. Exit 0 is the
     * taken/branch target, exit 1 the fall-through; indirect exits are
     * never chained (they go through the VMM's lookup). Links are
     * handles, not pointers: a successor freed by a cache flush stops
     * resolving instead of dangling.
     */
    struct Chain
    {
        Addr targetPc = 0;
        TransId to;
    };
    Chain chains[2];

    /** Find the chained successor handle for the given next PC. */
    TransId
    chainedTo(Addr pc) const
    {
        for (const Chain &c : chains) {
            if (c.to && c.targetPc == pc)
                return c.to;
        }
        return NO_TRANS;
    }

    /**
     * Link the exit to pc to a successor. Returns true only when that
     * created or retargeted a link: false when the exit already links
     * to `to`, or when both slots hold other exits.
     */
    bool
    addChain(Addr pc, TransId to)
    {
        for (Chain &c : chains) {
            if (!c.to) {
                c.targetPc = pc;
                c.to = to;
                return true;
            }
            if (c.targetPc == pc) {
                if (c.to == to)
                    return false;
                c.to = to;
                return true;
            }
        }
        return false;
    }

    void
    clearChains()
    {
        chains[0] = Chain{};
        chains[1] = Chain{};
    }
};

} // namespace cdvm::dbt

#endif // CDVM_DBT_TRANSLATION_HH

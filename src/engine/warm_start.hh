/**
 * @file
 * Warm start: populate a fresh engine from a verified translation
 * image (dbt/image) before the first dispatched instruction.
 *
 * Installing validates every record against current guest memory (its
 * content address), binds the survivors to views into the image,
 * installs them through the normal CodeCacheManager path (so codeAddr
 * is recomputed and the arena accounting is real), re-binds the saved
 * chains to the freshly assigned TransIds in one relocation pass, and
 * seeds the branch-direction profile plus per-translation exec counts.
 * Anything stale, or naming an opcode or register that does not
 * exist, is skipped: the VM silently falls back to the cold path for
 * exactly those regions.
 */

#ifndef CDVM_ENGINE_WARM_START_HH
#define CDVM_ENGINE_WARM_START_HH

#include "dbt/image.hh"
#include "engine/cache_mgr.hh"
#include "engine/events.hh"
#include "engine/profile.hh"

namespace cdvm::engine
{

/** Outcome of a warm-start install. */
struct WarmStartReport
{
    u64 loaded = 0;         //!< records in the image
    u64 installed = 0;      //!< translations installed pre-dispatch
    u64 installedInsns = 0; //!< x86 instructions those cover (the
                            //!< warm-fill work a cycle model prices)
    u64 invalidated = 0;    //!< records rejected (stale guest code or
                            //!< an out-of-range micro-op field)
    u64 profileSeeded = 0;  //!< branch-profile entries seeded
    /** Chain links re-bound in the flat relocation pass. */
    u64 relocations = 0;
    /** Bytes of the shared image this context installed from. */
    u64 mappedBytes = 0;
};

/**
 * Zero-copy install from a verified translation image: every accepted
 * record's Translation borrows its body and pc table straight from
 * the image (no decode, no copy) and the saved chains are re-bound in
 * one pass over the flat relocation table. Validation is per record
 * against *this* context's guest memory: one content address is
 * computed per distinct page list, and a record installs only if its
 * stored pageKey matches its list's, the list is exactly the pages
 * its code covers and every micro-op's opcode and register fields are
 * in range; anything else silently falls back cold. The image must
 * outlive the engine (the Vmm holds the generation handle). With
 * an event stream, each install is emitted as a WarmInstall StageEvent
 * (insns = translated x86 instructions), so attached profiling sinks
 * see the warm fill as work.
 */
WarmStartReport warmStartInstall(const dbt::TransImage &img,
                                 const x86::Memory &mem,
                                 CodeCacheManager &ccm,
                                 BranchProfile &prof,
                                 EventStream *events = nullptr);

} // namespace cdvm::engine

#endif // CDVM_ENGINE_WARM_START_HH

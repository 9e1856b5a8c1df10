/**
 * @file
 * Code caches: the address ranges the VM reserves for translations.
 *
 * The VM reserves two arenas (one for BBT blocks, one for SBT
 * superblocks, Fig. 1). An arena hands out addresses and tracks
 * occupancy; it holds no bytes (bodies live in dbt::Translation), so
 * the guest's memory at those addresses stays its own. The addresses
 * feed the timing model's code-fetch accounting, and occupancy drives
 * eviction. Allocation is bump-pointer; when an arena
 * fills, the classic flush-everything policy applies and the VMM
 * re-translates on demand -- the retranslation behaviour the paper's
 * multitasking discussion worries about, exercised directly by the
 * code-cache ablation bench.
 */

#ifndef CDVM_DBT_CODECACHE_HH
#define CDVM_DBT_CODECACHE_HH

#include <string>

#include "common/types.hh"

namespace cdvm
{
class StatRegistry;
}

namespace cdvm::dbt
{

/** One bump-allocated translation arena. */
class CodeCache
{
  public:
    CodeCache(std::string name, Addr base, u64 capacity);

    /**
     * Allocate len bytes. Returns the code-cache address, or 0 when
     * the arena is full (caller must flush and retry).
     */
    Addr allocate(u64 len);

    /** Drop all contents (the flush eviction policy). */
    void flush();

    Addr base() const { return start; }
    u64 capacity() const { return cap; }
    u64 used() const { return next - start; }
    u64 flushes() const { return nFlushes; }
    u64 bytesEverAllocated() const { return totalAllocated; }
    const std::string &name() const { return label; }

    /** Publish occupancy/flush counters under prefix (dotted path). */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    std::string label;
    Addr start;
    u64 cap;
    Addr next;
    u64 nFlushes = 0;
    u64 totalAllocated = 0;
};

} // namespace cdvm::dbt

#endif // CDVM_DBT_CODECACHE_HH

/**
 * @file
 * The block-granular staged-emulation state machine.
 *
 * The timing simulator used to interleave its cycle accounting with
 * the staging decisions (when is a block translated, when does a
 * region go hot, where does its code-cache image live). This class is
 * that state machine alone: it walks a dynamic block trace and emits
 * the same StageEvent stream the functional VMM's dispatch core
 * produces, so one staging engine feeds two kinds of consumers --
 * retire counting (StageCounter) and cycle pricing (the timing
 * simulator's sink in startup_sim.cc).
 *
 * Event order per block touch mirrors the real VMM: translation on
 * first touch (BbtTranslate + a Dispatch instant), then hotspot
 * detection / region optimization (SbtOptimize), then execution in
 * the block's current mode (ColdExec / BbtExec / SbtExec).
 */

#ifndef CDVM_ENGINE_STAGED_PIPELINE_HH
#define CDVM_ENGINE_STAGED_PIPELINE_HH

#include <vector>

#include "engine/async_contexts.hh"
#include "engine/events.hh"
#include "workload/trace_gen.hh"

namespace cdvm::engine
{

/** Staging policy of the simulated machine. */
struct StagedParams
{
    /** Cold code is BBT-translated on first touch (VM.soft/VM.be). */
    bool translateCold = true;
    /** Hotspot optimization stage present. */
    bool hasSbt = true;
    /** Eq. 2 threshold: touches until a block's region goes hot. */
    u64 hotThreshold = 8000;
    /** Code-cache bytes per x86 byte. */
    double codeExpansion = 1.6;
    Addr bbtBase = 0xe0000000;
    Addr sbtBase = 0xe8000000;

    /**
     * Warm start from a translation image: every block begins in BBT
     * mode, with the install work (record validation, arena
     * reservation and chain relocation) emitted as up-front
     * WarmInstall events before the first executed instruction. Only
     * meaningful with translateCold (the image replaces the BBT
     * transient).
     */
    bool warmStart = false;

    /**
     * Background SBT contexts (0 = synchronous: a region is optimized
     * the instant it crosses the threshold, charging Delta_SBT on the
     * emulation thread, exactly the paper's model). With N >= 1 a hot
     * region keeps executing in its pre-hot mode while one of N
     * contexts optimizes it; the SbtOptimize event is emitted (with
     * background set) when the optimization is due (AsyncContexts),
     * and only then does the region switch to SbtExec.
     */
    unsigned asyncTranslators = 0;
    /**
     * Background optimization latency per translated x86 instruction,
     * in executed-instruction units (the pipeline's only clock): how
     * many instructions the emulation thread retires while one
     * instruction is being optimized. The timing simulator derives it
     * from Delta_SBT and the pre-hot mode's CPI.
     */
    double asyncLatencyPerInsn = 1000.0;
};

/** Trace-driven staging state machine emitting StageEvents. */
class StagedPipeline
{
  public:
    StagedPipeline(const std::vector<workload::BlockInfo> &block_infos,
                   const StagedParams &params, EventStream &events);

    /** Process one dynamic touch of block id, emitting its events. */
    void touch(u32 id);

  private:
    /** Make the region hot: emit SbtOptimize, switch member blocks. */
    void optimizeRegion(u32 region, bool background);
    /** Book a region on the background contexts. */
    void requestAsync(u32 region);
    struct BlockState
    {
        u8 mode = 0; //!< 0 cold, 1 BBT-translated, 2 hotspot (SBT)
        u32 exec = 0;
        Addr bbtAddr = 0; //!< BBT code-cache address
        u32 bbtBytes = 0; //!< BBT code-cache image size
    };

    struct RegionState
    {
        bool hot = false;
        /** Async: optimization requested, not yet completed. */
        bool inFlight = false;
        Addr sbtAddr = 0;
        u32 sbtBytes = 0;
    };

    const std::vector<workload::BlockInfo> &blocks;
    StagedParams p;
    EventStream &events;

    std::vector<BlockState> st;
    std::vector<RegionState> regions;
    // Region membership lists (contiguous ids).
    std::vector<u32> regionFirst;
    std::vector<u32> regionLast;

    // Bump allocators for the two code-cache arenas.
    Addr bbtNext;
    Addr sbtNext;

    /** Executed instructions so far: the pipeline's clock. */
    double insnsSoFar = 0.0;
    /** Regions booked for background optimization. */
    AsyncContexts<u32> async;
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_STAGED_PIPELINE_HH

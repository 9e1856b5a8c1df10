#include "engine/staged_pipeline.hh"

#include <algorithm>
#include <cmath>

namespace cdvm::engine
{

using workload::BlockInfo;

StagedPipeline::StagedPipeline(
    const std::vector<BlockInfo> &block_infos,
    const StagedParams &params, EventStream &event_stream)
    : blocks(block_infos), p(params), events(event_stream),
      st(blocks.size()), bbtNext(p.bbtBase), sbtNext(p.sbtBase),
      async(p.asyncTranslators, p.asyncLatencyPerInsn)
{
    const u32 num_regions =
        blocks.empty() ? 0 : blocks.back().region + 1;
    regions.resize(num_regions);
    regionFirst.assign(num_regions, ~0u);
    regionLast.assign(num_regions, 0);
    for (u32 i = 0; i < blocks.size(); ++i) {
        u32 r = blocks[i].region;
        regionFirst[r] = std::min(regionFirst[r], i);
        regionLast[r] = std::max(regionLast[r], i);
    }

    // Warm start: install the whole image before the first dispatched
    // instruction. Each block is installed up front and skips the
    // per-touch BBT translation below; the cost is whatever the
    // attached cycle model prices a WarmInstall at.
    if (p.warmStart && p.translateCold) {
        for (u32 i = 0; i < blocks.size(); ++i) {
            BlockState &bs = st[i];
            bs.bbtBytes = static_cast<u32>(
                std::lround(blocks[i].bytes * p.codeExpansion));
            bs.bbtAddr = bbtNext;
            bbtNext += (bs.bbtBytes + 3u) & ~3u;
            bs.mode = 1;

            StageEvent e;
            e.stage = TracePhase::WarmInstall;
            e.insns = blocks[i].insns;
            e.x86Addr = blocks[i].x86Addr;
            e.x86Bytes = blocks[i].bytes;
            e.codeAddr = bs.bbtAddr;
            e.codeBytes = bs.bbtBytes;
            e.arg = blocks[i].x86Addr;
            events.emit(e);
        }
    }
}

void
StagedPipeline::optimizeRegion(u32 region, bool background)
{
    RegionState &rs = regions[region];
    rs.hot = true;
    rs.inFlight = false;
    u32 region_insns = 0;
    u32 region_bytes = 0;
    for (u32 i = regionFirst[region]; i <= regionLast[region]; ++i) {
        region_insns += blocks[i].insns;
        region_bytes += blocks[i].bytes;
        st[i].mode = 2;
    }
    rs.sbtBytes = static_cast<u32>(
        std::lround(region_bytes * p.codeExpansion));
    rs.sbtAddr = sbtNext;
    sbtNext += (rs.sbtBytes + 3u) & ~3u;

    StageEvent e;
    e.stage = TracePhase::SbtOptimize;
    e.insns = region_insns;
    e.x86Addr = blocks[regionFirst[region]].x86Addr;
    e.x86Bytes = region_bytes;
    e.codeAddr = rs.sbtAddr;
    e.codeBytes = rs.sbtBytes;
    e.background = background;
    e.arg = blocks[regionFirst[region]].x86Addr;
    events.emit(e);
}

void
StagedPipeline::requestAsync(u32 region)
{
    regions[region].inFlight = true;
    u32 region_insns = 0;
    for (u32 i = regionFirst[region]; i <= regionLast[region]; ++i)
        region_insns += blocks[i].insns;
    // The emulation thread never waits; the region installs when its
    // booked context has spent the latency on it.
    async.book(insnsSoFar, region_insns, region);
}

void
StagedPipeline::touch(u32 id)
{
    // Background optimizations whose latency elapsed install first,
    // so this touch sees the post-install staging state.
    while (async.due(insnsSoFar))
        optimizeRegion(async.pop(), true);

    const BlockInfo &b = blocks[id];
    BlockState &bs = st[id];
    RegionState &rs = regions[b.region];

    // Region went hot earlier via a sibling block.
    if (rs.hot && bs.mode != 2)
        bs.mode = 2;

    // --- BBT translation on first touch --------------------------
    if (p.translateCold && bs.mode == 0) {
        bs.bbtBytes = static_cast<u32>(
            std::lround(b.bytes * p.codeExpansion));
        bs.bbtAddr = bbtNext;
        bbtNext += (bs.bbtBytes + 3u) & ~3u;

        StageEvent e;
        e.stage = TracePhase::BbtTranslate;
        e.insns = b.insns;
        e.x86Addr = b.x86Addr;
        e.x86Bytes = b.bytes;
        e.codeAddr = bs.bbtAddr;
        e.codeBytes = bs.bbtBytes;
        e.arg = b.x86Addr;
        events.emit(e);

        StageEvent d;
        d.stage = TracePhase::Dispatch;
        d.instant = true;
        d.arg = b.x86Addr;
        events.emit(d);

        bs.mode = 1;
    }

    // --- hotspot detection & SBT ----------------------------------
    ++bs.exec;
    if (p.hasSbt && !rs.hot && bs.exec == p.hotThreshold) {
        if (p.asyncTranslators > 0) {
            // The region keeps running in its pre-hot mode while a
            // background context optimizes it.
            if (!rs.inFlight)
                requestAsync(b.region);
        } else {
            // Synchronous: the region (superblock scope) becomes hot
            // as one unit, Delta_SBT charged on the emulation thread.
            optimizeRegion(b.region, false);
        }
    }

    // --- execution --------------------------------------------------
    StageEvent e;
    e.insns = b.insns;
    e.x86Addr = b.x86Addr;
    e.x86Bytes = b.bytes;
    e.arg = b.x86Addr;
    if (bs.mode == 2) {
        e.stage = TracePhase::SbtExec;
        // Fetch from the superblock's code-cache image; use the
        // block's proportional offset within the region.
        e.codeAddr =
            rs.sbtAddr +
            static_cast<Addr>(
                (b.x86Addr - blocks[regionFirst[b.region]].x86Addr) *
                p.codeExpansion);
        e.codeBytes = static_cast<u32>(
            std::lround(b.bytes * p.codeExpansion));
    } else if (bs.mode == 1) {
        e.stage = TracePhase::BbtExec;
        e.codeAddr = bs.bbtAddr;
        e.codeBytes = static_cast<u32>(
            std::lround(b.bytes * p.codeExpansion));
    } else {
        e.stage = TracePhase::ColdExec;
    }
    events.emit(e);
    insnsSoFar += static_cast<double>(b.insns);
}

} // namespace cdvm::engine

/**
 * @file
 * Continuous profiling consumers of the stage-event stream.
 *
 * Two always-cheap StageSinks give the VM a live view of itself:
 *
 *  - SamplingProfiler draws one sample every N executed (work-unit)
 *    instructions and attributes it to {guest page, translation,
 *    hot-stage}. The aggregate heatmap answers "where does guest time
 *    go" without per-instruction bookkeeping: cost is O(1) per stage
 *    event (a countdown decrement) plus O(1) map updates only on the
 *    sampled events. The ranking it produces orders the warm-start
 *    image hottest-first and is exportable as JSON.
 *
 *  - FlightSink feeds every event, at its stream-clock stamp
 *    (StageEvent::clock), into the Vmm's flight-recorder ring (a
 *    Tracer) and watches for code-cache flush storms: when
 *    STORM_FLUSHES CacheFlush events land inside a sliding window of
 *    STORM_WINDOW work units, the ring is dumped to a file
 *    automatically -- the post-mortem for "the caches thrashed and
 *    startup fell off a cliff".
 *
 * Both sinks run on the dispatch thread only (background SBT workers
 * never emit stage events), so neither needs synchronization.
 */

#ifndef CDVM_ENGINE_PROFILER_HH
#define CDVM_ENGINE_PROFILER_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "common/statreg.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "engine/events.hh"
#include "x86/memory.hh"

namespace cdvm::engine
{

/**
 * Attribution buckets of the sampling profiler: which rung of the
 * staged-emulation ladder a sample's work belongs to.
 */
enum class HotStage : u8
{
    Cold, //!< interpretation, x86-mode, untranslated execution
    Bbt,  //!< basic-block translation + BBT code execution
    Sbt,  //!< superblock optimization + SBT code execution
    Warm, //!< warm-start image install work
};

inline constexpr unsigned NUM_HOT_STAGES = 4;

const char *hotStageName(HotStage s);

/** Map the tracer phase vocabulary onto the attribution buckets. */
HotStage hotStageOf(TracePhase p);

/**
 * The guest-hotness sampling profiler.
 *
 * Samples are taken on the work-unit clock every period_insns covered
 * instructions, deterministically: the k-th sample always lands on
 * work unit k*period, independent of how the stream chops the work
 * into events. Identical event streams therefore produce identical
 * heatmaps (the async-deterministic pipeline replays exactly the
 * synchronous stream, so its profile matches too).
 */
class SamplingProfiler : public StageSink
{
  public:
    /** Per-page sample counts, split by attribution stage. */
    struct PageHot
    {
        u64 total = 0;
        u64 byStage[NUM_HOT_STAGES] = {};
    };

    /** One row of the hotness ranking. */
    struct PageRank
    {
        Addr page = 0; //!< page number (guest address >> PAGE_SHIFT)
        PageHot hot;
    };

    /** Per-translation sample counts. */
    struct TransHot
    {
        u64 samples = 0;
        Addr entryPc = 0;
        HotStage stage = HotStage::Bbt; //!< stage of the last sample
    };

    struct TransRank
    {
        u64 transId = 0; //!< packed dbt::TransId (TransId::raw())
        TransHot hot;
    };

    /** period_insns == 0 constructs a disabled profiler. */
    explicit SamplingProfiler(u64 period_insns) : period_(period_insns)
    {
        untilNext = period_ ? period_ : ~u64{0};
    }

    void
    onEvent(const StageEvent &e) override
    {
        if (e.instant || e.insns == 0)
            return;
        u64 n = e.insns;
        // Hot path: the countdown usually just shrinks.
        if (n < untilNext) {
            untilNext -= n;
            return;
        }
        do {
            n -= untilNext;
            untilNext = period_;
            sample(e);
        } while (n >= untilNext);
        untilNext -= n;
    }

    bool enabled() const { return period_ != 0; }
    u64 period() const { return period_; }

    /** Samples drawn so far. */
    u64 samples() const { return total; }

    u64
    stageSamples(HotStage s) const
    {
        return byStage[static_cast<unsigned>(s)];
    }

    /** Samples attributed to the given guest page number. */
    u64 pageSamples(Addr page) const;

    /** Samples attributed to the given packed TransId (0 if none). */
    u64 transSamples(u64 raw_id) const;

    std::size_t distinctPages() const { return pages.size(); }
    std::size_t distinctTranslations() const { return trans.size(); }

    /**
     * Pages ordered hottest-first (ties broken by ascending page
     * number, so the ranking is deterministic). top_n == 0: all.
     */
    std::vector<PageRank> ranking(std::size_t top_n = 0) const;

    /** Translations ordered hottest-first (ties by ascending id). */
    std::vector<TransRank> transRanking(std::size_t top_n = 0) const;

    /** Publish totals under prefix (engine.profiler.*). */
    void exportStats(StatRegistry &reg,
                     const std::string &prefix = "engine.profiler") const;

    /** Full heatmap as JSON (pages + translations, hottest first). */
    std::string dumpJson() const;

    /** Write dumpJson() to path. @return false on I/O failure. */
    bool writeJson(const std::string &path) const;

    /** Human-readable top-n page table for interactive output. */
    std::string dumpTopN(std::size_t n) const;

    /** Forget all samples; the period and clock phase keep running. */
    void clear();

  private:
    void sample(const StageEvent &e);

    u64 period_;
    u64 untilNext;
    u64 total = 0;
    u64 byStage[NUM_HOT_STAGES] = {};
    std::unordered_map<Addr, PageHot> pages;
    std::unordered_map<u64, TransHot> trans;
};

/**
 * Flight-recorder consumer: every stage event lands in the ring, and
 * CacheFlush storms trigger an automatic dump.
 */
class FlightSink : public StageSink
{
  public:
    /** CacheFlush events inside STORM_WINDOW that make a storm. */
    static constexpr unsigned STORM_FLUSHES = 8;
    /** Storm detection window, in work units. */
    static constexpr u64 STORM_WINDOW = u64{1} << 20;

    /**
     * @param ring the flight recorder to feed (its lifetime must
     *        cover the sink's)
     * @param dump_path where storm dumps go (empty: count only)
     */
    FlightSink(Tracer &ring, std::string dump_path)
        : ring_(ring), dumpPath(std::move(dump_path))
    {
    }

    void
    onEvent(const StageEvent &e) override
    {
        ring_.span(e.stage, e.clock, e.insns,
                   e.x86Addr ? e.x86Addr : e.arg);
        if (e.stage == TracePhase::CacheFlush)
            noteFlush(e.clock);
    }

    /** Storm episodes detected. */
    u64 storms() const { return stormCount; }

    /** Storm episodes that produced a dump file. */
    u64 stormDumps() const { return stormDumpCount; }

  private:
    void noteFlush(u64 clock);

    Tracer &ring_;
    std::string dumpPath;
    std::vector<u64> flushClocks; //!< recent flushes inside the window
    u64 stormCount = 0;
    u64 stormDumpCount = 0;
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_PROFILER_HH

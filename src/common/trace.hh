/**
 * @file
 * Low-overhead phase/event ring for the staged-emulation pipeline.
 *
 * A preallocated power-of-two ring of timestamped spans records what
 * the VM is doing over (virtual) time: interpreting, BBT-translating,
 * executing translated code, optimizing hotspots, flushing caches,
 * chaining, running hardware assists. When the ring wraps, the
 * oldest events are overwritten (the dropped count is kept).
 *
 * One ring type serves two kinds of instance. Tracer::global() is the
 * run-wide timeline: enabled explicitly, sized generously, dumped
 * once at exit as Chrome trace JSON. Each Vmm also owns a small
 * always-on ring, its flight recorder: it keeps the last few thousand
 * stage events for an on-demand, flush-storm or abnormal-exit text
 * dump ("what was the VM doing just before *this*").
 *
 * Time is whatever monotonic u64 the instrumented layer owns: the
 * functional VMM uses the event stream's work-unit clock (retired
 * instructions advance it by 1 each, translations by the number of
 * instructions translated), the timing simulators use cycles. Layers
 * record on separate tracks so the timelines do not interleave.
 *
 * Recording is one masked store plus a counter increment, with no
 * locks and no allocation after the ring is sized: each ring has one
 * producer thread (background SBT workers never emit stage events).
 * The crash-dump path may read a ring from another thread, which is
 * acceptable for a best-effort post-mortem artifact.
 *
 * Disabled mode costs one predictable branch per call site and holds
 * no allocation: a disabled ring has no buffer. Compiling with
 * -DCDVM_NO_TRACING removes the CDVM_TRACE_* call sites entirely
 * (the macros become no-ops).
 *
 * Output is Chrome trace_event JSON ("X" complete events), loadable
 * in Perfetto (https://ui.perfetto.dev) or chrome://tracing, or the
 * flight recorder's plain-text dump.
 */

#ifndef CDVM_COMMON_TRACE_HH
#define CDVM_COMMON_TRACE_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace cdvm
{

/** What a span was doing (the Chrome trace "name"/"cat"). */
enum class TracePhase : u8
{
    Interp = 0,   //!< cold code interpreted one insn at a time
    X86Mode,      //!< cold code executed via dual-mode decoders
    BbtTranslate, //!< basic-block translation work
    SbtOptimize,  //!< superblock formation + optimization work
    BbtExec,      //!< executing BBT translations from the code cache
    SbtExec,      //!< executing optimized hotspot code
    CacheFlush,   //!< code-cache arena flush (instant)
    Chain,        //!< translation chain installed (instant)
    Dispatch,     //!< VMM dispatch / lookup work
    HwAssist,     //!< hardware-assist activity (XLTx86, BBB hit)
    ColdExec,     //!< timing-sim cold execution (native/interp)
    WarmInstall,  //!< warm-start image install work
    NUM_PHASES,
};

/** Chrome trace "name" for a phase. */
const char *tracePhaseName(TracePhase p);

/** Chrome trace "cat" (category) for a phase. */
const char *tracePhaseCategory(TracePhase p);

/** One recorded span (dur == 0 renders as an instant event). */
struct TraceEvent
{
    u64 ts = 0;   //!< start, in the recording layer's virtual time
    u64 dur = 0;  //!< duration in the same unit
    u64 arg = 0;  //!< phase-specific payload (pc, insns, bytes...)
    TracePhase phase = TracePhase::Interp;
    u8 track = 0; //!< Chrome tid: 0 = vmm, 1 = timing sim
};

/** The ring-buffer tracer. */
class Tracer
{
  public:
    /**
     * Preallocate a ring of at least capacity_events entries (rounded
     * up to a power of two). 0 constructs a disabled tracer with no
     * buffer.
     */
    explicit Tracer(std::size_t capacity_events = 0);
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** The process-wide tracer used by the CLI trace flags. */
    static Tracer &global();

    /**
     * Start tracing into a freshly preallocated ring of at least
     * capacity_events entries, rounded up to a power of two (older
     * contents are discarded).
     */
    void enable(std::size_t capacity_events);

    /** Stop tracing and release the buffer. */
    void disable();

    bool enabled() const { return !buf.empty(); }

    /** Record a span; no-op (one branch) when disabled. */
    void
    span(TracePhase phase, u64 ts, u64 dur, u64 arg = 0, u8 track = 0)
    {
        if (buf.empty())
            return;
        record(phase, ts, dur, arg, track);
    }

    /** Record an instant event; no-op (one branch) when disabled. */
    void
    instant(TracePhase phase, u64 ts, u64 arg = 0, u8 track = 0)
    {
        if (buf.empty())
            return;
        record(phase, ts, 0, arg, track);
    }

    /** Events currently retained (<= capacity). */
    std::size_t
    size() const
    {
        return total < buf.size() ? static_cast<std::size_t>(total)
                                  : buf.size();
    }

    /** Ring capacity in events (0 when disabled). */
    std::size_t capacity() const { return buf.size(); }

    /** Events ever recorded since enable() or clear(). */
    u64 recorded() const { return total; }

    /** Events lost to ring wraparound. */
    u64 dropped() const { return total - size(); }

    /** Retained events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    /** Forget recorded events but keep tracing (buffer retained). */
    void clear() { total = 0; }

    /** Chrome trace_event JSON document of the retained events. */
    std::string dumpChromeJson() const;

    /** Write dumpChromeJson() to path. @return false on I/O failure. */
    bool writeChromeJson(const std::string &path) const;

    /**
     * The flight recorder's plain-text dump: a header line carrying
     * the retained/recorded/overwritten totals, then one
     * "clock phase insns arg" row per retained event, oldest first.
     */
    std::string dumpText() const;

    /** Write dumpText() to path. @return false on I/O failure. */
    bool writeText(const std::string &path) const;

  private:
    void
    record(TracePhase phase, u64 ts, u64 dur, u64 arg, u8 track)
    {
        TraceEvent &e = buf[static_cast<std::size_t>(total) & mask];
        e.ts = ts;
        e.dur = dur;
        e.arg = arg;
        e.phase = phase;
        e.track = track;
        ++total;
    }

    std::vector<TraceEvent> buf;
    std::size_t mask = 0;
    u64 total = 0; //!< events ever recorded; next slot = total & mask
};

/**
 * Span-coalescing helper: merges back-to-back spans of the same phase
 * and track into one event before handing them to the tracer. The
 * block-granular timing simulator would otherwise record one event
 * per simulated block (millions); coalescing keeps event counts
 * proportional to phase *changes*.
 */
class SpanCoalescer
{
  public:
    explicit SpanCoalescer(Tracer &tracer, u8 track_id = 0)
        : tr(tracer), track(track_id)
    {
    }

    ~SpanCoalescer() { flush(); }

    /** Append [ts, ts+dur) in phase p; emits on phase change. */
    void
    add(TracePhase p, u64 ts, u64 dur, u64 arg = 0)
    {
        if (!tr.enabled())
            return;
        if (open && p == cur && ts <= end) {
            end = ts + dur;
            accum += arg;
            return;
        }
        flush();
        open = true;
        cur = p;
        begin = ts;
        end = ts + dur;
        accum = arg;
    }

    /** Emit any pending span. */
    void
    flush()
    {
        if (!open)
            return;
        tr.span(cur, begin, end - begin, accum, track);
        open = false;
    }

  private:
    Tracer &tr;
    u8 track;
    bool open = false;
    TracePhase cur = TracePhase::Interp;
    u64 begin = 0;
    u64 end = 0;
    u64 accum = 0;
};

} // namespace cdvm

#ifdef CDVM_NO_TRACING
#define CDVM_TRACE_SPAN(tracer, phase, ts, dur, ...) ((void)0)
#define CDVM_TRACE_INSTANT(tracer, phase, ts, ...) ((void)0)
#else
#define CDVM_TRACE_SPAN(tracer, phase, ts, dur, ...) \
    (tracer).span((phase), (ts), (dur), ##__VA_ARGS__)
#define CDVM_TRACE_INSTANT(tracer, phase, ts, ...) \
    (tracer).instant((phase), (ts), ##__VA_ARGS__)
#endif

#endif // CDVM_COMMON_TRACE_HH

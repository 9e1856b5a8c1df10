/**
 * @file
 * The engine's stage-event stream: one staging state machine, many
 * consumers.
 *
 * Both producers of staged-emulation activity -- the functional VMM
 * dispatch core and the block-granular StagedPipeline driving the
 * timing simulator -- describe what they do as a stream of StageEvents
 * using the TracePhase vocabulary (the same phases PR 1's tracer
 * records). Consumers attach as StageSinks:
 *
 *  - TraceSink turns events into tracer spans on the stream's
 *    work-unit clock (the functional VMM's track-0 timeline);
 *  - StageCounter tallies retired instructions and translation
 *    activity per stage (functional retire counts);
 *  - the timing simulator's cycle model (in startup_sim.cc) prices
 *    each event in cycles against the machine config and the cache
 *    hierarchy.
 *
 * An event is self-describing: which stage, how many x86 instructions
 * it covers, and where the covered code lives both in the architected
 * image (x86Addr/x86Bytes) and -- for translated stages -- in the
 * code cache (codeAddr/codeBytes).
 *
 * The stream owns the one work-unit clock: emit() stamps each event
 * with the clock before it and advances the clock by the event's
 * instructions (instants and empty spans do not advance it). Every
 * consumer that needs a timeline reads StageEvent::clock, so the
 * tracer and the flight recorder share one timebase by construction.
 */

#ifndef CDVM_ENGINE_EVENTS_HH
#define CDVM_ENGINE_EVENTS_HH

#include <array>
#include <vector>

#include "common/trace.hh"
#include "common/types.hh"

namespace cdvm::engine
{

/** One unit of staged-emulation activity. */
struct StageEvent
{
    /** What happened (reuses the tracer's phase vocabulary). */
    TracePhase stage = TracePhase::Interp;
    /** x86 instructions covered (work units; 0 for instants). */
    u64 insns = 0;
    /** Work units before this event (stamped by EventStream::emit). */
    u64 clock = 0;
    /** Architected address of the covered code. */
    Addr x86Addr = 0;
    u32 x86Bytes = 0;
    /** Code-cache image of the covered code (translated stages). */
    Addr codeAddr = 0;
    u32 codeBytes = 0;
    /** Zero-width marker (CacheFlush, Chain, Dispatch). */
    bool instant = false;
    /**
     * Work done on a background translator context, off the emulation
     * thread's critical path (the async SBT pipeline). Cycle-pricing
     * consumers account it to occupancy, not to elapsed time.
     */
    bool background = false;
    /** Phase-specific tracer payload (pc, arena id, ...). */
    u64 arg = 0;
    /**
     * Packed dbt::TransId (TransId::raw()) of the translation the
     * event covers; 0 for stages with no translation identity
     * (interpretation, x86-mode, instants). Lets sampling consumers
     * attribute work to individual translations without a reverse
     * code-address lookup.
     */
    u64 transId = 0;
};

/** A consumer of stage events. */
class StageSink
{
  public:
    virtual ~StageSink() = default;
    virtual void onEvent(const StageEvent &e) = 0;
};

/** Fan-out of one producer's events to any number of sinks. */
class EventStream
{
  public:
    void attach(StageSink *s) { sinks.push_back(s); }

    /** Stamp e with the clock, advance the clock, and fan e out. */
    void
    emit(StageEvent e)
    {
        e.clock = clock_;
        if (!e.instant)
            clock_ += e.insns;
        for (StageSink *s : sinks)
            s->onEvent(e);
    }

    /** The work-unit clock after all events so far. */
    u64 clock() const { return clock_; }

  private:
    std::vector<StageSink *> sinks;
    u64 clock_ = 0;
};

/**
 * Tracer consumer: renders the event stream as phase spans on the
 * stream's work-unit clock (empty spans are skipped).
 */
class TraceSink : public StageSink
{
  public:
    explicit TraceSink(Tracer &tracer, u8 track_id = 0)
        : tr(tracer), track(track_id)
    {
    }

    void
    onEvent(const StageEvent &e) override
    {
        if (e.instant) {
            CDVM_TRACE_INSTANT(tr, e.stage, e.clock, e.arg, track);
            return;
        }
        if (e.insns == 0)
            return;
        CDVM_TRACE_SPAN(tr, e.stage, e.clock, e.insns, e.arg, track);
    }

  private:
    Tracer &tr;
    u8 track;
};

/**
 * Counting consumer: the functional view of the event stream. Retired
 * (or simulated) instructions per stage plus static translation
 * totals -- everything a retire-count consumer needs, independent of
 * any cycle model.
 */
class StageCounter : public StageSink
{
  public:
    void
    onEvent(const StageEvent &e) override
    {
        switch (e.stage) {
          case TracePhase::BbtTranslate:
            ++bbtTranslations;
            staticInsnsBbt += e.insns;
            return;
          case TracePhase::SbtOptimize:
            ++sbtTranslations;
            staticInsnsSbt += e.insns;
            return;
          case TracePhase::WarmInstall:
            ++warmInstalls;
            staticInsnsWarm += e.insns;
            return;
          case TracePhase::Interp:
          case TracePhase::X86Mode:
          case TracePhase::ColdExec:
            insnsCold += e.insns;
            break;
          case TracePhase::BbtExec:
            insnsBbt += e.insns;
            break;
          case TracePhase::SbtExec:
            insnsSbt += e.insns;
            break;
          default:
            return;
        }
    }

    u64 totalInsns() const { return insnsCold + insnsBbt + insnsSbt; }

    u64 insnsCold = 0;
    u64 insnsBbt = 0;
    u64 insnsSbt = 0;
    u64 bbtTranslations = 0;
    u64 sbtTranslations = 0;
    u64 staticInsnsBbt = 0;
    u64 staticInsnsSbt = 0;
    u64 warmInstalls = 0;
    u64 staticInsnsWarm = 0;
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_EVENTS_HH

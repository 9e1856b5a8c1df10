#include "timing/startup_sim.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/statreg.hh"
#include "common/trace.hh"
#include "engine/events.hh"
#include "engine/staged_pipeline.hh"

namespace cdvm::timing
{

using workload::BlockInfo;
using workload::BlockTrace;

namespace
{

/** Cycle category -> trace phase, for the timing track (track 1). */
TracePhase
phaseOf(CycleCat c)
{
    switch (c) {
      case CycleCat::ColdExec:
        return TracePhase::ColdExec;
      case CycleCat::BbtExec:
        return TracePhase::BbtExec;
      case CycleCat::SbtExec:
        return TracePhase::SbtExec;
      case CycleCat::BbtXlate:
        return TracePhase::BbtTranslate;
      case CycleCat::SbtXlate:
        return TracePhase::SbtOptimize;
      case CycleCat::WarmLoad:
        return TracePhase::WarmInstall;
      case CycleCat::Dispatch:
      default:
        return TracePhase::Dispatch;
    }
}

/**
 * The cycle-pricing consumer of the staging event stream: prices each
 * stage event with the machine's cost model (execution rates scaled by
 * the app's CPIs), adds the (stateful, cold-started) cache hierarchy's
 * penalties, and maintains the Fig. 10 category breakdown, decode
 * activity, background occupancy and the startup-curve samples.
 */
class CycleModelSink : public engine::StageSink
{
  public:
    CycleModelSink(const MachineConfig &machine, StartupResult &result,
                   double cpi_cold, double cpi_bbt, double cpi_sbt,
                   double xlt_busy)
        : m(machine), res(result), hier(m.memory),
          l1iLat(m.memory.l1i.latency), l1dLat(m.memory.l1d.latency),
          line(m.memory.l1i.lineBytes), memLat(m.memory.memLatency),
          cpiCold(cpi_cold), cpiBbt(cpi_bbt), cpiSbt(cpi_sbt),
          xltBusyFrac(xlt_busy), tracing(Tracer::global().enabled()),
          spans(Tracer::global(), 1)
    {
    }

    void
    onEvent(const engine::StageEvent &e) override
    {
        const engine::CostModel::Price p = m.cost.price(e);
        switch (e.stage) {
          case TracePhase::BbtTranslate: {
            // Translator reads the x86 image and writes the code
            // cache through the data side.
            double tcyc = p.critical;
            tcyc += dataPenalty(e.x86Addr, e.x86Bytes, false);
            tcyc += dataPenalty(e.codeAddr, e.codeBytes, true);
            add(CycleCat::BbtXlate, tcyc, false);
            // The XLTx86 unit keeps decode logic on for part of the
            // (much shorter) assisted translation time.
            decodeActive += tcyc * xltBusyFrac;
            break;
          }
          case TracePhase::Dispatch:
            add(CycleCat::Dispatch, p.critical, false);
            break;
          case TracePhase::WarmInstall: {
            // The warm loader validates the saved page hashes against
            // the x86 image (data-side reads) and copies the finished
            // translation body into the code cache (data-side stores);
            // no decode or cracking happens, so the per-instruction
            // cost is far below Delta_BBT.
            double tcyc = p.critical;
            // The loader streams both images sequentially; prefetch
            // and write buffering hide most of the miss latency the
            // lazy (demand-miss) translator would stall on.
            tcyc += (dataPenalty(e.x86Addr, e.x86Bytes, false) +
                     dataPenalty(e.codeAddr, e.codeBytes, true)) *
                    (1.0 - m.warmStreamOverlap);
            add(CycleCat::WarmLoad, tcyc, false);
            break;
          }
          case TracePhase::SbtOptimize: {
            // Async pipeline: Delta_SBT is occupancy of a private
            // background context. It neither advances the emulation
            // thread's clock nor disturbs its cache hierarchy (the
            // contexts have their own ports).
            bgSbt += p.occupancy;
            if (e.background)
                break;
            double tcyc = p.critical;
            tcyc += dataPenalty(e.x86Addr, e.x86Bytes, false);
            tcyc += dataPenalty(e.codeAddr, e.codeBytes, true);
            add(CycleCat::SbtXlate, tcyc, false);
            break;
          }
          case TracePhase::SbtExec:
            exec(e, cpiSbt, CycleCat::SbtExec, e.codeAddr, e.codeBytes,
                 true, false);
            break;
          case TracePhase::BbtExec:
            exec(e, cpiBbt, CycleCat::BbtExec, e.codeAddr, e.codeBytes,
                 true, false);
            break;
          case TracePhase::ColdExec:
            // Ref and VM.fe decode x86 in the frontend for cold code.
            exec(e, cpiCold, CycleCat::ColdExec, e.x86Addr, e.x86Bytes,
                 false, m.frontendX86Decoders);
            break;
          default:
            break;
        }
    }

    /** Push one point on the startup curve. */
    void
    sample()
    {
        CurveSample s;
        s.cycles = static_cast<Cycles>(cycles);
        s.insns = insns;
        for (size_t i = 0; i < cat.size(); ++i)
            s.catCycles[i] = cat[i];
        s.decodeActive = decodeActive;
        res.samples.push_back(s);
    }

    double totalCycles() const { return cycles; }
    u64 totalInsns() const { return insns; }
    double decodeActiveCycles() const { return decodeActive; }
    double bgSbtCycles() const { return bgSbt; }
    const std::array<double, static_cast<size_t>(CycleCat::NUM_CATS)> &
    catCycles() const
    {
        return cat;
    }

  private:
    void
    add(CycleCat c, double cyc, bool decode_on)
    {
        if (tracing) {
            const u64 ts = static_cast<u64>(cycles);
            const u64 end = static_cast<u64>(cycles + cyc);
            spans.add(phaseOf(c), ts, end - ts, insns);
        }
        cycles += cyc;
        cat[static_cast<size_t>(c)] += cyc;
        if (decode_on)
            decodeActive += cyc;
    }

    void
    exec(const engine::StageEvent &e, double cpi, CycleCat c,
         Addr fetch_addr, u32 fetch_bytes, bool translated,
         bool decode_on)
    {
        double exec_cyc = cpi * static_cast<double>(e.insns);
        // The reference superscalar's decoders are always on, even in
        // hot code (it has no other mode).
        if (m.kind == MachineKind::RefSuperscalar)
            decode_on = true;
        double fpen = fetchPenalty(fetch_addr, fetch_bytes);
        if (translated)
            fpen *= m.vmFetchLocality; // translated-code layout wins
        exec_cyc += fpen;
        add(c, exec_cyc, decode_on);

        insns += e.insns;
        if (cycles >= nextSample) {
            sample();
            nextSample =
                std::max(nextSample * 1.14, nextSample + 500.0);
        }
    }

    double
    fetchPenalty(Addr addr, u32 bytes)
    {
        double pen = 0.0;
        Addr first = addr & ~(line - 1);
        Addr last = (addr + (bytes ? bytes - 1 : 0)) & ~(line - 1);
        for (Addr a = first; a <= last; a += line) {
            Cycles lat = hier.access(a, memsys::Side::Fetch);
            if (lat >= memLat) {
                pen += static_cast<double>(lat - l1iLat);
            } else if (lat > l1iLat) {
                // L2 hits are mostly covered by fetch-ahead.
                pen += static_cast<double>(lat - l1iLat) *
                       (1.0 - m.l2FetchOverlap);
            }
        }
        return pen;
    }

    double
    dataPenalty(Addr addr, u32 bytes, bool is_store)
    {
        double pen = 0.0;
        Addr first = addr & ~(line - 1);
        Addr last = (addr + (bytes ? bytes - 1 : 0)) & ~(line - 1);
        for (Addr a = first; a <= last; a += line) {
            Cycles lat = hier.access(a, memsys::Side::Data);
            if (lat > l1dLat) {
                double miss = static_cast<double>(lat - l1dLat);
                pen += is_store ? miss * m.storeStallFraction : miss;
            }
        }
        return pen;
    }

    const MachineConfig &m;
    StartupResult &res;
    memsys::Hierarchy hier; // empty caches: scenario 2
    const Cycles l1iLat;
    const Cycles l1dLat;
    const Cycles line;
    const Cycles memLat;
    const double cpiCold;
    const double cpiBbt;
    const double cpiSbt;
    const double xltBusyFrac;

    double cycles = 0.0;
    u64 insns = 0;
    std::array<double, static_cast<size_t>(CycleCat::NUM_CATS)> cat{};
    double decodeActive = 0.0;
    double bgSbt = 0.0;
    double nextSample = 1000.0;

    // Phase tracing (track 1, cycle timebase). The coalescer merges
    // back-to-back same-phase blocks so the event count scales with
    // phase changes, not with dynamic blocks.
    const bool tracing;
    SpanCoalescer spans;
};

} // namespace

StartupSim::StartupSim(const MachineConfig &machine,
                       const workload::AppProfile &app_profile)
    : m(machine), app(app_profile)
{
}

StartupResult
StartupSim::run()
{
    BlockTrace trace(app.trace);
    const std::vector<BlockInfo> &blocks = trace.blocks();

    StartupResult res;
    res.machine = m.name;
    res.app = app.name;
    res.cpiRef = app.cpiRef;
    res.steadyGain = app.steadyGain;
    res.steadyIpc = (m.hasSbt ? 1.0 + app.steadyGain : 1.0) /
                    app.cpiRef;

    // The cost model's execution rates scaled by the app's CPIs:
    // cold-code rates by the reference CPI, translated-code rates by
    // the optimized CPI. The quoted steady-state gain is an aggregate
    // at ~85% hotspot coverage, so optimized code itself runs
    // proportionally faster. (BBT machines translate every block on
    // first touch, so they never execute cold code.)
    const double cpi_opt =
        app.cpiRef / (1.0 + app.steadyGain / m.steadyCoverage);
    const double cpi_sbt = cpi_opt * m.cost.sbtExec;
    const double cpi_bbt = cpi_opt * m.cost.bbtExec;
    const double cpi_cold = app.cpiRef * m.cost.coldExec;

    // XLTx86 busy fraction of BBT translation time (VM.be): 4 of the
    // ~20 cycles per instruction keep the decode logic on.
    const double xlt_busy_frac =
        m.kind == MachineKind::VmBe && m.cost.bbtTranslate > 0
            ? 4.0 / m.cost.bbtTranslate
            : 0.0;

    // One staging state machine (the engine's), two consumers: the
    // StageCounter tallies the functional instruction mix, the cycle
    // model prices every event against this machine.
    engine::EventStream events;
    engine::StageCounter counts;
    CycleModelSink cyc(m, res, cpi_cold, cpi_bbt, cpi_sbt,
                       xlt_busy_frac);
    events.attach(&counts);
    events.attach(&cyc);
    for (engine::StageSink *s : extraSinks)
        events.attach(s);

    engine::StagedParams sp;
    sp.translateCold = m.cold == ColdMode::BbtCode;
    sp.hasSbt = m.hasSbt;
    sp.hotThreshold = m.hotThreshold;
    sp.codeExpansion = m.codeExpansion;
    sp.warmStart = m.warmStart;
    sp.asyncTranslators = m.asyncTranslators;
    if (m.asyncTranslators > 0) {
        // The pipeline's clock is executed instructions; one
        // instruction's worth of background optimization (Delta_SBT
        // cycles) spans Delta_SBT / CPI_pre-hot retired instructions.
        const double cpi_prehot = sp.translateCold ? cpi_bbt : cpi_cold;
        sp.asyncLatencyPerInsn =
            cpi_prehot > 0.0 ? m.cost.sbtOptimize / cpi_prehot
                             : 0.0;
    }
    engine::StagedPipeline pipeline(blocks, sp, events);

    const u64 total = trace.totalInsns();
    while (cyc.totalInsns() < total)
        pipeline.touch(trace.next());

    cyc.sample();
    res.totalCycles = static_cast<Cycles>(cyc.totalCycles());
    res.totalInsns = cyc.totalInsns();
    res.catCycles = cyc.catCycles();
    res.decodeActiveCycles = cyc.decodeActiveCycles();
    res.bgSbtXlateCycles = cyc.bgSbtCycles();
    res.insnsCold = counts.insnsCold;
    res.insnsBbt = counts.insnsBbt;
    res.insnsSbt = counts.insnsSbt;
    res.staticInsnsBbt = counts.staticInsnsBbt;
    res.staticInsnsSbt = counts.staticInsnsSbt;
    res.bbtTranslations = counts.bbtTranslations;
    res.sbtRegionTranslations = counts.sbtTranslations;
    res.warmInstalls = counts.warmInstalls;
    res.staticInsnsWarm = counts.staticInsnsWarm;

    return res;
}

void
StartupResult::exportStats(StatRegistry &reg,
                           const std::string &prefix) const
{
    reg.set(prefix + ".total_cycles", static_cast<double>(totalCycles),
            "simulated cycles");
    reg.set(prefix + ".total_insns", static_cast<double>(totalInsns),
            "x86 instructions emulated");
    reg.set(prefix + ".steady_ipc", steadyIpc,
            "asymptotic IPC of this machine on this app");
    reg.set(prefix + ".hotspot_coverage", hotspotCoverage(),
            "dynamic-instruction fraction from optimized code");
    reg.set(prefix + ".insns.cold", static_cast<double>(insnsCold),
            "instructions emulated cold");
    reg.set(prefix + ".insns.bbt", static_cast<double>(insnsBbt),
            "instructions from BBT translations");
    reg.set(prefix + ".insns.sbt", static_cast<double>(insnsSbt),
            "instructions from optimized hotspot code");
    reg.set(prefix + ".static_insns.bbt",
            static_cast<double>(staticInsnsBbt),
            "static instructions translated by the BBT (M_BBT)");
    reg.set(prefix + ".static_insns.sbt",
            static_cast<double>(staticInsnsSbt),
            "static instructions optimized by the SBT (M_SBT)");
    reg.set(prefix + ".bbt_translations",
            static_cast<double>(bbtTranslations),
            "basic blocks translated");
    reg.set(prefix + ".sbt_region_translations",
            static_cast<double>(sbtRegionTranslations),
            "hotspot regions optimized");
    reg.set(prefix + ".warm_installs",
            static_cast<double>(warmInstalls),
            "image records installed at warm start");
    reg.set(prefix + ".static_insns.warm",
            static_cast<double>(staticInsnsWarm),
            "static instructions installed from the image");
    reg.set(prefix + ".decode_active_cycles", decodeActiveCycles,
            "cycles with the x86 decode logic powered on");
    reg.set(prefix + ".cycles.sbt_xlate_bg", bgSbtXlateCycles,
            "SBT translation cycles on background contexts "
            "(occupancy, off the critical path)");

    static const char *const CAT_NAMES[] = {
        "cold_exec", "bbt_exec", "sbt_exec",
        "bbt_xlate", "sbt_xlate", "dispatch", "warm_load",
    };
    static_assert(sizeof(CAT_NAMES) / sizeof(CAT_NAMES[0]) ==
                      static_cast<size_t>(CycleCat::NUM_CATS),
                  "CAT_NAMES out of sync with CycleCat");
    for (size_t i = 0; i < static_cast<size_t>(CycleCat::NUM_CATS);
         ++i) {
        reg.set(prefix + ".cycles." + CAT_NAMES[i], catCycles[i],
                "cycles spent in this emulation stage");
    }
}

} // namespace cdvm::timing

/**
 * @file
 * The block-level startup timing simulator.
 *
 * This is the engine behind the paper's transient-performance
 * experiments (Figs. 2, 8, 9, 10, 11). It simulates the memory-startup
 * scenario (Section 3.1, scenario 2): the program binary is in memory,
 * all caches are cold, and translation/optimization proceed
 * concurrently with execution.
 *
 * The simulator is trace-driven at dynamic-basic-block granularity and
 * keeps honest cycle bookkeeping for exactly the effects the paper's
 * model identifies as first-order:
 *
 *  - translation work: Delta_BBT and Delta_SBT cycles per translated
 *    instruction (Eq. 1), with the per-machine hardware-assist values;
 *  - emulation quality: cold code runs at the mode's CPI (BBT code at
 *    82-85 % of SBT code, interpretation 10-100x slower, x86-mode at
 *    reference speed);
 *  - memory hierarchy warm-up: instruction fetch goes through the
 *    Table 2 cache hierarchy at the image addresses of the mode being
 *    executed (x86 image or code cache), and translators touch both
 *    images on the data side;
 *  - staged hotspot optimization at the Eq. 2 threshold, with
 *    superblock regions covering neighbouring blocks.
 */

#ifndef CDVM_TIMING_STARTUP_SIM_HH
#define CDVM_TIMING_STARTUP_SIM_HH

#include <array>
#include <vector>

#include "engine/events.hh"
#include "memsys/hierarchy.hh"
#include "timing/machine_config.hh"
#include "workload/trace_gen.hh"
#include "workload/winstone.hh"

namespace cdvm
{
class StatRegistry;
}

namespace cdvm::timing
{

/** Where cycles go (Fig. 10 categories). */
enum class CycleCat : u8
{
    ColdExec = 0, //!< native / x86-mode / interpreted execution
    BbtExec,      //!< executing BBT translations
    SbtExec,      //!< executing optimized hotspot code
    BbtXlate,     //!< BBT translation work (the paper's "BBT overhead")
    SbtXlate,     //!< SBT translation work
    Dispatch,     //!< VMM dispatch / linking not covered by chaining
    WarmLoad,     //!< warm-start image load/install work
    NUM_CATS,
};

/** One point on the startup curve. */
struct CurveSample
{
    Cycles cycles = 0;
    u64 insns = 0;
    std::array<double, static_cast<size_t>(CycleCat::NUM_CATS)>
        catCycles{};
    /** Cumulative cycles with the x86 decode logic powered on. */
    double decodeActive = 0.0;
};

/** Full outcome of one machine x workload run. */
struct StartupResult
{
    std::string machine;
    std::string app;
    Cycles totalCycles = 0;
    u64 totalInsns = 0;
    double cpiRef = 1.0;      //!< workload reference CPI
    double steadyGain = 0.0;  //!< VM steady-state gain for this app
    double steadyIpc = 1.0;   //!< this machine's asymptotic IPC

    std::vector<CurveSample> samples;

    // Translation statistics.
    u64 staticInsnsBbt = 0;   //!< M_BBT actually translated
    u64 staticInsnsSbt = 0;   //!< M_SBT actually optimized
    u64 bbtTranslations = 0;
    u64 sbtRegionTranslations = 0;
    /** Warm start: image records installed before execution. */
    u64 warmInstalls = 0;
    /** Warm start: static instructions installed from the image. */
    u64 staticInsnsWarm = 0;

    // Dynamic instruction mix.
    u64 insnsCold = 0;
    u64 insnsBbt = 0;
    u64 insnsSbt = 0;

    std::array<double, static_cast<size_t>(CycleCat::NUM_CATS)>
        catCycles{};
    double decodeActiveCycles = 0.0;

    /**
     * SBT translation work performed on background contexts (async
     * machines): occupancy of the private translation contexts, not
     * part of totalCycles or the sbt_xlate category, both of which
     * cover only emulation-thread (critical-path) cycles.
     */
    double bgSbtXlateCycles = 0.0;

    /** Fraction of dynamic instructions from optimized hotspot code. */
    double
    hotspotCoverage() const
    {
        return totalInsns
                   ? static_cast<double>(insnsSbt) / totalInsns
                   : 0.0;
    }

    double
    catFraction(CycleCat c) const
    {
        return totalCycles
                   ? catCycles[static_cast<size_t>(c)] / totalCycles
                   : 0.0;
    }

    /** Aggregate IPC normalized to the reference steady-state IPC. */
    double
    normalizedAggregateIpc(std::size_t sample_idx) const
    {
        const CurveSample &s = samples[sample_idx];
        if (s.cycles == 0)
            return 0.0;
        return static_cast<double>(s.insns) * cpiRef / s.cycles;
    }

    /**
     * Publish the run's cycle/instruction accounting under prefix.*
     * (e.g. timing.startup.cycles.bbt_xlate). Values are copied at
     * call time.
     */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;
};

/** The simulator. */
class StartupSim
{
  public:
    StartupSim(const MachineConfig &machine,
               const workload::AppProfile &app);

    /**
     * Attach an extra consumer of the simulated stage-event stream
     * (the same profiling sinks the functional VMM takes: a
     * SamplingProfiler heatmaps the simulated run, a FlightSink rides
     * the simulated timeline). Must outlive run().
     */
    void attachSink(engine::StageSink *s) { extraSinks.push_back(s); }

    /** Run the whole trace; returns the result. */
    StartupResult run();

  private:
    MachineConfig m;
    workload::AppProfile app;
    std::vector<engine::StageSink *> extraSinks;
};

} // namespace cdvm::timing

#endif // CDVM_TIMING_STARTUP_SIM_HH

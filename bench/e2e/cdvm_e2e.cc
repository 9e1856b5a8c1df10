/**
 * @file
 * End-to-end startup benchmark: host time from boot start to a
 * retired-instruction milestone, on four workloads, with every boot
 * checked against the reference interpreter.
 *
 *   cdvm_e2e --workload=<cold_start|warm_start|hot_loop|boot_storm>
 *            --seed=N --seconds=S [--traced=1] [--workdir=DIR]
 *            [--smoke=1]
 *
 * An untraced run reports the end-to-end metrics. A traced run reports
 * the per-layer metrics: replayed per-layer costs, per-boot engine
 * counts, and PhaseClock's split of traced boots' host time by stage.
 * Progress goes to stderr; the last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}. The exit code is 0
 * only when every boot was correct.
 *
 * Every layer is measured from outside: calls into public functions
 * are timed here, and the stage split comes from a StageSink attached
 * through Vmm::attachSink. Load is a closed loop in one process: one
 * boot (or one fleet) at a time, back to back.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "dbt/bbt.hh"
#include "dbt/image.hh"
#include "dbt/sbt.hh"
#include "dbt/superblock.hh"
#include "dbt/templates.hh"
#include "fleet/fleet.hh"
#include "serve/image_client.hh"
#include "serve/image_host.hh"
#include "vmm/vmm.hh"
#include "workload/program_gen.hh"
#include "x86/decoder.hh"

using namespace cdvm;

namespace
{

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
msSince(Clock::time_point t)
{
    return msBetween(t, Clock::now());
}

/** Linear-interpolated quantile of a non-empty sample. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : quantile(v, 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// --- workloads ----------------------------------------------------------

enum class Kind
{
    Cold,  //!< fresh-Vmm boots, everything translated on the way
    Warm,  //!< boots that connect to an image host and install views
    Hot,   //!< boots past the hot threshold, then a steady window
    Storm, //!< whole fleets booting at once
};

struct Workload
{
    const char *name;
    Kind kind;
    workload::ProgramParams shape;
    /** Programs (fleet classes for Storm); program i is generated
     *  from fleet::deriveSeed(seed, i). */
    unsigned programs;
    /** A boot's time-to-milestone stops at this many retired insns. */
    u64 milestone;
    /** Further retired insns timed as the steady window (0: none). */
    u64 steady;
};

/**
 * Large programs for the startup transient: 1000 functions of 6
 * blocks with no calls and 2-3 loop trips leave ~98k static insns to
 * translate per boot, each executed only a few times before the first
 * HLT (~930k retired). Translation and dispatch misses dominate, as in
 * the paper's Fig. 2 startup, and nothing gets hot enough for SBT.
 */
workload::ProgramParams
largeColdShape()
{
    workload::ProgramParams p;
    p.numFuncs = 1000;
    p.blocksPerFunc = 6;
    p.withCalls = false;
    p.loopTripMin = 2;
    p.loopTripMax = 3;
    p.mainIterations = 3;
    return p;
}

/**
 * Small looping programs that cross the BBT->SBT hot threshold within
 * the first few million insns: 8 functions of 5 blocks, 50-200 trips,
 * 50 main iterations. Past 10M retired they are bound by SBT execution
 * and chaining.
 */
workload::ProgramParams
hotLoopShape()
{
    workload::ProgramParams p;
    p.numFuncs = 8;
    p.blocksPerFunc = 5;
    p.withCalls = false;
    p.loopTripMin = 50;
    p.loopTripMax = 200;
    p.mainIterations = 50;
    return p;
}

/**
 * The boot-storm tenant shape: bench_fleet's short programs, which halt
 * and rerun until the target, so slicing never changes a context's
 * final state. Loop trips stop at 4: a context completes at the first
 * HLT past its target, and with up to 10 trips nested calls stretch a
 * run to 1.3M insns, so a fleet's work swung up to 2x with the seed.
 */
workload::ProgramParams
stormShape()
{
    workload::ProgramParams p;
    p.numFuncs = 5;
    p.blocksPerFunc = 3;
    p.insnsPerBlock = 8;
    p.loopTripMax = 4;
    p.mainIterations = 2;
    return p;
}

/** Retired insns a warm_start program runs before its image is saved:
 *  twice the milestone, so the image covers the whole boot. */
constexpr u64 WARM_PRIME_INSNS = 2'000'000;

/**
 * Contexts per fleet: 4 per class over 16 classes still puts the async
 * pool, the scheduler and the tenant-shrunk caches under storm load,
 * and a fleet takes ~1 s, so a run holds ~15 of them and the best one
 * escapes host interference (same-seed IQR/median 0.04; 256 contexts
 * give 4 s fleets, 3 per run, and 0.11). 16 classes rather than 8
 * average out more of a seed's draw of programs (ten-seed IQR/median
 * 0.055 against 0.077).
 */
constexpr unsigned STORM_CONTEXTS = 64;
/** Shared async SBT workers: with the main thread, the 3-thread cap. */
constexpr unsigned STORM_POOL_WORKERS = 2;
constexpr std::size_t STORM_POOL_QUEUE = 256;

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> all = {
        {"cold_start", Kind::Cold, largeColdShape(), 8, 1'000'000, 0},
        {"warm_start", Kind::Warm, largeColdShape(), 8, 1'000'000, 0},
        {"hot_loop", Kind::Hot, hotLoopShape(), 8, 10'000'000,
         10'000'000},
        {"boot_storm", Kind::Storm, stormShape(), 16, 1'000'000, 0},
    };
    return all;
}

/** Run sizes; --smoke shrinks them to a seconds-long name check. */
struct Sizes
{
    /** Set-up repeats at least this often and this long (a short
     *  set-up is noisy); setup_s is the median repetition. */
    unsigned setupReps = 3;
    double setupMinSeconds = 1.0;
    /** Replay rounds; replayed per-layer costs are their median. */
    unsigned replayRounds = 7;
    /** Boots (fleets) run even when the time window is spent. */
    unsigned minBoots = 16;
    unsigned minFleets = 3;
    /** Superblock seeds replayed per program. */
    unsigned sbtSeedsPerProgram = 64;
    unsigned programsCap = ~0u;
    unsigned stormContexts = STORM_CONTEXTS;
};

Sizes
smokeSizes()
{
    Sizes s;
    s.setupReps = 1;
    s.setupMinSeconds = 0.0;
    s.replayRounds = 3;
    s.minBoots = 2;
    s.minFleets = 1;
    s.sbtSeedsPerProgram = 8;
    s.programsCap = 2;
    s.stormContexts = 16;
    return s;
}

/**
 * Every workload runs the fastest cold tier a user would deploy. A
 * solo boot of a storm tenant uses the fleet's per-tenant config with
 * its own pool of the fleet pool's size.
 */
vmm::VmmConfig
bootConfig(const Workload &w)
{
    vmm::VmmConfig cfg = engine::EngineConfig::vmSoftTmpl();
    if (w.kind == Kind::Storm) {
        cfg = fleet::tenantEngineConfig(cfg);
        cfg.asyncTranslators = STORM_POOL_WORKERS;
        cfg.asyncQueueCap = STORM_POOL_QUEUE;
    }
    return cfg;
}

// --- guests and the reference -------------------------------------------

u64
dataHash(const workload::Program &prog, const x86::Memory &mem)
{
    u64 h = 0xcbf29ce484222325ull; // fnv1a
    for (u8 b : mem.readBlock(prog.dataBase, prog.dataBytes)) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** One generated program and its first-HLT reference state. */
struct Guest
{
    workload::Program prog;
    x86::CpuState ref;   //!< architected state at the first HLT
    u64 refDataHash = 0; //!< data segment at the first HLT
};

/** Bound on one run to a HLT (generated programs halt far sooner). */
constexpr u64 HALT_LIMIT = u64{1} << 32;

/** Run the reference interpreter to the first HLT. */
bool
computeReference(Guest &g)
{
    x86::Memory mem;
    g.prog.loadInto(mem);
    g.ref = g.prog.initialState();
    x86::Interpreter interp(g.ref, mem);
    if (interp.run(HALT_LIMIT) != x86::Exit::Halted)
        return false;
    g.refDataHash = dataHash(g.prog, mem);
    return true;
}

/**
 * Drives one guest on a Vmm: runs to retired-insn targets, restarting
 * the program at each HLT (guest memory persists, as a restarted
 * service finds it), and checks registers, EFLAGS, EIP and the data
 * segment at the first HLT against the reference.
 */
class GuestRun
{
  public:
    GuestRun(const Guest &guest, vmm::Vmm &vm, const x86::Memory &mem)
        : g(guest), vm(vm), mem(mem), cpu(guest.prog.initialState())
    {
    }

    /** Run until at least target insns retired. @return still ok. */
    bool
    runTo(u64 target)
    {
        while (ok && vm.stats().totalRetired() < target)
            step(target - vm.stats().totalRetired());
        return ok;
    }

    /** Run on to the first HLT if none was reached yet. */
    bool
    finish()
    {
        while (ok && !halted)
            step(HALT_LIMIT);
        return ok;
    }

  private:
    void
    step(u64 budget)
    {
        const x86::Exit e = vm.run(cpu, budget);
        if (e == x86::Exit::Halted) {
            if (!halted) {
                halted = true;
                ok = cpu.sameArchState(g.ref) &&
                     dataHash(g.prog, mem) == g.refDataHash;
            }
            cpu = g.prog.initialState();
        } else if (e != x86::Exit::None) {
            ok = false;
        }
    }

    const Guest &g;
    vmm::Vmm &vm;
    const x86::Memory &mem;
    x86::CpuState cpu;
    bool halted = false;
    bool ok = true;
};

// --- PhaseClock ---------------------------------------------------------

/** Host-time buckets of a traced boot. */
enum Bucket : unsigned
{
    B_CONNECT,       //!< ImageClient::connect (warm boots)
    B_CTOR,          //!< guest load + Vmm construction (+ warm install)
    B_BBT_TRANSLATE, //!< dispatch miss + block translation + install
    B_BBT_EXEC,      //!< dispatch + BBT-code execution
    B_SBT_OPTIMIZE,  //!< superblock formation + optimization + install
    B_SBT_EXEC,      //!< dispatch + superblock execution
    B_CHAIN,         //!< the successor lookup that installed a chain
    B_CACHE_FLUSH,   //!< code-cache flush
    B_OTHER,         //!< any other stage event
    B_TAIL,          //!< after the last event, up to the window's end
    NUM_BUCKETS,
};

constexpr const char *BUCKET_NAMES[NUM_BUCKETS] = {
    "connect",  "ctor",  "bbt_translate", "bbt_exec", "sbt_optimize",
    "sbt_exec", "chain", "cache_flush",   "other",    "tail",
};

/**
 * Bench-side StageSink that splits a boot's host time by stage: it
 * stamps steady_clock on every event and charges the time since the
 * previous stamp to that event's stage. The first stamp is the boot
 * start; connect and construction are charged explicitly before the
 * first run(), and the remainder after the last event goes to the
 * tail, so the buckets sum to the boot's timed window.
 */
class PhaseClock : public engine::StageSink
{
  public:
    void
    start(Clock::time_point t)
    {
        last = t;
        on = true;
    }

    void
    charge(Bucket b, Clock::time_point t)
    {
        ns[b] += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     t - last)
                     .count();
        last = t;
    }

    void
    stop(Clock::time_point t)
    {
        charge(B_TAIL, t);
        on = false;
    }

    void
    onEvent(const engine::StageEvent &e) override
    {
        if (on)
            charge(bucketOf(e.stage), Clock::now());
    }

    std::array<i64, NUM_BUCKETS> ns{};

  private:
    static Bucket
    bucketOf(TracePhase p)
    {
        switch (p) {
          case TracePhase::BbtTranslate:
            return B_BBT_TRANSLATE;
          case TracePhase::BbtExec:
            return B_BBT_EXEC;
          case TracePhase::SbtOptimize:
            return B_SBT_OPTIMIZE;
          case TracePhase::SbtExec:
            return B_SBT_EXEC;
          case TracePhase::Chain:
            return B_CHAIN;
          case TracePhase::CacheFlush:
            return B_CACHE_FLUSH;
          default:
            return B_OTHER;
        }
    }

    Clock::time_point last;
    bool on = false;
};

// --- one boot -----------------------------------------------------------

struct BootOut
{
    bool ok = false;
    double ttmMs = 0.0;     //!< boot start -> milestone retired
    double windowMs = 0.0;  //!< the whole timed window (+ steady)
    double connectMs = 0.0; //!< ImageClient::connect
    double ctorMs = 0.0;    //!< guest load + Vmm construction
    /** Guest MIPS: start->milestone, or over the steady window. */
    double mips = 0.0;
    engine::EngineStats st; //!< at the end of the timed window
    double lookasideHitRate = 0.0;
};

/**
 * One boot: [connect ->] load + construct -> run to the milestone
 * [-> steady window], then, untimed, on to the first HLT if the
 * milestone came first. A non-empty socket makes it a warm boot, which
 * must install from the image with zero body copies.
 */
BootOut
boot(const Workload &w, const Guest &g, const vmm::VmmConfig &cfg,
     const std::string &socket, PhaseClock *clock)
{
    BootOut out;
    const Clock::time_point t0 = Clock::now();
    if (clock)
        clock->start(t0);

    engine::SharedServices svc;
    if (!socket.empty()) {
        auto client = std::make_shared<serve::ImageClient>();
        if (!client->connect(socket)) {
            std::fprintf(stderr, "connect: %s\n",
                         client->lastError().c_str());
            return out;
        }
        svc.imageEndpoint = std::move(client);
    }
    const Clock::time_point tc = Clock::now();
    if (clock)
        clock->charge(B_CONNECT, tc);

    x86::Memory mem;
    g.prog.loadInto(mem);
    vmm::Vmm vm(mem, cfg, svc);
    const Clock::time_point tv = Clock::now();
    if (clock) {
        clock->charge(B_CTOR, tv);
        vm.attachSink(clock);
    }

    GuestRun run(g, vm, mem);
    bool ok = run.runTo(w.milestone);
    const Clock::time_point t1 = Clock::now();
    const u64 at_milestone = vm.stats().totalRetired();
    Clock::time_point tend = t1;
    if (ok && w.steady) {
        ok = run.runTo(w.milestone + w.steady);
        tend = Clock::now();
    }
    if (clock)
        clock->stop(tend);

    out.st = vm.stats();
    out.connectMs = msBetween(t0, tc);
    out.ctorMs = msBetween(tc, tv);
    out.ttmMs = msBetween(t0, t1);
    out.windowMs = msBetween(t0, tend);
    out.mips = w.steady ? ratio(static_cast<double>(
                                    out.st.totalRetired() - at_milestone),
                                msBetween(t1, tend) * 1e3)
                        : ratio(static_cast<double>(at_milestone),
                                out.ttmMs * 1e3);
    const dbt::TranslationMap &map = vm.translations();
    out.lookasideHitRate = ratio(
        static_cast<double>(map.lookasideHits()),
        static_cast<double>(map.lookasideHits() + map.lookasideMisses()));

    out.ok = ok && run.finish();
    if (!socket.empty())
        out.ok = out.ok && out.st.warmInstalled > 0 &&
                 out.st.warmBodyCopies == 0;
    return out;
}

// --- set-up -------------------------------------------------------------

/** What a workload's boots need, built before the timed window. */
struct Setup
{
    std::vector<Guest> guests;
    double tableBuildMs = 0.0;
    // warm_start: the merged image and the host serving it.
    u64 imageBytes = 0;
    double imageBuildMs = 0.0;
    double imageLoadMs = 0.0;
    std::string socket;
    std::unique_ptr<serve::ImageHost> host;
};

/**
 * Prime each program, save its image (Vmm::saveWarmStart), load the
 * saves back (TransImage::load), merge them (ImageBuilder) and publish
 * the merged image on an in-process ImageHost.
 */
bool
buildImage(const Workload &w, const vmm::VmmConfig &cfg,
           const std::string &workdir, Setup &s)
{
    std::vector<dbt::TransImage> parts(s.guests.size());
    for (std::size_t i = 0; i < s.guests.size(); ++i) {
        const std::string path =
            workdir + "/prog" + std::to_string(i) + ".img";
        x86::Memory mem;
        s.guests[i].prog.loadInto(mem);
        vmm::Vmm vm(mem, cfg);
        GuestRun run(s.guests[i], vm, mem);
        const bool saved =
            run.runTo(WARM_PRIME_INSNS) && vm.saveWarmStart(path);
        const dbt::LoadError err =
            saved ? dbt::TransImage::load(path, parts[i])
                  : dbt::LoadError::Io;
        std::remove(path.c_str());
        if (err != dbt::LoadError::None) {
            std::fprintf(stderr, "%s: program %zu image: %s\n", w.name, i,
                         dbt::loadErrorName(err));
            return false;
        }
    }

    const Clock::time_point tb = Clock::now();
    dbt::ImageBuilder builder;
    for (const dbt::TransImage &p : parts)
        builder.add(p);
    const std::vector<u8> blob = builder.build();
    s.imageBuildMs = msSince(tb);
    s.imageBytes = blob.size();

    const std::string merged = workdir + "/merged.img";
    dbt::TransImage loaded;
    bool ok = dbt::TransImage::save(merged, blob);
    const Clock::time_point tl = Clock::now();
    ok = ok && dbt::TransImage::load(merged, loaded) ==
                   dbt::LoadError::None;
    s.imageLoadMs = msSince(tl);
    std::remove(merged.c_str());
    if (!ok) {
        std::fprintf(stderr, "%s: merged image did not round-trip\n",
                     w.name);
        return false;
    }

    s.socket = workdir + "/image.sock";
    s.host = std::make_unique<serve::ImageHost>();
    if (!s.host->start(s.socket) || !s.host->publish(blob)) {
        std::fprintf(stderr, "%s: image host: %s\n", w.name,
                     s.host->lastError().c_str());
        return false;
    }
    return true;
}

/**
 * Set-up: the template rule table, program generation, interpreter
 * references, (warm_start) the served image, and one discarded warm-up
 * boot. Returns null on failure.
 */
std::unique_ptr<Setup>
setUp(const Workload &w, unsigned programs, u64 seed,
      const vmm::VmmConfig &cfg, const std::string &workdir)
{
    auto s = std::make_unique<Setup>();

    // TemplateRuleTable::instance() learns the table once per process;
    // building a fresh one is the same work, so every repetition of
    // the set-up pays it.
    const Clock::time_point tt = Clock::now();
    const dbt::TemplateRuleTable table;
    s->tableBuildMs = msSince(tt);
    if (table.numRules() == 0)
        return nullptr;

    s->guests.resize(programs);
    for (unsigned i = 0; i < programs; ++i) {
        Guest &g = s->guests[i];
        workload::ProgramParams p = w.shape;
        p.seed = fleet::deriveSeed(seed, i);
        g.prog = workload::generateProgram(p);
        if (!computeReference(g)) {
            std::fprintf(stderr, "%s: program %u does not halt\n",
                         w.name, i);
            return nullptr;
        }
    }
    if (w.kind == Kind::Warm && !buildImage(w, cfg, workdir, *s))
        return nullptr;
    if (!boot(w, s->guests[0], cfg, s->socket, nullptr).ok) {
        std::fprintf(stderr, "%s: warm-up boot failed\n", w.name);
        return nullptr;
    }
    return s;
}

// --- fleets -------------------------------------------------------------

struct FleetOut
{
    bool ok = false;
    double wallMs = 0.0; //!< construction + run(), host time
    double mips = 0.0;   //!< fleet aggregate guest MIPS
    fleet::FleetResult res;
};

/** One boot storm: every context arrives at once, round-robin slices,
 *  a shared async pool; each runs to its milestone (= target). */
FleetOut
runFleet(const Workload &w, unsigned classes, unsigned contexts, u64 seed)
{
    fleet::FleetConfig fc;
    fc.contexts = contexts;
    fc.workloads = classes;
    fc.fleetSeed = seed;
    fc.milestoneInsns = w.milestone;
    fc.targetInsns = w.milestone;
    fc.engineCfg = engine::EngineConfig::vmSoftTmpl();
    fc.sharedPoolWorkers = STORM_POOL_WORKERS;
    fc.sharedPoolQueueCap = STORM_POOL_QUEUE;
    fc.workloadParams = w.shape;

    FleetOut out;
    const Clock::time_point t0 = Clock::now();
    fleet::FleetServer server(fc);
    out.res = server.run();
    out.wallMs = msSince(t0);
    out.mips =
        ratio(static_cast<double>(out.res.totalRetired), out.wallMs * 1e3);
    out.ok = out.res.failed == 0 && out.res.completed == contexts &&
             out.res.reachedMilestone == contexts;
    return out;
}

// --- per-layer replays --------------------------------------------------

/** Median-of-rounds replay cost of one layer, ns per x86 insn. */
struct ReplayCost
{
    std::vector<double> roundNs;
    u64 insnsPerRound = 0;

    void
    add(unsigned round, double ns, u64 insns)
    {
        roundNs[round] += ns;
        if (round == 0)
            insnsPerRound += insns;
    }

    double
    nsPerInsn() const
    {
        return ratio(median(roundNs), static_cast<double>(insnsPerRound));
    }
};

struct Replays
{
    ReplayCost decode, tmpl, bbt, sbt;
    u64 tmplInsns = 0;
    u64 fallbackInsns = 0;
};

/** Time fn() (which returns the insns it covered) into cost. */
template <typename Fn>
void
timeRound(ReplayCost &cost, unsigned round, Fn &&fn)
{
    const Clock::time_point t = Clock::now();
    const u64 insns = fn();
    cost.add(round, msSince(t) * 1e6, insns);
}

/**
 * Replay each layer over the block entries of one cold boot per
 * program: x86::decode over every block insn, TemplateTranslator and
 * BasicBlockTranslator over every entry, and SuperblockFormer::form +
 * SuperblockTranslator::translate over evenly spaced entries, biased
 * by that boot's Vmm::branchBias. Rounds are interleaved.
 */
bool
replayLayers(const Workload &w, const Setup &s, const Sizes &z,
             Replays &r)
{
    for (ReplayCost *c : {&r.decode, &r.tmpl, &r.bbt, &r.sbt})
        c->roundNs.assign(z.replayRounds, 0.0);

    vmm::VmmConfig cfg = bootConfig(w);
    cfg.asyncTranslators = 0;
    for (const Guest &g : s.guests) {
        x86::Memory mem;
        g.prog.loadInto(mem);
        vmm::Vmm vm(mem, cfg);
        GuestRun run(g, vm, mem);
        if (!run.runTo(w.milestone))
            return false;

        struct Window
        {
            Addr pc;
            std::array<u8, x86::MAX_INSN_LEN> bytes;
        };
        std::vector<Addr> entries;
        std::vector<Window> windows;
        vm.translations().forEach([&](const dbt::Translation &t) {
            if (t.kind != dbt::TransKind::BasicBlock)
                return;
            entries.push_back(t.entryPc);
            Addr pc = t.entryPc;
            for (u32 k = 0; k < t.numX86Insns; ++k) {
                Window win{pc, {}};
                mem.fetchWindow(pc, win.bytes.data(), win.bytes.size());
                const x86::DecodeResult d = x86::decode(win.bytes, pc);
                if (!d.ok)
                    break;
                windows.push_back(win);
                pc = d.insn.nextPc();
            }
        });
        std::vector<Addr> seeds;
        const std::size_t stride =
            std::max<std::size_t>(1, entries.size() / z.sbtSeedsPerProgram);
        for (std::size_t i = 0; i < entries.size(); i += stride)
            seeds.push_back(entries[i]);

        dbt::TemplateTranslator tmpl(mem, cfg.maxBlockInsns);
        dbt::BasicBlockTranslator bbt(mem, cfg.maxBlockInsns);
        dbt::SuperblockFormer former(
            mem, [&vm](Addr pc) { return vm.branchBias(pc); },
            cfg.sbPolicy);
        dbt::SuperblockTranslator sbt(cfg.fusion);
        auto translateAll = [&entries](auto &tx) {
            u64 n = 0;
            for (Addr pc : entries)
                if (auto t = tx.translate(pc))
                    n += t->numX86Insns;
            return n;
        };

        for (unsigned round = 0; round < z.replayRounds; ++round) {
            timeRound(r.decode, round, [&] {
                u64 n = 0;
                for (const Window &win : windows)
                    n += x86::decode(win.bytes, win.pc).ok;
                return n;
            });
            timeRound(r.tmpl, round, [&] { return translateAll(tmpl); });
            timeRound(r.bbt, round, [&] { return translateAll(bbt); });
            timeRound(r.sbt, round, [&] {
                u64 n = 0;
                for (Addr pc : seeds)
                    if (auto tr = former.form(pc))
                        if (auto t = sbt.translate(*tr))
                            n += t->numX86Insns;
                return n;
            });
        }
        r.tmplInsns += tmpl.templatedInsns();
        r.fallbackInsns += tmpl.fallbackInsns();
    }
    return true;
}

// --- the run ------------------------------------------------------------

/**
 * Closed loop: run one(i) back to back for `seconds`. A new one starts
 * only while the previous one's duration still fits the window, and at
 * least min_runs run.
 */
template <typename Fn>
void
closedLoop(double seconds, unsigned min_runs, Fn &&one)
{
    const Clock::time_point t0 = Clock::now();
    double last_ms = 0.0;
    for (unsigned i = 0;
         i < min_runs || msSince(t0) + last_ms <= seconds * 1e3; ++i) {
        const Clock::time_point t = Clock::now();
        one(i);
        last_ms = msSince(t);
    }
}

/** One timed boot (or fleet) of an untraced run. */
struct Sample
{
    unsigned program; //!< which program booted (0 for a fleet)
    double ttmMs;
    double mips;
};

/**
 * Each program's best boot of the run: its lowest time-to-milestone
 * and highest MIPS. On a shared host, interference arrives in bursts
 * of a few seconds that slow everything down by up to ~1.5x, and it
 * only ever adds time; a program booted many times across the run has
 * boots outside every burst, and the best of them is its boot cost.
 */
std::vector<Sample>
bestPerProgram(const std::vector<Sample> &all, unsigned programs)
{
    std::vector<Sample> best(programs, Sample{0, 0.0, 0.0});
    for (const Sample &x : all) {
        Sample &b = best[x.program];
        b.ttmMs = b.ttmMs > 0.0 ? std::min(b.ttmMs, x.ttmMs) : x.ttmMs;
        b.mips = std::max(b.mips, x.mips);
    }
    std::erase_if(best, [](const Sample &b) { return b.ttmMs == 0.0; });
    return best;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

struct Result
{
    u64 attempted = 0;
    u64 failed = 0;
    bool checksOk = true; //!< run-level checks beyond per-boot ones
    std::vector<Metric> metrics;

    void
    add(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }

    bool correct() const { return checksOk && failed == 0 && attempted; }

    void
    print() const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {",
                    correct() ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (std::size_t i = 0; i < metrics.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics[i].name.c_str(),
                        metrics[i].value, metrics[i].unit);
        std::printf("}}\n");
    }
};

/**
 * Peak resident set of this process, from VmHWM: getrusage's
 * ru_maxrss also counts the launcher's footprint inherited across
 * fork + exec.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    unsigned long kib = 0;
    while (std::fgets(line, sizeof(line), f))
        if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1)
            break;
    std::fclose(f);
    return static_cast<double>(kib) / 1024.0;
}

/** End-to-end metrics: untraced boots (fleets for boot_storm). */
Result
runUntraced(const Workload &w, u64 seed, double seconds, const Sizes &z,
            const std::string &workdir)
{
    const vmm::VmmConfig cfg = bootConfig(w);
    const unsigned programs = std::min(w.programs, z.programsCap);
    Result res;

    std::vector<double> setup_s;
    std::unique_ptr<Setup> s;
    const Clock::time_point t0 = Clock::now();
    while (setup_s.size() < z.setupReps ||
           msSince(t0) < z.setupMinSeconds * 1e3) {
        s.reset();
        const Clock::time_point t = Clock::now();
        s = setUp(w, programs, seed, cfg, workdir);
        if (!s)
            return res;
        setup_s.push_back(msSince(t) / 1e3);
    }

    // Programs boot round-robin. A fleet is one program: under
    // round-robin slicing every context reaches its milestone close to
    // the fleet's makespan.
    std::vector<Sample> samples;
    unsigned sampled = programs;
    if (w.kind == Kind::Storm) {
        s.reset();
        sampled = 1;
        closedLoop(seconds, z.minFleets, [&](unsigned) {
            const FleetOut f =
                runFleet(w, programs, z.stormContexts, seed);
            res.attempted += z.stormContexts;
            res.failed += f.res.failed;
            if (!f.ok) {
                res.checksOk = false;
                return;
            }
            samples.push_back({0, f.wallMs, f.mips});
        });
    } else {
        closedLoop(seconds, z.minBoots, [&](unsigned i) {
            const unsigned p = i % programs;
            const BootOut b = boot(w, s->guests[p], cfg, s->socket, nullptr);
            ++res.attempted;
            if (!b.ok) {
                ++res.failed;
                return;
            }
            samples.push_back({p, b.ttmMs, b.mips});
        });
    }
    if (samples.empty())
        return res;

    std::vector<double> ttm, mips;
    for (const Sample &x : bestPerProgram(samples, sampled)) {
        ttm.push_back(x.ttmMs);
        mips.push_back(x.mips);
    }
    std::fprintf(stderr, "%s: %zu samples of %u programs, ttm p50 %.2f ms\n",
                 w.name, samples.size(), sampled, median(ttm));

    res.add("ttm_ms_p50", median(ttm), "ms");
    res.add("ttm_ms_p90", quantile(ttm, 0.90), "ms");
    res.add("guest_mips", median(mips), "MIPS");
    res.add("setup_s", median(setup_s), "s");
    res.add("peak_rss_mb", peakRssMb(), "MB");
    return res;
}

/** Per-layer metrics: replays, per-boot counts, the PhaseClock split. */
Result
runTraced(const Workload &w, u64 seed, double seconds, const Sizes &z,
          const std::string &workdir)
{
    const vmm::VmmConfig cfg = bootConfig(w);
    const unsigned programs = std::min(w.programs, z.programsCap);
    Result res;

    const std::unique_ptr<Setup> s =
        setUp(w, programs, seed, cfg, workdir);
    Replays rp;
    if (!s || !replayLayers(w, *s, z, rp))
        return res;

    FleetOut fl;
    if (w.kind == Kind::Storm) {
        fl = runFleet(w, programs, z.stormContexts, seed);
        res.attempted += z.stormContexts;
        res.failed += fl.res.failed;
        res.checksOk = fl.ok;
    }

    // Untraced and traced boots alternate, each pair on one program and
    // back to back, so a pair's ratio cancels host interference.
    std::vector<double> overhead, connect, ctor, accept, installed,
        xl_bbt, xl_sbt, ex_bbt, ex_sbt, chain, lookaside;
    double plain_ttm = 0.0; //!< the pair's untraced boot (0: failed)
    u64 body_copies = 0;
    PhaseClock phases;
    double traced_window_ms = 0.0;
    u64 traced_insns = 0, traced_bbt_insns = 0, traced_sbt_insns = 0;
    closedLoop(seconds, 2 * z.minBoots, [&](unsigned i) {
        const bool traced = i % 2;
        PhaseClock clock;
        const BootOut b = boot(w, s->guests[(i / 2) % programs], cfg,
                               s->socket, traced ? &clock : nullptr);
        ++res.attempted;
        if (!b.ok) {
            ++res.failed;
            plain_ttm = 0.0;
            return;
        }
        const engine::EngineStats &st = b.st;
        if (traced) {
            if (plain_ttm > 0.0)
                overhead.push_back(b.ttmMs / plain_ttm - 1.0);
            for (unsigned k = 0; k < NUM_BUCKETS; ++k)
                phases.ns[k] += clock.ns[k];
            traced_window_ms += b.windowMs;
            traced_insns += st.totalRetired();
            traced_bbt_insns += st.insnsBbtCode;
            traced_sbt_insns += st.insnsSbtCode;
            return;
        }
        plain_ttm = b.ttmMs;
        connect.push_back(b.connectMs);
        ctor.push_back(b.ctorMs);
        accept.push_back(
            ratio(static_cast<double>(st.warmInstalled),
                  static_cast<double>(st.warmInstalled +
                                      st.warmInvalidated)));
        installed.push_back(static_cast<double>(st.warmInsnsInstalled));
        body_copies += st.warmBodyCopies;
        xl_bbt.push_back(static_cast<double>(st.bbtInsnsTranslated));
        xl_sbt.push_back(static_cast<double>(st.sbtInsnsTranslated));
        ex_bbt.push_back(static_cast<double>(st.insnsBbtCode));
        ex_sbt.push_back(static_cast<double>(st.insnsSbtCode));
        chain.push_back(ratio(static_cast<double>(st.chainFollows),
                              static_cast<double>(st.chainFollows +
                                                  st.dispatches)));
        lookaside.push_back(b.lookasideHitRate);
    });
    if (overhead.empty())
        return res;

    // The buckets partition the traced windows; a gap means lost time.
    double phase_ns = 0.0;
    for (i64 v : phases.ns)
        phase_ns += static_cast<double>(v);
    if (std::fabs(phase_ns / 1e6 - traced_window_ms) >
        0.01 * traced_window_ms) {
        std::fprintf(stderr, "%s: phases sum to %.3f ms of %.3f ms\n",
                     w.name, phase_ns / 1e6, traced_window_ms);
        res.checksOk = false;
    }

    res.add("x86.decode_ns_per_insn", rp.decode.nsPerInsn(), "ns");
    res.add("dbt.tmpl.xlate_ns_per_insn", rp.tmpl.nsPerInsn(), "ns");
    res.add("dbt.bbt.xlate_ns_per_insn", rp.bbt.nsPerInsn(), "ns");
    res.add("dbt.sbt.xlate_ns_per_insn", rp.sbt.nsPerInsn(), "ns");
    res.add("dbt.tmpl.coverage_pct",
            100.0 * ratio(static_cast<double>(rp.tmplInsns),
                          static_cast<double>(rp.tmplInsns +
                                              rp.fallbackInsns)),
            "%");
    res.add("dbt.tmpl.table_build_ms", s->tableBuildMs, "ms");
    res.add("dbt.lookup.lookaside_hit_rate", median(lookaside), "ratio");
    res.add("dbt.image.bytes", static_cast<double>(s->imageBytes),
            "bytes");
    res.add("dbt.image.build_ms", s->imageBuildMs, "ms");
    res.add("dbt.image.load_ms", s->imageLoadMs, "ms");
    res.add("serve.connect_ms_p50", median(connect), "ms");
    res.add("engine.warm.accept_ratio", median(accept), "ratio");
    res.add("engine.warm.installed_insns", median(installed), "count");
    res.add("engine.warm.body_copies", static_cast<double>(body_copies),
            "count");
    u64 rejects = 0, flushes = 0;
    for (const fleet::ContextResult &c : fl.res.contexts) {
        rejects += c.asyncQueueRejects;
        flushes += c.cacheFlushes;
    }
    res.add("engine.async.queue_rejects", static_cast<double>(rejects),
            "count");
    res.add("vmm.ctor_ms_p50", median(ctor), "ms");
    res.add("vmm.insns_translated_bbt", median(xl_bbt), "count");
    res.add("vmm.insns_translated_sbt", median(xl_sbt), "count");
    res.add("vmm.insns_exec_bbt", median(ex_bbt), "count");
    res.add("vmm.insns_exec_sbt", median(ex_sbt), "count");
    res.add("vmm.chain_follow_ratio", median(chain), "ratio");
    for (unsigned k = 0; k < NUM_BUCKETS; ++k) {
        const double ns = static_cast<double>(phases.ns[k]);
        const std::string p = std::string("vmm.phase.") + BUCKET_NAMES[k];
        res.add(p + "_ns_per_insn",
                ratio(ns, static_cast<double>(traced_insns)), "ns");
        res.add(p + "_share", ratio(ns, phase_ns), "ratio");
    }
    res.add("vmm.trace_overhead_pct", 100.0 * median(overhead), "%");
    res.add("fleet.wall_s", fl.wallMs / 1e3, "s");
    res.add("fleet.cache_flushes", static_cast<double>(flushes), "count");
    res.add("fleet.slices", static_cast<double>(fl.res.slices), "count");
    res.add("fleet.ttm_cycles_p50",
            std::max(0.0, fl.res.p50TimeToMilestone), "cycles");
    res.add("fleet.ttm_cycles_p99",
            std::max(0.0, fl.res.p99TimeToMilestone), "cycles");

    // Eq. 2 in host time: executions of an SBT-optimized insn that
    // repay its optimization, from the replayed optimize cost and the
    // traced per-insn BBT and SBT execution costs.
    const double bbt_exec =
        ratio(static_cast<double>(phases.ns[B_BBT_EXEC]),
              static_cast<double>(traced_bbt_insns));
    const double sbt_exec =
        ratio(static_cast<double>(phases.ns[B_SBT_EXEC]),
              static_cast<double>(traced_sbt_insns));
    res.add("model.host_breakeven_execs",
            sbt_exec > 0.0 ? ratio(rp.sbt.nsPerInsn(), bbt_exec - sbt_exec)
                           : 0.0,
            "execs");
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("End-to-end startup benchmark: host time to a retired-insn "
            "milestone per workload, or (--traced=1) per-layer host "
            "time. The last stdout line is the JSON result.");
    cli.flag("workload", "cold_start",
             "cold_start | warm_start | hot_loop | boot_storm");
    cli.flag("seed", "1", "input seed (derives every program)");
    cli.flag("seconds", "10", "length of the timed window");
    cli.flag("traced", "0", "1: report the per-layer metrics");
    cli.flag("workdir", ".",
             "directory for image files and the image-host socket");
    cli.flag("smoke", "0", "1: tiny sizes, for a quick name check");
    cli.parse(argc, argv);

    const Workload *w = nullptr;
    for (const Workload &c : allWorkloads())
        if (cli.str("workload") == c.name)
            w = &c;
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     cli.str("workload").c_str());
        return 2;
    }
    const u64 seed = static_cast<u64>(cli.num("seed"));
    const double seconds = cli.real("seconds");
    const Sizes z = cli.on("smoke") ? smokeSizes() : Sizes{};
    const std::string workdir = cli.str("workdir");

    const Result res =
        cli.on("traced") ? runTraced(*w, seed, seconds, z, workdir)
                         : runUntraced(*w, seed, seconds, z, workdir);
    if (res.metrics.empty()) {
        std::fprintf(stderr, "%s: no result (set-up or every boot "
                             "failed)\n",
                     w->name);
        return 1;
    }
    res.print();
    return res.correct() ? 0 : 1;
}

#include "fleet/fleet.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.hh"

namespace cdvm::fleet
{

namespace
{

/** splitmix64 finalizer: full-avalanche 64-bit mix. */
u64
mix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Nearest-rank percentile over a sorted sample (q in [0,1]). */
double
percentile(const std::vector<u64> &sorted, double q)
{
    if (sorted.empty())
        return -1.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t idx =
        static_cast<std::size_t>(std::llround(pos));
    return static_cast<double>(
        sorted[std::min(idx, sorted.size() - 1)]);
}

} // namespace

u64
deriveSeed(u64 fleet_seed, u64 ctx_id)
{
    const u64 s = mix64(fleet_seed ^ mix64(ctx_id + 0x666c6565ULL));
    return s ? s : 1;
}

engine::EngineConfig
tenantEngineConfig(engine::EngineConfig base)
{
    // Capacity presets sized for hundreds of co-resident contexts.
    // Guest memory and the code caches are sparse (pages materialize
    // on touch), so the arenas below bound the worst case, not the
    // common one. Staging policy knobs are deliberately untouched.
    base.bbtCacheBytes = u64{512} << 10;
    base.sbtCacheBytes = u64{512} << 10;
    base.lookupReserve = 1024;
    base.lookasideEntries = 128;
    base.decodeCacheEntries = 1024;
    base.branchProfReserve = 512;
    base.branchProfCap = 8192;
    base.coldCounterCap = 8192;
    base.sbtFailedCap = 2048;
    base.flightRecorderEvents = 256;
    // Continuous profiling is a single-VM observability feature; the
    // fleet's own milestones cover the startup story.
    base.profileSamplePeriod = 0;
    base.snapshotEveryInsns = 0;
    return base;
}

void
WorkClockSink::attach(vmm::Vmm &vm)
{
    vm.attachSink(this);
    engine::StageEvent fill;
    fill.stage = TracePhase::WarmInstall;
    fill.insns = vm.stats().warmInsnsInstalled;
    onEvent(fill);
}

/** One workload class: the program every (i % workloads)-th context
 *  boots, plus its interpreter-reference first-halt state. */
struct FleetServer::WorkloadClass
{
    u64 seed = 0;
    workload::Program program;
    x86::CpuState refHalt; //!< architected state at the first HLT
    bool refOk = false;
};

struct FleetServer::Tenant
{
    enum class State : u8
    {
        Pending,
        Runnable,
        Done,
    };

    unsigned id = 0;
    unsigned workload = 0;
    State state = State::Pending;
    std::unique_ptr<x86::Memory> mem;
    std::unique_ptr<vmm::Vmm> vm;
    x86::CpuState cpu;
    WorkClockSink clock;
    /** Cycles already folded into the fleet clock. */
    u64 chargedCycles = 0;
    bool ranYet = false;
    bool badState = false;
    ContextResult res;
};

FleetServer::FleetServer(const FleetConfig &config)
    : cfg(config), tenantCfg(tenantEngineConfig(cfg.engineCfg))
{
    if (cfg.contexts == 0)
        cfg.contexts = 1;
    if (cfg.workloads == 0)
        cfg.workloads = 1;
    if (cfg.workloads > cfg.contexts)
        cfg.workloads = cfg.contexts;

    // Asynchrony in a fleet is decided here, not per tenant: either
    // one shared pool serves everyone, or everyone is synchronous.
    // (A private pool per tenant would mean threads = contexts x
    // workers -- exactly the resource blowup this layer exists to
    // avoid.)
    if (cfg.sharedPoolWorkers > 0) {
        pool = std::make_unique<ThreadPool>(cfg.sharedPoolWorkers,
                                            cfg.sharedPoolQueueCap);
        tenantCfg.asyncTranslators = cfg.sharedPoolWorkers;
        tenantCfg.asyncQueueCap = cfg.sharedPoolQueueCap;
    } else {
        tenantCfg.asyncTranslators = 0;
    }
    // Tenants never touch the filesystem on their own.
    tenantCfg.flightDumpPath.clear();
}

FleetServer::~FleetServer() = default;

void
FleetServer::buildWorkloads()
{
    classes.resize(cfg.workloads);
    for (unsigned w = 0; w < cfg.workloads; ++w) {
        WorkloadClass &c = classes[w];
        c.seed = deriveSeed(cfg.fleetSeed, w);
        workload::ProgramParams p = cfg.workloadParams;
        p.seed = c.seed;
        c.program = workload::generateProgram(p);

        // Interpreter reference: the architected state at the first
        // HLT, against which every tenant's first halt is checked.
        x86::Memory mem;
        c.program.loadInto(mem);
        c.refHalt = c.program.initialState();
        x86::Interpreter interp(c.refHalt, mem);
        for (u64 i = 0; i < u64{1} << 32; ++i) {
            const x86::StepResult r = interp.step();
            if (r.exit == x86::Exit::Halted) {
                c.refOk = true;
                break;
            }
            if (r.exit != x86::Exit::None)
                break;
        }
        if (!c.refOk)
            cdvm_warn("fleet workload %u (seed %llu): reference run "
                      "did not halt",
                      w, static_cast<unsigned long long>(c.seed));
    }
}

void
FleetServer::admit(std::size_t idx, u64 due)
{
    Tenant &t = *tenants[idx];
    const WorkloadClass &c = classes[t.workload];

    t.mem = std::make_unique<x86::Memory>();
    c.program.loadInto(*t.mem);
    t.cpu = c.program.initialState();

    engine::SharedServices svc;
    svc.sbtPool = pool.get();
    svc.imageEndpoint = cfg.imageEndpoint;

    t.vm = std::make_unique<vmm::Vmm>(*t.mem, tenantCfg, svc);
    t.clock.attach(*t.vm);

    t.state = Tenant::State::Runnable;
    t.res.admitClock = due;
    t.res.programSeed = c.seed;
}

u64
FleetServer::remainingOf(const Tenant &t) const
{
    const u64 retired = t.vm->stats().totalRetired();
    // A context past the target still owes its run to the next HLT;
    // keep it schedulable with a minimal claim on the core.
    return retired < cfg.targetInsns ? cfg.targetInsns - retired : 1;
}

void
FleetServer::retire(Tenant &t, u64 now)
{
    const engine::EngineStats &st = t.vm->stats();
    ContextResult &r = t.res;
    r.doneClock = now;
    r.retired = st.totalRetired();
    r.cycles = t.chargedCycles;
    r.bbtTranslations = st.bbtTranslations;
    r.sbtTranslations = st.sbtTranslations;
    r.warmInstalled = st.warmInstalled;
    r.warmInvalidated = st.warmInvalidated;
    r.warmRelocations = st.warmRelocations;
    r.asyncQueueRejects = st.asyncSbtQueueRejects;
    r.cacheFlushes = st.bbtCacheFlushes + st.sbtCacheFlushes;
    r.ok = !t.badState && r.reruns > 0;

    if (cfg.exportPerContext) {
        StatRegistry local;
        t.vm->exportStats(local);
        ctxStats.merge(local, "ctx." + std::to_string(t.id));
    }

    // Evict: the guest memory, code caches and lookup structures all
    // die here; only the ContextResult (and the merged stats) remain.
    t.vm.reset();
    t.mem.reset();
    t.state = Tenant::State::Done;
}

FleetResult
FleetServer::run()
{
    if (ran)
        cdvm_panic("FleetServer::run called twice");
    ran = true;

    const auto host0 = std::chrono::steady_clock::now();
    buildWorkloads();

    tenants.clear();
    tenants.reserve(cfg.contexts);
    for (unsigned i = 0; i < cfg.contexts; ++i) {
        auto t = std::make_unique<Tenant>();
        t->id = i;
        t->workload = i % cfg.workloads;
        t->clock = WorkClockSink(tenantCfg.cold);
        t->res.id = i;
        t->res.workload = t->workload;
        tenants.push_back(std::move(t));
    }

    const std::vector<u64> admits =
        cfg.arrival.admitClocks(cfg.contexts, cfg.fleetSeed);
    FleetScheduler sched(cfg.policy, cfg.quantumInsns);

    u64 clock = 0;
    std::size_t nextAdmit = 0;
    unsigned resident = 0;
    std::vector<std::size_t> runnable; // tenant indices, admit order
    std::vector<u64> remaining;        // parallel scratch for sched

    while (result.completed + result.failed < cfg.contexts) {
        while (nextAdmit < tenants.size() &&
               admits[nextAdmit] <= clock) {
            admit(nextAdmit, admits[nextAdmit]);
            runnable.push_back(nextAdmit);
            ++nextAdmit;
            ++resident;
            result.peakResident =
                std::max(result.peakResident, resident);
        }
        if (runnable.empty()) {
            // Fleet idle: jump the clock to the next arrival.
            clock = admits[nextAdmit];
            continue;
        }

        remaining.clear();
        for (std::size_t idx : runnable)
            remaining.push_back(remainingOf(*tenants[idx]));
        const FleetScheduler::Decision d = sched.next(remaining);
        Tenant &t = *tenants[runnable[d.slot]];
        if (!t.ranYet) {
            t.ranYet = true;
            t.res.firstRunClock = clock;
        }

        const x86::Exit e = t.vm->run(t.cpu, d.sliceInsns);

        // Fold this slice's weighted work into the fleet clock.
        const u64 cyc = t.clock.cycles();
        clock += cyc - t.chargedCycles;
        t.chargedCycles = cyc;

        const u64 retired = t.vm->stats().totalRetired();
        if (!t.res.milestoneClock && retired >= cfg.milestoneInsns)
            t.res.milestoneClock = clock;

        if (e == x86::Exit::None)
            continue; // slice exhausted, context stays runnable

        bool done = false;
        if (e == x86::Exit::Halted) {
            if (t.res.reruns == 0) {
                // First completion: differential check against the
                // interpreter reference (regs + eip at the HLT).
                const WorkloadClass &c = classes[t.workload];
                if (!c.refOk || t.cpu.regs != c.refHalt.regs ||
                    t.cpu.eip != c.refHalt.eip)
                    t.badState = true;
            }
            ++t.res.reruns;
            if (retired >= cfg.targetInsns)
                done = true;
            else
                t.cpu = classes[t.workload].program.initialState();
        } else {
            // Trap or decode fault: generated programs never do this.
            t.badState = true;
            done = true;
        }

        if (done) {
            retire(t, clock);
            if (t.res.ok)
                ++result.completed;
            else
                ++result.failed;
            --resident;
            runnable.erase(runnable.begin() +
                           static_cast<std::ptrdiff_t>(d.slot));
        }
    }

    result.fleetClock = clock;
    result.slices = sched.slices();
    result.hostSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - host0)
            .count();

    std::vector<u64> lat;
    for (const auto &tp : tenants) {
        const ContextResult &r = tp->res;
        result.contexts.push_back(r);
        result.totalRetired += r.retired;
        result.totalReruns += r.reruns;
        if (r.milestoneClock) {
            ++result.reachedMilestone;
            lat.push_back(r.timeToMilestone());
        }
    }
    std::sort(lat.begin(), lat.end());
    result.p50TimeToMilestone = percentile(lat, 0.50);
    result.p99TimeToMilestone = percentile(lat, 0.99);
    result.guestMips =
        result.hostSeconds > 0.0
            ? static_cast<double>(result.totalRetired) /
                  result.hostSeconds / 1e6
            : 0.0;
    return result;
}

void
FleetServer::exportStats(StatRegistry &reg) const
{
    const FleetResult &r = result;
    reg.set("fleet.contexts", static_cast<double>(cfg.contexts),
            "guest contexts hosted");
    reg.set("fleet.workloads", static_cast<double>(cfg.workloads),
            "distinct workload classes");
    reg.set("fleet.completed", static_cast<double>(r.completed),
            "contexts retired normally");
    reg.set("fleet.failed", static_cast<double>(r.failed),
            "contexts with abnormal exit or state mismatch");
    reg.set("fleet.clock_cycles", static_cast<double>(r.fleetClock),
            "final fleet virtual clock (weighted work cycles)");
    reg.set("fleet.retired_total",
            static_cast<double>(r.totalRetired),
            "x86 instructions retired across the fleet");
    reg.set("fleet.reruns_total", static_cast<double>(r.totalReruns),
            "guest program completions across the fleet");
    reg.set("fleet.sched.slices", static_cast<double>(r.slices),
            "scheduler time slices handed out");
    reg.set("fleet.sched.quantum_insns",
            static_cast<double>(cfg.quantumInsns),
            "retired-insn quantum per slice");
    reg.set("fleet.peak_resident",
            static_cast<double>(r.peakResident),
            "max simultaneously live contexts");
    reg.set("fleet.host_seconds", r.hostSeconds,
            "wall time of the fleet run (host metric)");
    reg.set("fleet.guest_mips", r.guestMips,
            "aggregate retired guest MIPS (host metric)");
    reg.set("fleet.milestone.insns",
            static_cast<double>(cfg.milestoneInsns),
            "startup milestone (retired insns)");
    reg.set("fleet.milestone.reached",
            static_cast<double>(r.reachedMilestone),
            "contexts that reached the milestone");
    reg.set("fleet.milestone.p50_cycles", r.p50TimeToMilestone,
            "median admission-to-milestone latency (fleet cycles)");
    reg.set("fleet.milestone.p99_cycles", r.p99TimeToMilestone,
            "p99 admission-to-milestone latency (fleet cycles)");

    u64 warm_installed = 0, warm_invalidated = 0, rejects = 0,
        flushes = 0, warm_relocs = 0;
    for (const ContextResult &c : r.contexts) {
        warm_installed += c.warmInstalled;
        warm_invalidated += c.warmInvalidated;
        warm_relocs += c.warmRelocations;
        rejects += c.asyncQueueRejects;
        flushes += c.cacheFlushes;
    }
    reg.set("fleet.warm.installed_total",
            static_cast<double>(warm_installed),
            "warm-start translations installed across the fleet");
    reg.set("fleet.warm.invalidated_total",
            static_cast<double>(warm_invalidated),
            "warm-start records rejected across the fleet");
    reg.set("fleet.warm.relocations_total",
            static_cast<double>(warm_relocs),
            "warm-start chain fixups across the fleet");
    // Image stats come from the endpoint's current generation, so a
    // fleet bound to a store or a daemon reports what it serves.
    if (const std::shared_ptr<const dbt::TransImage> img =
            cfg.imageEndpoint ? cfg.imageEndpoint->acquire() : nullptr) {
        reg.set("fleet.warm.image.bytes",
                static_cast<double>(img->sizeBytes()),
                "bytes of the one image every context shares");
        reg.set("fleet.warm.image.records",
                static_cast<double>(img->recordCount()),
                "records in the shared image");
        reg.set("fleet.warm.image.dedupe_hits",
                static_cast<double>(img->header().dedupeHits),
                "records merged by content at image build");
        reg.set("fleet.warm.image.evicted",
                static_cast<double>(img->header().evicted),
                "cold-tail records evicted by the image budget");
    }
    reg.set("fleet.async.queue_rejects_total",
            static_cast<double>(rejects),
            "shared-pool back-pressure rejections across the fleet");
    reg.set("fleet.flushes_total", static_cast<double>(flushes),
            "code-cache flushes across the fleet");

    if (cfg.exportPerContext)
        reg.merge(ctxStats, "");
}

} // namespace cdvm::fleet

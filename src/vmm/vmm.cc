#include "vmm/vmm.hh"

#include <chrono>
#include <cstdio>

#include "common/logging.hh"
#include "common/statreg.hh"
#include "engine/cold_exec.hh"
#include "engine/hotspot.hh"
#include "engine/warm_start.hh"

namespace cdvm::vmm
{

using dbt::TransKind;
using dbt::Translation;
using engine::StageEvent;

namespace
{

std::unique_ptr<engine::ColdExecutor>
makeColdExecutor(x86::Memory &mem, const VmmConfig &cfg, VmmStats &st,
                 engine::BranchProfile &prof)
{
    switch (cfg.cold) {
      case engine::ColdKind::Interpret:
        return std::make_unique<engine::InterpretColdExecutor>(
            mem, st, prof, cfg.decodeCacheEntries);
      case engine::ColdKind::HardwareX86Mode:
        return std::make_unique<engine::X86ModeColdExecutor>(
            mem, st, prof, cfg.decodeCacheEntries);
      case engine::ColdKind::SoftwareBbt:
        return std::make_unique<engine::BbtColdExecutor>(
            std::make_unique<engine::SoftwareBbtBackend>(
                mem, cfg.maxBlockInsns));
      case engine::ColdKind::XltAssistedBbt:
        return std::make_unique<engine::BbtColdExecutor>(
            std::make_unique<engine::XltBbtBackend>(
                mem, cfg.maxBlockInsns, st));
      case engine::ColdKind::TemplateBbt:
        return std::make_unique<engine::BbtColdExecutor>(
            std::make_unique<engine::TemplateBbtBackend>(
                mem, cfg.maxBlockInsns));
    }
    cdvm_panic("unknown cold-executor kind");
}

/** Wall nanoseconds elapsed since a steady_clock anchor. */
u64
nsSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

std::unique_ptr<engine::HotspotDetector>
makeDetector(const VmmConfig &cfg)
{
    switch (cfg.detector) {
      case engine::DetectorKind::SoftwareCounters:
        return std::make_unique<engine::SoftwareCounterDetector>(cfg);
      case engine::DetectorKind::Bbb:
        return std::make_unique<engine::BbbDetector>(cfg);
    }
    cdvm_panic("unknown hotspot-detector kind");
}

} // namespace

Vmm::Vmm(x86::Memory &memory, const VmmConfig &config,
         const engine::SharedServices &services)
    : mem(memory),
      cfg(config),
      // The one warm-start source resolves to a pinned generation
      // here: the handle -- and every view installed from it -- stays
      // valid even after the endpoint publishes newer generations.
      warmImage(services.imageEndpoint
                    ? services.imageEndpoint->acquire()
                    : nullptr),
      traceSink(Tracer::global(), 0),
      branchProf(cfg.branchProfCap, cfg.branchProfReserve),
      sbtFailed(cfg.sbtFailedCap),
      ccm(cfg, st, events),
      cold(makeColdExecutor(memory, cfg, st, branchProf)),
      detector(makeDetector(cfg)),
      sbtBackend(memory, cfg,
                 [this](Addr pc) { return branchProf.bias(pc); }),
      // Async mode is the config's call; the shared pool only decides
      // *whose* workers serve it (fleet-wide versus private).
      asyncSbt(cfg.asyncTranslators > 0
                   ? std::make_unique<engine::AsyncSbtEngine>(
                         cfg, services.sbtPool)
                   : nullptr),
      translatedExec(memory, st, branchProf),
      prof(cfg.profileSamplePeriod),
      flight(cfg.flightRecorderEvents),
      flightFeed(flight, cfg.flightDumpPath)
{
    events.attach(&traceSink);
    // Profiling sinks attach before the warm start so the warm fill
    // is recorded and sampled like any other stage work.
    if (prof.enabled())
        events.attach(&prof);
    if (flight.enabled()) {
        events.attach(&flightFeed);
        // Abnormal-exit post-mortem: panics dump the ring before the
        // abort. Registered per-Vmm; any number of live contexts can
        // coexist, and each unregisters exactly its own hook.
        crashHook = addCrashHook([this] {
            if (!cfg.flightDumpPath.empty()) {
                if (flight.writeText(cfg.flightDumpPath)) {
                    std::fprintf(stderr,
                                 "panic: flight recorder dumped to "
                                 "%s\n",
                                 cfg.flightDumpPath.c_str());
                }
                return;
            }
            std::fprintf(stderr, "%s", flight.dumpText().c_str());
        });
    }
    if (cfg.snapshotEveryInsns)
        nextSnapshotAt = cfg.snapshotEveryInsns;

    // Warm start: install a previous run's validated translations
    // and profiles before the first dispatched instruction. The image
    // was verified once when it was loaded or served; the install
    // still validates every record against *this* context's guest
    // memory, and a null generation (nothing published, daemon gone)
    // just leaves the engine cold.
    if (warmImage) {
        const engine::WarmStartReport rep = engine::warmStartInstall(
            *warmImage, mem, ccm, branchProf, &events);
        st.warmLoaded = rep.loaded;
        st.warmInstalled = rep.installed;
        st.warmInsnsInstalled = rep.installedInsns;
        st.warmInvalidated = rep.invalidated;
        st.warmProfileSeeded = rep.profileSeeded;
        st.warmRelocations = rep.relocations;
        st.warmMappedBytes = rep.mappedBytes;
    }
}

Vmm::~Vmm()
{
    removeCrashHook(crashHook);
}

std::vector<u8>
Vmm::buildWarmImage() const
{
    // Hotness-ordered capture: the profiler's samples rank first (the
    // measured heat of this run), per-translation entry counts break
    // ties and carry the ranking when sampling is off. The next warm
    // start then installs the most valuable translations first, and
    // the budget evicts the cold tail of that ranking.
    auto hotness = [this](const dbt::Translation &t) {
        const u64 cap = (u64{1} << 20) - 1;
        const u64 execs = t.execCount < cap ? t.execCount : cap;
        return (prof.transSamples(t.id.raw()) << 20) | execs;
    };
    std::vector<dbt::ImageBranchStat> branches;
    branchProf.forEach([&branches](Addr pc, u64 taken, u64 not_taken) {
        branches.push_back(dbt::ImageBranchStat{pc, taken, not_taken});
    });
    dbt::ImageBuilder b(dbt::ImageBuilder::Options{
        cfg.warmImageBudgetBytes, 1});
    b.add(ccm.translations(), mem, branches, hotness);
    return b.build();
}

dbt::TransImage
Vmm::captureWarmStart() const
{
    dbt::TransImage img;
    const dbt::LoadError e =
        dbt::TransImage::adopt(buildWarmImage(), img);
    if (e != dbt::LoadError::None)
        cdvm_panic("built warm image failed verification: %s",
                   dbt::loadErrorName(e));
    return img;
}

bool
Vmm::saveWarmStart(const std::string &path) const
{
    return dbt::TransImage::save(path, buildWarmImage());
}

const hwassist::BranchBehaviorBuffer &
Vmm::bbb() const
{
    if (const hwassist::BranchBehaviorBuffer *b = detector->bbbUnit())
        return *b;
    static const hwassist::BranchBehaviorBuffer idle{};
    return idle;
}

void
Vmm::installSbt(Addr seed_pc, std::unique_ptr<Translation> t,
                bool background)
{
    ++st.sbtTranslations;
    st.sbtInsnsTranslated += t->numX86Insns;

    // Optimization work advances the trace clock by the instructions
    // translated (a proxy for the Delta_SBT cost in virtual time).
    StageEvent e;
    e.stage = TracePhase::SbtOptimize;
    e.insns = t->numX86Insns;
    e.x86Addr = seed_pc;
    e.x86Bytes = t->x86Bytes;
    e.background = background;
    e.arg = seed_pc;
    events.emit(e);

    if (ccm.install(std::move(t)).flushed)
        lastTrans = dbt::NO_TRANS;
}

void
Vmm::invokeSbt(Addr seed_pc)
{
    if (!cfg.enableSbt || sbtFailed.contains(seed_pc))
        return;
    if (ccm.lookup(seed_pc, TransKind::Superblock))
        return;
    if (asyncSbt && asyncSbt->pending(seed_pc))
        return;
    ++st.hotspotDetections;

    if (asyncSbt) {
        // Async pipeline: form here (guest memory and the branch
        // profile belong to this thread), optimize on a worker,
        // install at the booked deadline.
        std::optional<dbt::SuperblockTrace> trace =
            sbtBackend.form(seed_pc);
        if (!trace) {
            sbtFailed.insert(seed_pc);
            ++st.sbtFormationFailures;
            return;
        }
        if (!asyncSbt->request(seed_pc, std::move(*trace),
                               st.totalRetired())) {
            // Too many pending: leave the seed cold; a later
            // detection re-requests it once installs catch up.
            ++st.asyncSbtQueueRejects;
            return;
        }
        ++st.asyncSbtRequests;
        return;
    }

    const auto xlate_t0 = std::chrono::steady_clock::now();
    std::unique_ptr<Translation> t = sbtBackend.translate(seed_pc);
    xlateSbtNs.add(nsSince(xlate_t0));
    if (!t) {
        sbtFailed.insert(seed_pc);
        ++st.sbtFormationFailures;
        return;
    }
    installSbt(seed_pc, std::move(t), false);
}

void
Vmm::drainAsyncSbt()
{
    const u64 now = st.totalRetired();
    while (asyncSbt->due(now)) {
        engine::AsyncSbtResult r = asyncSbt->pop();
        if (!r.trans) {
            // The optimizer declined the formed trace.
            sbtFailed.insert(r.seed);
            ++st.sbtFormationFailures;
            continue;
        }
        // Stale results: a superblock already covers this seed (the
        // seed was re-requested and installed across an arena flush).
        if (ccm.lookup(r.seed, TransKind::Superblock)) {
            ++st.asyncSbtStaleDropped;
            continue;
        }
        ++st.asyncSbtInstalls;
        installSbt(r.seed, std::move(r.trans), true);
    }
}

x86::Exit
Vmm::run(x86::CpuState &cpu, InstCount max_insns)
{
    const x86::Exit e = runLoop(cpu, max_insns);
    if (e == x86::Exit::Trap || e == x86::Exit::DecodeFault)
        dumpFlightOnAbnormal(e);
    return e;
}

void
Vmm::dumpFlightOnAbnormal(x86::Exit e) const
{
    if (!flight.enabled() || cfg.flightDumpPath.empty())
        return;
    if (flight.writeText(cfg.flightDumpPath)) {
        cdvm_debug("flight recorder: abnormal exit (%s), dumped %zu "
                   "events to %s",
                   x86::exitName(e), flight.size(),
                   cfg.flightDumpPath.c_str());
    }
}

void
Vmm::snapshotNow()
{
    StatRegistry reg;
    exportCoreStats(reg);
    snaps.take(reg, st.totalRetired());
}

x86::Exit
Vmm::runLoop(x86::CpuState &cpu, InstCount max_insns)
{
    InstCount retired = 0;
    const u64 snap_every = cfg.snapshotEveryInsns;

    while (retired < max_insns) {
        const Addr pc = cpu.eip;

        // Install the background optimizations that are due (one
        // compare when there is nothing to do).
        if (asyncSbt)
            drainAsyncSbt();

        // Interval snapshots on the retired-instruction clock (one
        // predictable branch when disabled).
        if (snap_every && st.totalRetired() >= nextSnapshotAt) {
            snapshotNow();
            do {
                nextSnapshotAt += snap_every;
            } while (nextSnapshotAt <= st.totalRetired());
        }

        // Dispatch: chain from the previous translation, else look up.
        // Both hops are handle resolutions, so a last-executed cursor
        // or chain link that a flush freed simply misses.
        Translation *t = nullptr;
        if (lastTrans) {
            if (Translation *from = ccm.resolve(lastTrans)) {
                t = ccm.resolve(from->chainedTo(pc));
                if (t)
                    ++st.chainFollows;
            }
        }
        if (!t) {
            ++st.dispatches;
            t = ccm.lookup(pc);
        }

        // Translate-style cold strategies produce a translation on a
        // miss; the core installs it and executes from the cache.
        if (!t && cold->translatesColdCode()) {
            const auto xlate_t0 = std::chrono::steady_clock::now();
            std::unique_ptr<Translation> nt = cold->translate(pc);
            (cfg.cold == engine::ColdKind::TemplateBbt ? xlateTmplNs
                                                       : xlateBbtNs)
                .add(nsSince(xlate_t0));
            if (!nt) {
                // First instruction of the block does not decode.
                return x86::Exit::DecodeFault;
            }
            ++st.bbtTranslations;
            st.bbtInsnsTranslated += nt->numX86Insns;
            StageEvent e;
            e.stage = TracePhase::BbtTranslate;
            e.insns = nt->numX86Insns;
            e.x86Addr = pc;
            e.x86Bytes = nt->x86Bytes;
            e.arg = pc;
            events.emit(e);
            engine::CodeCacheManager::InstallResult ir =
                ccm.install(std::move(nt));
            if (ir.flushed)
                lastTrans = dbt::NO_TRANS;
            t = ir.trans;
        }

        if (!t) {
            // Execute-style cold strategy (interpreter or x86-mode).
            lastTrans = dbt::NO_TRANS;
            if (detector->onColdEntry(pc))
                invokeSbt(pc);
            const InstCount cold_start = retired;
            x86::Exit e = cold->execute(cpu, max_insns - retired,
                                        retired);
            if (const u64 delta = retired - cold_start) {
                StageEvent ev;
                ev.stage = cold->phase();
                ev.insns = delta;
                ev.x86Addr = pc;
                ev.arg = pc;
                events.emit(ev);
            }
            if (e != x86::Exit::None)
                return e;
            continue;
        }

        // Execute in the code cache (translated native mode).
        ++t->execCount;
        Translation *executed = t;
        const bool exec_sbt = t->kind == TransKind::Superblock;
        const InstCount exec_start = retired;
        x86::Exit e = translatedExec.run(cpu, t, retired);
        if (const u64 delta = retired - exec_start) {
            StageEvent ev;
            ev.stage = exec_sbt ? TracePhase::SbtExec
                                : TracePhase::BbtExec;
            ev.insns = delta;
            ev.x86Addr = executed->entryPc;
            ev.x86Bytes = executed->x86Bytes;
            ev.codeAddr = executed->codeAddr;
            ev.codeBytes = executed->codeBytes;
            ev.arg = executed->entryPc;
            ev.transId = executed->id.raw();
            events.emit(ev);
        }
        if (e != x86::Exit::None)
            return e;

        // Chaining: link the executed translation to the successor it
        // actually went to, so the next visit skips the lookup table.
        // The lookup runs on every exit, so a link moves to a newly
        // installed superblock; only a created or retargeted link is
        // counted and traced.
        Translation *succ = ccm.lookup(cpu.eip);
        if (succ && executed->addChain(cpu.eip, succ->id)) {
            ++st.chainsInstalled;
            StageEvent ev;
            ev.stage = TracePhase::Chain;
            ev.instant = true;
            ev.arg = cpu.eip;
            events.emit(ev);
        }
        lastTrans = executed->id;

        // Hotspot detection on the translated-code entry.
        if (detector->onTranslatedEntry(*executed))
            invokeSbt(executed->entryPc);
    }
    return x86::Exit::None;
}

void
Vmm::exportCoreStats(StatRegistry &reg) const
{
    auto set = [&reg](const std::string &name, u64 v,
                      const char *desc) {
        reg.set(name, static_cast<double>(v), desc);
    };

    // vmm.*: retired-instruction mix and runtime machinery.
    set("vmm.insns.interp", st.insnsInterp,
        "x86 instructions retired by the interpreter");
    set("vmm.insns.x86_mode", st.insnsX86Mode,
        "x86 instructions retired in hardware x86-mode");
    set("vmm.insns.bbt_code", st.insnsBbtCode,
        "x86 instructions retired in BBT translations");
    set("vmm.insns.sbt_code", st.insnsSbtCode,
        "x86 instructions retired in SBT superblocks");
    set("vmm.insns.total", st.totalRetired(),
        "x86 instructions retired, all modes");
    set("vmm.uops.bbt_code", st.uopsBbtCode,
        "micro-ops retired in BBT translations");
    set("vmm.uops.sbt_code", st.uopsSbtCode,
        "micro-ops retired in SBT superblocks");
    set("vmm.dispatches", st.dispatches,
        "translation lookup-table dispatches");
    set("vmm.chain.follows", st.chainFollows,
        "dispatches short-circuited by chaining");
    set("vmm.chain.installs", st.chainsInstalled,
        "chain links created or retargeted between translations");
    const u64 decisions = st.chainFollows + st.dispatches;
    reg.set("vmm.chain.coverage",
            decisions ? static_cast<double>(st.chainFollows) /
                            static_cast<double>(decisions)
                      : 0.0,
            "fraction of dispatch decisions short-circuited by "
            "chaining (the rest hit the lookup path)");
    set("vmm.hotspot_detections", st.hotspotDetections,
        "hot-threshold crossings that invoked the SBT");
    set("vmm.precise_state_recoveries", st.preciseStateRecoveries,
        "faults recovered by interpreter re-execution");
    set("vmm.bbt.translations", st.bbtTranslations,
        "basic blocks translated by the BBT");
    set("vmm.bbt.insns_translated", st.bbtInsnsTranslated,
        "x86 instructions translated by the BBT");
    set("vmm.sbt.translations", st.sbtTranslations,
        "superblocks built by the SBT");
    set("vmm.sbt.insns_translated", st.sbtInsnsTranslated,
        "x86 instructions translated by the SBT");
    set("vmm.sbt.formation_failures", st.sbtFormationFailures,
        "seeds where superblock formation failed");
    set("vmm.cache_flushes.bbt", st.bbtCacheFlushes,
        "BBT code cache flush-on-full events");
    set("vmm.cache_flushes.sbt", st.sbtCacheFlushes,
        "SBT code cache flush-on-full events");
    if (asyncSbt) {
        set("vmm.async.requests", st.asyncSbtRequests,
            "superblock traces handed to background contexts");
        set("vmm.async.installs", st.asyncSbtInstalls,
            "background optimizations installed");
        set("vmm.async.stale_dropped", st.asyncSbtStaleDropped,
            "background results dropped as stale");
        set("vmm.async.queue_rejects", st.asyncSbtQueueRejects,
            "requests dropped by queue back-pressure");
    }
    if (warmImage) {
        set("vmm.warm.loaded", st.warmLoaded,
            "warm image records offered at warm start");
        set("vmm.warm.installed", st.warmInstalled,
            "translations installed before the first dispatch");
        set("vmm.warm.insns_installed", st.warmInsnsInstalled,
            "x86 instructions covered by the warm fill");
        set("vmm.warm.invalidated", st.warmInvalidated,
            "warm image records rejected as stale");
        set("vmm.warm.profile_seeded", st.warmProfileSeeded,
            "branch-profile entries seeded from the image");
        set("vmm.warm.relocations", st.warmRelocations,
            "chain links re-bound by the warm relocation pass");
        set("vmm.warm.mapped_bytes", st.warmMappedBytes,
            "shared-image bytes this context installed from");
        set("vmm.warm.image.generation", warmImage->header().generation,
            "builder generation of the shared warm image");
        set("vmm.warm.image.dedupe_hits", warmImage->header().dedupeHits,
            "records merged by content when the image was built");
        set("vmm.warm.image.evicted", warmImage->header().evicted,
            "cold-tail records evicted by the image size budget");
        // Backing-store residency: how much of the image is faulted
        // in, and how much of that is physically shared with sibling
        // processes (file/fd mappings) rather than a private copy.
        const dbt::MapResidency res = warmImage->residency();
        set("dbt.image.pages.total", res.pagesTotal,
            "pages spanned by the warm image backing store");
        set("dbt.image.pages.resident", res.pagesResident,
            "image pages resident in physical memory (mincore)");
        set("dbt.image.pages.shared", res.pagesShared,
            "resident pages in a shareable mapping (one copy "
            "across processes)");
    }
    set("vmm.xlt.insns_translated", st.xltInsnsTranslated,
        "x86 instructions translated through the HAloop");
    set("vmm.xlt.complex_fallbacks", st.xltComplexFallbacks,
        "JCPX exits cracked by the software complex handler");
    set("vmm.xlt.cti_fallbacks", st.xltCtiFallbacks,
        "JCTI exits cracked by the software branch handler");
    set("vmm.trace_clock", events.clock(),
        "virtual work-unit clock at export time");

    // engine.xlate.*: per-backend host translation-time histograms.
    if (xlateBbtNs.totalWeight() > 0)
        reg.histogram("engine.xlate.bbt_ns", 2.0, 40,
                      "uop-lowering BBT translate call (wall ns)") =
            xlateBbtNs;
    if (xlateTmplNs.totalWeight() > 0)
        reg.histogram("engine.xlate.tmpl_ns", 2.0, 40,
                      "template BBT translate call (wall ns)") =
            xlateTmplNs;
    if (xlateSbtNs.totalWeight() > 0)
        reg.histogram("engine.xlate.sbt_ns", 2.0, 40,
                      "synchronous SBT translate call (wall ns)") =
            xlateSbtNs;

    // engine.*: bounded profiling containers.
    set("engine.branch_prof.entries", branchProf.size(),
        "branch-direction profile entries resident");
    set("engine.branch_prof.evictions", branchProf.evictions(),
        "branch-profile entries evicted at capacity");
    set("engine.sbt_failed.entries", sbtFailed.size(),
        "failed-seed entries resident");
    set("engine.sbt_failed.evictions", sbtFailed.evictions(),
        "failed-seed entries evicted at capacity");

    // engine.profiler.* / engine.flight.*: continuous profiling.
    if (prof.enabled())
        prof.exportStats(reg);
    if (flight.enabled()) {
        set("engine.flight.capacity", flight.capacity(),
            "flight recorder ring capacity (events)");
        set("engine.flight.recorded", flight.recorded(),
            "stage events recorded by the flight recorder");
        set("engine.flight.dropped", flight.dropped(),
            "flight recorder events lost to ring overwrite");
        set("engine.flight.storms", flightFeed.storms(),
            "cache-flush storm episodes detected");
        set("engine.flight.storm_dumps", flightFeed.stormDumps(),
            "storm episodes that produced a dump file");
    }
    if (cfg.snapshotEveryInsns) {
        set("vmm.snapshots.rows", snaps.rows(),
            "interval snapshot rows taken");
        set("vmm.snapshots.every_insns", cfg.snapshotEveryInsns,
            "snapshot period (retired instructions)");
    }
}

void
Vmm::exportStats(StatRegistry &reg) const
{
    exportCoreStats(reg);

    // dbt.*: translators, code caches, and the lookup table. The BBT
    // backend publishes dbt.bbt.* (and, for the XLTx86-assisted path,
    // hwassist.xlt.* and the HAloop cost cross-check).
    cold->exportStats(reg);
    if (asyncSbt) {
        // The background contexts did the optimizing; publish their
        // aggregated dbt.sbt.* view once pending requests finish.
        asyncSbt->barrier();
        asyncSbt->exportStats(reg, "dbt.sbt");
    } else {
        sbtBackend.exportStats(reg, "dbt.sbt");
    }
    ccm.exportStats(reg);

    // hwassist.*: the branch behavior buffer (idle when unused).
    bbb().exportStats(reg, "hwassist.bbb");
    detector->exportStats(reg);
}

} // namespace cdvm::vmm

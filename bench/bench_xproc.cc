/**
 * @file
 * Cross-process warm-start benchmark: N forked mapper processes boot
 * from ONE image-host daemon.
 *
 * bench_fleet shows the zero-copy image amortizing translation across
 * contexts *within* a process; this harness proves the same image
 * amortizes across *processes*. The parent primes per-class warm
 * images, merges them into one content-addressed image, and
 * forks a daemon child (serve::ImageHost) that seals the blob into a
 * memfd. For each rung of the mapper ladder (1 -> 4 -> N) it then
 * forks N mapper processes: each connects to the daemon, receives the
 * sealed fd over SCM_RIGHTS, maps it MAP_SHARED, warm-boots a VM from
 * the mapping, and runs to the startup milestone on the fleet's
 * deterministic virtual cycle clock. A cold series of the same N
 * processes (no daemon) is the baseline.
 *
 * Sharing proof: after reaching the milestone every mapper parks on a
 * pipe barrier, so all N hold their mappings concurrently, then reads
 * its own /proc/self/smaps entry for the image region. The binary
 * self-gates on:
 *   - bodyCopies == 0 and installs > 0 in EVERY mapper process,
 *   - warm p99 time-to-milestone strictly below cold at every rung,
 *   - zero private-dirty image pages in every mapper (read-only
 *     MAP_SHARED never copies), and
 *   - summed image PSS growing sublinearly: at every rung the sum
 *     stays within 2x the blob size (N private copies would sum to
 *     ~N*blob).
 *
 *   $ ./build/bench/bench_xproc --mappers=16
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "dbt/image.hh"
#include "fleet/fleet.hh"
#include "serve/image_client.hh"
#include "serve/image_host.hh"
#include "vmm/vmm.hh"
#include "workload/program_gen.hh"

#ifdef __unix__

#include <algorithm>
#include <chrono>
#include <cinttypes>

#include <sys/wait.h>
#include <unistd.h>

using namespace cdvm;

namespace
{

/** Same short halt-and-rerun shape as bench_fleet: the hot set
 *  crosses the SBT threshold inside the priming window. */
workload::ProgramParams
xprocWorkloadShape()
{
    workload::ProgramParams p;
    p.numFuncs = 5;
    p.blocksPerFunc = 3;
    p.insnsPerBlock = 8;
    p.mainIterations = 2;
    return p;
}

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Fixed-size result each mapper child writes up its pipe. */
struct MapperResult
{
    u32 ok = 0;   //!< milestone reached, architected state sane
    u32 warm = 0; //!< booted from the daemon-served image
    u64 connectNs = 0; //!< connect + SCM_RIGHTS + mmap + verify
    u64 installNs = 0; //!< Vmm ctor (includes the warm fill)
    u64 cycles = 0;    //!< virtual cycles to the milestone
    u64 retired = 0;
    u64 installed = 0;   //!< warm translations installed
    u64 bodyCopies = 0;  //!< body copies at install (must be 0 warm)
    u64 mappedBytes = 0; //!< image bytes views were installed from
    u64 imageSizeKb = 0; //!< smaps Size: of the image region
    u64 imageRssKb = 0;  //!< smaps Rss: resident in this process
    u64 imagePssKb = 0;  //!< smaps Pss: this process's share
    u64 imagePrivateDirtyKb = 0; //!< smaps Private_Dirty: must be 0
    u64 pagesShared = 0; //!< mincore view (dbt.image.pages.shared)
};

/** The /proc/self/smaps entry covering one address. */
struct SmapsRegion
{
    bool found = false;
    u64 sizeKb = 0;
    u64 rssKb = 0;
    u64 pssKb = 0;
    u64 privateDirtyKb = 0;
};

SmapsRegion
smapsRegionOf(const void *addr)
{
    SmapsRegion out;
    std::FILE *f = std::fopen("/proc/self/smaps", "r");
    if (!f)
        return out;
    const u64 want = reinterpret_cast<u64>(addr);
    char line[512];
    bool in_region = false;
    while (std::fgets(line, sizeof line, f)) {
        u64 lo = 0, hi = 0;
        if (std::sscanf(line, "%" SCNx64 "-%" SCNx64, &lo, &hi) == 2 &&
            std::strchr(line, ' ')) {
            if (in_region)
                break; // left the matching region: done
            in_region = lo <= want && want < hi;
            out.found = out.found || in_region;
            continue;
        }
        if (!in_region)
            continue;
        u64 kb = 0;
        if (std::sscanf(line, "Size: %" SCNu64 " kB", &kb) == 1)
            out.sizeKb = kb;
        else if (std::sscanf(line, "Rss: %" SCNu64 " kB", &kb) == 1)
            out.rssKb = kb;
        else if (std::sscanf(line, "Pss: %" SCNu64 " kB", &kb) == 1)
            out.pssKb = kb;
        else if (std::sscanf(line, "Private_Dirty: %" SCNu64 " kB",
                             &kb) == 1)
            out.privateDirtyKb = kb;
    }
    std::fclose(f);
    return out;
}

/** Knobs shared by the parent and every forked mapper. */
struct XprocConfig
{
    unsigned workloads = 4;
    u64 fleetSeed = 1;
    u64 milestoneInsns = 1'000'000;
    std::string sock;
    engine::EngineConfig tenantCfg;
};

/**
 * One mapper process: (optionally) fetch the image from the daemon,
 * warm-boot a VM, run to the milestone on the virtual clock, then
 * park on the barrier so every sibling holds its mapping while smaps
 * is read. Writes MapperResult to result_fd and _exits.
 */
void
runMapper(const XprocConfig &xc, unsigned index, bool warm,
          int ready_fd, int gate_fd, int gate2_fd, int result_fd)
{
    MapperResult res;
    res.warm = warm ? 1 : 0;

    engine::SharedServices svc;
    auto client = std::make_shared<serve::ImageClient>();
    if (warm) {
        const u64 t0 = nowNs();
        const bool up = client->connect(xc.sock);
        res.connectNs = nowNs() - t0;
        if (up)
            svc.imageEndpoint = client;
        // else: fall back to a cold boot; res.warm stays set so the
        // parent's bodyCopies/installed gate catches the regression.
    }

    workload::ProgramParams p = xprocWorkloadShape();
    p.seed = fleet::deriveSeed(xc.fleetSeed, index % xc.workloads);
    const workload::Program prog = workload::generateProgram(p);
    x86::Memory mem;
    prog.loadInto(mem);
    x86::CpuState cpu = prog.initialState();

    const u64 t1 = nowNs();
    vmm::Vmm vm(mem, xc.tenantCfg, svc);
    res.installNs = nowNs() - t1;

    // Priced exactly as fleet admission prices a tenant, the warm
    // fill included.
    fleet::WorkClockSink clock(xc.tenantCfg.cold);
    clock.attach(vm);
    const vmm::VmmStats &st = vm.stats();

    bool ran_ok = true;
    while (st.totalRetired() < xc.milestoneInsns) {
        const x86::Exit e = vm.run(
            cpu, xc.milestoneInsns - st.totalRetired());
        if (e == x86::Exit::Halted)
            cpu = prog.initialState();
        else if (e != x86::Exit::None) {
            ran_ok = false;
            break;
        }
    }
    res.cycles = clock.cycles();
    res.retired = st.totalRetired();
    res.installed = st.warmInstalled;
    res.bodyCopies = st.warmBodyCopies;
    res.mappedBytes = st.warmMappedBytes;

    // Barrier: every sibling must hold its mapping before any smaps
    // read, or early finishers would under-count the shared pages.
    // Participate even after a failed run -- skipping the barrier
    // would starve the parent's ready count and hang the batch.
    char b = 1;
    if (::write(ready_fd, &b, 1) != 1 || ::read(gate_fd, &b, 1) != 1)
        ran_ok = false;

    if (const auto img = warm ? client->acquire() : nullptr) {
        const SmapsRegion r = smapsRegionOf(&img->header());
        res.imageSizeKb = r.sizeKb;
        res.imageRssKb = r.rssKb;
        res.imagePssKb = r.pssKb;
        res.imagePrivateDirtyKb = r.privateDirtyKb;
        res.pagesShared = img->residency().pagesShared;
        ran_ok = ran_ok && r.found;
    }

    // Second barrier: stay alive (mapping held) until every sibling
    // has read ITS smaps too. Without this, early exiters drop the
    // page mapcounts and late readers inherit a larger PSS share --
    // the sum converges to ~2.4x the blob (harmonic series) instead
    // of ~1x, and the sharing gate measures exit order, not sharing.
    // A separate gate pipe per round: with one pipe a fast sibling
    // consumes a round-1 release byte as its round-2 release and a
    // slow sibling starves.
    if (::write(ready_fd, &b, 1) != 1 || ::read(gate2_fd, &b, 1) != 1)
        ran_ok = false;
    res.ok = ran_ok && res.retired >= xc.milestoneInsns;
    [[maybe_unused]] ssize_t n =
        ::write(result_fd, &res, sizeof res);
    ::_exit(0);
}

/** Results of one ladder rung (N mappers, warm or cold). */
struct Batch
{
    std::vector<MapperResult> res;
    bool forked_ok = true;

    static double
    pct(std::vector<u64> v, double q)
    {
        if (v.empty())
            return 0.0;
        std::sort(v.begin(), v.end());
        const std::size_t idx = static_cast<std::size_t>(
            q * static_cast<double>(v.size() - 1) + 0.5);
        return static_cast<double>(v[idx]);
    }

    double
    p(double q, u64 MapperResult::*field) const
    {
        std::vector<u64> v;
        v.reserve(res.size());
        for (const MapperResult &r : res)
            v.push_back(r.*field);
        return pct(std::move(v), q);
    }

    u64
    sum(u64 MapperResult::*field) const
    {
        u64 s = 0;
        for (const MapperResult &r : res)
            s += r.*field;
        return s;
    }

    bool
    allOk() const
    {
        if (!forked_ok || res.empty())
            return false;
        for (const MapperResult &r : res) {
            if (!r.ok)
                return false;
        }
        return true;
    }
};

/** Fork n mappers, run the ready/gate barrier, harvest results. */
Batch
runBatch(const XprocConfig &xc, unsigned n, bool warm)
{
    Batch batch;
    int ready[2], gate[2], gate2[2];
    if (::pipe(ready) != 0 || ::pipe(gate) != 0 ||
        ::pipe(gate2) != 0) {
        batch.forked_ok = false;
        return batch;
    }
    std::vector<int> result_rd;
    std::vector<pid_t> pids;
    for (unsigned i = 0; i < n; ++i) {
        int rp[2];
        if (::pipe(rp) != 0) {
            batch.forked_ok = false;
            break;
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(rp[0]);
            ::close(rp[1]);
            batch.forked_ok = false;
            break;
        }
        if (pid == 0) {
            ::close(rp[0]);
            ::close(ready[0]);
            ::close(gate[1]);
            ::close(gate2[1]);
            for (int fd : result_rd)
                ::close(fd);
            runMapper(xc, i, warm, ready[1], gate[0], gate2[0],
                      rp[1]);
            ::_exit(1); // unreachable
        }
        ::close(rp[1]);
        result_rd.push_back(rp[0]);
        pids.push_back(pid);
    }

    // Two barrier rounds: (1) every child finishes its run before any
    // smaps read, (2) every child finishes its smaps read before any
    // exit. Both directions matter for the PSS accounting. Each round
    // releases through its own gate pipe (see runMapper).
    const int gates[2] = {gate[1], gate2[1]};
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < pids.size(); ++i) {
            char b;
            if (::read(ready[0], &b, 1) != 1)
                batch.forked_ok = false;
        }
        for (std::size_t i = 0; i < pids.size(); ++i) {
            const char b = 1;
            if (::write(gates[round], &b, 1) != 1)
                batch.forked_ok = false;
        }
    }

    for (std::size_t i = 0; i < pids.size(); ++i) {
        MapperResult r;
        if (::read(result_rd[i], &r, sizeof r) ==
            static_cast<ssize_t>(sizeof r))
            batch.res.push_back(r);
        else
            batch.forked_ok = false;
        ::close(result_rd[i]);
        int status = 0;
        ::waitpid(pids[i], &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            batch.forked_ok = false;
    }
    ::close(ready[0]);
    ::close(ready[1]);
    ::close(gate[0]);
    ::close(gate[1]);
    ::close(gate2[0]);
    ::close(gate2[1]);
    return batch;
}

/** Prime one image per workload class and merge them (bench_fleet's
 *  recipe: prime PAST the milestone so the hot set is fully
 *  optimized). */
std::vector<u8>
buildImageBlob(const XprocConfig &xc, u64 prime_insns, u64 &records)
{
    // The builder stages views into the parts: keep them alive until
    // build().
    std::vector<dbt::TransImage> parts;
    parts.reserve(xc.workloads);
    for (unsigned w = 0; w < xc.workloads; ++w) {
        workload::ProgramParams p = xprocWorkloadShape();
        p.seed = fleet::deriveSeed(xc.fleetSeed, w);
        const workload::Program prog = workload::generateProgram(p);
        x86::Memory mem;
        prog.loadInto(mem);
        vmm::Vmm vm(mem, xc.tenantCfg);
        x86::CpuState cpu = prog.initialState();
        while (vm.stats().totalRetired() < prime_insns) {
            const x86::Exit e = vm.run(
                cpu, prime_insns - vm.stats().totalRetired());
            if (e == x86::Exit::Halted)
                cpu = prog.initialState();
            else if (e != x86::Exit::None) {
                std::fprintf(stderr, "priming class %u failed\n", w);
                break;
            }
        }
        parts.push_back(vm.captureWarmStart());
    }
    dbt::ImageBuilder builder(dbt::ImageBuilder::Options{0, 1});
    for (const dbt::TransImage &part : parts)
        builder.add(part);
    records = builder.records();
    return builder.build();
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("Cross-process warm start: N forked mappers boot from one "
            "image-host daemon; gates on zero body copies, warm < "
            "cold p99, and shared (sublinear) image PSS");
    cli.flag("mappers", "16", "mapper processes at the ladder top");
    cli.flag("workloads", "4", "distinct workload classes");
    cli.flag("seed", "1", "fleet seed (derives every class seed)");
    cli.flag("milestone", "1000000",
             "startup milestone (retired insns per mapper)");
    cli.flag("socket", "", "daemon socket path (default: derived "
                           "from the pid under /tmp)");
    cli.flag("json", "BENCH_xproc.json", "output report path");
    cli.parse(argc, argv);

    XprocConfig xc;
    xc.workloads = static_cast<unsigned>(cli.num("workloads"));
    xc.fleetSeed = static_cast<u64>(cli.num("seed"));
    xc.milestoneInsns = static_cast<u64>(cli.num("milestone"));
    xc.sock = cli.str("socket");
    if (xc.sock.empty())
        xc.sock = "/tmp/cdvm-xproc-" + std::to_string(::getpid()) +
                  ".sock";
    xc.tenantCfg = fleet::tenantEngineConfig(engine::EngineConfig{});

    const unsigned top = static_cast<unsigned>(cli.num("mappers"));
    std::vector<unsigned> ladder{1, 4, top};
    std::sort(ladder.begin(), ladder.end());
    ladder.erase(std::unique(ladder.begin(), ladder.end()),
                 ladder.end());
    while (!ladder.empty() && ladder.front() == 0)
        ladder.erase(ladder.begin());

    std::printf("=== Cross-process warm start: ladder to %u mappers, "
                "%u workload classes ===\n",
                top, xc.workloads);

    // Prime past the milestone (2x) so the image carries the fully
    // optimized hot set; a shallow capture makes warm boots LOSE.
    u64 records = 0;
    const std::vector<u8> blob =
        buildImageBlob(xc, 2 * xc.milestoneInsns, records);
    std::printf("image: %llu records in %zu bytes\n",
                static_cast<unsigned long long>(records), blob.size());

    // Daemon child: seal + serve until the stop pipe closes. Fork it
    // before any measurement so its memory is not in the mappers.
    int daemon_ready[2], daemon_stop[2];
    if (::pipe(daemon_ready) != 0 || ::pipe(daemon_stop) != 0) {
        std::fprintf(stderr, "pipe failed\n");
        return 2;
    }
    const pid_t daemon_pid = ::fork();
    if (daemon_pid < 0) {
        std::fprintf(stderr, "fork failed\n");
        return 2;
    }
    if (daemon_pid == 0) {
        ::close(daemon_ready[0]);
        ::close(daemon_stop[1]);
        serve::ImageHost host;
        char ok = host.publish(blob) && host.start(xc.sock) ? 1 : 0;
        if (!ok)
            std::fprintf(stderr, "daemon: %s\n",
                         host.lastError().c_str());
        [[maybe_unused]] ssize_t w = ::write(daemon_ready[1], &ok, 1);
        char b;
        [[maybe_unused]] ssize_t r =
            ::read(daemon_stop[0], &b, 1); // EOF = parent done
        host.stop();
        ::_exit(ok ? 0 : 1);
    }
    ::close(daemon_ready[1]);
    ::close(daemon_stop[0]);
    char daemon_ok = 0;
    if (::read(daemon_ready[0], &daemon_ok, 1) != 1 || !daemon_ok) {
        std::fprintf(stderr, "image daemon failed to start\n");
        ::close(daemon_stop[1]);
        ::waitpid(daemon_pid, nullptr, 0);
        return 2;
    }
    ::close(daemon_ready[0]);

    struct Rung
    {
        unsigned n = 0;
        Batch warm, cold;
    };
    std::vector<Rung> rungs;
    bool ok = true;
    for (unsigned n : ladder) {
        Rung rung;
        rung.n = n;
        rung.warm = runBatch(xc, n, true);
        rung.cold = runBatch(xc, n, false);
        const double wp99 = rung.warm.p(0.99, &MapperResult::cycles);
        const double cp99 = rung.cold.p(0.99, &MapperResult::cycles);
        std::printf(
            "N=%2u  warm p50/p99 %8.0f/%8.0f cycles  cold p99 "
            "%8.0f  connect+map p99 %6.2f ms  install p99 %6.2f ms  "
            "sum image PSS %llu kB\n",
            n, rung.warm.p(0.50, &MapperResult::cycles), wp99, cp99,
            rung.warm.p(0.99, &MapperResult::connectNs) / 1e6,
            rung.warm.p(0.99, &MapperResult::installNs) / 1e6,
            static_cast<unsigned long long>(
                rung.warm.sum(&MapperResult::imagePssKb)));

        if (!rung.warm.allOk() || !rung.cold.allOk()) {
            std::printf("GATE FAILED: N=%u: a mapper process failed\n",
                        n);
            ok = false;
        }
        for (const MapperResult &r : rung.warm.res) {
            if (r.installed == 0 || r.bodyCopies != 0) {
                std::printf("GATE FAILED: N=%u: warm mapper installed "
                            "%llu with %llu body copies (want >0 "
                            "with 0)\n",
                            n,
                            static_cast<unsigned long long>(
                                r.installed),
                            static_cast<unsigned long long>(
                                r.bodyCopies));
                ok = false;
                break;
            }
        }
        for (const MapperResult &r : rung.warm.res) {
            if (r.imagePrivateDirtyKb != 0) {
                std::printf("GATE FAILED: N=%u: %llu kB private-dirty "
                            "image pages (read-only MAP_SHARED must "
                            "copy nothing)\n",
                            n,
                            static_cast<unsigned long long>(
                                r.imagePrivateDirtyKb));
                ok = false;
                break;
            }
        }
        if (!(wp99 > 0.0 && wp99 < cp99)) {
            std::printf("GATE FAILED: N=%u: warm p99 (%.0f) must be "
                        "strictly below cold (%.0f)\n",
                        n, wp99, cp99);
            ok = false;
        }
        // Sharing gate: N processes mapping one physical copy split
        // its PSS, so the SUM stays ~blob-sized at every rung; N
        // private copies would sum to ~N*blob.
        const u64 sum_pss_kb =
            rung.warm.sum(&MapperResult::imagePssKb);
        const u64 budget_kb = 2 * (blob.size() / 1024 + 4);
        if (sum_pss_kb > budget_kb) {
            std::printf("GATE FAILED: N=%u: summed image PSS %llu kB "
                        "exceeds the sharing budget %llu kB\n",
                        n, static_cast<unsigned long long>(sum_pss_kb),
                        static_cast<unsigned long long>(budget_kb));
            ok = false;
        }
        rungs.push_back(std::move(rung));
    }
    if (ok)
        std::printf("gate: every mapper zero-copy, warm < cold p99, "
                    "image PSS sublinear across the ladder\n");

    // Stop the daemon (closing the stop pipe EOFs its read).
    ::close(daemon_stop[1]);
    int dstatus = 0;
    ::waitpid(daemon_pid, &dstatus, 0);
    if (!WIFEXITED(dstatus) || WEXITSTATUS(dstatus) != 0) {
        std::printf("GATE FAILED: daemon exited abnormally\n");
        ok = false;
    }

    std::FILE *f = std::fopen(cli.str("json").c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n",
                     cli.str("json").c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"workloads\": %u,\n"
                 "  \"seed\": %llu,\n"
                 "  \"milestone_insns\": %llu,\n"
                 "  \"image_blob_bytes\": %zu,\n"
                 "  \"image_records\": %llu,\n"
                 "  \"rungs\": [\n",
                 xc.workloads,
                 static_cast<unsigned long long>(xc.fleetSeed),
                 static_cast<unsigned long long>(xc.milestoneInsns),
                 blob.size(),
                 static_cast<unsigned long long>(records));
    for (std::size_t i = 0; i < rungs.size(); ++i) {
        const Rung &rg = rungs[i];
        std::fprintf(
            f,
            "    {\n"
            "      \"mappers\": %u,\n"
            "      \"warm_p50_cycles\": %.0f,\n"
            "      \"warm_p99_cycles\": %.0f,\n"
            "      \"cold_p50_cycles\": %.0f,\n"
            "      \"cold_p99_cycles\": %.0f,\n"
            "      \"connect_map_p50_ns\": %.0f,\n"
            "      \"connect_map_p99_ns\": %.0f,\n"
            "      \"install_p50_ns\": %.0f,\n"
            "      \"install_p99_ns\": %.0f,\n"
            "      \"warm_installed\": %llu,\n"
            "      \"warm_body_copies\": %llu,\n"
            "      \"sum_image_pss_kb\": %llu,\n"
            "      \"sum_image_rss_kb\": %llu,\n"
            "      \"sum_private_dirty_kb\": %llu,\n"
            "      \"pages_shared_min\": %llu\n"
            "    }%s\n",
            rg.n, rg.warm.p(0.50, &MapperResult::cycles),
            rg.warm.p(0.99, &MapperResult::cycles),
            rg.cold.p(0.50, &MapperResult::cycles),
            rg.cold.p(0.99, &MapperResult::cycles),
            rg.warm.p(0.50, &MapperResult::connectNs),
            rg.warm.p(0.99, &MapperResult::connectNs),
            rg.warm.p(0.50, &MapperResult::installNs),
            rg.warm.p(0.99, &MapperResult::installNs),
            static_cast<unsigned long long>(
                rg.warm.sum(&MapperResult::installed)),
            static_cast<unsigned long long>(
                rg.warm.sum(&MapperResult::bodyCopies)),
            static_cast<unsigned long long>(
                rg.warm.sum(&MapperResult::imagePssKb)),
            static_cast<unsigned long long>(
                rg.warm.sum(&MapperResult::imageRssKb)),
            static_cast<unsigned long long>(
                rg.warm.sum(&MapperResult::imagePrivateDirtyKb)),
            static_cast<unsigned long long>([&rg] {
                u64 mn = ~u64{0};
                for (const MapperResult &r : rg.warm.res)
                    mn = r.pagesShared < mn ? r.pagesShared : mn;
                return rg.warm.res.empty() ? 0 : mn;
            }()),
            i + 1 < rungs.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"gate\": { \"ok\": %s }\n"
                 "}\n",
                 ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", cli.str("json").c_str());
    return ok ? 0 : 1;
}

#else // !__unix__

int
main()
{
    std::printf("bench_xproc requires a unix host (fork + SCM_RIGHTS "
                "+ /proc/self/smaps); skipping\n");
    return 0;
}

#endif // __unix__

/**
 * @file
 * Warm-start benchmark: cold vs warm startup of the software-only VM.
 *
 * A warm-start translation image (dbt/image) lets a VM start with
 * every basic-block translation already installed, paying a small
 * up-front install cost instead of Delta_BBT on every first touch. This
 * harness quantifies the win on the startup metric the paper uses --
 * cycles to reach the first N instructions -- by running VM.soft and
 * VM.be cold and warm over the Winstone-like suite.
 *
 * The binary self-gates: it exits non-zero unless a warm start is
 * strictly faster to the 1M-instruction milestone than the matching
 * cold start (CI asserts on this and folds the deltas into
 * BENCH_startup.json).
 */

#include "bench_common.hh"

using namespace cdvm;

namespace
{

/** Suite-mean cycles to reach insn_goal (apps that reached it). */
double
meanCyclesTo(const std::vector<timing::StartupResult> &rs,
             double insn_goal)
{
    double sum = 0.0;
    unsigned n = 0;
    for (const timing::StartupResult &r : rs) {
        double c = analysis::cyclesToInsns(r, insn_goal);
        if (c >= 0.0) {
            sum += c;
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : -1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("Warm-start benchmark: cold vs image-warmed VM "
            "startup (cycles to the first 1M instructions)");
    u64 insns = bench::standardSetup(cli, argc, argv, 20'000'000);

    auto apps = workload::winstone2004(insns);

    auto soft = bench::runMachine(timing::MachineConfig::vmSoft(), apps);
    auto soft_warm = bench::runMachine(
        timing::MachineConfig::vmSoftWarm(), apps);
    auto be = bench::runMachine(timing::MachineConfig::vmBe(), apps);
    auto be_warm = bench::runMachine(timing::MachineConfig::vmBeWarm(),
                                     apps);

    std::printf("=== Warm start: cold vs warm-image startup ===\n");
    std::printf("(10 Winstone2004-like apps, %llu M x86 instructions "
                "each)\n\n",
                static_cast<unsigned long long>(insns / 1'000'000));

    bool ok = true;
    auto report = [&](const char *name,
                      const std::vector<timing::StartupResult> &cold,
                      const std::vector<timing::StartupResult> &warm) {
        const double c1m = meanCyclesTo(cold, 1e6);
        const double w1m = meanCyclesTo(warm, 1e6);
        std::printf("%-8s cycles to 1M insns: cold %s, warm %s "
                    "(%.2fx faster)\n",
                    name,
                    fmtCount(static_cast<unsigned long long>(c1m))
                        .c_str(),
                    fmtCount(static_cast<unsigned long long>(w1m))
                        .c_str(),
                    w1m > 0.0 ? c1m / w1m : 0.0);
        if (!(c1m > 0.0 && w1m > 0.0 && w1m < c1m)) {
            std::printf("  GATE FAILED: warm start must be strictly "
                        "faster to 1M instructions\n");
            ok = false;
        }
    };
    report("VM.soft", soft, soft_warm);
    report("VM.be", be, be_warm);

    double warm_static = 0.0, warm_load_cyc = 0.0;
    for (const timing::StartupResult &r : soft_warm) {
        warm_static += static_cast<double>(r.staticInsnsWarm);
        warm_load_cyc += r.catCycles[static_cast<size_t>(
            timing::CycleCat::WarmLoad)];
    }
    std::printf("\nVM.soft warm install: %.0f static insns/app, "
                "%.0f up-front load cycles/app\n",
                warm_static / static_cast<double>(soft_warm.size()),
                warm_load_cyc / static_cast<double>(soft_warm.size()));

    // Per-PR perf trajectory: suite aggregates for the CI artifact.
    bench::exportSuiteStartup("bench.warmstart.vm_soft", soft);
    bench::exportSuiteStartup("bench.warmstart.vm_soft_warm", soft_warm,
                              &soft);
    bench::exportSuiteStartup("bench.warmstart.vm_be", be);
    bench::exportSuiteStartup("bench.warmstart.vm_be_warm", be_warm,
                              &be);
    dumpObservability();
    return ok ? 0 : 1;
}

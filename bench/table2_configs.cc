/**
 * @file
 * Table 2: machine configurations.
 *
 * Prints the four simulated machines with their emulation strategies
 * and the shared pipeline / memory-hierarchy parameters.
 */

#include "bench_common.hh"

using namespace cdvm;
using timing::ColdMode;
using timing::MachineConfig;

namespace
{

std::string
coldDesc(const MachineConfig &m)
{
    switch (m.cold) {
      case ColdMode::Native:
        return "hardware x86 decoders, no optimization";
      case ColdMode::Interpret:
        return "software interpretation";
      case ColdMode::BbtCode:
        return m.kind == timing::MachineKind::VmBe
                   ? "BBT assisted by the backend HW decoder"
                   : "simple software BBT, no opts";
      case ColdMode::X86Direct:
        return "hardware dual-mode decoders";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("Table 2: machine configurations");
    cli.parse(argc, argv);

    std::printf("=== Table 2: machine configurations ===\n\n");

    TextTable t({"machine", "cold x86 code", "hotspot x86 code",
                 "BBT cyc/insn", "hot threshold"});
    for (const MachineConfig &m : MachineConfig::table2()) {
        t.addRow({m.name, coldDesc(m),
                  m.hasSbt ? "software hotspot optimization (SBT)"
                           : "no optimization",
                  fmtDouble(m.cost.bbtTranslate, 0),
                  m.hasSbt ? fmtCount(m.hotThreshold) : "-"});
    }
    std::printf("%s\n", t.render().c_str());

    const MachineConfig ref = MachineConfig::refSuperscalar();
    const timing::PipelineParams &p = ref.pipeline;
    const memsys::HierarchyParams &mem = ref.memory;

    std::printf("shared pipeline resources:\n");
    std::printf("  %u issue queue slots, %u ROB entries, %u LD queue "
                "slots, %u ST queue slots\n",
                p.issueSlots, p.robEntries, p.ldqSlots, p.stqSlots);
    std::printf("  %uB fetch width; %u-wide decode, rename, issue and "
                "retire; %u physical registers\n",
                p.fetchBytes, p.width, p.prfEntries);
    std::printf("shared memory hierarchy:\n");
    std::printf("  L1 I-cache: %uKB, %u-way, %uB lines, latency %llu "
                "cycles\n",
                mem.l1i.sizeBytes / 1024, mem.l1i.assoc,
                mem.l1i.lineBytes,
                static_cast<unsigned long long>(mem.l1i.latency));
    std::printf("  L1 D-cache: %uKB, %u-way, %uB lines, latency %llu "
                "cycles\n",
                mem.l1d.sizeBytes / 1024, mem.l1d.assoc,
                mem.l1d.lineBytes,
                static_cast<unsigned long long>(mem.l1d.latency));
    std::printf("  L2: %uMB, %u-way, %uB lines, latency %llu cycles\n",
                mem.l2.sizeBytes / (1024 * 1024), mem.l2.assoc,
                mem.l2.lineBytes,
                static_cast<unsigned long long>(mem.l2.latency));
    std::printf("  main memory latency: %llu CPU cycles\n",
                static_cast<unsigned long long>(mem.memLatency));
    return 0;
}

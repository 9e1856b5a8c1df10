#include "timing/machine_config.hh"

namespace cdvm::timing
{

using engine::ColdKind;
using engine::CostModel;

MachineConfig
MachineConfig::refSuperscalar()
{
    MachineConfig m;
    m.name = "Ref: superscalar";
    m.kind = MachineKind::RefSuperscalar;
    m.cold = ColdMode::Native;
    m.hasSbt = false;
    // Hardware x86 decoders: priced as the x86-mode tier.
    m.cost = CostModel::forTier(ColdKind::HardwareX86Mode);
    m.frontendX86Decoders = true; // always-on hardware x86 decoders
    return m;
}

MachineConfig
MachineConfig::vmSoft()
{
    MachineConfig m;
    m.name = "VM.soft";
    m.kind = MachineKind::VmSoft;
    m.cold = ColdMode::BbtCode;
    m.hasSbt = true;
    m.cost = CostModel::forTier(ColdKind::SoftwareBbt);
    m.frontendX86Decoders = false; // no hardware x86 decode at all
    return m;
}

MachineConfig
MachineConfig::vmSoftTmpl()
{
    MachineConfig m = vmSoft();
    m.name = "VM.soft.tmpl";
    // Same machine, cheaper Delta_BBT: translation maps decoded forms
    // straight to templates instead of lowering through the uop IR.
    m.cost = CostModel::forTier(ColdKind::TemplateBbt);
    return m;
}

MachineConfig
MachineConfig::vmBe()
{
    MachineConfig m;
    m.name = "VM.be";
    m.kind = MachineKind::VmBe;
    m.cold = ColdMode::BbtCode;
    m.hasSbt = true;
    m.cost = CostModel::forTier(ColdKind::XltAssistedBbt);
    // One XLTx86 decoder, active only while the HAloop runs.
    m.frontendX86Decoders = false;
    return m;
}

MachineConfig
MachineConfig::vmFe()
{
    MachineConfig m;
    m.name = "VM.fe";
    m.kind = MachineKind::VmFe;
    m.cold = ColdMode::X86Direct;
    m.hasSbt = true;
    // Dual-mode execution of cold x86 code behaves like the reference
    // superscalar (Section 5.2).
    m.cost = CostModel::forTier(ColdKind::HardwareX86Mode);
    m.frontendX86Decoders = true; // on while not in hotspot code
    return m;
}

MachineConfig
MachineConfig::vmInterp()
{
    MachineConfig m;
    m.name = "VM: Interp & SBT";
    m.kind = MachineKind::VmInterp;
    m.cold = ColdMode::Interpret;
    m.hasSbt = true;
    m.cost = CostModel::forTier(ColdKind::Interpret);
    // Interpretation threshold: N = Delta_SBT / (p-1) with the much
    // larger interpretation slowdown folded in -- the paper derives 25.
    m.hotThreshold = engine::params::INTERP_HOT_THRESHOLD;
    m.frontendX86Decoders = false;
    return m;
}

MachineConfig
MachineConfig::vmSoftAsync(unsigned contexts)
{
    MachineConfig m = vmSoft();
    m.name = "VM.soft.async";
    m.asyncTranslators = contexts;
    return m;
}

MachineConfig
MachineConfig::vmBeAsync(unsigned contexts)
{
    MachineConfig m = vmBe();
    m.name = "VM.be.async";
    m.asyncTranslators = contexts;
    return m;
}

MachineConfig
MachineConfig::vmSoftWarm()
{
    MachineConfig m = vmSoft();
    m.name = "VM.soft.warm";
    m.warmStart = true;
    return m;
}

MachineConfig
MachineConfig::vmBeWarm()
{
    MachineConfig m = vmBe();
    m.name = "VM.be.warm";
    m.warmStart = true;
    return m;
}

std::vector<MachineConfig>
MachineConfig::table2()
{
    return {refSuperscalar(), vmSoft(), vmBe(), vmFe()};
}

} // namespace cdvm::timing

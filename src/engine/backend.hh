/**
 * @file
 * Translation backends: how architected code becomes translations.
 *
 * Three implementations of the TranslationBackend strategy:
 *
 *  - SoftwareBbtBackend: the software decode+crack basic-block
 *    translator (VM.soft);
 *  - XltBbtBackend: the HAloop driving the XLTx86 functional unit
 *    (VM.be / VM.dual). Straight-line instructions are decoded,
 *    cracked and encoded *by the hardware model* into a concealed
 *    scratch window; CTIs and complex instructions take the software
 *    path, exactly as the paper's Fig. 6a handlers do. The backend
 *    then lifts the emitted encoding back into a Translation whose
 *    shape (covered instructions, block-ending rules, micro-op
 *    sequence) is identical to the software BBT's -- differential
 *    tests hold VM.be to VM.soft's retired-instruction totals.
 *  - SbtBackend: superblock formation + optimization from a hot seed.
 */

#ifndef CDVM_ENGINE_BACKEND_HH
#define CDVM_ENGINE_BACKEND_HH

#include <functional>
#include <memory>

#include "dbt/bbt.hh"
#include "dbt/sbt.hh"
#include "dbt/superblock.hh"
#include "dbt/templates.hh"
#include "engine/engine_config.hh"
#include "engine/strategy.hh"
#include "hwassist/haloop.hh"
#include "hwassist/xlt.hh"
#include "x86/memory.hh"

namespace cdvm::engine
{

/** The software basic-block translator (VM.soft cold path). */
class SoftwareBbtBackend : public TranslationBackend
{
  public:
    SoftwareBbtBackend(x86::Memory &memory, unsigned max_insns)
        : xlator(memory, max_insns)
    {
    }

    std::unique_ptr<dbt::Translation>
    translate(Addr pc) override
    {
        return xlator.translate(pc);
    }

    void exportStats(StatRegistry &reg,
                     const std::string &prefix) const override;

  private:
    dbt::BasicBlockTranslator xlator;
};

/**
 * The IR-less template BBT (VM.soft.tmpl / VM.be.tmpl cold path): a
 * software XLTx86. Decoded instruction forms are mapped straight to
 * pre-baked micro-op templates specialized by value substitution; no
 * cracker runs on the translation path. Blocks containing a form with
 * no learned rule fall back per-block to the software BBT, keeping
 * block shapes identical to VM.soft.
 */
class TemplateBbtBackend : public TranslationBackend
{
  public:
    TemplateBbtBackend(x86::Memory &memory, unsigned max_insns)
        : xlator(memory, max_insns)
    {
    }

    std::unique_ptr<dbt::Translation>
    translate(Addr pc) override
    {
        return xlator.translate(pc);
    }

    void exportStats(StatRegistry &reg,
                     const std::string &prefix) const override;

    const dbt::TemplateTranslator &translator() const { return xlator; }

  private:
    dbt::TemplateTranslator xlator;
};

/** The XLTx86-assisted BBT (VM.be / VM.dual cold path). */
class XltBbtBackend : public TranslationBackend
{
  public:
    XltBbtBackend(x86::Memory &memory, unsigned max_insns,
                  EngineStats &stats)
        : mem(memory), loop(memory, scratch, xltUnit),
          maxInsns(max_insns), st(stats)
    {
    }

    std::unique_ptr<dbt::Translation> translate(Addr pc) override;

    void exportStats(StatRegistry &reg,
                     const std::string &prefix) const override;

    const hwassist::XltUnit &unit() const { return xltUnit; }
    const hwassist::HaLoop &haloop() const { return loop; }

  private:
    x86::Memory &mem;
    /** The HAloop's STF target: concealed memory the hardware emits
     *  encoded micro-ops into, from address 0, before the VMM lifts
     *  them back into the translation. The guest cannot address it. */
    x86::Memory scratch;
    hwassist::XltUnit xltUnit;
    hwassist::HaLoop loop;
    unsigned maxInsns;
    EngineStats &st;
    u64 nBlocks = 0;
    u64 nInsns = 0;
};

/** The superblock optimizer (hot path of every configuration). */
class SbtBackend : public TranslationBackend
{
  public:
    /** Callback giving the observed taken-bias of a branch. */
    using BiasFn = std::function<std::optional<double>(Addr)>;

    SbtBackend(x86::Memory &memory, const EngineConfig &cfg,
               BiasFn bias_fn)
        : mem(memory), policy(cfg.sbPolicy), bias(std::move(bias_fn)),
          xlator(cfg.fusion)
    {
    }

    /** Form + optimize from the hot seed; nullptr when formation
     *  fails (the dispatch core remembers failed seeds). */
    std::unique_ptr<dbt::Translation> translate(Addr seed_pc) override;

    /**
     * Formation stage alone: follow the hot path from the seed into a
     * self-contained trace. This is the part that must run on the
     * dispatch thread (it reads guest memory and the live branch
     * profile); the async pipeline hands the result to a background
     * optimizer context. nullopt when the seed does not form.
     */
    std::optional<dbt::SuperblockTrace> form(Addr seed_pc);

    void exportStats(StatRegistry &reg,
                     const std::string &prefix) const override;

    const dbt::SuperblockTranslator &translator() const
    {
        return xlator;
    }

  private:
    x86::Memory &mem;
    dbt::SuperblockPolicy policy;
    BiasFn bias;
    dbt::SuperblockTranslator xlator;
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_BACKEND_HH

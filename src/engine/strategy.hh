/**
 * @file
 * The three strategy interfaces of the staged-emulation engine.
 *
 * The dispatch core (vmm::Vmm) is strategy-agnostic: it owns the
 * run loop, the translation lookup/chaining, and translated-code
 * execution, and delegates everything configuration-specific to:
 *
 *  - ColdExecutor: what happens on a lookup miss. Translate-style
 *    executors (software BBT, the XLTx86-assisted HAloop) produce a
 *    Translation the core installs and runs; execute-style executors
 *    (interpreter, hardware x86-mode) run the cold block directly.
 *  - HotspotDetector: when does a region become hot. Software
 *    exec-counters or the hardware branch behavior buffer.
 *  - TranslationBackend: how a hot seed becomes optimized code (the
 *    SBT), and how a cold pc becomes a basic-block translation.
 *
 * An EngineConfig names one composition of these (engine_config.hh).
 */

#ifndef CDVM_ENGINE_STRATEGY_HH
#define CDVM_ENGINE_STRATEGY_HH

#include <memory>
#include <string>

#include "common/trace.hh"
#include "dbt/translation.hh"
#include "x86/interp.hh"

namespace cdvm
{
class StatRegistry;
}

namespace cdvm::hwassist
{
class BranchBehaviorBuffer;
}

namespace cdvm::x86
{
class DecodeCache;
}

namespace cdvm::engine
{

/**
 * Produces translations from architected code. The BBT-style
 * backends (software decode+crack, or the HAloop driving the XLTx86
 * unit) build basic blocks; the SBT backend builds optimized
 * superblocks from hot seeds.
 */
class TranslationBackend
{
  public:
    virtual ~TranslationBackend() = default;

    /**
     * Translate starting at pc. Returns nullptr when no translation
     * can be made (undecodable entry for BBT; formation failure for
     * SBT).
     */
    virtual std::unique_ptr<dbt::Translation> translate(Addr pc) = 0;

    virtual void
    exportStats(StatRegistry &, const std::string &) const
    {
    }
};

/** Cold-code execution strategy: what happens on a lookup miss. */
class ColdExecutor
{
  public:
    virtual ~ColdExecutor() = default;

    /**
     * True when cold code is handled by translating it (the core
     * then installs the translation and executes from the code
     * cache); false when execute() runs the block directly.
     */
    virtual bool translatesColdCode() const = 0;

    /** Translate the cold block (translate-style executors only). */
    virtual std::unique_ptr<dbt::Translation>
    translate(Addr)
    {
        return nullptr;
    }

    /**
     * Execute one dynamic basic block directly (execute-style
     * executors only). Retires at most budget instructions,
     * incrementing retired as it goes.
     */
    virtual x86::Exit
    execute(x86::CpuState &, InstCount /*budget*/, InstCount &)
    {
        return x86::Exit::None;
    }

    /** Trace phase of direct cold execution (Interp or X86Mode). */
    virtual TracePhase phase() const { return TracePhase::Interp; }

    /**
     * The decoded-instruction cache behind this executor, when there
     * is one (execute-style executors with decodeCacheEntries > 0).
     */
    virtual const x86::DecodeCache *
    decodeCache() const
    {
        return nullptr;
    }

    virtual void
    exportStats(StatRegistry &) const
    {
    }
};

/** Hotspot detection strategy. */
class HotspotDetector
{
  public:
    virtual ~HotspotDetector() = default;

    /**
     * A cold (untranslated) block is being entered at pc. Returns
     * true when the entry crosses the hot threshold.
     */
    virtual bool onColdEntry(Addr pc) = 0;

    /**
     * A translation is being entered (execCount already counts this
     * entry). Returns true when the entry makes it hot.
     */
    virtual bool onTranslatedEntry(const dbt::Translation &t) = 0;

    /** The hardware BBB behind this detector, when there is one. */
    virtual const hwassist::BranchBehaviorBuffer *
    bbbUnit() const
    {
        return nullptr;
    }

    virtual void
    exportStats(StatRegistry &) const
    {
    }
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_STRATEGY_HH

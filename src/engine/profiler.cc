#include "engine/profiler.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace cdvm::engine
{

const char *
hotStageName(HotStage s)
{
    switch (s) {
      case HotStage::Cold:
        return "cold";
      case HotStage::Bbt:
        return "bbt";
      case HotStage::Sbt:
        return "sbt";
      case HotStage::Warm:
        return "warm";
    }
    return "?";
}

HotStage
hotStageOf(TracePhase p)
{
    switch (p) {
      case TracePhase::BbtTranslate:
      case TracePhase::BbtExec:
        return HotStage::Bbt;
      case TracePhase::SbtOptimize:
      case TracePhase::SbtExec:
        return HotStage::Sbt;
      case TracePhase::WarmInstall:
        return HotStage::Warm;
      default:
        return HotStage::Cold;
    }
}

void
SamplingProfiler::sample(const StageEvent &e)
{
    const HotStage s = hotStageOf(e.stage);
    const unsigned si = static_cast<unsigned>(s);
    ++total;
    ++byStage[si];

    PageHot &p = pages[e.x86Addr >> x86::Memory::PAGE_SHIFT];
    ++p.total;
    ++p.byStage[si];

    if (e.transId) {
        TransHot &t = trans[e.transId];
        ++t.samples;
        t.entryPc = e.x86Addr;
        t.stage = s;
    }
}

u64
SamplingProfiler::pageSamples(Addr page) const
{
    auto it = pages.find(page);
    return it == pages.end() ? 0 : it->second.total;
}

u64
SamplingProfiler::transSamples(u64 raw_id) const
{
    auto it = trans.find(raw_id);
    return it == trans.end() ? 0 : it->second.samples;
}

std::vector<SamplingProfiler::PageRank>
SamplingProfiler::ranking(std::size_t top_n) const
{
    std::vector<PageRank> out;
    out.reserve(pages.size());
    for (const auto &kv : pages)
        out.push_back(PageRank{kv.first, kv.second});
    std::sort(out.begin(), out.end(),
              [](const PageRank &a, const PageRank &b) {
                  if (a.hot.total != b.hot.total)
                      return a.hot.total > b.hot.total;
                  return a.page < b.page;
              });
    if (top_n && out.size() > top_n)
        out.resize(top_n);
    return out;
}

std::vector<SamplingProfiler::TransRank>
SamplingProfiler::transRanking(std::size_t top_n) const
{
    std::vector<TransRank> out;
    out.reserve(trans.size());
    for (const auto &kv : trans)
        out.push_back(TransRank{kv.first, kv.second});
    std::sort(out.begin(), out.end(),
              [](const TransRank &a, const TransRank &b) {
                  if (a.hot.samples != b.hot.samples)
                      return a.hot.samples > b.hot.samples;
                  return a.transId < b.transId;
              });
    if (top_n && out.size() > top_n)
        out.resize(top_n);
    return out;
}

void
SamplingProfiler::exportStats(StatRegistry &reg,
                              const std::string &prefix) const
{
    auto set = [&reg, &prefix](const char *leaf, u64 v,
                               const char *desc) {
        reg.set(prefix + "." + leaf, static_cast<double>(v), desc);
    };
    set("period", period_, "sampling period (work units per sample)");
    set("samples", total, "hotness samples drawn");
    set("pages", pages.size(), "distinct guest pages sampled");
    set("translations", trans.size(), "distinct translations sampled");
    for (unsigned i = 0; i < NUM_HOT_STAGES; ++i) {
        set((std::string("stage.") +
             hotStageName(static_cast<HotStage>(i)))
                .c_str(),
            byStage[i], "samples attributed to this stage");
    }
}

std::string
SamplingProfiler::dumpJson() const
{
    std::ostringstream os;
    os << "{\n  \"period\": " << period_ << ",\n  \"samples\": " << total
       << ",\n  \"stages\": {";
    for (unsigned i = 0; i < NUM_HOT_STAGES; ++i) {
        os << (i ? ", " : "") << "\""
           << hotStageName(static_cast<HotStage>(i))
           << "\": " << byStage[i];
    }
    os << "},\n  \"pages\": [";
    bool first = true;
    for (const PageRank &r : ranking()) {
        char base[32];
        std::snprintf(base, sizeof(base), "0x%" PRIx64,
                      static_cast<u64>(r.page)
                          << x86::Memory::PAGE_SHIFT);
        os << (first ? "\n" : ",\n") << "    {\"page\": " << r.page
           << ", \"base\": \"" << base
           << "\", \"samples\": " << r.hot.total;
        for (unsigned i = 0; i < NUM_HOT_STAGES; ++i) {
            os << ", \"" << hotStageName(static_cast<HotStage>(i))
               << "\": " << r.hot.byStage[i];
        }
        os << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "],\n  \"translations\": [";
    first = true;
    for (const TransRank &r : transRanking()) {
        os << (first ? "\n" : ",\n") << "    {\"id\": " << r.transId
           << ", \"entry_pc\": " << r.hot.entryPc
           << ", \"samples\": " << r.hot.samples << ", \"stage\": \""
           << hotStageName(r.hot.stage) << "\"}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "]\n}\n";
    return os.str();
}

bool
SamplingProfiler::writeJson(const std::string &path) const
{
    return writeTextFile(path, dumpJson(), "profile");
}

std::string
SamplingProfiler::dumpTopN(std::size_t n) const
{
    std::ostringstream os;
    os << "guest-hotness profile: " << total << " samples, period "
       << period_ << "\n";
    if (!total)
        return os.str();
    os << "      page base   samples  share    cold     bbt     sbt"
          "    warm\n";
    char line[128];
    for (const PageRank &r : ranking(n)) {
        std::snprintf(
            line, sizeof(line),
            "  0x%010" PRIx64 " %9" PRIu64 " %5.1f%% %7" PRIu64
            " %7" PRIu64 " %7" PRIu64 " %7" PRIu64 "\n",
            static_cast<u64>(r.page) << x86::Memory::PAGE_SHIFT,
            r.hot.total, 100.0 * static_cast<double>(r.hot.total) /
                             static_cast<double>(total),
            r.hot.byStage[0], r.hot.byStage[1], r.hot.byStage[2],
            r.hot.byStage[3]);
        os << line;
    }
    return os.str();
}

void
SamplingProfiler::clear()
{
    total = 0;
    for (u64 &v : byStage)
        v = 0;
    pages.clear();
    trans.clear();
}

void
FlightSink::noteFlush(u64 clock)
{
    flushClocks.push_back(clock);
    // Expire flushes that slid out of the window (the vector stays
    // tiny: at most STORM_FLUSHES entries survive any storm reset).
    std::size_t stale = 0;
    while (stale < flushClocks.size() &&
           clock - flushClocks[stale] > STORM_WINDOW) {
        ++stale;
    }
    if (stale) {
        flushClocks.erase(flushClocks.begin(),
                          flushClocks.begin() +
                              static_cast<std::ptrdiff_t>(stale));
    }
    if (flushClocks.size() < STORM_FLUSHES)
        return;

    // Storm: dump and restart the episode count, so a sustained storm
    // produces one dump per STORM_FLUSHES flushes instead of one per
    // flush.
    ++stormCount;
    flushClocks.clear();
    if (dumpPath.empty()) {
        cdvm_debug("flight recorder: cache-flush storm #%llu at clock "
                   "%llu (no dump path configured)",
                   static_cast<unsigned long long>(stormCount),
                   static_cast<unsigned long long>(clock));
        return;
    }
    if (ring_.writeText(dumpPath)) {
        ++stormDumpCount;
        cdvm_debug("flight recorder: cache-flush storm #%llu at clock "
                   "%llu, dumped %zu events to %s",
                   static_cast<unsigned long long>(stormCount),
                   static_cast<unsigned long long>(clock), ring_.size(),
                   dumpPath.c_str());
    }
}

} // namespace cdvm::engine

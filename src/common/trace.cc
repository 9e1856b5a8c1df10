#include "common/trace.hh"

#include <bit>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace cdvm
{

namespace
{

struct PhaseInfo
{
    const char *name;
    const char *cat;
};

/** Indexed by TracePhase. */
constexpr PhaseInfo PHASE_INFO[] = {
    {"interp", "cold"},            // Interp
    {"x86-mode", "cold"},          // X86Mode
    {"bbt-translate", "translate"},// BbtTranslate
    {"sbt-optimize", "translate"}, // SbtOptimize
    {"exec-bbt", "exec"},          // BbtExec
    {"exec-sbt", "exec"},          // SbtExec
    {"cache-flush", "codecache"},  // CacheFlush
    {"chain", "dispatch"},         // Chain
    {"dispatch", "dispatch"},      // Dispatch
    {"hw-assist", "hwassist"},     // HwAssist
    {"cold-exec", "cold"},         // ColdExec
    {"warm-install", "translate"}, // WarmInstall
};

static_assert(sizeof(PHASE_INFO) / sizeof(PHASE_INFO[0]) ==
                  static_cast<std::size_t>(TracePhase::NUM_PHASES),
              "PHASE_INFO out of sync with TracePhase");

const char *TRACK_NAMES[] = {"vmm", "timing"};

} // namespace

const char *
tracePhaseName(TracePhase p)
{
    return PHASE_INFO[static_cast<std::size_t>(p)].name;
}

const char *
tracePhaseCategory(TracePhase p)
{
    return PHASE_INFO[static_cast<std::size_t>(p)].cat;
}

Tracer::Tracer(std::size_t capacity_events)
{
    if (capacity_events)
        enable(capacity_events);
}

Tracer &
Tracer::global()
{
    static Tracer tr;
    return tr;
}

void
Tracer::enable(std::size_t capacity_events)
{
    if (capacity_events == 0)
        cdvm_fatal("trace buffer capacity must be positive");
    buf.assign(std::bit_ceil(capacity_events), TraceEvent{});
    mask = buf.size() - 1;
    total = 0;
}

void
Tracer::disable()
{
    total = 0;
    mask = 0;
    std::vector<TraceEvent>().swap(buf); // release, not just clear
}

std::vector<TraceEvent>
Tracer::snapshot() const
{
    std::vector<TraceEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    for (u64 i = total - n; i < total; ++i)
        out.push_back(buf[static_cast<std::size_t>(i) & mask]);
    return out;
}

std::string
Tracer::dumpChromeJson() const
{
    std::ostringstream os;
    os << "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
    bool first = true;
    // Name the process and its tracks so Perfetto shows meaningful
    // labels instead of pid/tid numbers.
    os << "  {\"ph\": \"M\", \"pid\": 0, \"tid\": 0, "
          "\"name\": \"process_name\", "
          "\"args\": {\"name\": \"cdvm\"}}";
    first = false;
    for (unsigned t = 0; t < 2; ++t) {
        os << ",\n  {\"ph\": \"M\", \"pid\": 0, \"tid\": " << t
           << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
           << TRACK_NAMES[t] << "\"}}";
    }
    for (const TraceEvent &e : snapshot()) {
        os << (first ? "" : ",\n");
        first = false;
        const char *name = tracePhaseName(e.phase);
        const char *cat = tracePhaseCategory(e.phase);
        if (e.dur == 0) {
            os << "  {\"ph\": \"i\", \"name\": \"" << name
               << "\", \"cat\": \"" << cat << "\", \"ts\": " << e.ts
               << ", \"pid\": 0, \"tid\": "
               << static_cast<unsigned>(e.track)
               << ", \"s\": \"t\", \"args\": {\"v\": " << e.arg
               << "}}";
        } else {
            os << "  {\"ph\": \"X\", \"name\": \"" << name
               << "\", \"cat\": \"" << cat << "\", \"ts\": " << e.ts
               << ", \"dur\": " << e.dur << ", \"pid\": 0, \"tid\": "
               << static_cast<unsigned>(e.track)
               << ", \"args\": {\"v\": " << e.arg << "}}";
        }
    }
    os << "\n],\n\"otherData\": {\"dropped_events\": " << dropped()
       << ", \"recorded_events\": " << total << "}}\n";
    return os.str();
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    return writeTextFile(path, dumpChromeJson(), "trace");
}

std::string
Tracer::dumpText() const
{
    std::ostringstream os;
    os << "# flight recorder: " << size() << " of " << recorded()
       << " events retained (" << dropped() << " overwritten), "
       << "capacity " << capacity() << "\n";
    os << "# clock phase insns arg\n";
    char line[96];
    for (const TraceEvent &e : snapshot()) {
        std::snprintf(line, sizeof(line),
                      "%12llu %-13s %6llu 0x%llx\n",
                      static_cast<unsigned long long>(e.ts),
                      tracePhaseName(e.phase),
                      static_cast<unsigned long long>(e.dur),
                      static_cast<unsigned long long>(e.arg));
        os << line;
    }
    return os.str();
}

bool
Tracer::writeText(const std::string &path) const
{
    return writeTextFile(path, dumpText(), "flight-dump");
}

} // namespace cdvm

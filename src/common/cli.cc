#include "common/cli.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "common/statreg.hh"
#include "common/trace.hh"

namespace cdvm
{

Cli::Cli(std::string description) : desc(std::move(description))
{
}

void
Cli::flag(const std::string &name, const std::string &def,
          const std::string &help)
{
    if (!entries.count(name))
        order.push_back(name);
    entries[name] = Entry{def, help};
}

void
Cli::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::printf("%s\n\nflags:\n", desc.c_str());
            for (const auto &name : order) {
                const Entry &e = entries.at(name);
                std::printf("  --%-18s %s (default: %s)\n", name.c_str(),
                            e.help.c_str(), e.value.c_str());
            }
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0)
            cdvm_fatal("unexpected argument '%s'", arg.c_str());
        std::string name = arg.substr(2);
        std::string value;
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            cdvm_fatal("flag '--%s' needs a value", name.c_str());
        }
        auto it = entries.find(name);
        if (it == entries.end())
            cdvm_fatal("unknown flag '--%s' (try --help)", name.c_str());
        it->second.value = value;
    }
}

std::string
Cli::str(const std::string &name) const
{
    auto it = entries.find(name);
    if (it == entries.end())
        cdvm_panic("flag '%s' was never registered", name.c_str());
    return it->second.value;
}

i64
Cli::num(const std::string &name) const
{
    return std::strtoll(str(name).c_str(), nullptr, 0);
}

double
Cli::real(const std::string &name) const
{
    return std::strtod(str(name).c_str(), nullptr);
}

bool
Cli::on(const std::string &name) const
{
    std::string v = str(name);
    return v == "1" || v == "true" || v == "yes" || v == "on";
}

namespace
{
std::string statsJsonPath;
std::string traceOutPath;
} // namespace

void
addObservabilityFlags(Cli &cli)
{
    cli.flag("stats-json", "", "dump the stat registry as JSON to PATH");
    cli.flag("trace-out", "",
             "dump the phase tracer as Chrome trace JSON to PATH");
    cli.flag("trace-buffer-events", "262144",
             "phase tracer ring-buffer capacity in events (rounded "
             "up to a power of two)");
}

void
applyObservabilityFlags(const Cli &cli)
{
    statsJsonPath = cli.str("stats-json");
    traceOutPath = cli.str("trace-out");
    if (!traceOutPath.empty()) {
        i64 cap = cli.num("trace-buffer-events");
        if (cap <= 0)
            cdvm_fatal("--trace-buffer-events must be positive");
        Tracer::global().enable(static_cast<std::size_t>(cap));
    }
}

void
dumpObservability()
{
    if (!statsJsonPath.empty()) {
        if (StatRegistry::global().writeJson(statsJsonPath))
            cdvm_inform("stats dumped to %s", statsJsonPath.c_str());
    }
    if (!traceOutPath.empty()) {
        Tracer &tr = Tracer::global();
        if (tr.writeChromeJson(traceOutPath)) {
            cdvm_inform("trace dumped to %s (%zu events, %llu dropped)",
                        traceOutPath.c_str(), tr.size(),
                        static_cast<unsigned long long>(tr.dropped()));
        }
    }
}

double
envScale()
{
    const char *s = std::getenv("CDVM_SCALE");
    if (!s || !*s)
        return 1.0;
    double v = std::strtod(s, nullptr);
    if (v <= 0.0) {
        cdvm_warn("ignoring non-positive CDVM_SCALE=%s", s);
        return 1.0;
    }
    return v;
}

} // namespace cdvm

#include "common/logging.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

namespace cdvm
{

namespace
{

/** Verbosity from CDVM_LOG_LEVEL (names or 0-3); Info if unset/bad. */
LogLevel
envLogLevel()
{
    const char *s = std::getenv("CDVM_LOG_LEVEL");
    if (!s || !*s)
        return LogLevel::Info;
    if (!std::strcmp(s, "silent") || !std::strcmp(s, "quiet") ||
        !std::strcmp(s, "0")) {
        return LogLevel::Silent;
    }
    if (!std::strcmp(s, "warn") || !std::strcmp(s, "1"))
        return LogLevel::Warn;
    if (!std::strcmp(s, "info") || !std::strcmp(s, "2"))
        return LogLevel::Info;
    if (!std::strcmp(s, "debug") || !std::strcmp(s, "3"))
        return LogLevel::Debug;
    std::fprintf(stderr, "warn: ignoring unknown CDVM_LOG_LEVEL=%s\n", s);
    return LogLevel::Info;
}

LogLevel curLevel = envLogLevel();

/**
 * The crash-hook registry. Registration order is preserved so the
 * hooks run oldest-first; removal leaves a tombstone-free vector (the
 * registry is tiny -- one entry per live flight recorder).
 */
struct CrashHookEntry
{
    CrashHookId id = NO_CRASH_HOOK;
    std::function<void()> fn;
};

std::mutex crashHookMu;
std::vector<CrashHookEntry> crashHooks;
CrashHookId nextCrashHookId = 1;
bool inCrashHook = false;

} // namespace

LogLevel
logLevel()
{
    return curLevel;
}

void
setLogLevel(LogLevel level)
{
    curLevel = level;
}

void
setQuiet(bool q)
{
    curLevel = q ? LogLevel::Silent : envLogLevel();
}

bool
quiet()
{
    return curLevel == LogLevel::Silent;
}

bool
writeTextFile(const std::string &path, const std::string &doc,
              const char *what)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        cdvm_warn("cannot open %s output '%s': %s", what, path.c_str(),
                  std::strerror(errno));
        return false;
    }
    const bool wrote =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        cdvm_warn("cannot write %s output '%s': %s", what, path.c_str(),
                  std::strerror(errno));
        return false;
    }
    return true;
}

CrashHookId
addCrashHook(std::function<void()> hook)
{
    if (!hook)
        return NO_CRASH_HOOK;
    std::lock_guard<std::mutex> lk(crashHookMu);
    const CrashHookId id = nextCrashHookId++;
    crashHooks.push_back({id, std::move(hook)});
    return id;
}

void
removeCrashHook(CrashHookId id)
{
    if (id == NO_CRASH_HOOK)
        return;
    std::lock_guard<std::mutex> lk(crashHookMu);
    for (std::size_t i = 0; i < crashHooks.size(); ++i) {
        if (crashHooks[i].id == id) {
            crashHooks.erase(crashHooks.begin() +
                             static_cast<std::ptrdiff_t>(i));
            return;
        }
    }
}

std::size_t
crashHookCount()
{
    std::lock_guard<std::mutex> lk(crashHookMu);
    return crashHooks.size();
}

void
runCrashHooks()
{
    if (inCrashHook)
        return;
    inCrashHook = true;
    // Copy under the lock, run outside it: a hook that registers,
    // removes, or panics must not deadlock the registry.
    std::vector<std::function<void()>> fns;
    {
        std::lock_guard<std::mutex> lk(crashHookMu);
        fns.reserve(crashHooks.size());
        for (const CrashHookEntry &e : crashHooks)
            fns.push_back(e.fn);
    }
    for (const std::function<void()> &fn : fns)
        fn();
    inCrashHook = false;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    runCrashHooks();
    std::fprintf(stderr, "panic: %s:%d: ", file, line);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "fatal: %s:%d: ", file, line);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    if (curLevel < LogLevel::Warn)
        return;
    std::fprintf(stderr, "warn: ");
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
}

void
informImpl(const char *fmt, ...)
{
    if (curLevel < LogLevel::Info)
        return;
    std::fprintf(stderr, "info: ");
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
}

void
debugImpl(const char *fmt, ...)
{
    if (curLevel < LogLevel::Debug)
        return;
    std::fprintf(stderr, "debug: ");
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
}

} // namespace cdvm

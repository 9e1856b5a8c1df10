/**
 * @file
 * Error and status reporting in the gem5 tradition.
 *
 * panic()  -- an internal invariant was violated (a cdvm bug); aborts.
 * fatal()  -- the simulation cannot continue due to user input (bad
 *             configuration, malformed workload); exits with status 1.
 * warn()   -- something is suspicious but the run can continue.
 * inform() -- plain status output.
 * debug()  -- developer diagnostics, off by default.
 *
 * Verbosity is controlled by the CDVM_LOG_LEVEL environment variable
 * ("silent"/"warn"/"info"/"debug" or 0-3; default "info") and can be
 * overridden programmatically with setLogLevel()/setQuiet().
 */

#ifndef CDVM_COMMON_LOGGING_HH
#define CDVM_COMMON_LOGGING_HH

#include <cstdarg>
#include <functional>
#include <string>

#include "common/types.hh"

namespace cdvm
{

/** Output verbosity, in increasing order of chattiness. */
enum class LogLevel : int
{
    Silent = 0, //!< suppress warn/inform/debug (panic/fatal always print)
    Warn = 1,   //!< warnings only
    Info = 2,   //!< warnings + status (the default)
    Debug = 3,  //!< everything, including debug()
};

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));
void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
void informImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
void debugImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Current verbosity (CDVM_LOG_LEVEL unless explicitly overridden). */
LogLevel logLevel();

/** Override the verbosity for this process. */
void setLogLevel(LogLevel level);

/**
 * Suppress warn()/inform()/debug() output (used by tests).
 * setQuiet(false) restores the CDVM_LOG_LEVEL-derived default, not
 * unconditionally Info.
 */
void setQuiet(bool quiet);
bool quiet();

/**
 * Write doc to path, replacing its contents. Every step is checked,
 * fclose included, so a write that fails only at the final flush
 * (ENOSPC, EIO) is a failure; on failure, warns naming the output
 * ("stats", "trace", ...). Not atomic, so unlike dbt::atomicWriteFile
 * it can target paths such as /dev/stdout. @return success.
 */
bool writeTextFile(const std::string &path, const std::string &doc,
                   const char *what);

/**
 * Crash hooks run once at the top of panic(), before the abort -- the
 * flight recorder registers its dump here so abnormal exits leave a
 * post-mortem artifact. The registry supports any number of live
 * owners (a multi-tenant server hosts many Vmm instances, each with
 * its own flight recorder): every registration gets a token, removal
 * is by token, and panic() runs every hook still registered in
 * registration order. Recursive panics skip the hooks.
 *
 * Registration and removal are mutex-protected; the hooks themselves
 * run outside the lock (a hook that panics again is caught by the
 * recursion guard, not by a deadlock).
 */
using CrashHookId = u64;

/** Invalid token: removeCrashHook(NO_CRASH_HOOK) is a no-op. */
inline constexpr CrashHookId NO_CRASH_HOOK = 0;

/** Register a hook; the token identifies it for removal. */
CrashHookId addCrashHook(std::function<void()> hook);

/** Unregister by token (no-op for NO_CRASH_HOOK or unknown ids). */
void removeCrashHook(CrashHookId id);

/** Hooks currently registered (tests and leak checks). */
std::size_t crashHookCount();

/**
 * Run every registered hook now, in registration order (the panic
 * path calls this; tests call it directly since panic() aborts).
 * Nested calls -- a hook that itself panics -- are skipped.
 */
void runCrashHooks();

} // namespace cdvm

#define cdvm_panic(...) ::cdvm::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define cdvm_fatal(...) ::cdvm::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define cdvm_warn(...) ::cdvm::warnImpl(__VA_ARGS__)
#define cdvm_inform(...) ::cdvm::informImpl(__VA_ARGS__)
#define cdvm_debug(...) ::cdvm::debugImpl(__VA_ARGS__)

#endif // CDVM_COMMON_LOGGING_HH

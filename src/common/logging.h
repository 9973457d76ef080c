/**
 * @file
 * Status-message and error-handling primitives for gpulp.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a gpulp bug), fatal() is for unrecoverable user errors
 * (bad configuration), warn() reports a condition without stopping
 * the simulation.
 */

#ifndef GPULP_COMMON_LOGGING_H
#define GPULP_COMMON_LOGGING_H

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace gpulp {

namespace detail {

/** printf-style formatting into a std::string. */
std::string formatString(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Emit one log line with a severity tag; used by the macros below. */
void emitLog(const char *tag, const std::string &msg);

/** Print the message and abort(); never returns. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Print the message and exit(1); never returns. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

} // namespace detail

} // namespace gpulp

/** Internal invariant violated: print and abort (a gpulp bug). */
#define GPULP_PANIC(...)                                                      \
    ::gpulp::detail::panicImpl(__FILE__, __LINE__,                            \
                               ::gpulp::detail::formatString(__VA_ARGS__))

/** Unrecoverable user/configuration error: print and exit(1). */
#define GPULP_FATAL(...)                                                      \
    ::gpulp::detail::fatalImpl(__FILE__, __LINE__,                            \
                               ::gpulp::detail::formatString(__VA_ARGS__))

/** Assert an invariant; panics with the condition text on failure. */
#define GPULP_ASSERT(cond, ...)                                               \
    do {                                                                      \
        if (!(cond)) {                                                        \
            GPULP_PANIC("assertion failed: %s; %s", #cond,                    \
                        ::gpulp::detail::formatString(__VA_ARGS__).c_str());  \
        }                                                                     \
    } while (0)

/** Warn about suspicious but survivable conditions. */
#define GPULP_WARN(...)                                                       \
    ::gpulp::detail::emitLog("warn",                                          \
                             ::gpulp::detail::formatString(__VA_ARGS__))

#endif // GPULP_COMMON_LOGGING_H

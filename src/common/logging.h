/**
 * @file
 * Error-reporting utilities and assert macros.
 *
 * Follows the gem5 convention of distinguishing unrecoverable internal
 * errors (Panic) from user-induced fatal conditions (Fatal).
 */
#ifndef POD_COMMON_LOGGING_H
#define POD_COMMON_LOGGING_H

#include <cstdarg>

namespace pod {

/**
 * Report an unrecoverable internal error (a bug in this library) and
 * abort. Mirrors gem5's panic().
 *
 * @param fmt printf-style format string.
 */
[[noreturn]] void Panic(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a fatal condition caused by invalid user input or
 * configuration and exit(1). Mirrors gem5's fatal().
 *
 * @param fmt printf-style format string.
 */
[[noreturn]] void Fatal(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Assert a library invariant; on failure, Panic. Active in all build
 * types (use only for cheap checks).
 */
#define POD_ASSERT(cond)                                                   \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::pod::Panic("assertion failed (%s) at %s:%d",                 \
                         #cond, __FILE__, __LINE__);                       \
        }                                                                  \
    } while (0)

/** Assert a library invariant with an explanatory printf message. */
#define POD_ASSERT_MSG(cond, fmt, ...)                                     \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::pod::Panic("assertion failed (%s) at %s:%d: " fmt,           \
                         #cond, __FILE__, __LINE__, __VA_ARGS__);          \
        }                                                                  \
    } while (0)

/** Validate a user-supplied argument; on failure, Fatal. */
#define POD_CHECK_ARG(cond, msg)                                           \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::pod::Fatal("invalid argument (%s): %s", #cond, msg);         \
        }                                                                  \
    } while (0)

}  // namespace pod

#endif  // POD_COMMON_LOGGING_H

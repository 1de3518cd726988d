/**
 * @file
 * Implementation of the error-reporting channels.
 *
 * Thread safety: checks fire on worker-pool threads too (the
 * parallel cluster engine, docs/DESIGN.md S8), so each message is
 * formatted into a private buffer and written to stderr as a single
 * fwrite under a process-wide mutex — concurrent messages serialize
 * whole, never interleaving mid-line.
 */
#include "common/logging.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace pod {

namespace {

std::mutex&
EmitMutex()
{
    static std::mutex mu;
    return mu;
}

void
VEmit(const char* tag, const char* fmt, va_list args)
{
    // Format the whole line privately, then write it in one locked
    // call: a message from another thread can precede or follow this
    // one but never split it.
    char buf[1024];
    int off = std::snprintf(buf, sizeof(buf), "[%s] ", tag);
    if (off < 0) off = 0;
    int body = std::vsnprintf(buf + off, sizeof(buf) - 1 -
                                             static_cast<size_t>(off),
                              fmt, args);
    size_t len = body < 0 ? static_cast<size_t>(off)
                          : std::min(sizeof(buf) - 1,
                                     static_cast<size_t>(off + body));
    buf[len] = '\n';

    std::lock_guard<std::mutex> lock(EmitMutex());
    std::fwrite(buf, 1, len + 1, stderr);
    std::fflush(stderr);
}

}  // namespace

void
Panic(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    VEmit("PANIC", fmt, args);
    va_end(args);
    std::abort();
}

void
Fatal(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    VEmit("FATAL", fmt, args);
    va_end(args);
    std::exit(1);
}

}  // namespace pod

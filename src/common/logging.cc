#include "logging.h"

#include <cstdarg>
#include <cstdio>
#include <vector>

namespace gpulp {

namespace detail {

std::string
formatString(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

void
emitLog(const char *tag, const std::string &msg)
{
    std::fprintf(stderr, "[gpulp:%s] %s\n", tag, msg.c_str());
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "[gpulp:panic] %s:%d: %s\n", file, line,
                 msg.c_str());
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "[gpulp:fatal] %s:%d: %s\n", file, line,
                 msg.c_str());
    std::exit(1);
}

} // namespace detail

} // namespace gpulp

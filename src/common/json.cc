#include "json.h"

#include <cmath>

#include "common/logging.h"

namespace gpulp {

void
JsonWriter::raw(std::string_view s)
{
    std::fwrite(s.data(), 1, s.size(), out_);
}

void
JsonWriter::newline()
{
    std::fputc('\n', out_);
    for (size_t i = 0; i < open_.size(); ++i)
        raw("  ");
}

void
JsonWriter::prefix(const std::string_view *key)
{
    const bool in_object = !open_.empty() && open_.back().close == '}';
    GPULP_ASSERT((key != nullptr) == in_object,
                 "JSON member outside an object, or element inside one");
    if (open_.empty())
        return;
    Frame &f = open_.back();
    raw(f.empty ? "" : f.one_line ? ", " : ",");
    if (!f.one_line)
        newline();
    f.empty = false;
    if (key != nullptr) {
        put(*key);
        raw(": ");
    }
}

void
JsonWriter::open(const std::string_view *key, char bracket, Layout layout)
{
    prefix(key);
    std::fputc(bracket, out_);
    const bool in_one_line = !open_.empty() && open_.back().one_line;
    open_.push_back({bracket == '{' ? '}' : ']',
                     layout == kOneLine || in_one_line});
}

void
JsonWriter::end()
{
    GPULP_ASSERT(!open_.empty(), "JSON end() with no open container");
    const Frame f = open_.back();
    open_.pop_back();
    if (!f.one_line && !f.empty)
        newline();
    std::fputc(f.close, out_);
    if (open_.empty())
        std::fputc('\n', out_);
}

void
JsonWriter::put(std::string_view s)
{
    std::fputc('"', out_);
    size_t run = 0; // first byte not yet written
    for (size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        raw(s.substr(run, i - run));
        run = i + 1;
        if (c == '"' || c == '\\')
            raw(c == '"' ? "\\\"" : "\\\\");
        else
            std::fprintf(out_, "\\u%04x", c);
    }
    raw(s.substr(run));
    std::fputc('"', out_);
}

void
JsonWriter::put(double v)
{
    char buf[32];
    raw(std::isfinite(v)
            ? std::string_view(buf, std::to_chars(buf, buf + 32, v).ptr)
            : "null");
}

bool
writeJsonFile(const char *path, const std::function<void(JsonWriter &)> &body,
              bool quiet)
{
    if (path == nullptr)
        return true;
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return false;
    }
    JsonWriter w(f);
    body(w);
    const bool ok = !std::ferror(f);
    if (std::fclose(f) != 0 || !ok) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return false;
    }
    if (!quiet)
        std::printf("wrote %s\n", path);
    return true;
}

} // namespace gpulp

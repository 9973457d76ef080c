/**
 * @file
 * The one JSON writer behind every report, trace and counter snapshot.
 *
 * JsonWriter streams values to a std::FILE* and owns every syntax
 * decision. A container puts each element on its own line, indented
 * two spaces per level, or keeps itself and everything in it on one
 * line. Strings escape `"`, `\` and control bytes. Doubles take their
 * shortest round-trip form (std::to_chars), and `null` when not finite.
 * Each top-level container ends its line, so one writer emits a
 * document or a JSONL stream. A member outside an object, or an array
 * element inside one, panics.
 */

#ifndef GPULP_COMMON_JSON_H
#define GPULP_COMMON_JSON_H

#include <charconv>
#include <concepts>
#include <cstdio>
#include <functional>
#include <string_view>
#include <vector>

namespace gpulp {

class JsonWriter
{
  public:
    /** How a container places its elements. */
    enum Layout { kLines, kOneLine };

    explicit JsonWriter(std::FILE *out) : out_(out) {}

    /** Open a container: a top-level value or the next array element,
     *  or the member @p key of the innermost object. */
    void beginObject(Layout layout = kLines) { open(nullptr, '{', layout); }
    void beginArray(Layout layout = kLines) { open(nullptr, '[', layout); }

    void
    beginObject(std::string_view key, Layout layout = kLines)
    {
        open(&key, '{', layout);
    }

    void
    beginArray(std::string_view key, Layout layout = kLines)
    {
        open(&key, '[', layout);
    }

    /** Close the innermost open container. */
    void end();

    /** Write @p v as the next element of the innermost array. */
    template <typename T>
    void
    value(const T &v)
    {
        prefix(nullptr);
        put(v);
    }

    /** Write @p v as the member @p key of the innermost object. */
    template <typename T>
    void
    member(std::string_view key, const T &v)
    {
        prefix(&key);
        put(v);
    }

  private:
    struct Frame {
        char close; //!< '}' or ']'
        bool one_line;
        bool empty = true;
    };

    /** The separator, line break and key before the next element. */
    void prefix(const std::string_view *key);
    void open(const std::string_view *key, char bracket, Layout layout);
    /** A line break indented to the current depth. */
    void newline();
    void raw(std::string_view s);

    void put(std::string_view s);
    void put(const char *s) { put(std::string_view(s)); }
    void put(bool b) { raw(b ? "true" : "false"); }
    void put(double v);

    template <std::integral T>
        requires(!std::same_as<T, bool>)
    void
    put(T v)
    {
        char buf[24];
        raw({buf, std::to_chars(buf, buf + sizeof(buf), v).ptr});
    }

    std::FILE *out_;
    std::vector<Frame> open_;
};

/**
 * Write one JSON document to @p path through @p body and print
 * "wrote PATH" unless @p quiet; a null @p path writes nothing. Returns
 * false, after a message on stderr, if the file cannot be opened or
 * written.
 */
bool writeJsonFile(const char *path,
                   const std::function<void(JsonWriter &)> &body,
                   bool quiet = false);

} // namespace gpulp

#endif // GPULP_COMMON_JSON_H

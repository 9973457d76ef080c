/**
 * @file
 * A minimal JSON reader for tests, so a report, trace or counter
 * snapshot is checked as the values a JSON consumer reads, not as
 * text: objects (members kept in order), arrays, strings with every
 * escape decoded, numbers in strict JSON grammar (so `nan` or `inf`
 * fails), booleans and null. Also captures what a JsonWriter writes.
 */

#ifndef GPULP_TESTS_TEST_JSON_H
#define GPULP_TESTS_TEST_JSON_H

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"

namespace gpulp {

/** One parsed JSON value. */
struct Json {
    enum Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string text; //!< a string's value, or a number's spelling
    std::vector<Json> items;
    std::vector<std::pair<std::string, Json>> members;

    /** The member @p key of an object; a null value if absent. */
    const Json &
    operator[](std::string_view key) const
    {
        static const Json missing;
        for (const auto &[k, v] : members) {
            if (k == key)
                return v;
        }
        return missing;
    }

    const Json &operator[](size_t i) const { return items.at(i); }

    bool
    has(std::string_view key) const
    {
        for (const auto &m : members) {
            if (m.first == key)
                return true;
        }
        return false;
    }

    /** An integer number read exactly (no trip through a double). */
    uint64_t
    u64() const
    {
        return kind == Number ? std::strtoull(text.c_str(), nullptr, 10)
                              : ~0ull;
    }
};

/** Recursive-descent reader over one document. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    /** True iff the whole text is exactly one JSON value. */
    bool
    parse(Json *out)
    {
        Json v = value();
        ws();
        if (!ok_ || pos_ != text_.size())
            return false;
        if (out != nullptr)
            *out = std::move(v);
        return true;
    }

  private:
    void
    ws()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\r' || text_[pos_] == '\t'))
            ++pos_;
    }

    bool
    eat(char c)
    {
        ws();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    digits()
    {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        return pos_ > start;
    }

    Json
    fail()
    {
        ok_ = false;
        pos_ = text_.size();
        return {};
    }

    /** Append code point @p cp to @p out as UTF-8. */
    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | cp >> 6));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xe0 | cp >> 12));
            out.push_back(static_cast<char>(0x80 | (cp >> 6 & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        }
    }

    bool
    string(std::string &out)
    {
        if (!eat('"'))
            return false;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
            if (c < 0x20)
                return false; // raw control bytes are not JSON
            if (c != '\\') {
                out.push_back(static_cast<char>(c));
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            const char e = text_[pos_++];
            switch (e) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    return false;
                const std::string hex = text_.substr(pos_, 4);
                char *end = nullptr;
                const unsigned long cp = std::strtoul(hex.c_str(), &end, 16);
                if (end != hex.c_str() + 4)
                    return false;
                appendUtf8(out, static_cast<unsigned>(cp));
                pos_ += 4;
                break;
            }
            default:
                return false;
            }
        }
        return eat('"');
    }

    Json
    number()
    {
        // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
        const size_t start = pos_;
        if (text_[pos_] == '-')
            ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '0')
            ++pos_;
        else if (!digits())
            return fail();
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return fail();
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return fail();
        }
        Json v;
        v.kind = Json::Number;
        v.text = text_.substr(start, pos_ - start);
        v.number = std::strtod(v.text.c_str(), nullptr);
        return v;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.compare(pos_, word.size(), word) != 0)
            return false;
        pos_ += word.size();
        return true;
    }

    Json
    value()
    {
        ws();
        if (pos_ >= text_.size())
            return fail();
        Json v;
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            v.kind = Json::Object;
            if (eat('}'))
                return v;
            do {
                std::string key;
                if (!string(key) || !eat(':'))
                    return fail();
                v.members.emplace_back(std::move(key), value());
            } while (ok_ && eat(','));
            if (!eat('}'))
                return fail();
        } else if (c == '[') {
            ++pos_;
            v.kind = Json::Array;
            if (eat(']'))
                return v;
            do {
                v.items.push_back(value());
            } while (ok_ && eat(','));
            if (!eat(']'))
                return fail();
        } else if (c == '"') {
            v.kind = Json::String;
            if (!string(v.text))
                return fail();
        } else if (literal("true") || literal("false")) {
            v.kind = Json::Bool;
            v.boolean = c == 't';
        } else if (literal("null")) {
            v.kind = Json::Null;
        } else {
            return number();
        }
        return v;
    }

    const std::string &text_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** Parse @p text into @p out; true iff it is one complete JSON value. */
inline bool
parseJson(const std::string &text, Json *out = nullptr)
{
    return JsonParser(text).parse(out);
}

/** Everything @p body writes through a JsonWriter, as a string. */
inline std::string
jsonOf(const std::function<void(JsonWriter &)> &body)
{
    char *buf = nullptr;
    size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    {
        JsonWriter w(f);
        body(w);
    }
    std::fclose(f);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

} // namespace gpulp

#endif // GPULP_TESTS_TEST_JSON_H

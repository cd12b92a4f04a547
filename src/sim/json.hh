/**
 * @file
 * The canonical-JSON plumbing shared by every machine-written eole
 * artifact (sweep artifacts, sim/artifact.cc; bench trajectories,
 * sim/bench.cc).
 *
 * Writing side: fixed key order is the caller's job; this header
 * supplies the two primitives that make byte-comparison a valid
 * equality check — %.17g number text (shortest round-trip-exact form)
 * and deterministic string escaping.
 *
 * Reading side: a minimal recursive-descent parser for the artifact
 * subset of JSON (objects, arrays, strings, numbers, booleans; null
 * accepted and ignored where a number is not required). It reads every
 * escape jsonWriteEscaped writes. The parser keeps its first error
 * instead of stopping the program, so a reader can hand a missing or
 * malformed input back to its caller (the CLI exits 2 on one).
 */

#ifndef EOLE_SIM_JSON_HH
#define EOLE_SIM_JSON_HH

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>

#include "common/logging.hh"

namespace eole {

/** %.17g: shortest text that round-trips an IEEE double via strtod. */
inline std::string
jsonNumberText(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Write @p s as a JSON string literal (deterministic escaping). */
inline void
jsonWriteEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

/** See file header. The @p what tag names the document kind in
 *  diagnostics ("artifact", "bench file", ...). */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text,
                        const char *what = "artifact")
        : s(text), kind(what)
    {
    }

    /** The first error, "" while the document parses. After an error
     *  the parser sits at the end of the text and every call returns
     *  a default value, so the caller's parse loops end at once. */
    const std::string &error() const { return err; }

    void
    expect(char c)
    {
        skipWs();
        if (pos >= s.size() || s[pos] != c) {
            fail(csprintf("%s parse error at offset %zu: expected '%c'",
                          kind, pos, c));
            return;
        }
        ++pos;
    }

    bool
    tryConsume(char c)
    {
        skipWs();
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    /** The next character after any whitespace; '\0' at the end. */
    char
    peek()
    {
        skipWs();
        return pos < s.size() ? s[pos] : '\0';
    }

    bool
    parseBool()
    {
        skipWs();
        if (s.compare(pos, 4, "true") == 0) {
            pos += 4;
            return true;
        }
        if (s.compare(pos, 5, "false") != 0) {
            fail(csprintf("%s parse error at offset %zu: expected true "
                          "or false", kind, pos));
            return false;
        }
        pos += 5;
        return false;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos++];
            if (c == '\\') {
                if (pos >= s.size()) {
                    fail(csprintf("%s: truncated escape", kind));
                    break;
                }
                const char e = s[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > s.size()) {
                        fail(csprintf("%s: bad \\u", kind));
                        break;
                    }
                    const std::string hex = s.substr(pos, 4);
                    pos += 4;
                    out += static_cast<char>(
                        std::strtoul(hex.c_str(), nullptr, 16));
                    break;
                  }
                  default:
                    fail(csprintf("%s: unsupported escape \\%c", kind, e));
                }
            } else {
                out += c;
            }
        }
        expect('"');
        return out;
    }

    double
    parseNumber()
    {
        skipWs();
        char *end = nullptr;
        const double v = std::strtod(s.c_str() + pos, &end);
        if (end == s.c_str() + pos) {
            fail(csprintf("%s parse error at offset %zu: expected number",
                          kind, pos));
            return 0;
        }
        pos = static_cast<std::size_t>(end - s.c_str());
        return v;
    }

    /** Exact unsigned 64-bit integer (seeds do not fit in a double). */
    std::uint64_t
    parseU64()
    {
        skipWs();
        char *end = nullptr;
        const std::uint64_t v = std::strtoull(s.c_str() + pos, &end, 10);
        if (end == s.c_str() + pos) {
            fail(csprintf("%s parse error at offset %zu: expected "
                          "integer", kind, pos));
            return 0;
        }
        pos = static_cast<std::size_t>(end - s.c_str());
        return v;
    }

    /** Skip any one value (used for unknown/ignored keys). */
    void
    skipValue()
    {
        skipWs();
        if (pos >= s.size()) {
            fail(csprintf("%s: truncated document", kind));
            return;
        }
        const char c = s[pos];
        if (c == '"') {
            parseString();
        } else if (c == '{') {
            ++pos;
            if (!tryConsume('}')) {
                do {
                    parseString();
                    expect(':');
                    skipValue();
                } while (tryConsume(','));
                expect('}');
            }
        } else if (c == '[') {
            ++pos;
            if (!tryConsume(']')) {
                do {
                    skipValue();
                } while (tryConsume(','));
                expect(']');
            }
        } else if (c == 't' || c == 'f' || c == 'n') {
            while (pos < s.size() && std::isalpha(
                       static_cast<unsigned char>(s[pos])))
                ++pos;
        } else {
            parseNumber();
        }
    }

    void
    finish()
    {
        skipWs();
        if (pos != s.size())
            fail(csprintf("%s: trailing garbage at %zu", kind, pos));
    }

  private:
    /** Keep the first error and move to the end of the text. */
    void
    fail(const std::string &msg)
    {
        if (err.empty())
            err = msg;
        pos = s.size();
    }

    void
    skipWs()
    {
        while (pos < s.size()
               && std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    const std::string &s;
    const char *kind;
    std::size_t pos = 0;
    std::string err;
};

} // namespace eole

#endif // EOLE_SIM_JSON_HH

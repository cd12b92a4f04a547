/**
 * @file
 * Canonical text helpers for microarchitectural state snapshots
 * (WarmableComponent::snapshotState / restoreState, isa/warmable.hh).
 *
 * Snapshots are byte-stable line-oriented text, like the architectural
 * checkpoint schema (eole-ckpt-v1): every line is a tag word followed
 * by space-separated fields, integers in hex (sign-prefixed when
 * negative), so re-serializing a restored component reproduces the
 * exact bytes. SnapshotWriter centralizes the number formatting (and
 * keeps component code free of iostream format-flag juggling);
 * SnapshotReader is the strict line-by-line parser whose every
 * diagnostic carries the section name and 1-based line number — a
 * corrupted or truncated section must be a precise operator-facing
 * error, never UB or a silent misparse (pinned by
 * tests/test_ckpt_state.cc).
 */

#ifndef EOLE_ISA_SNAPSHOT_HH
#define EOLE_ISA_SNAPSHOT_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "common/logging.hh"

namespace eole {

/** Strict lowercase-hex u64 parse (no prefix, at most 16 digits —
 *  cannot wrap). Shared by SnapshotReader and the checkpoint framing
 *  parser so both layers agree on what a number is. */
inline bool
snapshotParseHex(const std::string &w, std::uint64_t *out)
{
    if (w.empty() || w.size() > 16)
        return false;
    std::uint64_t v = 0;
    for (char c : w) {
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else
            return false;
        v = (v << 4) | static_cast<std::uint64_t>(d);
    }
    *out = v;
    return true;
}

/** Line-oriented canonical-text emitter for component snapshots.
 *  Fields append to a line buffer and end() hands the finished line to
 *  the stream in one write: a warmed checkpoint is ~0.7 MB of short
 *  hex fields, and a stream insertion per field would dominate its
 *  render time. The destructor writes a line left unterminated. */
class SnapshotWriter
{
  public:
    explicit SnapshotWriter(std::ostream &os_) : os(os_) {}
    ~SnapshotWriter() { flush(); }
    SnapshotWriter(const SnapshotWriter &) = delete;
    SnapshotWriter &operator=(const SnapshotWriter &) = delete;

    /** Start a line with its tag word. */
    SnapshotWriter &
    tag(const char *t)
    {
        line += t;
        return *this;
    }

    /** One unsigned field, canonical lowercase hex. */
    SnapshotWriter &
    u64(std::uint64_t v)
    {
        line += ' ';
        hex(v);
        return *this;
    }

    /** One signed field: '-' prefix + hex magnitude. */
    SnapshotWriter &
    i64(std::int64_t v)
    {
        if (v >= 0)
            return u64(static_cast<std::uint64_t>(v));
        line += " -";
        hex(static_cast<std::uint64_t>(-(v + 1)) + 1);
        return *this;
    }

    /** One raw string field (must contain no whitespace). */
    SnapshotWriter &
    str(const std::string &s)
    {
        line += ' ';
        line += s;
        return *this;
    }

    /** One boolean field (0/1). */
    SnapshotWriter &
    flag(bool b)
    {
        line += ' ';
        line += b ? '1' : '0';
        return *this;
    }

    /** Terminate the current line and write it. */
    void
    end()
    {
        line += '\n';
        flush();
    }

  private:
    void
    hex(std::uint64_t v)
    {
        char buf[16];
        char *p = buf + sizeof(buf);
        do {
            *--p = "0123456789abcdef"[v & 0xf];
            v >>= 4;
        } while (v);
        line.append(p, buf + sizeof(buf));
    }

    void
    flush()
    {
        if (line.empty())
            return;
        os.write(line.data(), static_cast<std::streamsize>(line.size()));
        line.clear();
    }

    std::ostream &os;
    std::string line;
};

/**
 * Strict parser over a snapshot section. Reads one line at a time
 * (line() checks the tag word), then extracts fields in order; any
 * mismatch, missing field, trailing garbage or premature end of the
 * stream is a fatal diagnostic of the form
 * "<section> snapshot line <N>: <what went wrong>".
 */
class SnapshotReader
{
  public:
    SnapshotReader(std::istream &is_, const std::string &section_)
        : is(is_), section(section_)
    {
    }

    /** Advance to the next line and require its tag word. */
    void
    line(const char *tag)
    {
        if (!std::getline(is, text))
            fail(csprintf("truncated: expected a '%s' line", tag));
        ++lineno;
        pos = 0;
        const std::string got = word(tag);
        if (got != tag)
            fail(csprintf("expected tag '%s', got \"%s\"", tag,
                          got.c_str()));
    }

    /** Next unsigned hex field of the current line. */
    std::uint64_t
    u64(const char *what)
    {
        const std::string w = word(what);
        std::uint64_t v = 0;
        if (!snapshotParseHex(w, &v))
            fail(csprintf("field '%s': bad value \"%s\"", what,
                          w.c_str()));
        return v;
    }

    /** As u64, but reject values above @p max — restores must never
     *  narrow silently (the strict-validation contract). */
    std::uint64_t
    u64Max(const char *what, std::uint64_t max)
    {
        const std::uint64_t v = u64(what);
        if (v > max)
            fail(csprintf("field '%s': value out of range", what));
        return v;
    }

    /** Next signed field ('-' prefix + hex magnitude). */
    std::int64_t
    i64(const char *what)
    {
        std::string w = word(what);
        bool neg = false;
        if (!w.empty() && w[0] == '-') {
            neg = true;
            w.erase(0, 1);
        }
        std::uint64_t m = 0;
        if (!snapshotParseHex(w, &m))
            fail(csprintf("field '%s': bad value \"%s\"", what,
                          w.c_str()));
        if (!neg)
            return static_cast<std::int64_t>(m);
        fatalIf(m > (1ULL << 63),
                csprintf("field '%s': magnitude overflows", what));
        return -static_cast<std::int64_t>(m - 1) - 1;
    }

    /** Next raw field (names, packed bit strings). */
    std::string
    str(const char *what)
    {
        return word(what);
    }

    /** Next boolean field (exactly "0" or "1"). */
    bool
    flag(const char *what)
    {
        const std::string w = word(what);
        if (w != "0" && w != "1")
            fail(csprintf("field '%s': expected 0/1, got \"%s\"", what,
                          w.c_str()));
        return w == "1";
    }

    /** Require the current line to be fully consumed. */
    void
    endLine()
    {
        while (pos < text.size() && text[pos] == ' ')
            ++pos;
        if (pos != text.size())
            fail(csprintf("trailing garbage \"%s\"",
                          text.substr(pos).c_str()));
    }

    /** Fatal when @p cond, with the section/line prefix. */
    void
    fatalIf(bool cond, const std::string &msg)
    {
        if (cond)
            fail(msg);
    }

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        fatal("%s snapshot line %d: %s", section.c_str(), lineno,
              msg.c_str());
    }

    int currentLine() const { return lineno; }

  private:
    std::string
    word(const char *what)
    {
        while (pos < text.size() && text[pos] == ' ')
            ++pos;
        if (pos >= text.size())
            fail(csprintf("missing field '%s'", what));
        const std::size_t b = pos;
        while (pos < text.size() && text[pos] != ' ')
            ++pos;
        return text.substr(b, pos - b);
    }

    std::istream &is;
    std::string section;
    std::string text;
    std::size_t pos = 0;
    int lineno = 0;
};

} // namespace eole

#endif // EOLE_ISA_SNAPSHOT_HH

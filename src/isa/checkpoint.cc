#include "isa/checkpoint.hh"

#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "isa/kernel_vm.hh"
#include "isa/snapshot.hh"

namespace eole {

Checkpoint
captureAt(const FrozenTrace &trace, const std::string &workload_name,
          std::uint64_t uop_index)
{
    // From the trace's own start state: its post-init register image.
    Checkpoint start;
    for (int r = 0; r < numArchIntRegs; ++r)
        start.intRegs[r] = trace.initIntRegs[r];
    for (int r = 0; r < numArchFpRegs; ++r)
        start.fpRegs[r] = trace.initFpRegs[r];
    return captureAt(trace, workload_name, uop_index, start);
}

Checkpoint
captureAt(const FrozenTrace &trace, const std::string &workload_name,
          std::uint64_t uop_index, const Checkpoint &from)
{
    fatal_if(uop_index > trace.uops.size(),
             "checkpoint at µ-op %llu but the trace only covers %zu",
             (unsigned long long)uop_index, trace.uops.size());
    fatal_if(from.uopIndex > uop_index,
             "checkpoint at µ-op %llu cannot resume from µ-op %llu",
             (unsigned long long)uop_index,
             (unsigned long long)from.uopIndex);

    Checkpoint ckpt;
    ckpt.workload = workload_name;
    ckpt.uopIndex = uop_index;
    for (int r = 0; r < numArchIntRegs; ++r)
        ckpt.intRegs[r] = from.intRegs[r];
    for (int r = 0; r < numArchFpRegs; ++r)
        ckpt.fpRegs[r] = from.fpRegs[r];

    // Replay destination writes. TraceUop::result() is the architectural
    // post-write value (already 0 for writes to the int zero register),
    // so a scalar copy per µ-op reproduces the VM state exactly.
    for (std::uint64_t i = from.uopIndex; i < uop_index; ++i) {
        const TraceUop &u = trace.uops[i];
        if (u.dst() == invalidReg)
            continue;
        if (u.dstClass() == RegClass::Fp)
            ckpt.fpRegs[u.dst()] = u.result();
        else
            ckpt.intRegs[u.dst()] = u.result();
    }
    return ckpt;
}

Checkpoint
captureFromVM(const KernelVM &vm, const std::string &workload_name)
{
    Checkpoint ckpt;
    ckpt.workload = workload_name;
    ckpt.uopIndex = vm.executedUops();
    for (int r = 0; r < numArchIntRegs; ++r)
        ckpt.intRegs[r] = vm.readIntReg(static_cast<RegIndex>(r));
    for (int r = 0; r < numArchFpRegs; ++r)
        ckpt.fpRegs[r] = vm.readFpReg(static_cast<RegIndex>(r));
    return ckpt;
}

std::string
CheckpointSection::payload() const
{
    if (!state)
        return text;
    std::string rendered;
    state->appendSnapshot(rendered);
    return rendered;
}

void
CheckpointSection::restoreInto(WarmableComponent &target) const
{
    if (state) {
        target.copyStateFrom(*state);
        return;
    }
    std::istringstream is(text);
    target.restoreState(is);
}

bool
CheckpointSection::operator==(const CheckpointSection &o) const
{
    return name == o.name && payload() == o.payload();
}

void
appendCheckpoint(std::string &out, const Checkpoint &ckpt)
{
    // Canonical line-oriented text; register values in hex (exact for
    // bit-punned FP). Names are length-prefixed so spaces survive the
    // round trip. A checkpoint without µarch sections writes the
    // legacy v1 schema byte-for-byte, so pure-architectural artifacts
    // from earlier releases stay canonical.
    const std::string schema = checkpointSchemaName(ckpt);
    const bool v2 = schema == "eole-ckpt-v2";
    const auto named = [&](const char *tag, const std::string &name) {
        out += tag;
        out += ' ' + std::to_string(name.size()) + ' ';
        out += name;
        out += '\n';
    };
    out += schema + '\n';
    if (v2)
        named("config", ckpt.config);
    named("workload", ckpt.workload);
    out += "uop " + std::to_string(ckpt.uopIndex) + '\n';
    {
        SnapshotWriter w(out);
        w.tag("int");
        for (int r = 0; r < numArchIntRegs; ++r)
            w.u64(ckpt.intRegs[r]);
        w.end();
        w.tag("fp");
        for (int r = 0; r < numArchFpRegs; ++r)
            w.u64(ckpt.fpRegs[r]);
        w.end();
    }
    if (v2) {
        out += "sections " + std::to_string(ckpt.uarch.size()) + '\n';
        for (const CheckpointSection &section : ckpt.uarch) {
            // Byte-counted payloads: component text is opaque to the
            // framing, and truncation is detectable without parsing.
            // A by-value section renders in place, the one place its
            // text is needed, and its header goes in front once its
            // size is known.
            const std::size_t at = out.size();
            if (section.state)
                section.state->appendSnapshot(out);
            else
                out += section.text;
            out.insert(at, "section " + section.name + ' '
                               + std::to_string(out.size() - at) + '\n');
        }
        out += "end\n";
    }
}

void
serializeCheckpoint(std::ostream &os, const Checkpoint &ckpt)
{
    const std::string text = checkpointString(ckpt);
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

namespace {

/** Character cursor over the checkpoint stream: every read keeps the
 *  1-based line count so diagnostics are precise. */
struct Cursor
{
    std::istream &is;
    int line = 1;

    int
    get()
    {
        const int c = is.get();
        if (c == '\n')
            ++line;
        return c;
    }

    /** Skip whitespace, then read one whitespace-delimited token
     *  (leaving the delimiter unconsumed, so length-prefixed raw
     *  bodies that follow "<len> " stay byte-exact). False at end of
     *  stream. */
    bool
    token(std::string *out)
    {
        const auto ws = [](int c) {
            return c == ' ' || c == '\n' || c == '\r' || c == '\t';
        };
        int c = is.peek();
        while (ws(c)) {
            get();
            c = is.peek();
        }
        if (c == std::istream::traits_type::eof())
            return false;
        out->clear();
        while (c != std::istream::traits_type::eof() && !ws(c)) {
            out->push_back(static_cast<char>(get()));
            c = is.peek();
        }
        return true;
    }

    /** Read exactly @p n raw bytes (name/payload bodies). */
    bool
    raw(std::size_t n, std::string *out)
    {
        out->resize(n);
        is.read(out->data(), static_cast<std::streamsize>(n));
        if (static_cast<std::size_t>(is.gcount()) != n)
            return false;
        for (char c : *out) {
            if (c == '\n')
                ++line;
        }
        return true;
    }
};

bool
parseDec(const std::string &w, std::uint64_t *out)
{
    if (w.empty() || w.size() > 20)
        return false;
    std::uint64_t v = 0;
    for (char c : w) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
        // Overflow must be a parse failure, not a silent wrap
        // (2^64 would otherwise "parse" as 0 and sidestep every
        // downstream bound check).
        if (v > (~0ULL - d) / 10)
            return false;
        v = v * 10 + d;
    }
    *out = v;
    return true;
}

// Register values reuse the snapshot layer's strict hex parse
// (isa/snapshot.hh snapshotParseHex) so both layers agree on what a
// number is.

} // namespace

const char *
checkpointSchemaName(const Checkpoint &ckpt)
{
    return ckpt.hasWarmState() || !ckpt.config.empty() ? "eole-ckpt-v2"
                                                       : "eole-ckpt-v1";
}

bool
tryDeserializeCheckpoint(std::istream &is, Checkpoint *out,
                         std::string *err)
{
    Cursor cur{is};
    std::string tok;
    const auto fail = [&](const std::string &msg) {
        *err = "checkpoint line " + std::to_string(cur.line) + ": "
            + msg;
        return false;
    };
    const auto expect = [&](const char *tag) {
        if (!cur.token(&tok))
            return fail(std::string("truncated: expected '") + tag
                        + "'");
        if (tok != tag)
            return fail(std::string("expected '") + tag + "', got \""
                        + tok + "\"");
        return true;
    };
    // A length-prefixed name: "<tag> <len> <len raw bytes>".
    const auto namedString = [&](const char *tag, std::string *s) {
        if (!expect(tag))
            return false;
        std::uint64_t len = 0;
        if (!cur.token(&tok) || !parseDec(tok, &len) || len > 4096) {
            return fail(std::string("implausible ") + tag
                        + "-name length \"" + tok + "\"");
        }
        cur.get();  // the single separating space
        if (!cur.raw(static_cast<std::size_t>(len), s))
            return fail(std::string("truncated ") + tag + " name");
        return true;
    };

    Checkpoint ckpt;
    if (!cur.token(&tok))
        return fail("empty document");
    const bool v2 = tok == "eole-ckpt-v2";
    if (!v2 && tok != "eole-ckpt-v1")
        return fail("unsupported checkpoint schema \"" + tok + "\"");

    if (v2 && !namedString("config", &ckpt.config))
        return false;
    if (!namedString("workload", &ckpt.workload))
        return false;

    if (!expect("uop"))
        return false;
    if (!cur.token(&tok) || !parseDec(tok, &ckpt.uopIndex))
        return fail("bad µ-op index \"" + tok + "\"");

    if (!expect("int"))
        return false;
    for (int r = 0; r < numArchIntRegs; ++r) {
        if (!cur.token(&tok) || !snapshotParseHex(tok, &ckpt.intRegs[r]))
            return fail("truncated or malformed int register block");
    }
    if (!expect("fp"))
        return false;
    for (int r = 0; r < numArchFpRegs; ++r) {
        if (!cur.token(&tok) || !snapshotParseHex(tok, &ckpt.fpRegs[r]))
            return fail("truncated or malformed fp register block");
    }

    if (v2) {
        if (!expect("sections"))
            return false;
        std::uint64_t n = 0;
        if (!cur.token(&tok) || !parseDec(tok, &n) || n > 16)
            return fail("implausible section count \"" + tok + "\"");
        for (std::uint64_t i = 0; i < n; ++i) {
            if (!expect("section"))
                return false;
            std::string name;
            if (!cur.token(&name) || name.empty() || name.size() > 64)
                return fail("bad section name");
            for (const CheckpointSection &prev : ckpt.uarch) {
                if (prev.name == name)
                    return fail("duplicate section \"" + name + "\"");
            }
            std::uint64_t bytes = 0;
            if (!cur.token(&tok) || !parseDec(tok, &bytes)
                || bytes > (1ULL << 30)) {
                return fail("implausible section size \"" + tok
                            + "\"");
            }
            if (cur.get() != '\n')
                return fail("section header not newline-terminated");
            std::string payload;
            if (!cur.raw(static_cast<std::size_t>(bytes), &payload)) {
                return fail("truncated section \"" + name + "\" ("
                            + std::to_string(bytes) + " bytes)");
            }
            ckpt.uarch.emplace_back(std::move(name),
                                    std::move(payload));
        }
        if (!expect("end"))
            return false;
    }

    // Strict validation means the document is *exactly* a checkpoint:
    // trailing garbage (a concatenation accident, a corrupted tail)
    // must not validate as clean.
    if (cur.token(&tok))
        return fail("trailing garbage \"" + tok + "\" after document");

    *out = std::move(ckpt);
    return true;
}

Checkpoint
deserializeCheckpoint(std::istream &is)
{
    Checkpoint ckpt;
    std::string err;
    fatal_if(!tryDeserializeCheckpoint(is, &ckpt, &err), "%s",
             err.c_str());
    return ckpt;
}

std::string
checkpointString(const Checkpoint &ckpt)
{
    std::string text;
    appendCheckpoint(text, ckpt);
    return text;
}

Checkpoint
checkpointFromString(const std::string &text)
{
    std::istringstream iss(text);
    return deserializeCheckpoint(iss);
}

} // namespace eole

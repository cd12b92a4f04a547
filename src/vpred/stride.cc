#include "vpred/stride.hh"

namespace eole {

// --------------------------- LastValuePredictor ---------------------------

LastValuePredictor::LastValuePredictor(const VpConfig &config,
                                       std::uint64_t seed)
    : table(1u << config.strideLog2Entries),
      mask((1u << config.strideLog2Entries) - 1),
      fpc(config.fpcVector.empty() ? Fpc::paperVector() : config.fpcVector),
      rng(seed)
{
}

std::uint32_t
LastValuePredictor::indexOf(Addr pc) const
{
    return static_cast<std::uint32_t>(pc >> 2) & mask;
}

VpLookup
LastValuePredictor::predict(Addr pc)
{
    VpLookup l;
    const Entry &e = table[indexOf(pc)];
    l.table.idx[0] = indexOf(pc);
    if (e.valid && e.tag == pc) {
        l.table.made = true;
        l.table.value = e.value;
        l.table.confident = fpc.saturated(e.conf);
    }
    l.choose(l.table);
    return l;
}

void
LastValuePredictor::commit(Addr pc, RegVal actual, const VpLookup &lookup)
{
    const VpLookup::TablePart &l = lookup.table;
    Entry &e = table[l.idx[0]];
    if (!e.valid || e.tag != pc) {
        e = Entry{};
        e.tag = pc;
        e.valid = true;
        e.value = actual;
        return;
    }
    const bool correct = l.made && l.value == actual;
    fpc.update(e.conf, correct, rng);
    // Replace the value only at zero confidence (hysteresis).
    if (e.value != actual && e.conf == 0)
        e.value = actual;
}

void
LastValuePredictor::appendSnapshot(std::string &out) const
{
    SnapshotWriter w(out);
    w.tag("lvp").u64(1).u64(table.size());
    w.end();
    w.tag("lvp.e");
    for (const Entry &e : table)
        w.flag(e.valid).u64(e.tag).u64(e.value).u64(e.conf);
    w.end();
    w.tag("lvp.rng");
    for (int i = 0; i < Rng::stateWords; ++i)
        w.u64(rng.word(i));
    w.end();
}

void
LastValuePredictor::restoreState(std::istream &is)
{
    SnapshotReader r(is, "LVP");
    r.line("lvp");
    r.fatalIf(r.u64("version") != 1, "unsupported version");
    r.fatalIf(r.u64("entries") != table.size(),
              "LVP table size mismatch");
    r.endLine();
    r.line("lvp.e");
    for (Entry &e : table) {
        e.valid = r.flag("valid");
        e.tag = r.u64("tag");
        e.value = r.u64("value");
        e.conf = static_cast<std::uint8_t>(r.u64Max("conf", fpc.max()));
    }
    r.endLine();
    r.line("lvp.rng");
    for (int i = 0; i < Rng::stateWords; ++i)
        rng.setWord(i, r.u64("word"));
    r.endLine();
}

std::unique_ptr<WarmableComponent>
LastValuePredictor::clone() const
{
    return std::make_unique<LastValuePredictor>(*this);
}

void
LastValuePredictor::copyStateFrom(const WarmableComponent &src)
{
    const auto &o = copySource<LastValuePredictor>(src, name());
    copyCheck(o.table.size() == table.size(), name(),
              "LVP table size mismatch");
    copyCheck(o.fpc.max() == fpc.max(), name(),
              "confidence-counter width mismatch");
    table = o.table;
    rng = o.rng;
}

// ----------------------------- StridePredictor ----------------------------

StridePredictor::StridePredictor(const VpConfig &config, bool two_delta,
                                 std::uint64_t seed)
    : table(1u << config.strideLog2Entries),
      mask((1u << config.strideLog2Entries) - 1), twoDelta(two_delta),
      fpc(config.fpcVector.empty() ? Fpc::paperVector() : config.fpcVector),
      rng(seed)
{
}

std::uint32_t
StridePredictor::indexOf(Addr pc) const
{
    return static_cast<std::uint32_t>(pc >> 2) & mask;
}

void
StridePredictor::predictInto(Addr pc, VpLookup::TablePart &l)
{
    l = VpLookup::TablePart{};
    Entry &e = table[indexOf(pc)];
    l.idx[0] = indexOf(pc);
    if (e.valid && e.tag == pc) {
        // Project past the in-flight instances of this static µ-op.
        const std::int64_t stride = twoDelta ? e.stride2 : e.stride1;
        l.made = true;
        l.value = e.lastValue
            + static_cast<RegVal>(stride) * (e.inflight + 1);
        l.confident = fpc.saturated(e.conf);
        if (e.inflight < 0xffff) {
            ++e.inflight;
            l.inflightNoted = true;
        }
    }
}

VpLookup
StridePredictor::predict(Addr pc)
{
    VpLookup l;
    predictInto(pc, l.table);
    l.choose(l.table);
    return l;
}

void
StridePredictor::commit(Addr pc, RegVal actual, const VpLookup &lookup)
{
    train(pc, actual, lookup.table);
}

void
StridePredictor::warmUpdate(const TraceUop &uop)
{
    if (!uop.vpPredictable())
        return;
    VpLookup::TablePart part;
    predictInto(uop.pc(), part);
    train(uop.pc(), uop.result(), part);
}

void
StridePredictor::train(Addr pc, RegVal actual,
                       const VpLookup::TablePart &l)
{
    Entry &e = table[l.idx[0]];
    if (!e.valid || e.tag != pc) {
        e = Entry{};
        e.tag = pc;
        e.valid = true;
        e.lastValue = actual;
        return;
    }
    if (l.inflightNoted && e.inflight > 0)
        --e.inflight;
    const std::int64_t new_stride =
        static_cast<std::int64_t>(actual - e.lastValue);
    if (twoDelta) {
        // Promote the stride only when seen twice in a row.
        if (new_stride == e.stride1)
            e.stride2 = new_stride;
        e.stride1 = new_stride;
    } else {
        e.stride1 = new_stride;
    }
    e.lastValue = actual;
    if (l.made)
        fpc.update(e.conf, l.value == actual, rng);
}

void
StridePredictor::appendSnapshot(std::string &out) const
{
    SnapshotWriter w(out);
    w.tag("stride").u64(1).u64(table.size()).flag(twoDelta);
    w.end();
    w.tag("stride.e");
    for (const Entry &e : table) {
        w.flag(e.valid)
            .u64(e.tag)
            .u64(e.lastValue)
            .i64(e.stride1)
            .i64(e.stride2)
            .u64(e.conf)
            .u64(e.inflight);
    }
    w.end();
    w.tag("stride.rng");
    for (int i = 0; i < Rng::stateWords; ++i)
        w.u64(rng.word(i));
    w.end();
}

void
StridePredictor::restoreStateBody(SnapshotReader &r)
{
    r.line("stride");
    r.fatalIf(r.u64("version") != 1, "unsupported version");
    r.fatalIf(r.u64("entries") != table.size(),
              "stride table size mismatch");
    r.fatalIf(r.flag("twoDelta") != twoDelta,
              "stride variant mismatch");
    r.endLine();
    r.line("stride.e");
    for (Entry &e : table) {
        e.valid = r.flag("valid");
        e.tag = r.u64("tag");
        e.lastValue = r.u64("lastValue");
        e.stride1 = r.i64("stride1");
        e.stride2 = r.i64("stride2");
        e.conf = static_cast<std::uint8_t>(r.u64Max("conf", fpc.max()));
        e.inflight =
            static_cast<std::uint16_t>(r.u64Max("inflight", 0xffff));
    }
    r.endLine();
    r.line("stride.rng");
    for (int i = 0; i < Rng::stateWords; ++i)
        rng.setWord(i, r.u64("word"));
    r.endLine();
}

void
StridePredictor::restoreState(std::istream &is)
{
    SnapshotReader r(is, name());
    restoreStateBody(r);
}

std::unique_ptr<WarmableComponent>
StridePredictor::clone() const
{
    return std::make_unique<StridePredictor>(*this);
}

void
StridePredictor::copyStateFrom(const WarmableComponent &src)
{
    const auto &o = copySource<StridePredictor>(src, name());
    copyCheck(o.table.size() == table.size(), name(),
              "stride table size mismatch");
    copyCheck(o.twoDelta == twoDelta, name(), "stride variant mismatch");
    copyCheck(o.fpc.max() == fpc.max(), name(),
              "confidence-counter width mismatch");
    table = o.table;
    rng = o.rng;
}

void
StridePredictor::squash(Addr pc, const VpLookup &lookup)
{
    squash(pc, lookup.table);
}

void
StridePredictor::squash(Addr pc, const VpLookup::TablePart &l)
{
    Entry &e = table[l.idx[0]];
    if (l.inflightNoted && e.valid && e.tag == pc && e.inflight > 0)
        --e.inflight;
}

} // namespace eole

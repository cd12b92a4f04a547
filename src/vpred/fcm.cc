#include "vpred/fcm.hh"

namespace eole {

FcmPredictor::FcmPredictor(const VpConfig &config, std::uint64_t seed)
    : histTable(1u << config.fcmHistLog2Entries),
      valueTable(1u << config.fcmValueLog2Entries),
      histMask((1u << config.fcmHistLog2Entries) - 1),
      valueMask((1u << config.fcmValueLog2Entries) - 1),
      fpc(config.fpcVector.empty() ? Fpc::paperVector() : config.fpcVector),
      rng(seed)
{
}

std::uint32_t
FcmPredictor::histIndex(Addr pc) const
{
    return static_cast<std::uint32_t>(pc >> 2) & histMask;
}

std::uint32_t
FcmPredictor::foldValue(RegVal v) const
{
    // Mangle the 64-bit value down to the context-hash contribution.
    std::uint64_t x = v * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::uint32_t>(x >> 40);
}

VpLookup
FcmPredictor::predict(Addr pc)
{
    VpLookup l;
    const HistEntry &h = histTable[histIndex(pc)];
    l.table.idx[0] = histIndex(pc);
    if (h.valid && h.tag == pc) {
        const std::uint32_t vidx = h.ctx & valueMask;
        l.table.idx[1] = vidx;
        const ValueEntry &v = valueTable[vidx];
        l.table.made = true;
        l.table.value = v.value;
        l.table.confident = fpc.saturated(v.conf);
    }
    l.choose(l.table);
    return l;
}

void
FcmPredictor::commit(Addr pc, RegVal actual, const VpLookup &lookup)
{
    const VpLookup::TablePart &l = lookup.table;
    HistEntry &h = histTable[l.idx[0]];
    if (!h.valid || h.tag != pc) {
        h = HistEntry{};
        h.tag = pc;
        h.valid = true;
        h.ctx = foldValue(actual);
        return;
    }
    if (l.made) {
        // Second level was read through the context captured at lookup.
        ValueEntry &v = valueTable[l.idx[1]];
        const bool correct = l.value == actual;
        fpc.update(v.conf, correct, rng);
        if (!correct && v.conf == 0)
            v.value = actual;
    } else {
        // First sighting of this context: install the value.
        ValueEntry &v = valueTable[h.ctx & valueMask];
        if (v.conf == 0)
            v.value = actual;
    }
    // Advance the per-PC context with the committed value (order-N
    // shift-and-fold).
    h.ctx = ((h.ctx << 7) | (h.ctx >> 25)) ^ foldValue(actual);
}

void
FcmPredictor::appendSnapshot(std::string &out) const
{
    SnapshotWriter w(out);
    w.tag("fcm").u64(1).u64(histTable.size()).u64(valueTable.size());
    w.end();
    w.tag("fcm.h");
    for (const HistEntry &h : histTable)
        w.flag(h.valid).u64(h.tag).u64(h.ctx);
    w.end();
    w.tag("fcm.v");
    for (const ValueEntry &v : valueTable)
        w.u64(v.value).u64(v.conf);
    w.end();
    w.tag("fcm.rng");
    for (int i = 0; i < Rng::stateWords; ++i)
        w.u64(rng.word(i));
    w.end();
}

void
FcmPredictor::restoreState(std::istream &is)
{
    SnapshotReader r(is, name());
    r.line("fcm");
    r.fatalIf(r.u64("version") != 1, "unsupported version");
    r.fatalIf(r.u64("histEntries") != histTable.size(),
              "FCM history-table size mismatch");
    r.fatalIf(r.u64("valueEntries") != valueTable.size(),
              "FCM value-table size mismatch");
    r.endLine();
    r.line("fcm.h");
    for (HistEntry &h : histTable) {
        h.valid = r.flag("valid");
        h.tag = r.u64("tag");
        h.ctx = static_cast<std::uint32_t>(r.u64Max("ctx", 0xffffffff));
    }
    r.endLine();
    r.line("fcm.v");
    for (ValueEntry &v : valueTable) {
        v.value = r.u64("value");
        v.conf = static_cast<std::uint8_t>(r.u64Max("conf", fpc.max()));
    }
    r.endLine();
    r.line("fcm.rng");
    for (int i = 0; i < Rng::stateWords; ++i)
        rng.setWord(i, r.u64("word"));
    r.endLine();
}

std::unique_ptr<WarmableComponent>
FcmPredictor::clone() const
{
    return std::make_unique<FcmPredictor>(*this);
}

void
FcmPredictor::copyStateFrom(const WarmableComponent &src)
{
    const auto &o = copySource<FcmPredictor>(src, name());
    copyCheck(o.histTable.size() == histTable.size(), name(),
              "FCM history-table size mismatch");
    copyCheck(o.valueTable.size() == valueTable.size(), name(),
              "FCM value-table size mismatch");
    copyCheck(o.fpc.max() == fpc.max(), name(),
              "confidence-counter width mismatch");
    histTable = o.histTable;
    valueTable = o.valueTable;
    rng = o.rng;
}

} // namespace eole

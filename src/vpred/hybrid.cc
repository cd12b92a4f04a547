#include "vpred/hybrid.hh"

namespace eole {

HybridVtage2DStride::HybridVtage2DStride(const VpConfig &config,
                                         std::uint64_t seed)
    : vt(config, seed ^ 0x1111), sp(config, true, seed ^ 0x2222)
{
}

HybridVtage2DStride::HybridVtage2DStride(const HybridVtage2DStride &o)
    : ValuePredictor(o), vt(o.vt), sp(o.sp)
{
    vt.unbindHistory();
}

std::vector<std::pair<int, int>>
HybridVtage2DStride::foldSpecs() const
{
    return vt.foldSpecs();
}

void
HybridVtage2DStride::bindHistory(const GlobalHistory &hist,
                                 std::size_t fold_base)
{
    vt.bindHistory(hist, fold_base);
}

VpLookup
HybridVtage2DStride::predict(Addr pc)
{
    VpLookup l;
    vt.predictInto(pc, l.vtage);
    sp.predictInto(pc, l.table);

    // Arbitration: confident tagged VTAGE hit > confident 2D-Stride >
    // any tagged VTAGE hit > any 2D-Stride hit > VTAGE base.
    const VpLookup::VtagePart &v = l.vtage;
    const VpLookup::TablePart &s = l.table;
    const bool vt_tagged = v.provider >= 0;
    if (vt_tagged && v.confident)
        l.choose(v);
    else if (s.made && s.confident)
        l.choose(s);
    else if (vt_tagged)
        l.choose(v);
    else if (s.made)
        l.choose(s);
    else
        l.choose(v);  // VTAGE base
    return l;
}

void
HybridVtage2DStride::commit(Addr pc, RegVal actual, const VpLookup &lookup)
{
    // Both components always train (the paper's hybrid keeps both warm).
    vt.train(pc, actual, lookup.vtage);
    sp.train(pc, actual, lookup.table);
}

void
HybridVtage2DStride::warmUpdate(const TraceUop &uop)
{
    vt.warmUpdate(uop);
    sp.warmUpdate(uop);
}

void
HybridVtage2DStride::squash(Addr pc, const VpLookup &lookup)
{
    // VTAGE tracks no in-flight instances.
    sp.squash(pc, lookup.table);
}

void
HybridVtage2DStride::appendSnapshot(std::string &out) const
{
    SnapshotWriter w(out);
    w.tag("hybrid").u64(1);
    w.end();
    vt.appendSnapshot(out);
    sp.appendSnapshot(out);
}

void
HybridVtage2DStride::restoreState(std::istream &is)
{
    SnapshotReader r(is, name());
    r.line("hybrid");
    r.fatalIf(r.u64("version") != 1, "unsupported version");
    r.endLine();
    vt.restoreStateBody(r);
    sp.restoreStateBody(r);
}

std::unique_ptr<WarmableComponent>
HybridVtage2DStride::clone() const
{
    return std::unique_ptr<WarmableComponent>(new HybridVtage2DStride(*this));
}

void
HybridVtage2DStride::copyStateFrom(const WarmableComponent &src)
{
    const auto &o = copySource<HybridVtage2DStride>(src, name());
    vt.copyStateFrom(o.vt);
    sp.copyStateFrom(o.sp);
}

} // namespace eole

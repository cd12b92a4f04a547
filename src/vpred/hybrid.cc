#include "vpred/hybrid.hh"

namespace eole {

HybridVtage2DStride::HybridVtage2DStride(const VpConfig &config,
                                         std::uint64_t seed)
    : vt(std::make_unique<Vtage>(config, seed ^ 0x1111)),
      sp(std::make_unique<StridePredictor>(config, true, seed ^ 0x2222))
{
}

HybridVtage2DStride::HybridVtage2DStride(const HybridVtage2DStride &o)
    : ValuePredictor(o), vt(static_cast<Vtage *>(o.vt->clone().release())),
      sp(std::make_unique<StridePredictor>(*o.sp))
{
}

std::vector<std::pair<int, int>>
HybridVtage2DStride::foldSpecs() const
{
    return vt->foldSpecs();
}

void
HybridVtage2DStride::bindHistory(const GlobalHistory &hist,
                                 std::size_t fold_base)
{
    vt->bindHistory(hist, fold_base);
}

VpLookup
HybridVtage2DStride::predict(Addr pc)
{
    VpLookup vtl = vt->predict(pc);
    VpLookup spl = sp->predict(pc);

    VpLookup l;
    // Arbitration: confident tagged VTAGE hit > confident 2D-Stride >
    // any tagged VTAGE hit > any 2D-Stride hit > VTAGE base.
    const bool vt_tagged = vtl.provider >= 0;
    int choice;
    if (vt_tagged && vtl.confident) {
        choice = 0;
    } else if (spl.predictionMade && spl.confident) {
        choice = 1;
    } else if (vt_tagged) {
        choice = 0;
    } else if (spl.predictionMade) {
        choice = 1;
    } else {
        choice = 0;  // VTAGE base
    }

    const VpLookup &c = choice == 0 ? vtl : spl;
    l.predictionMade = c.predictionMade;
    l.value = c.value;
    l.confident = c.confident;
    l.provider = choice;
    l.sub[0] = std::make_unique<VpLookup>(std::move(vtl));
    l.sub[1] = std::make_unique<VpLookup>(std::move(spl));
    return l;
}

void
HybridVtage2DStride::commit(Addr pc, RegVal actual, const VpLookup &lookup)
{
    // Both components always train (the paper's hybrid keeps both warm).
    vt->commit(pc, actual, *lookup.sub[0]);
    sp->commit(pc, actual, *lookup.sub[1]);
}

void
HybridVtage2DStride::squash(Addr pc, const VpLookup &lookup)
{
    vt->squash(pc, *lookup.sub[0]);
    sp->squash(pc, *lookup.sub[1]);
}

void
HybridVtage2DStride::warmUpdate(const TraceUop &uop)
{
    if (!uop.vpPredictable())
        return;
    const VpLookup vtl = vt->predict(uop.pc);
    const VpLookup spl = sp->predict(uop.pc);
    vt->commit(uop.pc, uop.result, vtl);
    sp->commit(uop.pc, uop.result, spl);
}

void
HybridVtage2DStride::snapshotState(std::ostream &os) const
{
    SnapshotWriter w(os);
    w.tag("hybrid").u64(1);
    w.end();
    vt->snapshotState(os);
    sp->snapshotState(os);
}

void
HybridVtage2DStride::restoreState(std::istream &is)
{
    SnapshotReader r(is, name());
    r.line("hybrid");
    r.fatalIf(r.u64("version") != 1, "unsupported version");
    r.endLine();
    vt->restoreStateBody(r);
    sp->restoreStateBody(r);
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
    vt->copyStateFrom(*o.vt);
    sp->copyStateFrom(*o.sp);
}

} // namespace eole

/**
 * @file
 * The paper's hybrid VTAGE-2DStride value predictor (Table 2).
 *
 * Both components predict every eligible µ-op and both train at
 * commit. Arbitration favours a confident tagged VTAGE hit (context
 * captured), then a confident 2D-Stride prediction (computational
 * patterns), then whichever component predicts at all (VTAGE base
 * last) -- maximizing usable coverage, which is exactly what EOLE
 * wants, since every predicted single-cycle µ-op is one fewer µ-op in
 * the OoO engine (§3.3).
 */

#ifndef EOLE_VPRED_HYBRID_HH
#define EOLE_VPRED_HYBRID_HH

#include "vpred/stride.hh"
#include "vpred/vtage.hh"

namespace eole {

class HybridVtage2DStride : public ValuePredictor
{
  public:
    HybridVtage2DStride(const VpConfig &config, std::uint64_t seed);

    std::vector<std::pair<int, int>> foldSpecs() const override;
    void bindHistory(const GlobalHistory &hist,
                     std::size_t fold_base) override;

    VpLookup predict(Addr pc) override;
    void commit(Addr pc, RegVal actual, const VpLookup &lookup) override;
    void squash(Addr pc, const VpLookup &lookup) override;
    /** Both components' predict -> train, without arbitration. */
    void warmUpdate(const TraceUop &uop) override;
    const char *name() const override { return "VTAGE-2DStride"; }

    /** Concatenated component snapshots (the arbitration chooser is
     *  stateless, so the two sub-predictors are the whole state). */
    void appendSnapshot(std::string &out) const override;
    void restoreState(std::istream &is) override;
    std::unique_ptr<WarmableComponent> clone() const override;
    void copyStateFrom(const WarmableComponent &src) override;

    Vtage &vtage() { return vt; }
    StridePredictor &stride() { return sp; }

  private:
    /** clone(): deep copies of both components. */
    HybridVtage2DStride(const HybridVtage2DStride &o);

    Vtage vt;
    StridePredictor sp;
};

} // namespace eole

#endif // EOLE_VPRED_HYBRID_HH

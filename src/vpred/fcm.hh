/**
 * @file
 * Finite Context Method value predictor (Sazeides & Smith, MICRO 1997).
 *
 * Two-level scheme: a per-PC value history table (first level) holds a
 * hash of the last N committed values of the instruction; a shared
 * value prediction table (second level) maps that context hash to the
 * next value. Included as the classic context-based baseline in the
 * predictor-family ablation (the EOLE paper cites FCM as the canonical
 * context-based predictor; VTAGE supersedes it).
 *
 * The first level is updated at commit only, so tight loops with many
 * in-flight instances see a stale context; this is the known weakness
 * of FCM-style predictors that VTAGE avoids (§2).
 */

#ifndef EOLE_VPRED_FCM_HH
#define EOLE_VPRED_FCM_HH

#include <vector>

#include "common/random.hh"
#include "isa/snapshot.hh"
#include "vpred/fpc.hh"
#include "vpred/value_predictor.hh"

namespace eole {

class FcmPredictor : public ValuePredictor
{
  public:
    FcmPredictor(const VpConfig &config, std::uint64_t seed);

    VpLookup predict(Addr pc) override;
    void commit(Addr pc, RegVal actual, const VpLookup &lookup) override;
    const char *name() const override { return "FCM"; }

    void snapshotState(std::ostream &os) const override;
    void restoreState(std::istream &is) override;
    std::unique_ptr<WarmableComponent> clone() const override;
    void copyStateFrom(const WarmableComponent &src) override;

  private:
    struct HistEntry
    {
        std::uint64_t tag = 0;
        bool valid = false;
        std::uint32_t ctx = 0;
    };

    struct ValueEntry
    {
        RegVal value = 0;
        std::uint8_t conf = 0;
    };

    std::uint32_t histIndex(Addr pc) const;
    std::uint32_t foldValue(RegVal v) const;

    std::vector<HistEntry> histTable;
    std::vector<ValueEntry> valueTable;
    std::uint32_t histMask;
    std::uint32_t valueMask;
    Fpc fpc;
    Rng rng;
};

} // namespace eole

#endif // EOLE_VPRED_FCM_HH

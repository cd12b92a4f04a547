/**
 * @file
 * VTAGE context-based value predictor (Perais & Seznec, HPCA 2014).
 *
 * Like the ITTAGE indirect-branch predictor, VTAGE selects a predicted
 * *value* using the program counter hashed with geometrically
 * increasing lengths of global branch history. Its key property (§2 of
 * the EOLE paper) is that it does not need the previous value of the
 * instruction to predict the current one, so it needs no in-flight
 * value tracking and tolerates deep pipelines naturally.
 *
 * Structure (Table 2): 8192-entry tagless last-value base + 6 tagged
 * components of 1024 entries, tags of 12+rank bits, 3-bit FPC
 * confidence, 1-bit usefulness, history lengths {2,4,8,16,32,64}.
 */

#ifndef EOLE_VPRED_VTAGE_HH
#define EOLE_VPRED_VTAGE_HH

#include <vector>

#include "common/random.hh"
#include "isa/snapshot.hh"
#include "vpred/fpc.hh"
#include "vpred/value_predictor.hh"

namespace eole {

class Vtage : public ValuePredictor
{
  public:
    Vtage(const VpConfig &config, std::uint64_t seed);

    std::vector<std::pair<int, int>> foldSpecs() const override;
    void bindHistory(const GlobalHistory &hist,
                     std::size_t fold_base) override;

    VpLookup predict(Addr pc) override;
    void commit(Addr pc, RegVal actual, const VpLookup &lookup) override;
    const char *name() const override { return "VTAGE"; }

    /** Predict into VTAGE's own part (predict() and the hybrid). */
    void predictInto(Addr pc, VpLookup::VtagePart &part) const;
    /** Retirement-order training from VTAGE's own part. */
    void train(Addr pc, RegVal actual, const VpLookup::VtagePart &part);

    void snapshotState(std::ostream &os) const override;
    void restoreState(std::istream &is) override;
    /** Hybrid embedding: restore from an already-open reader. */
    void restoreStateBody(SnapshotReader &r);
    /** Tables and RNG; the clone is bound to no history. */
    std::unique_ptr<WarmableComponent> clone() const override;
    /** Tables and RNG; this instance keeps its history binding. */
    void copyStateFrom(const WarmableComponent &src) override;

    /** Drop the history binding (a copy must not share it). */
    void unbindHistory() { hist = nullptr; }

    int histLength(int comp) const { return histLens[comp]; }

  private:
    struct BaseEntry
    {
        RegVal value = 0;
        std::uint8_t conf = 0;
    };

    // Widest member first so the entry packs into 16 bytes instead of
    // 24 — the tagged components are the predictor's cache footprint.
    struct TaggedEntry
    {
        RegVal value = 0;
        std::uint16_t tag = 0;
        std::uint8_t conf = 0;
        std::uint8_t u = 0;
        bool valid = false;
    };

    /** Entries per tagged component. */
    std::size_t
    compEntries() const
    {
        return std::size_t{1} << cfg.vtageTaggedLog2Entries;
    }

    /** Entry @p idx of tagged component @p comp. */
    TaggedEntry &
    entry(int comp, std::uint32_t idx)
    {
        return tagged[static_cast<std::size_t>(comp) * compEntries() + idx];
    }

    const TaggedEntry &
    entry(int comp, std::uint32_t idx) const
    {
        return tagged[static_cast<std::size_t>(comp) * compEntries() + idx];
    }

    std::uint32_t baseIndex(Addr pc) const;
    std::uint32_t taggedIndex(Addr pc, int comp) const;
    std::uint16_t taggedTag(Addr pc, int comp) const;
    int tagBitsOf(int comp) const;

    VpConfig cfg;
    std::vector<int> histLens;
    std::vector<BaseEntry> base;
    /** Every tagged component in one row-major allocation. */
    std::vector<TaggedEntry> tagged;
    const GlobalHistory *hist = nullptr;
    std::size_t foldBase = 0;
    Fpc fpc;
    Rng rng;
};

} // namespace eole

#endif // EOLE_VPRED_VTAGE_HH

/**
 * @file
 * TAGE conditional branch predictor (Seznec & Michaud, JILP 2006) with
 * storage-free confidence estimation (Seznec, HPCA 2011).
 *
 * Configuration follows Table 1 of the EOLE paper: 1 base + 12 tagged
 * components, ~15K entries total, 20-cycle minimum misprediction
 * penalty (modeled by the pipeline). The confidence estimate drives
 * Late Execution of very-high-confidence branches: a prediction is
 * "high confidence" when the providing counter is saturated, which
 * empirically yields misprediction rates below ~0.5% (§3.3).
 */

#ifndef EOLE_BPRED_TAGE_HH
#define EOLE_BPRED_TAGE_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/sat_counter.hh"
#include "common/types.hh"
#include "bpred/history.hh"
#include "isa/snapshot.hh"

namespace eole {

/** TAGE geometry. Defaults follow the paper's 1+12 / 15K-entry setup.
 *  String-addressable as "bp.tage.*" via the parameter registry
 *  (sim/params.hh); new fields must be registered there. */
struct TageConfig
{
    int numTagged = 12;
    int taggedLog2Entries = 10;   //!< 1K entries per tagged component
    int baseLog2Entries = 12;     //!< 4K-entry bimodal base
    int tagBits = 12;
    int ctrBits = 3;
    int uBits = 2;
    int minHist = 4;
    int maxHist = 640;
    /** Periodic useful-bit reset interval (branches). */
    std::uint64_t uResetPeriod = 256 * 1024;
};

/** Per-lookup state carried by a branch until commit-time training. */
struct TageLookup
{
    static constexpr int maxComps = 16;
    std::uint32_t idx[maxComps] = {};
    std::uint16_t tag[maxComps] = {};
    std::uint32_t baseIdx = 0;
    int provider = -1;            //!< -1 = base predictor provided
    int altProvider = -1;         //!< alternate (next-longest hit)
    bool providerPred = false;
    bool altPred = false;         //!< alt (or base) prediction
    bool usedAlt = false;         //!< newly-allocated entry bypassed
    bool predTaken = false;
    bool highConf = false;
};

/**
 * The TAGE predictor. The caller owns the GlobalHistory (shared with
 * other history-indexed structures) and passes it at lookup; the fold
 * specs this predictor requires are exposed by foldSpecs().
 */
class Tage
{
  public:
    explicit Tage(const TageConfig &config, std::uint64_t seed = 0x7a6e);

    /**
     * History fold specs: for each tagged component, one index fold and
     * two tag folds. Register these (in order, starting at
     * @p fold_base) with the shared GlobalHistory.
     */
    std::vector<std::pair<int, int>> foldSpecs() const;

    /**
     * Predict the direction of the conditional branch at @p pc.
     *
     * @param pc branch byte PC
     * @param hist global history (folds registered via foldSpecs)
     * @param fold_base index of this predictor's first fold in hist
     * @param out lookup record to carry until training
     * @return predicted direction
     */
    bool predict(Addr pc, const GlobalHistory &hist, std::size_t fold_base,
                 TageLookup &out);

    /**
     * Train with the resolved outcome (call in commit order, using the
     * lookup record captured at fetch).
     */
    void update(Addr pc, bool taken, const TageLookup &lookup);

    /** History length of tagged component @p i (tests/inspection). */
    int histLength(int i) const { return histLens[i]; }

    /** Serialize tables, meta-predictor, update counter and RNG as
     *  canonical text (isa/snapshot.hh). */
    void snapshotState(SnapshotWriter &w) const;

    /** Restore into a same-geometry instance (fatal with section/line
     *  context on mismatch or malformed input). */
    void restoreState(SnapshotReader &r);

    /** The by-value restoreState (isa/warmable.hh): same geometry
     *  checks, plus equal counter and tag widths. */
    void copyStateFrom(const Tage &o);

  private:
    /**
     * Bounds of a signed saturating counter stored as a bare int8_t:
     * entries hold only the value, the table holds the bounds once.
     * "Taken" is predicted when the value is >= 0.
     */
    struct CtrRange
    {
        std::int8_t lo;
        std::int8_t hi;

        void
        update(std::int8_t &c, bool taken) const
        {
            if (taken) {
                if (c < hi)
                    ++c;
            } else if (c > lo) {
                --c;
            }
        }

        bool saturated(std::int8_t c) const { return c == lo || c == hi; }
    };

    /** Packed into 4 bytes: the registry caps tagBits at 16 and
     *  ctrBits and uBits at 8 (the constructor enforces it). */
    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        std::int8_t ctr = 0;
        std::uint8_t u = 0;
    };

    /** The two central states, -1 and 0: newly allocated entries
     *  start weak. */
    static bool isWeak(std::int8_t c) { return c == 0 || c == -1; }

    /** Entries per tagged component. */
    std::size_t
    compEntries() const
    {
        return std::size_t{1} << cfg.taggedLog2Entries;
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
    std::uint32_t taggedIndex(Addr pc, const GlobalHistory &hist,
                              std::size_t fold_base, int comp) const;
    std::uint16_t taggedTag(Addr pc, const GlobalHistory &hist,
                            std::size_t fold_base, int comp) const;

    TageConfig cfg;
    CtrRange taggedCtr;
    static constexpr CtrRange baseCtr{-2, 1};
    std::vector<int> histLens;
    /** Every tagged component in one row-major allocation. */
    std::vector<TaggedEntry> tagged;
    /** 2-bit bimodal counters, in baseCtr's bounds. */
    std::vector<std::int8_t> base;
    /** use_alt_on_newly_allocated bias counter (TAGE standard). */
    SignedSatCounter useAltOnNa;
    Rng rng;
    std::uint64_t updates = 0;
};

} // namespace eole

#endif // EOLE_BPRED_TAGE_HH

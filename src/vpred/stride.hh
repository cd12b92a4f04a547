/**
 * @file
 * Computational value predictors: Last-Value, Stride, and 2-Delta
 * Stride (Eickemeyer & Vassiliadis, IBM JRD 1993).
 *
 * All three are PC-indexed tables with full tags (Table 2 of the EOLE
 * paper gives the 2-Delta Stride predictor 8192 entries with full
 * tags). Stride predictors must account for in-flight instances of the
 * same static µ-op: the prediction for the (k+1)-th in-flight instance
 * is lastCommittedValue + stride * (k+1).
 */

#ifndef EOLE_VPRED_STRIDE_HH
#define EOLE_VPRED_STRIDE_HH

#include <vector>

#include "common/random.hh"
#include "isa/snapshot.hh"
#include "vpred/fpc.hh"
#include "vpred/value_predictor.hh"

namespace eole {

/** Last-Value predictor (Lipasti et al.). */
class LastValuePredictor : public ValuePredictor
{
  public:
    LastValuePredictor(const VpConfig &config, std::uint64_t seed);

    VpLookup predict(Addr pc) override;
    void commit(Addr pc, RegVal actual, const VpLookup &lookup) override;
    const char *name() const override { return "LVP"; }

    void appendSnapshot(std::string &out) const override;
    void restoreState(std::istream &is) override;
    std::unique_ptr<WarmableComponent> clone() const override;
    void copyStateFrom(const WarmableComponent &src) override;

  private:
    struct Entry
    {
        std::uint64_t tag = 0;
        bool valid = false;
        RegVal value = 0;
        std::uint8_t conf = 0;
    };

    std::uint32_t indexOf(Addr pc) const;

    std::vector<Entry> table;
    std::uint32_t mask;
    Fpc fpc;
    Rng rng;
};

/**
 * Stride / 2-Delta Stride predictor. The 2-delta variant only updates
 * the predicting stride when the same stride is observed twice in a
 * row, which avoids retraining glitches on a single irregular value.
 */
class StridePredictor : public ValuePredictor
{
  public:
    /**
     * @param two_delta true for 2-Delta Stride, false for plain Stride
     */
    StridePredictor(const VpConfig &config, bool two_delta,
                    std::uint64_t seed);

    VpLookup predict(Addr pc) override;
    void commit(Addr pc, RegVal actual, const VpLookup &lookup) override;
    void squash(Addr pc, const VpLookup &lookup) override;
    void warmUpdate(const TraceUop &uop) override;
    const char *name() const override
    {
        return twoDelta ? "2D-Stride" : "Stride";
    }

    /** Predict into the table part (predict() and the hybrid). */
    void predictInto(Addr pc, VpLookup::TablePart &part);
    /** Retirement-order training from the stride's own part. */
    void train(Addr pc, RegVal actual, const VpLookup::TablePart &part);
    /** Squash of the instance @p part predicted. */
    void squash(Addr pc, const VpLookup::TablePart &part);

    void appendSnapshot(std::string &out) const override;
    void restoreState(std::istream &is) override;
    /** Hybrid embedding: restore from an already-open reader. */
    void restoreStateBody(SnapshotReader &r);
    std::unique_ptr<WarmableComponent> clone() const override;
    void copyStateFrom(const WarmableComponent &src) override;

  private:
    // Narrow fields after the 64-bit ones keep an entry at 40 bytes.
    struct Entry
    {
        std::uint64_t tag = 0;
        RegVal lastValue = 0;
        std::int64_t stride1 = 0;  //!< last observed stride
        std::int64_t stride2 = 0;  //!< confirmed (predicting) stride
        std::uint16_t inflight = 0;
        std::uint8_t conf = 0;
        bool valid = false;
    };

    std::uint32_t indexOf(Addr pc) const;

    std::vector<Entry> table;
    std::uint32_t mask;
    bool twoDelta;
    Fpc fpc;
    Rng rng;
};

} // namespace eole

#endif // EOLE_VPRED_STRIDE_HH

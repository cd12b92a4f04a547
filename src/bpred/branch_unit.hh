/**
 * @file
 * Front-end branch prediction unit: TAGE direction prediction with
 * storage-free confidence, BTB targets, return-address stack, and the
 * speculative global history shared with VTAGE.
 *
 * The unit owns the one GlobalHistory instance of the core. Value
 * predictors that need history folds (VTAGE) register their fold specs
 * at construction and index them via extraFoldBase().
 */

#ifndef EOLE_BPRED_BRANCH_UNIT_HH
#define EOLE_BPRED_BRANCH_UNIT_HH

#include <memory>
#include <utility>
#include <vector>

#include "bpred/btb.hh"
#include "bpred/history.hh"
#include "bpred/tage.hh"
#include "common/slab.hh"
#include "isa/trace.hh"
#include "isa/warmable.hh"

namespace eole {

/** Branch-prediction related configuration (Table 1 defaults).
 *  String-addressable as "bp.*" via the parameter registry
 *  (sim/params.hh); new fields must be registered there. */
struct BpConfig
{
    TageConfig tage;
    int btbLog2Entries = 12;  //!< 4K-entry BTB
    int btbWays = 2;
    int rasEntries = 32;

    /**
     * JRS-style resetting-counter filter on "very high confidence".
     * The paper relies on TAGE counter saturation alone (storage-free,
     * Seznec 2011), which works on SPEC's branch mix; our synthetic
     * kernels concentrate mid-bias branches, so an additional small
     * filter keeps the LE-branch misprediction rate below the ~0.5%
     * the paper assumes (see DESIGN.md §5). 0 disables the filter.
     */
    int confLog2Entries = 11;
    int confBits = 4;
};

/**
 * Per-branch prediction record, carried in the DynInst from fetch to
 * commit (for training) and to resolution (for repair).
 */
struct BranchPrediction
{
    bool predTaken = true;
    Addr predTarget = 0;
    bool highConf = false;   //!< saturated TAGE counter: LE-eligible
    bool btbMiss = false;    //!< direct taken branch without a target:
                             //!< short decode-redirect bubble
    bool mispredict = false; //!< direction or target wrong: full squash
    TageLookup tage;
};

/**
 * The front-end prediction unit. predictBranch() both predicts and
 * speculatively updates history/RAS; snapshots allow exact repair on
 * squashes.
 */
class BranchUnit : public WarmableComponent
{
  public:
    /** Combined front-end speculative state checkpoint. */
    struct Snapshot
    {
        GlobalHistory::Snapshot hist;
        Ras::Snapshot ras;
    };

    /**
     * Handle to a snapshot, carried per µ-op in the DynInst. Pooled
     * with the reuse policy (common/slab.hh): every snapshot of one
     * unit has the same shape, so recycled objects keep their fold
     * and RAS buffer capacities and a per-branch checkpoint costs two
     * memcpy-sized copies, no allocation. Treat the pointee as
     * immutable outside BranchUnit (the shared_ptr<const Snapshot>
     * this replaces enforced that in the type).
     */
    using SnapshotPtr = PooledPtr<Snapshot>;

    /**
     * @param config predictor geometry
     * @param extra_folds history folds required by other units (VTAGE)
     * @param seed RNG seed for the TAGE allocation policy
     */
    BranchUnit(const BpConfig &config,
               const std::vector<std::pair<int, int>> &extra_folds,
               std::uint64_t seed = 0xb7a9e);

    /** The shared speculative global history. */
    const GlobalHistory &history() const { return hist; }

    /** First fold index belonging to the extra (VTAGE) specs. */
    std::size_t extraFoldBase() const { return extraBase; }

    /**
     * Predict the branch µ-op @p uop at fetch and speculatively update
     * history and RAS. The returned record notes whether the prediction
     * is wrong (the oracle outcome is in the trace record); the pipeline
     * applies the penalty at resolution time.
     *
     * @param uop the branch µ-op (with oracle outcome)
     * @param pre_out filled with the pre-update checkpoint
     */
    BranchPrediction predictBranch(const TraceUop &uop,
                                   SnapshotPtr &pre_out);

    /**
     * Checkpoint of the current speculative state (cached; cheap when
     * called repeatedly between branches).
     */
    SnapshotPtr currentSnapshot();

    /**
     * Repair after a mispredicted branch resolves: restore the
     * pre-branch state and apply the branch's actual outcome.
     */
    void repairAfterBranch(const TraceUop &uop, const SnapshotPtr &pre);

    /** Restore to an arbitrary checkpoint (value/memory squashes). */
    void restoreTo(const SnapshotPtr &snap);

    /** Commit-time training (call in retirement order). */
    void commitBranch(const TraceUop &uop, const BranchPrediction &bp);

    /**
     * Functional warming (isa/warmable.hh): predict the branch, repair
     * the speculative state on a wrong prediction (exactly what the
     * pipeline does at resolution) and train immediately. Predict ->
     * train collapses the pipeline's fetch-to-commit window to zero;
     * histories and the RAS evolve identically to a detailed run of
     * the same stream, TAGE/BTB tables see commit-order updates
     * without in-flight overlap (see DESIGN.md §8).
     */
    void warmUpdate(const TraceUop &uop) override;

    /** Serialize TAGE tables, global history (with folds and raw
     *  bits), BTB, RAS and the JRS confidence filter (canonical text;
     *  isa/warmable.hh contract). */
    void appendSnapshot(std::string &out) const override;

    /** Restore into a same-geometry unit; subsequent predictions are
     *  decision-identical to the snapshotted unit (pinned by
     *  tests/test_ckpt_state.cc). */
    void restoreState(std::istream &is) override;

    /** A detached unit with this one's tables, history, BTB, RAS and
     *  filter, and its own (empty) snapshot pool. */
    std::unique_ptr<WarmableComponent> clone() const override;

    /** Copy another unit's state into this same-geometry one. */
    void copyStateFrom(const WarmableComponent &src) override;

  private:
    /** clone(): every state member; the snapshot pool starts empty. */
    BranchUnit(const BranchUnit &o);

    /** Apply the architectural effect of @p uop with outcome @p taken. */
    void speculativeApply(const TraceUop &uop, bool taken, Addr target);

    /** JRS confidence-filter slot for @p pc. */
    std::uint8_t &confSlot(Addr pc);

    BpConfig cfg;
    Tage tage;
    GlobalHistory hist;
    Btb btb;
    Ras ras;
    std::vector<std::uint8_t> confTable;
    std::size_t extraBase = 0;
    /** Declared before `cached` so the cached handle drops before the
     *  pool is destroyed. In-flight handles live in DynInsts, which
     *  PipelineState's member order destroys before the BranchUnit. */
    SlabPool<Snapshot> snapPool{64, SlabRecycle::reuse};
    SnapshotPtr cached;
};

} // namespace eole

#endif // EOLE_BPRED_BRANCH_UNIT_HH

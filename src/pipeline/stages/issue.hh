/**
 * @file
 * Issue/execute stage: the out-of-order engine.
 *
 * Oldest-first selection over the IQ under FU-pool and issue-width
 * constraints, Store Sets memory-dependence enforcement, execution
 * with a latency oracle (loads access the memory hierarchy, with
 * store-to-load forwarding and memory-order violation detection on
 * store execute).
 */

#ifndef EOLE_PIPELINE_STAGES_ISSUE_HH
#define EOLE_PIPELINE_STAGES_ISSUE_HH

#include "pipeline/dyn_inst.hh"
#include "sim/config.hh"

namespace eole {

struct PipelineState;

class IssueStage
{
  public:
    explicit IssueStage(const SimConfig &cfg);

    void tick(PipelineState &st);
    /** Drop the IQ entries the ROB walk marked squashed. */
    void squash(PipelineState &st);

  private:
    /** @return false when execution is blocked and must retry (e.g. a
     *  partial store overlap). */
    bool executeInst(PipelineState &st, const DynInstPtr &di);
    void finishExec(PipelineState &st, const DynInstPtr &di, RegVal value,
                    Cycle ready);
    bool storeExecuted(const PipelineState &st, SeqNum store_seq) const;
    void checkStoreViolation(PipelineState &st, const DynInstPtr &store);

    int issueWidth;

    /** True while tick() is scanning/compacting st.iq in place; makes
     *  a re-entrant squash() (store violation mid-scan) defer its IQ
     *  erase to the scan's own compaction. */
    bool scanning = false;

    /** Set by a deferred mid-scan squash(); disables the scan's
     *  early-stop so its compaction reaches the marked entries. */
    bool squashedDuringScan = false;

    /** Issue-free-cycle skip (armed by tick() when a full scan proves
     *  nothing can issue before wakeAt absent a wake event; see the
     *  proof in tick()). wakeAt == invalidCycle means "only a wake
     *  event (PipelineState::iqWakeEpoch) can end the sleep". */
    bool asleep = false;
    Cycle wakeAt = 0;
    std::uint64_t wakeEpoch = 0;
};

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_ISSUE_HH

/**
 * @file
 * Commit stage: in-order retirement.
 *
 * Retires up to commitWidth µ-ops per cycle from the ROB head. When
 * value prediction or Late Execution is enabled, commit owns the LE/VT
 * stage and drives its pre-commit work per retiring µ-op: port
 * reservation, Late Execution, validation of used predictions (a
 * mismatch squashes the pipeline after retiring the mispredicted µ-op)
 * and predictor training. Every committed µ-op is checked against the
 * functional oracle (self-verification). On a full squash, commit owns
 * the ROB/LSQ walk-back.
 */

#ifndef EOLE_PIPELINE_STAGES_COMMIT_HH
#define EOLE_PIPELINE_STAGES_COMMIT_HH

#include <optional>

#include "pipeline/dyn_inst.hh"
#include "pipeline/stages/levt.hh"
#include "sim/config.hh"

namespace eole {

struct PipelineState;

class CommitStage
{
  public:
    explicit CommitStage(const SimConfig &cfg);

    void tick(PipelineState &st);
    /** Walk the ROB and the LSQ back to @p keep_seq, youngest first. */
    void squash(PipelineState &st, SeqNum keep_seq);

    /** Does this core have the LE/VT stage (value prediction or Late
     *  Execution configured)? */
    bool hasLevt() const { return levt.has_value(); }

  private:
    bool readyToRetire(const PipelineState &st, const DynInst &di) const;

    int commitWidth;
    /** Writeback->commit delay plus the LE/VT cycle when VP is on
     *  (§4.1). */
    Cycle retireDelay;
    /** The pre-commit LE/VT stage, built only when it has work: used
     *  predictions to validate and train, or µ-ops routed to Late
     *  Execution. */
    std::optional<LevtStage> levt;
};

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_COMMIT_HH

/**
 * @file
 * Dispatch stage: ROB/IQ/LSQ allocation.
 *
 * Moves renamed µ-ops into the out-of-order window. Early-Execution
 * results and used value predictions are written to the PRF here,
 * consuming the constrained EE write ports (§6.3); early-executed and
 * late-executable µ-ops bypass the IQ entirely.
 */

#ifndef EOLE_PIPELINE_STAGES_DISPATCH_HH
#define EOLE_PIPELINE_STAGES_DISPATCH_HH

#include "sim/config.hh"

namespace eole {

struct PipelineState;

class DispatchStage
{
  public:
    explicit DispatchStage(const SimConfig &cfg);

    void tick(PipelineState &st);

  private:
    int dispatchWidth;
    int iqEntries;
};

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_DISPATCH_HH

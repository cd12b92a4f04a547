/**
 * @file
 * Fetch stage: instruction supply from the trace source.
 *
 * Models an 8-wide fetch with a 2-taken-branch limit, I-cache access
 * through the memory hierarchy, TAGE/BTB/RAS branch prediction and
 * value prediction at fetch (§4.2 of the paper). Fetched µ-ops enter
 * the latency/bandwidth-constrained front-end pipe toward rename.
 * Fetch stalls behind a branch known to be mispredicted (the simulator
 * is trace-driven and models no wrong path) and on BTB-miss redirect
 * bubbles.
 */

#ifndef EOLE_PIPELINE_STAGES_FETCH_HH
#define EOLE_PIPELINE_STAGES_FETCH_HH

#include "common/types.hh"
#include "sim/config.hh"

namespace eole {

struct PipelineState;

class FetchStage
{
  public:
    explicit FetchStage(const SimConfig &cfg);

    void tick(PipelineState &st);
    /** Drop front-end µ-ops younger than @p keep_seq; fetch resumes no
     *  earlier than @p resume_fetch_at. */
    void squash(PipelineState &st, SeqNum keep_seq, Cycle resume_fetch_at);

  private:
    int fetchWidth;
    int maxTakenBranchesPerFetch;
    int btbMissBubble;
    Cycle l1iHitLatency;
};

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_FETCH_HH

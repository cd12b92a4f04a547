/**
 * @file
 * Completion/writeback stage.
 *
 * Drains the scheduled-completion calendar: marks µ-ops complete when
 * their latency elapses and resolves branch mispredictions discovered
 * at execute (late-executed branches resolve in the LE/VT stage
 * instead).
 */

#ifndef EOLE_PIPELINE_STAGES_COMPLETION_HH
#define EOLE_PIPELINE_STAGES_COMPLETION_HH

namespace eole {

struct PipelineState;

class CompletionStage
{
  public:
    void tick(PipelineState &st);
};

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_COMPLETION_HH

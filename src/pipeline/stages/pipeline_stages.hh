/**
 * @file
 * The six stages of the EOLE core, held by value in one fixed pipeline.
 *
 * The paper's core has one shape (§3.2-3.3): Early Execution runs
 * beside Rename, and the LE/VT stage sits just before Commit, which
 * drives it for each retiring µ-op (CommitStage owns it when value
 * prediction or Late Execution is on). This struct states the two
 * orders the stages are walked in, once each: the tick order, with the
 * profiler section that times each tick, and the unwind order of a
 * full squash. Core owns it; PipelineState reaches it through its
 * `stages` pointer to unwind and redirect.
 */

#ifndef EOLE_PIPELINE_STAGES_PIPELINE_STAGES_HH
#define EOLE_PIPELINE_STAGES_PIPELINE_STAGES_HH

#include "common/profiler.hh"
#include "pipeline/stages/commit.hh"
#include "pipeline/stages/completion.hh"
#include "pipeline/stages/dispatch.hh"
#include "pipeline/stages/fetch.hh"
#include "pipeline/stages/issue.hh"
#include "pipeline/stages/rename.hh"
#include "sim/config.hh"

namespace eole {

struct PipelineStages
{
    explicit PipelineStages(const SimConfig &cfg)
        : commit(cfg), issue(cfg), dispatch(cfg), rename(cfg), fetch(cfg)
    {
    }

    CompletionStage completion;
    CommitStage commit;
    IssueStage issue;
    DispatchStage dispatch;
    RenameStage rename;
    FetchStage fetch;

    /**
     * Call @p visit(stage, section) on each stage in tick order, with
     * the profiler section that times the stage's tick. Back of the
     * pipeline first, so a µ-op spends at least one cycle in every
     * structure.
     */
    template <typename Visit>
    void
    forEach(Visit &&visit)
    {
        visit(completion, prof::StageCompletion);
        visit(commit, prof::StageCommit);
        visit(issue, prof::StageIssue);
        visit(dispatch, prof::StageDispatch);
        visit(rename, prof::StageRename);
        visit(fetch, prof::StageFetch);
    }

    /**
     * Unwind everything younger than @p keep_seq. The order matters:
     * rename's output buffer holds the youngest renamed µ-ops and must
     * restore its map entries before commit's ROB walk does (youngest
     * first), and the IQ prune relies on the ROB walk having marked
     * its squashed entries.
     */
    void
    squash(PipelineState &st, SeqNum keep_seq, Cycle resume_fetch_at)
    {
        rename.squash(st, keep_seq);
        commit.squash(st, keep_seq);
        issue.squash(st);
        fetch.squash(st, keep_seq, resume_fetch_at);
    }
};

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_PIPELINE_STAGES_HH

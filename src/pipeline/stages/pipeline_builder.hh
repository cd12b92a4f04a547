/**
 * @file
 * Config-driven assembly of the stage pipeline.
 *
 * The Core conductor owns a StagePipeline: the stage objects in tick
 * order (back of the pipe first, so a µ-op spends at least one cycle
 * in every structure) plus the squash unwind order (rename's output
 * buffer restores its map entries before the ROB walk; the IQ prune
 * runs after the ROB walk marked dead entries).
 *
 * buildDefaultPipeline() instantiates stages from the SimConfig: the
 * LE/VT pre-commit stage exists only when value prediction or Late
 * Execution is configured. replace() swaps in a custom Stage
 * implementation to instrument or vary a single stage without touching
 * the rest of the pipeline (tests/test_eole.cc does).
 */

#ifndef EOLE_PIPELINE_STAGES_PIPELINE_BUILDER_HH
#define EOLE_PIPELINE_STAGES_PIPELINE_BUILDER_HH

#include <memory>
#include <string>
#include <vector>

#include "pipeline/stages/stage.hh"
#include "sim/config.hh"

namespace eole {

struct StagePipeline
{
    /** Stages in tick order (commit side first, fetch last). */
    std::vector<std::unique_ptr<Stage>> stages;

    /** Squash/redirect unwind order (subset of stages, non-owning). */
    std::vector<Stage *> squashOrder;

    /** Find a stage by its name() ("fetch", "rename", ...); nullptr
     *  when absent (e.g. "levt" on a VP-less pipeline). */
    Stage *byName(const std::string &stage_name) const;

    /**
     * Replace the stage called @p stage_name with @p replacement
     * (which must report the same name()), rewiring the squash order
     * and the commit->LE/VT link. Fatal if no such stage exists.
     */
    void replace(const std::string &stage_name,
                 std::unique_ptr<Stage> replacement);

    /** Re-establish cross-stage links (commit -> LE/VT). */
    void wire();
};

/** Build the standard seven-stage EOLE pipeline for @p cfg. */
StagePipeline buildDefaultPipeline(const SimConfig &cfg);

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_PIPELINE_BUILDER_HH

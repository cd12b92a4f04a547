/**
 * @file
 * The cycle-level out-of-order core with EOLE support.
 *
 * Pipeline shape (Table 1 + §3 of the paper):
 *
 *   Fetch (8-wide, 2 taken branches, TAGE/BTB/RAS, value predictor)
 *     -> 15-cycle in-order front end (modeled as a latency/bandwidth
 *        constrained pipe)
 *   Rename (8-wide, banked PRF allocation; EARLY EXECUTION happens
 *     here, in parallel, per §3.2)
 *   Dispatch (ROB/IQ/LSQ allocation; EE results and used predictions
 *     are written to the PRF here, consuming EE write ports)
 *   Issue (6-wide OoO, oldest-first, FU pools, Store Sets)
 *   Execute/Writeback (latency oracle; loads access the hierarchy)
 *   LE/VT pre-commit stage (LATE EXECUTION of predicted single-cycle
 *     ALU µ-ops and very-high-confidence branches; prediction
 *     validation and predictor training; §3.3) -- adds one cycle when
 *     VP is enabled
 *   Commit (8-wide, in order)
 *
 * Each stage is a separate object (src/pipeline/stages/) operating on
 * the shared PipelineState substrate; Core owns them by value in one
 * fixed PipelineStages and ticks them in reverse pipeline order each
 * cycle (see DESIGN.md §2). The stages count into one CoreStats record,
 * the base of PipelineState, which stats() returns as it stands.
 *
 * Recovery is always full pipeline squash + front-end re-fetch: branch
 * mispredictions at execute (or at LE/VT for high-confidence
 * branches), value mispredictions at validation, and memory-order
 * violations at store execute.
 *
 * The simulator is trace-driven (no wrong-path µ-ops; see DESIGN.md
 * §5) and self-checking: at commit, every µ-op's recomputed result is
 * compared against the functional KernelVM oracle.
 */

#ifndef EOLE_PIPELINE_CORE_HH
#define EOLE_PIPELINE_CORE_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "pipeline/core_stats.hh"
#include "pipeline/pipeline_state.hh"
#include "pipeline/stages/pipeline_stages.hh"
#include "sim/config.hh"
#include "workloads/workload.hh"

namespace eole {

/** One core simulation instance: one configuration x one workload. */
class Core
{
  public:
    Core(const SimConfig &config, const Workload &workload);
    ~Core();

    /** PipelineState::stages points at this core's `stages` member, so
     *  a Core is neither copied nor moved (deleting the copy
     *  operations also removes the implicit moves). */
    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /**
     * Run until @p target_commits more µ-ops commit (or the trace
     * drains / @p max_cycles elapse).
     * @return µ-ops committed during this call
     */
    std::uint64_t run(std::uint64_t target_commits,
                      std::uint64_t max_cycles = ~0ULL);

    /** Zero the statistics (end of warmup). Predictor/cache state and
     *  in-flight pipeline state are preserved. */
    void resetStats();

    /**
     * Open a clean measurement window on the warmed substrate: zero
     * every statistic including the memory-hierarchy counters (which
     * resetStats leaves accumulating, a behaviour the full-run golden
     * records pin). Predictor/cache/pipeline state is preserved. Used
     * by the sampling subsystem between detailed warmup and the
     * measured interval (sim/sample/).
     */
    void resetTiming();

    /**
     * Functional warming (SMARTS-style): stream trace µ-ops
     * [@p begin, @p end) through the warmable components only — branch
     * unit, value predictor, memory hierarchy (isa/warmable.hh) — with
     * no timing simulation. The core clock advances to cover the
     * warming pseudo-cycles so warmed cache fills are in the past when
     * detailed simulation resumes. Call before any detailed run()
     * whose start point is at µ-op @p end (the checkpointed-start
     * path, see sim/sample/).
     */
    void functionalWarm(const FrozenTrace &trace, std::uint64_t begin,
                        std::uint64_t end);

    /**
     * Attach this core's warmed microarchitectural state to @p ckpt as
     * named sections ("branch", "vpred" when value prediction is
     * configured, "mem"; isa/checkpoint.hh schema eole-ckpt-v2), each
     * a by-value copy of its component (WarmableComponent::clone).
     * Also stamps the provenance config name from the SimConfig. Call
     * between warming passes — the captured state is exactly what
     * continuous functional warming produced so far.
     */
    void captureWarmState(Checkpoint &ckpt) const;

    /**
     * Append to @p out the text of @p arch (an architectural
     * checkpoint) with this core's warmed state as its sections: the
     * bytes checkpointString gives after captureWarmState, with each
     * component rendered straight into @p out instead of copied. For a
     * checkpoint that only leaves the process (a `ckpt save` file, a
     * store object).
     */
    void appendWarmCheckpoint(std::string &out,
                              const Checkpoint &arch) const;

    /**
     * Restore the µarch sections of @p ckpt into this core's warmable
     * components — copied back from by-value sections, parsed from
     * text ones (a checkpoint read from a file or the store) — and
     * re-align the core clock with the restored warming pseudo-clock:
     * the state-equivalent of having functionally warmed this core
     * over the checkpoint's whole prefix (pinned by
     * tests/test_sample.cc). No-op for purely architectural (v1)
     * checkpoints; fatal when the section set does not match this
     * core's components or a component's geometry differs (config
     * mismatch), on either path.
     */
    void restoreWarmState(const Checkpoint &ckpt);

    /** The live counter record every stage increments. */
    const CoreStats &stats() const { return *state; }

    /** Full statistics dump including memory-hierarchy counters. */
    StatRecord record() const;

    Cycle cycle() const { return state->now; }

    /** The shared substrate (exposed for tests/benches instrumenting
     *  the pipeline). */
    const PipelineState &pipelineState() const { return *state; }

    /** Attach a per-µop lifecycle event sink (common/pipetrace.hh).
     *  Pass nullptr to detach; the tracer must outlive the runs it
     *  observes. */
    void setPipeTracer(PipeTracer *tracer) { state->tracer = tracer; }

    /** Observe every retiring µ-op (commit-stream capture; see
     *  tests/test_torture.cc). Pass nullptr to detach. */
    void
    setCommitHook(std::function<void(const DynInst &)> hook)
    {
        state->onCommit = std::move(hook);
    }

  private:
    void tick();

    /** The warmable components, in checkpoint-section order. */
    std::vector<std::pair<const char *, WarmableComponent *>>
    warmables() const;

    std::unique_ptr<PipelineState> state;
    PipelineStages stages;
};

} // namespace eole

#endif // EOLE_PIPELINE_CORE_HH

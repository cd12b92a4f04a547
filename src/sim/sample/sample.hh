/**
 * @file
 * Checkpointed statistical sampling: run every ExperimentPlan in a
 * SMARTS-style sampled mode (systematic interval selection, functional
 * warming, detailed warmup, confidence intervals).
 *
 * A full run of one plan cell pays detailed (cycle-level) simulation
 * for warmup + measure µ-ops. Sampled mode instead measures N short
 * intervals of W µops placed systematically across the measured
 * region, each preceded by D µops of detailed warmup; everything
 * before an interval is covered by *functional warming* — the skipped
 * stream is replayed through the branch predictor, value predictor and
 * caches only (isa/warmable.hh), with no ROB/IQ timing.
 *
 * Warm once, restore everywhere (the B=0 default): each (config,
 * workload) cell runs ONE continuous warming pass that drops an
 * "eole-ckpt-v2" checkpoint — architectural registers plus a by-value
 * copy of every warmable component's µarch state — at each interval's
 * detailed-warmup start (warmOnceCheckpoints). Interval jobs then
 * restore instead of re-warming their own prefix, turning the sampled
 * cost from O(N·prefix) into O(prefix + N·(D+W)) while producing
 * measurements identical to per-interval continuous warming (same
 * warmed state ⇒ same measurements; pinned by the differential test
 * in tests/test_sample.cc). No checkpoint text is written or parsed
 * in a sampled run. Bounded warming (B>0) keeps the per-interval
 * warming path; a B no shorter than the prefix re-warms each interval
 * over its whole prefix, the oracle the differential test compares
 * against. saveCheckpoints (`eole ckpt save`) writes the same
 * per-interval checkpoints to disk as shippable text files, rendered
 * straight from the warming core as each is captured.
 *
 * Scheduling: both entry points are job bodies on the cell executor
 * (sim/executor.hh), sharing each workload's frozen trace through its
 * trace cache. A cell's interval jobs become ready when its warm job
 * finishes and run before the next cell's warm pass starts, so at most
 * about one cell's checkpoint copies per worker are alive at a time.
 * Per-cell seeds follow the jobSeed discipline, results land in
 * pre-assigned slots, and the reduction walks them in slot order — so
 * sampled artifacts (and checkpoint directories) are byte-identical
 * regardless of --jobs and the trace-cache budget, like full runs.
 *
 * The reduction records, per cell:
 *   ipc                 mean of the per-interval IPCs
 *   ipc_ci95            95% confidence half-width (Student-t)
 *   ipc_stddev          sample standard deviation
 *   cycles              total measured cycles across intervals
 *   committed_uops      total measured µ-ops across intervals
 *   sample_intervals    intervals that actually measured µ-ops
 *   sample_interval_uops / sample_detail_uops     W and D
 *   sample_warm_uops    µ-ops functionally warmed (cost accounting:
 *                       one prefix per cell in warm-once mode, one
 *                       per interval when re-warming)
 *   sample_restored_intervals   intervals fed from a v2 checkpoint
 *                       (0 on the legacy re-warming path — the CI
 *                       lane asserts the warm-once path is active)
 *
 * See DESIGN.md §8 for the methodology (placement math, warming
 * fidelity contract, CI computation, determinism rules).
 */

#ifndef EOLE_SIM_SAMPLE_SAMPLE_HH
#define EOLE_SIM_SAMPLE_SAMPLE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/checkpoint.hh"
#include "sim/sweep.hh"
#include "workloads/workload.hh"

namespace eole {

/**
 * Systematic interval placement over the measured region
 * [@p warmup, @p warmup + @p measure): one interval per period
 * (period = measure / N), offset by a deterministic phase derived
 * from @p cell_seed via the jobSeed mix. Guarantees every start is
 * >= spec.detailUops (the detailed-warmup prefix must exist) and the
 * placements are pairwise disjoint. Returns the measured-interval
 * start indices (µ-op position of the first measured µ-op), fewer
 * than N when the region cannot hold N disjoint intervals — except
 * that one interval is always emitted, and that guaranteed first
 * interval MAY extend past the region when measure < W or the
 * detail-clamp pushes it late: size trace recordings from the placed
 * starts (max(start) + W + inflight), not from warmup + measure
 * alone (sampleTraceUopsNeeded).
 */
std::vector<std::uint64_t> placeIntervals(std::uint64_t warmup,
                                          std::uint64_t measure,
                                          const SampleSpec &spec,
                                          std::uint64_t cell_seed);

/** Deterministic per-interval seed (jobSeed discipline: pure function
 *  of the cell seed and the interval index). Interval placement
 *  phases derive from this; measurement cores run on the cell seed
 *  itself so one warming pass covers every interval. */
std::uint64_t intervalSeed(std::uint64_t cell_seed,
                           std::uint64_t interval_index);

/**
 * Clamp placed interval starts to a trace length and derive each
 * interval's checkpoint index — the first µ-op of its detailed-warmup
 * prefix (start - D, floored at 0). The ONE spelling of the warm-once
 * placement arithmetic, shared by runSampledPlan's warming phase and
 * saveCheckpoints so the written checkpoints are exactly the ones a
 * sampled run restores from. Indices come back non-decreasing;
 * clamped short-workload intervals may repeat the final index
 * (identical checkpoints — consumers can skip duplicates).
 */
std::vector<std::uint64_t> warmCheckpointIndices(
    const std::vector<std::uint64_t> &starts, std::uint64_t trace_len,
    const SampleSpec &spec);

/**
 * How many trace µ-ops a sampled run of @p plan can touch: the
 * nominal region or the furthest placed interval (@p max_start is the
 * maximum start across every cell; a degenerate short region can push
 * one interval past warmup+measure), plus W and the in-flight
 * allowance. Shared by runSampledPlan and saveCheckpoints so both
 * record traces with identical clamping behaviour.
 */
std::uint64_t sampleTraceUopsNeeded(const ExperimentPlan &plan,
                                    const SampleSpec &spec,
                                    std::uint64_t warmup,
                                    std::uint64_t measure,
                                    std::uint64_t max_start);

/**
 * One continuous warming pass over @p trace for a cell of @p cfg
 * (whose seed must already be the resolved cell seed): stream µ-ops
 * [0, idx) through a fresh core's warmable components and capture an
 * "eole-ckpt-v2" checkpoint — architectural registers via captureAt
 * (resumed from the previous index) plus a by-value copy of every
 * component (Core::captureWarmState) — at each index of
 * @p ckpt_indices (non-decreasing; clamped to the trace length).
 * Piecewise warming is state-identical to one uninterrupted pass, so
 * checkpoint k holds exactly the state continuous warming of its
 * whole prefix would produce. runSampledPlan's warm-once phase;
 * saveCheckpoints runs the same pass but renders text instead.
 */
std::vector<std::shared_ptr<const Checkpoint>> warmOnceCheckpoints(
    const SimConfig &cfg, const Workload &workload,
    const std::shared_ptr<const FrozenTrace> &trace,
    const std::vector<std::uint64_t> &ckpt_indices);

/** Mean and 95% confidence half-width (Student-t, n-1 df; half-width
 *  0 when fewer than two samples) of @p xs. */
struct MeanCi
{
    double mean = 0.0;
    double ci95 = 0.0;
    double stddev = 0.0;
};
MeanCi meanCi95(const std::vector<double> &xs);

/**
 * Execute @p plan in sampled mode: every matched cell warms once and
 * expands into per-interval jobs on the worker pool (file header),
 * reducing to mean IPC + CI stats. Determinism guarantees match
 * runPlan: artifacts are byte-identical across --jobs and cache
 * settings.
 */
PlanResult runSampledPlan(const ExperimentPlan &plan,
                          const SampleSpec &spec,
                          const SweepOptions &options = {});

/** What saveCheckpoints wrote. */
struct CheckpointFiles
{
    /** One file per distinct checkpoint, cell-major (config-major
     *  cells), interval order: <config>__<workload>__u<index>.ckpt. */
    std::vector<std::string> files;
    std::size_t cells = 0;          //!< matched cells
    std::size_t storeHits = 0;      //!< checkpoints served by the store
    std::size_t storeComputed = 0;  //!< checkpoints inserted into it
    std::string error;              //!< non-empty when a write failed
};

/**
 * `eole ckpt save`: for every matched cell, the warm-once pass of
 * runSampledPlan, writing each interval's eole-ckpt-v2 checkpoint into
 * @p out_dir (created when missing) — exactly the checkpoints a
 * sampled run of the same plan, spec and options restores from. With
 * options.store the checkpoints are keyed into the store (one object
 * per interval); a cell whose checkpoints all resolve skips its
 * warming pass and writes its files from the stored payloads.
 * Directories are byte-identical across options.jobs and store hits.
 */
CheckpointFiles saveCheckpoints(const ExperimentPlan &plan,
                                const SampleSpec &spec,
                                const SweepOptions &options,
                                const std::string &out_dir);

} // namespace eole

#endif // EOLE_SIM_SAMPLE_SAMPLE_HH

/**
 * @file
 * The cell executor: the one sweep scaffold behind runPlan (full runs),
 * runSampledPlan (warm-once sampling) and saveCheckpoints (`eole ckpt
 * save`). An engine supplies its job bodies and its reduction; the
 * executor owns everything they share:
 *
 *  - resolving run lengths (option > plan > env > default, plus the
 *    per-config `runlen` overrides);
 *  - expanding the matched cells config-major under the filter and the
 *    shard slice, each with its seed, params, measured length and
 *    global slot (expandPlan — also what the CLI's cell census and
 *    runShard's slot numbering read);
 *  - building store keys and running the serial store pre-pass (a cell
 *    whose keys all resolve runs no jobs) and post-pass;
 *  - scheduling jobs workload-major on the worker pool, phase by phase
 *    within each cell: a cell's jobs of one phase become ready when
 *    its previous phase finishes, and a free worker takes a ready
 *    later-phase job before it starts a new cell (so a cell's
 *    intervals follow its warm pass, and what one phase hands the
 *    next never accumulates across cells). The trace cache keeps a
 *    per-workload refcount (a recording drops after its workload's
 *    last job, counted across every phase) with the private-recording
 *    fallback;
 *  - per-job telemetry and progress.
 *
 * Determinism: cells land in pre-assigned slots, job bodies write only
 * to their own cell's slots, and the store is touched only from the
 * serial passes — so whatever an engine reduces from the slots is
 * byte-identical across --jobs and trace-cache settings.
 */

#ifndef EOLE_SIM_EXECUTOR_HH
#define EOLE_SIM_EXECUTOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/store.hh"
#include "sim/sweep.hh"
#include "sim/trace_cache.hh"
#include "workloads/workload.hh"

namespace eole {

/** One matched cell of an expanded plan. */
struct SweepCell
{
    std::size_t cfg = 0;        //!< index into plan.configs
    std::size_t wl = 0;         //!< index into plan.workloads
    /** Config-major index over the filter-matched cells, shard slice
     *  ignored: the cell's position in the single-host artifact, which
     *  shard partials merge by (sim/shard.hh). */
    std::uint64_t slot = 0;
    std::uint64_t seed = 0;     //!< jobSeed of the cell
    std::uint64_t measure = 0;  //!< resolveMeasureFor of its config
};

/** A plan expanded under SweepOptions::filter and ::shard. */
struct SweepExpansion
{
    std::uint64_t warmup = 0;          //!< resolved run lengths
    std::uint64_t measure = 0;
    std::uint64_t longestMeasure = 0;  //!< longest per-config measure
    std::uint64_t filterMatched = 0;   //!< filter-matched cells, all hosts
    std::vector<SweepCell> cells;      //!< this host's cells, config-major
};

/** Expand @p plan (pure: no validation, telemetry or store access). */
SweepExpansion expandPlan(const ExperimentPlan &plan,
                          const SweepOptions &options);

/** One job, as its body sees it. */
struct SweepJob
{
    std::size_t cell = 0;   //!< index into the executor's cells
    std::size_t index = 0;  //!< this job's index within its cell's phase
    Workload workload;      //!< freshly built for this job
    StatRecord stats;       //!< set by the body: what progress reports
    bool ok = true;         //!< set by the body: telemetry job outcome
};

/** One scheduling phase. A cell's jobs of this phase become ready
 *  when all its jobs of the previous phases have finished; other
 *  cells' jobs of any phase may run meanwhile. */
struct SweepPhase
{
    const char *kind;    //!< telemetry job kind: cell, warm, interval
    bool perInterval;    //!< telemetry carries SweepJob::index
    /** Jobs an uncached cell runs in this phase. */
    std::function<std::size_t(std::size_t cell)> jobs;
    std::function<void(SweepJob &job)> body;
};

class SweepExecutor
{
  public:
    /** Validate @p plan's configs, expand it and queue every matched
     *  cell (telemetry cell_queued). @p spec is recorded in the result
     *  header and in every store key. */
    SweepExecutor(const ExperimentPlan &plan, const SweepOptions &options,
                  const SampleSpec &spec = {});

    const ExperimentPlan &plan;
    const SweepOptions &options;
    const SampleSpec spec;
    const SweepExpansion expansion;
    const std::vector<SweepCell> &cells = expansion.cells;
    /** Header plus one cell per matched cell with its identity (config,
     *  workload, seed, params) filled in; engines fill the stats. */
    PlanResult result;

    /** The cell's config, running on the cell seed. */
    SimConfig config(std::size_t cell) const;

    /** The cell's store key of @p kind (identity, resolved lengths,
     *  sample spec; index 0). */
    StoreKey storeKey(std::size_t cell, const char *kind) const;

    /**
     * Serial store pre-pass (no-op without options.store): a cell whose
     * keys(cell) all resolve is served from the store — @p load gets
     * each payload in key order and returns "" or a diagnostic (fatal,
     * naming the object) — and runs no jobs. A vanished object makes
     * the cell compute instead. Hits count keys.
     */
    void loadFromStore(
        const std::function<std::vector<StoreKey>(std::size_t)> &keys,
        const std::function<std::string(std::size_t cell, std::size_t key,
                                        std::string &payload)> &load);

    /** Serial store post-pass: put every non-empty payload(cell, key)
     *  of each computed cell under its pre-pass key, then flush and
     *  report the counts. */
    void saveToStore(
        const std::function<std::string(std::size_t cell,
                                        std::size_t key)> &payload);

    /** The store passes of engines whose cells reduce to one
     *  StatRecord ("cell" objects holding result.cells[i].stats). */
    void loadCellStats();
    void saveCellStats();

    bool cached(std::size_t cell) const { return served[cell]; }

    /** Run every phase's jobs for the uncached cells (file header:
     *  per-cell phase order, later phases first); @p trace_uops sizes
     *  the shared recordings. */
    void run(std::uint64_t trace_uops, const std::vector<SweepPhase> &phases);

    /** The workload's shared recording, or null when the cache is off
     *  or the trace is over budget (full runs then step the live VM). */
    std::shared_ptr<const FrozenTrace> sharedTrace(const Workload &w);

    /** sharedTrace, else a private recording bounded to @p horizon, the
     *  job's own reach, so residency stays proportional to the job. */
    std::shared_ptr<const FrozenTrace> trace(const Workload &w,
                                             std::uint64_t horizon);

  private:
    TraceCache cache;
    std::uint64_t traceUops = 0;
    std::vector<std::vector<StoreKey>> keys;
    std::vector<char> served;
};

} // namespace eole

#endif // EOLE_SIM_EXECUTOR_HH

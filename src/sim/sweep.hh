/**
 * @file
 * The parallel sweep engine's public face: SweepOptions, PlanResult,
 * the worker pool, and runPlan — the full-run engine, one job per
 * (config x workload) cell on the cell executor (sim/executor.hh) that
 * also runs the sampling engines (sim/sample/).
 *
 * Guarantees (pinned by tests/test_experiment.cc):
 *  - Bit-identical results regardless of worker count: per-job seeds
 *    are a pure function of the cell identity (sim/plan.hh), jobs
 *    share no mutable state, and results land in pre-assigned slots,
 *    so `--jobs 1` and `--jobs 8` produce byte-identical artifacts.
 *  - The shared trace cache is a pure accelerator: a cache hit, a
 *    cache miss and a disabled cache all replay the same functional
 *    stream (live-VM and frozen-replay backings are bit-identical).
 *
 * The executor schedules workload-major so that the configurations
 * sharing a workload's frozen trace run back-to-back and the trace can
 * be dropped as soon as its last job finishes (bounded memory).
 */

#ifndef EOLE_SIM_SWEEP_HH
#define EOLE_SIM_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/plan.hh"

namespace eole {

class PipeTracer;
class Store;
class TelemetrySink;

/** Knobs for one runPlan invocation (CLI flags map 1:1 onto these). */
struct SweepOptions
{
    int jobs = 0;              //!< worker threads; 0 = runnerThreads()
    std::string filter;        //!< substring over "config/workload"
    std::uint64_t warmup = 0;  //!< µ-ops; 0 = plan, then EOLE_WARMUP
    std::uint64_t measure = 0; //!< µ-ops; 0 = plan, then EOLE_INSTS
    bool useTraceCache = true;

    /** Sharded execution (`eole shard`): when enabled, only cells
     *  this slice owns (ShardSlice::owns, a pure function of plan
     *  seed + cell identity) run; everything else behaves as if the
     *  cell were filtered away. */
    ShardSlice shard;

    /**
     * Content-addressed result store (`eole run --store DIR`,
     * sim/store.hh): cells whose key already resolves load their
     * reduced stats instead of running (byte-identical artifacts —
     * the payload round-trips exactly), and freshly computed cells
     * are inserted afterwards. The executor touches the store only
     * from its serial pre/post passes, never from worker threads.
     */
    Store *store = nullptr;

    /**
     * Sampling only: force the legacy per-interval re-warming path (as
     * before the warm-once checkpoints) even at B=0. The two paths
     * produce identical per-interval measurements (same warmed state —
     * pinned by tests/test_sample.cc); re-warming just pays the prefix
     * N times. Kept for the differential harness and the wall-clock
     * comparison in bench/sample_validation.
     */
    bool sampleRewarm = false;

    /** Progress hook, invoked (serialized) as each job finishes. */
    std::function<void(std::size_t done, std::size_t total,
                       const RunResult &cell)> progress;

    /** Optional JSONL event stream (sim/telemetry.hh). Observability
     *  only: attaching a sink never changes scheduling, results, or
     *  artifacts. Non-owning. */
    TelemetrySink *telemetry = nullptr;

    /** Optional per-µop pipeline event sink (common/pipetrace.hh),
     *  attached to every core the sweep constructs. The CLI restricts
     *  `--pipetrace` to single-cell runs; the engine itself just hands
     *  the pointer to Core. Non-owning, may be null. */
    PipeTracer *tracer = nullptr;
};

/** Everything one sweep produced; the in-memory form of an artifact. */
struct PlanResult
{
    std::string plan;
    std::uint64_t seed = 1;
    std::uint64_t warmup = 0;   //!< resolved µ-ops actually run
    std::uint64_t measure = 0;
    std::string filter;
    SampleSpec sample;          //!< disabled for full (unsampled) runs
    std::vector<RunResult> cells;  //!< config-major over matched cells

    /** Store accounting for the run that produced this result (never
     *  serialized into artifacts — hit and computed cells must stay
     *  byte-identical). Both zero when no store was attached. */
    std::size_t storeHits = 0;
    std::size_t storeComputed = 0;

    const RunResult *find(const std::string &config,
                          const std::string &workload) const;
};

/** Execute every matched cell of @p plan; see file header for the
 *  determinism guarantees. */
PlanResult runPlan(const ExperimentPlan &plan,
                   const SweepOptions &options = {});

/** Fatal when two of @p plan's configs share a name (cells would be
 *  indistinguishable in artifacts). The cell executor validates every
 *  plan it runs through this. */
void validatePlanConfigs(const ExperimentPlan &plan);

/**
 * The engine's worker pool: run @p body(job_index) once for every
 * index in [0, num_jobs), dispatched dynamically over
 * min(jobs_option ? jobs_option : runnerThreads(), num_jobs) threads
 * (inline when that is one). Bodies must write only to pre-assigned
 * slots — the determinism contract every engine builds on.
 */
void runOnWorkerPool(std::size_t num_jobs, int jobs_option,
                     const std::function<void(std::size_t)> &body);

/** As above, with the executing worker's index [0, nthreads) passed to
 *  @p body — telemetry attributes jobs to workers through it. Worker
 *  identity must never influence results (the determinism contract). */
void runOnWorkerPool(std::size_t num_jobs, int jobs_option,
                     const std::function<void(std::size_t job,
                                              int worker)> &body);

/** Print the plan's paper-style tables from a sweep's results. Tables
 *  whose cells were filtered away are skipped with a note. */
void printPlanTables(const ExperimentPlan &plan, const PlanResult &result);

} // namespace eole

#endif // EOLE_SIM_SWEEP_HH

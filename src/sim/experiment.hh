/**
 * @file
 * Experiment infrastructure: the result of one (configuration x
 * workload) cell, the run-length and worker-count knobs, and the
 * geometric mean the paper-style tables (sim/sweep.hh
 * printPlanTables) normalize with. Grids run through the sweep engine
 * (sim/sweep.hh runPlan).
 *
 * Run lengths follow DESIGN.md §5: each (config, workload) pair warms
 * all structures for EOLE_WARMUP µ-ops (default 1M) and measures for
 * EOLE_INSTS µ-ops (default 5M). Both are overridable through the
 * environment so CI can run short and paper-grade runs can go long.
 */

#ifndef EOLE_SIM_EXPERIMENT_HH
#define EOLE_SIM_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sim/config.hh"

namespace eole {

/** Result of one simulation run. */
struct RunResult
{
    std::string config;
    std::string workload;
    std::uint64_t seed = 0;  //!< per-job seed the cell ran with

    /**
     * The cell's complete canonical configuration map
     * (sim/params.hh configKeyValues of the plan's config, before the
     * per-job seed override), embedded so artifacts record what a
     * config *was*, not just its name — `eole diff` reports config
     * drift from it.
     */
    std::vector<std::pair<std::string, std::string>> params;

    StatRecord stats;

    double ipc() const { return stats.get("ipc"); }
};

/** µ-ops to warm up (EOLE_WARMUP env var, default 1,000,000). */
std::uint64_t warmupUops();

/** µ-ops to measure (EOLE_INSTS env var, default 5,000,000). */
std::uint64_t measureUops();

/** Worker threads for grids (EOLE_THREADS env var, default = cores). */
int runnerThreads();

/** Geometric mean of a vector of ratios. */
double geomean(const std::vector<double> &xs);

} // namespace eole

#endif // EOLE_SIM_EXPERIMENT_HH

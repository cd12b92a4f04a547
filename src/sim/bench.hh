/**
 * @file
 * `eole bench`: the detailed-mode µops/sec harness.
 *
 * Every speed claim about the tick loop goes through this one
 * instrument: for each (config, workload) cell it replays a frozen
 * trace through a fresh Core, discards a fixed warmup budget, then
 * times a fixed measured budget of detailed simulation — repeated K
 * times with the wall-clock minimum kept (min-of-K filters scheduler
 * noise; the minimum is the least-disturbed observation of a
 * deterministic computation). Results are written as canonical
 * byte-stable JSON (schema eole-bench-v1, sim/json.hh) so a committed
 * BENCH_<label>.json is a durable point on the repo's speed
 * trajectory, and `eole bench --compare` turns two of them into
 * per-cell speedup ratios.
 *
 * The simulated behavior of a bench run is exactly that of a sweep
 * cell at the same lengths and seed (same jobSeed discipline); only
 * wall-clock is measured. Cells run strictly serially — a worker pool
 * would contend for cores and corrupt the timings.
 */

#ifndef EOLE_SIM_BENCH_HH
#define EOLE_SIM_BENCH_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace eole {

/** Knobs for one runBench invocation (CLI flags map 1:1). */
struct BenchOptions
{
    /** Workload registry names; empty = the default smoke set
     *  (defaultBenchWorkloads). */
    std::vector<std::string> workloads;
    /** Named configs; empty = the fig12 config set (the paper's
     *  overall-result grid, the pinned target of the µops/sec
     *  trajectory). */
    std::vector<std::string> configs;
    std::uint64_t budget = 1000000;  //!< measured µ-ops per rep
    std::uint64_t warmup = 100000;   //!< discarded warmup µ-ops
    int reps = 3;                    //!< min-of-K repetitions
    std::string label;               //!< recorded in the artifact
    bool quiet = false;              //!< no per-cell progress on stderr

    /** Attribute each cell's wall time to pipeline stages and models
     *  (common/profiler.hh). Timing overhead lands inside the measured
     *  region, so a profiled artifact is not comparable against an
     *  unprofiled one — the profile explains where time goes, the
     *  plain run is the speed claim. */
    bool profile = false;
};

/** The default bench workloads: a small INT/INT/FP smoke set, long
 *  enough that every default budget fits. */
const std::vector<std::string> &defaultBenchWorkloads();

/** One timed (config, workload) cell. */
struct BenchCell
{
    std::string config;
    std::string workload;
    std::uint64_t uops = 0;    //!< measured µ-ops actually committed
    double secondsMin = 0.0;   //!< min-of-K wall seconds for the budget
    double uopsPerSec = 0.0;   //!< uops / secondsMin
    double ipc = 0.0;          //!< simulated IPC (context, not speed)

    /** `--profile` only: (dotted section name, wall seconds) in
     *  profiler enum order, snapshot of the last rep, with that rep's
     *  own measured seconds as the attribution denominator. model.*
     *  sections nest inside their calling stage.* section, so only
     *  stage.* + warm.* sum toward coverage. Empty when profiling was
     *  off. */
    std::vector<std::pair<std::string, double>> profile;
    double profileSeconds = 0.0;
};

/** Everything one bench run produced; the in-memory artifact form. */
struct BenchResult
{
    std::string label;
    std::uint64_t budget = 0;
    std::uint64_t warmup = 0;
    int reps = 0;
    std::vector<BenchCell> cells;  //!< config-major

    /** Geometric mean of the per-cell µops/sec (0 when empty). */
    double geomeanUopsPerSec() const;

    const BenchCell *find(const std::string &config,
                          const std::string &workload) const;
};

/** Time every (config, workload) cell serially; see file header. */
BenchResult runBench(const BenchOptions &options);

/** Canonical JSON (schema "eole-bench-v1"): fixed key order, cells in
 *  run order, doubles as %.17g — byte-stable for identical inputs. */
void writeBenchJson(std::ostream &os, const BenchResult &result);

/** The same artifact as a string (byte-comparison in tests). */
std::string benchJsonString(const BenchResult &result);

/** Human-readable per-cell stage/model breakdown tables (`eole bench
 *  --profile`); cells without profile data are skipped. */
void writeBenchProfileTable(std::ostream &os, const BenchResult &result);

/** Parse a bench artifact (fatal on malformed input / wrong schema). */
BenchResult readBenchJson(std::istream &is);

/** Read the bench file @p path into @p out. False with the reason in
 *  @p err when the file cannot be read, is malformed or carries
 *  another schema. */
bool readBenchJsonFile(const std::string &path, BenchResult *out,
                       std::string *err);

/**
 * Per-cell speedup report of @p b over @p a (cells matched by
 * config/workload identity), written to @p os. Cells present on only
 * one side are reported and excluded from the mean.
 *
 * @return geomean of the per-cell b/a µops/sec ratios over the common
 *         cells; 0 when no cell is common to both.
 */
double compareBench(const BenchResult &a, const BenchResult &b,
                    std::ostream &os);

} // namespace eole

#endif // EOLE_SIM_BENCH_HH

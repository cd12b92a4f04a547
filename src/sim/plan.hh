/**
 * @file
 * ExperimentPlan: a declarative (configuration x workload) sweep grid.
 *
 * A plan is pure data — configs, workload names, run lengths, a base
 * seed and the paper-style tables to print — expanded by the cell
 * executor (sim/executor.hh) into independent jobs. Every figure of
 * the paper is a named plan in sim/plans.hh that `eole run` drives
 * through the same engine as any C++ caller. Plans
 * can also be authored as text (sim/planfile.hh, `eole run --plan`):
 * a base config plus axes of registry keys (sim/params.hh) expands to
 * the same structure without recompiling.
 *
 * Seeding discipline: each job's SimConfig::seed is derived
 * deterministically from (plan seed, config seed, config name,
 * workload name), so a cell's random streams (FPC transitions,
 * predictor tie-breaks) do not depend on job scheduling, worker count
 * or execution order — the foundation of the engine's
 * bit-identical-regardless-of-`--jobs` guarantee.
 */

#ifndef EOLE_SIM_PLAN_HH
#define EOLE_SIM_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace eole {

/**
 * Systematic-sampling parameters (SMARTS-style; see DESIGN.md §8 and
 * sim/sample/sample.hh): N measurement intervals of W µops, each
 * preceded by D µops of detailed warmup, carved out of a plan cell's
 * measured region. Functional warming covers the stream between the
 * warming-window start and the detailed warmup — the whole skipped
 * prefix when warmBound is 0 (the default: classic SMARTS continuous
 * warming, the reference-fidelity mode the validation suite pins),
 * else at most warmBound µ-ops before each interval (a bounded
 * MRRL-style refinement that caps per-interval cost; accurate only
 * for workloads whose predictor state has short memory — see
 * DESIGN.md §8). The zero value (disabled()) means "full run".
 */
struct SampleSpec
{
    std::uint64_t intervals = 0;     //!< N: measurement intervals
    std::uint64_t intervalUops = 0;  //!< W: measured µ-ops per interval
    std::uint64_t detailUops = 0;    //!< D: detailed-warmup µ-ops each
    std::uint64_t warmBound = 0;     //!< B: warming window (0 = all)

    bool enabled() const { return intervals > 0 && intervalUops > 0; }
};

/**
 * Parse "N:W:D[:B]" (or "N:W", D defaulting to W/2) into a
 * SampleSpec. B defaults to 0 = unbounded (full-prefix) functional
 * warming. Fatal on malformed input or N == 0 / W == 0.
 */
SampleSpec parseSampleSpec(const std::string &text);

/** As parseSampleSpec, but returns false with a diagnostic in @p err
 *  instead of dying — the operator-facing form behind the plan-file
 *  `sample =` directive's line-numbered exit-2 errors. */
bool tryParseSampleSpec(const std::string &text, SampleSpec *out,
                        std::string *err);

/** Canonical "N:W:D:B" form (inverse of parseSampleSpec). */
std::string sampleSpecString(const SampleSpec &spec);

/**
 * Resolve the effective sampling spec with the same precedence
 * discipline as resolveRunLength (common/env.hh): an explicitly given
 * spec (CLI --sample) wins over the plan's own (plan-file `sample =`
 * directive); a disabled spec means "unset" at every level, so a plan
 * without a sample directive resolves to "full run" unless the CLI
 * asks otherwise. The one spelling of this precedence, shared by
 * `eole run` and `eole ckpt save`.
 */
SampleSpec resolveSampleSpec(const SampleSpec &option_spec,
                             const SampleSpec &plan_spec);

/**
 * One host's slice of a sharded sweep (sim/shard.hh, `eole shard`):
 * cells whose shardOfCell lands on @c host run here, every other cell
 * is skipped. The default (hosts == 0) disables sharding. Ownership is
 * a pure function of the plan seed and the cell identity, so N hosts
 * can each compute their own slice with no coordinator and no two
 * hosts ever run (or miss) the same cell.
 */
struct ShardSlice
{
    std::uint64_t hosts = 0;  //!< total hosts (0 = sharding disabled)
    std::uint64_t host = 0;   //!< this host's index in [0, hosts)

    bool enabled() const { return hosts > 0; }

    /** Does this slice own the cell? True for every cell when
     *  disabled. */
    bool owns(std::uint64_t plan_seed, std::uint64_t config_seed,
              const std::string &config,
              const std::string &workload) const;
};

/**
 * Deterministic shard assignment of one cell: a pure function of the
 * plan seed and the cell identity (the jobSeed inputs), remixed so the
 * partition is decorrelated from the random streams the cell runs
 * with, reduced mod @p hosts. Stable across platforms, filters and
 * enumeration order — the foundation of coordinator-free sharding.
 */
std::uint64_t shardOfCell(std::uint64_t plan_seed,
                          std::uint64_t config_seed,
                          const std::string &config,
                          const std::string &workload,
                          std::uint64_t hosts);

/** One paper-style table over the grid (see printPlanTables). */
struct TableSpec
{
    std::string title;
    std::string stat;            //!< StatRecord name, e.g. "ipc"
    std::vector<std::string> columns;  //!< config names, column order
    std::string normalizeTo;     //!< config dividing each row ("" = abs)
};

/** Declarative sweep grid. */
struct ExperimentPlan
{
    std::string name;
    std::string description;
    std::vector<SimConfig> configs;        //!< names must be unique
    std::vector<std::string> workloads;    //!< registry names
    std::uint64_t seed = 1;                //!< base for per-job seeds
    std::uint64_t warmup = 0;              //!< µ-ops; 0 = EOLE_WARMUP
    std::uint64_t measure = 0;             //!< µ-ops; 0 = EOLE_INSTS
    /** Default sampling spec (plan-file `sample =` directive);
     *  disabled = full run. CLI --sample overrides it through
     *  resolveSampleSpec. */
    SampleSpec sample;
    /** Per-config measured-length overrides (plan-file
     *  `runlen <config> = N` directive): cells of that config run N
     *  measured µ-ops instead of the plan-level `measure`. Resolved
     *  through resolveMeasureFor; CLI --insts still beats them. */
    std::vector<std::pair<std::string, std::uint64_t>> runlens;
    std::vector<TableSpec> tables;

    std::size_t gridSize() const { return configs.size() * workloads.size(); }

    /** The `runlen` override declared for @p config (0 = none). */
    std::uint64_t runlenFor(const std::string &config) const;
};

/**
 * Effective measured length for one config's cells, extending the
 * common/env.hh precedence chain with the per-config plan override:
 *
 *   explicit option (CLI --insts)
 *     > plan `runlen <config> = N`
 *       > plan `measure`
 *         > EOLE_INSTS
 *           > built-in default
 */
std::uint64_t resolveMeasureFor(std::uint64_t option_measure,
                                const ExperimentPlan &plan,
                                const std::string &config);

/**
 * Deterministic per-job seed: a function of the plan seed, the
 * config's own seed knob and the cell's (config, workload) identity
 * only — never of scheduling. Stable across platforms, thread counts
 * and job orderings. Folding in SimConfig::seed keeps configs that
 * differ only in their seed distinguishable (seed studies).
 */
std::uint64_t jobSeed(std::uint64_t plan_seed, std::uint64_t config_seed,
                      const std::string &config,
                      const std::string &workload);

/**
 * Upper bound on µ-ops fetched but not yet committed under @p cfg
 * (front-end pipe + rename buffer + ROB, plus slack). Used to size
 * frozen-trace recordings so a replay never runs off the end of the
 * prefix: a run committing n µ-ops needs n + maxInflightUops(cfg).
 */
std::uint64_t maxInflightUops(const SimConfig &cfg);

/** The largest maxInflightUops over the plan's configurations. */
std::uint64_t maxInflightUops(const ExperimentPlan &plan);

/** Does "config/workload" contain @p filter (empty matches all)? */
bool cellMatches(const std::string &filter, const std::string &config,
                 const std::string &workload);

} // namespace eole

#endif // EOLE_SIM_PLAN_HH

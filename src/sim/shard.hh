/**
 * @file
 * Sharded sweep execution: split one ExperimentPlan across N hosts
 * with no coordinator, and merge the partial artifacts back into a
 * result byte-identical to a single-host run.
 *
 * The partition is a pure function of the plan seed and each cell's
 * identity (sim/plan.hh shardOfCell) — every host computes the same
 * assignment independently, so `eole shard plan --hosts 3 --host i`
 * on three machines needs no communication beyond shipping the
 * partial artifacts to the merge point. A partial ("eole-shard-v1")
 * records the resolved run parameters and, per owned cell, the cell's
 * *global slot* — its index in the config-major enumeration of all
 * filter-matched cells, the order a single-host artifact lists them
 * in. Merging validates that the partials describe the same run,
 * cover every slot exactly once, and reassembles the cells in slot
 * order; writeJsonArtifact of the merge is then byte-identical to the
 * single-host artifact (pinned by tests/test_shard.cc for plain,
 * sampled and warm-once-checkpointed sweeps).
 *
 * Partials are canonical line-oriented text, not JSON, because a
 * half-copied shard from a crashed host must be a diagnostic, not a
 * fatal: tryReadShardArtifact rejects corruption with line-numbered
 * messages the way checkpoint/snapshot deserialization does.
 */

#ifndef EOLE_SIM_SHARD_HH
#define EOLE_SIM_SHARD_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace eole {

/** One owned cell plus its position in the single-host artifact. */
struct ShardCell
{
    std::uint64_t slot = 0;  //!< config-major index over matched cells
    RunResult cell;
};

/** Everything one host's slice of a sweep produced. */
struct ShardArtifact
{
    std::string plan;
    std::uint64_t seed = 1;
    std::uint64_t warmup = 0;   //!< resolved µ-ops, like PlanResult
    std::uint64_t measure = 0;
    std::string filter;
    SampleSpec sample;          //!< disabled for full (unsampled) runs
    std::uint64_t hosts = 0;    //!< shard arithmetic this slice used
    std::uint64_t shard = 0;    //!< this slice's host index
    std::uint64_t cellsTotal = 0;  //!< matched cells across ALL hosts
    std::vector<ShardCell> cells;  //!< slot-ascending

    /** Store accounting passed through from the engine's PlanResult
     *  (never serialized — cache-hit partials must stay
     *  byte-identical to computed ones). */
    std::size_t storeHits = 0;
    std::size_t storeComputed = 0;
};

/**
 * Run host @p options.shard.host of @p options.shard.hosts (must be
 * enabled). Dispatches to runSampledPlan when @p spec is enabled,
 * runPlan otherwise; every determinism guarantee of the underlying
 * engine carries over, and a --store attached through @p options
 * works per shard. Global slots come from the engines' own expansion
 * (expandPlan, sim/executor.hh), so disjoint shards agree on the
 * numbering without talking to each other.
 */
ShardArtifact runShard(const ExperimentPlan &plan,
                       const SampleSpec &spec,
                       const SweepOptions &options);

/** Canonical "eole-shard-v1" text (deterministic; no timestamps). */
void writeShardArtifact(std::ostream &os, const ShardArtifact &shard);
std::string shardArtifactString(const ShardArtifact &shard);

/** Parse writeShardArtifact output; false + "shard artifact line N:"
 *  diagnostic in @p err on truncated or corrupted input. */
bool tryReadShardArtifact(std::istream &is, ShardArtifact *out,
                          std::string *err);

/**
 * Merge partials into the PlanResult the single-host run would have
 * produced. False + diagnostic in @p err when the partials disagree
 * on the run parameters, use inconsistent shard arithmetic, repeat a
 * shard or slot, or fail to cover every slot in [0, cellsTotal) —
 * i.e. when a shard is missing. The merged result is in slot order;
 * serializing it with writeJsonArtifact reproduces the single-host
 * artifact byte for byte.
 */
bool tryMergeShardArtifacts(const std::vector<ShardArtifact> &shards,
                            PlanResult *out, std::string *err);

/** Fatal-on-error wrapper over tryMergeShardArtifacts. */
PlanResult mergeShardArtifacts(const std::vector<ShardArtifact> &shards);

} // namespace eole

#endif // EOLE_SIM_SHARD_HH

/**
 * @file
 * Warm-once checkpointed sampling, by hand — what saveCheckpoints
 * (`eole ckpt save`) does per cell — and the checkpoint-centric
 * sibling of examples/sampled_sweep.cpp.
 *
 *   ./build/ckpt_sweep [jobs]
 *
 * Shows the three layers of the v2 checkpoint machinery:
 *
 *   1. warmOnceCheckpoints: one continuous warming pass over a cell
 *      drops an eole-ckpt-v2 checkpoint (architectural registers +
 *      by-value copies of the predictor/cache state) at each interval
 *      start;
 *   2. the checkpoints serialize to canonical text — serialize, parse
 *      back, byte-identical: the unit you can ship to another host;
 *   3. a sampled run in warm-once mode measures exactly what the
 *      legacy per-interval re-warming mode measures, for a fraction
 *      of the warming work (sample_warm_uops tells the story, and
 *      sample_restored_intervals proves the restore path ran).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "sim/configs.hh"
#include "sim/plan.hh"
#include "sim/sample/sample.hh"
#include "sim/sweep.hh"
#include "sim/trace_cache.hh"

using namespace eole;

int
main(int argc, char **argv)
{
    // 1. A cell and a sampling spec, exactly as for `eole run
    //    --sample`. B stays 0: continuous warming is what the
    //    warm-once checkpoints accelerate.
    ExperimentPlan plan;
    plan.name = "ckpt_example";
    plan.description = "warm-once checkpoints vs per-interval re-warming";
    plan.configs = {configs::eole(6, 64)};
    plan.workloads = {"186.crafty"};
    plan.warmup = 20000;
    plan.measure = 200000;

    SampleSpec spec;
    spec.intervals = 8;
    spec.intervalUops = 4000;
    spec.detailUops = 2000;

    SweepOptions opt;
    opt.jobs = argc > 1 ? std::atoi(argv[1]) : 0;

    // 2. The warming pass itself, by hand: place the intervals, warm
    //    once, capture a checkpoint per interval at the start of its
    //    detailed warmup. This is what the sampled engine does per
    //    cell — and what saveCheckpoints writes to disk as one .ckpt
    //    file per interval.
    const SimConfig &cfg = plan.configs[0];
    const std::uint64_t cell_seed =
        jobSeed(plan.seed, cfg.seed, cfg.name, plan.workloads[0]);
    const auto starts =
        placeIntervals(plan.warmup, plan.measure, spec, cell_seed);

    Workload w = workloads::build(plan.workloads[0]);
    const auto trace =
        w.freeze(plan.warmup + plan.measure + spec.intervalUops + 4096);

    SimConfig seeded = cfg;
    seeded.seed = cell_seed;
    const auto idxs = warmCheckpointIndices(starts, trace->uops.size(), spec);
    const auto ckpts = warmOnceCheckpoints(seeded, w, trace, idxs);

    std::printf("%zu intervals -> %zu checkpoints from ONE warming "
                "pass over %llu µ-ops:\n",
                starts.size(), ckpts.size(),
                (unsigned long long)idxs.back());
    for (const auto &c : ckpts) {
        std::printf("  uop %8llu: %zu µarch sections, %zu bytes "
                    "serialized\n",
                    (unsigned long long)c->uopIndex, c->uarch.size(),
                    checkpointString(*c).size());
    }

    // 3. Checkpoints serialize to canonical text: the round trip is
    //    exact, so a file written here restores bit-identically
    //    anywhere.
    const std::string bytes = checkpointString(*ckpts[0]);
    const Checkpoint back = checkpointFromString(bytes);
    std::printf("round trip: %zu bytes, byte-identical: %s\n",
                bytes.size(),
                checkpointString(back) == bytes ? "yes" : "NO");

    // 4. Same measurements, less warming: run the sampled cell in both
    //    modes and compare.
    SweepOptions rewarm = opt;
    rewarm.sampleRewarm = true;
    const auto t0 = std::chrono::steady_clock::now();
    const PlanResult legacy = runSampledPlan(plan, spec, rewarm);
    const auto t1 = std::chrono::steady_clock::now();
    const PlanResult restored = runSampledPlan(plan, spec, opt);
    const auto t2 = std::chrono::steady_clock::now();

    const RunResult &a = legacy.cells[0];
    const RunResult &b = restored.cells[0];
    std::printf("\n%-22s %12s %12s\n", "", "re-warm", "restore");
    std::printf("%-22s %12.4f %12.4f\n", "mean ipc",
                a.stats.get("ipc"), b.stats.get("ipc"));
    std::printf("%-22s %12.0f %12.0f\n", "warmed µ-ops",
                a.stats.get("sample_warm_uops"),
                b.stats.get("sample_warm_uops"));
    std::printf("%-22s %12.0f %12.0f\n", "restored intervals",
                a.stats.get("sample_restored_intervals"),
                b.stats.get("sample_restored_intervals"));
    std::printf("%-22s %11.2fs %11.2fs\n", "wall clock",
                std::chrono::duration<double>(t1 - t0).count(),
                std::chrono::duration<double>(t2 - t1).count());
    std::printf("\nidentical measurements: %s\n",
                a.stats.get("ipc") == b.stats.get("ipc")
                        && a.stats.get("cycles") == b.stats.get("cycles")
                    ? "yes"
                    : "NO");
    return 0;
}

/**
 * @file
 * Run a plan in checkpointed-sampling mode — the C++ twin of
 * `eole run <plan> --sample N:W:D[:B]`.
 *
 *   ./build/sampled_sweep [jobs]
 *
 * Declares a small grid, runs it full-length and sampled, prints the
 * sampled means with their 95% confidence intervals next to the
 * full-run IPCs, and shows the artifact round trip (sampled artifacts
 * are byte-stable across worker counts, like full ones) plus the
 * CI-overlap diff mode.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "sim/artifact.hh"
#include "sim/configs.hh"
#include "sim/plan.hh"
#include "sim/sample/sample.hh"
#include "sim/sweep.hh"

using namespace eole;

int
main(int argc, char **argv)
{
    // 1. Declare the grid, exactly as for a full sweep.
    ExperimentPlan plan;
    plan.name = "sampled_example";
    plan.description = "baseline_vp vs EOLE, sampled";
    plan.configs = {configs::baselineVp(6, 64), configs::eole(6, 64)};
    plan.workloads = {"164.gzip", "186.crafty", "444.namd"};
    plan.warmup = 20000;
    plan.measure = 200000;

    // 2. The sampling spec: 10 intervals of 4000 measured µ-ops, each
    //    after 2000 µ-ops of detailed warmup. warmBound 0 = classic
    //    SMARTS continuous functional warming (reference fidelity;
    //    see DESIGN.md §8 for when a bounded window is safe).
    SampleSpec spec;
    spec.intervals = 10;
    spec.intervalUops = 4000;
    spec.detailUops = 2000;
    spec.warmBound = 0;

    SweepOptions opt;
    opt.jobs = argc > 1 ? std::atoi(argv[1]) : 0;

    // 3. Run both modes through the same worker pool.
    const PlanResult full = runPlan(plan, opt);
    const PlanResult sampled = runSampledPlan(plan, spec, opt);

    std::printf("%-14s %-18s %10s %16s  %s\n", "workload", "config",
                "full", "sampled ±ci95", "within?");
    for (const RunResult &cell : sampled.cells) {
        const RunResult *ref = full.find(cell.config, cell.workload);
        const double f = ref ? ref->ipc() : 0.0;
        const double m = cell.stats.get("ipc");
        const double ci = cell.stats.get("ipc_ci95");
        std::printf("%-14s %-18s %10.4f %9.4f ±%5.4f  %s\n",
                    cell.workload.c_str(), cell.config.c_str(), f, m,
                    ci, std::fabs(m - f) <= ci ? "yes" : "NO");
    }

    // 4. Sampled artifacts are canonical JSON too: byte-stable for a
    //    given plan/seed/lengths/spec, with the spec recorded in the
    //    header and per-cell sample_* stats.
    const std::string bytes = jsonArtifactString(sampled);
    std::stringstream ss(bytes);
    const PlanResult reread = readJsonArtifact(ss);
    std::printf("\nartifact: %zu bytes, spec %s recorded: %llu:%llu:"
                "%llu:%llu\n",
                bytes.size(), sampleSpecString(spec).c_str(),
                (unsigned long long)reread.sample.intervals,
                (unsigned long long)reread.sample.intervalUops,
                (unsigned long long)reread.sample.detailUops,
                (unsigned long long)reread.sample.warmBound);

    // 5. CI-overlap diff: a re-run with a different base seed moves
    //    every interval phase and every predictor seed, yet the two
    //    sampled artifacts agree statistically.
    ExperimentPlan reseeded = plan;
    reseeded.seed = 1234;
    const PlanResult other = runSampledPlan(reseeded, spec, opt);
    DiffOptions ci_diff;
    ci_diff.ciOverlap = true;  // ipc compared by CI overlap
    ci_diff.relTol = 0.1;      // raw cycle/µ-op totals move with the
                               // interval phases; compare loosely
    const std::size_t diffs =
        diffArtifacts(sampled, other, ci_diff, std::cout);
    std::printf("CI-overlap diff across seeds: %zu difference(s)\n",
                diffs);
    return 0;
}

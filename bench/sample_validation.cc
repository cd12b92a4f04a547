/**
 * @file
 * Sampled-vs-full validation bench: the acceptance harness for the
 * checkpointed statistical-sampling subsystem (sim/sample/).
 *
 *   ./build/sample_validation [jobs]
 *
 * For a set of workloads under the VP baseline and EOLE
 * configurations, runs each cell three ways at the same workload
 * length, workload by workload:
 *
 *   full      the ordinary detailed run (the fidelity reference);
 *   re-warm   sampled, per-interval path: every interval functionally
 *             re-warms its own whole prefix (a warming bound B no
 *             shorter than the prefix) — O(N·prefix) warming;
 *   restore   sampled, warm-once path: one continuous warming pass
 *             per cell drops an eole-ckpt-v2 µarch checkpoint at each
 *             interval start and intervals restore instead of
 *             re-warming — O(prefix + N·(D+W)).
 *
 * and reports per cell: full IPC vs sampled mean IPC +/- 95% CI
 * (within-CI check), the restore-vs-re-warm IPC equality (the two
 * sampled modes must measure EXACTLY the same — same warmed state ⇒
 * same measurements), and per-workload wall clock of all three modes
 * with the restore-over-re-warm speedup.
 *
 * Verdict: PASS when at least one workload is simultaneously accurate
 * (every cell within its sampled CI of the full run), exact (restore
 * == re-warm per interval) and fast (restore speedup over re-warm >=
 * EOLE_SAMPLE_MIN_SPEEDUP, default 2x) — the acceptance criterion's
 * "measured speedup vs B=0 re-warming with unchanged per-interval
 * IPC". Run lengths follow EOLE_WARMUP / EOLE_INSTS, so CI exercises
 * this cheaply (scripts/check.sh --sample: 1M µ-ops) while
 * paper-grade lengths (5M µ-ops, e.g. on 186.crafty) demonstrate the
 * full win. EOLE_SAMPLE overrides the 10:5000:2500 default spec; a
 * B>0 spec disables the warm-once path by construction (bounded
 * warming is per-interval), so keep B=0 here.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.hh"
#include "sim/configs.hh"
#include "sim/plan.hh"
#include "sim/sample/sample.hh"
#include "sim/sweep.hh"

using namespace eole;

namespace {

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentPlan plan;
    plan.name = "sample_validation";
    plan.description = "sampled vs full IPC + wall clock";
    plan.configs = {configs::baselineVp(6, 64), configs::eole(6, 64)};
    plan.workloads = {"164.gzip", "186.crafty", "458.sjeng", "444.namd",
                      "429.mcf"};

    SweepOptions opt;
    opt.jobs = argc > 1 ? std::atoi(argv[1]) : 0;

    const char *spec_env = std::getenv("EOLE_SAMPLE");
    const SampleSpec spec = parseSampleSpec(
        spec_env && *spec_env ? spec_env : "10:5000:2500");
    // The re-warm oracle: at B=0 a bound no shorter than any prefix,
    // so every interval warms from µ-op 0; a given B>0 is kept.
    SampleSpec rewarm_spec = spec;
    if (rewarm_spec.warmBound == 0)
        rewarm_spec.warmBound = ~std::uint64_t{0};
    const double min_speedup =
        static_cast<double>(envU64("EOLE_SAMPLE_MIN_SPEEDUP", 2));

    std::printf("sample_validation: warmup=%llu measure=%llu "
                "spec=%s jobs=%d\n",
                (unsigned long long)resolveRunLength(
                    0, plan.warmup, "EOLE_WARMUP", defaultWarmupUops),
                (unsigned long long)resolveRunLength(
                    0, plan.measure, "EOLE_INSTS", defaultMeasureUops),
                sampleSpecString(spec).c_str(),
                opt.jobs > 0 ? opt.jobs : runnerThreads());
    if (spec.warmBound != 0) {
        std::printf("note: B=%llu disables the warm-once path (bounded "
                    "warming is per-interval); restore == re-warm\n",
                    (unsigned long long)spec.warmBound);
    }

    // Per-workload timing: one plan per workload so the wall-clock
    // comparison is at equal workload length, workload by workload
    // (the acceptance criterion asks for the win on at least one long
    // workload).
    std::printf("\n%-14s %-18s %10s %10s %8s %9s  %s\n", "workload",
                "config", "full", "sampled", "ci95", "==rewarm",
                "verdict");
    bool any_win = false;
    double best_speedup = 0.0;
    std::string best_workload;
    double full_total = 0.0, rewarm_total = 0.0, restore_total = 0.0;
    for (const std::string &wl : plan.workloads) {
        ExperimentPlan one = plan;
        one.workloads = {wl};

        const auto t0 = std::chrono::steady_clock::now();
        const PlanResult full = runPlan(one, opt);
        const auto t1 = std::chrono::steady_clock::now();
        const PlanResult rewarm = runSampledPlan(one, rewarm_spec, opt);
        const auto t2 = std::chrono::steady_clock::now();
        const PlanResult restore = runSampledPlan(one, spec, opt);
        const auto t3 = std::chrono::steady_clock::now();

        const double full_s = seconds(t0, t1);
        const double rewarm_s = seconds(t1, t2);
        const double restore_s = seconds(t2, t3);
        full_total += full_s;
        rewarm_total += rewarm_s;
        restore_total += restore_s;
        const double speedup =
            restore_s > 0 ? rewarm_s / restore_s : 0.0;

        bool accurate = true, exact = true;
        for (const RunResult &cell : restore.cells) {
            const RunResult *ref = full.find(cell.config, cell.workload);
            const RunResult *rw =
                rewarm.find(cell.config, cell.workload);
            if (!ref || !rw)
                continue;
            const double f = ref->ipc();
            const double m = cell.stats.get("ipc");
            const double ci = cell.stats.get("ipc_ci95");
            const bool inside = std::abs(m - f) <= ci;
            // Same warmed state ⇒ bit-equal measurements: the restore
            // path must reproduce the re-warm interval IPCs exactly.
            const bool equal = m == rw->stats.get("ipc")
                && cell.stats.get("cycles") == rw->stats.get("cycles")
                && cell.stats.get("committed_uops")
                    == rw->stats.get("committed_uops");
            accurate = accurate && inside;
            exact = exact && equal;
            std::printf("%-14s %-18s %10.4f %10.4f %8.4f %9s  %s\n",
                        cell.workload.c_str(), cell.config.c_str(), f,
                        m, ci, equal ? "yes" : "NO",
                        inside ? "within CI" : "OUTSIDE CI");
        }
        std::printf("%-14s wall clock: full %.2fs, re-warm %.2fs, "
                    "restore %.2fs -> %.1fx over re-warm%s%s\n",
                    wl.c_str(), full_s, rewarm_s, restore_s, speedup,
                    accurate ? "" : " (outside CI)",
                    exact ? "" : " (RESTORE != REWARM)");
        if (accurate && exact && speedup > best_speedup) {
            best_speedup = speedup;
            best_workload = wl;
        }
        any_win =
            any_win || (accurate && exact && speedup >= min_speedup);
    }

    std::printf("\ntotals: full %.2fs, re-warm %.2fs, restore %.2fs; "
                "best accurate speedup %.1fx on %s (target >= %.0fx "
                "over re-warm)\n",
                full_total, rewarm_total, restore_total, best_speedup,
                best_workload.empty() ? "-" : best_workload.c_str(),
                min_speedup);
    if (!any_win) {
        std::printf("FAIL: no workload is within CI, restore==re-warm "
                    "and >= %.0fx faster restored\n", min_speedup);
        return 1;
    }
    std::printf("OK: %.1fx wall-clock win within CI on %s\n",
                best_speedup, best_workload.c_str());
    return 0;
}

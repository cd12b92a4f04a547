/**
 * @file
 * Tests for the µops/sec bench harness (sim/bench.hh): artifact
 * round-trip and byte stability, the compare report's speedup math,
 * and a small live run checking the measured cells are sane and that
 * a bench cell simulates exactly what the sweep engine would for the
 * same identity (same committed work and IPC).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/bench.hh"
#include "sim/configs.hh"
#include "sim/plans.hh"
#include "sim/sweep.hh"

using namespace eole;

namespace {

BenchResult
sampleResult()
{
    BenchResult r;
    r.label = "sample";
    r.budget = 1000;
    r.warmup = 100;
    r.reps = 2;
    r.cells.push_back(
        BenchCell{"CfgA", "wl1", 1000, 0.5, 2000.0, 1.25, {}, 0.0});
    r.cells.push_back(
        BenchCell{"CfgA", "wl2", 1000, 0.25, 4000.0, 0.75, {}, 0.0});
    r.cells.push_back(
        BenchCell{"CfgB", "wl1", 900, 0.1, 9000.0, 2.0, {}, 0.0});
    return r;
}

} // namespace

TEST(Bench, Geomean)
{
    const BenchResult r = sampleResult();
    // geomean(2000, 4000, 9000) = cbrt(2000*4000*9000)
    EXPECT_NEAR(r.geomeanUopsPerSec(), 4160.17, 0.01);
    EXPECT_EQ(BenchResult{}.geomeanUopsPerSec(), 0.0);
}

TEST(Bench, JsonRoundTrip)
{
    const BenchResult r = sampleResult();
    const std::string text = benchJsonString(r);

    std::istringstream is(text);
    const BenchResult back = readBenchJson(is);
    EXPECT_EQ(back.label, r.label);
    EXPECT_EQ(back.budget, r.budget);
    EXPECT_EQ(back.warmup, r.warmup);
    EXPECT_EQ(back.reps, r.reps);
    ASSERT_EQ(back.cells.size(), r.cells.size());
    for (std::size_t i = 0; i < r.cells.size(); ++i) {
        EXPECT_EQ(back.cells[i].config, r.cells[i].config);
        EXPECT_EQ(back.cells[i].workload, r.cells[i].workload);
        EXPECT_EQ(back.cells[i].uops, r.cells[i].uops);
        // %.17g round-trips IEEE doubles exactly.
        EXPECT_EQ(back.cells[i].secondsMin, r.cells[i].secondsMin);
        EXPECT_EQ(back.cells[i].uopsPerSec, r.cells[i].uopsPerSec);
        EXPECT_EQ(back.cells[i].ipc, r.cells[i].ipc);
    }

    // Canonical form: re-serializing the parsed result reproduces the
    // artifact byte for byte.
    EXPECT_EQ(benchJsonString(back), text);
}

TEST(Bench, FindMatchesIdentity)
{
    const BenchResult r = sampleResult();
    ASSERT_NE(r.find("CfgB", "wl1"), nullptr);
    EXPECT_EQ(r.find("CfgB", "wl1")->uops, 900u);
    EXPECT_EQ(r.find("CfgB", "wl2"), nullptr);
    EXPECT_EQ(r.find("nope", "wl1"), nullptr);
}

TEST(Bench, CompareSpeedupMath)
{
    const BenchResult a = sampleResult();
    BenchResult b = sampleResult();
    b.label = "after";
    b.cells[0].uopsPerSec = 4000.0;  // 2.0x
    b.cells[1].uopsPerSec = 2000.0;  // 0.5x
    b.cells.pop_back();              // CfgB/wl1 only in a
    b.cells.push_back(BenchCell{"CfgC", "wl1", 1, 1.0, 1.0, 1.0, {}, 0.0});

    std::ostringstream os;
    const double g = compareBench(a, b, os);
    EXPECT_DOUBLE_EQ(g, 1.0);  // geomean(2.0, 0.5)

    const std::string report = os.str();
    EXPECT_NE(report.find("2.00x"), std::string::npos);
    EXPECT_NE(report.find("0.50x"), std::string::npos);
    EXPECT_NE(report.find("only-a"), std::string::npos);
    EXPECT_NE(report.find("only-b"), std::string::npos);
    EXPECT_NE(report.find("geomean speedup (2 common cell(s))"),
              std::string::npos);
}

TEST(Bench, CompareDisjointCellsIsZero)
{
    BenchResult a = sampleResult();
    BenchResult b;
    b.cells.push_back(BenchCell{"Other", "wl9", 1, 1.0, 1.0, 1.0, {}, 0.0});
    std::ostringstream os;
    EXPECT_EQ(compareBench(a, b, os), 0.0);
}

TEST(Bench, LiveRunMatchesSweepBehavior)
{
    // A tiny real measurement: one config, one workload, two reps.
    BenchOptions opt;
    opt.configs = {"Baseline_4_48"};
    opt.workloads = {"164.gzip"};
    opt.budget = 20000;
    opt.warmup = 2000;
    opt.reps = 2;
    opt.quiet = true;
    const BenchResult r = runBench(opt);

    ASSERT_EQ(r.cells.size(), 1u);
    const BenchCell &cell = r.cells[0];
    EXPECT_EQ(cell.config, "Baseline_4_48");
    EXPECT_EQ(cell.workload, "164.gzip");
    // Commit is multi-wide: the run stops at the first cycle boundary
    // at or past the budget, so the committed count may overshoot by
    // up to (commit width - 1) µ-ops.
    EXPECT_GE(cell.uops, opt.budget);
    EXPECT_LT(cell.uops, opt.budget + 8);
    EXPECT_GT(cell.secondsMin, 0.0);
    EXPECT_GT(cell.uopsPerSec, 0.0);
    EXPECT_GT(cell.ipc, 0.0);

    // The bench cell's simulated behavior must be exactly the sweep
    // engine's for the same (config, workload, seed, run lengths) —
    // the bench times the real thing, not a variant of it.
    ExperimentPlan p;
    p.name = "bench-mirror";
    SimConfig c;
    ASSERT_TRUE(configs::findNamed("Baseline_4_48", &c));
    p.configs = {c};
    p.workloads = {"164.gzip"};
    p.warmup = opt.warmup;
    p.measure = opt.budget;
    const PlanResult sweep = runPlan(p);
    ASSERT_EQ(sweep.cells.size(), 1u);
    EXPECT_DOUBLE_EQ(cell.ipc, sweep.cells[0].ipc());
    EXPECT_EQ(static_cast<std::uint64_t>(
                  sweep.cells[0].stats.get("committed_uops")),
              cell.uops);
}

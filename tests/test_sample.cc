/**
 * @file
 * Tests for the checkpointed statistical-sampling subsystem
 * (isa/checkpoint.hh, isa/warmable.hh, sim/sample/).
 *
 * The correctness anchor is exactness of the checkpoint round trip:
 * serialize -> restore -> run must commit exactly the same µ-op
 * stream as a straight-through run, pinned here with the torture-test
 * program generator across random programs and split points. On top
 * of that, the statistical layer is held to the engine's determinism
 * contract (byte-identical artifacts across --jobs and cache
 * settings) and to a validation suite: sampled mean IPC must fall
 * within its own reported 95% confidence interval of the full-run
 * IPC for every (workload x config) cell it runs.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "isa/checkpoint.hh"
#include "isa/kernel_vm.hh"
#include "pipeline/core.hh"
#include "sim/artifact.hh"
#include "sim/configs.hh"
#include "sim/plans.hh"
#include "sim/sample/sample.hh"
#include "sim/store.hh"
#include "sim/telemetry.hh"
#include "workloads/torture_gen.hh"
#include "workloads/workload.hh"

using namespace eole;
using workloads::generateTortureProgram;
using workloads::tortureMemBytes;

namespace {

/** The commit-stream fields we hold a restored run to. */
struct CommitRecord
{
    SeqNum seq;
    Addr pc;
    Opcode opc;
    RegVal result;
    Addr effAddr;
    bool taken;

    bool
    operator==(const CommitRecord &o) const
    {
        return seq == o.seq && pc == o.pc && opc == o.opc
            && result == o.result && effAddr == o.effAddr
            && taken == o.taken;
    }
};

CommitRecord
recordOf(const DynInst &di)
{
    CommitRecord r{};
    r.seq = di.seq;
    r.pc = di.uop().pc;
    r.opc = di.uop().opc;
    r.result = di.hasDst() ? di.computedValue
                               : (di.uop().isStore() ? di.uop().result : 0);
    r.effAddr =
        (di.uop().isLoad() || di.uop().isStore()) ? di.uop().effAddr : 0;
    r.taken = di.uop().isBranch() ? di.uop().taken : false;
    return r;
}

/** Run @p w under @p cfg to completion, capturing the commit stream. */
std::vector<CommitRecord>
commitStream(const SimConfig &cfg, const Workload &w, std::size_t cap)
{
    std::vector<CommitRecord> got;
    Core core(cfg, w);
    core.setCommitHook(
        [&](const DynInst &di) { got.push_back(recordOf(di)); });
    core.run(cap + 64, cap * 300 + 200000);
    return got;
}

std::string
reproLine(std::uint64_t seed)
{
    return "repro: EOLE_SAMPLE_SEED=" + std::to_string(seed)
        + " ./build/test_sample";
}

/** A scratch directory, removed with everything in it. */
struct TempDir
{
    std::filesystem::path dir;

    explicit TempDir(const std::string &tag)
        : dir(std::filesystem::temp_directory_path()
              / ("eole_sample_test_" + tag + "_"
                 + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(dir);
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    std::string path(const std::string &name) const
    {
        return (dir / name).string();
    }
};

/** Every file of @p dir: name -> bytes. */
std::map<std::string, std::string>
readDir(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        std::ifstream is(e.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << is.rdbuf();
        out[e.path().filename().string()] = bytes.str();
    }
    return out;
}

/** The 2x2 smoke plan at explicit run lengths (env-independent). */
ExperimentPlan
sampledTinyPlan()
{
    ExperimentPlan p = plans::get("smoke");
    p.warmup = 4000;
    p.measure = 30000;
    return p;
}

} // namespace

// ============================ Checkpoints ================================

TEST(Checkpoint, CaptureAtMatchesLiveVM)
{
    const std::uint64_t base = envU64("EOLE_SAMPLE_SEED", 0x5A3);
    for (std::uint64_t r = 0; r < 8; ++r) {
        const std::uint64_t seed = base + r;
        Workload w;
        w.name = "torture-" + std::to_string(seed);
        w.memBytes = tortureMemBytes;
        w.program = generateTortureProgram(seed);

        const auto trace = w.freeze(1u << 21);
        ASSERT_TRUE(trace->complete) << reproLine(seed);
        const std::uint64_t len = trace->uops.size();

        KernelVM vm(w.program, w.memBytes);
        TraceUop u;
        Checkpoint resumed = captureAt(*trace, w.name, 0);
        for (const std::uint64_t split :
             {std::uint64_t(0), len / 3, len / 2, len}) {
            while (vm.executedUops() < split)
                ASSERT_TRUE(vm.step(u)) << reproLine(seed);
            const Checkpoint fromVm = captureFromVM(vm, w.name);
            const Checkpoint fromTrace = captureAt(*trace, w.name, split);
            // The warm-once pass resumes each capture from the last.
            resumed = captureAt(*trace, w.name, split, resumed);
            EXPECT_TRUE(fromVm == fromTrace)
                << "split " << split << "; " << reproLine(seed);
            EXPECT_TRUE(resumed == fromTrace)
                << "resumed at split " << split << "; " << reproLine(seed);
        }

        // Resuming one µ-op at a time stays bit-equal to a from-scratch
        // capture at every index of the trace.
        if (r == 0) {
            Checkpoint step = captureAt(*trace, w.name, 0);
            for (std::uint64_t i = 1; i <= len; ++i) {
                step = captureAt(*trace, w.name, i, step);
                ASSERT_TRUE(step == captureAt(*trace, w.name, i))
                    << "index " << i << "; " << reproLine(seed);
            }
        }
    }
}

TEST(Checkpoint, ByValueCaptureSerializesToTheTextBytes)
{
    // The in-process checkpoint holds copies, a file holds text: at the
    // same index of one warming pass both must serialize to the same
    // bytes, for a core with and without value prediction.
    const std::uint64_t seed = envU64("EOLE_SAMPLE_SEED", 0x5A3) + 700;
    Workload w;
    w.name = "torture-" + std::to_string(seed);
    w.memBytes = tortureMemBytes;
    w.program = generateTortureProgram(seed);
    w.frozen = w.freeze(1u << 21);
    ASSERT_TRUE(w.frozen->complete);
    const std::uint64_t len = w.frozen->uops.size();

    for (const SimConfig &cfg :
         {configs::baseline(6, 64), configs::eole(4, 64)}) {
        Core core(cfg, w);
        std::uint64_t warmed = 0;
        for (const std::uint64_t idx : {len / 4, len / 2, len}) {
            core.functionalWarm(*w.frozen, warmed, idx);
            warmed = idx;
            Checkpoint byValue = captureAt(*w.frozen, w.name, idx);
            Checkpoint text = byValue;
            core.captureWarmState(byValue);
            core.captureWarmText(text);
            ASSERT_EQ(byValue.uarch.size(), cfg.vp.kind == VpKind::None
                                                ? 2u : 3u);
            for (const CheckpointSection &section : byValue.uarch) {
                EXPECT_NE(section.state, nullptr) << section.name;
                EXPECT_TRUE(section.text.empty()) << section.name;
            }
            const std::string bytes = checkpointString(text);
            EXPECT_EQ(checkpointString(byValue), bytes)
                << cfg.name << " at " << idx;
            EXPECT_TRUE(checkpointFromString(bytes) == byValue)
                << cfg.name << " at " << idx;
        }
    }
}

TEST(Checkpoint, SerializationRoundTripsByteStable)
{
    Workload w;
    w.name = "torture with spaces";  // exercise the length prefix
    w.memBytes = tortureMemBytes;
    w.program = generateTortureProgram(0xC0FFEE);
    const auto trace = w.freeze(1u << 21);
    ASSERT_TRUE(trace->complete);

    const Checkpoint ckpt =
        captureAt(*trace, w.name, trace->uops.size() / 2);
    const std::string bytes = checkpointString(ckpt);
    const Checkpoint back = checkpointFromString(bytes);
    EXPECT_TRUE(back == ckpt);
    // Canonical: re-serializing produces identical bytes.
    EXPECT_EQ(checkpointString(back), bytes);
    EXPECT_NE(bytes.find("eole-ckpt-v1"), std::string::npos);
}

TEST(Checkpoint, RejectsMalformedDocuments)
{
    EXPECT_DEATH((void)checkpointFromString("bogus"), "schema");
    EXPECT_DEATH((void)checkpointFromString("eole-ckpt-v1\nworkload"),
                 "");
    // A corrupt length must be a diagnostic, not a bad_alloc.
    EXPECT_DEATH((void)checkpointFromString(
                     "eole-ckpt-v1\nworkload 18446744073709551615 x"),
                 "implausible");
    EXPECT_DEATH((void)checkpointFromString(
                     "eole-ckpt-v1\nworkload 9 abc"),
                 "truncated");
}

TEST(Checkpoint, RoundTripIsExactCommitForCommit)
{
    // The acceptance anchor: serialize -> restore -> run equals the
    // straight-through run commit-for-commit, across random torture
    // programs, split points and configurations (including EOLE with
    // value prediction, whose squash machinery must cope with a
    // mid-stream start).
    const std::uint64_t base = envU64("EOLE_SAMPLE_SEED", 0x5A3);
    const SimConfig cfgs[] = {
        configs::baseline(6, 64),
        configs::eole(4, 64),
    };

    for (std::uint64_t r = 0; r < 6; ++r) {
        const std::uint64_t seed = base + 100 + r;
        Workload w;
        w.name = "torture-" + std::to_string(seed);
        w.memBytes = tortureMemBytes;
        w.program = generateTortureProgram(seed);
        w.frozen = w.freeze(1u << 21);
        ASSERT_TRUE(w.frozen->complete) << reproLine(seed);
        const std::uint64_t len = w.frozen->uops.size();

        for (const SimConfig &cfg : cfgs) {
            const auto ref = commitStream(cfg, w, len);
            ASSERT_EQ(ref.size(), len) << cfg.name << "; "
                                       << reproLine(seed);

            for (const std::uint64_t split :
                 {len / 4, len / 2, (3 * len) / 4}) {
                // Serialize and restore through the canonical text
                // form — the restored object, not the original, seeds
                // the run.
                const Checkpoint ckpt =
                    captureAt(*w.frozen, w.name, split);
                const Checkpoint restored =
                    checkpointFromString(checkpointString(ckpt));

                Workload resumed = w;
                resumed.start = std::make_shared<Checkpoint>(restored);
                const auto got =
                    commitStream(cfg, resumed, len - split);
                ASSERT_EQ(got.size(), len - split)
                    << cfg.name << " split " << split << "; "
                    << reproLine(seed);
                for (std::size_t i = 0; i < got.size(); ++i) {
                    ASSERT_TRUE(got[i] == ref[split + i])
                        << cfg.name << " split " << split
                        << ": commit #" << i << " diverges; "
                        << reproLine(seed);
                }
            }
        }
    }
}

TEST(Checkpoint, FunctionalWarmDoesNotPerturbArchitecture)
{
    // Warming the predictors/caches before a checkpointed run must not
    // change a single committed value — it only moves timing.
    const std::uint64_t seed = envU64("EOLE_SAMPLE_SEED", 0x5A3) + 500;
    Workload w;
    w.name = "torture-" + std::to_string(seed);
    w.memBytes = tortureMemBytes;
    w.program = generateTortureProgram(seed);
    w.frozen = w.freeze(1u << 21);
    ASSERT_TRUE(w.frozen->complete);
    const std::uint64_t len = w.frozen->uops.size();
    const std::uint64_t split = len / 2;

    const SimConfig cfg = configs::eole(4, 64);
    const auto ref = commitStream(cfg, w, len);
    ASSERT_EQ(ref.size(), len);

    Workload resumed = w;
    resumed.start = std::make_shared<Checkpoint>(
        captureAt(*w.frozen, w.name, split));

    std::vector<CommitRecord> got;
    Core core(cfg, resumed);
    core.functionalWarm(*w.frozen, 0, split);
    core.setCommitHook(
        [&](const DynInst &di) { got.push_back(recordOf(di)); });
    core.run(len - split + 64, len * 300 + 200000);
    ASSERT_EQ(got.size(), len - split) << reproLine(seed);
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i] == ref[split + i])
            << "commit #" << i << " diverges after warming; "
            << reproLine(seed);
    }
}

TEST(Warming, ResetTimingOpensACleanMeasurementWindow)
{
    // resetTiming must zero the memory-hierarchy counters (so a
    // sampled interval's record() covers only the measured window),
    // while plain resetStats leaves them accumulating — the full-run
    // golden records pin that accumulation.
    const Workload w = workloads::build("164.gzip");
    const SimConfig cfg = configs::eole(6, 64);

    Core a(cfg, w);
    a.run(5000, 2000000);
    a.resetStats();
    const double accumulating = a.record().get("mem.l1d.hits");
    EXPECT_GT(accumulating, 0.0);  // warmup traffic still visible

    Core b(cfg, w);
    b.run(5000, 2000000);
    b.resetTiming();
    EXPECT_EQ(b.record().get("mem.l1d.hits"), 0.0);
    EXPECT_EQ(b.record().get("mem.dram.reads"), 0.0);
    EXPECT_EQ(b.record().get("cycles"), 0.0);
    // The window then accumulates only its own traffic.
    b.run(5000, 2000000);
    EXPECT_GT(b.record().get("mem.l1d.hits"), 0.0);
    EXPECT_LT(b.record().get("mem.l1d.hits"), accumulating);
}

TEST(Warming, BranchWarmUpdateMatchesPredictRepairCommit)
{
    // BranchUnit::warmUpdate is a snapshot-free fast path; pin its
    // state-equivalence to the literal predict -> repair-on-mispredict
    // -> commit sequence by warming two identically-seeded units over
    // the same stream and requiring identical predictions afterwards.
    const std::uint64_t base = envU64("EOLE_SAMPLE_SEED", 0x5A3) + 900;
    std::size_t branches = 0;
    for (std::uint64_t r = 0; r < 12; ++r) {
        Workload w;
        w.memBytes = tortureMemBytes;
        w.program = generateTortureProgram(base + r);
        const auto trace = w.freeze(1u << 21);
        ASSERT_TRUE(trace->complete);

        const BpConfig bp;
        BranchUnit fast(bp, {}, 0x1234);
        BranchUnit ref(bp, {}, 0x1234);

        const std::size_t warm_len = trace->uops.size() / 2;
        for (std::size_t i = 0; i < warm_len; ++i) {
            const TraceUop &u = trace->uops[i];
            fast.warmUpdate(u);
            if (!u.isBranch())
                continue;
            BranchUnit::SnapshotPtr pre;
            const BranchPrediction p = ref.predictBranch(u, pre);
            if (p.mispredict)
                ref.repairAfterBranch(u, pre);
            ref.commitBranch(u, p);
        }

        // Both units must now predict the tail identically.
        for (std::size_t i = warm_len; i < trace->uops.size(); ++i) {
            const TraceUop &u = trace->uops[i];
            if (!u.isBranch())
                continue;
            ++branches;
            BranchUnit::SnapshotPtr pf, pr;
            const BranchPrediction a = fast.predictBranch(u, pf);
            const BranchPrediction b = ref.predictBranch(u, pr);
            ASSERT_EQ(a.predTaken, b.predTaken) << "µ-op " << i;
            ASSERT_EQ(a.predTarget, b.predTarget) << "µ-op " << i;
            ASSERT_EQ(a.highConf, b.highConf) << "µ-op " << i;
            ASSERT_EQ(a.mispredict, b.mispredict) << "µ-op " << i;
            if (a.mispredict) {
                fast.repairAfterBranch(u, pf);
                ref.repairAfterBranch(u, pr);
            }
            fast.commitBranch(u, a);
            ref.commitBranch(u, b);
        }
    }
    EXPECT_GT(branches, 200u);
}

// ======================= Interval placement ==============================

TEST(Sampling, PlacementIsSystematicDeterministicAndBounded)
{
    SampleSpec spec;
    spec.intervals = 10;
    spec.intervalUops = 1000;
    spec.detailUops = 500;

    const std::uint64_t warmup = 50000, measure = 200000;
    const auto a = placeIntervals(warmup, measure, spec, 42);
    const auto b = placeIntervals(warmup, measure, spec, 42);
    EXPECT_EQ(a, b);  // deterministic
    ASSERT_EQ(a.size(), 10u);

    const std::uint64_t period = measure / spec.intervals;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_GE(a[i], warmup);
        EXPECT_GE(a[i], spec.detailUops);
        EXPECT_LE(a[i] + spec.intervalUops, warmup + measure);
        if (i > 0) {
            EXPECT_EQ(a[i] - a[i - 1], period);  // systematic spacing
        }
    }

    // The phase depends on the cell seed.
    const auto c = placeIntervals(warmup, measure, spec, 43);
    EXPECT_NE(a, c);

    // Region too small for N intervals: clamped, never overlapping the
    // region end.
    const auto d = placeIntervals(1000, 2500, spec, 7);
    ASSERT_EQ(d.size(), 2u);
    for (const std::uint64_t s : d)
        EXPECT_LE(s + spec.intervalUops, 3500u);
}

TEST(Sampling, PlacementStaysDisjointWhenDetailClampBites)
{
    // Regression: a D larger than the early systematic positions used
    // to clamp several intervals onto the same start, double-counting
    // one measurement and biasing the CI narrow. Clamped placements
    // must stay pairwise disjoint (and may shrink below N instead).
    SampleSpec spec;
    spec.intervals = 4;
    spec.intervalUops = 2000;
    spec.detailUops = 10000;  // > warmup + early periods

    for (std::uint64_t seed : {1ULL, 42ULL, 0xE01EULL}) {
        const auto s = placeIntervals(2000, 20000, spec, seed);
        ASSERT_GE(s.size(), 1u);
        for (std::size_t i = 1; i < s.size(); ++i)
            EXPECT_GE(s[i], s[i - 1] + spec.intervalUops)
                << "seed " << seed << " interval " << i;
        // All but the guaranteed first interval stay inside the region.
        for (std::size_t i = 1; i < s.size(); ++i)
            EXPECT_LE(s[i] + spec.intervalUops, 22000u);
        for (const std::uint64_t start : s)
            EXPECT_GE(start, spec.detailUops);
    }
}

TEST(Sampling, MeanCi95MatchesHandComputation)
{
    const MeanCi ci = meanCi95({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(ci.mean, 2.0);
    EXPECT_DOUBLE_EQ(ci.stddev, 1.0);
    // t(df=2, 97.5%) = 4.303; half-width = 4.303 / sqrt(3).
    EXPECT_NEAR(ci.ci95, 4.303 / std::sqrt(3.0), 1e-9);

    EXPECT_DOUBLE_EQ(meanCi95({}).mean, 0.0);
    const MeanCi one = meanCi95({1.5});
    EXPECT_DOUBLE_EQ(one.mean, 1.5);
    EXPECT_DOUBLE_EQ(one.ci95, 0.0);
}

// ========================= Sampled sweeps ================================

TEST(Sampling, JobCountAndCacheDoNotChangeTheArtifactBytes)
{
    const ExperimentPlan plan = sampledTinyPlan();
    SampleSpec spec;
    spec.intervals = 5;
    spec.intervalUops = 2000;
    spec.detailUops = 1000;

    SweepOptions serial;
    serial.jobs = 1;
    SweepOptions wide;
    wide.jobs = 8;
    SweepOptions live;
    live.useTraceCache = false;

    const std::string a =
        jsonArtifactString(runSampledPlan(plan, spec, serial));
    const std::string b =
        jsonArtifactString(runSampledPlan(plan, spec, wide));
    const std::string c =
        jsonArtifactString(runSampledPlan(plan, spec, live));
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
    EXPECT_NE(a.find("\"sample\": {\"intervals\": 5"), std::string::npos);
}

TEST(Sampling, ArtifactRoundTripsSampleFields)
{
    const ExperimentPlan plan = sampledTinyPlan();
    SampleSpec spec;
    spec.intervals = 3;
    spec.intervalUops = 1500;
    spec.detailUops = 700;
    const PlanResult res = runSampledPlan(plan, spec);

    std::stringstream json;
    writeJsonArtifact(json, res);
    const PlanResult back = readJsonArtifact(json);
    EXPECT_EQ(back.sample.intervals, spec.intervals);
    EXPECT_EQ(back.sample.intervalUops, spec.intervalUops);
    EXPECT_EQ(back.sample.detailUops, spec.detailUops);
    EXPECT_EQ(jsonArtifactString(back), jsonArtifactString(res));

    ASSERT_FALSE(res.cells.empty());
    for (const RunResult &cell : res.cells) {
        EXPECT_GT(cell.stats.get("ipc"), 0.0);
        EXPECT_TRUE(cell.stats.has("ipc_ci95"));
        EXPECT_EQ(cell.stats.get("sample_interval_uops"),
                  double(spec.intervalUops));
        EXPECT_EQ(cell.stats.get("sample_detail_uops"),
                  double(spec.detailUops));
        EXPECT_GT(cell.stats.get("sample_intervals"), 0.0);
    }
}

TEST(Sampling, SampleSpecParsesAndRejects)
{
    const SampleSpec s = parseSampleSpec("20:10000:5000");
    EXPECT_EQ(s.intervals, 20u);
    EXPECT_EQ(s.intervalUops, 10000u);
    EXPECT_EQ(s.detailUops, 5000u);
    EXPECT_EQ(s.warmBound, 0u);  // default: full-prefix warming
    EXPECT_EQ(sampleSpecString(s), "20:10000:5000:0");

    const SampleSpec d = parseSampleSpec("8:6000");
    EXPECT_EQ(d.detailUops, 3000u);  // D defaults to W/2

    const SampleSpec b = parseSampleSpec("8:6000:3000:0");
    EXPECT_EQ(b.warmBound, 0u);  // explicit 0 = unbounded warming
    const SampleSpec b2 = parseSampleSpec("8:6000:3000:75000");
    EXPECT_EQ(b2.warmBound, 75000u);

    EXPECT_DEATH((void)parseSampleSpec("oops"), "sample spec");
    EXPECT_DEATH((void)parseSampleSpec("8"), "sample spec");
    EXPECT_DEATH((void)parseSampleSpec("0:100:10"), "positive");
    EXPECT_DEATH((void)parseSampleSpec("8:100:10:9:4"), "sample spec");
    // strtoull would wrap negatives to ~2^64; they must be rejected.
    EXPECT_DEATH((void)parseSampleSpec("4:-100:50"), "sample spec");
    EXPECT_DEATH((void)parseSampleSpec("-4:100"), "sample spec");
    EXPECT_DEATH((void)parseSampleSpec("4:100:+10"), "sample spec");
}

TEST(Sampling, WarmOnceRestoreMatchesContinuousRewarmExactly)
{
    // The warm-once differential: a v2 restore-based sampled run must
    // measure EXACTLY what the legacy B=0 per-interval continuous
    // re-warming run measures (same warmed state ⇒ same
    // measurements), across 2 configs x 2 torture workloads. Only the
    // cost accounting (sample_warm_uops, sample_restored_intervals)
    // may differ — the restore path warms each cell's prefix once.
    ExperimentPlan plan;
    plan.name = "warm_once_diff";
    plan.configs = {configs::baselineVp(6, 64), configs::eole(4, 64)};
    plan.workloads = {"torture:3101:600", "torture:3102:600"};
    plan.warmup = 1000;
    plan.measure = 12000;

    SampleSpec spec;
    spec.intervals = 4;
    spec.intervalUops = 800;
    spec.detailUops = 400;

    SweepOptions restore_opt;
    SweepOptions rewarm_opt;
    rewarm_opt.sampleRewarm = true;

    const PlanResult a = runSampledPlan(plan, spec, restore_opt);
    const PlanResult b = runSampledPlan(plan, spec, rewarm_opt);
    ASSERT_EQ(a.cells.size(), 4u);
    ASSERT_EQ(b.cells.size(), a.cells.size());

    std::size_t measured = 0;
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const RunResult &ra = a.cells[i];
        const RunResult &rb = b.cells[i];
        ASSERT_EQ(ra.config, rb.config);
        ASSERT_EQ(ra.workload, rb.workload);
        for (const char *stat :
             {"ipc", "ipc_ci95", "ipc_stddev", "cycles",
              "committed_uops", "sample_intervals"}) {
            EXPECT_EQ(ra.stats.get(stat), rb.stats.get(stat))
                << ra.config << "/" << ra.workload << " " << stat;
        }
        // The restore path really ran on checkpoints; the re-warm
        // path never does.
        EXPECT_GT(ra.stats.get("sample_restored_intervals"), 0.0)
            << ra.config << "/" << ra.workload;
        EXPECT_EQ(rb.stats.get("sample_restored_intervals"), 0.0);
        // And it warmed strictly less (once per cell, not per
        // interval) while measuring the same µ-ops.
        EXPECT_LT(ra.stats.get("sample_warm_uops"),
                  rb.stats.get("sample_warm_uops"))
            << ra.config << "/" << ra.workload;
        if (ra.stats.get("committed_uops") > 0.0)
            ++measured;
    }
    EXPECT_GT(measured, 0u);

    // The restore path keeps the engine's determinism contract:
    // byte-identical artifacts across --jobs.
    SweepOptions wide = restore_opt;
    wide.jobs = 8;
    EXPECT_EQ(jsonArtifactString(runSampledPlan(plan, spec, wide)),
              jsonArtifactString(a));
}

TEST(Sampling, EachCellsIntervalsRunRightAfterItsWarmPass)
{
    // The executor orders phases per cell: with one worker, a cell's
    // interval jobs follow its warm job directly, so at most one cell's
    // checkpoint copies are ever alive.
    const ExperimentPlan plan = sampledTinyPlan();
    SampleSpec spec;
    spec.intervals = 3;
    spec.intervalUops = 1500;
    spec.detailUops = 700;

    TempDir tmp("order");
    std::filesystem::create_directories(tmp.dir);
    const std::string path = tmp.path("run.jsonl");
    {
        TelemetrySink sink(path);
        SweepOptions serial;
        serial.jobs = 1;
        serial.telemetry = &sink;
        runSampledPlan(plan, spec, serial);
    }

    std::vector<std::pair<std::string, std::string>> jobs;  // kind, cell
    for (const TelemetryEvent &ev : readTelemetry(path)) {
        if (ev.ev == "job_start") {
            jobs.emplace_back(ev.str("kind"),
                              ev.str("config") + "/" + ev.str("workload"));
        }
    }
    std::set<std::string> cells;
    for (std::size_t i = 0; i < jobs.size();) {
        ASSERT_EQ(jobs[i].first, "warm") << "job " << i;
        const std::string cell = jobs[i].second;
        EXPECT_TRUE(cells.insert(cell).second) << cell << " warmed twice";
        std::size_t intervals = 0;
        for (++i; i < jobs.size() && jobs[i].first == "interval"; ++i) {
            EXPECT_EQ(jobs[i].second, cell) << "job " << i;
            ++intervals;
        }
        EXPECT_EQ(intervals, spec.intervals) << cell;
    }
    EXPECT_EQ(cells.size(), 4u);
}

TEST(Sampling, SampledIpcFallsWithinItsCiOfTheFullRun)
{
    // The validation suite of the acceptance criteria: for 4 workloads
    // x 2 configurations (VP baseline and EOLE), the sampled mean IPC
    // must land within its own reported 95% CI of the full-run IPC.
    // Deterministic: fixed seeds, fixed lengths — once green, always
    // green.
    ExperimentPlan plan;
    plan.name = "sample_validation";
    plan.configs = {configs::baselineVp(6, 64), configs::eole(6, 64)};
    plan.workloads = {"164.gzip", "186.crafty", "458.sjeng",
                      "444.namd"};
    plan.warmup = 10000;
    plan.measure = 120000;

    SampleSpec spec;
    spec.intervals = 12;
    spec.intervalUops = 3000;
    spec.detailUops = 2000;

    const PlanResult full = runPlan(plan);
    const PlanResult sampled = runSampledPlan(plan, spec);

    for (const RunResult &cell : sampled.cells) {
        const RunResult *ref = full.find(cell.config, cell.workload);
        ASSERT_NE(ref, nullptr);
        const double full_ipc = ref->ipc();
        const double mean = cell.stats.get("ipc");
        const double ci = cell.stats.get("ipc_ci95");
        EXPECT_GT(ci, 0.0) << cell.config << "/" << cell.workload;
        EXPECT_LE(std::fabs(mean - full_ipc), ci)
            << cell.config << "/" << cell.workload << ": sampled "
            << mean << " +/- " << ci << " vs full " << full_ipc;
    }
}

// ===================== Checkpoint files (ckpt save) ======================

TEST(CheckpointFiles, SaveMatchesTheSampledRunAcrossJobsAndStore)
{
    // Two configs, one with a `runlen` override: the saved checkpoints
    // must sit exactly where a sampled run of the same plan restores
    // from, so each cell's last checkpoint index is the µ-op count its
    // sampled run warmed.
    ExperimentPlan plan;
    plan.name = "ckpt_files";
    plan.configs = {configs::baseline(6, 64), configs::eole(4, 64)};
    plan.workloads = {"164.gzip", "186.crafty"};
    plan.warmup = 4000;
    plan.measure = 20000;
    plan.runlens = {{plan.configs[1].name, 36000}};

    SampleSpec spec;
    spec.intervals = 3;
    spec.intervalUops = 1500;
    spec.detailUops = 700;

    TempDir tmp("ckpt_files");
    SweepOptions serial;
    serial.jobs = 1;
    const CheckpointFiles saved =
        saveCheckpoints(plan, spec, serial, tmp.path("serial"));
    ASSERT_TRUE(saved.error.empty()) << saved.error;
    EXPECT_EQ(saved.cells, 4u);

    std::map<std::string, std::uint64_t> largest;
    for (const std::string &file : saved.files) {
        const std::string name =
            std::filesystem::path(file).filename().string();
        const std::size_t u = name.rfind("__u");
        ASSERT_NE(u, std::string::npos) << name;
        const std::uint64_t idx = std::stoull(name.substr(u + 3));
        std::uint64_t &max = largest[name.substr(0, u)];
        max = std::max(max, idx);
    }
    const PlanResult sampled = runSampledPlan(plan, spec, serial);
    ASSERT_EQ(largest.size(), sampled.cells.size());
    for (const RunResult &cell : sampled.cells) {
        const std::string id = sanitizeForPath(cell.config) + "__"
            + sanitizeForPath(cell.workload);
        EXPECT_EQ(double(largest[id]), cell.stats.get("sample_warm_uops"))
            << id;
    }

    // The worker count never changes a byte.
    SweepOptions wide;
    wide.jobs = 3;
    ASSERT_TRUE(
        saveCheckpoints(plan, spec, wide, tmp.path("wide")).error.empty());
    const auto reference = readDir(tmp.path("serial"));
    EXPECT_EQ(readDir(tmp.path("wide")), reference);

    // A warm store serves every checkpoint, computes none and writes
    // the same bytes.
    Store store(tmp.path("store"));
    SweepOptions stored = serial;
    stored.store = &store;
    const CheckpointFiles cold =
        saveCheckpoints(plan, spec, stored, tmp.path("cold"));
    EXPECT_EQ(cold.storeHits, 0u);
    EXPECT_EQ(cold.storeComputed, 12u);
    const CheckpointFiles warm =
        saveCheckpoints(plan, spec, stored, tmp.path("warm"));
    EXPECT_EQ(warm.storeHits, 12u);
    EXPECT_EQ(warm.storeComputed, 0u);
    EXPECT_EQ(warm.files.size(), cold.files.size());
    EXPECT_EQ(readDir(tmp.path("cold")), reference);
    EXPECT_EQ(readDir(tmp.path("warm")), reference);
}

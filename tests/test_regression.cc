/**
 * @file
 * Golden regression tests: the simulator is fully deterministic for a
 * given seed, so key end-to-end metrics are pinned within tight bands.
 * These catch unintended behavioural drift (a changed default, a
 * predictor off-by-one, a timing regression) that unit tests can miss.
 *
 * Bands are deliberately a few percent wide so that *intentional*
 * model changes with small effects do not require retuning, while
 * structural mistakes (broken bypass, dead predictor, wrong latency)
 * fall far outside them.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "isa/assembler.hh"
#include "pipeline/core.hh"
#include "sim/configs.hh"
#include "sim/plan.hh"
#include "workloads/workload.hh"

using namespace eole;

namespace {

/** @p w with a recording of @p uops µ-ops plus what @p cfg may hold in
 *  flight past them. */
Workload
recorded(Workload w, const SimConfig &cfg, std::uint64_t uops)
{
    w.frozen = w.freeze(uops + maxInflightUops(cfg));
    return w;
}

struct GoldenCase
{
    const char *workload;
    double baselineIpc;   //!< Baseline_6_64
    double eoleIpc;       //!< EOLE_4_64
    double eoleOffload;   //!< EOLE_4_64 offload fraction
    double tolerance;     //!< relative band on the IPCs
};

class Golden : public ::testing::TestWithParam<GoldenCase>
{
  protected:
    static CoreStats
    run(const SimConfig &cfg, const std::string &workload)
    {
        const Workload w =
            recorded(workloads::build(workload), cfg, 150000 + 400000);
        Core core(cfg, w);
        core.run(150000, 60000000);
        core.resetStats();
        core.run(400000, 120000000);
        return core.stats();
    }
};

} // namespace

TEST_P(Golden, BaselineAndEoleMetricsStayPinned)
{
    const GoldenCase &g = GetParam();

    const CoreStats base = run(configs::baseline(6, 64), g.workload);
    EXPECT_NEAR(base.ipc(), g.baselineIpc,
                g.baselineIpc * g.tolerance)
        << g.workload << " Baseline_6_64";

    const CoreStats eole4 = run(configs::eole(4, 64), g.workload);
    EXPECT_NEAR(eole4.ipc(), g.eoleIpc, g.eoleIpc * g.tolerance)
        << g.workload << " EOLE_4_64";

    const double offload =
        double(eole4.earlyExecuted + eole4.lateExecutedAlu
               + eole4.lateExecutedBranches)
        / eole4.committedUops;
    EXPECT_NEAR(offload, g.eoleOffload, 0.05) << g.workload << " offload";
}

// Golden values measured at 150K warmup + 400K µ-ops (deterministic;
// regenerate with examples/quickstart if the model legitimately
// changes, and record the change in EXPERIMENTS.md).
INSTANTIATE_TEST_SUITE_P(
    KeyBenchmarks, Golden,
    ::testing::Values(
        // Note these are short-run (550K µ-op) values: several kernels
        // have not reached cache/DRAM steady state yet, so they differ
        // from the long-run IPCs in EXPERIMENTS.md. Both are pinned by
        // determinism.
        GoldenCase{"164.gzip", 1.378, 1.371, 0.14, 0.10},
        GoldenCase{"179.art", 2.339, 2.367, 0.59, 0.12},
        GoldenCase{"429.mcf", 0.08, 0.08, 0.11, 0.15},
        GoldenCase{"444.namd", 2.60, 2.80, 0.63, 0.12},
        GoldenCase{"456.hmmer", 3.60, 3.30, 0.12, 0.15},
        GoldenCase{"470.lbm", 0.804, 0.804, 0.06, 0.15}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        std::string s = info.param.workload;
        for (char &c : s) {
            if (c == '.')
                c = '_';
        }
        return s;
    });

TEST(GoldenDeterminism, SameSeedSameCycleCount)
{
    const SimConfig cfg = configs::eoleConstrained(4, 64, 4, 4);
    std::uint64_t cycles[2];
    for (int r = 0; r < 2; ++r) {
        const Workload w =
            recorded(workloads::build("458.sjeng"), cfg, 100000);
        Core core(cfg, w);
        core.run(100000, 40000000);
        cycles[r] = core.stats().cycles;
    }
    EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(GoldenDeterminism, SeedChangesProbabilisticPathsOnly)
{
    // Different seeds change FPC/TAGE allocation randomness, which may
    // shift IPC slightly -- but never architectural results (the
    // oracle check would panic) and never by much.
    SimConfig a = configs::eole(6, 64);
    SimConfig b = configs::eole(6, 64);
    b.seed = 999;
    const Workload w = recorded(workloads::build("401.bzip2"), a, 200000);
    Core ca(a, w), cb(b, w);
    ca.run(200000, 60000000);
    cb.run(200000, 60000000);
    const double ia = ca.stats().ipc(), ib = cb.stats().ipc();
    EXPECT_NEAR(ia, ib, ia * 0.05);
}

// ===================== Stage-decomposition golden =========================
//
// The monolithic Core was decomposed into stage objects (PR 1). These
// records were captured from the pre-decomposition core at exactly
// these run lengths; the stage pipeline must reproduce every stat
// bit-identically (the simulator is deterministic, so any timing or
// counting divergence introduced by the stage layout shows up here as
// an exact mismatch, not a tolerance failure).
//
// Regenerate (only after an *intentional* model change) by printing
// core.record().all() with %.17g at the run lengths below.

namespace {

struct GoldenRecord
{
    const char *config;
    const char *workload;
    std::vector<std::pair<const char *, double>> stats;
};

const std::vector<GoldenRecord> &
goldenRecords()
{
    static const std::vector<GoldenRecord> records = {
        GoldenRecord{
            "Baseline_6_64", "164.gzip",
            {
                {"cycles", 149238},
                {"committed_uops", 120002},
                {"ipc", 0.80409815194521506},
                {"cond_branches", 5742},
                {"branch_mispredicts", 792},
                {"branch_mpki", 6.5998900018333027},
                {"high_conf_branches", 176},
                {"high_conf_mispredicts", 12},
                {"btb_miss_bubbles", 0},
                {"vp_eligible", 102776},
                {"vp_used", 0},
                {"vp_correct_used", 0},
                {"vp_accuracy", 0},
                {"vp_coverage", 0},
                {"vp_squashes", 0},
                {"early_executed", 0},
                {"late_executed_alu", 0},
                {"late_executed_branches", 0},
                {"ee_frac", 0},
                {"le_alu_frac", 0},
                {"le_br_frac", 0},
                {"le_frac", 0},
                {"offload_frac", 0},
                {"loads", 24442},
                {"stores", 5742},
                {"stl_forwards", 0},
                {"mem_order_violations", 0},
                {"rename_bank_stalls", 0},
                {"dispatch_port_stalls", 0},
                {"commit_port_stalls", 0},
                {"rob_full_stalls", 35682},
                {"iq_full_stalls", 2455},
                {"avg_iq_occupancy", 17.886952384781356},
                {"dispatched_to_iq", 120106},
                {"mem.l1i.hits", 27145},
                {"mem.l1i.misses", 2},
                {"mem.l1i.miss_rate", 7.367296570523447e-05},
                {"mem.l1i.mshr_merges", 0},
                {"mem.l1i.mshr_stalls", 0},
                {"mem.l1i.writebacks", 0},
                {"mem.l1i.prefetches", 0},
                {"mem.l1d.hits", 29368},
                {"mem.l1d.misses", 7808},
                {"mem.l1d.miss_rate", 0.21002797503765872},
                {"mem.l1d.mshr_merges", 588},
                {"mem.l1d.mshr_stalls", 0},
                {"mem.l1d.writebacks", 6326},
                {"mem.l1d.prefetches", 0},
                {"mem.l2.hits", 8556},
                {"mem.l2.misses", 5554},
                {"mem.l2.miss_rate", 0.39362154500354357},
                {"mem.l2.mshr_merges", 26},
                {"mem.l2.mshr_stalls", 0},
                {"mem.l2.writebacks", 0},
                {"mem.l2.prefetches", 97},
                {"mem.dram.reads", 5651},
                {"mem.dram.writes", 0},
                {"mem.prefetches_issued", 172280},
            }},
        GoldenRecord{
            "Baseline_6_64", "444.namd",
            {
                {"cycles", 43744},
                {"committed_uops", 120000},
                {"ipc", 2.7432333577176298},
                {"cond_branches", 4286},
                {"branch_mispredicts", 0},
                {"branch_mpki", 0},
                {"high_conf_branches", 4286},
                {"high_conf_mispredicts", 0},
                {"btb_miss_bubbles", 0},
                {"vp_eligible", 111428},
                {"vp_used", 0},
                {"vp_correct_used", 0},
                {"vp_accuracy", 0},
                {"vp_coverage", 0},
                {"vp_squashes", 0},
                {"early_executed", 0},
                {"late_executed_alu", 0},
                {"late_executed_branches", 0},
                {"ee_frac", 0},
                {"le_alu_frac", 0},
                {"le_br_frac", 0},
                {"le_frac", 0},
                {"offload_frac", 0},
                {"loads", 12858},
                {"stores", 0},
                {"stl_forwards", 0},
                {"mem_order_violations", 0},
                {"rename_bank_stalls", 0},
                {"dispatch_port_stalls", 0},
                {"commit_port_stalls", 0},
                {"rob_full_stalls", 28862},
                {"iq_full_stalls", 2976},
                {"avg_iq_occupancy", 31.741701719092905},
                {"dispatched_to_iq", 120000},
                {"mem.l1i.hits", 30225},
                {"mem.l1i.misses", 2},
                {"mem.l1i.miss_rate", 6.6166010520395674e-05},
                {"mem.l1i.mshr_merges", 0},
                {"mem.l1i.mshr_stalls", 0},
                {"mem.l1i.writebacks", 0},
                {"mem.l1i.prefetches", 0},
                {"mem.l1d.hits", 1151},
                {"mem.l1d.misses", 2011},
                {"mem.l1d.miss_rate", 0.6359898798228969},
                {"mem.l1d.mshr_merges", 12919},
                {"mem.l1d.mshr_stalls", 0},
                {"mem.l1d.writebacks", 0},
                {"mem.l1d.prefetches", 0},
                {"mem.l2.hits", 1},
                {"mem.l2.misses", 4},
                {"mem.l2.miss_rate", 0.80000000000000004},
                {"mem.l2.mshr_merges", 2008},
                {"mem.l2.mshr_stalls", 0},
                {"mem.l2.writebacks", 0},
                {"mem.l2.prefetches", 2012},
                {"mem.dram.reads", 2016},
                {"mem.dram.writes", 0},
                {"mem.prefetches_issued", 128576},
            }},
        GoldenRecord{
            "EOLE_4_64_4ports_4banks", "164.gzip",
            {
                {"cycles", 149088},
                {"committed_uops", 120002},
                {"ipc", 0.80490716892036918},
                {"cond_branches", 5742},
                {"branch_mispredicts", 792},
                {"branch_mpki", 6.5998900018333027},
                {"high_conf_branches", 151},
                {"high_conf_mispredicts", 11},
                {"btb_miss_bubbles", 0},
                {"vp_eligible", 102776},
                {"vp_used", 17224},
                {"vp_correct_used", 17224},
                {"vp_accuracy", 1},
                {"vp_coverage", 0.16758776368023662},
                {"vp_squashes", 0},
                {"early_executed", 5741},
                {"late_executed_alu", 11483},
                {"late_executed_branches", 151},
                {"ee_frac", 0.047840869318844688},
                {"le_alu_frac", 0.095690071832136125},
                {"le_br_frac", 0.0012583123614606424},
                {"le_frac", 0.096948384193596776},
                {"offload_frac", 0.14478925351244146},
                {"loads", 24442},
                {"stores", 5742},
                {"stl_forwards", 0},
                {"mem_order_violations", 0},
                {"rename_bank_stalls", 0},
                {"dispatch_port_stalls", 0},
                {"commit_port_stalls", 178},
                {"rob_full_stalls", 36287},
                {"iq_full_stalls", 692},
                {"avg_iq_occupancy", 16.826806986477784},
                {"dispatched_to_iq", 102714},
                {"mem.l1i.hits", 27136},
                {"mem.l1i.misses", 2},
                {"mem.l1i.miss_rate", 7.3697398481833586e-05},
                {"mem.l1i.mshr_merges", 0},
                {"mem.l1i.mshr_stalls", 0},
                {"mem.l1i.writebacks", 0},
                {"mem.l1i.prefetches", 0},
                {"mem.l1d.hits", 29362},
                {"mem.l1d.misses", 7808},
                {"mem.l1d.miss_rate", 0.21006187785848804},
                {"mem.l1d.mshr_merges", 594},
                {"mem.l1d.mshr_stalls", 0},
                {"mem.l1d.writebacks", 6326},
                {"mem.l1d.prefetches", 0},
                {"mem.l2.hits", 8555},
                {"mem.l2.misses", 5554},
                {"mem.l2.miss_rate", 0.39364944361754906},
                {"mem.l2.mshr_merges", 27},
                {"mem.l2.mshr_stalls", 0},
                {"mem.l2.writebacks", 0},
                {"mem.l2.prefetches", 97},
                {"mem.dram.reads", 5651},
                {"mem.dram.writes", 0},
                {"mem.prefetches_issued", 172280},
            }},
        GoldenRecord{
            "EOLE_4_64_4ports_4banks", "444.namd",
            {
                {"cycles", 41730},
                {"committed_uops", 120007},
                {"ipc", 2.8757967888809008},
                {"cond_branches", 4286},
                {"branch_mispredicts", 0},
                {"branch_mpki", 0},
                {"high_conf_branches", 4286},
                {"high_conf_mispredicts", 0},
                {"btb_miss_bubbles", 0},
                {"vp_eligible", 111435},
                {"vp_used", 60003},
                {"vp_correct_used", 60003},
                {"vp_accuracy", 1},
                {"vp_coverage", 0.53845739668865256},
                {"vp_squashes", 0},
                {"early_executed", 36903},
                {"late_executed_alu", 34822},
                {"late_executed_branches", 4286},
                {"ee_frac", 0.30750706208804485},
                {"le_alu_frac", 0.290166406959594},
                {"le_br_frac", 0.035714583315973235},
                {"le_frac", 0.32588099027556727},
                {"offload_frac", 0.63338805236361218},
                {"loads", 12858},
                {"stores", 0},
                {"stl_forwards", 0},
                {"mem_order_violations", 0},
                {"rename_bank_stalls", 0},
                {"dispatch_port_stalls", 0},
                {"commit_port_stalls", 1072},
                {"rob_full_stalls", 28369},
                {"iq_full_stalls", 0},
                {"avg_iq_occupancy", 16.945578720345075},
                {"dispatched_to_iq", 43998},
                {"mem.l1i.hits", 27044},
                {"mem.l1i.misses", 2},
                {"mem.l1i.miss_rate", 7.3948088441913777e-05},
                {"mem.l1i.mshr_merges", 0},
                {"mem.l1i.mshr_stalls", 0},
                {"mem.l1i.writebacks", 0},
                {"mem.l1i.prefetches", 0},
                {"mem.l1d.hits", 1681},
                {"mem.l1d.misses", 2013},
                {"mem.l1d.miss_rate", 0.54493773687060099},
                {"mem.l1d.mshr_merges", 12399},
                {"mem.l1d.mshr_stalls", 0},
                {"mem.l1d.writebacks", 0},
                {"mem.l1d.prefetches", 0},
                {"mem.l2.hits", 4},
                {"mem.l2.misses", 4},
                {"mem.l2.miss_rate", 0.5},
                {"mem.l2.mshr_merges", 2007},
                {"mem.l2.mshr_stalls", 0},
                {"mem.l2.writebacks", 0},
                {"mem.l2.prefetches", 2014},
                {"mem.dram.reads", 2018},
                {"mem.dram.writes", 0},
                {"mem.prefetches_issued", 128560},
            }},
    };
    return records;
}

SimConfig
goldenConfig(const std::string &name)
{
    if (name == "Baseline_6_64")
        return configs::baseline(6, 64);
    if (name == "EOLE_4_64_4ports_4banks")
        return configs::eoleConstrained(4, 64, 4, 4);
    ADD_FAILURE() << "unknown golden config " << name;
    return configs::baseline(6, 64);
}

} // namespace

TEST(StageDecomposition, StatRecordsBitIdenticalToMonolithicCore)
{
    for (const GoldenRecord &g : goldenRecords()) {
        const Workload w = recorded(workloads::build(g.workload),
                                    goldenConfig(g.config), 30000 + 120000);
        Core core(goldenConfig(g.config), w);
        core.run(30000, 10000000);
        core.resetStats();
        core.run(120000, 40000000);
        const StatRecord r = core.record();

        ASSERT_EQ(r.all().size(), g.stats.size())
            << g.config << " / " << g.workload;
        for (const auto &[name, expected] : g.stats) {
            EXPECT_EQ(r.get(name), expected)
                << g.config << " / " << g.workload << " stat " << name;
        }
    }
}

// ==================== Squash/recovery across stages =======================
//
// Recovery walks the stage objects in the registered unwind order
// (rename -> commit/ROB -> issue/IQ -> fetch). These tests step a core
// cycle-by-cycle, and every time a squash-triggering event fires
// (branch mispredict at execute, value mispredict at LE/VT validation,
// memory-order violation at store execute) they assert the shared
// PipelineState is consistent: no squashed µ-op lingers in any
// structure, the ROB stays age-ordered, and the LSQ mirrors it. The
// commit-time oracle additionally panics on any architectural damage.

namespace {

void
expectConsistentPipeline(const Core &core, const char *when)
{
    const PipelineState &st = core.pipelineState();

    for (const DynInstPtr &di : st.iq)
        EXPECT_FALSE(di->squashed) << when << ": squashed µ-op in IQ";
    for (const DynInstPtr &di : st.renameOut)
        EXPECT_FALSE(di->squashed) << when << ": squashed µ-op in renameOut";

    SeqNum prev = 0;
    for (size_t i = 0; i < st.rob.size(); ++i) {
        const DynInstPtr &di = st.rob.at(i);
        EXPECT_FALSE(di->squashed) << when << ": squashed µ-op in ROB";
        EXPECT_GT(di->seq, prev) << when << ": ROB out of age order";
        prev = di->seq;
    }

    // LSQ entries must be live ROB members.
    const SeqNum head = st.rob.empty() ? 0 : st.rob.front()->seq;
    const SeqNum tail = st.rob.empty() ? 0 : st.rob.back()->seq;
    for (size_t i = 0; i < st.lq.size(); ++i) {
        const DynInstPtr &di = st.lq.at(i);
        EXPECT_TRUE(!st.rob.empty() && di->seq >= head && di->seq <= tail)
            << when << ": LQ entry outside the ROB";
    }
    for (size_t i = 0; i < st.sq.size(); ++i) {
        const DynInstPtr &di = st.sq.at(i);
        EXPECT_TRUE(!st.rob.empty() && di->seq >= head && di->seq <= tail)
            << when << ": SQ entry outside the ROB";
    }

    // Rename's output buffer holds only µ-ops younger than the ROB.
    if (!st.rob.empty() && !st.renameOut.empty()) {
        EXPECT_GT(st.renameOut.front()->seq, tail)
            << when << ": renameOut overlaps the ROB";
    }
}

/** Step one cycle at a time; after every cycle in which @p counter
 *  advanced, check cross-stage consistency. @return events seen. */
template <typename CounterFn>
std::uint64_t
runCheckingRecovery(Core &core, CounterFn counter, std::uint64_t cycles,
                    const char *when)
{
    std::uint64_t last = counter(core.stats());
    const std::uint64_t first = last;
    for (std::uint64_t c = 0; c < cycles; ++c) {
        core.run(1000000, 1);  // exactly one cycle
        const std::uint64_t cur = counter(core.stats());
        if (cur != last) {
            expectConsistentPipeline(core, when);
            last = cur;
        }
    }
    return last - first;
}

} // namespace

TEST(SquashRecovery, BranchMispredictAtExecute)
{
    // Each checked cycle commits at most a commit group.
    const SimConfig cfg = configs::baseline(6, 64);
    const Workload w = recorded(workloads::micro::randomBranch(), cfg,
                                30000 * cfg.commitWidth);
    Core core(cfg, w);
    const std::uint64_t events = runCheckingRecovery(
        core,
        [](const CoreStats &s) { return s.branchMispredicts; },
        30000, "branch mispredict");
    EXPECT_GT(events, 100u);
    EXPECT_GT(core.stats().committedUops, 0u);
}

TEST(SquashRecovery, ValueMispredictAtLevtValidation)
{
    // Strided loads wrap periodically: each wrap breaks the stride
    // prediction and triggers a commit-time validation squash while
    // EE'd and late-executable µ-ops are in flight.
    const SimConfig cfg = configs::eole(4, 64);
    const Workload w = recorded(workloads::micro::stridedLoads(), cfg,
                                120000 * cfg.commitWidth);
    Core core(cfg, w);
    const std::uint64_t events = runCheckingRecovery(
        core,
        [](const CoreStats &s) { return s.vpMispredictSquashes; },
        120000, "value mispredict");
    EXPECT_GT(events, 0u);
    EXPECT_GT(core.stats().lateExecutedAlu + core.stats().earlyExecuted, 0u);
}

TEST(SquashRecovery, MemoryOrderViolationAtStoreExecute)
{
    // A store whose address trails long divides, then a same-address
    // load that issues early: the store's execute detects the
    // violation and squashes from the load (see test_core's variant).
    Assembler a;
    const IntReg d = 1, v = 2, u = 3, acc = 4, base = 20, c3 = 21;
    Label top = a.newLabel();
    a.bind(top);
    a.div(d, d, c3);
    a.div(d, d, c3);
    a.addi(d, d, 7);
    a.st(d, base, 0);
    a.ld(v, base, 0);
    a.add(acc, acc, v);
    a.ld(u, base, 8);
    a.add(acc, acc, u);
    a.jmp(top);

    Workload w;
    w.name = "micro.violation";
    w.memBytes = 0x1000;
    w.program = a.finish();
    w.init = [](KernelVM &vm) {
        vm.setIntReg(1, 1000000007);
        vm.setIntReg(20, 0x100);
        vm.setIntReg(21, 3);
    };

    const SimConfig cfg = configs::eole(6, 64);
    w = recorded(w, cfg, 60000 * cfg.commitWidth);
    Core core(cfg, w);
    const std::uint64_t events = runCheckingRecovery(
        core,
        [](const CoreStats &s) { return s.memOrderViolations; },
        60000, "memory-order violation");
    EXPECT_GE(events, 1u);
    EXPECT_GT(core.stats().committedUops, 0u);
}

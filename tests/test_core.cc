/**
 * @file
 * Integration tests for the out-of-order core (without EOLE): IPC
 * properties on known traces, branch misprediction costs, memory
 * disambiguation, store-to-load forwarding and the lockstep oracle
 * under squashes. Every run implicitly verifies the oracle check
 * (the core panics on any committed-value mismatch).
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "pipeline/core.hh"
#include "sim/configs.hh"
#include "workloads/workload.hh"

using namespace eole;

namespace {

CoreStats
runWorkload(const SimConfig &cfg, const Workload &w, std::uint64_t uops)
{
    Core core(cfg, w);
    core.run(uops, uops * 200 + 100000);
    return core.stats();
}

} // namespace

TEST(CoreBaseline, DependencyChainBoundsIpcToOne)
{
    const CoreStats s = runWorkload(configs::baseline(6, 64),
                                    workloads::micro::depChain(), 60000);
    EXPECT_GT(s.ipc(), 0.9);
    EXPECT_LT(s.ipc(), 1.15);
}

TEST(CoreBaseline, IndependentStreamReachesIssueWidth)
{
    const CoreStats s = runWorkload(configs::baseline(6, 64),
                                    workloads::micro::independent(),
                                    60000);
    // 16 independent chains + a jmp: sustained IPC near the 6-wide
    // issue limit.
    EXPECT_GT(s.ipc(), 5.0);
    EXPECT_LE(s.ipc(), 6.2);
}

TEST(CoreBaseline, IssueWidthScalesThroughput)
{
    const CoreStats s4 = runWorkload(configs::baseline(4, 64),
                                     workloads::micro::independent(),
                                     60000);
    const CoreStats s6 = runWorkload(configs::baseline(6, 64),
                                     workloads::micro::independent(),
                                     60000);
    EXPECT_GT(s4.ipc(), 3.4);
    EXPECT_LE(s4.ipc(), 4.2);
    EXPECT_GT(s6.ipc() / s4.ipc(), 1.3);
}

TEST(CoreBaseline, PredictableLoopBranchesAreCheap)
{
    const CoreStats s = runWorkload(configs::baseline(6, 64),
                                    workloads::micro::loopTaken(), 60000);
    EXPECT_LT(double(s.branchMispredicts) / s.committedUops, 0.001);
}

TEST(CoreBaseline, RandomBranchesPayTheMispredictPenalty)
{
    const CoreStats pred = runWorkload(configs::baseline(6, 64),
                                       workloads::micro::togglingBranch(),
                                       60000);
    const CoreStats rand = runWorkload(configs::baseline(6, 64),
                                       workloads::micro::randomBranch(),
                                       60000);
    // The toggling branch is learnable; the random one is not, and the
    // ~50% misprediction rate on ~1/7 branch density wrecks IPC.
    EXPECT_GT(pred.ipc(), 3.0);
    EXPECT_LT(rand.ipc(), 1.0);
    EXPECT_GT(double(rand.branchMispredicts) * 1000 / rand.committedUops,
              40.0);
}

TEST(CoreBaseline, MispredictPenaltyMatchesPipelineDepth)
{
    // randomBranch: IPC ~= uops-between-mispredicts / penalty. Derive
    // the effective penalty and compare with the ~20-cycle front end.
    const CoreStats s = runWorkload(configs::baseline(6, 64),
                                    workloads::micro::randomBranch(),
                                    60000);
    const double uops_per_misp =
        double(s.committedUops) / s.branchMispredicts;
    const double cycles_per_misp = double(s.cycles) / s.branchMispredicts;
    const double useful = uops_per_misp / 6.0;  // issue-width bound
    const double penalty = cycles_per_misp - useful;
    EXPECT_GT(penalty, 14.0);
    EXPECT_LT(penalty, 30.0);
}

TEST(CoreBaseline, StoreToLoadForwardingWorks)
{
    const CoreStats s = runWorkload(configs::baseline(6, 64),
                                    workloads::micro::storeLoadForward(),
                                    60000);
    EXPECT_GT(s.storeToLoadForwards, s.committedUops / 10);
    EXPECT_GT(s.ipc(), 2.0);
}

TEST(CoreBaseline, MemOrderViolationDetectedAndTrained)
{
    // A store whose data (and address availability) trails a long
    // divide, followed by an independent-looking load of the same
    // address: the load issues early, the store arrives, violation.
    Assembler a;
    const IntReg d = 1, v = 2, u = 3, acc = 4, base = 20, c3 = 21;
    Label top = a.newLabel();
    a.bind(top);
    a.div(d, d, c3);        // 25-cycle blocker
    a.div(d, d, c3);
    a.addi(d, d, 7);
    a.st(d, base, 0);       // store waits for the divides
    a.ld(v, base, 0);       // same address: must see the store
    a.add(acc, acc, v);
    a.ld(u, base, 8);       // unrelated
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

    const CoreStats s = runWorkload(configs::baseline(6, 64), w, 30000);
    // At least one violation while Store Sets learns; afterwards the
    // dependence is enforced (far fewer violations than iterations).
    EXPECT_GE(s.memOrderViolations, 1u);
    EXPECT_LT(s.memOrderViolations, s.committedUops / 9 / 4);
    EXPECT_GT(s.storeToLoadForwards, 0u);
}

TEST(CoreBaseline, MemoryBoundChaseIsDramLimited)
{
    const CoreStats s = runWorkload(configs::baseline(6, 64),
                                    workloads::build("429.mcf"), 150000);
    EXPECT_LT(s.ipc(), 0.2);  // Table 3: mcf = 0.105
}

TEST(CoreBaseline, UnpipelinedDividesSerialize)
{
    // Independent divides throttle at numMulDiv units x 25 cycles.
    Assembler a;
    Label top = a.newLabel();
    a.bind(top);
    for (int k = 0; k < 8; ++k)
        a.div(IntReg(1 + k), IntReg(1 + k), IntReg(20));
    a.jmp(top);
    Workload w;
    w.name = "micro.div";
    w.memBytes = 0x100;
    w.program = a.finish();
    w.init = [](KernelVM &vm) {
        for (int r = 1; r <= 8; ++r)
            vm.setIntReg(r, 1000000000 + r);
        vm.setIntReg(20, 1);  // div by one: value stays put
    };
    const CoreStats s = runWorkload(configs::baseline(6, 64), w, 20000);
    // 9 µ-ops per iteration; 8 divides over 4 unpipelined units need
    // 2 x 25 cycles: IPC well below 1.
    EXPECT_LT(s.ipc(), 0.5);
}

TEST(CoreBaseline, DrainsFiniteProgram)
{
    Assembler a;
    const IntReg x = 1;
    for (int i = 0; i < 100; ++i)
        a.addi(x, x, 1);
    a.halt();
    Workload w;
    w.name = "micro.finite";
    w.memBytes = 0x100;
    w.program = a.finish();

    Core core(configs::baseline(6, 64), w);
    const std::uint64_t committed = core.run(1000000, 100000);
    EXPECT_EQ(committed, 100u);
}

TEST(CoreBaseline, ResetStatsPreservesArchState)
{
    Workload w = workloads::micro::depChain();
    Core core(configs::baseline(6, 64), w);
    core.run(10000, 1000000);
    core.resetStats();
    EXPECT_EQ(core.stats().committedUops, 0u);
    const std::uint64_t more = core.run(10000, 1000000);
    EXPECT_EQ(more, 10000u);
    EXPECT_GT(core.stats().ipc(), 0.9);
}

TEST(CoreVp, ValuePredictionBreaksDependencyChain)
{
    const CoreStats base = runWorkload(configs::baseline(6, 64),
                                       workloads::micro::depChain(),
                                       80000);
    const CoreStats vp = runWorkload(configs::baselineVp(6, 64),
                                     workloads::micro::depChain(), 80000);
    // The addi chain is perfectly stride-predictable: dependents use
    // predictions and the chain no longer bounds IPC.
    EXPECT_GT(vp.ipc(), base.ipc() * 2.0);
    EXPECT_GT(double(vp.vpCorrectUsed) / vp.vpPredictionsUsed, 0.999);
}

TEST(CoreVp, MispredictionsRecoverBySquashWithCorrectState)
{
    // Strided loads with periodic wrap: the wrap makes the stride
    // prediction wrong once per lap; commit-time validation squashes
    // and the oracle check proves state stays consistent.
    const CoreStats s = runWorkload(configs::baselineVp(6, 64),
                                    workloads::micro::stridedLoads(),
                                    200000);
    EXPECT_GT(s.vpMispredictSquashes, 0u);
    EXPECT_GT(double(s.vpCorrectUsed) / s.vpPredictionsUsed, 0.99);
}

TEST(CoreVp, AggressiveConfidenceCausesMoreSquashes)
{
    SimConfig plain = configs::baselineVp(6, 64);
    plain.vp.fpcVector = {1, 1, 1, 1, 1, 1, 1};
    const CoreStats aggressive = runWorkload(
        plain, workloads::micro::stridedLoads(), 200000);
    const CoreStats paper = runWorkload(
        configs::baselineVp(6, 64), workloads::micro::stridedLoads(),
        200000);
    EXPECT_GE(aggressive.vpMispredictSquashes,
              paper.vpMispredictSquashes);
}

// ----------------------- Parameterized config sweep -----------------------

struct ConfigWorkloadCase
{
    const char *config;
    const char *workload;
};

class CoreMatrix : public ::testing::TestWithParam<ConfigWorkloadCase>
{
  protected:
    static SimConfig
    configByName(const std::string &name)
    {
        if (name == "base")
            return configs::baseline(6, 64);
        if (name == "base4")
            return configs::baseline(4, 48);
        if (name == "vp")
            return configs::baselineVp(6, 64);
        if (name == "eole")
            return configs::eole(6, 64);
        if (name == "eole_banked")
            return configs::eoleBanked(4, 64, 4);
        if (name == "eole_ports")
            return configs::eoleConstrained(4, 64, 4, 2);
        if (name == "ole")
            return configs::ole(4, 64, 4, 4);
        if (name == "eoe")
            return configs::eoe(4, 64, 4, 4);
        return configs::baseline(6, 64);
    }

    static Workload
    workloadByName(const std::string &name)
    {
        if (name == "depchain")
            return workloads::micro::depChain();
        if (name == "independent")
            return workloads::micro::independent();
        if (name == "strided")
            return workloads::micro::stridedLoads();
        if (name == "stlfwd")
            return workloads::micro::storeLoadForward();
        if (name == "randbranch")
            return workloads::micro::randomBranch();
        if (name == "toggle")
            return workloads::micro::togglingBranch();
        return workloads::build(name);
    }
};

TEST_P(CoreMatrix, RunsToCompletionWithConsistentStats)
{
    const auto &param = GetParam();
    const SimConfig cfg = configByName(param.config);
    const Workload w = workloadByName(param.workload);
    Core core(cfg, w);
    const std::uint64_t committed = core.run(40000, 8000000);
    // The oracle check in commit makes this a correctness test: any
    // dataflow/bypass/squash bug panics. On top, basic invariants:
    const CoreStats &s = core.stats();
    EXPECT_EQ(committed, s.committedUops);
    EXPECT_GT(s.committedUops, 0u);
    EXPECT_GT(s.ipc(), 0.0);
    EXPECT_LE(s.ipc(), double(cfg.commitWidth));
    if (!cfg.earlyExec) {
        EXPECT_EQ(s.earlyExecuted, 0u);
    }
    if (!cfg.lateExec) {
        EXPECT_EQ(s.lateExecutedAlu, 0u);
        EXPECT_EQ(s.lateExecutedBranches, 0u);
    }
    if (!cfg.vpEnabled()) {
        EXPECT_EQ(s.vpPredictionsUsed, 0u);
    }
    EXPECT_LE(s.earlyExecuted + s.lateExecutedAlu + s.lateExecutedBranches,
              s.committedUops);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsTimesWorkloads, CoreMatrix,
    ::testing::Values(
        ConfigWorkloadCase{"base", "depchain"},
        ConfigWorkloadCase{"base", "randbranch"},
        ConfigWorkloadCase{"base", "stlfwd"},
        ConfigWorkloadCase{"base4", "independent"},
        ConfigWorkloadCase{"base4", "164.gzip"},
        ConfigWorkloadCase{"vp", "strided"},
        ConfigWorkloadCase{"vp", "445.gobmk"},
        ConfigWorkloadCase{"vp", "401.bzip2"},
        ConfigWorkloadCase{"eole", "depchain"},
        ConfigWorkloadCase{"eole", "randbranch"},
        ConfigWorkloadCase{"eole", "444.namd"},
        ConfigWorkloadCase{"eole", "456.hmmer"},
        ConfigWorkloadCase{"eole_banked", "179.art"},
        ConfigWorkloadCase{"eole_banked", "strided"},
        ConfigWorkloadCase{"eole_ports", "444.namd"},
        ConfigWorkloadCase{"eole_ports", "stlfwd"},
        ConfigWorkloadCase{"ole", "186.crafty"},
        ConfigWorkloadCase{"ole", "depchain"},
        ConfigWorkloadCase{"eoe", "186.crafty"},
        ConfigWorkloadCase{"eoe", "independent"}));

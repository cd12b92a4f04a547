/**
 * @file
 * Tests for the 19 SPEC-like workload kernels: registry integrity,
 * deterministic trace generation, bounded memory behaviour and the
 * per-benchmark instruction-mix traits the reproduction relies on
 * (DESIGN.md §5).
 */

#include <gtest/gtest.h>

#include <map>

#include "workloads/workload.hh"

using namespace eole;

namespace {

struct Mix
{
    double branches = 0;
    double takenRate = 0;
    double loads = 0;
    double stores = 0;
    double singleCycleAlu = 0;
    double fp = 0;
};

Mix
measureMix(const Workload &w, std::uint64_t n)
{
    const auto trace = w.freeze(n);
    EXPECT_EQ(trace->uops.size(), n) << w.name << " halted early";
    std::uint64_t br = 0, taken = 0, ld = 0, st = 0, alu = 0, fp = 0;
    for (const TraceUop &u : trace->uops) {
        br += u.isBranch();
        taken += u.isBranch() && u.taken;
        ld += u.isLoad();
        st += u.isStore();
        alu += isSingleCycleAlu(u.opc);
        const OpClass c = u.opClass();
        fp += c == OpClass::FpAlu || c == OpClass::FpMul
            || c == OpClass::FpDiv;
    }
    Mix m;
    m.branches = double(br) / n;
    m.takenRate = br ? double(taken) / br : 0;
    m.loads = double(ld) / n;
    m.stores = double(st) / n;
    m.singleCycleAlu = double(alu) / n;
    m.fp = double(fp) / n;
    return m;
}

} // namespace

TEST(WorkloadRegistry, NineteenBenchmarksInTable3Order)
{
    const auto &names = workloads::allNames();
    ASSERT_EQ(names.size(), 19u);
    EXPECT_EQ(names.front(), "164.gzip");
    EXPECT_EQ(names.back(), "470.lbm");
    // 12 INT + 7 FP, as in Table 3.
    int fp = 0;
    for (const auto &n : names)
        fp += workloads::build(n).isFp;
    EXPECT_EQ(fp, 7);
}

TEST(WorkloadRegistry, UnknownNameDies)
{
    EXPECT_DEATH((void)workloads::build("999.nonsense"), "unknown");
}

TEST(WorkloadRegistry, TracesAreDeterministic)
{
    for (const auto &name : {"164.gzip", "433.milc", "445.gobmk"}) {
        Workload w = workloads::build(name);
        const auto a = w.freeze(5000);
        const auto b = w.freeze(5000);
        ASSERT_EQ(a->uops.size(), 5000u) << name;
        ASSERT_EQ(b->uops.size(), 5000u) << name;
        for (std::size_t i = 0; i < 5000; ++i) {
            ASSERT_EQ(a->uops[i].pc, b->uops[i].pc) << name;
            ASSERT_EQ(a->uops[i].result, b->uops[i].result) << name;
        }
    }
}

class WorkloadTraits : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadTraits, RunsLongAndStaysInBounds)
{
    // 200K µ-ops without a VM bounds panic and without halting; this
    // exercises every kernel's wrap-around masks.
    Workload w = workloads::build(GetParam());
    const Mix m = measureMix(w, 200000);
    // Universal sanity: every kernel has control flow and some ALU.
    EXPECT_GT(m.branches, 0.005);
    EXPECT_LT(m.branches, 0.5);
    EXPECT_GT(m.singleCycleAlu, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    All19, WorkloadTraits,
    ::testing::ValuesIn(workloads::allNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string s = info.param;
        for (char &c : s) {
            if (c == '.')
                c = '_';
        }
        return s;
    });

TEST(WorkloadTraits, FpSuiteActuallyUsesFp)
{
    for (const auto &name : workloads::allNames()) {
        Workload w = workloads::build(name);
        const Mix m = measureMix(w, 50000);
        if (w.isFp)
            EXPECT_GT(m.fp, 0.05) << name;
        else
            EXPECT_LT(m.fp, 0.01) << name;
    }
}

TEST(WorkloadTraits, MemoryBoundKernelsLoadHeavily)
{
    for (const auto &name : {"429.mcf", "470.lbm", "433.milc"}) {
        const Mix m = measureMix(workloads::build(name), 50000);
        EXPECT_GT(m.loads, 0.15) << name;
    }
}

TEST(WorkloadTraits, BranchHostileKernelsHaveManyBranches)
{
    const Mix gobmk = measureMix(workloads::build("445.gobmk"), 50000);
    const Mix milc = measureMix(workloads::build("433.milc"), 50000);
    EXPECT_GT(gobmk.branches, 0.10);
    EXPECT_LT(gobmk.takenRate, 0.9);  // mixed directions
    EXPECT_LT(milc.branches, 0.05);   // unrolled streaming code
}

TEST(WorkloadTraits, CallRetPairsBalance)
{
    // vortex is the call/ret-heavy kernel: calls and rets must pair up.
    Workload w = workloads::build("255.vortex");
    const auto trace = w.freeze(100000);
    ASSERT_EQ(trace->uops.size(), 100000u);
    std::int64_t depth = 0;
    std::int64_t max_depth = 0;
    for (const TraceUop &u : trace->uops) {
        if (u.isCall())
            ++depth;
        if (u.isRet())
            --depth;
        max_depth = std::max(max_depth, depth);
        ASSERT_GE(depth, 0);
        ASSERT_LE(depth, 8);
    }
    EXPECT_GE(max_depth, 1);
}

TEST(WorkloadTraits, MicroWorkloadsHaveDocumentedShapes)
{
    const Mix dep = measureMix(workloads::micro::depChain(), 20000);
    EXPECT_GT(dep.singleCycleAlu, 0.9);
    const Mix strided = measureMix(workloads::micro::stridedLoads(),
                                   20000);
    EXPECT_GT(strided.loads, 0.15);
    const Mix fwd = measureMix(workloads::micro::storeLoadForward(),
                               20000);
    EXPECT_GT(fwd.stores, 0.15);
    EXPECT_GT(fwd.loads, 0.15);
    const Mix toggle = measureMix(workloads::micro::togglingBranch(),
                                  20000);
    EXPECT_GT(toggle.branches, 0.2);
}

TEST(WorkloadTraits, StridedLoadValuesAreStrided)
{
    // The value stream the VP tests rely on: A[i] = 3 * index.
    Workload w = workloads::micro::stridedLoads();
    const auto trace = w.freeze(5000);
    RegVal prev = 0;
    bool have_prev = false;
    int checked = 0;
    for (std::size_t i = 0; i < trace->uops.size() && checked < 500; ++i) {
        const TraceUop &u = trace->uops[i];
        if (u.isLoad()) {
            if (have_prev && u.result > prev) {
                EXPECT_EQ(u.result - prev, 3u);
                ++checked;
            }
            prev = u.result;
            have_prev = true;
        }
    }
    EXPECT_GT(checked, 100);
}

/**
 * @file
 * Tests for the 19 SPEC-like workload kernels: registry integrity,
 * deterministic trace generation, bounded memory behaviour and the
 * per-benchmark instruction-mix traits the reproduction relies on
 * (DESIGN.md §5).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "common/hash.hh"
#include "isa/kernel_vm.hh"
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
        taken += u.isBranch() && u.taken();
        ld += u.isLoad();
        st += u.isStore();
        alu += isSingleCycleAlu(u.opc());
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
            ASSERT_EQ(a->uops[i].pc(), b->uops[i].pc()) << name;
            ASSERT_EQ(a->uops[i].result(), b->uops[i].result()) << name;
        }
    }
}

TEST(WorkloadRegistry, InitialImagesArePinned)
{
    // SHA-256 of each workload's memory image and of its int then FP
    // registers (little-endian words) right after init: building an
    // image faster must not change a byte of it.
    struct Pin
    {
        const char *name;
        const char *memory;
        const char *registers;
    };
    const Pin pins[] = {
        {"164.gzip", "33eccca3a928ed2226b7bff5200890e5bb8132661c0faf3f4055b005564e28ec",
         "69621cb7a375fb2f9fe4cf04d4bfbafb3b7e987eb17b6e375eada9c057a0782a"},
        {"168.wupwise", "8bdd8db1c3b3efdccaf1da157b2a6f161599817502d523c5434f17259acb8598",
         "d353d96d6782bcc932f4de39d4dac63e6c715a96095e92a91cfe2b5d3ddb1059"},
        {"173.applu", "79af6c63d110ab11afbbd6adfd21985c519b3f80d7b6436b92e6186f8cb9d0f1",
         "63d0ec602b652f9ce776af20776f7d94e211325d5b428d32c53156d0d43317ce"},
        {"175.vpr", "7e079ad215f703a658a952a902615720854aaf48a2d7d9b01818b6bf0c1cfcee",
         "c6ceabdfb457d4498187870cec30f61ac8d891d7fedfb67f87e23d09ae451f6d"},
        {"179.art", "661c8ef9108d9ae74f292337365687ea8318c4f29d5b0b096d5ca7ab02d35e24",
         "bb7218d73b8d6cbdae5f8c6eff51414aeced4f7f151cfa91119e46c9c919fe13"},
        {"186.crafty", "2887671efc2b71b297a945ba5aeee5b5650c9781964a61ab2e57326a0775c778",
         "113f33367c705cf509c0aed30ca5691963c53df6512f0c036c69b6854506f59f"},
        {"197.parser", "4d41d7400fcb9c830dd7874df2b4e1887bf86ebf9b984991e7a840c7d8825ea5",
         "899980a8cf0669241ed60b9c0088d49423d956bfb208a8d8f17c68afc9b35b86"},
        {"255.vortex", "28a984a0b8dd2411bdeb5cf440f949c5d480cf51bf58e8e23d1cd95aff3e8138",
         "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560"},
        {"401.bzip2", "1474cc6e7fb322a041968f9567064835c2ed266be345350f63727db1ab738af5",
         "bd654ab1706c0b73beb9a540b8e2a38bc9eade8153776dca16f017a0e3b17e6e"},
        {"403.gcc", "a5ffd3d46ec46acbb3f811c97e26671cf3f446041fa177d2b97d673eff5fc97a",
         "55389196bced444977d73ec384c6f36c289b06dfb0c72e3bdda3804acc58590f"},
        {"416.gamess", "0af2e3a7981d1549c8abffccddf36ee9ef5d799069c674756b01a4a7e7f6a884",
         "48bb3953751dbe073fc95d883eab2872610d779bb4e8855b111aa59677ed87fe"},
        {"429.mcf", "dc2e33abb471a83d2667702c44a2fdb8a1daad0a921141c8272d1e9c30b229c1",
         "51e7faf5f439295aefa601554117783363a1c331c2c7b8a6e26f5f55c1abb7d3"},
        {"433.milc", "1062efc8118b578cdbdc4c6f5647d79ae59ac51025faf2c6225b13b6558831bd",
         "40ff1be91a4dad6ab058df9760cba6457c44255d5689acbe21eec4c6f1f12bc9"},
        {"444.namd", "ce36270799c2d9e77a4247a182bceda2b5d1e45a196245e1a9258285777ec51f",
         "6e311aa2db64ac53c6ff2c106181589848e5413d7bedf8cd51e796f19acbb66f"},
        {"445.gobmk", "aff6d0f2eaa7b9c6d78e0f8aff963d7b8fd70a9718d0532be542506287fb268f",
         "de20e2b87dc2e14f6902dfa8bcff62f19907d5457f7a3f5266ff344ea92b8eaf"},
        {"456.hmmer", "8504d3f7489c5503a551f0cdca73de0a91ce8421cc1a1323aa906d20b66aeba6",
         "78b717bed2db2081992266d046d3f3432632b1cf09af05081cf7e1c68fc39f53"},
        {"458.sjeng", "cdd6a7f9e6406b42facb2f924f31a614afa825573c0c69d3f74a526fcaea4c83",
         "110c480b0bdbc25bcce0334e9bf9730600621f01e704b3be946e8d1d1e379d56"},
        {"464.h264ref", "2d36581e581b0151c36be8e0ae64814d0ba733355b4573ad5f1765dd9032f4ea",
         "e22f059f35f40c7593bb53c1b68b8bdf22fe9862eb5bafebbc36320cca966634"},
        {"470.lbm", "c911d429268e1f25995eea2dbda6853edd697f9bc21da08c598228dbc1211072",
         "b152f517ee7a73b06c90fa093ab008b38cb3b0eb7b6e72231eb0775fb5ac1554"},
    };
    ASSERT_EQ(std::size(pins), workloads::allNames().size());
    for (const Pin &pin : pins) {
        const Workload w = workloads::build(pin.name);
        KernelVM vm(w.program, w.memBytes);
        if (w.init)
            w.init(vm);
        Sha256 mem;
        mem.update(vm.memSpan(0, vm.memSize()), vm.memSize());
        Sha256 regs;
        for (int r = 0; r < numArchIntRegs; ++r) {
            const RegVal v = vm.readIntReg(static_cast<RegIndex>(r));
            regs.update(&v, sizeof v);
        }
        for (int r = 0; r < numArchFpRegs; ++r) {
            const RegVal v = vm.readFpReg(static_cast<RegIndex>(r));
            regs.update(&v, sizeof v);
        }
        EXPECT_EQ(mem.hexDigest(), pin.memory) << pin.name;
        EXPECT_EQ(regs.hexDigest(), pin.registers) << pin.name;
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
            if (have_prev && u.result() > prev) {
                EXPECT_EQ(u.result() - prev, 3u);
                ++checked;
            }
            prev = u.result();
            have_prev = true;
        }
    }
    EXPECT_GT(checked, 100);
}

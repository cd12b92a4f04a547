/**
 * google-benchmark microbenchmarks of the simulator's hot structures:
 * predictor lookup/update paths, history folding and checkpointing,
 * cache access, functional VM stepping, and whole-core cycle
 * throughput. These quantify the simulator itself, not the modeled
 * machine.
 */
#include <benchmark/benchmark.h>

#include "bpred/branch_unit.hh"
#include "mem/hierarchy.hh"
#include "pipeline/core.hh"
#include "sim/configs.hh"
#include "sim/plan.hh"
#include "vpred/value_predictor.hh"
#include "workloads/workload.hh"

using namespace eole;

namespace {

void
BM_HistoryPush(benchmark::State &state)
{
    TageConfig tc;
    Tage tage(tc);
    GlobalHistory hist(tage.foldSpecs());
    std::uint64_t x = 0x12345;
    for (auto _ : state) {
        x = x * 6364136223846793005ULL + 1;
        hist.push((x >> 60) & 1);
    }
}
BENCHMARK(BM_HistoryPush);

void
BM_HistorySnapshotRestore(benchmark::State &state)
{
    TageConfig tc;
    Tage tage(tc);
    GlobalHistory hist(tage.foldSpecs());
    for (int i = 0; i < 100; ++i)
        hist.push(i & 1);
    for (auto _ : state) {
        auto snap = hist.snapshot();
        hist.push(true);
        hist.restore(snap);
    }
}
BENCHMARK(BM_HistorySnapshotRestore);

void
BM_TagePredictUpdate(benchmark::State &state)
{
    TageConfig tc;
    Tage tage(tc);
    GlobalHistory hist(tage.foldSpecs());
    std::uint64_t pc = 0x400000;
    std::uint64_t x = 99;
    for (auto _ : state) {
        x = x * 6364136223846793005ULL + 3;
        pc = 0x400000 + (x & 0xfff) * 4;
        TageLookup l;
        const bool pred = tage.predict(pc, hist, 0, l);
        benchmark::DoNotOptimize(pred);
        const bool actual = (x >> 55) & 1;
        tage.update(pc, actual, l);
        hist.push(actual);
    }
}
BENCHMARK(BM_TagePredictUpdate);

void
BM_VtagePredictCommit(benchmark::State &state)
{
    VpConfig vc;
    vc.kind = VpKind::Vtage;
    auto vp = createValuePredictor(vc);
    GlobalHistory hist(vp->foldSpecs());
    vp->bindHistory(hist, 0);
    std::uint64_t x = 7;
    for (auto _ : state) {
        x = x * 6364136223846793005ULL + 5;
        const Addr pc = 0x400000 + (x & 0x3ff) * 4;
        VpLookup l = vp->predict(pc);
        benchmark::DoNotOptimize(l.value);
        vp->commit(pc, x & 0xffff, l);
    }
}
BENCHMARK(BM_VtagePredictCommit);

void
BM_StridePredictCommit(benchmark::State &state)
{
    VpConfig vc;
    vc.kind = VpKind::TwoDeltaStride;
    auto vp = createValuePredictor(vc);
    std::uint64_t i = 0;
    for (auto _ : state) {
        ++i;
        const Addr pc = 0x400000 + (i & 0x3f) * 4;
        VpLookup l = vp->predict(pc);
        benchmark::DoNotOptimize(l.value);
        vp->commit(pc, i * 8, l);
    }
}
BENCHMARK(BM_StridePredictCommit);

void
BM_CacheHit(benchmark::State &state)
{
    MemHierarchy mem;
    std::uint64_t i = 0;
    Cycle now = 0;
    for (auto _ : state) {
        ++now;
        const Addr addr = (i++ & 0x1ff) * 64;  // fits in L1D
        benchmark::DoNotOptimize(mem.loadAccess(0x400000, addr, now));
    }
}
BENCHMARK(BM_CacheHit);

void
BM_CacheStream(benchmark::State &state)
{
    MemHierarchy mem;
    Addr addr = 0;
    Cycle now = 0;
    for (auto _ : state) {
        now += 4;
        addr += 64;  // streaming misses, prefetcher engaged
        benchmark::DoNotOptimize(mem.loadAccess(0x400000, addr, now));
    }
}
BENCHMARK(BM_CacheStream);

void
BM_KernelVmStep(benchmark::State &state)
{
    const Workload w = workloads::makeGzip();
    KernelVM vm(w.program, w.memBytes);
    if (w.init)
        w.init(vm);
    UopRecord rec;
    for (auto _ : state)
        benchmark::DoNotOptimize(vm.step(rec));
}
BENCHMARK(BM_KernelVmStep);

/** core.run(64) calls per BM_CoreTick* run: a recording ends, so the
 *  iteration count is fixed and the recording sized to cover it. */
constexpr std::int64_t coreTickIterations = 4096;

void
runCoreTicks(benchmark::State &state, const SimConfig &cfg)
{
    Workload w = workloads::makeCrafty();
    // Each run(64) may overshoot by less than a commit group.
    w.frozen = w.freeze(coreTickIterations * (64 + cfg.commitWidth)
                        + maxInflightUops(cfg));
    Core core(cfg, w);
    for (auto _ : state)
        core.run(64);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(core.stats().committedUops));
}

void
BM_CoreTickBaseline(benchmark::State &state)
{
    runCoreTicks(state, configs::baseline(6, 64));
}
BENCHMARK(BM_CoreTickBaseline)->Iterations(coreTickIterations);

void
BM_CoreTickEole(benchmark::State &state)
{
    runCoreTicks(state, configs::eoleConstrained(4, 64, 4, 4));
}
BENCHMARK(BM_CoreTickEole)->Iterations(coreTickIterations);

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * Writing your own workload: author a kernel with the Assembler, give
 * it initial state, and measure how much of it EOLE offloads.
 *
 * The kernel below is a toy checksum loop with three kinds of work:
 *  - stride-predictable index arithmetic  -> Late Execution
 *  - immediate-operand mask computations  -> Early Execution
 *  - data-dependent accumulation          -> stays in the OoO engine
 *
 *   ./build/custom_workload [uops]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/random.hh"
#include "isa/assembler.hh"
#include "pipeline/core.hh"
#include "sim/configs.hh"
#include "sim/plan.hh"
#include "workloads/workload.hh"

using namespace eole;

namespace {

Workload
makeChecksumKernel()
{
    constexpr Addr bufBase = 0x0;          // 64 KB data buffer
    constexpr std::int64_t bufMask = 0xfff8;

    Assembler a;
    const IntReg i = 1, addr = 2, v = 3, sum = 4, m1 = 5, m2 = 6, m3 = 7;
    const IntReg base = 20;

    Label top = a.newLabel();
    a.bind(top);
    // (1) Stride-predictable index chain: the value predictor learns
    //     it, so with EOLE these skip the IQ and late-execute.
    a.addi(i, i, 8);
    a.andi(i, i, bufMask);
    a.add(addr, base, i);
    // (2) Immediate-ALU cascade: operands are immediates or same-group
    //     results, so the Early Execution block computes them beside
    //     Rename.
    a.movi(m1, 0x5a);
    a.shli(m2, m1, 4);
    a.xori(m3, m2, 0xff);
    // (3) Data-dependent work: random values, unpredictable, executes
    //     in the out-of-order engine as usual.
    a.ld(v, addr, 0);
    a.xor_(v, v, m3);
    a.add(sum, sum, v);
    a.jmp(top);

    Workload w;
    w.name = "example.checksum";
    w.memBytes = 0x10000;
    w.program = a.finish();
    w.init = [=](KernelVM &vm) {
        Rng rng(2024);
        for (Addr n = 0; n * 8 <= bufMask; ++n)
            vm.writeMem(bufBase + n * 8, 8, rng.next());
        vm.setIntReg(base.idx, bufBase);
    };
    return w;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t uops = argc > 1 ? std::strtoull(argv[1], nullptr, 0)
                                        : 1000000;
    Workload w = makeChecksumKernel();
    const SimConfig cfgs[] = {configs::baselineVp(6, 64),
                              configs::eole(4, 64)};

    // Record the kernel once: the KernelVM executes it functionally,
    // and every timing core replays the recording. It covers both
    // run() targets plus what a core holds in flight past them.
    std::uint64_t inflight = 0;
    for (const SimConfig &cfg : cfgs)
        inflight = std::max(inflight, maxInflightUops(cfg));
    w.frozen = w.freeze(uops / 5 + uops + inflight);

    // The functional mix of the first 100k µ-ops of the recording.
    {
        std::uint64_t alu = 0, loads = 0;
        const std::uint64_t total =
            std::min<std::uint64_t>(100000, w.frozen->uops.size());
        for (std::uint64_t n = 0; n < total; ++n) {
            const TraceUop &u = w.frozen->uops[n];
            alu += isSingleCycleAlu(u.opc());
            loads += u.isLoad();
        }
        std::printf("functional mix: %.1f%% single-cycle ALU, %.1f%% "
                    "loads\n\n",
                    100.0 * alu / total, 100.0 * loads / total);
    }

    // Now measure on the paper's machines.
    for (const SimConfig &cfg : cfgs) {
        Core core(cfg, w);
        core.run(uops / 5, uops * 40);
        core.resetStats();
        core.run(uops, uops * 200);
        const StatRecord r = core.record();
        std::printf("%-18s ipc=%.3f  early-executed=%.1f%%  "
                    "late-executed=%.1f%%  in-OoO=%.1f%%\n",
                    cfg.name.c_str(), r.get("ipc"),
                    100 * r.get("ee_frac"), 100 * r.get("le_frac"),
                    100 * (1 - r.get("offload_frac")));
    }

    std::printf("\nTry editing makeChecksumKernel(): more immediate "
                "chains raise EE, more\npredictable chains raise LE, "
                "more random loads keep work in the OoO core.\n");
    return 0;
}

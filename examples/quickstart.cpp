/**
 * @file
 * Quickstart: build a named paper configuration, run one benchmark,
 * and read the statistics the EOLE paper is about.
 *
 *   ./build/quickstart [benchmark] [uops]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "pipeline/core.hh"
#include "sim/configs.hh"
#include "sim/plan.hh"
#include "workloads/workload.hh"

using namespace eole;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "444.namd";
    const std::uint64_t uops = argc > 2 ? std::strtoull(argv[2], nullptr, 0)
                                        : 1000000;

    // Three machines from the paper's evaluation:
    //   Baseline_6_64    -- Table 1, no value prediction
    //   Baseline_VP_6_64 -- + VTAGE-2DStride VP, validation at commit
    //   EOLE_4_64        -- Early+Late Execution with a narrower
    //                       4-issue OoO engine (the headline design)
    const SimConfig cfgs[] = {
        configs::baseline(6, 64),
        configs::baselineVp(6, 64),
        configs::eole(4, 64),
    };

    std::printf("benchmark %s, %llu u-ops per run\n\n", bench.c_str(),
                static_cast<unsigned long long>(uops));
    std::printf("%-18s %7s %8s %8s %8s %9s\n", "config", "IPC", "VP-cov",
                "EE-frac", "LE-frac", "offload");

    // Every machine replays one recording of the benchmark, long enough
    // for both run() targets plus what a core holds in flight past them.
    Workload w = workloads::build(bench);
    std::uint64_t inflight = 0;
    for (const SimConfig &cfg : cfgs)
        inflight = std::max(inflight, maxInflightUops(cfg));
    w.frozen = w.freeze(uops / 5 + uops + inflight);

    for (const SimConfig &cfg : cfgs) {
        Core core(cfg, w);
        core.run(uops / 5, uops * 100);  // warm predictors and caches
        core.resetStats();
        core.run(uops, uops * 100);

        const StatRecord r = core.record();
        std::printf("%-18s %7.3f %8.3f %8.3f %8.3f %9.3f\n",
                    cfg.name.c_str(), r.get("ipc"), r.get("vp_coverage"),
                    r.get("ee_frac"), r.get("le_frac"),
                    r.get("offload_frac"));
    }

    std::printf("\nThe EOLE_4_64 row shows the paper's point: with Early"
                " and Late Execution,\na 4-issue out-of-order engine"
                " keeps up with the 6-issue VP baseline while\n10%%-60%%"
                " of the committed u-ops never enter the OoO core.\n");
    return 0;
}

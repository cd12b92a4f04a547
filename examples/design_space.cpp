/**
 * @file
 * Design-space walk: reproduce the paper's §6 argument on one
 * benchmark by stepping from the VP baseline to the final realistic
 * EOLE design, printing IPC and complexity-relevant stats at each
 * step.
 *
 *   ./build/design_space [benchmark] [uops]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "pipeline/core.hh"
#include "sim/configs.hh"
#include "sim/plan.hh"
#include "workloads/workload.hh"

using namespace eole;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "179.art";
    const std::uint64_t uops = argc > 2 ? std::strtoull(argv[2], nullptr, 0)
                                        : 1500000;

    struct Step
    {
        const char *why;
        SimConfig cfg;
    };

    const std::vector<Step> steps = {
        {"Table 1 machine, no VP", configs::baseline(6, 64)},
        {"+ VTAGE-2DStride, validation at commit",
         configs::baselineVp(6, 64)},
        {"+ Early & Late Execution", configs::eole(6, 64)},
        {"shrink the OoO engine to 4-issue", configs::eole(4, 64)},
        {"bank the PRF (4 banks)", configs::eoleBanked(4, 64, 4)},
        {"restrict LE/VT to 4 reads/bank, EE to 2 writes/bank",
         configs::eoleConstrained(4, 64, 4, 4)},
    };

    std::printf("design-space walk on %s (Section 6 of the paper)\n\n",
                bench.c_str());
    std::printf("%-52s %7s %9s %8s\n", "step", "IPC", "offload",
                "IQ-occ");

    // One recording of the benchmark serves every step: both run()
    // targets plus what the widest core holds in flight past them.
    Workload w = workloads::build(bench);
    std::uint64_t inflight = 0;
    for (const Step &s : steps)
        inflight = std::max(inflight, maxInflightUops(s.cfg));
    w.frozen = w.freeze(uops / 5 + uops + inflight);

    double base_vp_ipc = 0.0;
    for (const Step &s : steps) {
        Core core(s.cfg, w);
        core.run(uops / 5, uops * 40);  // warm predictors and caches
        core.resetStats();
        core.run(uops, uops * 200);
        const StatRecord r = core.record();
        if (s.cfg.name == "Baseline_VP_6_64")
            base_vp_ipc = r.get("ipc");
        std::printf("%-52s %7.3f %8.1f%% %8.1f\n", s.why, r.get("ipc"),
                    100 * r.get("offload_frac"),
                    r.get("avg_iq_occupancy"));
    }

    std::printf("\nThe last row is the paper's Fig 12 design point: a "
                "4-issue OoO engine,\na 4-banked PRF with the same port "
                "count as a 6-issue non-VP core, at\n~the performance "
                "of the 6-issue VP baseline (IPC %.3f here).\n",
                base_vp_ipc);
    return 0;
}

/**
 * Figure 13: modularity of EOLE. Full EOLE vs OLE (Late Execution
 * only) vs EOE (Early Execution only), each 4-issue with a 4-bank PRF
 * and 4 LE/VT read ports, normalized to Baseline_VP_6_64.
 *
 * Since the stage decomposition, "modularity" is structural, not just
 * a pair of config flags: each variant assembles a different stage
 * pipeline (the LE/VT pre-commit stage only exists when it has work),
 * and custom Stage implementations can be swapped in per stage. This
 * bench prints each variant's stage roster and demonstrates a stage
 * swap: an instrumented RenameStage drop-in must leave the timing
 * bit-identical.
 */
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "pipeline/core.hh"
#include "pipeline/stages/rename.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "sim/plans.hh"
#include "sim/sweep.hh"
#include "workloads/workload.hh"

using namespace eole;

namespace {

/** RenameStage drop-in that counts the µ-ops it renames. */
class CountingRename : public RenameStage
{
  public:
    using RenameStage::RenameStage;

    void
    tick(PipelineState &st) override
    {
        const size_t before = st.renameOut.size();
        RenameStage::tick(st);
        renamed += st.renameOut.size() - before;
    }

    std::uint64_t renamed = 0;
};

void
printStageRoster(const SimConfig &cfg)
{
    const StagePipeline p = buildDefaultPipeline(cfg);
    std::printf("%-24s:", cfg.name.c_str());
    for (const auto &stage : p.stages)
        std::printf(" %s", stage->name());
    std::printf("\n");
}

/** Swap an instrumented rename stage into an otherwise stock pipeline
 *  and check the timing is unchanged (the Stage seam is free). */
void
stageSwapDemo(const SimConfig &cfg, const std::string &workload)
{
    const std::uint64_t uops = std::min<std::uint64_t>(measureUops(), 200000);

    const Workload w = workloads::build(workload);
    Core stock(cfg, w);
    stock.run(uops, uops * 200 + 100000);

    StagePipeline custom = buildDefaultPipeline(cfg);
    custom.replace("rename", std::make_unique<CountingRename>(cfg));
    auto *counting = static_cast<CountingRename *>(custom.byName("rename"));
    Core instrumented(cfg, w, std::move(custom));
    instrumented.run(uops, uops * 200 + 100000);

    std::printf("\n== Stage swap (instrumented rename, %s / %s) ==\n",
                cfg.name.c_str(), workload.c_str());
    std::printf("stock:        %llu cycles, ipc %.6f\n",
                (unsigned long long)stock.stats().cycles,
                stock.stats().ipc());
    std::printf("instrumented: %llu cycles, ipc %.6f (%llu µ-ops renamed)\n",
                (unsigned long long)instrumented.stats().cycles,
                instrumented.stats().ipc(),
                (unsigned long long)counting->renamed);
    if (stock.stats().cycles != instrumented.stats().cycles) {
        std::printf("ERROR: stage swap changed the timing\n");
        std::exit(1);
    }
}

} // namespace

int
main()
{
    const SimConfig ref = configs::baselineVp(6, 64);
    const SimConfig full = configs::eoleConstrained(4, 64, 4, 4);
    const SimConfig le_only = configs::ole(4, 64, 4, 4);
    const SimConfig ee_only = configs::eoe(4, 64, 4, 4);

    std::printf("\n== Stage pipelines (built from SimConfig) ==\n");
    printStageRoster(configs::baseline(4, 64));  // no VP: no levt stage
    printStageRoster(ref);
    printStageRoster(full);
    printStageRoster(le_only);
    printStageRoster(ee_only);

    stageSwapDemo(full, "444.namd");

    // The grid itself is the "fig13" plan (also `eole run fig13`).
    const ExperimentPlan plan = plans::get("fig13");
    std::printf("\n%s: %s\n", plan.name.c_str(), plan.description.c_str());
    std::printf("warmup=%llu uops, measure=%llu uops, threads=%d "
                "(override: EOLE_WARMUP / EOLE_INSTS / EOLE_THREADS)\n",
                (unsigned long long)warmupUops(),
                (unsigned long long)measureUops(), runnerThreads());
    printPlanTables(plan, runPlan(plan));
    return 0;
}

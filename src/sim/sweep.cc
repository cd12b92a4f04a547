#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "common/logging.hh"
#include "pipeline/core.hh"
#include "sim/executor.hh"

namespace eole {

const RunResult *
PlanResult::find(const std::string &config, const std::string &workload) const
{
    for (const RunResult &c : cells) {
        if (c.config == config && c.workload == workload)
            return &c;
    }
    return nullptr;
}

void
validatePlanConfigs(const ExperimentPlan &plan)
{
    for (std::size_t i = 0; i < plan.configs.size(); ++i) {
        for (std::size_t j = i + 1; j < plan.configs.size(); ++j) {
            fatal_if(plan.configs[i].name == plan.configs[j].name,
                     "plan %s: duplicate config name %s", plan.name.c_str(),
                     plan.configs[i].name.c_str());
        }
    }
}

void
runOnWorkerPool(std::size_t num_jobs, int jobs_option,
                const std::function<void(std::size_t job, int worker)> &body)
{
    std::atomic<std::size_t> next{0};
    auto worker = [&](int me) {
        for (;;) {
            const std::size_t j = next.fetch_add(1);
            if (j >= num_jobs)
                return;
            body(j, me);
        }
    };
    const std::size_t nthreads = std::min<std::size_t>(
        jobs_option > 0 ? jobs_option : runnerThreads(), num_jobs);
    if (nthreads <= 1) {
        worker(0);
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (std::size_t t = 0; t < nthreads; ++t)
        pool.emplace_back(worker, static_cast<int>(t));
    for (auto &t : pool)
        t.join();
}

void
runOnWorkerPool(std::size_t num_jobs, int jobs_option,
                const std::function<void(std::size_t)> &body)
{
    runOnWorkerPool(num_jobs, jobs_option,
                    [&](std::size_t j, int) { body(j); });
}

PlanResult
runPlan(const ExperimentPlan &plan, const SweepOptions &options)
{
    SweepExecutor ex(plan, options);
    // A cell whose key already resolves loads its stats and sheds its
    // job.
    ex.loadCellStats();

    // Trace-cache sizing: the stream a job consumes is bounded by the
    // committed target of both run() calls plus the in-flight window,
    // for the longest config in the plan (per-config `runlen`).
    const std::uint64_t warmup = ex.expansion.warmup;
    ex.run(warmup + ex.expansion.longestMeasure + maxInflightUops(plan),
           {{"cell", false, [](std::size_t) { return std::size_t{1}; },
             [&](SweepJob &job) {
                 RunResult &cell = ex.result.cells[job.cell];
                 const std::uint64_t measure = ex.cells[job.cell].measure;
                 const std::uint64_t maxCycles =
                     (warmup + measure) * 60 + 1000000;
                 job.workload.frozen = ex.trace(job.workload);
                 Core core(ex.config(job.cell), job.workload);
                 if (options.tracer)
                     core.setPipeTracer(options.tracer);
                 core.run(warmup, maxCycles);
                 core.resetStats();
                 core.run(measure, maxCycles);
                 cell.stats = core.record();
                 job.stats = cell.stats;
             }}});
    ex.saveCellStats();
    return std::move(ex.result);
}

void
printPlanTables(const ExperimentPlan &plan, const PlanResult &result)
{
    for (const TableSpec &table : plan.tables) {
        // A row is printable when every column cell (and the normalizer
        // cell) survived the filter.
        std::vector<const std::string *> rows;
        for (const std::string &w : plan.workloads) {
            bool whole = true;
            for (const std::string &c : table.columns)
                whole = whole && result.find(c, w) != nullptr;
            if (!table.normalizeTo.empty())
                whole = whole && result.find(table.normalizeTo, w) != nullptr;
            if (whole)
                rows.push_back(&w);
        }
        if (rows.empty()) {
            std::printf("\n== %s == (no cells matched filter \"%s\")\n",
                        table.title.c_str(), result.filter.c_str());
            continue;
        }

        std::printf("\n== %s ==\n", table.title.c_str());
        std::printf("%-14s", "benchmark");
        for (const auto &c : table.columns)
            std::printf(" %22s", c.c_str());
        std::printf("\n");

        std::vector<std::vector<double>> columns(table.columns.size());
        for (const std::string *w : rows) {
            std::printf("%-14s", w->c_str());
            double base = 1.0;
            if (!table.normalizeTo.empty())
                base = result.find(table.normalizeTo, *w)
                           ->stats.get(table.stat);
            for (std::size_t c = 0; c < table.columns.size(); ++c) {
                const double v =
                    result.find(table.columns[c], *w)->stats.get(table.stat);
                const double shown =
                    table.normalizeTo.empty() ? v : v / base;
                columns[c].push_back(shown);
                std::printf(" %22.3f", shown);
            }
            std::printf("\n");
        }
        std::printf("%-14s", table.normalizeTo.empty() ? "mean" : "geomean");
        for (std::size_t c = 0; c < table.columns.size(); ++c) {
            double m;
            if (table.normalizeTo.empty()) {
                double sum = 0.0;
                for (double v : columns[c])
                    sum += v;
                m = columns[c].empty() ? 0.0 : sum / columns[c].size();
            } else {
                m = geomean(columns[c]);
            }
            std::printf(" %22.3f", m);
        }
        std::printf("\n");
    }
    std::fflush(stdout);
}

} // namespace eole

#include "sim/executor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "common/env.hh"
#include "common/logging.hh"
#include "sim/params.hh"
#include "sim/telemetry.hh"

namespace eole {

SweepExpansion
expandPlan(const ExperimentPlan &plan, const SweepOptions &options)
{
    SweepExpansion out;
    // Precedence documented in common/env.hh: option > plan > env >
    // default.
    out.warmup = resolveRunLength(options.warmup, plan.warmup,
                                  "EOLE_WARMUP", defaultWarmupUops);
    out.measure = resolveRunLength(options.measure, plan.measure,
                                   "EOLE_INSTS", defaultMeasureUops);
    out.longestMeasure = out.measure;
    for (std::size_t c = 0; c < plan.configs.size(); ++c) {
        const SimConfig &cfg = plan.configs[c];
        const std::uint64_t measure =
            resolveMeasureFor(options.measure, plan, cfg.name);
        out.longestMeasure = std::max(out.longestMeasure, measure);
        for (std::size_t w = 0; w < plan.workloads.size(); ++w) {
            const std::string &wl = plan.workloads[w];
            if (!cellMatches(options.filter, cfg.name, wl))
                continue;
            // A shard slice behaves exactly like a filter, except that
            // unowned cells still take their global slot.
            const std::uint64_t slot = out.filterMatched++;
            if (!options.shard.owns(plan.seed, cfg.seed, cfg.name, wl))
                continue;
            out.cells.push_back(SweepCell{
                c, w, slot, jobSeed(plan.seed, cfg.seed, cfg.name, wl),
                measure});
        }
    }
    return out;
}

SweepExecutor::SweepExecutor(const ExperimentPlan &plan_,
                             const SweepOptions &options_,
                             const SampleSpec &spec_)
    : plan(plan_), options(options_), spec(spec_),
      expansion(expandPlan(plan_, options_)), served(cells.size(), 0)
{
    validatePlanConfigs(plan);
    result.plan = plan.name;
    result.seed = plan.seed;
    result.warmup = expansion.warmup;
    result.measure = expansion.measure;
    result.filter = options.filter;
    result.sample = spec;
    result.cells.reserve(cells.size());
    for (const SweepCell &c : cells) {
        RunResult cell;
        cell.config = plan.configs[c.cfg].name;
        cell.workload = plan.workloads[c.wl];
        cell.seed = c.seed;
        // The canonical config map as the plan declares it: the seed
        // the cell runs with is the "seed" field above, the map keeps
        // the config's own seed knob.
        cell.params = configKeyValues(plan.configs[c.cfg]);
        if (options.telemetry)
            options.telemetry->cellQueued(cell.config, cell.workload);
        result.cells.push_back(std::move(cell));
    }
}

SimConfig
SweepExecutor::config(std::size_t cell) const
{
    SimConfig cfg = plan.configs[cells[cell].cfg];
    cfg.seed = cells[cell].seed;
    return cfg;
}

StoreKey
SweepExecutor::storeKey(std::size_t cell, const char *kind) const
{
    // The complete canonical inputs of the cell (sim/store.hh): equal
    // keys mean the same experiment, byte for byte.
    StoreKey key;
    key.kind = kind;
    key.config = result.cells[cell].config;
    key.params = result.cells[cell].params;
    key.workload = result.cells[cell].workload;
    key.seed = cells[cell].seed;
    key.warmup = expansion.warmup;
    key.measure = cells[cell].measure;
    key.sample = spec;
    return key;
}

void
SweepExecutor::loadFromStore(
    const std::function<std::vector<StoreKey>(std::size_t)> &keys_of,
    const std::function<std::string(std::size_t, std::size_t,
                                    std::string &)> &load)
{
    if (!options.store)
        return;
    Store &store = *options.store;
    keys.resize(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        keys[i] = keys_of(i);
        std::vector<std::string> hashes;
        for (const StoreKey &key : keys[i])
            hashes.push_back(storeKeyHash(key));
        bool all = !hashes.empty();
        for (const std::string &hash : hashes)
            all = all && store.contains(hash);
        for (std::size_t k = 0; all && k < hashes.size(); ++k) {
            std::string payload;
            all = store.get(hashes[k], &payload);
            const std::string err = all ? load(i, k, payload) : "";
            fatal_if(!err.empty(),
                     "store %s: object %s: %s (delete the store "
                     "directory to rebuild it)",
                     store.directory().c_str(), hashes[k].c_str(),
                     err.c_str());
        }
        if (all) {
            served[i] = 1;
            result.storeHits += hashes.size();
        }
    }
}

void
SweepExecutor::saveToStore(
    const std::function<std::string(std::size_t, std::size_t)> &payload)
{
    if (!options.store)
        return;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (std::size_t k = 0; !served[i] && k < keys[i].size(); ++k) {
            const std::string text = payload(i, k);
            if (text.empty())
                continue;
            options.store->put(keys[i][k], text);
            ++result.storeComputed;
        }
    }
    options.store->flush();
    if (options.telemetry) {
        options.telemetry->storeCounts(result.storeHits,
                                       result.storeComputed);
    }
}

void
SweepExecutor::loadCellStats()
{
    // The payload round-trips %.17g-exactly, so hit cells and computed
    // cells serialize byte-identically.
    loadFromStore(
        [&](std::size_t i) {
            return std::vector<StoreKey>{storeKey(i, "cell")};
        },
        [&](std::size_t i, std::size_t, std::string &payload) {
            std::string err;
            tryParseCellPayload(payload, &result.cells[i].stats, &err);
            return err;
        });
}

void
SweepExecutor::saveCellStats()
{
    saveToStore([&](std::size_t i, std::size_t) {
        return cellPayloadText(result.cells[i].stats);
    });
}

std::shared_ptr<const FrozenTrace>
SweepExecutor::sharedTrace(const Workload &w)
{
    return options.useTraceCache ? cache.get(w, traceUops) : nullptr;
}

std::shared_ptr<const FrozenTrace>
SweepExecutor::trace(const Workload &w, std::uint64_t horizon)
{
    std::shared_ptr<const FrozenTrace> t = sharedTrace(w);
    return t ? t : w.freeze(std::min(traceUops, horizon));
}

void
SweepExecutor::run(std::uint64_t trace_uops,
                   const std::vector<SweepPhase> &phases)
{
    traceUops = trace_uops;

    // Result slots are config-major (the artifact order); cells are
    // scheduled workload-major, so configurations sharing a workload's
    // recording run back-to-back and the recording drops once its last
    // job — of any phase — finishes. A cell's jobs of one phase become
    // ready when its jobs of the previous phase have all finished, and
    // a free worker takes the ready job of the latest phase first: a
    // cell's intervals run right after its warm pass, so the state one
    // phase hands the next never accumulates across cells.
    struct Job
    {
        std::size_t cell;
        std::size_t index;
    };
    std::vector<std::size_t> order;  // uncached cells, workload-major
    for (std::size_t w = 0; w < plan.workloads.size(); ++w) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].wl == w && !served[i])
                order.push_back(i);
        }
    }
    std::vector<std::vector<std::size_t>> counts(
        cells.size(), std::vector<std::size_t>(phases.size(), 0));
    std::vector<std::atomic<std::size_t>> remaining(plan.workloads.size());
    std::size_t total = 0;
    for (const std::size_t i : order) {
        for (std::size_t p = 0; p < phases.size(); ++p) {
            counts[i][p] = phases[p].jobs(i);
            remaining[cells[i].wl] += counts[i][p];
            total += counts[i][p];
        }
    }
    if (total == 0)
        return;

    // Scheduler state, under mu: the ready jobs of each phase and each
    // cell's unfinished jobs in its current phase.
    std::mutex mu;
    std::condition_variable readyCv;
    std::vector<std::deque<Job>> ready(phases.size());
    std::vector<std::size_t> open(cells.size(), 0);
    // Queue cell @p i's jobs of its first phase at or after @p p that
    // has any (none once its phases are exhausted).
    const auto enter = [&](std::size_t i, std::size_t p) {
        while (p < phases.size() && counts[i][p] == 0)
            ++p;
        if (p == phases.size())
            return;
        open[i] = counts[i][p];
        for (std::size_t k = 0; k < counts[i][p]; ++k)
            ready[p].push_back(Job{i, k});
    };
    for (const std::size_t i : order)
        enter(i, 0);

    std::atomic<std::size_t> done{0};
    std::mutex progressMu;
    // One pool task per job; each takes the best ready job, waiting when
    // every unfinished job still depends on one in flight.
    runOnWorkerPool(total, options.jobs, [&](std::size_t, int worker) {
        Job job;
        std::size_t p = phases.size();
        {
            std::unique_lock<std::mutex> lock(mu);
            readyCv.wait(lock, [&] {
                for (p = phases.size(); p-- > 0;) {
                    if (!ready[p].empty())
                        return true;
                }
                return false;
            });
            job = ready[p].front();
            ready[p].pop_front();
        }
        const SweepPhase &phase = phases[p];
        const RunResult &cell = result.cells[job.cell];
        const long interval =
            phase.perInterval ? static_cast<long>(job.index) : -1;
        if (options.telemetry) {
            options.telemetry->jobStart(phase.kind, cell.config,
                                        cell.workload, worker, interval);
        }
        const auto t0 = std::chrono::steady_clock::now();

        RunResult report;
        bool ok;
        {
            SweepJob ctx;
            ctx.cell = job.cell;
            ctx.index = job.index;
            ctx.workload = workloads::build(cell.workload);
            phase.body(ctx);
            report.stats = std::move(ctx.stats);
            ok = ctx.ok;
        }
        if (remaining[cells[job.cell].wl].fetch_sub(1) == 1)
            cache.drop(cell.workload);

        if (options.telemetry) {
            const double wall_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0).count();
            options.telemetry->jobFinish(phase.kind, cell.config,
                                         cell.workload, worker, wall_ms,
                                         ok, interval);
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            if (--open[job.cell] == 0) {
                enter(job.cell, p + 1);
                readyCv.notify_all();
            }
        }
        const std::size_t finished = done.fetch_add(1) + 1;
        if (options.progress) {
            report.config = cell.config;
            report.workload = cell.workload;
            report.seed = cell.seed;
            std::lock_guard<std::mutex> lock(progressMu);
            options.progress(finished, total, report);
        }
    });
    if (options.telemetry && options.useTraceCache) {
        options.telemetry->traceCacheCounts(
            cache.hitCount(), cache.missCount(), cache.fileHitCount(),
            cache.fileMissCount(), cache.evictCount(), cache.recordMs());
    }
}

} // namespace eole

/**
 * @file
 * eole_layers: the traced pass of the repository benchmark.
 *
 * Re-executes the cells of one benchmark workload through the
 * simulator's public functions — workloads::build / Workload::freeze,
 * the Core constructor / functionalWarm / captureWarmState /
 * restoreWarmState / run, captureAt, checkpoint (de)serialization,
 * writeTraceFile / loadTraceFile, Store put / get / contains and
 * runOnWorkerPool — with a span around every call. The scheduling,
 * seeding and trace sizing mirror the `eole` command the workload
 * times (runPlan, runSampledPlan, `eole ckpt save`), so the artifact
 * or checkpoint files written here are the same bytes; run.py checks
 * that they are before it trusts any span.
 *
 * Spans (name, start, end, parent, cell, work counters) stay
 * in memory and are written as TSV when the command ends. run.py turns
 * them into the per-layer metrics (rates, percentiles, self time).
 *
 *   eole_layers run    --plan P [--workloads A,B] --warmup N --insts N
 *                      [--sample N:W:D] --jobs J --seed S --out ART
 *                      --spans F
 *   eole_layers ckpt   --configs A,B --traces F1,F2 --warmup N
 *                      --insts N --sample N:W:D --jobs J --seed S
 *                      --out DIR --store DIR --spans F
 *   eole_layers record --workload W --uops N --out FILE --spans F
 *   eole_layers probe  --workload W --configs A,B --warm N --detail N
 *                      --dir DIR --spans F
 *
 * `probe` drives the layers a workload's own cells never reach (each
 * warmable component alone, trace files, checkpoint text, the store,
 * detailed runs) over one workload for each config, so every workload's
 * traced pass reports every layer.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/branch_unit.hh"
#include "isa/checkpoint.hh"
#include "mem/hierarchy.hh"
#include "pipeline/core.hh"
#include "sim/artifact.hh"
#include "sim/configs.hh"
#include "sim/params.hh"
#include "sim/plans.hh"
#include "sim/sample/sample.hh"
#include "sim/store.hh"
#include "sim/sweep.hh"
#include "trace/trace_file.hh"
#include "vpred/value_predictor.hh"
#include "workloads/workload.hh"

using namespace eole;

namespace {

// ---------------------------------------------------------------- spans

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  //!< 0 = root
    std::string cell;          //!< "config/workload", empty if none
    const char *name = "";
    std::int64_t t0 = 0, t1 = 0;  //!< ns since the process epoch
    std::uint64_t work = 0;    //!< µ-ops or bytes, by span name
    /** pipeline.run: cycles; trace.write: µ-ops; store lookups: 1 on a
     *  hit. */
    std::uint64_t extra = 0;
};

const auto epoch = std::chrono::steady_clock::now();
std::mutex spansMu;
std::vector<Span> spans;
std::atomic<std::uint64_t> nextSpanId{1};
thread_local std::vector<std::uint64_t> openSpans;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - epoch).count();
}

/** One span: opened by the constructor, recorded by the destructor. The
 *  parent is the innermost open span of this thread unless given (pool
 *  jobs name the pool span that dispatched them). */
class Scope
{
  public:
    Scope(const char *name, std::string cell = {},
          std::uint64_t parent = 0)
    {
        s.id = nextSpanId.fetch_add(1);
        s.parent = parent ? parent
                          : (openSpans.empty() ? 0 : openSpans.back());
        s.cell = std::move(cell);
        s.name = name;
        openSpans.push_back(s.id);
        s.t0 = nowNs();
    }

    ~Scope()
    {
        s.t1 = nowNs();
        openSpans.pop_back();
        std::lock_guard<std::mutex> lock(spansMu);
        spans.push_back(std::move(s));
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void
    count(std::uint64_t work, std::uint64_t extra = 0)
    {
        s.work = work;
        s.extra = extra;
    }

    std::uint64_t id() const { return s.id; }

  private:
    Span s;
};

bool
writeSpans(const std::string &path)
{
    std::ofstream os(path);
    for (const Span &s : spans) {
        os << s.id << '\t' << s.parent << '\t' << s.cell << '\t'
           << s.name << '\t' << s.t0 << '\t' << s.t1 << '\t' << s.work
           << '\t' << s.extra << '\n';
    }
    os.close();
    return !os.fail();
}

// ------------------------------------------------------------ arguments

struct Args
{
    std::string mode, plan, workloads, configs, traces, sample, out,
        store, spans, workload, dir;
    std::uint64_t warmup = 0, insts = 0, seed = 1, uops = 0, warm = 0,
        detail = 0;
    int jobs = 1;
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "eole_layers: %s\n", msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        die("usage: eole_layers run|ckpt|record|probe [options]");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            die("option " + k + " needs a value");
        const std::string v = argv[++i];
        const auto num = [&] { return std::stoull(v); };
        if (k == "--plan") a.plan = v;
        else if (k == "--workloads") a.workloads = v;
        else if (k == "--configs") a.configs = v;
        else if (k == "--traces") a.traces = v;
        else if (k == "--sample") a.sample = v;
        else if (k == "--out") a.out = v;
        else if (k == "--store") a.store = v;
        else if (k == "--spans") a.spans = v;
        else if (k == "--workload") a.workload = v;
        else if (k == "--dir") a.dir = v;
        else if (k == "--warmup") a.warmup = num();
        else if (k == "--insts") a.insts = num();
        else if (k == "--seed") a.seed = num();
        else if (k == "--uops") a.uops = num();
        else if (k == "--warm") a.warm = num();
        else if (k == "--detail") a.detail = num();
        else if (k == "--jobs") a.jobs = static_cast<int>(num());
        else die("unknown option " + k);
    }
    if (a.spans.empty())
        die("--spans is required");
    return a;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(item);
    return out;
}

std::vector<SimConfig>
namedConfigs(const std::string &list)
{
    std::vector<SimConfig> out;
    for (const std::string &name : splitList(list)) {
        SimConfig c;
        if (!configs::findNamed(name, &c))
            die("unknown config " + name);
        out.push_back(c);
    }
    return out;
}

std::string
cellId(const std::string &config, const std::string &workload)
{
    return config + "/" + workload;
}

/** Core::run inside a pipeline.run span carrying committed µ-ops and
 *  the cycles the call advanced. */
std::uint64_t
tracedRun(Core &core, const std::string &cell, std::uint64_t target,
          std::uint64_t max_cycles)
{
    Scope s("pipeline.run", cell);
    const Cycle before = core.cycle();
    const std::uint64_t committed = core.run(target, max_cycles);
    s.count(committed, core.cycle() - before);
    return committed;
}

std::unique_ptr<Core>
tracedCore(const SimConfig &cfg, const Workload &w, const std::string &cell)
{
    Scope s("pipeline.construct", cell);
    return std::make_unique<Core>(cfg, w);
}

Workload
tracedBuild(const std::string &name, const std::string &cell)
{
    Scope s("workloads.build", cell);
    return workloads::build(name);
}

/** Per-workload shared recording, as the sweep engine's trace cache
 *  keeps it: recorded by the first job that needs it (later jobs wait),
 *  dropped after the workload's last job. */
class SharedTraces
{
  public:
    SharedTraces(std::size_t n, std::uint64_t uops)
        : traces(n), mus(n), remaining(n), uops(uops)
    {
        for (auto &r : remaining)
            r.store(0);
    }

    void expect(std::size_t wl) { remaining[wl].fetch_add(1); }

    std::shared_ptr<const FrozenTrace>
    get(std::size_t wl, const Workload &w, const std::string &cell)
    {
        std::lock_guard<std::mutex> lock(mus[wl]);
        if (!traces[wl]) {
            Scope s("isa.record", cell);
            traces[wl] = w.freeze(uops);
            s.count(traces[wl]->uops.size());
        }
        return traces[wl];
    }

    void
    release(std::size_t wl)
    {
        if (remaining[wl].fetch_sub(1) == 1) {
            std::lock_guard<std::mutex> lock(mus[wl]);
            traces[wl].reset();
        }
    }

  private:
    std::vector<std::shared_ptr<const FrozenTrace>> traces;
    std::vector<std::mutex> mus;
    std::vector<std::atomic<std::size_t>> remaining;
    std::uint64_t uops;
};

/** The warm-once pass of warmOnceCheckpoints, one call per span. */
std::vector<std::shared_ptr<const Checkpoint>>
tracedWarmOnce(const SimConfig &cfg, const Workload &workload,
               const std::shared_ptr<const FrozenTrace> &trace,
               const std::vector<std::uint64_t> &ckpt_indices,
               const std::string &cell)
{
    Workload wc = workload;
    wc.frozen = trace;
    wc.start.reset();
    auto core = tracedCore(cfg, wc, cell);

    std::vector<std::shared_ptr<const Checkpoint>> out;
    const std::uint64_t len = trace->uops.size();
    std::uint64_t cursor = 0;
    for (std::uint64_t idx : ckpt_indices) {
        idx = std::min(idx, len);
        {
            Scope s("pipeline.warm", cell);
            core->functionalWarm(*trace, cursor, idx);
            s.count(idx - cursor);
        }
        cursor = idx;
        std::shared_ptr<Checkpoint> ckpt;
        {
            Scope s("isa.capture_at", cell);
            ckpt = std::make_shared<Checkpoint>(
                captureAt(*trace, workload.name, idx));
        }
        {
            Scope s("pipeline.capture", cell);
            core->captureWarmState(*ckpt);
        }
        out.push_back(std::move(ckpt));
    }
    return out;
}

// ------------------------------------------------------------ run: full

PlanResult
tracedFull(const ExperimentPlan &plan, const Args &a)
{
    PlanResult out;
    out.plan = plan.name;
    out.seed = plan.seed;
    out.warmup = a.warmup;
    out.measure = a.insts;

    struct Job
    {
        std::size_t cfg, wl, slot;
    };
    std::vector<Job> jobs;
    for (std::size_t c = 0; c < plan.configs.size(); ++c) {
        for (std::size_t w = 0; w < plan.workloads.size(); ++w) {
            RunResult rr;
            rr.config = plan.configs[c].name;
            rr.workload = plan.workloads[w];
            rr.seed = jobSeed(plan.seed, plan.configs[c].seed, rr.config,
                              rr.workload);
            rr.params = configKeyValues(plan.configs[c]);
            jobs.push_back(Job{c, w, out.cells.size()});
            out.cells.push_back(std::move(rr));
        }
    }
    // Workload-major dispatch, as runPlan schedules.
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const Job &x, const Job &y) { return x.wl < y.wl; });

    std::uint64_t longest = a.insts;
    for (const SimConfig &c : plan.configs)
        longest = std::max(longest, resolveMeasureFor(a.insts, plan, c.name));
    SharedTraces traces(plan.workloads.size(),
                        a.warmup + longest + maxInflightUops(plan));
    for (const Job &j : jobs)
        traces.expect(j.wl);

    Scope pool("sim.pool");
    const std::uint64_t poolId = pool.id();
    runOnWorkerPool(jobs.size(), a.jobs, [&](std::size_t j) {
        const Job &job = jobs[j];
        RunResult &rr = out.cells[job.slot];
        const std::string cell = cellId(rr.config, rr.workload);
        Scope js("sim.job", cell, poolId);
        SimConfig cfg = plan.configs[job.cfg];
        cfg.seed = rr.seed;
        Workload w = tracedBuild(rr.workload, cell);
        w.frozen = traces.get(job.wl, w, cell);
        {
            const std::uint64_t measure =
                resolveMeasureFor(a.insts, plan, cfg.name);
            const std::uint64_t maxCycles =
                (a.warmup + measure) * 60 + 1000000;
            auto core = tracedCore(cfg, w, cell);
            tracedRun(*core, cell, a.warmup, maxCycles);
            core->resetStats();
            tracedRun(*core, cell, measure, maxCycles);
            Scope s("pipeline.record", cell);
            rr.stats = core->record();
        }
        w.frozen.reset();
        traces.release(job.wl);
    });
    return out;
}

// --------------------------------------------------------- run: sampled

struct Interval
{
    std::uint64_t start = 0, warmedUops = 0, committed = 0, cycles = 0;
    bool restored = false;
};

PlanResult
tracedSampled(const ExperimentPlan &plan, const SampleSpec &spec,
              const Args &a)
{
    if (spec.warmBound != 0)
        die("the traced pass mirrors warm-once sampling only (B = 0)");
    PlanResult out;
    out.plan = plan.name;
    out.seed = plan.seed;
    out.warmup = a.warmup;
    out.measure = a.insts;
    out.sample = spec;

    struct Cell
    {
        std::size_t cfg, wl;
        std::vector<std::uint64_t> starts;
        std::vector<Interval> intervals;
        std::vector<std::shared_ptr<const Checkpoint>> ckpts;
    };
    std::vector<Cell> cells;
    for (std::size_t c = 0; c < plan.configs.size(); ++c) {
        for (std::size_t w = 0; w < plan.workloads.size(); ++w) {
            RunResult rr;
            rr.config = plan.configs[c].name;
            rr.workload = plan.workloads[w];
            rr.seed = jobSeed(plan.seed, plan.configs[c].seed, rr.config,
                              rr.workload);
            rr.params = configKeyValues(plan.configs[c]);
            Cell cell;
            cell.cfg = c;
            cell.wl = w;
            cell.starts = placeIntervals(
                a.warmup, resolveMeasureFor(a.insts, plan, rr.config), spec,
                rr.seed);
            cell.intervals.resize(cell.starts.size());
            cell.ckpts.resize(cell.starts.size());
            cells.push_back(std::move(cell));
            out.cells.push_back(std::move(rr));
        }
    }

    struct Job
    {
        std::size_t cell, interval;
    };
    std::vector<Job> jobs;
    std::vector<std::size_t> warmJobs;
    std::uint64_t maxStart = 0, longest = a.insts;
    for (std::size_t w = 0; w < plan.workloads.size(); ++w) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].wl != w || cells[i].starts.empty())
                continue;
            warmJobs.push_back(i);
            for (std::size_t k = 0; k < cells[i].starts.size(); ++k) {
                jobs.push_back(Job{i, k});
                maxStart = std::max(maxStart, cells[i].starts[k]);
            }
        }
    }
    for (const SimConfig &c : plan.configs)
        longest = std::max(longest, resolveMeasureFor(a.insts, plan, c.name));
    SharedTraces traces(plan.workloads.size(),
                        sampleTraceUopsNeeded(plan, spec, a.warmup, longest,
                                              maxStart));
    for (const std::size_t i : warmJobs)
        traces.expect(cells[i].wl);
    for (const Job &j : jobs)
        traces.expect(cells[j.cell].wl);

    {
        Scope pool("sim.pool");
        const std::uint64_t poolId = pool.id();
        runOnWorkerPool(warmJobs.size(), a.jobs, [&](std::size_t j) {
            Cell &cell = cells[warmJobs[j]];
            const RunResult &rr = out.cells[warmJobs[j]];
            const std::string id = cellId(rr.config, rr.workload);
            Scope js("sim.job", id, poolId);
            SimConfig cfg = plan.configs[cell.cfg];
            cfg.seed = rr.seed;
            Workload w = tracedBuild(rr.workload, id);
            std::shared_ptr<const FrozenTrace> trace =
                traces.get(cell.wl, w, id);
            const std::uint64_t len = trace->uops.size();
            const std::vector<std::uint64_t> idxs =
                warmCheckpointIndices(cell.starts, len, spec);
            std::uint64_t prev = 0;
            for (std::size_t k = 0; k < cell.starts.size(); ++k) {
                Interval &iv = cell.intervals[k];
                iv.start = std::min<std::uint64_t>(cell.starts[k], len);
                iv.warmedUops = idxs[k] - std::min(prev, idxs[k]);
                prev = idxs[k];
            }
            cell.ckpts = tracedWarmOnce(cfg, w, trace, idxs, id);
            trace.reset();
            traces.release(cell.wl);
        });
    }
    {
        Scope pool("sim.pool");
        const std::uint64_t poolId = pool.id();
        runOnWorkerPool(jobs.size(), a.jobs, [&](std::size_t j) {
            const Job &job = jobs[j];
            Cell &cell = cells[job.cell];
            const RunResult &rr = out.cells[job.cell];
            Interval &iv = cell.intervals[job.interval];
            const std::string id = cellId(rr.config, rr.workload);
            Scope js("sim.job", id, poolId);
            SimConfig cfg = plan.configs[cell.cfg];
            cfg.seed = rr.seed;
            Workload w = tracedBuild(rr.workload, id);
            std::shared_ptr<const FrozenTrace> trace =
                traces.get(cell.wl, w, id);
            std::shared_ptr<const Checkpoint> ckpt =
                std::move(cell.ckpts[job.interval]);
            const std::uint64_t detail = iv.start - ckpt->uopIndex;
            Workload wc = w;
            wc.frozen = trace;
            wc.start = ckpt;
            iv.restored = true;
            {
                auto core = tracedCore(cfg, wc, id);
                {
                    Scope s("pipeline.restore", id);
                    core->restoreWarmState(*ckpt);
                }
                if (detail)
                    tracedRun(*core, id, detail, detail * 60 + 1000000);
                core->resetTiming();
                iv.committed = tracedRun(*core, id, spec.intervalUops,
                                         spec.intervalUops * 60 + 1000000);
                iv.cycles = core->pipelineState().cycles;
            }
            wc.frozen.reset();
            wc.start.reset();
            ckpt.reset();
            trace.reset();
            traces.release(cell.wl);
        });
    }

    // The reduction of runSampledPlan, in slot order.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        RunResult &rr = out.cells[i];
        std::vector<double> ipcs;
        std::uint64_t cycles = 0, committed = 0, warmed = 0, restored = 0;
        for (const Interval &iv : cells[i].intervals) {
            warmed += iv.warmedUops;
            if (iv.restored)
                ++restored;
            if (iv.committed == 0 || iv.cycles == 0)
                continue;
            ipcs.push_back(ratio(static_cast<double>(iv.committed),
                                 static_cast<double>(iv.cycles)));
            cycles += iv.cycles;
            committed += iv.committed;
        }
        const MeanCi ci = meanCi95(ipcs);
        rr.stats.add("ipc", ci.mean);
        rr.stats.add("ipc_ci95", ci.ci95);
        rr.stats.add("ipc_stddev", ci.stddev);
        rr.stats.add("cycles", static_cast<double>(cycles));
        rr.stats.add("committed_uops", static_cast<double>(committed));
        rr.stats.add("sample_intervals", static_cast<double>(ipcs.size()));
        rr.stats.add("sample_interval_uops",
                     static_cast<double>(spec.intervalUops));
        rr.stats.add("sample_detail_uops",
                     static_cast<double>(spec.detailUops));
        rr.stats.add("sample_warm_uops", static_cast<double>(warmed));
        rr.stats.add("sample_restored_intervals",
                     static_cast<double>(restored));
    }
    return out;
}

int
cmdRun(const Args &a)
{
    if (!plans::exists(a.plan))
        die("unknown plan " + a.plan);
    ExperimentPlan plan = plans::get(a.plan);
    if (!a.workloads.empty())
        plan.workloads = splitList(a.workloads);
    plan.seed = a.seed;
    SampleSpec spec;
    if (!a.sample.empty())
        spec = parseSampleSpec(a.sample);
    const PlanResult result = spec.enabled() ? tracedSampled(plan, spec, a)
                                             : tracedFull(plan, a);
    Scope s("sim.artifact.write");
    std::ofstream os(a.out, std::ios::binary);
    writeJsonArtifact(os, result);
    os.close();
    if (os.fail())
        die("cannot write " + a.out);
    return 0;
}

// ----------------------------------------------------------------- ckpt

std::string
sanitizeForPath(std::string s)
{
    for (char &c : s) {
        if (c == '/' || c == '\\' || c == ' ' || c == ':')
            c = '_';
    }
    return s;
}

/** `eole ckpt save --store`: store pre-pass, warm-once pool, serial put
 *  pass — each store call, (de)serialization and file write a span. */
int
cmdCkpt(const Args &a)
{
    ExperimentPlan plan;
    plan.name = "disk_ckpt";
    plan.seed = a.seed;
    plan.configs = namedConfigs(a.configs);
    for (const std::string &path : splitList(a.traces)) {
        Scope s("trace.load");
        std::string name, err;
        if (!workloads::bindTraceFile(path, &name, &err))
            die(err);
        s.count(std::filesystem::file_size(path));
        plan.workloads.push_back(name);
    }
    const SampleSpec sample = parseSampleSpec(a.sample);
    std::filesystem::create_directories(a.out);

    struct Cell
    {
        const SimConfig *cfg;
        std::size_t wl;
        std::string workload, id;
        std::uint64_t seed;
        std::vector<std::uint64_t> starts, storeIdxs;
        std::vector<std::string> serialized;
        bool fromStore = false;
    };
    std::vector<Cell> cells;
    for (const SimConfig &c : plan.configs) {
        for (std::size_t w = 0; w < plan.workloads.size(); ++w) {
            Cell cell;
            cell.cfg = &c;
            cell.wl = w;
            cell.workload = plan.workloads[w];
            cell.id = cellId(c.name, cell.workload);
            cell.seed = jobSeed(plan.seed, c.seed, c.name, cell.workload);
            cell.starts = placeIntervals(
                a.warmup, resolveMeasureFor(a.insts, plan, c.name), sample,
                cell.seed);
            cell.serialized.resize(cell.starts.size());
            cells.push_back(std::move(cell));
        }
    }
    const auto ckptKey = [&](const Cell &cell, std::uint64_t idx) {
        StoreKey key;
        key.kind = "ckpt";
        key.config = cell.cfg->name;
        key.params = configKeyValues(*cell.cfg);
        key.workload = cell.workload;
        key.seed = cell.seed;
        key.warmup = a.warmup;
        key.measure = resolveMeasureFor(a.insts, plan, cell.cfg->name);
        key.sample = sample;
        key.index = idx;
        return key;
    };
    const auto fileFor = [&](const Cell &cell, std::uint64_t uop) {
        return a.out + "/" + sanitizeForPath(cell.cfg->name) + "__"
            + sanitizeForPath(cell.workload) + "__u" + std::to_string(uop)
            + ".ckpt";
    };

    Store store(a.store);
    std::size_t hits = 0, computed = 0;
    for (Cell &cell : cells) {
        cell.storeIdxs = warmCheckpointIndices(cell.starts, ~0ULL, sample);
        bool all = !cell.storeIdxs.empty();
        for (const std::uint64_t idx : cell.storeIdxs) {
            if (!all)
                break;
            Scope s("sim.store.contains", cell.id);
            all = store.contains(storeKeyHash(ckptKey(cell, idx)));
            s.count(0, all ? 1 : 0);
        }
        if (!all)
            continue;
        std::uint64_t prevUop = ~0ULL;
        for (const std::uint64_t idx : cell.storeIdxs) {
            std::string payload;
            {
                Scope s("sim.store.get", cell.id);
                if (!store.get(storeKeyHash(ckptKey(cell, idx)), &payload))
                    die("store object vanished under " + a.store);
                s.count(payload.size(), 1);
            }
            Checkpoint ckpt;
            {
                Scope s("isa.ckpt.parse", cell.id);
                std::string err;
                std::istringstream is(payload);
                if (!tryDeserializeCheckpoint(is, &ckpt, &err))
                    die(err);
                s.count(payload.size());
            }
            if (ckpt.uopIndex == prevUop)
                continue;
            prevUop = ckpt.uopIndex;
            Scope s("sim.artifact.write", cell.id);
            std::ofstream os(fileFor(cell, ckpt.uopIndex), std::ios::binary);
            os << payload;
            s.count(payload.size());
        }
        cell.fromStore = true;
        hits += cell.storeIdxs.size();
    }

    std::uint64_t maxStart = 0, longest = a.insts;
    for (const Cell &cell : cells) {
        for (const std::uint64_t st : cell.starts)
            maxStart = std::max(maxStart, st);
    }
    for (const SimConfig &c : plan.configs)
        longest = std::max(longest, resolveMeasureFor(a.insts, plan, c.name));
    SharedTraces traces(plan.workloads.size(),
                        sampleTraceUopsNeeded(plan, sample, a.warmup,
                                              longest, maxStart));
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!cells[i].fromStore) {
            todo.push_back(i);
            traces.expect(cells[i].wl);
        }
    }
    {
        Scope pool("sim.pool");
        const std::uint64_t poolId = pool.id();
        runOnWorkerPool(todo.size(), a.jobs, [&](std::size_t j) {
            Cell &cell = cells[todo[j]];
            Scope js("sim.job", cell.id, poolId);
            SimConfig cfg = *cell.cfg;
            cfg.seed = cell.seed;
            Workload w = tracedBuild(cell.workload, cell.id);
            std::shared_ptr<const FrozenTrace> trace =
                traces.get(cell.wl, w, cell.id);
            const auto idxs = warmCheckpointIndices(
                cell.starts, trace->uops.size(), sample);
            const auto ckpts = tracedWarmOnce(cfg, w, trace, idxs, cell.id);
            for (std::size_t k = 0; k < ckpts.size(); ++k) {
                {
                    Scope s("isa.ckpt.serialize", cell.id);
                    std::ostringstream ss;
                    serializeCheckpoint(ss, *ckpts[k]);
                    cell.serialized[k] = ss.str();
                    s.count(cell.serialized[k].size());
                }
                if (k > 0 && ckpts[k]->uopIndex == ckpts[k - 1]->uopIndex)
                    continue;
                // As `eole ckpt save`: the file is serialized again,
                // straight into the stream.
                Scope s("sim.artifact.write", cell.id);
                std::ofstream os(fileFor(cell, ckpts[k]->uopIndex),
                                 std::ios::binary);
                serializeCheckpoint(os, *ckpts[k]);
                s.count(cell.serialized[k].size());
            }
            trace.reset();
            traces.release(cell.wl);
        });
    }
    for (std::size_t i : todo) {
        Cell &cell = cells[i];
        for (std::size_t k = 0; k < cell.storeIdxs.size(); ++k) {
            if (cell.serialized[k].empty())
                continue;
            Scope s("sim.store.put", cell.id);
            store.put(ckptKey(cell, cell.storeIdxs[k]), cell.serialized[k]);
            s.count(cell.serialized[k].size());
            ++computed;
        }
    }
    {
        Scope s("sim.store.flush");
        store.flush();
    }
    std::fprintf(stderr, "store %s: %zu cached, %zu computed\n",
                 a.store.c_str(), hits, computed);
    return 0;
}

// --------------------------------------------------------------- record

int
cmdRecord(const Args &a)
{
    const std::string cell = a.workload;
    Workload w = tracedBuild(a.workload, cell);
    std::shared_ptr<const FrozenTrace> trace;
    {
        Scope s("isa.record", cell);
        trace = w.freeze(a.uops);
        s.count(trace->uops.size());
    }
    Scope s("trace.write", cell);
    std::string err;
    if (!writeTraceFile(*trace, a.out, "generated", &err))
        die(err);
    s.count(std::filesystem::file_size(a.out), trace->uops.size());
    return 0;
}

// ---------------------------------------------------------------- probe

/** A core's warmable components, wired the way PipelineState wires
 *  them (the value predictor reads the branch unit's history). */
struct Components
{
    std::unique_ptr<ValuePredictor> vp;
    std::unique_ptr<BranchUnit> bu;
    std::unique_ptr<MemHierarchy> mem;

    explicit Components(const SimConfig &cfg)
        : vp(createValuePredictor(cfg.vp, cfg.seed ^ 0x70))
    {
        std::vector<std::pair<int, int>> extra;
        if (vp)
            extra = vp->foldSpecs();
        bu = std::make_unique<BranchUnit>(cfg.bp, extra, cfg.seed ^ 0xb0);
        if (vp)
            vp->bindHistory(bu->history(), bu->extraFoldBase());
        mem = std::make_unique<MemHierarchy>(cfg.mem);
    }
};

void
probeSnapshot(const char *snap, const char *restore,
              const WarmableComponent &from, WarmableComponent &to,
              const std::string &cell)
{
    std::string text;
    {
        Scope s(snap, cell);
        std::ostringstream os;
        from.snapshotState(os);
        text = os.str();
        s.count(text.size());
    }
    Scope s(restore, cell);
    std::istringstream is(text);
    to.restoreState(is);
    s.count(text.size());
}

int
cmdProbe(const Args &a)
{
    std::filesystem::create_directories(a.dir);
    const std::string tracePath = a.dir + "/probe.trace";
    const std::uint64_t uops = a.warm + a.detail + 4096;
    {
        Args rec = a;
        rec.uops = uops;
        rec.out = tracePath;
        cmdRecord(rec);
    }
    std::shared_ptr<const FrozenTrace> trace;
    {
        Scope s("trace.load", a.workload);
        std::string err;
        trace = loadTraceFile(tracePath, &err);
        if (!trace)
            die(err);
        s.count(std::filesystem::file_size(tracePath));
    }
    Store store(a.dir + "/store");
    for (SimConfig cfg : namedConfigs(a.configs)) {
        const std::string cell = cellId(cfg.name, a.workload);
        cfg.seed = jobSeed(a.seed, cfg.seed, cfg.name, a.workload);

        // Each component's warmUpdate over the same prefix. The value
        // predictor indexes with the branch unit's global history, so
        // it is driven in lockstep with a branch unit; run.py takes
        // the branch unit's own loop time off that pair.
        Components warmed(cfg), fresh(cfg);
        {
            Scope s("bpred.warm", cell);
            for (std::uint64_t i = 0; i < a.warm; ++i)
                fresh.bu->warmUpdate(trace->uops[i]);
            s.count(a.warm);
        }
        if (warmed.vp) {
            Scope s("vpred.warm_pair", cell);
            for (std::uint64_t i = 0; i < a.warm; ++i) {
                warmed.bu->warmUpdate(trace->uops[i]);
                warmed.vp->warmUpdate(trace->uops[i]);
            }
            s.count(a.warm);
        } else {
            for (std::uint64_t i = 0; i < a.warm; ++i)
                warmed.bu->warmUpdate(trace->uops[i]);
        }
        {
            Scope s("mem.warm", cell);
            for (std::uint64_t i = 0; i < a.warm; ++i)
                warmed.mem->warmUpdate(trace->uops[i]);
            s.count(a.warm);
        }
        Components restored(cfg);
        probeSnapshot("bpred.snapshot", "bpred.restore", *warmed.bu,
                      *restored.bu, cell);
        if (warmed.vp) {
            probeSnapshot("vpred.snapshot", "vpred.restore", *warmed.vp,
                          *restored.vp, cell);
        }
        probeSnapshot("mem.snapshot", "mem.restore", *warmed.mem,
                      *restored.mem, cell);

        // The checkpoint path a sampled interval takes, store included.
        Workload w = tracedBuild(a.workload, cell);
        w.frozen = trace;
        auto ckpts = tracedWarmOnce(cfg, w, trace, {a.warm}, cell);
        std::string text;
        {
            Scope s("isa.ckpt.serialize", cell);
            text = checkpointString(*ckpts[0]);
            s.count(text.size());
        }
        auto parsed = std::make_shared<Checkpoint>();
        {
            Scope s("isa.ckpt.parse", cell);
            std::string err;
            std::istringstream is(text);
            if (!tryDeserializeCheckpoint(is, parsed.get(), &err))
                die(err);
            s.count(text.size());
        }
        StoreKey key;
        key.kind = "ckpt";
        key.config = cfg.name;
        key.params = configKeyValues(cfg);
        key.workload = a.workload;
        key.seed = cfg.seed;
        key.index = a.warm;
        const std::string hash = storeKeyHash(key);
        {
            Scope s("sim.store.contains", cell);
            s.count(0, store.contains(hash) ? 1 : 0);
        }
        {
            Scope s("sim.store.put", cell);
            store.put(key, text);
            s.count(text.size());
        }
        {
            Scope s("sim.store.get", cell);
            std::string payload;
            const bool hit = store.get(hash, &payload);
            s.count(payload.size(), hit ? 1 : 0);
        }
        Workload wc = w;
        wc.start = parsed;
        auto core = tracedCore(cfg, wc, cell);
        {
            Scope s("pipeline.restore", cell);
            core->restoreWarmState(*parsed);
        }
        tracedRun(*core, cell, a.detail, a.detail * 60 + 1000000);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    int rc = 2;
    if (a.mode == "run")
        rc = cmdRun(a);
    else if (a.mode == "ckpt")
        rc = cmdCkpt(a);
    else if (a.mode == "record")
        rc = cmdRecord(a);
    else if (a.mode == "probe")
        rc = cmdProbe(a);
    else
        die("unknown mode " + a.mode);
    if (!writeSpans(a.spans))
        die("cannot write " + a.spans);
    return rc;
}

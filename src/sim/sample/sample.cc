#include "sim/sample/sample.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/logging.hh"
#include "pipeline/core.hh"
#include "sim/artifact.hh"
#include "sim/executor.hh"
#include "workloads/workload.hh"

namespace eole {

namespace {

/** Two-sided 97.5th-percentile Student-t critical values, df 1..30;
 *  beyond that the normal 1.96 is within ~1%. */
constexpr double tCrit[] = {
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228,  2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
    2.093,  2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
    2.048,  2.045, 2.042,
};

double
tCritical(std::size_t df)
{
    if (df == 0)
        return 0.0;
    if (df <= std::size(tCrit))
        return tCrit[df - 1];
    return 1.96;
}

/** One interval's measurement. */
struct IntervalResult
{
    std::uint64_t start = 0;      //!< measured-interval start µ-op
    std::uint64_t warmedUops = 0; //!< functionally warmed µ-ops
    std::uint64_t committed = 0;  //!< measured µ-ops
    std::uint64_t cycles = 0;     //!< measured cycles
    bool restored = false;        //!< fed from a v2 checkpoint
};

} // namespace

std::uint64_t
intervalSeed(std::uint64_t cell_seed, std::uint64_t interval_index)
{
    // Reuse the jobSeed mixing discipline: pure function of the cell
    // seed and the interval index, stable across platforms/scheduling.
    return jobSeed(cell_seed, interval_index, "interval", "");
}

std::vector<std::uint64_t>
placeIntervals(std::uint64_t warmup, std::uint64_t measure,
               const SampleSpec &spec, std::uint64_t cell_seed)
{
    std::vector<std::uint64_t> starts;
    if (!spec.enabled() || measure == 0)
        return starts;

    const std::uint64_t w = spec.intervalUops;
    const std::uint64_t region_end = warmup + measure;
    // The region must hold n disjoint intervals: clamp n.
    std::uint64_t n = std::min(spec.intervals, measure / w);
    if (n == 0)
        n = 1;  // degenerate region: one (short) interval at the start
    const std::uint64_t period = measure / n;

    // Deterministic phase within one period (leaving room for W when
    // the period allows it), same for every interval: systematic
    // sampling with a seeded offset.
    const std::uint64_t slack = period > w ? period - w : 0;
    const std::uint64_t phase =
        slack ? intervalSeed(cell_seed, ~0ULL) % (slack + 1) : 0;

    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t start = warmup + i * period + phase;
        // The detailed-warmup prefix [start - D, start) must exist,
        // and intervals must stay disjoint after that clamp (a D
        // larger than the early systematic positions would otherwise
        // collapse them onto one point, biasing the CI narrow).
        start = std::max<std::uint64_t>(start, spec.detailUops);
        if (!starts.empty())
            start = std::max<std::uint64_t>(start, starts.back() + w);
        // Drop intervals pushed past the region by the clamps — the
        // contract is "fewer than N when the region cannot hold N
        // disjoint intervals", except the guaranteed first (short)
        // interval of a degenerate region.
        if (start + w > region_end && !starts.empty())
            break;
        starts.push_back(start);
    }
    return starts;
}

MeanCi
meanCi95(const std::vector<double> &xs)
{
    MeanCi out;
    if (xs.empty())
        return out;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    out.mean = sum / static_cast<double>(xs.size());
    if (xs.size() < 2)
        return out;
    double ss = 0.0;
    for (double x : xs)
        ss += (x - out.mean) * (x - out.mean);
    out.stddev = std::sqrt(ss / static_cast<double>(xs.size() - 1));
    out.ci95 = tCritical(xs.size() - 1) * out.stddev
        / std::sqrt(static_cast<double>(xs.size()));
    return out;
}

std::vector<std::uint64_t>
warmCheckpointIndices(const std::vector<std::uint64_t> &starts,
                      std::uint64_t trace_len, const SampleSpec &spec)
{
    std::vector<std::uint64_t> idxs;
    idxs.reserve(starts.size());
    for (const std::uint64_t s : starts) {
        const std::uint64_t start = std::min(s, trace_len);
        idxs.push_back(start >= spec.detailUops
                           ? start - spec.detailUops
                           : 0);
    }
    return idxs;
}

namespace {

/** Every cell's interval starts — the one placement runSampledPlan and
 *  saveCheckpoints share: a pure function of run lengths and the cell
 *  seed, never of the recorded trace. */
std::vector<std::vector<std::uint64_t>>
placeCellIntervals(const SweepExecutor &ex)
{
    std::vector<std::vector<std::uint64_t>> starts;
    for (const SweepCell &cell : ex.cells) {
        starts.push_back(placeIntervals(ex.expansion.warmup, cell.measure,
                                        ex.spec, cell.seed));
    }
    return starts;
}

/** sampleTraceUopsNeeded for the intervals @p starts places. */
std::uint64_t
placedTraceUops(const SweepExecutor &ex,
                const std::vector<std::vector<std::uint64_t>> &starts)
{
    std::uint64_t maxStart = 0;
    for (const std::vector<std::uint64_t> &s : starts) {
        if (!s.empty())
            maxStart = std::max(maxStart, s.back());  // starts ascend
    }
    return sampleTraceUopsNeeded(ex.plan, ex.spec, ex.expansion.warmup,
                                 ex.expansion.longestMeasure, maxStart);
}

} // namespace

std::uint64_t
sampleTraceUopsNeeded(const ExperimentPlan &plan,
                      const SampleSpec &spec, std::uint64_t warmup,
                      std::uint64_t measure, std::uint64_t max_start)
{
    const std::uint64_t furthest =
        std::max(warmup + measure, max_start + spec.intervalUops);
    return furthest + maxInflightUops(plan);
}

namespace {

/**
 * The warm-once pass: stream [0, idx) of @p trace through a fresh
 * core's warmable components and, at the k-th index of
 * @p ckpt_indices (non-decreasing; clamped to the trace length), hand
 * @p at k, the core and the architectural checkpoint there — captureAt
 * resumed from the previous index, so the pass scans the trace once.
 */
void
warmOncePass(const SimConfig &cfg, const Workload &workload,
             const std::shared_ptr<const FrozenTrace> &trace,
             const std::vector<std::uint64_t> &ckpt_indices,
             const std::function<void(std::size_t k, const Core &core,
                                      Checkpoint &arch)> &at)
{
    Workload wc = workload;
    wc.frozen = trace;
    wc.start.reset();
    Core core(cfg, wc);

    const std::uint64_t len = trace->uops.size();
    Checkpoint arch = captureAt(*trace, workload.name, 0);
    for (std::size_t k = 0; k < ckpt_indices.size(); ++k) {
        const std::uint64_t idx = std::min(ckpt_indices[k], len);
        fatal_if(idx < arch.uopIndex,
                 "warm-once pass: indices must be non-decreasing "
                 "(%llu after %llu)",
                 (unsigned long long)idx,
                 (unsigned long long)arch.uopIndex);
        core.functionalWarm(*trace, arch.uopIndex, idx);
        arch = captureAt(*trace, workload.name, idx, arch);
        Checkpoint ckpt = arch;
        at(k, core, ckpt);
    }
}

} // namespace

std::vector<std::shared_ptr<const Checkpoint>>
warmOnceCheckpoints(const SimConfig &cfg, const Workload &workload,
                    const std::shared_ptr<const FrozenTrace> &trace,
                    const std::vector<std::uint64_t> &ckpt_indices)
{
    std::vector<std::shared_ptr<const Checkpoint>> out;
    out.reserve(ckpt_indices.size());
    warmOncePass(cfg, workload, trace, ckpt_indices,
                 [&](std::size_t, const Core &core, Checkpoint &ckpt) {
        core.captureWarmState(ckpt);
        out.push_back(std::make_shared<const Checkpoint>(std::move(ckpt)));
    });
    return out;
}

PlanResult
runSampledPlan(const ExperimentPlan &plan, const SampleSpec &spec,
               const SweepOptions &options)
{
    fatal_if(!spec.enabled(), "runSampledPlan: spec is disabled");

    // Bounded warming is per-interval by construction (each interval
    // warms at most B µ-ops of its own prefix), so the warm-once
    // checkpoints apply to the continuous (B=0) mode only;
    // options.sampleRewarm forces the legacy path there for
    // differential validation.
    const bool warmOnce = spec.warmBound == 0 && !options.sampleRewarm;

    SweepExecutor ex(plan, options, spec);
    const std::vector<std::vector<std::uint64_t>> starts =
        placeCellIntervals(ex);
    struct Cell
    {
        std::vector<IntervalResult> intervals;  //!< pre-assigned slots
        /** Warm-once per-interval checkpoints (phase-1 slots; each
         *  consumed and released by its interval job). */
        std::vector<std::shared_ptr<const Checkpoint>> ckpts;
    };
    std::vector<Cell> cells(starts.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        cells[i].intervals.resize(starts[i].size());
        cells[i].ckpts.resize(starts[i].size());
    }

    // A cached cell loads its reduced stats and expands into no warming
    // or interval jobs at all — the sample spec is part of the key, so
    // sampled and full results never alias.
    ex.loadCellStats();

    const std::uint64_t inflight = maxInflightUops(plan);
    ex.run(placedTraceUops(ex, starts),
           {// Phase 1 (warm-once mode): one continuous warming pass per
            // cell, dropping a µarch-bearing v2 checkpoint at each
            // interval's detailed-warmup start.
            {"warm", false,
             [&](std::size_t i) {
                 return std::size_t{warmOnce && !starts[i].empty()};
             },
             [&](SweepJob &job) {
                 Cell &cell = cells[job.cell];
                 const std::vector<std::uint64_t> &placed = starts[job.cell];
                 // A private recording reaches the furthest interval
                 // start (consistent with the cached clamps because
                 // every start <= the request).
                 const auto trace = ex.trace(job.workload, placed.back());
                 const std::uint64_t len = trace->uops.size();
                 const std::vector<std::uint64_t> idxs =
                     warmCheckpointIndices(placed, len, spec);
                 std::uint64_t prev = 0;
                 for (std::size_t k = 0; k < placed.size(); ++k) {
                     IntervalResult &iv = cell.intervals[k];
                     iv.start = std::min<std::uint64_t>(placed[k], len);
                     iv.warmedUops = idxs[k] - std::min(prev, idxs[k]);
                     prev = idxs[k];
                 }
                 cell.ckpts = warmOnceCheckpoints(ex.config(job.cell),
                                                  job.workload, trace, idxs);
                 job.stats.add("sample_ckpts",
                               static_cast<double>(cell.ckpts.size()));
             }},
            // Phase 2: the measurement intervals. Warm-once jobs restore
            // the phase-1 checkpoint; the legacy path functionally
            // re-warms its own prefix (bounded by B when set).
            {"interval", true,
             [&](std::size_t i) { return starts[i].size(); },
             [&](SweepJob &job) {
                 Cell &cell = cells[job.cell];
                 IntervalResult &iv = cell.intervals[job.index];
                 const std::uint64_t start = starts[job.cell][job.index];
                 // A private recording (checkpointed starts need a
                 // frozen trace) reaches this interval's own fetch
                 // horizon only.
                 const auto trace = ex.trace(
                     job.workload, start + spec.intervalUops + inflight);

                 std::shared_ptr<const Checkpoint> ckpt;
                 if (warmOnce) {
                     // The phase-1 checkpoint is the start point; its
                     // µ-op index already reflects the trace-length
                     // clamps.
                     ckpt = std::move(cell.ckpts[job.index]);
                 } else {
                     iv.start = std::min<std::uint64_t>(
                         start, trace->uops.size());
                     ckpt = std::make_shared<Checkpoint>(captureAt(
                         *trace, ex.result.cells[job.cell].workload,
                         iv.start >= spec.detailUops
                             ? iv.start - spec.detailUops
                             : 0));
                 }
                 const std::uint64_t ckptIdx = ckpt->uopIndex;
                 const std::uint64_t detail = iv.start - ckptIdx;
                 job.workload.frozen = trace;
                 job.workload.start = ckpt;

                 iv.restored = warmOnce;
                 Core core(ex.config(job.cell), job.workload);
                 if (warmOnce) {
                     core.restoreWarmState(*ckpt);
                 } else {
                     // Bounded warming (spec.warmBound != 0) caps the
                     // functionally-warmed window before each interval;
                     // 0 keeps classic SMARTS continuous warming over
                     // the whole prefix.
                     const std::uint64_t warmBegin =
                         spec.warmBound && ckptIdx > spec.warmBound
                             ? ckptIdx - spec.warmBound
                             : 0;
                     iv.warmedUops = ckptIdx - warmBegin;
                     core.functionalWarm(*trace, warmBegin, ckptIdx);
                 }
                 if (detail)
                     core.run(detail, detail * 60 + 1000000);
                 core.resetTiming();
                 iv.committed = core.run(spec.intervalUops,
                                         spec.intervalUops * 60 + 1000000);
                 iv.cycles = core.pipelineState().cycles;

                 job.stats.add("interval_start",
                               static_cast<double>(iv.start));
                 job.stats.add("ipc",
                               ratio(static_cast<double>(iv.committed),
                                     static_cast<double>(iv.cycles)));
             }}});

    // Reduce each cell in slot order (deterministic float order).
    // Cached cells carry their reduced stats already (store pre-pass)
    // and must not be re-reduced from their empty interval slots.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (ex.cached(i))
            continue;
        RunResult &rr = ex.result.cells[i];
        std::vector<double> ipcs;
        std::uint64_t cycles = 0, committed = 0, warmed = 0;
        std::uint64_t restored = 0;
        for (const IntervalResult &iv : cells[i].intervals) {
            warmed += iv.warmedUops;
            if (iv.restored)
                ++restored;
            if (iv.committed == 0 || iv.cycles == 0)
                continue;  // interval past the end of a short workload
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
        rr.stats.add("sample_intervals",
                     static_cast<double>(ipcs.size()));
        rr.stats.add("sample_interval_uops",
                     static_cast<double>(spec.intervalUops));
        rr.stats.add("sample_detail_uops",
                     static_cast<double>(spec.detailUops));
        rr.stats.add("sample_warm_uops", static_cast<double>(warmed));
        rr.stats.add("sample_restored_intervals",
                     static_cast<double>(restored));
    }
    ex.saveCellStats();
    return std::move(ex.result);
}

CheckpointFiles
saveCheckpoints(const ExperimentPlan &plan, const SampleSpec &spec,
                const SweepOptions &options, const std::string &out_dir)
{
    fatal_if(!spec.enabled(), "saveCheckpoints: spec is disabled");
    CheckpointFiles out;
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
        out.error = csprintf("cannot create %s: %s", out_dir.c_str(),
                             ec.message().c_str());
        return out;
    }

    // runSampledPlan's placement, so the files are exactly the
    // checkpoints a sampled run of this plan restores from.
    SweepExecutor ex(plan, options, spec);
    const std::vector<std::vector<std::uint64_t>> starts =
        placeCellIntervals(ex);
    /** One interval's checkpoint: its clamped µ-op index (the file
     *  name), the file written, and the text the store keeps. */
    struct Slot
    {
        std::uint64_t uop = 0;
        std::string file;
        std::string text;
    };
    std::vector<std::vector<Slot>> slots;
    for (const std::vector<std::uint64_t> &s : starts)
        slots.emplace_back(s.size());

    // The one file writer, for computed and store-served cells alike.
    // Intervals clamped to the end of a short workload repeat the final
    // µ-op index with identical state; one file covers them all.
    std::atomic<bool> failed{false};
    const auto write = [&](std::size_t i, std::size_t k,
                           const std::string &text) {
        Slot &slot = slots[i][k];
        if (k > 0 && slot.uop == slots[i][k - 1].uop)
            return true;
        const RunResult &cell = ex.result.cells[i];
        const std::string file = out_dir + "/" + sanitizeForPath(cell.config)
            + "__" + sanitizeForPath(cell.workload) + "__u"
            + std::to_string(slot.uop) + ".ckpt";
        std::ofstream os(file, std::ios::binary);
        os << text;
        // Close before judging success: buffered bytes only hit disk
        // here, and ENOSPC at close must not report the file written.
        os.close();
        if (os.fail()) {
            failed = true;
            return false;
        }
        slot.file = file;
        return true;
    };

    // Store keys carry the UNCLAMPED checkpoint index: a pure function
    // of the placement (the trace length is unknown before recording),
    // strictly increasing, so every interval gets its own key even when
    // clamping collapses the tails onto identical state.
    ex.loadFromStore(
        [&](std::size_t i) {
            std::vector<StoreKey> keys;
            for (const std::uint64_t idx :
                 warmCheckpointIndices(starts[i], ~0ULL, spec)) {
                keys.push_back(ex.storeKey(i, "ckpt"));
                keys.back().index = idx;
            }
            return keys;
        },
        [&](std::size_t i, std::size_t k, std::string &payload) {
            // The payload IS the file; parse it only for the clamped
            // µ-op index the file is named by.
            Checkpoint ckpt;
            std::string err;
            std::istringstream is(payload);
            if (tryDeserializeCheckpoint(is, &ckpt, &err)) {
                slots[i][k].uop = ckpt.uopIndex;
                write(i, k, payload);
            }
            return err;
        });

    // Each checkpoint is rendered straight from the warming core and
    // written as it is captured: the files and store objects are the
    // only form it takes, so no by-value copy is ever made.
    ex.run(placedTraceUops(ex, starts),
           {{"warm", false,
             [&](std::size_t i) { return std::size_t{!starts[i].empty()}; },
             [&](SweepJob &job) {
                 const std::size_t i = job.cell;
                 const auto trace = ex.trace(job.workload, starts[i].back());
                 warmOncePass(
                     ex.config(i), job.workload, trace,
                     warmCheckpointIndices(starts[i], trace->uops.size(),
                                           spec),
                     [&](std::size_t k, const Core &core, Checkpoint &ckpt) {
                         core.captureWarmText(ckpt);
                         slots[i][k].uop = ckpt.uopIndex;
                         std::string text = checkpointString(ckpt);
                         job.ok = write(i, k, text) && job.ok;
                         if (options.store)
                             slots[i][k].text = std::move(text);
                     });
             }}});
    ex.saveToStore([&](std::size_t i, std::size_t k) {
        return std::move(slots[i][k].text);
    });

    out.cells = slots.size();
    for (const std::vector<Slot> &cell : slots) {
        for (const Slot &slot : cell) {
            if (!slot.file.empty())
                out.files.push_back(slot.file);
        }
    }
    out.storeHits = ex.result.storeHits;
    out.storeComputed = ex.result.storeComputed;
    if (failed)
        out.error = "write failure under " + out_dir;
    return out;
}

} // namespace eole

#include "sim/bench.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/build_info.hh"
#include "common/logging.hh"
#include "common/profiler.hh"
#include "pipeline/core.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "sim/json.hh"
#include "sim/plan.hh"
#include "sim/plans.hh"
#include "workloads/workload.hh"

namespace eole {

const std::vector<std::string> &
defaultBenchWorkloads()
{
    // One easy-INT, one branchy-INT, one FP workload: the smallest set
    // that still exercises the branch unit, the value predictor and the
    // FP latency classes — and at ~1M µops/sec baseline speed, small
    // enough that the default grid (4 fig12 configs x 3 workloads x
    // 3 reps) finishes in about a minute.
    static const std::vector<std::string> names = {
        "164.gzip", "186.crafty", "173.applu"};
    return names;
}

double
BenchResult::geomeanUopsPerSec() const
{
    std::vector<double> rates;
    rates.reserve(cells.size());
    for (const BenchCell &c : cells)
        rates.push_back(c.uopsPerSec);
    return cells.empty() ? 0.0 : geomean(rates);
}

const BenchCell *
BenchResult::find(const std::string &config,
                  const std::string &workload) const
{
    for (const BenchCell &c : cells) {
        if (c.config == config && c.workload == workload)
            return &c;
    }
    return nullptr;
}

BenchResult
runBench(const BenchOptions &options)
{
    fatal_if(options.budget == 0, "bench: budget must be > 0");
    fatal_if(options.reps < 1, "bench: reps must be >= 1");

    std::vector<SimConfig> cfgs;
    if (options.configs.empty()) {
        cfgs = plans::get("fig12").configs;
    } else {
        for (const std::string &name : options.configs) {
            SimConfig c;
            fatal_if(!configs::findNamed(name, &c),
                     "bench: unknown config \"%s\"", name.c_str());
            cfgs.push_back(c);
        }
    }
    const std::vector<std::string> &wls = options.workloads.empty()
        ? defaultBenchWorkloads()
        : options.workloads;

    BenchResult out;
    out.label = options.label;
    out.budget = options.budget;
    out.warmup = options.warmup;
    out.reps = options.reps;
    out.cells.resize(cfgs.size() * wls.size());

    // Trace sizing: same discipline as the sweep engine — both run()
    // calls' committed targets plus the in-flight window.
    ExperimentPlan sizing;
    sizing.configs = cfgs;
    const std::uint64_t traceUopsNeeded =
        options.warmup + options.budget + maxInflightUops(sizing);
    const std::uint64_t maxCycles =
        (options.warmup + options.budget) * 60 + 1000000;

    // Execution is workload-major (freeze each trace once), result
    // slots config-major (the artifact order) — as in runPlan, except
    // strictly serial: concurrent cells would contend for cores and
    // corrupt each other's timings.
    const bool prevProf = prof::enabled();
    if (options.profile)
        prof::setEnabled(true);
    std::size_t done = 0;
    for (std::size_t w = 0; w < wls.size(); ++w) {
        Workload wl = workloads::build(wls[w]);
        wl.frozen = wl.freeze(traceUopsNeeded);
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            SimConfig cfg = cfgs[c];
            BenchCell &cell = out.cells[c * wls.size() + w];
            cell.config = cfg.name;
            cell.workload = wls[w];
            // The default-seed fig12 cell seed: a bench cell simulates
            // exactly what `eole run` would for the same identity.
            cfg.seed = jobSeed(1, cfg.seed, cfg.name, cell.workload);

            double best = std::numeric_limits<double>::infinity();
            for (int rep = 0; rep < options.reps; ++rep) {
                Core core(cfg, wl);
                core.run(options.warmup, maxCycles);
                core.resetStats();
                if (options.profile)
                    prof::reset();  // attribute the measured region only
                const auto t0 = std::chrono::steady_clock::now();
                const std::uint64_t committed =
                    core.run(options.budget, maxCycles);
                const auto t1 = std::chrono::steady_clock::now();
                const double secs =
                    std::chrono::duration<double>(t1 - t0).count();
                best = std::min(best, secs);
                if (options.profile) {
                    cell.profile.clear();
                    cell.profileSeconds = secs;
                    for (int s = 0; s < prof::NumSections; ++s) {
                        const auto sec = static_cast<prof::Section>(s);
                        const std::uint64_t ns = prof::sectionNanos(sec);
                        if (ns) {
                            cell.profile.emplace_back(
                                prof::sectionName(sec), ns * 1e-9);
                        }
                    }
                }
                if (rep == 0) {
                    cell.uops = committed;
                    cell.ipc = core.record().get("ipc");
                } else {
                    // Reps rerun one deterministic computation; a
                    // drifting commit count means the simulator leaked
                    // state between reps and every timing is suspect.
                    panic_if(committed != cell.uops,
                             "bench: rep %d of %s/%s committed %llu "
                             "µops, rep 0 committed %llu", rep,
                             cell.config.c_str(), cell.workload.c_str(),
                             (unsigned long long)committed,
                             (unsigned long long)cell.uops);
                }
            }
            cell.secondsMin = best;
            cell.uopsPerSec = best > 0.0 ? cell.uops / best : 0.0;

            ++done;
            if (!options.quiet) {
                inform("[%zu/%zu] %s/%s %.0f µops/s (ipc %.3f)",
                       done, out.cells.size(), cell.config.c_str(),
                       cell.workload.c_str(), cell.uopsPerSec,
                       cell.ipc);
            }
        }
        wl.frozen.reset();
    }
    prof::setEnabled(prevProf);
    return out;
}

void
writeBenchJson(std::ostream &os, const BenchResult &result)
{
    os << "{\n";
    os << "  \"schema\": \"eole-bench-v1\",\n";
    os << "  \"build\": ";
    jsonWriteEscaped(os, buildInfoString());
    os << ",\n";
    os << "  \"label\": ";
    jsonWriteEscaped(os, result.label);
    os << ",\n";
    os << "  \"budget\": " << result.budget << ",\n";
    os << "  \"warmup\": " << result.warmup << ",\n";
    os << "  \"reps\": " << result.reps << ",\n";
    os << "  \"cells\": [";
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const BenchCell &cell = result.cells[i];
        os << (i ? ",\n" : "\n");
        os << "    {\"config\": ";
        jsonWriteEscaped(os, cell.config);
        os << ", \"workload\": ";
        jsonWriteEscaped(os, cell.workload);
        os << ", \"uops\": " << cell.uops;
        os << ", \"seconds_min\": " << jsonNumberText(cell.secondsMin);
        os << ", \"uops_per_sec\": " << jsonNumberText(cell.uopsPerSec);
        os << ", \"ipc\": " << jsonNumberText(cell.ipc);
        if (!cell.profile.empty()) {
            os << ", \"profile_seconds\": "
               << jsonNumberText(cell.profileSeconds);
            os << ", \"profile\": {";
            for (std::size_t s = 0; s < cell.profile.size(); ++s) {
                os << (s ? ", " : "");
                jsonWriteEscaped(os, cell.profile[s].first);
                os << ": " << jsonNumberText(cell.profile[s].second);
            }
            os << "}";
        }
        os << "}";
    }
    os << (result.cells.empty() ? "]" : "\n  ]") << ",\n";
    os << "  \"geomean_uops_per_sec\": "
       << jsonNumberText(result.geomeanUopsPerSec()) << "\n";
    os << "}\n";
}

std::string
benchJsonString(const BenchResult &result)
{
    std::ostringstream oss;
    writeBenchJson(oss, result);
    return oss.str();
}

void
writeBenchProfileTable(std::ostream &os, const BenchResult &result)
{
    for (const BenchCell &cell : result.cells) {
        if (cell.profile.empty())
            continue;
        os << csprintf("\n%s/%s: %.3f s measured\n", cell.config.c_str(),
                       cell.workload.c_str(), cell.profileSeconds);
        // model.* sections run inside a stage's scoped timer, so only
        // stage.* and warm.* count toward attributed coverage.
        double covered = 0.0;
        for (const auto &[name, secs] : cell.profile) {
            const bool top = name.rfind("stage.", 0) == 0
                || name.rfind("warm.", 0) == 0;
            const double pct = cell.profileSeconds > 0.0
                ? 100.0 * secs / cell.profileSeconds
                : 0.0;
            os << csprintf("  %-16s %9.3f s %6.1f%%%s\n", name.c_str(),
                           secs, pct, top ? "" : "  (within stage)");
            if (top)
                covered += secs;
        }
        const double pct = cell.profileSeconds > 0.0
            ? 100.0 * covered / cell.profileSeconds
            : 0.0;
        os << csprintf("  %-16s %9.3f s %6.1f%%\n", "attributed",
                       covered, pct);
    }
}

namespace {

/** Parse a bench file from @p is into @p out: "" on success, else the
 *  first error. */
std::string
parseBench(std::istream &is, BenchResult *out)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    BenchResult result;
    std::string schema;
    JsonParser p(text, "bench file");
    p.expect('{');
    do {
        const std::string key = p.parseString();
        p.expect(':');
        if (key == "schema") {
            schema = p.parseString();
        } else if (key == "label") {
            result.label = p.parseString();
        } else if (key == "budget") {
            result.budget = p.parseU64();
        } else if (key == "warmup") {
            result.warmup = p.parseU64();
        } else if (key == "reps") {
            result.reps = static_cast<int>(p.parseU64());
        } else if (key == "cells") {
            p.expect('[');
            if (!p.tryConsume(']')) {
                do {
                    BenchCell cell;
                    p.expect('{');
                    do {
                        const std::string ck = p.parseString();
                        p.expect(':');
                        if (ck == "config")
                            cell.config = p.parseString();
                        else if (ck == "workload")
                            cell.workload = p.parseString();
                        else if (ck == "uops")
                            cell.uops = p.parseU64();
                        else if (ck == "seconds_min")
                            cell.secondsMin = p.parseNumber();
                        else if (ck == "uops_per_sec")
                            cell.uopsPerSec = p.parseNumber();
                        else if (ck == "ipc")
                            cell.ipc = p.parseNumber();
                        else if (ck == "profile_seconds")
                            cell.profileSeconds = p.parseNumber();
                        else if (ck == "profile") {
                            p.expect('{');
                            if (!p.tryConsume('}')) {
                                do {
                                    const std::string name =
                                        p.parseString();
                                    p.expect(':');
                                    cell.profile.emplace_back(
                                        name, p.parseNumber());
                                } while (p.tryConsume(','));
                                p.expect('}');
                            }
                        } else
                            p.skipValue();
                    } while (p.tryConsume(','));
                    p.expect('}');
                    result.cells.push_back(std::move(cell));
                } while (p.tryConsume(','));
                p.expect(']');
            }
        } else {
            // geomean_uops_per_sec is derived; recomputed from cells.
            p.skipValue();
        }
    } while (p.tryConsume(','));
    p.expect('}');
    p.finish();
    if (!p.error().empty())
        return p.error();
    if (schema != "eole-bench-v1")
        return "unsupported bench schema \"" + schema + "\"";
    *out = std::move(result);
    return "";
}

} // namespace

BenchResult
readBenchJson(std::istream &is)
{
    BenchResult result;
    const std::string err = parseBench(is, &result);
    fatal_if(!err.empty(), "%s", err.c_str());
    return result;
}

bool
readBenchJsonFile(const std::string &path, BenchResult *out,
                  std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        *err = "cannot read bench file " + path;
        return false;
    }
    *err = parseBench(is, out);
    if (err->empty())
        return true;
    *err = path + ": " + *err;
    return false;
}

double
compareBench(const BenchResult &a, const BenchResult &b,
             std::ostream &os)
{
    if (a.budget != b.budget || a.warmup != b.warmup) {
        os << "note: budgets differ (a: " << a.warmup << "+" << a.budget
           << ", b: " << b.warmup << "+" << b.budget
           << " µ-ops); rates are still per-µop but the cells timed "
              "different work\n";
    }
    os << csprintf("%-26s %-14s %14s %14s %9s\n", "config", "workload",
                   "a µops/s", "b µops/s", "speedup");
    std::vector<double> ratios;
    for (const BenchCell &ca : a.cells) {
        const BenchCell *cb = b.find(ca.config, ca.workload);
        if (!cb) {
            os << csprintf("%-26s %-14s %14.0f %14s %9s\n",
                           ca.config.c_str(), ca.workload.c_str(),
                           ca.uopsPerSec, "-", "only-a");
            continue;
        }
        const double ratio = ca.uopsPerSec > 0.0
            ? cb->uopsPerSec / ca.uopsPerSec
            : 0.0;
        ratios.push_back(ratio);
        os << csprintf("%-26s %-14s %14.0f %14.0f %8.2fx\n",
                       ca.config.c_str(), ca.workload.c_str(),
                       ca.uopsPerSec, cb->uopsPerSec, ratio);
    }
    for (const BenchCell &cb : b.cells) {
        if (!a.find(cb.config, cb.workload)) {
            os << csprintf("%-26s %-14s %14s %14.0f %9s\n",
                           cb.config.c_str(), cb.workload.c_str(), "-",
                           cb.uopsPerSec, "only-b");
        }
    }
    const double g = ratios.empty() ? 0.0 : geomean(ratios);
    os << csprintf("geomean speedup (%zu common cell(s)): %.2fx\n",
                   ratios.size(), g);
    return g;
}

} // namespace eole

#include "sim/telemetry.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>

#include "common/build_info.hh"
#include "common/logging.hh"
#include "sim/json.hh"

namespace eole {

namespace {

std::string
hostName()
{
    char buf[256] = {};
    if (gethostname(buf, sizeof(buf) - 1) != 0)
        return "unknown";
    return buf;
}

std::string
jstr(const std::string &s)
{
    std::ostringstream os;
    jsonWriteEscaped(os, s);
    return os.str();
}

std::string
jms(double ms)
{
    return csprintf("%.3f", ms);
}

} // namespace

TelemetrySink::TelemetrySink(const std::string &path)
    : os(path), start(std::chrono::steady_clock::now())
{
    fatal_if(!os, "cannot open telemetry file %s", path.c_str());
}

double
TelemetrySink::elapsedMs() const
{
    const auto d = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(d).count();
}

void
TelemetrySink::emit(const std::string &body)
{
    std::lock_guard<std::mutex> lock(mu);
    os << "{\"ev\":" << body << "}\n";
    os.flush();
}

void
TelemetrySink::runStart(const std::string &command, const std::string &plan,
                        std::uint64_t seed, std::uint64_t warmup,
                        std::uint64_t measure, const std::string &filter,
                        const std::string &sample, int jobs,
                        std::size_t cells, int shard_host, int shard_hosts)
{
    std::ostringstream b;
    b << "\"run_start\",\"t_ms\":" << jms(elapsedMs())
      << ",\"command\":" << jstr(command) << ",\"plan\":" << jstr(plan)
      << ",\"seed\":" << seed << ",\"warmup\":" << warmup
      << ",\"measure\":" << measure << ",\"filter\":" << jstr(filter)
      << ",\"sample\":" << jstr(sample) << ",\"jobs\":" << jobs
      << ",\"cells\":" << cells;
    if (shard_hosts > 0)
        b << ",\"shard_host\":" << shard_host
          << ",\"shard_hosts\":" << shard_hosts;
    b << ",\"host\":" << jstr(hostName())
      << ",\"build\":" << jstr(buildInfoString());
    emit(b.str());
}

void
TelemetrySink::cellQueued(const std::string &config,
                          const std::string &workload)
{
    std::ostringstream b;
    b << "\"cell_queued\",\"t_ms\":" << jms(elapsedMs())
      << ",\"config\":" << jstr(config)
      << ",\"workload\":" << jstr(workload);
    emit(b.str());
}

void
TelemetrySink::jobStart(const char *kind, const std::string &config,
                        const std::string &workload, int worker,
                        long interval)
{
    std::ostringstream b;
    b << "\"job_start\",\"t_ms\":" << jms(elapsedMs())
      << ",\"kind\":" << jstr(kind) << ",\"config\":" << jstr(config)
      << ",\"workload\":" << jstr(workload) << ",\"worker\":" << worker;
    if (interval >= 0)
        b << ",\"interval\":" << interval;
    emit(b.str());
}

void
TelemetrySink::jobFinish(const char *kind, const std::string &config,
                         const std::string &workload, int worker,
                         double wall_ms, bool ok, long interval)
{
    std::ostringstream b;
    b << "\"job_finish\",\"t_ms\":" << jms(elapsedMs())
      << ",\"kind\":" << jstr(kind) << ",\"config\":" << jstr(config)
      << ",\"workload\":" << jstr(workload) << ",\"worker\":" << worker
      << ",\"wall_ms\":" << jms(wall_ms)
      << ",\"ok\":" << (ok ? "true" : "false");
    if (interval >= 0)
        b << ",\"interval\":" << interval;
    emit(b.str());
}

void
TelemetrySink::storeCounts(std::size_t hits, std::size_t computed)
{
    std::ostringstream b;
    b << "\"store\",\"t_ms\":" << jms(elapsedMs()) << ",\"hits\":" << hits
      << ",\"computed\":" << computed;
    emit(b.str());
}

void
TelemetrySink::traceCacheCounts(std::uint64_t hits, std::uint64_t misses,
                                std::uint64_t file_hits,
                                std::uint64_t file_misses,
                                std::uint64_t evicts, double record_ms)
{
    std::ostringstream b;
    b << "\"trace_cache\",\"t_ms\":" << jms(elapsedMs())
      << ",\"hits\":" << hits << ",\"misses\":" << misses
      << ",\"file_hits\":" << file_hits
      << ",\"file_misses\":" << file_misses
      << ",\"evicts\":" << evicts << ",\"record_ms\":" << jms(record_ms);
    emit(b.str());
}

void
TelemetrySink::runFinish(std::size_t cells)
{
    std::ostringstream b;
    b << "\"run_finish\",\"t_ms\":" << jms(elapsedMs())
      << ",\"cells\":" << cells;
    emit(b.str());
}

void
TelemetrySink::runAborted(const std::string &reason)
{
    std::ostringstream b;
    b << "\"run_aborted\",\"t_ms\":" << jms(elapsedMs())
      << ",\"reason\":" << jstr(reason);
    emit(b.str());
}

// --- Reader ----------------------------------------------------------------

double
TelemetryEvent::num(const std::string &key, double fallback) const
{
    const auto it = nums.find(key);
    return it == nums.end() ? fallback : it->second;
}

std::string
TelemetryEvent::str(const std::string &key) const
{
    const auto it = strs.find(key);
    return it == strs.end() ? std::string() : it->second;
}

namespace {

/** One flat JSONL line: {"k":v,...} with string/number/bool values
 *  (bools land in nums as 0/1). The writer above only emits this
 *  shape; anything else is a malformed stream worth stopping on. */
TelemetryEvent
parseLine(const std::string &line, std::size_t lineno)
{
    TelemetryEvent ev;
    std::size_t pos = 0;
    const auto skipWs = [&] {
        while (pos < line.size()
               && std::isspace(static_cast<unsigned char>(line[pos])))
            ++pos;
    };
    const auto expect = [&](char c) {
        skipWs();
        fatal_if(pos >= line.size() || line[pos] != c,
                 "telemetry line %zu: expected '%c' at offset %zu", lineno,
                 c, pos);
        ++pos;
    };
    const auto parseStr = [&] {
        expect('"');
        std::string out;
        while (pos < line.size() && line[pos] != '"') {
            char c = line[pos++];
            if (c == '\\') {
                fatal_if(pos >= line.size(),
                         "telemetry line %zu: truncated escape", lineno);
                const char e = line[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  default:
                    fatal("telemetry line %zu: unsupported escape \\%c",
                          lineno, e);
                }
            } else {
                out += c;
            }
        }
        expect('"');
        return out;
    };

    expect('{');
    while (true) {
        const std::string key = parseStr();
        expect(':');
        skipWs();
        fatal_if(pos >= line.size(), "telemetry line %zu: truncated",
                 lineno);
        const char c = line[pos];
        if (c == '"') {
            const std::string v = parseStr();
            if (key == "ev")
                ev.ev = v;
            else
                ev.strs[key] = v;
        } else if (c == 't' || c == 'f') {
            const bool v = c == 't';
            while (pos < line.size()
                   && std::isalpha(static_cast<unsigned char>(line[pos])))
                ++pos;
            ev.nums[key] = v ? 1 : 0;
        } else {
            char *end = nullptr;
            const double v = std::strtod(line.c_str() + pos, &end);
            fatal_if(end == line.c_str() + pos,
                     "telemetry line %zu: expected value for \"%s\"",
                     lineno, key.c_str());
            pos = static_cast<std::size_t>(end - line.c_str());
            ev.nums[key] = v;
        }
        skipWs();
        if (pos < line.size() && line[pos] == ',') {
            ++pos;
            continue;
        }
        break;
    }
    expect('}');
    fatal_if(ev.ev.empty(), "telemetry line %zu: missing \"ev\" tag",
             lineno);
    return ev;
}

} // namespace

std::vector<TelemetryEvent>
readTelemetry(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open telemetry file %s", path.c_str());
    std::vector<TelemetryEvent> out;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        out.push_back(parseLine(line, lineno));
    }
    return out;
}

void
summarizeTelemetry(const std::vector<std::string> &paths, std::ostream &out)
{
    struct WorkerAgg { std::size_t jobs = 0; double busyMs = 0; };
    // Workers are per-stream (shards on different hosts both have a
    // worker 0), so key them by (file, worker).
    std::map<std::pair<std::size_t, int>, WorkerAgg> workers;
    std::set<std::string> cells;
    std::size_t jobsTotal = 0, jobsOk = 0;
    std::uint64_t storeHits = 0, storeComputed = 0;
    std::uint64_t cacheHits = 0, cacheMisses = 0;
    double recordMs = 0;
    bool sawStore = false, sawCache = false, sawRecord = false;
    struct KindAgg { std::size_t jobs = 0; double totalMs = 0, maxMs = 0; };
    std::map<std::string, KindAgg> kinds;
    std::size_t aborted = 0, finished = 0;
    double spanMs = 0;
    // The sink opens before the plan loads and traces bind, so each
    // stream's run_start t_ms is the time spent before the run began.
    double preStartMs = 0;
    bool sawStart = false;
    std::string slowestCell, slowestKind;
    double slowestMs = -1;
    // A cell's jobs of one kind may run in parallel, its kinds run in
    // sequence: its critical path is the sum over kinds of the longest
    // job of that kind. Keyed by (stream, cell) like the workers.
    std::map<std::pair<std::size_t, std::string>,
             std::map<std::string, double>> longestByKind;

    for (std::size_t f = 0; f < paths.size(); ++f) {
        double first = -1, last = 0;
        for (const TelemetryEvent &ev : readTelemetry(paths[f])) {
            const double t = ev.num("t_ms");
            if (first < 0)
                first = t;
            last = std::max(last, t);
            if (ev.ev == "cell_queued") {
                cells.insert(ev.str("config") + "/" + ev.str("workload"));
            } else if (ev.ev == "job_finish") {
                ++jobsTotal;
                if (ev.num("ok") != 0)
                    ++jobsOk;
                auto &w = workers[{f, static_cast<int>(ev.num("worker"))}];
                ++w.jobs;
                w.busyMs += ev.num("wall_ms");
                KindAgg &k = kinds[ev.str("kind")];
                ++k.jobs;
                k.totalMs += ev.num("wall_ms");
                k.maxMs = std::max(k.maxMs, ev.num("wall_ms"));
                const std::string cell =
                    ev.str("config") + "/" + ev.str("workload");
                double &longest = longestByKind[{f, cell}][ev.str("kind")];
                longest = std::max(longest, ev.num("wall_ms"));
                if (ev.num("wall_ms") > slowestMs) {
                    slowestMs = ev.num("wall_ms");
                    slowestCell = cell;
                    slowestKind = ev.str("kind");
                }
            } else if (ev.ev == "store") {
                sawStore = true;
                storeHits += static_cast<std::uint64_t>(ev.num("hits"));
                storeComputed +=
                    static_cast<std::uint64_t>(ev.num("computed"));
            } else if (ev.ev == "trace_cache") {
                sawCache = true;
                cacheHits += static_cast<std::uint64_t>(ev.num("hits"));
                cacheMisses +=
                    static_cast<std::uint64_t>(ev.num("misses"));
                if (ev.nums.count("record_ms") != 0) {
                    sawRecord = true;
                    recordMs += ev.num("record_ms");
                }
            } else if (ev.ev == "run_start") {
                sawStart = true;
                preStartMs += t;
            } else if (ev.ev == "run_aborted") {
                ++aborted;
            } else if (ev.ev == "run_finish") {
                ++finished;
            }
        }
        if (first >= 0)
            spanMs += last - first;
    }

    out << "telemetry summary: " << paths.size() << " stream"
        << (paths.size() == 1 ? "" : "s") << ", span " << csprintf("%.1f",
        spanMs) << " ms, " << finished << " finished, " << aborted
        << " aborted\n";
    if (sawStart)
        out << csprintf("  before run_start: %.1f ms", preStartMs) << "\n";
    out << "  jobs: " << jobsTotal << " (" << jobsOk << " ok)\n";
    for (const auto &[key, w] : workers) {
        const double util = spanMs > 0 ? 100.0 * w.busyMs / spanMs : 0;
        out << csprintf("  worker %zu.%d: %zu jobs, busy %.1f ms (%.1f%%)",
                        key.first, key.second, w.jobs, w.busyMs, util)
            << "\n";
    }
    for (const auto &[kind, k] : kinds) {
        out << csprintf("  kind %s: %zu jobs, total %.1f ms, max %.1f ms",
                        kind.c_str(), k.jobs, k.totalMs, k.maxMs)
            << "\n";
    }
    if (slowestMs >= 0) {
        std::string pathCell, pathKinds;
        double pathMs = -1;
        for (const auto &[key, kinds] : longestByKind) {
            double ms = 0;
            std::string parts;
            for (const auto &[kind, longest] : kinds) {
                ms += longest;
                parts += csprintf("%s%s %.1f", parts.empty() ? "" : " + ",
                                  kind.c_str(), longest);
            }
            if (ms > pathMs) {
                pathMs = ms;
                pathCell = key.second;
                pathKinds = parts;
            }
        }
        out << csprintf("  critical path: %s (%.1f ms: %s)",
                        pathCell.c_str(), pathMs, pathKinds.c_str())
            << "\n";
        out << csprintf("  slowest job: %s (%s, %.1f ms)",
                        slowestCell.c_str(), slowestKind.c_str(), slowestMs)
            << "\n";
    }
    if (sawStore)
        out << "  store: " << storeHits << " cached, " << storeComputed
            << " computed\n";
    if (sawCache) {
        out << "  trace cache: " << cacheHits << " hits, " << cacheMisses
            << " misses";
        // Streams written before record_ms existed carry no timing.
        if (sawRecord)
            out << csprintf(", %.1f ms recording", recordMs);
        out << "\n";
    }
    out << "  cells (" << cells.size() << "):\n";
    for (const std::string &cell : cells)
        out << "    " << cell << "\n";
}

} // namespace eole

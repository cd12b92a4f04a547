/**
 * @file
 * Structured sweep telemetry: a JSONL event stream beside the run.
 *
 * Long sweeps (sharded, sampled, checkpoint-saving) emit one JSON
 * object per line into the file given by `--telemetry FILE`: a
 * `run_start` manifest (plan, resolved run lengths, host, build
 * provenance), `cell_queued` for every cell the filter matched,
 * `job_start`/`job_finish` pairs with the executing worker index and
 * wall time, `store` / `trace_cache` hit-miss counters, and a terminal
 * `run_finish` — or `run_aborted` when the CLI bails out with exit 2,
 * so a consumer never sees a silently truncated stream.
 *
 * The stream is observability, not an artifact: timestamps and event
 * interleaving vary run to run, and nothing in the engine ever reads
 * it back to make decisions. Artifact byte-identity contracts are
 * unaffected by `--telemetry` (check.sh --obs pins this).
 *
 * Every write happens under one mutex and is flushed line-atomically,
 * so a crash mid-run leaves a prefix of whole lines. `eole telemetry
 * summarize FILE...` merges one or more streams (e.g. the three files
 * of a 3-shard sweep) into per-worker utilization, the critical-path
 * cell, and the distinct cell set.
 */

#ifndef EOLE_SIM_TELEMETRY_HH
#define EOLE_SIM_TELEMETRY_HH

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace eole {

class TelemetrySink
{
  public:
    /** Opens @p path for writing (fatal on failure). */
    explicit TelemetrySink(const std::string &path);

    /** Run manifest. @p command is the CLI verb ("run", "shard",
     *  "ckpt-save"); @p shard_host/@p shard_hosts are -1 when the run
     *  is not sharded. */
    void runStart(const std::string &command, const std::string &plan,
                  std::uint64_t seed, std::uint64_t warmup,
                  std::uint64_t measure, const std::string &filter,
                  const std::string &sample, int jobs, std::size_t cells,
                  int shard_host, int shard_hosts);

    /** A cell matched the filter and entered the run (also emitted for
     *  cells later satisfied from the result store). */
    void cellQueued(const std::string &config, const std::string &workload);

    /** @p kind is "cell", "warm" or "interval"; @p interval is the
     *  sampling interval index (-1 when not applicable). */
    void jobStart(const char *kind, const std::string &config,
                  const std::string &workload, int worker,
                  long interval = -1);
    void jobFinish(const char *kind, const std::string &config,
                   const std::string &workload, int worker, double wall_ms,
                   bool ok, long interval = -1);

    void storeCounts(std::size_t hits, std::size_t computed);
    /** Trace-cache outcome counters. hits/misses are totals across
     *  both source kinds; file_hits/file_misses break out mmap-backed
     *  `file:` workloads, evicts counts drops that released a trace
     *  and record_ms is the wall time spent recording on misses
     *  (Workload::freeze; a workload's first job pays it). */
    void traceCacheCounts(std::uint64_t hits, std::uint64_t misses,
                          std::uint64_t file_hits,
                          std::uint64_t file_misses, std::uint64_t evicts,
                          double record_ms);

    void runFinish(std::size_t cells);

    /** Terminal event for CLI early exits: the stream always ends with
     *  run_finish or run_aborted, never mid-sentence. */
    void runAborted(const std::string &reason);

    /** Milliseconds since the sink was opened (event timestamps). */
    double elapsedMs() const;

  private:
    void emit(const std::string &body);

    std::ofstream os;
    std::mutex mu;
    std::chrono::steady_clock::time_point start;
};

/** One parsed JSONL event: the "ev" tag plus flat key/value fields
 *  (strings and numbers kept apart; booleans land in nums as 0/1). */
struct TelemetryEvent
{
    std::string ev;
    std::map<std::string, std::string> strs;
    std::map<std::string, double> nums;

    double num(const std::string &key, double fallback = 0) const;
    std::string str(const std::string &key) const;
};

/** Parse a telemetry JSONL file (fatal on malformed lines). */
std::vector<TelemetryEvent> readTelemetry(const std::string &path);

/** Merge one or more streams into a human summary: the time before
 *  run_start (loading the plan and binding traces; each stream's
 *  run_start t_ms, summed), per-worker utilization, per job kind the
 *  count, total and longest wall time, the critical path (the cell
 *  whose longest job of each kind sums highest — a cell's kinds run
 *  in sequence, its jobs of one kind in parallel), the slowest single
 *  job, counters (the trace cache's with its recording time), and
 *  the sorted distinct cell set. */
void summarizeTelemetry(const std::vector<std::string> &paths,
                        std::ostream &out);

} // namespace eole

#endif // EOLE_SIM_TELEMETRY_HH

/**
 * @file
 * TraceCache: share functionally-executed workload traces across the
 * configurations of a sweep.
 *
 * The functional µ-op stream of a workload is configuration-independent,
 * so a (C configs x W workloads) grid only needs W functional
 * executions, not C x W. The cache records each workload once (under a
 * per-workload lock, so concurrent jobs needing the same workload block
 * on the single recording instead of duplicating it) and hands out
 * shared immutable FrozenTrace replays.
 *
 * Memory discipline: paper-grade traces are large (~70 B/µ-op), so the
 * sweep engine orders jobs workload-major, tracks how many jobs still
 * need each workload, and calls drop() when the last one finishes —
 * peak residency is bounded by the number of workloads in flight, not
 * the grid. A per-trace byte budget (EOLE_TRACE_CACHE_MB, default 4096)
 * turns caching off for traces that would not fit; jobs then fall back
 * to live-VM execution, which is bit-identical by construction.
 *
 * File-backed workloads (workloads::bindTraceFile) are different: their
 * µ-ops live in a read-only mmap of the trace file, so they cost no
 * resident heap (FrozenTrace::residentBytes() == 0) and are exempt from
 * the byte budget — the kernel pages them in and out as needed. get()
 * serves a clamped prefix view directly and the hit/miss counters
 * record them under the file-source column so telemetry can tell the
 * two populations apart.
 */

#ifndef EOLE_SIM_TRACE_CACHE_HH
#define EOLE_SIM_TRACE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "workloads/workload.hh"

namespace eole {

class TraceCache
{
  public:
    /**
     * Get (recording on first use) a frozen trace of @p workload
     * covering at least @p min_uops µ-ops, or null when the trace
     * would exceed the byte budget. Thread-safe; keyed by workload
     * name (unique in the registry).
     */
    std::shared_ptr<const FrozenTrace> get(const Workload &workload,
                                           std::uint64_t min_uops);

    /** Release a workload's trace (jobs already holding the
     *  shared_ptr keep it alive until they finish). */
    void drop(const std::string &workload_name);

    /** Per-trace byte budget (EOLE_TRACE_CACHE_MB, default 4096 MB). */
    static std::uint64_t byteBudget();

    /** get() calls that found an adequate recorded trace / had to
     *  record (or re-record) one. Over-budget fallbacks count as
     *  misses. Telemetry-only; never consulted by the engine. Totals
     *  span both source kinds; the file* accessors expose the
     *  mmap-backed (bindTraceFile) share and evictCount() the number
     *  of drop() calls that actually released a trace. */
    std::uint64_t hitCount() const { return hits.load() + fileHits.load(); }
    std::uint64_t missCount() const
    {
        return misses.load() + fileMisses.load();
    }
    std::uint64_t fileHitCount() const { return fileHits.load(); }
    std::uint64_t fileMissCount() const { return fileMisses.load(); }
    std::uint64_t evictCount() const { return evicts.load(); }

    /** Wall time spent recording on misses (Workload::freeze), summed
     *  over the jobs that recorded. Telemetry-only, like the counts. */
    double recordMs() const { return recordNs.load() / 1e6; }

  private:
    /** Workload::freeze, its wall time added to recordNs. */
    std::shared_ptr<const FrozenTrace> record(const Workload &workload,
                                              std::uint64_t min_uops);

    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> fileHits{0};
    std::atomic<std::uint64_t> fileMisses{0};
    std::atomic<std::uint64_t> evicts{0};
    std::atomic<std::uint64_t> recordNs{0};
    struct Entry
    {
        std::mutex mu;
        std::shared_ptr<const FrozenTrace> trace;
    };

    std::mutex mapMu;
    std::map<std::string, std::unique_ptr<Entry>> entries;
};

} // namespace eole

#endif // EOLE_SIM_TRACE_CACHE_HH

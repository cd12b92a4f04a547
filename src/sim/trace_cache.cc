#include "sim/trace_cache.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "common/env.hh"
#include "common/logging.hh"
#include "isa/trace.hh"

namespace eole {

std::uint64_t
TraceCache::byteBudget()
{
    // Saturate instead of wrapping: a budget past 2^44 MB is "all".
    const std::uint64_t mb = envU64("EOLE_TRACE_CACHE_MB", 4096);
    return std::min<std::uint64_t>(mb, ~0ULL >> 20) << 20;
}

std::shared_ptr<const FrozenTrace>
TraceCache::record(const Workload &workload, std::uint64_t min_uops)
{
    // The one place that chooses heap or file: a recording over the
    // budget (its records plus its static table, as bytes() counts
    // them) spills to the temp directory instead of the heap.
    std::string spillDir;
    const std::uint64_t bytes = min_uops * sizeof(UopRecord)
        + workload.program.size() * sizeof(StaticUop);
    if (!workload.fileBacked && bytes > byteBudget()) {
        std::error_code ec;
        spillDir = std::filesystem::temp_directory_path(ec).string();
        fatal_if(ec, "trace spill: no temporary directory: %s",
                 ec.message().c_str());
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto trace = workload.freeze(min_uops, spillDir);
    recordNs.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
    if (!spillDir.empty()) {
        inform("trace cache: %s spilled %zu µ-ops (%.1f MB, over the "
               "EOLE_TRACE_CACHE_MB budget) to %s", workload.name.c_str(),
               trace->uops.size(), trace->bytes() / 1048576.0,
               spillDir.c_str());
    }
    return trace;
}

std::shared_ptr<const FrozenTrace>
TraceCache::get(const Workload &workload, std::uint64_t min_uops)
{
    Entry *entry;
    {
        std::lock_guard<std::mutex> lock(mapMu);
        auto &slot = entries[workload.name];
        if (!slot)
            slot = std::make_unique<Entry>();
        entry = slot.get();
    }

    // A file-backed workload's first request is its "miss" (parity
    // with the generated path, where it pays the recording); clamping
    // its mapping to min_uops is a constant-time view.
    std::lock_guard<std::mutex> lock(entry->mu);
    if (!entry->trace
        || (!entry->trace->complete && entry->trace->uops.size() < min_uops)) {
        (workload.fileBacked ? fileMisses : misses)
            .fetch_add(1, std::memory_order_relaxed);
        entry->trace = record(workload, min_uops);
    } else {
        (workload.fileBacked ? fileHits : hits)
            .fetch_add(1, std::memory_order_relaxed);
    }
    return entry->trace;
}

void
TraceCache::drop(const std::string &workload_name)
{
    std::lock_guard<std::mutex> lock(mapMu);
    auto it = entries.find(workload_name);
    if (it != entries.end()) {
        // Entry mutex may be held by a late get(); only clear the
        // trace pointer under it.
        std::lock_guard<std::mutex> elock(it->second->mu);
        if (it->second->trace) {
            evicts.fetch_add(1, std::memory_order_relaxed);
            it->second->trace.reset();
        }
    }
}

} // namespace eole

#include "sim/trace_cache.hh"

#include <chrono>

#include "common/env.hh"
#include "isa/trace.hh"

namespace eole {

std::uint64_t
TraceCache::byteBudget()
{
    return envU64("EOLE_TRACE_CACHE_MB", 4096) * 1024 * 1024;
}

std::shared_ptr<const FrozenTrace>
TraceCache::record(const Workload &workload, std::uint64_t min_uops)
{
    const auto t0 = std::chrono::steady_clock::now();
    auto trace = workload.freeze(min_uops);
    recordNs.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
    return trace;
}

std::shared_ptr<const FrozenTrace>
TraceCache::get(const Workload &workload, std::uint64_t min_uops)
{
    if (workload.fileBacked) {
        // The µ-ops are already on disk, mmap'd read-only: no RAM
        // budget applies (resident cost ~ 0) and there is nothing to
        // record — clamping to min_uops is a constant-time view. The
        // first request for a workload is the "miss" (parity with the
        // generated path, where it pays the recording).
        Entry *entry;
        {
            std::lock_guard<std::mutex> lock(mapMu);
            auto &slot = entries[workload.name];
            if (!slot)
                slot = std::make_unique<Entry>();
            entry = slot.get();
        }
        std::lock_guard<std::mutex> lock(entry->mu);
        if (!entry->trace || (!entry->trace->complete
                              && entry->trace->uops.size() < min_uops)) {
            fileMisses.fetch_add(1, std::memory_order_relaxed);
            entry->trace = record(workload, min_uops);
        } else {
            fileHits.fetch_add(1, std::memory_order_relaxed);
        }
        return entry->trace;
    }

    if (min_uops * sizeof(TraceUop) > byteBudget()) {
        misses.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }

    Entry *entry;
    {
        std::lock_guard<std::mutex> lock(mapMu);
        auto &slot = entries[workload.name];
        if (!slot)
            slot = std::make_unique<Entry>();
        entry = slot.get();
    }

    std::lock_guard<std::mutex> lock(entry->mu);
    if (!entry->trace
        || (!entry->trace->complete && entry->trace->uops.size() < min_uops)) {
        misses.fetch_add(1, std::memory_order_relaxed);
        entry->trace = record(workload, min_uops);
    } else {
        hits.fetch_add(1, std::memory_order_relaxed);
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

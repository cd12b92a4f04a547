/**
 * @file
 * PC-indexed stride prefetcher (Table 1: L2 stride prefetcher,
 * degree 8, distance 1).
 *
 * On each observed demand access, the table entry for the accessing
 * instruction learns the address stride; once the same stride is seen
 * twice, the prefetcher issues `degree` line prefetches starting
 * `distance` strides ahead into the attached cache.
 */

#ifndef EOLE_MEM_PREFETCHER_HH
#define EOLE_MEM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/snapshot.hh"
#include "isa/warmable.hh"
#include "mem/cache.hh"

namespace eole {

/** Stride-prefetcher knobs. String-addressable as "mem.prefetch.*"
 *  via the parameter registry (sim/params.hh); new fields must be
 *  registered there. */
struct PrefetcherConfig
{
    int log2Entries = 8;
    int degree = 8;
    int distance = 1;
    std::uint32_t lineBytes = 64;
};

class StridePrefetcher
{
  public:
    explicit StridePrefetcher(const PrefetcherConfig &config = {})
        : cfg(config), table(1u << config.log2Entries)
    {
    }

    /** Attach the cache that receives prefetched lines. */
    void attach(Cache *c) { target = c; }

    /**
     * Observe a demand access by the instruction at @p pc.
     * Issues prefetches into the attached cache when confident.
     */
    void
    observe(Addr pc, Addr addr, Cycle now)
    {
        Entry &e = table[(pc >> 2) & ((1u << cfg.log2Entries) - 1)];
        if (e.tag != pc) {
            e.tag = pc;
            e.lastAddr = addr;
            e.stride = 0;
            e.confidence = 0;
            return;
        }
        // Strides and offsets are address arithmetic, modulo 2^64: a
        // stream that crosses 2^63 keeps its stride.
        const std::int64_t stride =
            static_cast<std::int64_t>(addr - e.lastAddr);
        e.lastAddr = addr;
        if (stride == 0)
            return;
        if (stride == e.stride) {
            if (e.confidence < 3)
                ++e.confidence;
        } else {
            e.stride = stride;
            e.confidence = 0;
            return;
        }
        if (e.confidence < 2 || target == nullptr)
            return;
        // Confident: prefetch `degree` lines ahead. A stride shorter
        // than a line names one line several times in a row; a repeat
        // is skipped (but still issued) when the cache says it would
        // change nothing.
        Addr prev = 0;
        bool settled = false;
        for (int d = 0; d < cfg.degree; ++d) {
            const Addr line = (addr
                               + static_cast<Addr>(e.stride)
                                   * static_cast<Addr>(cfg.distance + d))
                & ~static_cast<Addr>(cfg.lineBytes - 1);
            if (!settled || line != prev)
                settled = target->prefetch(line, now);
            prev = line;
            ++issued;
        }
    }

    std::uint64_t issuedCount() const { return issued; }

    /** Zero the issue counter (stride table state is kept). */
    void resetStats() { issued = 0; }

    /** Serialize the stride-training table (canonical text; the issue
     *  counter is measurement state, excluded). */
    void
    snapshotState(SnapshotWriter &w) const
    {
        w.tag("prefetch").u64(table.size());
        w.end();
        w.tag("prefetch.e");
        for (const Entry &e : table)
            w.u64(e.tag).u64(e.lastAddr).i64(e.stride).u64(e.confidence);
        w.end();
    }

    /** Restore into a same-geometry prefetcher. */
    void
    restoreState(SnapshotReader &r)
    {
        r.line("prefetch");
        r.fatalIf(r.u64("entries") != table.size(),
                  "prefetcher table size mismatch");
        r.endLine();
        r.line("prefetch.e");
        for (Entry &e : table) {
            e.tag = r.u64("tag");
            e.lastAddr = r.u64("lastAddr");
            e.stride = r.i64("stride");
            e.confidence =
                static_cast<std::uint8_t>(r.u64Max("conf", 3));
        }
        r.endLine();
    }

    /** The by-value restoreState (isa/warmable.hh); the attached
     *  cache stays this prefetcher's. */
    void
    copyStateFrom(const StridePrefetcher &o)
    {
        copyCheck(o.table.size() == table.size(), "prefetch",
                  "prefetcher table size mismatch");
        table = o.table;
    }

  private:
    struct Entry
    {
        Addr tag = ~0ULL;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        std::uint8_t confidence = 0;
    };

    PrefetcherConfig cfg;
    std::vector<Entry> table;
    Cache *target = nullptr;
    std::uint64_t issued = 0;
};

} // namespace eole

#endif // EOLE_MEM_PREFETCHER_HH

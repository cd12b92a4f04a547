/**
 * @file
 * Set-associative cache model with MSHRs and LRU replacement.
 *
 * The model is a timing oracle: access() returns the cycle at which the
 * requested line is available at this level, allocating MSHRs and
 * recursing into the next level on a miss. Contents are not stored
 * (the simulator's dataflow carries values); only tags, LRU state,
 * dirtiness and outstanding-miss bookkeeping are modeled.
 */

#ifndef EOLE_MEM_CACHE_HH
#define EOLE_MEM_CACHE_HH

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "isa/snapshot.hh"
#include "isa/warmable.hh"

namespace eole {

/** One cache level's geometry (Table 1 defaults belong to the caller).
 *  String-addressable per level ("mem.l1d.sizeBytes", ...) via the
 *  parameter registry (sim/params.hh); new fields must be registered
 *  there, once per level prefix. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 32 * 1024;
    int ways = 4;
    std::uint32_t lineBytes = 64;
    Cycle latency = 2;       //!< hit latency
    int mshrs = 64;          //!< max outstanding misses
};

class Cache
{
  public:
    /** Next-level access function: (lineAddr, isWrite, now) -> ready. */
    using NextLevelFn = std::function<Cycle(Addr, bool, Cycle)>;

    Cache(const CacheConfig &config, NextLevelFn next_level);

    /**
     * Access @p addr (any byte inside a line) at cycle @p now.
     *
     * @param is_write stores dirty the line (write-allocate/write-back)
     * @return cycle at which the data is available at this level
     */
    Cycle access(Addr addr, bool is_write, Cycle now);

    /** Is the line present and filled by cycle @p now? (no state change) */
    bool probe(Addr addr, Cycle now) const;

    /**
     * Install a line without a demand requester (prefetch); does
     * nothing if the line is present or MSHRs are exhausted. The
     * `prefetches` stat counts attempts, not installed lines: a
     * prefetch into a set whose every way is mid-fill counts in
     * `prefetches` and `mshr_stalls` yet installs nothing.
     *
     * @return false only when the line's whole set was mid-fill: the
     *         prefetch was counted and stalled but installed nothing,
     *         so a repeat at the same cycle would count again. After
     *         any other outcome a repeat of the same line at the same
     *         cycle changes nothing, and the prefetcher skips it.
     */
    bool prefetch(Addr addr, Cycle now);

    StatRecord record() const;

    std::uint64_t hits() const { return statHits; }
    std::uint64_t misses() const { return statMisses; }

    /**
     * Serialize tags, LRU, dirtiness, fill times and the in-flight
     * MSHR list (canonical text; isa/snapshot.hh). Statistic counters
     * are excluded — they are measurement state, zeroed by
     * Core::resetTiming before any measured window.
     */
    void snapshotState(SnapshotWriter &w) const;

    /** Restore into a same-geometry cache (fatal with section/line
     *  context on mismatch). */
    void restoreState(SnapshotReader &r);

    /** The by-value restoreState (isa/warmable.hh): lines, fills and
     *  the LRU clock; the next-level link and the statistic counters
     *  stay this cache's. */
    void copyStateFrom(const Cache &o);

    /** Zero the statistic counters; tags/LRU/MSHR state is kept (used
     *  by Core::resetTiming to open a measurement window on a warmed
     *  cache). */
    void
    resetStats()
    {
        statHits = statMisses = statMshrMerges = 0;
        statMshrStalls = statWritebacks = statPrefetches = 0;
    }

  private:
    /** A line's state apart from its tag, which lives in `tags`: a
     *  set scan reads 8 bytes per way, and a line still costs 32
     *  bytes. */
    struct Line
    {
        std::uint64_t lru = 0;
        Cycle readyAt = 0;   //!< fill completion (MSHR semantics)
        bool valid = false;
        bool dirty = false;
    };

    /** One outstanding fill. The sequence number is its insertion
     *  order, the order snapshots list fills in, so checkpoint bytes
     *  never depend on the heap's layout. */
    struct Fill
    {
        Cycle ready;
        std::uint64_t seq;

        /** (ready, seq), lexicographic: the heap's order. */
        auto operator<=>(const Fill &) const = default;
    };

    std::uint32_t setOf(Addr addr) const;
    std::uint64_t tagOf(Addr addr) const;
    Addr lineAddrOf(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    /** Pop completed fills off the in-flight heap. */
    void reapInflight(Cycle now);
    void pushInflight(Cycle ready);
    Cycle fill(Addr addr, bool is_write, Cycle now);

    CacheConfig cfg;
    NextLevelFn next;
    std::uint32_t numSets;
    int lineShift;   //!< log2(lineBytes)
    int tagShift;    //!< log2(lineBytes * numSets)
    std::vector<Line> lines;
    /** Each line's tag, at its index in `lines` (set-major). */
    std::vector<std::uint64_t> tags;
    /**
     * Outstanding fills, a min-heap on (ready, seq). New misses are
     * refused only while it holds >= mshrs entries, yet the stall path
     * in access() still pushes one more fill each time, so it can grow
     * far past mshrs when misses arrive faster than memory returns
     * lines (functional warming advances one cycle per µ-op).
     */
    std::vector<Fill> inflight;
    std::uint64_t fillSeq = 0;   //!< next Fill::seq
    std::uint64_t lruClock = 0;

    std::uint64_t statHits = 0;
    std::uint64_t statMisses = 0;
    std::uint64_t statMshrMerges = 0;
    std::uint64_t statMshrStalls = 0;
    std::uint64_t statWritebacks = 0;
    std::uint64_t statPrefetches = 0;
};

} // namespace eole

#endif // EOLE_MEM_CACHE_HH

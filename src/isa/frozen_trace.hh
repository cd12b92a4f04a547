/**
 * @file
 * FrozenTrace: an immutable, pre-executed µ-op stream.
 *
 * The functional execution of a workload is independent of the timing
 * configuration, so a sweep that runs N configurations over the same
 * workload re-executes the identical µ-op stream N times. A
 * FrozenTrace records that stream once — together with the post-init
 * architectural register state the timing core seeds its PRF from —
 * and is then shared read-only across any number of concurrently
 * running cores (see sim/trace_cache.hh). Replaying a frozen trace is
 * also faster than live functional execution: fetch becomes an indexed
 * read with no VM stepping and no replay-window bookkeeping.
 *
 * A recording is a static table and an array of 32-byte dynamic
 * records (isa/trace.hh); `uops` is a borrowed view of both, not a
 * container. Two storage backings exist behind it:
 *  - recorded in memory (`staticStorage` and `storage` own the
 *    vectors; seal() points the view at them), or
 *  - a read-only file mapping: an eole-trace-v2 file
 *    (src/trace/trace_file.hh), or a recording spilled to an unlinked
 *    temporary file because it is over the trace cache's RAM budget.
 *    The view points straight into the mapping and `mapping` keeps it
 *    alive, so a billion-µ-op trace costs address space and page
 *    cache, not resident heap (residentBytes() == 0). A spilled
 *    recording keeps its small static table on the heap.
 */

#ifndef EOLE_ISA_FROZEN_TRACE_HH
#define EOLE_ISA_FROZEN_TRACE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/trace.hh"

namespace eole {

class KernelVM;
struct Program;

/**
 * Immutable recording of a kernel's dynamic µ-op stream. Safe to share
 * across threads once constructed (all members are const after
 * recordTrace / the trace-file loader returns).
 */
struct FrozenTrace
{
    /** Borrowed read-only view of the recording. µ-op i is the pair
     *  (statics[records[i].staticId], records[i]); operator[] and the
     *  iterator resolve both halves and return the TraceUop by value,
     *  so replay code is backing-agnostic. */
    struct UopView
    {
        const StaticUop *statics = nullptr;
        std::size_t staticCount = 0;
        const UopRecord *records = nullptr;
        std::size_t count = 0;

        class iterator
        {
          public:
            iterator(const StaticUop *statics, const UopRecord *rec)
                : statics(statics), rec(rec)
            {}
            TraceUop operator*() const
            {
                return TraceUop(statics + rec->staticId, rec);
            }
            iterator &operator++() { ++rec; return *this; }
            bool operator==(const iterator &o) const { return rec == o.rec; }

          private:
            const StaticUop *statics;
            const UopRecord *rec;
        };

        std::size_t size() const { return count; }
        bool empty() const { return count == 0; }
        TraceUop
        operator[](std::size_t i) const
        {
            return TraceUop(statics + records[i].staticId, records + i);
        }
        iterator begin() const { return {statics, records}; }
        iterator end() const { return {statics, records + count}; }
    };

    UopView uops;

    /** The program halted within uops (the stream is the whole run).
     *  When false, uops is a prefix and a consumer reading past the
     *  end is a hard error — size the recording generously. */
    bool complete = false;

    /** Post-init architectural state (what a live VM would hold when
     *  the timing core seeds its register files). */
    RegVal initIntRegs[numArchIntRegs] = {};
    RegVal initFpRegs[numArchFpRegs] = {};

    /** Canonical workload name ("torture:7", "164.gzip",
     *  "rv64:fib"...) — the cell identity artifacts and seeding key
     *  on, embedded in trace files so `file:` replay reproduces the
     *  generator path byte-for-byte. Empty for anonymous recordings. */
    std::string name;

    /** SPEC-suite flag of the recorded workload (Workload::isFp). */
    bool isFp = false;

    /** The record array lives in a read-only file mapping instead of
     *  `storage`; such a trace is file-backed page cache, not heap. */
    bool mmapBacked = false;

    /** Heap backing: the static table (in-memory and spilled
     *  recordings) and the records (in-memory recordings). */
    std::vector<StaticUop> staticStorage;
    std::vector<UopRecord> storage;

    /** Keep-alive for non-heap backings: the mmap (unmapped by the
     *  deleter) or a parent trace a clamped view borrows from. */
    std::shared_ptr<const void> mapping;

    /** Point the view at `staticStorage` and `storage` after filling
     *  them. */
    void
    seal()
    {
        uops = UopView{staticStorage.data(), staticStorage.size(),
                       storage.data(), storage.size()};
    }

    /** The static table plus the records. */
    std::size_t
    bytes() const
    {
        return uops.staticCount * sizeof(StaticUop)
            + uops.size() * sizeof(UopRecord);
    }

    /** Bytes held in RAM against the trace-cache budget: mmap-backed
     *  pages are evictable file cache and count as zero. */
    std::size_t residentBytes() const { return mmapBacked ? 0 : bytes(); }
};

/**
 * Functionally execute @p program (after running @p init) and record up
 * to @p max_uops µ-ops.
 *
 * @param program the kernel (copied into the recording run)
 * @param mem_bytes VM data-memory size
 * @param init one-time architectural state initializer (may be null)
 * @param max_uops recording cap; the trace is complete if the program
 *        halts within the cap
 * @param name canonical workload name stamped into the trace
 * @param is_fp the workload's SPEC-suite flag, stamped into the trace
 * @param spill_dir empty: record to the heap. Otherwise write the
 *        records to an unlinked temporary file in this directory and
 *        map it read-only (mmapBacked); the static table stays on the
 *        heap. The spill is scratch, not a format: no header, no
 *        checksum, no reader outside this process. A failed write or
 *        map is fatal.
 */
std::shared_ptr<const FrozenTrace>
recordTrace(const Program &program, std::size_t mem_bytes,
            const std::function<void(KernelVM &)> &init,
            std::uint64_t max_uops, const std::string &name = "",
            bool is_fp = false, const std::string &spill_dir = "");

/**
 * A prefix view of @p trace bounded to @p max_uops µ-ops, sharing the
 * parent's backing (no copy). Returns @p trace itself when it already
 * fits. A clamped view is marked incomplete when µ-ops were cut off —
 * exactly what recordTrace(max_uops) of the same workload would have
 * produced, so replay through either is decision-identical.
 */
std::shared_ptr<const FrozenTrace>
clampTrace(std::shared_ptr<const FrozenTrace> trace,
           std::uint64_t max_uops);

} // namespace eole

#endif // EOLE_ISA_FROZEN_TRACE_HH

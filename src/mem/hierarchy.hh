/**
 * @file
 * The assembled memory hierarchy of Table 1: split L1I/L1D over a
 * unified L2 with a stride prefetcher, backed by DDR3-like DRAM.
 */

#ifndef EOLE_MEM_HIERARCHY_HH
#define EOLE_MEM_HIERARCHY_HH

#include <memory>

#include "common/stats.hh"
#include "isa/warmable.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/prefetcher.hh"

namespace eole {

/** Memory-hierarchy geometry (Table 1 defaults). String-addressable
 *  as "mem.*" ("mem.l1i.*"/"mem.l1d.*"/"mem.l2.*"/"mem.dram.*"/
 *  "mem.prefetch.*") via the parameter registry (sim/params.hh); new
 *  fields must be registered there. */
struct MemConfig
{
    CacheConfig l1i{"l1i", 32 * 1024, 4, 64, 2, 64};
    CacheConfig l1d{"l1d", 32 * 1024, 4, 64, 2, 64};
    CacheConfig l2{"l2", 2 * 1024 * 1024, 16, 64, 12, 64};
    DramConfig dram;
    PrefetcherConfig prefetch;
    bool prefetchEnabled = true;
};

class MemHierarchy : public WarmableComponent
{
  public:
    explicit MemHierarchy(const MemConfig &config = MemConfig{})
        : dram(std::make_unique<Dram>(config.dram)),
          l2(std::make_unique<Cache>(
              config.l2,
              [this](Addr a, bool w, Cycle t) {
                  return dram->access(a, w, t);
              })),
          l1i(std::make_unique<Cache>(
              config.l1i,
              [this](Addr a, bool w, Cycle t) {
                  return l2->access(a, w, t);
              })),
          l1d(std::make_unique<Cache>(
              config.l1d,
              [this](Addr a, bool w, Cycle t) {
                  return l2->access(a, w, t);
              })),
          prefetcher(config.prefetch),
          fetchLineMask(~static_cast<Addr>(config.l1i.lineBytes - 1)),
          cfg(config)
    {
        if (config.prefetchEnabled)
            prefetcher.attach(l2.get());
    }

    /** I-cache line mask; the fetch stage and the warming path must
     *  use the same line granularity (fetch one access per line). */
    Addr fetchLine(Addr pc) const { return pc & fetchLineMask; }

    // The level-linking lambdas capture `this`; relocation would leave
    // them dangling.
    MemHierarchy(const MemHierarchy &) = delete;
    MemHierarchy &operator=(const MemHierarchy &) = delete;
    MemHierarchy(MemHierarchy &&) = delete;
    MemHierarchy &operator=(MemHierarchy &&) = delete;

    /** Instruction fetch: one line access. */
    Cycle
    fetchAccess(Addr pc, Cycle now)
    {
        return l1i->access(pc, false, now);
    }

    /**
     * Data load by the instruction at @p pc. The prefetcher observes
     * the access (it is trained on L1D demand traffic and fills L2).
     */
    Cycle
    loadAccess(Addr pc, Addr addr, Cycle now)
    {
        prefetcher.observe(pc, addr, now);
        return l1d->access(addr, false, now);
    }

    /** Data store (performed at/after commit; see DESIGN.md). */
    Cycle
    storeAccess(Addr pc, Addr addr, Cycle now)
    {
        prefetcher.observe(pc, addr, now);
        return l1d->access(addr, true, now);
    }

    Cache &l1iCache() { return *l1i; }
    Cache &l1dCache() { return *l1d; }
    Cache &l2Cache() { return *l2; }
    Dram &dramCtrl() { return *dram; }

    /**
     * Functional warming (isa/warmable.hh): touch the I-cache once per
     * fetched line (as the fetch stage does) and the D-side for every
     * load/store, on an internal pseudo-clock that advances one cycle
     * per µ-op. Tags, LRU, prefetcher training and DRAM row state warm
     * up; latencies are discarded.
     */
    void
    warmUpdate(const TraceUop &uop) override
    {
        ++warmClock;
        const Addr line = uop.pc() & fetchLineMask;
        if (line != warmFetchLine) {
            warmFetchLine = line;
            (void)fetchAccess(uop.pc(), warmClock);
        }
        if (uop.isLoad())
            (void)loadAccess(uop.pc(), uop.effAddr(), warmClock);
        else if (uop.isStore())
            (void)storeAccess(uop.pc(), uop.effAddr(), warmClock);
    }

    /** Advance the warming pseudo-clock past @p now so a detailed run
     *  following a warming pass never observes fills scheduled in its
     *  future (Core::functionalWarm aligns the clocks). */
    void
    syncWarmClock(Cycle now)
    {
        warmClock = std::max(warmClock, now);
    }

    /** Current warming pseudo-clock (Core::functionalWarm re-aligns
     *  the core clock to it after a warming pass). */
    Cycle warmClockNow() const { return warmClock; }

    /**
     * Serialize the complete warmed state (isa/warmable.hh contract):
     * all three cache levels, DRAM bank/bus state, the prefetcher
     * training table and the warming pseudo-clock. Statistic counters
     * are excluded (measurement state, zeroed by Core::resetTiming).
     */
    void
    appendSnapshot(std::string &out) const override
    {
        SnapshotWriter w(out);
        w.tag("mem-hierarchy").u64(1);
        w.end();
        w.tag("clock").u64(warmClock).u64(warmFetchLine);
        w.end();
        l1i->snapshotState(w);
        l1d->snapshotState(w);
        l2->snapshotState(w);
        dram->snapshotState(w);
        prefetcher.snapshotState(w);
    }

    /** Restore into a same-geometry hierarchy; subsequent accesses are
     *  decision-identical (pinned by tests/test_ckpt_state.cc). */
    void
    restoreState(std::istream &is) override
    {
        SnapshotReader r(is, "mem-hierarchy");
        r.line("mem-hierarchy");
        r.fatalIf(r.u64("version") != 1, "unsupported version");
        r.endLine();
        r.line("clock");
        warmClock = r.u64("warmClock");
        warmFetchLine = r.u64("warmFetchLine");
        r.endLine();
        l1i->restoreState(r);
        l1d->restoreState(r);
        l2->restoreState(r);
        dram->restoreState(r);
        prefetcher.restoreState(r);
    }

    /** A hierarchy of the same configuration, wired to its own levels,
     *  holding this one's warmed state. */
    std::unique_ptr<WarmableComponent>
    clone() const override
    {
        auto copy = std::make_unique<MemHierarchy>(cfg);
        copy->copyStateFrom(*this);
        return copy;
    }

    /** Copy every level's warmed state and the warming pseudo-clock
     *  into this same-geometry hierarchy (its level links stay). */
    void
    copyStateFrom(const WarmableComponent &src) override
    {
        const auto &o = copySource<MemHierarchy>(src, "mem-hierarchy");
        warmClock = o.warmClock;
        warmFetchLine = o.warmFetchLine;
        l1i->copyStateFrom(*o.l1i);
        l1d->copyStateFrom(*o.l1d);
        l2->copyStateFrom(*o.l2);
        dram->copyStateFrom(*o.dram);
        prefetcher.copyStateFrom(o.prefetcher);
    }

    /** Zero every statistic counter in the hierarchy; cache tags, LRU,
     *  MSHR, DRAM row and prefetcher training state are all kept. */
    void
    resetStats()
    {
        l1i->resetStats();
        l1d->resetStats();
        l2->resetStats();
        dram->resetStats();
        prefetcher.resetStats();
    }

    StatRecord
    record() const
    {
        StatRecord r;
        r.addAll("l1i.", l1i->record());
        r.addAll("l1d.", l1d->record());
        r.addAll("l2.", l2->record());
        r.add("dram.reads", static_cast<double>(dram->readCount()));
        r.add("dram.writes", static_cast<double>(dram->writeCount()));
        r.add("prefetches_issued",
              static_cast<double>(prefetcher.issuedCount()));
        return r;
    }

  private:
    std::unique_ptr<Dram> dram;
    std::unique_ptr<Cache> l2;
    std::unique_ptr<Cache> l1i;
    std::unique_ptr<Cache> l1d;
    StridePrefetcher prefetcher;
    Addr fetchLineMask;
    Cycle warmClock = 0;
    Addr warmFetchLine = ~0ULL;
    /** The construction config, for clone() (after the hot members,
     *  which keep their offsets). */
    MemConfig cfg;
};

} // namespace eole

#endif // EOLE_MEM_HIERARCHY_HH

/**
 * @file
 * Set-associative Branch Target Buffer (2-way, 4K entries in the
 * paper's configuration) and the return-address stack.
 */

#ifndef EOLE_BPRED_BTB_HH
#define EOLE_BPRED_BTB_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/snapshot.hh"
#include "isa/warmable.hh"

namespace eole {

/** 2-way set-associative BTB with LRU replacement. */
class Btb
{
  public:
    /**
     * @param log2_entries total entry count = 2^log2_entries
     * @param ways associativity
     */
    explicit Btb(int log2_entries = 12, int ways_ = 2)
        : ways(ways_), sets((1u << log2_entries) / ways_),
          entries(static_cast<std::size_t>(1u) << log2_entries)
    {
        panic_if((1u << log2_entries) % ways_ != 0, "bad BTB shape");
    }

    /** @return target byte-PC, or 0 if no entry matches @p pc. */
    Addr
    lookup(Addr pc) const
    {
        const std::uint32_t set = setOf(pc);
        const std::uint64_t tag = tagOf(pc);
        for (int w = 0; w < ways; ++w) {
            const Entry &e = entries[set * ways + w];
            if (e.valid && e.tag == tag)
                return e.target;
        }
        return 0;
    }

    /** Insert/refresh the mapping pc -> target. */
    void
    update(Addr pc, Addr target)
    {
        const std::uint32_t set = setOf(pc);
        const std::uint64_t tag = tagOf(pc);
        int victim = 0;
        for (int w = 0; w < ways; ++w) {
            Entry &e = entries[set * ways + w];
            if (e.valid && e.tag == tag) {
                e.target = target;
                e.lru = ++lruClock;
                return;
            }
            if (!e.valid) {
                victim = w;
            } else if (entries[set * ways + victim].valid
                       && e.lru < entries[set * ways + victim].lru) {
                victim = w;
            }
        }
        Entry &e = entries[set * ways + victim];
        e.valid = true;
        e.tag = tag;
        e.target = target;
        e.lru = ++lruClock;
    }

    /** Serialize entries + LRU clock (canonical text). */
    void
    snapshotState(std::ostream &os) const
    {
        SnapshotWriter w(os);
        w.tag("btb").u64(entries.size()).u64(lruClock);
        w.end();
        w.tag("btb.e");
        for (const Entry &e : entries)
            w.flag(e.valid).u64(e.tag).u64(e.target).u64(e.lru);
        w.end();
    }

    /** Restore into a same-geometry instance. */
    void
    restoreState(SnapshotReader &r)
    {
        r.line("btb");
        r.fatalIf(r.u64("entries") != entries.size(),
                  "BTB entry-count mismatch");
        lruClock = r.u64("lruClock");
        r.endLine();
        r.line("btb.e");
        for (Entry &e : entries) {
            e.valid = r.flag("valid");
            e.tag = r.u64("tag");
            e.target = r.u64("target");
            e.lru = r.u64("lru");
        }
        r.endLine();
    }

    /** The by-value restoreState (isa/warmable.hh). */
    void
    copyStateFrom(const Btb &o)
    {
        copyCheck(o.entries.size() == entries.size(), "BTB",
                  "BTB entry-count mismatch");
        entries = o.entries;
        lruClock = o.lruClock;
    }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t tag = 0;
        Addr target = 0;
        std::uint64_t lru = 0;
    };

    std::uint32_t setOf(Addr pc) const
    {
        return static_cast<std::uint32_t>(pc >> 2) % sets;
    }

    std::uint64_t tagOf(Addr pc) const { return (pc >> 2) / sets; }

    int ways;
    std::uint32_t sets;
    std::vector<Entry> entries;
    std::uint64_t lruClock = 0;
};

/**
 * Return-address stack (32 entries in the paper's configuration).
 * Small enough that snapshots copy the whole state.
 */
class Ras
{
  public:
    explicit Ras(int entries = 32) : stack(entries, 0) {}

    void
    push(Addr return_pc)
    {
        top = (top + 1) % stack.size();
        stack[top] = return_pc;
        if (depth < stack.size())
            ++depth;
    }

    /** @return predicted return target, 0 if empty. */
    Addr
    pop()
    {
        if (depth == 0)
            return 0;
        const Addr t = stack[top];
        top = (top + stack.size() - 1) % stack.size();
        --depth;
        return t;
    }

    struct Snapshot
    {
        std::vector<Addr> stack;
        std::size_t top = 0;
        std::size_t depth = 0;
    };

    Snapshot
    snapshot() const
    {
        return Snapshot{stack, top, depth};
    }

    /** Fill @p s in place; its stack buffer's capacity is reused when
     *  sufficient (recycled per-branch snapshots: same RAS, so always
     *  after the first lap). */
    void
    snapshotInto(Snapshot &s) const
    {
        s.stack = stack;
        s.top = top;
        s.depth = depth;
    }

    void
    restore(const Snapshot &s)
    {
        stack = s.stack;
        top = s.top;
        depth = s.depth;
    }

    /** Serialize the whole stack (canonical text). */
    void
    snapshotState(std::ostream &os) const
    {
        SnapshotWriter w(os);
        w.tag("ras").u64(stack.size()).u64(top).u64(depth);
        w.end();
        w.tag("ras.stack");
        for (const Addr a : stack)
            w.u64(a);
        w.end();
    }

    /** Restore into a same-geometry instance. */
    void
    restoreState(SnapshotReader &r)
    {
        r.line("ras");
        r.fatalIf(r.u64("entries") != stack.size(),
                  "RAS size mismatch");
        const std::uint64_t t = r.u64("top");
        const std::uint64_t d = r.u64("depth");
        r.fatalIf(t >= stack.size() || d > stack.size(),
                  "RAS cursor out of range");
        r.endLine();
        r.line("ras.stack");
        for (Addr &a : stack)
            a = r.u64("addr");
        r.endLine();
        top = t;
        depth = d;
    }

    /** The by-value restoreState (isa/warmable.hh). */
    void
    copyStateFrom(const Ras &o)
    {
        copyCheck(o.stack.size() == stack.size(), "RAS",
                  "RAS size mismatch");
        stack = o.stack;
        top = o.top;
        depth = o.depth;
    }

  private:
    std::vector<Addr> stack;
    std::size_t top = 0;
    std::size_t depth = 0;
};

} // namespace eole

#endif // EOLE_BPRED_BTB_HH

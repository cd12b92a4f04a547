#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <functional>

#include "common/logging.hh"

namespace eole {

Cache::Cache(const CacheConfig &config, NextLevelFn next_level)
    : cfg(config), next(std::move(next_level))
{
    // Sets and tags are indexed by shifting, and line addresses are
    // masked with lineBytes - 1: both need powers of two.
    fatal_if(!std::has_single_bit(cfg.lineBytes),
             "%s: line size %u not a power of 2", cfg.name.c_str(),
             cfg.lineBytes);
    fatal_if(cfg.sizeBytes % (cfg.lineBytes * cfg.ways) != 0,
             "%s: size %u not divisible by ways*line", cfg.name.c_str(),
             cfg.sizeBytes);
    numSets = cfg.sizeBytes / (cfg.lineBytes * cfg.ways);
    fatal_if(!std::has_single_bit(numSets), "%s: sets not a power of 2",
             cfg.name.c_str());
    lineShift = std::countr_zero(cfg.lineBytes);
    tagShift = lineShift + std::countr_zero(numSets);
    lines.assign(static_cast<std::size_t>(numSets) * cfg.ways, Line{});
    tags.assign(lines.size(), 0);
}

std::uint32_t
Cache::setOf(Addr addr) const
{
    return static_cast<std::uint32_t>(addr >> lineShift) & (numSets - 1);
}

std::uint64_t
Cache::tagOf(Addr addr) const
{
    return addr >> tagShift;
}

Addr
Cache::lineAddrOf(Addr addr) const
{
    return addr & ~static_cast<Addr>(cfg.lineBytes - 1);
}

Cache::Line *
Cache::findLine(Addr addr)
{
    const std::size_t first = static_cast<std::size_t>(setOf(addr)) * cfg.ways;
    const std::uint64_t tag = tagOf(addr);
    for (std::size_t i = first; i < first + cfg.ways; ++i) {
        if (tags[i] == tag && lines[i].valid)
            return &lines[i];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

void
Cache::reapInflight(Cycle now)
{
    while (!inflight.empty() && inflight.front().ready <= now) {
        std::pop_heap(inflight.begin(), inflight.end(), std::greater<>{});
        inflight.pop_back();
    }
}

void
Cache::pushInflight(Cycle ready)
{
    inflight.push_back(Fill{ready, fillSeq++});
    std::push_heap(inflight.begin(), inflight.end(), std::greater<>{});
}

Cycle
Cache::fill(Addr addr, bool is_write, Cycle now)
{
    const std::uint32_t set = setOf(addr);
    // Victim selection: prefer invalid, else LRU among filled lines
    // (in-flight fills are not evictable).
    Line *victim = nullptr;
    for (int w = 0; w < cfg.ways; ++w) {
        Line &l = lines[static_cast<std::size_t>(set) * cfg.ways + w];
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (l.readyAt > now)
            continue;
        if (victim == nullptr || l.lru < victim->lru)
            victim = &l;
    }
    if (victim == nullptr) {
        // Whole set is mid-fill: serialize behind the earliest fill.
        Cycle earliest = invalidCycle;
        for (int w = 0; w < cfg.ways; ++w) {
            Line &l = lines[static_cast<std::size_t>(set) * cfg.ways + w];
            earliest = std::min(earliest, l.readyAt);
        }
        ++statMshrStalls;
        return earliest + cfg.latency;
    }

    std::uint64_t &victimTag = tags[victim - lines.data()];
    if (victim->valid && victim->dirty) {
        // Write back the victim (consumes next-level/DRAM bandwidth).
        ++statWritebacks;
        (void)next((victimTag << tagShift)
                       | (static_cast<Addr>(set) << lineShift),
                   true, now);
    }

    const Cycle ready = next(lineAddrOf(addr), false, now + cfg.latency);
    victim->valid = true;
    victimTag = tagOf(addr);
    victim->dirty = is_write;
    victim->lru = ++lruClock;
    victim->readyAt = ready;
    if (ready > now)
        pushInflight(ready);
    return ready;
}

Cycle
Cache::access(Addr addr, bool is_write, Cycle now)
{
    Line *l = findLine(addr);
    if (l != nullptr) {
        l->lru = ++lruClock;
        l->dirty = l->dirty || is_write;
        if (l->readyAt > now) {
            // Miss merged into an outstanding fill (MSHR hit).
            ++statMshrMerges;
            return l->readyAt + cfg.latency;
        }
        ++statHits;
        return now + cfg.latency;
    }

    ++statMisses;
    reapInflight(now);
    if (static_cast<int>(inflight.size()) >= cfg.mshrs) {
        // No MSHR free: stall until the earliest fill returns, then pay
        // the full miss path.
        const Cycle earliest = inflight.front().ready;
        ++statMshrStalls;
        return fill(addr, is_write, earliest);
    }
    return fill(addr, is_write, now);
}

bool
Cache::probe(Addr addr, Cycle now) const
{
    const Line *l = findLine(addr);
    return l != nullptr && l->readyAt <= now;
}

bool
Cache::prefetch(Addr addr, Cycle now)
{
    if (findLine(addr) != nullptr)
        return true;
    reapInflight(now);
    if (static_cast<int>(inflight.size()) >= cfg.mshrs)
        return true;
    ++statPrefetches;
    // fill() counts an MSHR stall only when the whole set is mid-fill,
    // the one outcome that installs nothing.
    const std::uint64_t stalls = statMshrStalls;
    (void)fill(addr, false, now);
    return statMshrStalls == stalls;
}

void
Cache::snapshotState(SnapshotWriter &w) const
{
    w.tag("cache").str(cfg.name)
        .u64(lines.size()).u64(inflight.size()).u64(lruClock);
    w.end();
    w.tag("cache.lines");
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const Line &l = lines[i];
        w.flag(l.valid).u64(tags[i]).flag(l.dirty).u64(l.lru)
            .u64(l.readyAt);
    }
    w.end();
    // Insertion order, independent of the heap's internal layout.
    std::vector<Fill> fills = inflight;
    std::sort(fills.begin(), fills.end(),
              [](const Fill &a, const Fill &b) { return a.seq < b.seq; });
    w.tag("cache.inflight");
    for (const Fill &f : fills)
        w.u64(f.ready);
    w.end();
}

void
Cache::restoreState(SnapshotReader &r)
{
    r.line("cache");
    r.fatalIf(r.str("name") != cfg.name, "cache level mismatch");
    r.fatalIf(r.u64("lines") != lines.size(),
              "cache line-count mismatch");
    // No tight invariant bounds the in-flight list: the MSHR-stall
    // path in access() pushes one more fill past the cap each time
    // (hundreds past it under functional warming of a miss-heavy
    // workload), so only reject allocation-bomb counts from corrupt
    // documents.
    const std::uint64_t n_inflight = r.u64("inflight");
    r.fatalIf(n_inflight > (1ULL << 20),
              "implausible in-flight fill count");
    lruClock = r.u64("lruClock");
    r.endLine();
    r.line("cache.lines");
    for (std::size_t i = 0; i < lines.size(); ++i) {
        Line &l = lines[i];
        l.valid = r.flag("valid");
        tags[i] = r.u64("tag");
        l.dirty = r.flag("dirty");
        l.lru = r.u64("lru");
        l.readyAt = r.u64("readyAt");
    }
    r.endLine();
    // File order is insertion order: it becomes the sequence.
    r.line("cache.inflight");
    inflight.clear();
    fillSeq = 0;
    for (std::uint64_t i = 0; i < n_inflight; ++i)
        pushInflight(r.u64("cycle"));
    r.endLine();
}

void
Cache::copyStateFrom(const Cache &o)
{
    copyCheck(o.cfg.name == cfg.name, cfg.name.c_str(),
              "cache level mismatch");
    copyCheck(o.lines.size() == lines.size(), cfg.name.c_str(),
              "cache line-count mismatch");
    lines = o.lines;
    tags = o.tags;
    inflight = o.inflight;
    fillSeq = o.fillSeq;
    lruClock = o.lruClock;
}

StatRecord
Cache::record() const
{
    StatRecord r;
    r.add("hits", static_cast<double>(statHits));
    r.add("misses", static_cast<double>(statMisses));
    r.add("miss_rate", ratio(double(statMisses),
                             double(statMisses + statHits)));
    r.add("mshr_merges", static_cast<double>(statMshrMerges));
    r.add("mshr_stalls", static_cast<double>(statMshrStalls));
    r.add("writebacks", static_cast<double>(statWritebacks));
    r.add("prefetches", static_cast<double>(statPrefetches));
    return r;
}

} // namespace eole

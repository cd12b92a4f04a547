/**
 * @file
 * Unit tests for the memory hierarchy: cache hit/miss timing, LRU,
 * MSHR semantics, writebacks, the stride prefetcher and the DRAM bank
 * model, plus end-to-end hierarchy latencies (Table 1 calibration) and
 * a golden run whose in-flight lists outgrow their MSHRs.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "common/hash.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "mem/prefetcher.hh"
#include "miss_stream.hh"

using namespace eole;

namespace {

/** Fixed-latency backing store for isolated cache tests. */
Cache::NextLevelFn
fixedLatency(Cycle lat, std::uint64_t *accesses = nullptr,
             std::uint64_t *writes = nullptr)
{
    return [lat, accesses, writes](Addr, bool is_write, Cycle now) {
        if (accesses)
            ++*accesses;
        if (writes && is_write)
            ++*writes;
        return now + lat;
    };
}

CacheConfig
smallCache()
{
    CacheConfig cfg;
    cfg.name = "test";
    cfg.sizeBytes = 1024;  // 4 sets x 4 ways x 64 B
    cfg.ways = 4;
    cfg.latency = 2;
    cfg.mshrs = 4;
    return cfg;
}

} // namespace

TEST(Cache, HitAfterFill)
{
    Cache c(smallCache(), fixedLatency(100));
    const Cycle miss_done = c.access(0x1000, false, 0);
    EXPECT_GE(miss_done, 100u);
    const Cycle hit_done = c.access(0x1000, false, miss_done);
    EXPECT_EQ(hit_done, miss_done + 2);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    Cache c(smallCache(), fixedLatency(100));
    const Cycle done = c.access(0x1000, false, 0);
    EXPECT_EQ(c.access(0x1030, false, done), done + 2);
}

TEST(Cache, MshrMergeOnOutstandingLine)
{
    Cache c(smallCache(), fixedLatency(100));
    const Cycle first = c.access(0x2000, false, 0);
    // A second access to the same line while the fill is in flight
    // merges rather than issuing a second miss.
    const Cycle second = c.access(0x2040 - 0x40, false, 5);
    EXPECT_LE(second, first + 2);
    const StatRecord r = c.record();
    EXPECT_EQ(r.get("misses"), 1.0);
    EXPECT_EQ(r.get("mshr_merges"), 1.0);
}

TEST(Cache, LruEvictsOldestWay)
{
    Cache c(smallCache(), fixedLatency(10));
    // 5 distinct lines in the same set (4 ways): evicts the first.
    Cycle t = 1000;
    for (int i = 0; i < 5; ++i)
        t = c.access(0x1000 + i * 0x100, false, t) + 1;
    // Line 0 was evicted: re-access misses.
    const std::uint64_t misses_before = c.misses();
    c.access(0x1000, false, t + 1000);
    EXPECT_EQ(c.misses(), misses_before + 1);
    // Line 4 (most recent) still hits.
    const std::uint64_t hits_before = c.hits();
    c.access(0x1400, false, t + 3000);
    EXPECT_EQ(c.hits(), hits_before + 1);
}

TEST(Cache, DirtyEvictionWritesBack)
{
    std::uint64_t accesses = 0, writes = 0;
    Cache c(smallCache(), fixedLatency(10, &accesses, &writes));
    Cycle t = 0;
    t = c.access(0x1000, true, t) + 1;  // dirty line
    for (int i = 1; i < 5; ++i)
        t = c.access(0x1000 + i * 0x100, false, t) + 10;
    EXPECT_EQ(writes, 1u);  // victim written back
    EXPECT_EQ(c.record().get("writebacks"), 1.0);
}

TEST(Cache, MshrExhaustionDelaysNewMisses)
{
    CacheConfig cfg = smallCache();
    cfg.mshrs = 2;
    Cache c(cfg, fixedLatency(1000));
    const Cycle a = c.access(0x10000, false, 0);
    const Cycle b = c.access(0x20000, false, 0);
    (void)a;
    (void)b;
    // Third concurrent miss must wait for an MSHR.
    const Cycle d = c.access(0x30000, false, 1);
    EXPECT_GT(d, 1000u);
    EXPECT_GE(c.record().get("mshr_stalls"), 1.0);
}

TEST(Cache, CompletedFillFreesItsMshr)
{
    // One MSHR: once the first fill has returned, a new miss must issue
    // at once instead of stalling behind it.
    CacheConfig cfg = smallCache();
    cfg.mshrs = 1;
    Cache c(cfg, fixedLatency(100));
    const Cycle first = c.access(0x10000, false, 0);
    const Cycle later = first + 50;
    EXPECT_EQ(c.access(0x20000, false, later), later + 2 + 100);
    EXPECT_EQ(c.record().get("mshr_stalls"), 0.0);
}

TEST(CacheDeathTest, LineSizeMustBeAPowerOfTwo)
{
    // 24576 / (4 x 48) = 128 sets passes the set check, but line
    // addresses are masked with lineBytes - 1 and sets are indexed by
    // shifting: a 48-byte line would alias.
    CacheConfig cfg = smallCache();
    cfg.sizeBytes = 24576;
    cfg.lineBytes = 48;
    EXPECT_DEATH(Cache(cfg, fixedLatency(10)), "line size 48");
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache c(smallCache(), fixedLatency(50));
    EXPECT_FALSE(c.probe(0x4000, 0));
    const Cycle done = c.access(0x4000, false, 0);
    EXPECT_FALSE(c.probe(0x4000, 5));      // fill still in flight
    EXPECT_TRUE(c.probe(0x4000, done));
    EXPECT_EQ(c.misses(), 1u);             // probe did not count
}

TEST(Prefetcher, FiresAfterConfirmedStride)
{
    CacheConfig cfg = smallCache();
    cfg.sizeBytes = 4096;
    Cache target(cfg, fixedLatency(10));
    StridePrefetcher pf;
    pf.attach(&target);
    const Addr pc = 0x400100;
    // The stride must be observed and confirmed twice before the
    // prefetcher trusts it (conservative training).
    pf.observe(pc, 0x1000, 0);
    pf.observe(pc, 0x1040, 10);
    pf.observe(pc, 0x1080, 20);
    EXPECT_EQ(pf.issuedCount(), 0u);
    pf.observe(pc, 0x10c0, 30);
    EXPECT_GT(pf.issuedCount(), 0u);
    // The prefetched next lines land in the target cache.
    EXPECT_TRUE(target.probe(0x1100, 2000));
}

TEST(Prefetcher, StrideChangeResetsConfidence)
{
    Cache target(smallCache(), fixedLatency(10));
    StridePrefetcher pf;
    pf.attach(&target);
    const Addr pc = 0x400200;
    pf.observe(pc, 0x1000, 0);
    pf.observe(pc, 0x1040, 1);
    pf.observe(pc, 0x2000, 2);  // stride change
    pf.observe(pc, 0x2040, 3);
    EXPECT_EQ(pf.issuedCount(), 0u);  // needs re-confirmation
}

TEST(Dram, RowHitFasterThanRowMiss)
{
    DramConfig cfg;
    Dram d(cfg);
    // Lines are interleaved across the 16 banks: the same bank (and
    // row) recurs every 16 lines (0x400 bytes).
    const Cycle first = d.access(0x100000, false, 0);   // row miss
    const Cycle second =
        d.access(0x100400, false, first) - first;        // row hit
    const Cycle at = first * 10;
    const Cycle third = d.access(0x900000, false, at) - at;  // new row
    EXPECT_GT(first, second);  // open-row hit is cheaper
    EXPECT_GT(third, second);
}

TEST(Dram, BusSerializesBursts)
{
    Dram d;
    // Two back-to-back accesses to different banks still share the bus.
    const Cycle a = d.access(0x0, false, 0);
    const Cycle b = d.access(0x40, false, 0);
    EXPECT_GE(b, a + DramConfig{}.burstCycles);
}

TEST(Hierarchy, LatenciesMatchTable1Calibration)
{
    MemHierarchy mem;
    // Cold miss all the way to DRAM: >= ~75 cycles (Table 1 minimum).
    const Cycle dram_load = mem.loadAccess(0x400000, 0x123400, 1000);
    EXPECT_GE(dram_load - 1000, 75u);
    EXPECT_LE(dram_load - 1000, 120u);
    // L1 hit: 2 cycles.
    const Cycle l1_hit = mem.loadAccess(0x400000, 0x123400, dram_load);
    EXPECT_EQ(l1_hit - dram_load, 2u);
}

TEST(Hierarchy, L2HitCostsL1MissPlusL2Latency)
{
    MemHierarchy mem;
    Cycle t = mem.loadAccess(0x400000, 0x40000, 0);
    // Evict from L1 (4-way, 128 sets, 32 KB): 5 conflicting lines.
    for (int i = 1; i <= 5; ++i)
        t = mem.loadAccess(0x400000, 0x40000 + i * 0x8000, t + 1);
    // Line is gone from L1 but still in L2.
    const Cycle start = t + 100;
    const Cycle done = mem.loadAccess(0x400000, 0x40000, start);
    EXPECT_GE(done - start, 12u);
    EXPECT_LE(done - start, 20u);
}

TEST(Hierarchy, InstructionFetchesUseL1I)
{
    MemHierarchy mem;
    const Cycle miss = mem.fetchAccess(0x400000, 0);
    EXPECT_GT(miss, 2u);
    const Cycle hit = mem.fetchAccess(0x400004, miss);
    EXPECT_EQ(hit - miss, 2u);
    EXPECT_EQ(mem.l1iCache().hits(), 1u);
}

TEST(Hierarchy, StreamingLoadsTriggerPrefetch)
{
    MemHierarchy mem;
    Cycle t = 0;
    for (int i = 0; i < 64; ++i)
        t = mem.loadAccess(0x400000, 0x100000 + Addr(i) * 64, t + 1);
    EXPECT_GT(mem.record().get("prefetches_issued"), 0.0);
    // Far ahead in the stream, lines should already be in L2.
    EXPECT_TRUE(mem.l2Cache().probe(0x100000 + 66 * 64, t + 10000));
}

TEST(Hierarchy, MshrOverflowUnderWarmingShapedMissesIsGolden)
{
    // One access per cycle, nearly all misses: L1D and L2 hold far more
    // fills than they have MSHRs (429.mcf under functional warming).
    // The final state, every returned cycle and every counter are
    // pinned, so how the in-flight list is stored may change but not
    // what it decides.
    const MemConfig cfg;
    MemHierarchy mem(cfg);
    Cycle now = 0, sum = 0;
    for (const TraceUop &u : test::missStream(30000, 0x429)) {
        ++now;
        sum += u.isStore() ? mem.storeAccess(u.pc, u.effAddr, now)
                           : mem.loadAccess(u.pc, u.effAddr, now);
    }
    std::ostringstream os;
    mem.snapshotState(os);
    const auto fills = test::inflightFills(os.str());
    EXPECT_GT(fills.at("l1d"), std::uint64_t(cfg.l1d.mshrs));
    EXPECT_GT(fills.at("l2"), std::uint64_t(cfg.l2.mshrs));

    EXPECT_EQ(sha256Hex(os.str()), "3171d99cb077fad0dc7621112631084"
                                   "148de279fbc4697c4814ba3bc0bae1058");
    EXPECT_EQ(sum, 530201588u);
    const std::pair<const char *, double> golden[] = {
        {"l1i.hits", 0},
        {"l1i.misses", 0},
        {"l1i.miss_rate", 0},
        {"l1i.mshr_merges", 0},
        {"l1i.mshr_stalls", 0},
        {"l1i.writebacks", 0},
        {"l1i.prefetches", 0},
        {"l1d.hits", 0},
        {"l1d.misses", 29982},
        {"l1d.miss_rate", 1},
        {"l1d.mshr_merges", 18},
        {"l1d.mshr_stalls", 57897},
        {"l1d.writebacks", 198},
        {"l1d.prefetches", 0},
        {"l2.hits", 199},
        {"l2.misses", 1989},
        {"l2.miss_rate", 0.90904936014625226},
        {"l2.mshr_merges", 13},
        {"l2.mshr_stalls", 1938},
        {"l2.writebacks", 0},
        {"l2.prefetches", 13},
        {"dram.reads", 2002},
        {"dram.writes", 0},
        {"prefetches_issued", 29888},
    };
    const StatRecord r = mem.record();
    EXPECT_EQ(r.all().size(), std::size(golden));
    for (const auto &[name, value] : golden)
        EXPECT_EQ(r.get(name), value) << name;
}

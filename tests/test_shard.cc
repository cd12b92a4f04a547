/**
 * @file
 * Tests for sharded sweeps (sim/shard.hh) and the content-addressed
 * result store (sim/store.hh): deterministic coordinator-free cell
 * partitioning, merge-of-N byte-identical to the single-host artifact
 * (plain, sampled re-warm and warm-once-checkpointed engines, across
 * --jobs and trace-cache settings), line-numbered rejection of
 * corrupted or inconsistent partials, store key stability, hit/miss/
 * eviction behaviour, whole-or-nothing object writes, and
 * zero-cells-computed warm re-runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include <sys/resource.h>

#include "common/hash.hh"
#include "sim/artifact.hh"
#include "sim/plans.hh"
#include "sim/sample/sample.hh"
#include "sim/shard.hh"
#include "sim/store.hh"
#include "sim/sweep.hh"

using namespace eole;

namespace {

constexpr std::uint64_t kHosts = 3;

/** The 2x2 smoke plan pinned at explicit short run lengths. */
ExperimentPlan
tinyPlan()
{
    ExperimentPlan p = plans::get("smoke");
    p.warmup = 2000;
    p.measure = 20000;
    return p;
}

/** Run all kHosts slices with deliberately heterogeneous worker counts
 *  and trace-cache budgets, round-tripping each partial through its
 *  text form — merging must erase every execution-environment
 *  difference. */
std::vector<ShardArtifact>
runAllShards(const ExperimentPlan &plan, const SampleSpec &spec,
             SweepOptions base)
{
    std::vector<ShardArtifact> parts;
    for (std::uint64_t h = 0; h < kHosts; ++h) {
        SweepOptions o = base;
        o.jobs = static_cast<int>(h) + 1;
        o.shard.hosts = kHosts;
        o.shard.host = h;
        // Odd hosts spill every recording to a mapped file.
        if (h % 2)
            setenv("EOLE_TRACE_CACHE_MB", "0", 1);
        const ShardArtifact part = runShard(plan, spec, o);
        unsetenv("EOLE_TRACE_CACHE_MB");

        std::istringstream is(shardArtifactString(part));
        ShardArtifact back;
        std::string err;
        EXPECT_TRUE(tryReadShardArtifact(is, &back, &err)) << err;
        parts.push_back(std::move(back));
    }
    return parts;
}

/** A scratch directory under the test's cwd, fresh per call. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = "test_shard_" + name + ".tmp";
    std::filesystem::remove_all(dir);
    return dir;
}

StoreKey
sampleKey()
{
    StoreKey key;
    key.kind = "cell";
    key.config = "EOLE_4_64";
    key.params = {{"core.issueWidth", "4"}, {"vp.kind", "VTAGE"}};
    key.workload = "164.gzip";
    key.seed = 12345;
    key.warmup = 2000;
    key.measure = 20000;
    return key;
}

} // namespace

TEST(Shard, AssignmentPartitionsEveryCell)
{
    const ExperimentPlan p = tinyPlan();
    for (const SimConfig &c : p.configs) {
        for (const std::string &w : p.workloads) {
            const std::uint64_t s =
                shardOfCell(p.seed, c.seed, c.name, w, kHosts);
            EXPECT_LT(s, kHosts);
            // Stable: the assignment is a pure function.
            EXPECT_EQ(s, shardOfCell(p.seed, c.seed, c.name, w, kHosts));
            std::size_t owners = 0;
            for (std::uint64_t h = 0; h < kHosts; ++h) {
                ShardSlice slice{kHosts, h};
                if (slice.owns(p.seed, c.seed, c.name, w))
                    ++owners;
            }
            EXPECT_EQ(owners, 1u);
        }
    }
    // A disabled slice owns everything.
    ShardSlice off;
    EXPECT_FALSE(off.enabled());
    EXPECT_TRUE(off.owns(p.seed, 0, "any", "thing"));
}

TEST(Shard, MergeByteIdenticalToSingleHostPlain)
{
    const ExperimentPlan p = tinyPlan();
    SweepOptions single;
    single.jobs = 2;
    const std::string want = jsonArtifactString(runPlan(p, single));

    const auto parts = runAllShards(p, SampleSpec{}, SweepOptions{});
    std::size_t cells = 0;
    for (const ShardArtifact &s : parts)
        cells += s.cells.size();
    EXPECT_EQ(cells, p.gridSize());

    const PlanResult merged = mergeShardArtifacts(parts);
    EXPECT_EQ(jsonArtifactString(merged), want);
}

TEST(Shard, MergeByteIdenticalToSingleHostSampledRewarm)
{
    const ExperimentPlan p = tinyPlan();
    // A warming bound no shorter than any prefix: every interval
    // re-warms from µ-op 0 (the per-interval warming path).
    const SampleSpec spec =
        parseSampleSpec("3:2000:1000:18446744073709551615");

    SweepOptions single;
    single.jobs = 2;
    const std::string want =
        jsonArtifactString(runSampledPlan(p, spec, single));

    const PlanResult merged =
        mergeShardArtifacts(runAllShards(p, spec, SweepOptions{}));
    EXPECT_EQ(jsonArtifactString(merged), want);
}

TEST(Shard, MergeByteIdenticalToSingleHostWarmOnce)
{
    const ExperimentPlan p = tinyPlan();
    const SampleSpec spec = parseSampleSpec("3:2000:1000");

    SweepOptions single;
    single.jobs = 2;
    const PlanResult full = runSampledPlan(p, spec, single);
    // Prove the warm-once checkpoint path (not silent re-warming)
    // produced the merged numbers.
    for (const RunResult &cell : full.cells)
        EXPECT_GT(cell.stats.get("sample_restored_intervals"), 0.0);

    const PlanResult merged =
        mergeShardArtifacts(runAllShards(p, spec, SweepOptions{}));
    EXPECT_EQ(jsonArtifactString(merged), jsonArtifactString(full));
}

TEST(Shard, MergeRejectsMissingDuplicateAndForeignShards)
{
    const ExperimentPlan p = tinyPlan();
    const auto parts = runAllShards(p, SampleSpec{}, SweepOptions{});

    PlanResult out;
    std::string err;

    // Missing shard: coverage must fail with a which-slot diagnostic.
    std::vector<ShardArtifact> missing(parts.begin(), parts.end() - 1);
    EXPECT_FALSE(tryMergeShardArtifacts(missing, &out, &err));
    EXPECT_NE(err.find("covered by no partial"), std::string::npos)
        << err;

    // Duplicate shard index.
    std::vector<ShardArtifact> dup = parts;
    dup.push_back(parts.front());
    EXPECT_FALSE(tryMergeShardArtifacts(dup, &out, &err));
    EXPECT_NE(err.find("appears twice"), std::string::npos) << err;

    // A partial from a different run (seed drift) must be refused
    // even though its cells would slot in.
    std::vector<ShardArtifact> foreign = parts;
    foreign.back().seed ^= 1;
    EXPECT_FALSE(tryMergeShardArtifacts(foreign, &out, &err));
    EXPECT_NE(err.find("disagree on plan seed"), std::string::npos)
        << err;

    // Slot collision: two partials claiming one slot.
    std::vector<ShardArtifact> collide = parts;
    ASSERT_FALSE(collide[0].cells.empty());
    ASSERT_FALSE(collide[1].cells.empty());
    collide[1].cells.front().slot = collide[0].cells.front().slot;
    EXPECT_FALSE(tryMergeShardArtifacts(collide, &out, &err));
    EXPECT_NE(err.find("owned by two partials"), std::string::npos)
        << err;

    EXPECT_FALSE(tryMergeShardArtifacts({}, &out, &err));
}

TEST(Shard, ReaderRejectsCorruptionWithLineNumbers)
{
    const ExperimentPlan p = tinyPlan();
    SweepOptions o;
    o.shard.hosts = kHosts;
    o.shard.host = 0;
    const std::string text =
        shardArtifactString(runShard(p, SampleSpec{}, o));

    ShardArtifact out;
    std::string err;

    // Wrong schema word: rejected at line 1.
    {
        std::istringstream is("eole-shard-v9\n");
        EXPECT_FALSE(tryReadShardArtifact(is, &out, &err));
        EXPECT_NE(err.find("shard artifact line 1:"), std::string::npos)
            << err;
    }
    // Truncation at every prefix length must be a diagnostic naming a
    // line, never a crash or a silent success (the half-copied-shard
    // case the text format exists for).
    for (std::size_t cut = 0; cut + 1 < text.size();
         cut += 1 + text.size() / 37) {
        std::istringstream is(text.substr(0, cut));
        err.clear();
        EXPECT_FALSE(tryReadShardArtifact(is, &out, &err));
        EXPECT_NE(err.find("shard artifact line"), std::string::npos)
            << "cut at " << cut << ": " << err;
    }
    // A corrupted stat value names its exact line.
    {
        std::string bad = text;
        const std::size_t pos = bad.find("s ipc = ");
        ASSERT_NE(pos, std::string::npos);
        const std::size_t val = bad.find(" = ", pos) + 3;
        bad.replace(val, bad.find('\n', val) - val, "not-a-number");
        const int line = 1
            + static_cast<int>(std::count(bad.begin(),
                                          bad.begin()
                                              + static_cast<long>(pos),
                                          '\n'));
        std::istringstream is(bad);
        EXPECT_FALSE(tryReadShardArtifact(is, &out, &err));
        EXPECT_NE(err.find("shard artifact line "
                           + std::to_string(line)),
                  std::string::npos) << err;
        EXPECT_NE(err.find("bad stat value"), std::string::npos) << err;
    }
    // An intact artifact still reads after all that.
    {
        std::istringstream is(text);
        EXPECT_TRUE(tryReadShardArtifact(is, &out, &err)) << err;
        EXPECT_EQ(out.hosts, kHosts);
        EXPECT_EQ(out.cellsTotal, p.gridSize());
    }
}

TEST(Store, KeyHashStableAndSensitiveToEveryField)
{
    const StoreKey base = sampleKey();
    const std::string h = storeKeyHash(base);
    EXPECT_EQ(h.size(), 64u);
    EXPECT_EQ(h, storeKeyHash(base));  // same inputs => same key

    // Any single field change must produce a new key.
    std::vector<StoreKey> variants(9, base);
    variants[0].kind = "ckpt";
    variants[1].config = "EOLE_4_65";
    variants[2].params[0].second = "6";
    variants[3].workload = "186.crafty";
    variants[4].seed += 1;
    variants[5].warmup += 1;
    variants[6].measure += 1;
    variants[7].sample = parseSampleSpec("4:1000:500");
    variants[8].index = 7;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        EXPECT_NE(storeKeyHash(variants[i]), h) << "variant " << i;
        for (std::size_t j = i + 1; j < variants.size(); ++j) {
            EXPECT_NE(storeKeyHash(variants[i]),
                      storeKeyHash(variants[j]))
                << "variants " << i << " vs " << j;
        }
    }

    // SHA-256 itself against a FIPS 180-4 reference vector.
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Store, CellPayloadRoundTripsAndRejectsCorruption)
{
    StatRecord stats;
    stats.add("ipc", 1.234567890123456789);
    stats.add("cycles", 424242.0);
    const std::string text = cellPayloadText(stats);

    StatRecord back;
    std::string err;
    ASSERT_TRUE(tryParseCellPayload(text, &back, &err)) << err;
    // %.17g round-trip exactness is what makes cache-hit artifacts
    // byte-identical to computed ones.
    EXPECT_EQ(back.get("ipc"), stats.get("ipc"));
    EXPECT_EQ(back.get("cycles"), stats.get("cycles"));
    EXPECT_EQ(cellPayloadText(back), text);

    EXPECT_FALSE(tryParseCellPayload("eole-store-cell-v9\n", &back,
                                     &err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    std::string bad = text;
    bad.replace(bad.find("= 424242"), 8, "= oops42");
    EXPECT_FALSE(tryParseCellPayload(bad, &back, &err));
    // schema, count, ipc, then the mangled cycles line.
    EXPECT_NE(err.find("line 4"), std::string::npos) << err;
    EXPECT_FALSE(tryParseCellPayload(
        text.substr(0, text.size() - 5), &back, &err));
    EXPECT_NE(err.find("line"), std::string::npos) << err;
}

TEST(Store, HitMissPersistenceAndLruEviction)
{
    const std::string dir = scratchDir("lru");
    StoreKey a = sampleKey(), b = sampleKey(), c = sampleKey();
    b.seed += 1;
    c.seed += 2;

    {
        Store store(dir);
        store.put(a, "payload-a");
        store.put(b, "payload-b");
        store.put(c, "payload-c");
        std::string payload;
        EXPECT_FALSE(store.get(std::string(64, '0'), &payload));
        EXPECT_TRUE(store.get(storeKeyHash(b), &payload));
        EXPECT_EQ(payload, "payload-b");
    }
    {
        // Reopen: index, payloads and recency survive.
        Store store(dir);
        EXPECT_EQ(store.entries().size(), 3u);
        EXPECT_TRUE(store.contains(storeKeyHash(a)));

        // Recency survived the reopen: b was read after c was
        // inserted, so after this hit on `a` the LRU victim is `c`.
        std::string payload;
        EXPECT_TRUE(store.get(storeKeyHash(a), &payload));
        std::vector<Store::Entry> evicted;
        EXPECT_EQ(store.gc(2, ~0ULL, &evicted), 1u);
        ASSERT_EQ(evicted.size(), 1u);
        EXPECT_EQ(evicted[0].hash, storeKeyHash(c));
        EXPECT_FALSE(store.contains(storeKeyHash(c)));
        EXPECT_TRUE(store.contains(storeKeyHash(a)));
        EXPECT_TRUE(store.contains(storeKeyHash(b)));

        // Byte bound: evict until the total payload fits. `b` (tick
        // older than the just-bumped `a`) goes next.
        EXPECT_EQ(store.gc(~0ULL, 9, &evicted), 1u);
        EXPECT_EQ(store.entries().size(), 1u);
    }
    {
        // Eviction persisted; the object files are gone too.
        Store store(dir);
        EXPECT_EQ(store.entries().size(), 1u);
        std::string payload;
        EXPECT_FALSE(store.get(storeKeyHash(b), &payload));
        EXPECT_TRUE(store.get(storeKeyHash(a), &payload));
        EXPECT_EQ(payload, "payload-a");
    }
    std::filesystem::remove_all(dir);
}

TEST(Store, FailedRewriteKeepsTheIndexedObject)
{
    // A cell that recomputes re-puts its keys, also ones still indexed.
    // A writer that fails part-way (here at the file size limit, in a
    // forked child) must leave the indexed object as it was.
    const std::string dir = scratchDir("rewrite");
    const StoreKey key = sampleKey();
    {
        Store store(dir);
        store.put(key, "payload-a");
        const auto putUnderSizeLimit = [&] {
            std::signal(SIGXFSZ, SIG_IGN);
            const struct rlimit cap = {64 * 1024, 64 * 1024};
            ::setrlimit(RLIMIT_FSIZE, &cap);
            store.put(key, std::string(256 * 1024, 'x'));
        };
        EXPECT_EXIT(putUnderSizeLimit(), ::testing::ExitedWithCode(1),
                    "object");

        std::string payload;
        EXPECT_TRUE(store.get(storeKeyHash(key), &payload));
        EXPECT_EQ(payload, "payload-a");
    }
    // Only the object itself is left in objects/.
    std::size_t entries = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator(dir + "/objects"))
        ++entries;
    EXPECT_EQ(entries, 1u);
    std::filesystem::remove_all(dir);
}

TEST(Store, WarmRunComputesZeroCellsAndStaysByteIdentical)
{
    const ExperimentPlan p = tinyPlan();
    const std::string dir = scratchDir("warm");

    std::string cold, warm;
    {
        Store store(dir);
        SweepOptions o;
        o.store = &store;
        const PlanResult r = runPlan(p, o);
        EXPECT_EQ(r.storeHits, 0u);
        EXPECT_EQ(r.storeComputed, p.gridSize());
        cold = jsonArtifactString(r);
    }
    {
        Store store(dir);
        SweepOptions o;
        o.store = &store;
        o.jobs = 3;  // environment differences must not matter on
                     // the cache-hit path
        setenv("EOLE_TRACE_CACHE_MB", "0", 1);
        const PlanResult r = runPlan(p, o);
        unsetenv("EOLE_TRACE_CACHE_MB");
        EXPECT_EQ(r.storeHits, p.gridSize());
        EXPECT_EQ(r.storeComputed, 0u);
        warm = jsonArtifactString(r);
    }
    EXPECT_EQ(cold, warm);

    // A filtered re-run hits the store for the matching cells only.
    {
        Store store(dir);
        SweepOptions o;
        o.store = &store;
        o.filter = "164.gzip";
        const PlanResult r = runPlan(p, o);
        EXPECT_EQ(r.storeHits, r.cells.size());
        EXPECT_EQ(r.storeComputed, 0u);
    }
    std::filesystem::remove_all(dir);
}

TEST(Store, SampledWarmRunComputesZeroCells)
{
    const ExperimentPlan p = tinyPlan();
    const SampleSpec spec = parseSampleSpec("3:2000:1000");
    const std::string dir = scratchDir("sampled");

    std::string cold, warm;
    {
        Store store(dir);
        SweepOptions o;
        o.store = &store;
        const PlanResult r = runSampledPlan(p, spec, o);
        EXPECT_EQ(r.storeComputed, p.gridSize());
        cold = jsonArtifactString(r);
    }
    {
        Store store(dir);
        SweepOptions o;
        o.store = &store;
        const PlanResult r = runSampledPlan(p, spec, o);
        EXPECT_EQ(r.storeHits, p.gridSize());
        EXPECT_EQ(r.storeComputed, 0u);
        warm = jsonArtifactString(r);
    }
    EXPECT_EQ(cold, warm);

    // The sample spec is part of the key: a different spec (and a
    // full run) must miss rather than alias the sampled results.
    {
        Store store(dir);
        SweepOptions o;
        o.store = &store;
        const PlanResult r =
            runSampledPlan(p, parseSampleSpec("4:2000:1000"), o);
        EXPECT_EQ(r.storeHits, 0u);
        const PlanResult full = runPlan(p, o);
        EXPECT_EQ(full.storeHits, 0u);
    }
    std::filesystem::remove_all(dir);
}

TEST(Store, ShardedRunsShareOneStore)
{
    const ExperimentPlan p = tinyPlan();
    const std::string dir = scratchDir("shard");

    // Cold: the three shards together compute every cell once.
    std::size_t computed = 0;
    for (std::uint64_t h = 0; h < kHosts; ++h) {
        Store store(dir);
        SweepOptions o;
        o.store = &store;
        o.shard.hosts = kHosts;
        o.shard.host = h;
        const ShardArtifact part = runShard(p, SampleSpec{}, o);
        EXPECT_EQ(part.storeHits, 0u);
        computed += part.storeComputed;
    }
    EXPECT_EQ(computed, p.gridSize());

    // Warm: a single-host run over the same store computes nothing —
    // shard and plain runs share the same cell keys.
    Store store(dir);
    SweepOptions o;
    o.store = &store;
    const PlanResult r = runPlan(p, o);
    EXPECT_EQ(r.storeHits, p.gridSize());
    EXPECT_EQ(r.storeComputed, 0u);
    std::filesystem::remove_all(dir);
}

/**
 * @file
 * Unit tests for the common substrate: saturating counters, RNG,
 * bounded queues, delayed pipes, stats records, FPC confidence and the
 * SHA-256 block functions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/queues.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "vpred/fpc.hh"

using namespace eole;

TEST(SatCounter, SaturatesHighAndLow)
{
    SatCounter c(2);
    EXPECT_TRUE(c.isZero());
    EXPECT_FALSE(c.decrement());
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(c.increment());
    EXPECT_TRUE(c.isSaturated());
    EXPECT_EQ(c.value(), 3u);
    EXPECT_FALSE(c.increment());
    EXPECT_EQ(c.value(), 3u);
}

TEST(SatCounter, ResetClamps)
{
    SatCounter c(3);
    c.reset(99);
    EXPECT_EQ(c.value(), 7u);
    c.reset(2);
    EXPECT_EQ(c.value(), 2u);
}

TEST(SignedSatCounter, RangeAndPrediction)
{
    SignedSatCounter c(3, 0);
    EXPECT_EQ(c.min(), -4);
    EXPECT_EQ(c.max(), 3);
    EXPECT_TRUE(c.predictTaken());
    EXPECT_TRUE(c.isWeak());
    for (int i = 0; i < 10; ++i)
        c.update(true);
    EXPECT_EQ(c.value(), 3);
    EXPECT_TRUE(c.isSaturated());
    for (int i = 0; i < 10; ++i)
        c.update(false);
    EXPECT_EQ(c.value(), -4);
    EXPECT_FALSE(c.predictTaken());
    EXPECT_TRUE(c.isSaturated());
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    bool all_equal = true;
    bool any_diff_seed_diff = false;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t va = a.next();
        all_equal = all_equal && va == b.next();
        any_diff_seed_diff = any_diff_seed_diff || va != c.next();
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_seed_diff);
}

TEST(Rng, BoundedAndRoughlyUniform)
{
    Rng r(7);
    int buckets[10] = {};
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t v = r.below(10);
        ASSERT_LT(v, 10u);
        ++buckets[v];
    }
    for (int b = 0; b < 10; ++b) {
        EXPECT_NEAR(buckets[b], n / 10, n / 100);
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(11);
    int hits = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(1.0 / 32);
    EXPECT_NEAR(hits / double(n), 1.0 / 32, 0.003);
}

TEST(CircularQueue, FifoOrderAndWraparound)
{
    CircularQueue<int> q(4);
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 4; ++i)
            q.pushBack(round * 10 + i);
        EXPECT_TRUE(q.full());
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(q.popFront(), round * 10 + i);
        EXPECT_TRUE(q.empty());
    }
}

TEST(CircularQueue, PopBackForSquash)
{
    CircularQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.pushBack(i);
    EXPECT_EQ(q.popBack(), 5);
    EXPECT_EQ(q.popBack(), 4);
    EXPECT_EQ(q.back(), 3);
    EXPECT_EQ(q.front(), 0);
    EXPECT_EQ(q.size(), 4u);
}

TEST(CircularQueue, IndexedAccessFromHead)
{
    CircularQueue<int> q(4);
    q.pushBack(1);
    q.pushBack(2);
    q.popFront();
    q.pushBack(3);
    q.pushBack(4);
    q.pushBack(5);  // wraps internally
    EXPECT_EQ(q.at(0), 2);
    EXPECT_EQ(q.at(3), 5);
}

TEST(DelayedPipe, EnforcesLatency)
{
    DelayedPipe<int> p(3, 2);
    p.push(10, 1);
    EXPECT_FALSE(p.canPop(10));
    EXPECT_FALSE(p.canPop(12));
    EXPECT_TRUE(p.canPop(13));
    EXPECT_EQ(p.pop(13), 1);
}

TEST(DelayedPipe, EnforcesBandwidth)
{
    DelayedPipe<int> p(1, 2);
    EXPECT_TRUE(p.canPush(5));
    p.push(5, 1);
    p.push(5, 2);
    EXPECT_FALSE(p.canPush(5));
    EXPECT_TRUE(p.canPush(6));
}

TEST(DelayedPipe, EnforcesCapacity)
{
    DelayedPipe<int> p(10, 0, 3);
    p.push(0, 1);
    p.push(0, 2);
    p.push(0, 3);
    EXPECT_FALSE(p.canPush(0));
    EXPECT_FALSE(p.canPush(1));
}

TEST(DelayedPipe, RemoveIfDropsMatching)
{
    DelayedPipe<int> p(1, 0);
    for (int i = 0; i < 6; ++i)
        p.push(0, i);
    p.removeIf([](int v) { return v % 2 == 0; });
    EXPECT_EQ(p.size(), 3u);
    EXPECT_EQ(p.pop(100), 1);
    EXPECT_EQ(p.pop(100), 3);
    EXPECT_EQ(p.pop(100), 5);
}

namespace {

/** Drain wheel @p w up to @p now into a flat (cycle, value) list. */
template <typename Wheel>
std::vector<std::pair<Cycle, int>>
drained(Wheel &w, Cycle now)
{
    std::vector<std::pair<Cycle, int>> out;
    w.drainUpTo(now, [&](Cycle c, int v) { out.emplace_back(c, v); });
    return out;
}

} // namespace

TEST(TimingWheel, DrainsInCycleOrderInsertionOrderWithinCycle)
{
    TimingWheel<int, 8> w;
    w.schedule(5, 50);
    w.schedule(3, 30);
    w.schedule(5, 51);   // same cycle: must come out after 50
    w.schedule(4, 40);
    EXPECT_EQ(w.size(), 4u);

    const auto out = drained(w, 4);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (std::pair<Cycle, int>{3, 30}));
    EXPECT_EQ(out[1], (std::pair<Cycle, int>{4, 40}));
    EXPECT_EQ(w.size(), 2u);
    EXPECT_EQ(w.drainCursor(), 5u);

    const auto rest = drained(w, 10);
    ASSERT_EQ(rest.size(), 2u);
    EXPECT_EQ(rest[0], (std::pair<Cycle, int>{5, 50}));
    EXPECT_EQ(rest[1], (std::pair<Cycle, int>{5, 51}));
    EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, OverflowBeyondHorizonDrainsCorrectly)
{
    TimingWheel<int, 8> w;
    // Distance >= Horizon goes to the overflow map; it must still
    // interleave correctly with wheel-resident cycles.
    w.schedule(20, 200);  // overflow (20 - 0 >= 8)
    w.schedule(2, 21);    // wheel
    w.schedule(9, 90);    // overflow (9 - 0 >= 8)
    EXPECT_EQ(w.size(), 3u);

    const auto out = drained(w, 25);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], (std::pair<Cycle, int>{2, 21}));
    EXPECT_EQ(out[1], (std::pair<Cycle, int>{9, 90}));
    EXPECT_EQ(out[2], (std::pair<Cycle, int>{20, 200}));
    EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, SameCycleSplitBetweenOverflowAndWheelKeepsOrder)
{
    TimingWheel<int, 8> w;
    w.schedule(10, 100);  // overflow (distance 10 >= 8)
    // Drain nothing but slide the window so cycle 10 becomes
    // wheel-reachable, then schedule the same cycle again: the second
    // event must append to the overflow entry, not the wheel slot,
    // to keep within-cycle insertion order.
    w.drainUpTo(4, [](Cycle, int) { FAIL() << "nothing due yet"; });
    w.schedule(10, 101);
    const auto out = drained(w, 12);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (std::pair<Cycle, int>{10, 100}));
    EXPECT_EQ(out[1], (std::pair<Cycle, int>{10, 101}));
}

TEST(TimingWheel, ForwardTimeJumpBoundedByHorizon)
{
    TimingWheel<int, 8> w;
    w.schedule(1, 10);
    w.schedule(100, 1000);  // overflow
    // A functional-warm style jump far past everything: one drain call
    // visits each wheel slot at most once and still delivers both.
    const auto out = drained(w, 1000000);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (std::pair<Cycle, int>{1, 10}));
    EXPECT_EQ(out[1], (std::pair<Cycle, int>{100, 1000}));
    EXPECT_EQ(w.drainCursor(), 1000001u);
    // The wheel keeps working after the jump.
    w.schedule(1000002, 7);
    const auto later = drained(w, 1000002);
    ASSERT_EQ(later.size(), 1u);
    EXPECT_EQ(later[0], (std::pair<Cycle, int>{1000002, 7}));
}

TEST(TimingWheel, ClearDropsEverything)
{
    TimingWheel<int, 8> w;
    w.schedule(1, 1);
    w.schedule(30, 3);  // overflow too
    w.clear();
    EXPECT_TRUE(w.empty());
    EXPECT_TRUE(drained(w, 50).empty());
}

TEST(TimingWheel, SchedulingBehindTheCursorPanics)
{
    TimingWheel<int, 8> w;
    w.drainUpTo(10, [](Cycle, int) {});
    EXPECT_DEATH(w.schedule(5, 1), "behind drain cursor");
}

TEST(StatRecord, GetAndPrefix)
{
    StatRecord a;
    a.add("x", 1.5);
    StatRecord b;
    b.add("hits", 10);
    a.addAll("l1.", b);
    EXPECT_DOUBLE_EQ(a.get("x"), 1.5);
    EXPECT_DOUBLE_EQ(a.get("l1.hits"), 10.0);
    EXPECT_FALSE(a.has("missing"));
    EXPECT_DOUBLE_EQ(a.get("missing"), 0.0);
}

TEST(Fpc, ResetsOnWrong)
{
    Fpc fpc({1.0, 1.0, 1.0});
    Rng rng(3);
    std::uint8_t c = 0;
    fpc.update(c, true, rng);
    fpc.update(c, true, rng);
    EXPECT_EQ(c, 2);
    fpc.update(c, false, rng);
    EXPECT_EQ(c, 0);
}

TEST(Fpc, DeterministicVectorSaturates)
{
    Fpc fpc({1.0, 1.0, 1.0});
    Rng rng(3);
    std::uint8_t c = 0;
    for (int i = 0; i < 3; ++i)
        fpc.update(c, true, rng);
    EXPECT_TRUE(fpc.saturated(c));
    // Saturated counters stay saturated on further correct outcomes.
    fpc.update(c, true, rng);
    EXPECT_EQ(c, fpc.max());
}

TEST(Fpc, PaperVectorNeedsManyCorrectPredictions)
{
    // With v = {1, 4x 1/32, 2x 1/64}, the expected number of correct
    // predictions to saturate is 1 + 4*32 + 2*64 = 257. Check the
    // empirical mean over many trials is in that ballpark.
    Fpc fpc;  // paper vector
    Rng rng(17);
    double total = 0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
        std::uint8_t c = 0;
        int steps = 0;
        while (!fpc.saturated(c)) {
            fpc.update(c, true, rng);
            ++steps;
        }
        total += steps;
    }
    EXPECT_NEAR(total / trials, 257.0, 30.0);
}

TEST(Fpc, RejectsBadVectors)
{
    EXPECT_DEATH({ Fpc bad(std::vector<double>{}); }, "");
    EXPECT_DEATH({ Fpc bad(std::vector<double>{0.0}); }, "");
    EXPECT_DEATH({ Fpc bad(std::vector<double>{2.0}); }, "");
}

namespace {

/** SHA-256 of @p msg through block function @p fn alone: the FIPS
 *  180-4 padding is done here, independently of Sha256. */
std::string
digestWith(Sha256BlockFn fn, const std::string &msg)
{
    std::uint32_t state[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                              0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                              0x1f83d9abu, 0x5be0cd19u};
    std::string padded = msg + '\x80';
    padded.append((119 - msg.size() % 64) % 64, '\0');
    const std::uint64_t bits = std::uint64_t(msg.size()) * 8;
    for (int i = 0; i < 8; ++i)
        padded += static_cast<char>(bits >> (56 - 8 * i));
    fn(state, reinterpret_cast<const unsigned char *>(padded.data()),
       padded.size() / 64);
    char hex[65];
    for (int i = 0; i < 8; ++i)
        std::snprintf(hex + 8 * i, 9, "%08x", state[i]);
    return hex;
}

std::string
pseudoRandomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::string s(n, '\0');
    for (char &c : s)
        c = static_cast<char>(rng.next());
    return s;
}

} // namespace

TEST(Sha256, BlockFunctionsMatchFipsVectorsAndEachOther)
{
    const bool hardware = sha256Blocks() != sha256BlocksPortable;
    std::printf("SHA-256 block function on this host: %s\n",
                hardware ? "SHA extensions" : "portable");

    // FIPS 180-4 / NIST CSRC examples, through both block functions
    // directly and through the dispatched Sha256.
    const std::vector<std::pair<std::string, std::string>> vectors = {
        {"",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        {"abc",
         "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
         "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
         "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
        {std::string(1000000, 'a'),
         "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
    };
    for (const auto &[msg, want] : vectors) {
        EXPECT_EQ(digestWith(sha256BlocksPortable, msg), want) << msg.size();
        EXPECT_EQ(digestWith(sha256Blocks(), msg), want) << msg.size();
        EXPECT_EQ(sha256Hex(msg), want) << msg.size();
    }

    // Every length across the padding boundaries (55/56, 63/64, ...).
    const std::string bytes = pseudoRandomBytes(300, 11);
    for (std::size_t n = 0; n <= bytes.size(); ++n) {
        const std::string msg = bytes.substr(0, n);
        EXPECT_EQ(sha256Hex(msg), digestWith(sha256BlocksPortable, msg))
            << "length " << n;
    }
}

TEST(Sha256, SplitAndUnalignedUpdatesHashLikeOneCall)
{
    // A multi-MB buffer (not a whole number of blocks), fed whole, in
    // pieces of 1, 63, 64, 65 and 4096 bytes, and from unaligned start
    // addresses: every way must give the portable function's digest.
    const std::string big = pseudoRandomBytes((3u << 20) + 37, 23);
    const std::string want = digestWith(sha256BlocksPortable, big);
    EXPECT_EQ(sha256Hex(big), want);

    Rng rng(5);
    const std::size_t pieces[] = {1, 63, 64, 65, 4096};
    for (std::size_t offset = 0; offset < 8; ++offset) {
        // Copy into a buffer whose payload starts `offset` bytes past
        // an aligned address.
        std::vector<unsigned char> shifted(big.size() + 8);
        std::copy(big.begin(), big.end(), shifted.begin() + offset);
        const unsigned char *p = shifted.data() + offset;

        Sha256 h;
        std::size_t done = 0;
        while (done < big.size()) {
            const std::size_t take =
                std::min(pieces[rng.next() % 5], big.size() - done);
            h.update(p + done, take);
            done += take;
        }
        EXPECT_EQ(h.hexDigest(), want) << "offset " << offset;
    }
}

/**
 * @file
 * Tests for the slab allocator behind DynInstPtr (common/slab.hh):
 * recycle/reuse ordering, exhaustion growth, refcount lifetime (a
 * handle parked in a completion-wheel-style container keeps a squashed
 * µ-op alive), pool-outlived-by-handle fail-fast, and a
 * torture-generator-driven squash-storm churn run proving the pool's
 * footprint tracks the in-flight window, not the total µ-op count.
 * This suite is part of the AddressSanitizer lane (scripts/check.sh
 * --sample): free slots are poisoned there, so any use-after-release
 * the refcounting failed to prevent faults instead of reading
 * recycled state.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/slab.hh"
#include "pipeline/core.hh"
#include "sim/configs.hh"
#include "workloads/torture_gen.hh"
#include "workloads/workload.hh"

using namespace eole;

TEST(Slab, ReuseOrderingIsLifo)
{
    SlabPool<int> pool(4);
    PooledPtr<int> a = pool.allocate(1);
    PooledPtr<int> b = pool.allocate(2);
    int *const pa = a.get();
    int *const pb = b.get();
    EXPECT_NE(pa, pb);
    EXPECT_EQ(pool.live(), 2u);

    // Free b then a: the LIFO free list hands the slots back in
    // reverse free order (a's slot first).
    b.reset();
    a.reset();
    EXPECT_EQ(pool.live(), 0u);

    PooledPtr<int> c = pool.allocate(3);
    PooledPtr<int> d = pool.allocate(4);
    EXPECT_EQ(c.get(), pa);
    EXPECT_EQ(d.get(), pb);
    EXPECT_EQ(*c, 3);
    EXPECT_EQ(*d, 4);
}

TEST(Slab, ExhaustionGrowsANewBlock)
{
    SlabPool<int> pool(2);
    std::vector<PooledPtr<int>> held;
    for (int i = 0; i < 5; ++i)
        held.push_back(pool.allocate(i));

    EXPECT_EQ(pool.live(), 5u);
    EXPECT_EQ(pool.capacity(), 6u);  // three 2-slot blocks
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(*held[i], i);
        for (int j = i + 1; j < 5; ++j)
            EXPECT_NE(held[i].get(), held[j].get());
    }

    held.clear();
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_EQ(pool.capacity(), 6u);  // blocks are kept, never returned
}

TEST(Slab, RefcountSharesOneObject)
{
    SlabPool<int> pool;
    PooledPtr<int> a = pool.allocate(41);
    EXPECT_EQ(a.useCount(), 1u);

    PooledPtr<int> b = a;
    EXPECT_EQ(a.useCount(), 2u);
    EXPECT_TRUE(a == b);
    *b += 1;
    EXPECT_EQ(*a, 42);

    PooledPtr<int> c = std::move(a);
    EXPECT_FALSE(a);  // moved-from is null, not a third owner
    EXPECT_EQ(c.useCount(), 2u);

    b.reset();
    EXPECT_EQ(c.useCount(), 1u);
    EXPECT_EQ(pool.live(), 1u);
    c.reset();
    EXPECT_EQ(pool.live(), 0u);
}

TEST(Slab, WheelHeldHandleOutlivesEveryOtherOwner)
{
    // The completion-wheel scenario: a µ-op is squashed and every
    // pipeline structure drops its handle, but the completion wheel
    // still holds one until the ready cycle drains. The refcount —
    // not luck — must keep the object alive; under ASan a recycled
    // slot is poisoned, so getting this wrong faults here.
    SlabPool<DynInst> pool(8);
    std::map<Cycle, std::vector<PooledPtr<DynInst>>> wheel;

    PooledPtr<DynInst> di = pool.allocate();
    di->seq = 7;
    wheel[12].push_back(di);

    di->squashed = true;
    di.reset();  // the "pipeline" is done with it
    EXPECT_EQ(pool.live(), 1u);

    // Drain the wheel later: the handle still dereferences safely.
    for (auto &[ready, insts] : wheel) {
        EXPECT_EQ(ready, 12u);
        ASSERT_EQ(insts.size(), 1u);
        EXPECT_TRUE(insts[0]->squashed);
        EXPECT_EQ(insts[0]->seq, 7u);
    }
    wheel.clear();
    EXPECT_EQ(pool.live(), 0u);
}

TEST(SlabDeathTest, PoolDestroyedWithLiveHandlePanics)
{
    auto pool = std::make_unique<SlabPool<int>>(4);
    PooledPtr<int> leaked = pool->allocate(1);
    EXPECT_DEATH(pool.reset(), "live object");
    // The death ran in a forked child; here the pool is still intact,
    // so release the handle first and destroy it cleanly.
    leaked.reset();
    pool.reset();
}

TEST(Slab, SquashStormChurnKeepsFootprintBounded)
{
    // Torture programs under the VP baseline squash constantly (value
    // mispredictions, branch mispredictions, memory-order violations);
    // every squash churns allocate/recycle. The pool must (a) keep the
    // simulation architecturally correct — pinned here against the
    // functional oracle commit count — and (b) grow with the in-flight
    // window only, never with the total µ-op volume.
    const SimConfig cfg = configs::baselineVp(6, 64);
    std::uint64_t totalCommitted = 0;
    for (std::uint64_t seed = 0xC0DE; seed < 0xC0DE + 5; ++seed) {
        Workload w;
        w.name = "torture-" + std::to_string(seed);
        w.memBytes = workloads::tortureMemBytes;
        w.program = workloads::generateTortureProgram(seed);
        w.frozen = w.freeze(1u << 20);  // the whole program
        ASSERT_TRUE(w.frozen->complete) << "seed " << seed;

        Core core(cfg, w);
        std::uint64_t committed = 0;
        core.setCommitHook([&](const DynInst &) { ++committed; });
        core.run(~0ULL, 2000000);  // run the program to completion
        totalCommitted += committed;
        EXPECT_GT(committed, 0u);

        const DynInstPool &pool = core.pipelineState().dynInstPool;
        // Everything still live is held by an in-flight structure
        // (ROB/LSQ/IQ/front end/completion buffer) — a window, not a
        // history. Far more live objects than the ROB can hold means
        // handles are leaking somewhere.
        EXPECT_LE(pool.live(), 1024u)
            << "seed " << seed
            << ": live objects beyond any in-flight window";
        EXPECT_LE(pool.capacity(), 2048u)
            << "seed " << seed << ": pool grew with µ-op volume after "
            << committed << " commits — recycling is broken";
    }
    EXPECT_GT(totalCommitted, 1000u);
}

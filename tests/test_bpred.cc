/**
 * @file
 * Unit tests for branch prediction: global history folding and
 * checkpointing, TAGE learning behaviour and confidence, BTB, RAS and
 * the BranchUnit wrapper with speculation repair.
 */

#include <gtest/gtest.h>

#include "bpred/branch_unit.hh"
#include "bpred/btb.hh"
#include "bpred/history.hh"
#include "bpred/tage.hh"

using namespace eole;

// --------------------------- GlobalHistory ------------------------------

TEST(GlobalHistory, BitAtTracksRecentBits)
{
    GlobalHistory h({{8, 4}});
    h.push(true);
    h.push(false);
    h.push(true);
    EXPECT_TRUE(h.bitAt(1));
    EXPECT_FALSE(h.bitAt(2));
    EXPECT_TRUE(h.bitAt(3));
    EXPECT_FALSE(h.bitAt(4));  // beyond pushed history: zero
}

TEST(GlobalHistory, FoldMatchesRecomputation)
{
    const int hist_len = 12, width = 5;
    GlobalHistory h({{hist_len, width}});
    std::vector<bool> bits;
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const bool b = rng.below(2) != 0;
        bits.push_back(b);
        h.push(b);
        // Recompute the fold from scratch: XOR of width-bit chunks of
        // the most recent hist_len bits (oldest bit at the highest
        // position of the conceptual register).
        std::uint64_t reg = 0;
        for (int k = 0; k < hist_len; ++k) {
            const std::size_t idx = bits.size() >= std::size_t(k + 1)
                ? bits.size() - 1 - k : ~std::size_t(0);
            const bool bit =
                idx != ~std::size_t(0) ? bits[idx] : false;
            reg |= static_cast<std::uint64_t>(bit) << k;
        }
        std::uint32_t expect = 0;
        for (int k = 0; k < hist_len; k += width)
            expect ^= static_cast<std::uint32_t>((reg >> k)
                                                 & ((1u << width) - 1));
        EXPECT_EQ(h.folded(0), expect) << "at step " << i;
    }
}

TEST(GlobalHistory, SnapshotRestoreIsExact)
{
    GlobalHistory h({{16, 6}, {64, 10}});
    Rng rng(9);
    for (int i = 0; i < 100; ++i)
        h.push(rng.below(2) != 0);
    const auto snap = h.snapshot();
    const auto f0 = h.folded(0);
    const auto f1 = h.folded(1);
    for (int i = 0; i < 50; ++i)
        h.push(rng.below(2) != 0);
    EXPECT_NE(h.position(), snap.pos);
    h.restore(snap);
    EXPECT_EQ(h.folded(0), f0);
    EXPECT_EQ(h.folded(1), f1);
    EXPECT_EQ(h.position(), snap.pos);
}

TEST(GlobalHistory, RestoreThenReplayMatchesStraightLine)
{
    GlobalHistory a({{32, 8}}), b({{32, 8}});
    Rng rng(11);
    std::vector<bool> prefix, suffix;
    for (int i = 0; i < 80; ++i)
        prefix.push_back(rng.below(2) != 0);
    for (int i = 0; i < 40; ++i)
        suffix.push_back(rng.below(2) != 0);

    for (bool bit : prefix) {
        a.push(bit);
        b.push(bit);
    }
    // a speculates down a wrong path, then repairs and replays.
    const auto snap = a.snapshot();
    for (int i = 0; i < 25; ++i)
        a.push(i % 2 == 0);
    a.restore(snap);
    for (bool bit : suffix) {
        a.push(bit);
        b.push(bit);
    }
    EXPECT_EQ(a.folded(0), b.folded(0));
}

// -------------------------------- TAGE ----------------------------------

namespace {

/** Train TAGE on a direction function for n steps; return accuracy of
 *  the last quarter. */
double
tageAccuracy(Tage &tage, GlobalHistory &hist, int n,
             const std::function<bool(int)> &direction, Addr pc = 0x1000)
{
    int correct = 0, measured = 0;
    for (int i = 0; i < n; ++i) {
        TageLookup l;
        const bool pred = tage.predict(pc, hist, 0, l);
        const bool actual = direction(i);
        if (i >= 3 * n / 4) {
            ++measured;
            correct += pred == actual;
        }
        tage.update(pc, actual, l);
        hist.push(actual);
    }
    return double(correct) / measured;
}

} // namespace

TEST(Tage, LearnsAlwaysTaken)
{
    TageConfig cfg;
    Tage tage(cfg);
    GlobalHistory hist(tage.foldSpecs());
    EXPECT_GT(tageAccuracy(tage, hist, 2000,
                           [](int) { return true; }),
              0.999);
}

TEST(Tage, LearnsAlternation)
{
    TageConfig cfg;
    Tage tage(cfg);
    GlobalHistory hist(tage.foldSpecs());
    EXPECT_GT(tageAccuracy(tage, hist, 4000,
                           [](int i) { return i % 2 == 0; }),
              0.98);
}

TEST(Tage, LearnsLongerPeriodicPattern)
{
    TageConfig cfg;
    Tage tage(cfg);
    GlobalHistory hist(tage.foldSpecs());
    // Period-7 pattern requires the tagged history components.
    EXPECT_GT(tageAccuracy(tage, hist, 20000,
                           [](int i) { return (i % 7) < 3; }),
              0.95);
}

TEST(Tage, CannotLearnRandom)
{
    TageConfig cfg;
    Tage tage(cfg);
    GlobalHistory hist(tage.foldSpecs());
    Rng rng(1234);
    const double acc = tageAccuracy(
        tage, hist, 20000, [&](int) { return rng.below(2) != 0; });
    EXPECT_LT(acc, 0.62);
    EXPECT_GT(acc, 0.38);
}

TEST(Tage, HighConfidenceOnStronglyBiasedBranch)
{
    TageConfig cfg;
    Tage tage(cfg);
    GlobalHistory hist(tage.foldSpecs());
    int high_conf = 0, total = 0;
    for (int i = 0; i < 4000; ++i) {
        TageLookup l;
        tage.predict(0x2000, hist, 0, l);
        if (i > 2000) {
            ++total;
            high_conf += l.highConf;
        }
        tage.update(0x2000, true, l);
        hist.push(true);
    }
    EXPECT_GT(double(high_conf) / total, 0.95);
}

TEST(Tage, GeometricHistoryLengths)
{
    TageConfig cfg;
    Tage tage(cfg);
    EXPECT_EQ(tage.histLength(0), cfg.minHist);
    EXPECT_EQ(tage.histLength(cfg.numTagged - 1), cfg.maxHist);
    for (int i = 1; i < cfg.numTagged; ++i)
        EXPECT_GT(tage.histLength(i), tage.histLength(i - 1));
}

// -------------------------------- BTB -----------------------------------

TEST(Btb, StoresAndRetrievesTargets)
{
    Btb btb(6, 2);  // 64 entries
    EXPECT_EQ(btb.lookup(0x1000), 0u);
    btb.update(0x1000, 0x2000);
    EXPECT_EQ(btb.lookup(0x1000), 0x2000u);
    btb.update(0x1000, 0x3000);
    EXPECT_EQ(btb.lookup(0x1000), 0x3000u);
}

TEST(Btb, LruEvictionWithinSet)
{
    Btb btb(2, 2);  // 4 entries, 2 sets: pcs with equal set collide
    // Three branches mapping to the same set (pc>>2 % 2 equal).
    const Addr a = 0x1000, b = 0x1008, c = 0x1010;
    btb.update(a, 0xa);
    btb.update(b, 0xb);
    btb.update(a, 0xa);     // refresh a; b becomes LRU
    btb.update(c, 0xc);     // evicts b
    EXPECT_EQ(btb.lookup(a), 0xau);
    EXPECT_EQ(btb.lookup(b), 0u);
    EXPECT_EQ(btb.lookup(c), 0xcu);
}

// -------------------------------- RAS -----------------------------------

TEST(Ras, PushPopNesting)
{
    Ras ras(8);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_EQ(ras.pop(), 0u);  // empty
}

TEST(Ras, OverflowWrapsKeepingNewest)
{
    Ras ras(2);
    ras.push(1);
    ras.push(2);
    ras.push(3);  // overwrites oldest
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), 2u);
}

TEST(Ras, SnapshotRestore)
{
    Ras ras(8);
    ras.push(0xa);
    ras.push(0xb);
    const auto snap = ras.snapshot();
    ras.pop();
    ras.push(0xc);
    ras.push(0xd);
    ras.restore(snap);
    EXPECT_EQ(ras.pop(), 0xbu);
    EXPECT_EQ(ras.pop(), 0xau);
}

// ----------------------------- BranchUnit -------------------------------

namespace {

/** A µ-op outside any recording: both parts, and the view of them. */
struct OwnedUop
{
    StaticUop st;
    UopRecord rec;

    operator TraceUop() const { return TraceUop(&st, &rec); }
};

OwnedUop
makeCondUop(Addr pc, bool taken, Addr target)
{
    OwnedUop u;
    u.st.pc = pc;
    u.st.opc = Opcode::Bne;
    u.st.src1 = 1;
    u.st.src2 = 2;
    u.rec.taken = taken;
    u.rec.nextPc = taken ? target : pc + uopBytes;
    return u;
}

} // namespace

TEST(BranchUnit, LearnsLoopBranchAndBecomesConfident)
{
    BpConfig cfg;
    BranchUnit bu(cfg, {});
    const Addr pc = 0x400100, tgt = 0x400040;
    int mispredicts = 0, high_conf_late = 0;
    for (int i = 0; i < 4000; ++i) {
        BranchUnit::SnapshotPtr pre;
        const OwnedUop u = makeCondUop(pc, true, tgt);
        BranchPrediction bp = bu.predictBranch(u, pre);
        if (bp.mispredict) {
            ++mispredicts;
            bu.repairAfterBranch(u, pre);
        }
        if (i > 3000)
            high_conf_late += bp.highConf;
        bu.commitBranch(u, bp);
    }
    EXPECT_LT(mispredicts, 20);
    EXPECT_GT(high_conf_late, 900);
}

TEST(BranchUnit, ConfidenceFilterBlocksMidBiasBranch)
{
    BpConfig cfg;
    BranchUnit bu(cfg, {});
    const Addr pc = 0x400200, tgt = 0x400080;
    Rng rng(77);
    int high_conf = 0;
    for (int i = 0; i < 8000; ++i) {
        BranchUnit::SnapshotPtr pre;
        // 85%-taken, direction random (unlearnable beyond the bias).
        const OwnedUop u = makeCondUop(pc, rng.chance(0.85), tgt);
        BranchPrediction bp = bu.predictBranch(u, pre);
        if (bp.mispredict)
            bu.repairAfterBranch(u, pre);
        if (i > 4000)
            high_conf += bp.highConf;
        bu.commitBranch(u, bp);
    }
    // The JRS-style filter must keep such branches out of Late
    // Execution eligibility almost always.
    EXPECT_LT(high_conf / 4000.0, 0.15);
}

TEST(BranchUnit, ReturnPredictedThroughRas)
{
    BpConfig cfg;
    BranchUnit bu(cfg, {});
    // call at 0x400000 -> 0x400100; ret at 0x400104 -> 0x400004.
    OwnedUop call;
    call.st.pc = 0x400000;
    call.st.opc = Opcode::Call;
    call.st.dst = linkReg;
    call.rec.taken = true;
    call.rec.nextPc = 0x400100;

    OwnedUop ret;
    ret.st.pc = 0x400104;
    ret.st.opc = Opcode::Ret;
    ret.st.src1 = linkReg;
    ret.rec.taken = true;
    ret.rec.nextPc = 0x400004;

    BranchUnit::SnapshotPtr pre;
    BranchPrediction bp = bu.predictBranch(call, pre);
    EXPECT_FALSE(bp.mispredict);  // direct call: decode target
    bp = bu.predictBranch(ret, pre);
    EXPECT_EQ(bp.predTarget, 0x400004u);
    EXPECT_FALSE(bp.mispredict);
}

TEST(BranchUnit, RestoreToRepairsSpeculativeState)
{
    BpConfig cfg;
    BranchUnit bu(cfg, {});
    const auto before = bu.currentSnapshot();
    // Speculate through a few branches.
    for (int i = 0; i < 5; ++i) {
        BranchUnit::SnapshotPtr pre;
        const OwnedUop u =
            makeCondUop(0x400300 + i * 4, i % 2 == 0, 0x400000);
        bu.predictBranch(u, pre);
    }
    bu.restoreTo(before);
    const auto after = bu.currentSnapshot();
    EXPECT_EQ(before->hist.pos, after->hist.pos);
    EXPECT_EQ(before->hist.folds, after->hist.folds);
    EXPECT_EQ(before->ras.depth, after->ras.depth);
}

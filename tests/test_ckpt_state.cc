/**
 * @file
 * State-equivalence harness for microarchitectural snapshots
 * (WarmableComponent::snapshotState / restoreState, isa/snapshot.hh).
 *
 * The contract pinned here is the foundation of the warm-once sampling
 * path (sim/sample/): for every warmable component, warming K µ-ops
 * and moving the state into a *fresh, differently-seeded* instance —
 * through snapshotState text, or by value (clone + copyStateFrom, the
 * in-process form) — must leave that instance decision-for-decision
 * identical to the original over the next ~10k predictions or
 * accesses, the golden-record trick applied to state round trips.
 * Either way the fresh instance snapshots to the original's exact
 * bytes, corrupted or truncated documents die with section- and
 * line-numbered diagnostics (never UB), and a checkpoint from a
 * different configuration is rejected on both paths.
 */

#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/branch_unit.hh"
#include "common/env.hh"
#include "common/hash.hh"
#include "isa/checkpoint.hh"
#include "mem/hierarchy.hh"
#include "miss_stream.hh"
#include "pipeline/core.hh"
#include "sim/configs.hh"
#include "vpred/value_predictor.hh"
#include "workloads/torture_gen.hh"
#include "workloads/workload.hh"

using namespace eole;
using workloads::generateTortureProgram;
using workloads::tortureMemBytes;

namespace {

std::shared_ptr<const FrozenTrace>
tortureTrace(std::uint64_t seed)
{
    Workload w;
    w.name = "torture-" + std::to_string(seed);
    w.memBytes = tortureMemBytes;
    w.program = generateTortureProgram(seed);
    auto trace = w.freeze(1u << 21);
    EXPECT_TRUE(trace->complete);
    return trace;
}

template <typename Component>
std::string
snapshotOf(const Component &c)
{
    std::ostringstream os;
    c.snapshotState(os);
    return os.str();
}

template <typename Component>
void
restoreFrom(Component &c, const std::string &bytes)
{
    std::istringstream is(bytes);
    c.restoreState(is);
}

/** How warmed state moves into the fresh instance. */
enum class Transfer
{
    Text,     //!< snapshotState -> restoreState
    ByValue,  //!< clone -> copyStateFrom (the in-process form)
};
constexpr Transfer transfers[] = {Transfer::Text, Transfer::ByValue};

const char *
transferName(Transfer how)
{
    return how == Transfer::Text ? "text" : "by value";
}

template <typename Component>
void
transfer(Transfer how, const Component &from, Component &to)
{
    if (how == Transfer::Text)
        restoreFrom(to, snapshotOf(from));
    else
        to.copyStateFrom(*from.clone());
}

} // namespace

// ========================== BranchUnit ===================================

namespace {

/** Warm a unit of geometry @p bp on half of each torture trace, move
 *  its state into a differently seeded unit both ways, and pair up
 *  their next 10k branch decisions. */
void
checkBranchUnitTransfer(const BpConfig &bp, std::uint64_t base)
{
    for (const Transfer how : transfers) {
        SCOPED_TRACE(transferName(how));
        std::size_t compared = 0;
        for (std::uint64_t r = 0; r < 12 && compared < 10000; ++r) {
            const auto trace = tortureTrace(base + r);

            // The reference unit warms and is never serialized; the fresh
            // unit starts from a DIFFERENT seed (its RNG state must come
            // from the snapshot, not from construction).
            BranchUnit ref(bp, {}, 0xAAAA);
            const std::size_t warm_len = trace->uops.size() / 2;
            for (std::size_t i = 0; i < warm_len; ++i)
                ref.warmUpdate(trace->uops[i]);

            const std::string bytes = snapshotOf(ref);
            BranchUnit fresh(bp, {}, 0xBBBB);
            transfer(how, ref, fresh);

            // Byte stability: re-serializing the restored unit reproduces
            // the exact snapshot.
            EXPECT_EQ(snapshotOf(fresh), bytes);

            // Decision-for-decision identical continuation through the
            // full pipeline-path API (predict -> repair -> commit).
            for (std::size_t i = warm_len;
                 i < trace->uops.size() && compared < 10000; ++i) {
                const TraceUop &u = trace->uops[i];
                if (!u.isBranch())
                    continue;
                ++compared;
                BranchUnit::SnapshotPtr pa, pb;
                const BranchPrediction a = ref.predictBranch(u, pa);
                const BranchPrediction b = fresh.predictBranch(u, pb);
                ASSERT_EQ(a.predTaken, b.predTaken) << "µ-op " << i;
                ASSERT_EQ(a.predTarget, b.predTarget) << "µ-op " << i;
                ASSERT_EQ(a.highConf, b.highConf) << "µ-op " << i;
                ASSERT_EQ(a.mispredict, b.mispredict) << "µ-op " << i;
                if (a.mispredict) {
                    ref.repairAfterBranch(u, pa);
                    fresh.repairAfterBranch(u, pb);
                }
                ref.commitBranch(u, a);
                fresh.commitBranch(u, b);
            }
        }
        EXPECT_GT(compared, 200u);
    }
}

} // namespace

TEST(CkptState, BranchUnitRoundTripIsDecisionIdentical)
{
    const std::uint64_t base = envU64("EOLE_SAMPLE_SEED", 0x5A3) + 3000;
    {
        SCOPED_TRACE("default geometry");
        checkBranchUnitTransfer(BpConfig{}, base);
    }
    // The registry's widest TAGE fields: the packed tagged entry at its
    // limits.
    BpConfig widest;
    widest.tage.ctrBits = 8;
    widest.tage.uBits = 8;
    widest.tage.tagBits = 16;
    SCOPED_TRACE("widest TAGE fields");
    checkBranchUnitTransfer(widest, base);
}

// ======================== ValuePredictor =================================

TEST(CkptState, ValuePredictorRoundTripsEveryKind)
{
    const std::uint64_t base = envU64("EOLE_SAMPLE_SEED", 0x5A3) + 4000;
    const VpKind kinds[] = {
        VpKind::LastValue,     VpKind::Stride,
        VpKind::TwoDeltaStride, VpKind::Vtage,
        VpKind::Fcm,            VpKind::HybridVtage2DStride,
    };

    for (const Transfer how : transfers) {
        SCOPED_TRACE(transferName(how));
        for (const VpKind kind : kinds) {
            VpConfig vcfg;
            vcfg.kind = kind;
            auto ref = createValuePredictor(vcfg, 0x1111);
            auto fresh = createValuePredictor(vcfg, 0x2222);
            ASSERT_NE(ref, nullptr);

            // History-indexed predictors ride the branch unit's history,
            // exactly as PipelineState wires them; both instances bind to
            // the same (shared) history so only table/RNG state differs.
            const BpConfig bp;
            BranchUnit bu(bp, ref->foldSpecs(), 0x3333);
            ref->bindHistory(bu.history(), bu.extraFoldBase());
            fresh->bindHistory(bu.history(), bu.extraFoldBase());

            const auto trace = tortureTrace(base);
            const std::size_t warm_len = trace->uops.size() / 2;
            for (std::size_t i = 0; i < warm_len; ++i) {
                bu.warmUpdate(trace->uops[i]);
                ref->warmUpdate(trace->uops[i]);
            }

            const std::string bytes = snapshotOf(*ref);
            transfer(how, *ref, *fresh);
            EXPECT_EQ(snapshotOf(*fresh), bytes) << ref->name();

            std::size_t compared = 0;
            for (std::size_t i = warm_len;
                 i < trace->uops.size() && compared < 10000; ++i) {
                const TraceUop &u = trace->uops[i];
                bu.warmUpdate(u);  // advance the shared history
                if (!u.vpPredictable())
                    continue;
                ++compared;
                const VpLookup a = ref->predict(u.pc);
                const VpLookup b = fresh->predict(u.pc);
                ASSERT_EQ(a.predictionMade, b.predictionMade)
                    << ref->name() << " µ-op " << i;
                ASSERT_EQ(a.value, b.value)
                    << ref->name() << " µ-op " << i;
                ASSERT_EQ(a.confident, b.confident)
                    << ref->name() << " µ-op " << i;
                ref->commit(u.pc, u.result, a);
                fresh->commit(u.pc, u.result, b);
            }
            EXPECT_GT(compared, 100u) << ref->name();

            // The two streams trained identically: states stay equal.
            EXPECT_EQ(snapshotOf(*ref), snapshotOf(*fresh)) << ref->name();
        }
    }
}

// ========================= MemHierarchy ==================================

TEST(CkptState, MemHierarchyRoundTripIsDecisionIdentical)
{
    // Inputs: torture traces, plus a warming-shaped miss stream that
    // leaves L1D and L2 holding far more in-flight fills than MSHRs
    // (test::missStream), so a list past the cap crosses both transfers.
    const std::uint64_t base = envU64("EOLE_SAMPLE_SEED", 0x5A3) + 5000;
    const MemConfig mcfg;
    const std::vector<TraceUop> misses = test::missStream(30000, base);
    for (const Transfer how : transfers) {
        SCOPED_TRACE(transferName(how));
        std::size_t compared = 0;
        // Warms on half of @p uops, transfers, then pairs up to 10k
        // demand accesses (counted into @p paired).
        const auto check = [&](std::span<const TraceUop> uops,
                               bool past_cap, std::size_t &paired) {
            MemHierarchy ref(mcfg);
            const std::size_t warm_len = uops.size() / 2;
            for (std::size_t i = 0; i < warm_len; ++i)
                ref.warmUpdate(uops[i]);

            const std::string bytes = snapshotOf(ref);
            if (past_cap) {
                const auto fills = test::inflightFills(bytes);
                EXPECT_GT(fills.at("l1d"), std::uint64_t(mcfg.l1d.mshrs));
                EXPECT_GT(fills.at("l2"), std::uint64_t(mcfg.l2.mshrs));
            }
            MemHierarchy fresh(mcfg);
            transfer(how, ref, fresh);
            EXPECT_EQ(snapshotOf(fresh), bytes);
            EXPECT_EQ(fresh.warmClockNow(), ref.warmClockNow());

            // Paired demand accesses must see identical hit/miss/fill
            // behaviour — the returned availability cycle is the complete
            // decision (tags, LRU, MSHRs, DRAM rows, bus and prefetcher
            // effects included).
            Cycle now = ref.warmClockNow();
            for (std::size_t i = warm_len;
                 i < uops.size() && paired < 10000; ++i) {
                const TraceUop &u = uops[i];
                ++now;
                ASSERT_EQ(ref.fetchAccess(u.pc, now),
                          fresh.fetchAccess(u.pc, now)) << "µ-op " << i;
                if (u.isLoad()) {
                    ++paired;
                    ASSERT_EQ(ref.loadAccess(u.pc, u.effAddr, now),
                              fresh.loadAccess(u.pc, u.effAddr, now))
                        << "µ-op " << i;
                } else if (u.isStore()) {
                    ++paired;
                    ASSERT_EQ(ref.storeAccess(u.pc, u.effAddr, now),
                              fresh.storeAccess(u.pc, u.effAddr, now))
                        << "µ-op " << i;
                }
            }
            EXPECT_EQ(snapshotOf(ref), snapshotOf(fresh));
        };
        for (std::uint64_t r = 0; r < 10 && compared < 10000; ++r) {
            const auto trace = tortureTrace(base + r);
            check({trace->uops.begin(), trace->uops.size()}, false,
                  compared);
            ASSERT_FALSE(HasFatalFailure());
        }
        EXPECT_GT(compared, 500u);
        SCOPED_TRACE("miss stream");
        std::size_t paired = 0;
        check(misses, true, paired);
        ASSERT_FALSE(HasFatalFailure());
        EXPECT_EQ(paired, 10000u);
    }
}

// ==================== Corruption diagnostics =============================

TEST(CkptState, CorruptedSnapshotsDieWithSectionAndLineNumbers)
{
    const auto trace = tortureTrace(0xDEAD);
    const BpConfig bp;
    BranchUnit ref(bp, {}, 0xAAAA);
    for (std::size_t i = 0; i < trace->uops.size() / 2; ++i)
        ref.warmUpdate(trace->uops[i]);
    const std::string bytes = snapshotOf(ref);

    // Truncated mid-document: the diagnostic names the section and a
    // line number.
    {
        BranchUnit fresh(bp, {}, 0xBBBB);
        const std::string cut = bytes.substr(0, bytes.size() / 2);
        EXPECT_DEATH(restoreFrom(fresh, cut), "snapshot line [0-9]+");
    }
    // Corrupted tag word.
    {
        BranchUnit fresh(bp, {}, 0xBBBB);
        std::string bad = bytes;
        const std::size_t at = bad.find("tage.base");
        ASSERT_NE(at, std::string::npos);
        bad.replace(at, 9, "tage.bose");
        EXPECT_DEATH(restoreFrom(fresh, bad),
                     "branch-unit snapshot line [0-9]+.*expected tag");
    }
    // Geometry mismatch: a snapshot from a differently-shaped unit.
    {
        BpConfig small = bp;
        small.btbLog2Entries = 8;
        BranchUnit fresh(small, {}, 0xBBBB);
        EXPECT_DEATH(restoreFrom(fresh, bytes), "mismatch");
    }
    // Memory hierarchy: truncation is just as loud.
    {
        MemHierarchy m;
        for (std::size_t i = 0; i < 2000; ++i)
            m.warmUpdate(trace->uops[i]);
        const std::string mbytes = snapshotOf(m);
        MemHierarchy fresh;
        EXPECT_DEATH(restoreFrom(fresh, mbytes.substr(0, 100)),
                     "snapshot line [0-9]+");
    }
}

// ===================== Checkpoint integration ============================

TEST(CkptState, V2CheckpointCarriesAndRestoresEveryComponent)
{
    // The checkpoint layer must frame component snapshots without
    // perturbing a single byte: capture -> serialize -> parse gives
    // back identical sections, and the v1 path stays section-free.
    const auto trace = tortureTrace(0xF00D);
    Checkpoint ckpt = captureAt(*trace, "torture", trace->uops.size() / 2);
    EXPECT_FALSE(ckpt.hasWarmState());
    const std::string v1 = checkpointString(ckpt);
    EXPECT_NE(v1.find("eole-ckpt-v1"), std::string::npos);

    ckpt.config = "some config";
    ckpt.uarch.emplace_back("branch", "branch-unit 1\npayload x\n");
    ckpt.uarch.emplace_back("mem", "mem-hierarchy 1\n");
    const std::string v2 = checkpointString(ckpt);
    EXPECT_NE(v2.find("eole-ckpt-v2"), std::string::npos);

    const Checkpoint back = checkpointFromString(v2);
    EXPECT_TRUE(back == ckpt);
    EXPECT_EQ(checkpointString(back), v2);

    // Corrupt the section byte count: line-numbered rejection through
    // the non-fatal API.
    std::string bad = v2;
    const std::size_t at = bad.find("section branch ");
    ASSERT_NE(at, std::string::npos);
    bad.insert(at + 15, "9999");
    Checkpoint out;
    std::string err;
    std::istringstream is(bad);
    EXPECT_FALSE(tryDeserializeCheckpoint(is, &out, &err));
    EXPECT_NE(err.find("line"), std::string::npos) << err;
}

TEST(CkptState, RestoreRejectsACheckpointFromAnotherConfig)
{
    // A warmed EOLE core's checkpoint, by value as a sampled run holds
    // it and as text as a file carries it: neither may restore into a
    // core without value prediction, nor into one whose L2 has another
    // geometry.
    const std::uint64_t seed = 0xBEEF;
    Workload w;
    w.name = "torture-" + std::to_string(seed);
    w.memBytes = tortureMemBytes;
    w.program = generateTortureProgram(seed);
    w.frozen = tortureTrace(seed);
    const std::uint64_t split = w.frozen->uops.size() / 2;

    const SimConfig eole = configs::eole(4, 64);
    Core warmed(eole, w);
    warmed.functionalWarm(*w.frozen, 0, split);
    Checkpoint byValue = captureAt(*w.frozen, w.name, split);
    warmed.captureWarmState(byValue);
    ASSERT_EQ(byValue.uarch.size(), 3u);
    for (const CheckpointSection &section : byValue.uarch)
        ASSERT_NE(section.state, nullptr) << section.name;
    const std::string bytes = checkpointString(byValue);
    // Pinned: how the snapshot writers render may change, the bytes of
    // a warmed EOLE_4_64 checkpoint may not.
    EXPECT_EQ(sha256Hex(bytes), "9bad675248f546190a971db354101592"
                                "c7ebd5b201c18bd833b8f61a986d96dc");
    const Checkpoint text = checkpointFromString(bytes);

    SimConfig smallL2 = eole;
    smallL2.mem.l2.sizeBytes /= 2;
    for (const Checkpoint *ckpt :
         std::initializer_list<const Checkpoint *>{&byValue, &text}) {
        SCOPED_TRACE(ckpt == &byValue ? "by value" : "text");
        EXPECT_DEATH(Core(configs::baseline(6, 64), w).restoreWarmState(
                         *ckpt),
                     "\"vpred\" section but this configuration has no "
                     "value predictor");
        EXPECT_DEATH(Core(smallL2, w).restoreWarmState(*ckpt),
                     "cache line-count mismatch");
        // The matching configuration restores fine either way.
        Core(eole, w).restoreWarmState(*ckpt);
    }
}

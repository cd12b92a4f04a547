/**
 * @file
 * Unit and property tests for the value-predictor family: LVP, Stride,
 * 2-Delta Stride, FCM, VTAGE and the hybrid, plus FPC interaction and
 * in-flight (speculative) instance handling.
 */

#include <gtest/gtest.h>

#include <functional>

#include "bpred/history.hh"
#include "common/random.hh"
#include "vpred/fpc.hh"
#include "vpred/hybrid.hh"
#include "vpred/stride.hh"
#include "vpred/value_predictor.hh"
#include "vpred/vtage.hh"

using namespace eole;

namespace {

/** Deterministic FPC (all transitions fire) to decouple coverage
 *  measurements from the probabilistic confidence build-up. */
VpConfig
fastConfidenceConfig(VpKind kind)
{
    VpConfig cfg;
    cfg.kind = kind;
    cfg.fpcVector = {1, 1, 1, 1, 1, 1, 1};
    return cfg;
}

struct Harness
{
    std::unique_ptr<ValuePredictor> vp;
    std::unique_ptr<GlobalHistory> hist;

    explicit Harness(const VpConfig &cfg)
        : vp(createValuePredictor(cfg, 99))
    {
        hist = std::make_unique<GlobalHistory>(vp->foldSpecs());
        vp->bindHistory(*hist, 0);
    }

    /**
     * Commit-grain loop: predict then immediately commit (one instance
     * in flight at a time). Returns (coverage, accuracy) over the last
     * half.
     */
    std::pair<double, double>
    train(Addr pc, int n, const std::function<RegVal(int)> &value,
          const std::function<bool(int)> &branch_bit = nullptr)
    {
        int used = 0, correct = 0, measured = 0;
        for (int i = 0; i < n; ++i) {
            VpLookup l = vp->predict(pc);
            const RegVal actual = value(i);
            if (i >= n / 2) {
                ++measured;
                if (l.confident) {
                    ++used;
                    correct += l.value == actual;
                }
            }
            vp->commit(pc, actual, l);
            if (branch_bit)
                hist->push(branch_bit(i));
        }
        return {double(used) / measured,
                used ? double(correct) / used : 1.0};
    }
};

} // namespace

// ------------------------------ Last value -------------------------------

TEST(LastValue, PredictsConstants)
{
    Harness h(fastConfidenceConfig(VpKind::LastValue));
    auto [cov, acc] = h.train(0x400000, 200, [](int) { return 42u; });
    EXPECT_GT(cov, 0.95);
    EXPECT_DOUBLE_EQ(acc, 1.0);
}

TEST(LastValue, CannotPredictStrides)
{
    Harness h(fastConfidenceConfig(VpKind::LastValue));
    auto [cov, acc] =
        h.train(0x400000, 400, [](int i) { return RegVal(i) * 8; });
    (void)acc;
    EXPECT_LT(cov, 0.05);
}

// -------------------------------- Stride ---------------------------------

TEST(Stride, PredictsArithmeticSequences)
{
    Harness h(fastConfidenceConfig(VpKind::Stride));
    auto [cov, acc] =
        h.train(0x400000, 400, [](int i) { return 100 + RegVal(i) * 24; });
    EXPECT_GT(cov, 0.95);
    EXPECT_DOUBLE_EQ(acc, 1.0);
}

TEST(Stride, SingleGlitchCostsPlainStrideMore)
{
    // Value sequence: stride 8 with a one-off glitch every 50 instances.
    auto glitchy = [](int i) {
        return RegVal(i) * 8 + (i % 50 == 49 ? 3 : 0);
    };
    Harness plain(fastConfidenceConfig(VpKind::Stride));
    Harness twodelta(fastConfidenceConfig(VpKind::TwoDeltaStride));
    auto [cov_p, acc_p] = plain.train(0x400000, 2000, glitchy);
    auto [cov_2, acc_2] = twodelta.train(0x400000, 2000, glitchy);
    // After a glitch, the plain stride predictor retrains its stride
    // (two wrong predictions per glitch); 2-delta keeps the confirmed
    // stride (one wrong prediction per glitch).
    EXPECT_GT(acc_2, acc_p);
    EXPECT_GT(cov_2, 0.0);
    (void)cov_p;
}

TEST(Stride, ProjectsAcrossInflightInstances)
{
    // Several instances of the same static µ-op in flight: the k-th
    // outstanding instance must be predicted last + stride * k.
    VpConfig cfg = fastConfidenceConfig(VpKind::TwoDeltaStride);
    StridePredictor sp(cfg, true, 1);
    const Addr pc = 0x400010;
    // Train with back-to-back commit (establish stride 8, conf sat).
    RegVal v = 0;
    for (int i = 0; i < 32; ++i) {
        VpLookup l = sp.predict(pc);
        sp.commit(pc, v += 8, l);
    }
    // Now predict 4 instances without committing.
    VpLookup l1 = sp.predict(pc);
    VpLookup l2 = sp.predict(pc);
    VpLookup l3 = sp.predict(pc);
    EXPECT_EQ(l1.value, v + 8);
    EXPECT_EQ(l2.value, v + 16);
    EXPECT_EQ(l3.value, v + 24);
    sp.commit(pc, v + 8, l1);
    sp.commit(pc, v + 16, l2);
    sp.commit(pc, v + 24, l3);
    VpLookup l4 = sp.predict(pc);
    EXPECT_EQ(l4.value, v + 32);
    sp.commit(pc, v + 32, l4);
}

TEST(Stride, SquashRestoresInflightCount)
{
    VpConfig cfg = fastConfidenceConfig(VpKind::TwoDeltaStride);
    StridePredictor sp(cfg, true, 1);
    const Addr pc = 0x400020;
    RegVal v = 0;
    for (int i = 0; i < 32; ++i) {
        VpLookup l = sp.predict(pc);
        sp.commit(pc, v += 4, l);
    }
    // Fetch two wrong-path instances, then squash them.
    VpLookup s1 = sp.predict(pc);
    VpLookup s2 = sp.predict(pc);
    sp.squash(pc, s2);
    sp.squash(pc, s1);
    // The next prediction must project a single step again.
    VpLookup l = sp.predict(pc);
    EXPECT_EQ(l.value, v + 4);
}

// --------------------------------- FCM -----------------------------------

TEST(Fcm, LearnsRepeatingSequence)
{
    Harness h(fastConfidenceConfig(VpKind::Fcm));
    // Period-3 value sequence: context of the last values identifies
    // the successor exactly.
    const RegVal seq[3] = {7, 99, 1234};
    auto [cov, acc] =
        h.train(0x400000, 3000, [&](int i) { return seq[i % 3]; });
    EXPECT_GT(cov, 0.8);
    EXPECT_GT(acc, 0.98);
}

// -------------------------------- VTAGE ----------------------------------

TEST(Vtage, PredictsConstantsViaBase)
{
    Harness h(fastConfidenceConfig(VpKind::Vtage));
    auto [cov, acc] = h.train(0x400000, 400, [](int) { return 5u; });
    EXPECT_GT(cov, 0.9);
    EXPECT_DOUBLE_EQ(acc, 1.0);
}

TEST(Vtage, LearnsBranchHistoryCorrelatedValues)
{
    // Value alternates with a branch direction pattern: the base
    // (last-value) component cannot capture it, tagged components can.
    Harness h(fastConfidenceConfig(VpKind::Vtage));
    auto [cov, acc] = h.train(
        0x400000, 6000, [](int i) { return i % 2 ? 111u : 222u; },
        [](int i) { return i % 2 == 0; });
    EXPECT_GT(cov, 0.7);
    EXPECT_GT(acc, 0.98);
}

TEST(Vtage, NoInflightTrackingNeeded)
{
    // VTAGE predictions do not depend on in-flight instance counts:
    // predicting k instances in a row (same history) yields the same
    // value, unlike stride predictors (§2 of the paper).
    VpConfig cfg = fastConfidenceConfig(VpKind::Vtage);
    Vtage vt(cfg, 7);
    GlobalHistory hist(vt.foldSpecs());
    vt.bindHistory(hist, 0);
    const Addr pc = 0x400040;
    for (int i = 0; i < 100; ++i) {
        VpLookup l = vt.predict(pc);
        vt.commit(pc, 31337, l);
    }
    VpLookup a = vt.predict(pc);
    VpLookup b = vt.predict(pc);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.value, 31337u);
}

// -------------------------------- Hybrid ----------------------------------

TEST(Hybrid, CoversBothStridedAndContextPatterns)
{
    // Strided values at one PC, history-correlated at another: the
    // hybrid must cover both (that is its purpose in Table 2).
    Harness h(fastConfidenceConfig(VpKind::HybridVtage2DStride));
    auto [cov_s, acc_s] = h.train(
        0x400100, 2000, [](int i) { return RegVal(i) * 16; });
    EXPECT_GT(cov_s, 0.9);
    EXPECT_DOUBLE_EQ(acc_s, 1.0);

    auto [cov_c, acc_c] = h.train(
        0x400200, 12000, [](int i) { return i % 2 ? 8u : 9u; },
        [](int i) { return i % 2 == 0; });
    EXPECT_GT(cov_c, 0.45);
    EXPECT_GT(acc_c, 0.98);
}

TEST(Hybrid, TrainsBothComponents)
{
    VpConfig cfg = fastConfidenceConfig(VpKind::HybridVtage2DStride);
    HybridVtage2DStride hy(cfg, 3);
    GlobalHistory hist(hy.foldSpecs());
    hy.bindHistory(hist, 0);
    const Addr pc = 0x400300;
    for (int i = 0; i < 200; ++i) {
        VpLookup l = hy.predict(pc);
        hy.commit(pc, RegVal(i) * 8, l);
    }
    // The stride component alone must have learned the stride.
    VpLookup sl = hy.stride().predict(pc);
    EXPECT_TRUE(sl.predictionMade);
    EXPECT_EQ(sl.value, 200u * 8);
    hy.stride().squash(pc, sl);
}

// ------------------------ Parameterized properties ------------------------

struct PredictorPatternCase
{
    VpKind kind;
    const char *pattern;
    double min_coverage;
    double min_accuracy;
};

class PredictorProperty
    : public ::testing::TestWithParam<PredictorPatternCase>
{
};

TEST_P(PredictorProperty, MeetsCoverageAndAccuracyFloor)
{
    const auto &param = GetParam();
    Harness h(fastConfidenceConfig(param.kind));

    std::function<RegVal(int)> value;
    const std::string pattern = param.pattern;
    if (pattern == "constant") {
        value = [](int) { return 0xabcdu; };
    } else if (pattern == "strided") {
        value = [](int i) { return 50 + RegVal(i) * 8; };
    } else {
        // Truly chaotic (SplitMix64 of the index): non-linear, so no
        // stride structure survives.
        value = [](int i) {
            std::uint64_t x = static_cast<std::uint64_t>(i) + 1;
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
            return x ^ (x >> 31);
        };
    }
    auto [cov, acc] = h.train(0x400000, 4000, value);
    EXPECT_GE(cov, param.min_coverage) << param.pattern;
    if (cov > 0) {
        EXPECT_GE(acc, param.min_accuracy) << param.pattern;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPredictors, PredictorProperty,
    ::testing::Values(
        // Every predictor covers constants.
        PredictorPatternCase{VpKind::LastValue, "constant", 0.95, 0.999},
        PredictorPatternCase{VpKind::Stride, "constant", 0.95, 0.999},
        PredictorPatternCase{VpKind::TwoDeltaStride, "constant", 0.95,
                             0.999},
        PredictorPatternCase{VpKind::Fcm, "constant", 0.9, 0.999},
        PredictorPatternCase{VpKind::Vtage, "constant", 0.9, 0.999},
        PredictorPatternCase{VpKind::HybridVtage2DStride, "constant",
                             0.95, 0.999},
        // Computational predictors cover strides.
        PredictorPatternCase{VpKind::Stride, "strided", 0.9, 0.999},
        PredictorPatternCase{VpKind::TwoDeltaStride, "strided", 0.9,
                             0.999},
        PredictorPatternCase{VpKind::HybridVtage2DStride, "strided", 0.9,
                             0.999},
        // Nothing predicts chaos -- and, crucially, nothing predicts
        // it *confidently* (the FPC property EOLE relies on).
        PredictorPatternCase{VpKind::LastValue, "chaotic", 0.0, 0.0},
        PredictorPatternCase{VpKind::Stride, "chaotic", 0.0, 0.0},
        PredictorPatternCase{VpKind::TwoDeltaStride, "chaotic", 0.0, 0.0},
        PredictorPatternCase{VpKind::Fcm, "chaotic", 0.0, 0.0},
        PredictorPatternCase{VpKind::Vtage, "chaotic", 0.0, 0.0},
        PredictorPatternCase{VpKind::HybridVtage2DStride, "chaotic", 0.0,
                             0.0}));

class ChaoticCoverageCeiling : public ::testing::TestWithParam<VpKind>
{
};

TEST_P(ChaoticCoverageCeiling, PaperFpcKeepsChaosUncovered)
{
    // With the paper's FPC vector, chaotic values must essentially
    // never reach saturated confidence.
    VpConfig cfg;
    cfg.kind = GetParam();
    Harness h(cfg);
    auto [cov, acc] = h.train(0x400000, 4000, [](int i) {
        std::uint64_t x = static_cast<std::uint64_t>(i) + 1;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    });
    (void)acc;
    EXPECT_LT(cov, 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    AllPredictors, ChaoticCoverageCeiling,
    ::testing::Values(VpKind::LastValue, VpKind::Stride,
                      VpKind::TwoDeltaStride, VpKind::Fcm, VpKind::Vtage,
                      VpKind::HybridVtage2DStride));

// ----------------- FPC counter properties (§3.1 / §4.2) -------------------

TEST(Fpc, CounterNeverExceedsSaturationAndResetsOnWrong)
{
    Fpc fpc;  // paper vector
    Rng rng(11);
    std::uint8_t ctr = 0;
    bool was_saturated = false;
    // 99.9% correct: wrong enough to exercise resets, right enough
    // that the ~257-correct-step climb to saturation still happens.
    for (int i = 0; i < 200000; ++i) {
        const bool correct = rng.chance(0.999);
        fpc.update(ctr, correct, rng);
        ASSERT_LE(ctr, fpc.max());
        if (!correct) {
            ASSERT_EQ(ctr, 0);
        }
        was_saturated = was_saturated || fpc.saturated(ctr);
    }
    EXPECT_TRUE(was_saturated);  // the walk does reach the ceiling
}

TEST(Fpc, ForwardRatesMatchPaperVector)
{
    // Empirical transition rate at every counter level must match the
    // advertised probability vector {1, 4x 1/32, 2x 1/64}. Feed only
    // correct outcomes and count attempts per level across many
    // saturations.
    Fpc fpc;
    Rng rng(12);
    const auto &v = fpc.probabilities();
    std::vector<double> attempts(v.size(), 0), transitions(v.size(), 0);

    std::uint8_t ctr = 0;
    for (int saturations = 0; saturations < 600;) {
        const std::uint8_t level = ctr;
        fpc.update(ctr, true, rng);
        attempts[level] += 1;
        if (ctr > level)
            transitions[level] += 1;
        if (fpc.saturated(ctr)) {
            ++saturations;
            ctr = 0;
        }
    }
    for (std::size_t level = 0; level < v.size(); ++level) {
        const double rate = transitions[level] / attempts[level];
        EXPECT_NEAR(rate, v[level], v[level] * 0.2)
            << "level " << level;
    }
}

TEST(Fpc, MeanCommitsToSaturationMatchesPaper)
{
    // Expected correct predictions before a counter saturates is
    // sum(1/p) = 1 + 4*32 + 2*64 = 257 — the FPC trick that makes a
    // 3-bit counter behave like a ~8-bit one (§3.1). The sample mean
    // over 2000 counters has sigma ~2.5, so +/-8% is a >5-sigma band.
    Fpc fpc;
    Rng rng(13);
    const double expected = 257.0;

    double total = 0;
    const int trials = 2000;
    for (int t = 0; t < trials; ++t) {
        std::uint8_t ctr = 0;
        int steps = 0;
        while (!fpc.saturated(ctr)) {
            fpc.update(ctr, true, rng);
            ++steps;
        }
        total += steps;
    }
    const double mean = total / trials;
    EXPECT_NEAR(mean, expected, expected * 0.08);
}

// -------------------- Confidence gating properties -------------------------

TEST(PredictorConfidence, NeverConfidentBeforeSaturationStreak)
{
    // A prediction may only be used (confident) once its FPC counter
    // saturated, and the counter resets on any wrong prediction and
    // gains at most one per commit — so a confident lookup implies at
    // least fpc-max consecutive correct predictions since the last
    // wrong one. Checked on the single-entry predictors over a stream
    // with random glitches (paper FPC vector, single pc -> one
    // counter).
    const VpKind kinds[] = {VpKind::LastValue, VpKind::Stride,
                            VpKind::TwoDeltaStride};
    const int fpc_max = static_cast<int>(Fpc().max());
    for (const VpKind kind : kinds) {
        VpConfig cfg;
        cfg.kind = kind;  // paper FPC vector
        Harness h(cfg);
        Rng rng(0xC0FFEE);

        RegVal v = 1000;
        int streak = 0;
        for (int i = 0; i < 20000; ++i) {
            VpLookup l = h.vp->predict(0x400000);
            if (l.confident) {
                EXPECT_GE(streak, fpc_max)
                    << vpKindName(kind) << " at i=" << i;
            }
            // Mostly stride-8, occasionally a random glitch.
            v = rng.chance(0.03) ? rng.next() : v + 8;
            const bool match = l.predictionMade && l.value == v;
            streak = match ? streak + 1 : 0;
            h.vp->commit(0x400000, v, l);
        }
    }
}

TEST(PredictorConfidence, FreshPcNeedsAtLeastMaxCommits)
{
    // No predictor may be confident at a pc it has committed fewer
    // than fpc-max times: counters start at zero and gain at most one
    // per commit. Holds even with the all-1 (deterministic) vector.
    const VpKind kinds[] = {
        VpKind::LastValue,     VpKind::Stride, VpKind::TwoDeltaStride,
        VpKind::Fcm,           VpKind::Vtage,
        VpKind::HybridVtage2DStride,
    };
    for (const VpKind kind : kinds) {
        Harness h(fastConfidenceConfig(kind));
        const int fpc_max = 7;  // length of the all-1 vector above
        for (int i = 0; i < fpc_max; ++i) {
            VpLookup l = h.vp->predict(0x400040);
            EXPECT_FALSE(l.confident)
                << vpKindName(kind) << " confident at commit " << i;
            h.vp->commit(0x400040, 4242, l);
        }
        // ... and once trained past saturation, constants are covered
        // (guards against a predictor that is never confident). The
        // long run is for FCM, whose rolling context hash cycles
        // through ~64 contexts that each saturate separately.
        for (int i = 0; i < 1500; ++i) {
            VpLookup l = h.vp->predict(0x400040);
            h.vp->commit(0x400040, 4242, l);
        }
        EXPECT_TRUE(h.vp->predict(0x400040).confident)
            << vpKindName(kind);
    }
}

TEST(Factory, NamesAndNullForNone)
{
    VpConfig cfg;
    cfg.kind = VpKind::None;
    EXPECT_EQ(createValuePredictor(cfg), nullptr);
    cfg.kind = VpKind::Vtage;
    auto vp = createValuePredictor(cfg);
    ASSERT_NE(vp, nullptr);
    EXPECT_STREQ(vp->name(), "VTAGE");
    EXPECT_STREQ(vpKindName(VpKind::HybridVtage2DStride),
                 "VTAGE-2DStride");
}

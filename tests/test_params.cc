/**
 * @file
 * Tests for the reflective parameter registry (sim/params.hh), the
 * name -> config resolver (configs::findNamed), plan files
 * (sim/planfile.hh) and the artifact-embedded config maps.
 *
 * The two regression anchors:
 *  - the golden default key=value map: adding a SimConfig field
 *    without registering it (or moving a default) fails here first;
 *  - plan-file/compiled-plan byte-identity: the string API must carry
 *    the compiled figure set bit-for-bit.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "common/env.hh"
#include "common/fuzzy.hh"
#include "sim/artifact.hh"
#include "sim/configs.hh"
#include "sim/params.hh"
#include "sim/planfile.hh"
#include "sim/plans.hh"
#include "sim/sample/sample.hh"
#include "sim/sweep.hh"
#include "workloads/workload.hh"

using namespace eole;

namespace {

/** Golden canonical form of a default-constructed SimConfig. Every
 *  registered key in canonical order; pinning the full text freezes
 *  key spelling, ordering and defaults at once. */
const char *goldenDefaultText =
    "name = Baseline_6_64\n"
    "fetchWidth = 8\n"
    "renameWidth = 8\n"
    "dispatchWidth = 8\n"
    "issueWidth = 6\n"
    "commitWidth = 8\n"
    "maxTakenBranchesPerFetch = 2\n"
    "frontEndCycles = 15\n"
    "btbMissBubble = 5\n"
    "robEntries = 192\n"
    "iqEntries = 64\n"
    "lqEntries = 48\n"
    "sqEntries = 48\n"
    "physIntRegs = 256\n"
    "physFpRegs = 256\n"
    "numAlu = 6\n"
    "numMulDiv = 4\n"
    "numFp = 6\n"
    "numFpMulDiv = 4\n"
    "numMemPorts = 4\n"
    "ssitLog2Entries = 10\n"
    "lfstEntries = 1024\n"
    "bp.tage.numTagged = 12\n"
    "bp.tage.taggedLog2Entries = 10\n"
    "bp.tage.baseLog2Entries = 12\n"
    "bp.tage.tagBits = 12\n"
    "bp.tage.ctrBits = 3\n"
    "bp.tage.uBits = 2\n"
    "bp.tage.minHist = 4\n"
    "bp.tage.maxHist = 640\n"
    "bp.tage.uResetPeriod = 262144\n"
    "bp.btbLog2Entries = 12\n"
    "bp.btbWays = 2\n"
    "bp.rasEntries = 32\n"
    "bp.confLog2Entries = 11\n"
    "bp.confBits = 4\n"
    "vp.kind = none\n"
    "vp.fpcVector = \n"
    "vp.stride.log2Entries = 13\n"
    "vp.vtage.baseLog2Entries = 13\n"
    "vp.vtage.numTagged = 6\n"
    "vp.vtage.taggedLog2Entries = 10\n"
    "vp.vtage.tagBits = 12\n"
    "vp.vtage.minHist = 2\n"
    "vp.vtage.maxHist = 64\n"
    "vp.fcm.histLog2Entries = 12\n"
    "vp.fcm.valueLog2Entries = 16\n"
    "vp.fcm.order = 3\n"
    "mem.l1i.name = l1i\n"
    "mem.l1i.sizeBytes = 32768\n"
    "mem.l1i.ways = 4\n"
    "mem.l1i.lineBytes = 64\n"
    "mem.l1i.latency = 2\n"
    "mem.l1i.mshrs = 64\n"
    "mem.l1d.name = l1d\n"
    "mem.l1d.sizeBytes = 32768\n"
    "mem.l1d.ways = 4\n"
    "mem.l1d.lineBytes = 64\n"
    "mem.l1d.latency = 2\n"
    "mem.l1d.mshrs = 64\n"
    "mem.l2.name = l2\n"
    "mem.l2.sizeBytes = 2097152\n"
    "mem.l2.ways = 16\n"
    "mem.l2.lineBytes = 64\n"
    "mem.l2.latency = 12\n"
    "mem.l2.mshrs = 64\n"
    "mem.dram.ranks = 2\n"
    "mem.dram.banksPerRank = 8\n"
    "mem.dram.rowBytes = 8192\n"
    "mem.dram.rowHitLatency = 61\n"
    "mem.dram.rowMissExtra = 28\n"
    "mem.dram.burstCycles = 20\n"
    "mem.prefetch.log2Entries = 8\n"
    "mem.prefetch.degree = 8\n"
    "mem.prefetch.distance = 1\n"
    "mem.prefetch.lineBytes = 64\n"
    "mem.prefetchEnabled = true\n"
    "earlyExec = false\n"
    "eeStages = 1\n"
    "lateExec = false\n"
    "lateExecBranches = true\n"
    "prfBanks = 1\n"
    "eeWritePortsPerBank = 0\n"
    "levtReadPortsPerBank = 0\n"
    "seed = 1\n";

/** Every named config the repo knows: all registered plans' configs. */
std::vector<SimConfig>
allNamedConfigs()
{
    std::vector<SimConfig> out;
    for (const std::string &plan_name : plans::allNames()) {
        for (const SimConfig &c : plans::get(plan_name).configs)
            out.push_back(c);
    }
    return out;
}

} // namespace

// ------------------------------ registry ---------------------------------

TEST(Params, GoldenDefaultMap)
{
    EXPECT_EQ(configText(SimConfig{}), goldenDefaultText);
}

TEST(Params, GetSetByDottedKey)
{
    const ParamRegistry &reg = ParamRegistry::instance();
    SimConfig c;

    reg.set(c, "issueWidth", "4");
    EXPECT_EQ(c.issueWidth, 4);
    EXPECT_EQ(reg.get(c, "issueWidth"), "4");

    reg.set(c, "vp.vtage.tagBits", "14");
    EXPECT_EQ(c.vp.vtageTagBits, 14);

    reg.set(c, "mem.l1d.sizeBytes", "65536");
    EXPECT_EQ(c.mem.l1d.sizeBytes, 65536u);

    reg.set(c, "mem.prefetchEnabled", "false");
    EXPECT_FALSE(c.mem.prefetchEnabled);
    reg.set(c, "mem.prefetchEnabled", "1");
    EXPECT_TRUE(c.mem.prefetchEnabled);

    reg.set(c, "vp.kind", "VTAGE-2DStride");
    EXPECT_EQ(c.vp.kind, VpKind::HybridVtage2DStride);
    EXPECT_EQ(reg.get(c, "vp.kind"), "VTAGE-2DStride");

    reg.set(c, "vp.fpcVector", "1,0.5,0.25");
    ASSERT_EQ(c.vp.fpcVector.size(), 3u);
    EXPECT_DOUBLE_EQ(c.vp.fpcVector[1], 0.5);
    EXPECT_EQ(reg.get(c, "vp.fpcVector"), "1,0.5,0.25");

    reg.set(c, "seed", "18446744073709551615");
    EXPECT_EQ(c.seed, ~0ULL);
}

TEST(Params, EveryRegisteredKeyRoundTripsOnEveryNamedConfig)
{
    // serialize -> parse -> serialize must be the identity, for every
    // config any plan declares (the acceptance bar: every field
    // string-addressable, nothing lost in the text form).
    for (const SimConfig &c : allNamedConfigs()) {
        const std::string text = configText(c);
        SimConfig back;
        const std::string err = parseConfigText(text, &back);
        ASSERT_EQ(err, "") << c.name;
        EXPECT_EQ(configText(back), text) << c.name;
        EXPECT_EQ(back.name, c.name);
    }
}

TEST(Params, RejectionDiagnostics)
{
    const ParamRegistry &reg = ParamRegistry::instance();
    SimConfig c;
    const SimConfig untouched = c;

    // Unknown key: error names the nearest valid keys.
    std::string err = reg.trySet(c, "issueWidht", "4");
    EXPECT_NE(err.find("unknown parameter"), std::string::npos);
    EXPECT_NE(err.find("issueWidth"), std::string::npos);

    // Out of range.
    EXPECT_NE(reg.trySet(c, "eeStages", "3").find("out of range"),
              std::string::npos);
    EXPECT_NE(reg.trySet(c, "issueWidth", "0").find("out of range"),
              std::string::npos);
    EXPECT_NE(reg.trySet(c, "issueWidth", "-1").find("not an unsigned"),
              std::string::npos);
    EXPECT_NE(reg.trySet(c, "issueWidth", "four").find("not an unsigned"),
              std::string::npos);

    // Power-of-two constraint on line sizes.
    EXPECT_NE(reg.trySet(c, "mem.l1d.lineBytes", "48")
                  .find("power of two"),
              std::string::npos);

    // Enum: error lists the valid spellings.
    err = reg.trySet(c, "vp.kind", "VTAGE3");
    EXPECT_NE(err.find("VTAGE-2DStride"), std::string::npos);

    // Bool and list.
    EXPECT_NE(reg.trySet(c, "earlyExec", "yes").find("not a bool"),
              std::string::npos);
    EXPECT_NE(reg.trySet(c, "vp.fpcVector", "1,nope").find("not a number"),
              std::string::npos);
    EXPECT_NE(reg.trySet(c, "vp.fpcVector", "1,1.5").find("outside"),
              std::string::npos);

    // Failed sets leave the config untouched.
    EXPECT_EQ(configText(c), configText(untouched));

    // Strings that cannot survive the line-oriented text form are
    // rejected at set time, deriveConfig's rename included — '#'
    // would read back as a comment and break the round trip.
    EXPECT_NE(reg.trySet(c, "name", "a#b").find("'#'"),
              std::string::npos);
    EXPECT_NE(reg.trySet(c, "name", " padded ").find("whitespace"),
              std::string::npos);
    EXPECT_EQ(configText(c), configText(untouched));

    // The fatal API form dies loudly (compiled-in misuse is a bug).
    EXPECT_DEATH(reg.set(c, "not.a.key", "1"), "unknown parameter");
    EXPECT_DEATH(reg.set(c, "eeStages", "9"), "out of range");
    EXPECT_DEATH((void)deriveConfig(SimConfig{}, "bad#name", {}),
                 "must not contain");
}

TEST(Params, OverridesAgainstDefaults)
{
    // configOverrides is the base+override view `eole describe` marks.
    const auto base_over = configOverrides(SimConfig{});
    EXPECT_TRUE(base_over.empty());

    const SimConfig e = configs::eole(4, 64);
    const auto over = configOverrides(e);
    auto find = [&](const std::string &key) -> const std::string * {
        for (const auto &[k, v] : over) {
            if (k == key)
                return &v;
        }
        return nullptr;
    };
    ASSERT_NE(find("name"), nullptr);
    EXPECT_EQ(*find("name"), "EOLE_4_64");
    ASSERT_NE(find("issueWidth"), nullptr);
    EXPECT_EQ(*find("issueWidth"), "4");
    ASSERT_NE(find("earlyExec"), nullptr);
    EXPECT_EQ(*find("earlyExec"), "true");
    EXPECT_EQ(find("fetchWidth"), nullptr);  // still at default
}

TEST(Params, DeriveConfigMatchesHandRolledFields)
{
    // deriveConfig (the plans.cc path) must agree with direct field
    // assignment — the registry is a faithful view, not a translation.
    SimConfig hand = configs::eole(6, 64);
    hand.name = "EE_2stages";
    hand.eeStages = 2;
    const SimConfig derived = deriveConfig(configs::eole(6, 64),
                                           "EE_2stages",
                                           {{"eeStages", "2"}});
    EXPECT_EQ(configText(derived), configText(hand));
}

TEST(Params, SuggestionsRankPlausibleKeysFirst)
{
    const ParamRegistry &reg = ParamRegistry::instance();
    const auto s = reg.suggest("isuewidth");
    ASSERT_FALSE(s.empty());
    EXPECT_EQ(s[0], "issueWidth");
    // Dotted-prefix queries surface the sub-keys.
    const auto t = reg.suggest("vp.vtage");
    ASSERT_FALSE(t.empty());
    EXPECT_EQ(t[0].rfind("vp.vtage", 0), 0u);
    // Garbage gets no suggestions rather than noise.
    EXPECT_TRUE(closestMatches("qqqqqqqqqq", reg.keys()).empty());
}

// --------------------------- name resolution -----------------------------

TEST(Params, FindNamedResolvesSchemeAndPlanConfigs)
{
    SimConfig c;
    ASSERT_TRUE(configs::findNamed("Baseline_6_64", &c));
    EXPECT_EQ(configText(c), configText(configs::baseline(6, 64)));

    ASSERT_TRUE(configs::findNamed("Baseline_VP_4_64", &c));
    EXPECT_EQ(configText(c), configText(configs::baselineVp(4, 64)));

    ASSERT_TRUE(configs::findNamed("EOLE_4_64_2banks", &c));
    EXPECT_EQ(configText(c), configText(configs::eoleBanked(4, 64, 2)));

    ASSERT_TRUE(configs::findNamed("OLE_4_64_4ports_4banks", &c));
    EXPECT_EQ(configText(c), configText(configs::ole(4, 64, 4, 4)));

    // Plan-declared names resolve through the registry scan.
    ASSERT_TRUE(configs::findNamed("FPC_strict", &c));
    EXPECT_EQ(c.vp.fpcVector.size(), 7u);
    ASSERT_TRUE(configs::findNamed("EE_2stages", &c));
    EXPECT_EQ(c.eeStages, 2);

    EXPECT_FALSE(configs::findNamed("EOLE_0_64", &c));
    EXPECT_FALSE(configs::findNamed("NotAConfig", &c));
    EXPECT_FALSE(configs::findNamed("OLE_4_64", &c));  // not a paper name

    // knownNames feeds the did-you-mean diagnostics.
    const auto names = configs::knownNames();
    EXPECT_GE(names.size(), 20u);
}

// ------------------------------ plan files -------------------------------

TEST(PlanFile, GridExpansionIsRowMajorAndNamed)
{
    const SimConfig base = configs::eole(4, 64);
    const auto cells = expandGrid(
        base, {{"prfBanks", {"1", "2"}}, {"issueWidth", {"4", "6"}}});
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].name, "EOLE_4_64+prfBanks=1+issueWidth=4");
    EXPECT_EQ(cells[1].name, "EOLE_4_64+prfBanks=1+issueWidth=6");
    EXPECT_EQ(cells[2].name, "EOLE_4_64+prfBanks=2+issueWidth=4");
    EXPECT_EQ(cells[3].name, "EOLE_4_64+prfBanks=2+issueWidth=6");
    EXPECT_EQ(cells[3].prfBanks, 2);
    EXPECT_EQ(cells[3].issueWidth, 6);
    // Axes only touch their keys; the rest is the base.
    EXPECT_TRUE(cells[3].earlyExec);
}

TEST(PlanFile, ParsesDirectivesIntoAPlan)
{
    const std::string text =
        "# demo\n"
        "plan = demo\n"
        "description = a grid as data\n"
        "base = EOLE_4_64\n"
        "configs = Baseline_6_64\n"
        "workloads = 164.gzip, 186.crafty\n"
        "seed = 7\n"
        "warmup = 1000\n"
        "measure = 5000\n"
        "set vp.vtage.tagBits = 13\n"
        "axis prfBanks = 1, 2\n"
        "table ipc \"IPC\" normalize=Baseline_6_64\n";
    ExperimentPlan plan;
    std::string err;
    ASSERT_TRUE(parsePlanText(text, "demo.plan", &plan, &err)) << err;
    EXPECT_EQ(plan.name, "demo");
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_EQ(plan.warmup, 1000u);
    EXPECT_EQ(plan.measure, 5000u);
    ASSERT_EQ(plan.configs.size(), 3u);  // explicit + 2 grid cells
    EXPECT_EQ(plan.configs[0].name, "Baseline_6_64");
    EXPECT_EQ(plan.configs[1].name, "EOLE_4_64+prfBanks=1");
    EXPECT_EQ(plan.configs[2].name, "EOLE_4_64+prfBanks=2");
    // `set` hits every config, explicit ones included.
    for (const SimConfig &c : plan.configs)
        EXPECT_EQ(c.vp.vtageTagBits, 13) << c.name;
    ASSERT_EQ(plan.workloads.size(), 2u);
    ASSERT_EQ(plan.tables.size(), 1u);
    EXPECT_EQ(plan.tables[0].normalizeTo, "Baseline_6_64");
    EXPECT_EQ(plan.tables[0].columns.size(), 2u);  // normalizer excluded
}

TEST(PlanFile, TableColumnsClausePicksAndOrdersColumns)
{
    // columns= selects the column configs and their order — including
    // axis-derived names, which embed '=' themselves.
    const std::string text =
        "plan = demo\n"
        "base = EOLE_4_64\n"
        "configs = Baseline_6_64\n"
        "workloads = 164.gzip\n"
        "axis prfBanks = 1, 2\n"
        "table ipc \"IPC\" normalize=Baseline_6_64 "
        "columns=EOLE_4_64+prfBanks=2,EOLE_4_64+prfBanks=1\n";
    ExperimentPlan plan;
    std::string err;
    ASSERT_TRUE(parsePlanText(text, "demo.plan", &plan, &err)) << err;
    ASSERT_EQ(plan.tables.size(), 1u);
    ASSERT_EQ(plan.tables[0].columns.size(), 2u);
    EXPECT_EQ(plan.tables[0].columns[0], "EOLE_4_64+prfBanks=2");
    EXPECT_EQ(plan.tables[0].columns[1], "EOLE_4_64+prfBanks=1");
    EXPECT_EQ(plan.tables[0].normalizeTo, "Baseline_6_64");
}

TEST(PlanFile, TableClauseErrorsCarryLinesAndSuggestions)
{
    ExperimentPlan plan;
    std::string err;
    const std::string head =
        "plan = demo\n"
        "configs = Baseline_6_64, EOLE_4_64\n"
        "workloads = 164.gzip\n";

    // Misspelled clause key: did-you-mean over the clause names.
    EXPECT_FALSE(parsePlanText(
        head + "table ipc \"IPC\" colums=EOLE_4_64\n", "f.plan", &plan,
        &err));
    EXPECT_NE(err.find("f.plan line 4"), std::string::npos) << err;
    EXPECT_NE(err.find("unknown table clause"), std::string::npos);
    EXPECT_NE(err.find("columns"), std::string::npos);

    // A column that is not a config of this plan: line-numbered, with
    // the nearest real config name suggested.
    EXPECT_FALSE(parsePlanText(
        head + "table ipc \"IPC\" columns=EOLE_4_65\n", "f.plan", &plan,
        &err));
    EXPECT_NE(err.find("f.plan line 4"), std::string::npos) << err;
    EXPECT_NE(err.find("not a config of this plan"), std::string::npos);
    EXPECT_NE(err.find("EOLE_4_64"), std::string::npos);

    // Repeated and empty clauses are rejected rather than silently
    // last-one-wins.
    EXPECT_FALSE(parsePlanText(
        head + "table ipc columns=EOLE_4_64 columns=Baseline_6_64\n",
        "f.plan", &plan, &err));
    EXPECT_NE(err.find("given twice"), std::string::npos) << err;
    EXPECT_FALSE(parsePlanText(head + "table ipc columns=\n", "f.plan",
                               &plan, &err));
}

TEST(PlanFile, ErrorsCarryLineNumbersAndSuggestions)
{
    ExperimentPlan plan;
    std::string err;

    EXPECT_FALSE(parsePlanText("plan = x\naxis prfBancs = 1, 2\n",
                               "f.plan", &plan, &err));
    EXPECT_NE(err.find("f.plan line 2"), std::string::npos);
    EXPECT_NE(err.find("prfBanks"), std::string::npos);

    EXPECT_FALSE(parsePlanText("plan = x\nbase = EOLE_66\n", "f.plan",
                               &plan, &err));
    EXPECT_NE(err.find("unknown config"), std::string::npos);

    EXPECT_FALSE(parsePlanText("plan = x\nworkloads = 164.gzpi\n",
                               "f.plan", &plan, &err));
    EXPECT_NE(err.find("164.gzip"), std::string::npos);

    EXPECT_FALSE(parsePlanText("plan = x\nbasis = EOLE_4_64\n", "f.plan",
                               &plan, &err));
    EXPECT_NE(err.find("unknown directive"), std::string::npos);
    EXPECT_NE(err.find("base"), std::string::npos);

    // Structural errors: no plan name, axis without base, no configs,
    // duplicate names, out-of-range axis value.
    EXPECT_FALSE(parsePlanText("base = EOLE_4_64\n", "f.plan", &plan,
                               &err));
    EXPECT_NE(err.find("plan = <name>"), std::string::npos);

    EXPECT_FALSE(parsePlanText("plan = x\naxis prfBanks = 1, 2\n",
                               "f.plan", &plan, &err));
    EXPECT_NE(err.find("base"), std::string::npos);

    EXPECT_FALSE(parsePlanText("plan = x\n", "f.plan", &plan, &err));
    EXPECT_NE(err.find("no configurations"), std::string::npos);

    EXPECT_FALSE(parsePlanText(
        "plan = x\nconfigs = EOLE_4_64, EOLE_4_64\n", "f.plan", &plan,
        &err));
    EXPECT_NE(err.find("duplicate config name"), std::string::npos);

    EXPECT_FALSE(parsePlanText(
        "plan = x\nbase = EOLE_4_64\naxis eeStages = 1, 3\n", "f.plan",
        &plan, &err));
    EXPECT_NE(err.find("out of range"), std::string::npos);

    // A repeated axis key would let the earlier values be silently
    // overwritten while the cell names still advertised them.
    EXPECT_FALSE(parsePlanText(
        "plan = x\nbase = EOLE_4_64\naxis prfBanks = 2, 4\n"
        "axis prfBanks = 8\n", "f.plan", &plan, &err));
    EXPECT_NE(err.find("f.plan line 4"), std::string::npos);
    EXPECT_NE(err.find("declared twice"), std::string::npos);

    // A run length past maxRunLengthUops would wrap the engine's sums.
    EXPECT_FALSE(parsePlanText(
        "plan = x\nconfigs = EOLE_4_64\nwarmup = 18446744073709551000\n",
        "f.plan", &plan, &err));
    EXPECT_NE(err.find("f.plan line 3"), std::string::npos) << err;
    EXPECT_NE(err.find("longest run length"), std::string::npos) << err;
}

TEST(PlanFile, SampleDirectiveParsesResolvesAndRejects)
{
    // `sample = N:W:D[:B]` gives a plan its default sampling spec.
    ExperimentPlan plan;
    std::string err;
    ASSERT_TRUE(parsePlanText(
        "plan = s\nconfigs = EOLE_4_64\nsample = 10:5000:2500\n",
        "s.plan", &plan, &err)) << err;
    EXPECT_TRUE(plan.sample.enabled());
    EXPECT_EQ(plan.sample.intervals, 10u);
    EXPECT_EQ(plan.sample.intervalUops, 5000u);
    EXPECT_EQ(plan.sample.detailUops, 2500u);
    EXPECT_EQ(plan.sample.warmBound, 0u);

    // The short spelling keeps parseSampleSpec's D = W/2 default, so
    // plan files and --sample accept the same spellings.
    ExperimentPlan short_plan;
    ASSERT_TRUE(parsePlanText(
        "plan = s\nconfigs = EOLE_4_64\nsample = 8:6000\n", "s.plan",
        &short_plan, &err)) << err;
    EXPECT_EQ(short_plan.sample.detailUops, 3000u);
    EXPECT_EQ(sampleSpecString(short_plan.sample),
              sampleSpecString(parseSampleSpec("8:6000")));

    // A plan without the directive stays a full run.
    ExperimentPlan full;
    ASSERT_TRUE(parsePlanText("plan = f\nconfigs = EOLE_4_64\n",
                              "f.plan", &full, &err)) << err;
    EXPECT_FALSE(full.sample.enabled());

    // Option > plan file, through the one shared resolution helper.
    const SampleSpec cli = parseSampleSpec("4:1000:500:75000");
    const SampleSpec eff = resolveSampleSpec(cli, plan.sample);
    EXPECT_EQ(sampleSpecString(eff), "4:1000:500:75000");
    const SampleSpec from_plan = resolveSampleSpec(SampleSpec{},
                                                   plan.sample);
    EXPECT_EQ(sampleSpecString(from_plan), "10:5000:2500:0");
    EXPECT_FALSE(
        resolveSampleSpec(SampleSpec{}, full.sample).enabled());

    // Malformed specs are line-numbered exit-2 diagnostics, not
    // fatals.
    EXPECT_FALSE(parsePlanText(
        "plan = s\nconfigs = EOLE_4_64\nsample = bogus\n", "s.plan",
        &plan, &err));
    EXPECT_NE(err.find("s.plan line 3"), std::string::npos) << err;
    EXPECT_NE(err.find("sample spec"), std::string::npos) << err;

    EXPECT_FALSE(parsePlanText(
        "plan = s\nconfigs = EOLE_4_64\nsample = 0:100:10\n", "s.plan",
        &plan, &err));
    EXPECT_NE(err.find("positive"), std::string::npos) << err;
}

TEST(PlanFile, RunlenDirectiveParsesValidatesAndResolves)
{
    // `runlen <config> = N` pins one config's measured length; other
    // configs keep the plan-level `measure`.
    ExperimentPlan plan;
    std::string err;
    ASSERT_TRUE(parsePlanText(
        "plan = rl\nconfigs = Baseline_6_64, EOLE_4_64\n"
        "measure = 5000\nrunlen EOLE_4_64 = 9000\n",
        "rl.plan", &plan, &err)) << err;
    EXPECT_EQ(plan.runlenFor("EOLE_4_64"), 9000u);
    EXPECT_EQ(plan.runlenFor("Baseline_6_64"), 0u);

    // The precedence chain, top to bottom: CLI --insts beats the
    // directive, the directive beats the plan-level `measure`, and a
    // config without one falls back to `measure`.
    EXPECT_EQ(resolveMeasureFor(777, plan, "EOLE_4_64"), 777u);
    EXPECT_EQ(resolveMeasureFor(0, plan, "EOLE_4_64"), 9000u);
    EXPECT_EQ(resolveMeasureFor(0, plan, "Baseline_6_64"), 5000u);

    // Below the plan level the chain continues into the environment.
    ExperimentPlan bare;
    ASSERT_TRUE(parsePlanText("plan = b\nconfigs = EOLE_4_64\n",
                              "b.plan", &bare, &err)) << err;
    ASSERT_EQ(setenv("EOLE_INSTS", "4242", 1), 0);
    EXPECT_EQ(resolveMeasureFor(0, bare, "EOLE_4_64"), 4242u);
    ASSERT_EQ(unsetenv("EOLE_INSTS"), 0);
    EXPECT_EQ(resolveMeasureFor(0, bare, "EOLE_4_64"),
              defaultMeasureUops);

    // Axis-derived names embed '='; the directive splits on the last
    // '=' so they are addressable.
    ExperimentPlan grid;
    ASSERT_TRUE(parsePlanText(
        "plan = rlg\nbase = EOLE_4_64\naxis prfBanks = 1, 2\n"
        "runlen EOLE_4_64+prfBanks=2 = 1234\n",
        "rlg.plan", &grid, &err)) << err;
    EXPECT_EQ(grid.runlenFor("EOLE_4_64+prfBanks=2"), 1234u);
    EXPECT_EQ(grid.runlenFor("EOLE_4_64+prfBanks=1"), 0u);
}

TEST(PlanFile, RunlenDirectiveErrors)
{
    ExperimentPlan plan;
    std::string err;

    // Unknown target: line-numbered, with a suggestion.
    EXPECT_FALSE(parsePlanText(
        "plan = x\nconfigs = EOLE_4_64\nrunlen EOLE_44 = 100\n",
        "f.plan", &plan, &err));
    EXPECT_NE(err.find("f.plan line 3"), std::string::npos) << err;
    EXPECT_NE(err.find("EOLE_4_64"), std::string::npos) << err;

    // Zero (the "unset" sentinel) and non-numeric counts.
    EXPECT_FALSE(parsePlanText(
        "plan = x\nconfigs = EOLE_4_64\nrunlen EOLE_4_64 = 0\n",
        "f.plan", &plan, &err));
    EXPECT_NE(err.find("positive"), std::string::npos) << err;
    EXPECT_FALSE(parsePlanText(
        "plan = x\nconfigs = EOLE_4_64\nrunlen EOLE_4_64 = ten\n",
        "f.plan", &plan, &err));
    EXPECT_NE(err.find("positive"), std::string::npos) << err;

    // Missing config name.
    EXPECT_FALSE(parsePlanText(
        "plan = x\nconfigs = EOLE_4_64\nrunlen = 100\n", "f.plan",
        &plan, &err));
    EXPECT_NE(err.find("needs a config name"), std::string::npos) << err;

    // Over the longest run length.
    EXPECT_FALSE(parsePlanText(
        "plan = x\nconfigs = EOLE_4_64\nrunlen EOLE_4_64 = 1099511627777\n",
        "f.plan", &plan, &err));
    EXPECT_NE(err.find("f.plan line 3"), std::string::npos) << err;
    EXPECT_NE(err.find("longest run length"), std::string::npos) << err;

    // Duplicates would silently shadow the earlier value.
    EXPECT_FALSE(parsePlanText(
        "plan = x\nconfigs = EOLE_4_64\nrunlen EOLE_4_64 = 100\n"
        "runlen EOLE_4_64 = 200\n", "f.plan", &plan, &err));
    EXPECT_NE(err.find("declared twice"), std::string::npos) << err;
}

TEST(PlanFile, RunlenDirectiveDrivesTheSweep)
{
    // End to end: the overridden config's cell really runs N measured
    // µ-ops while its sibling keeps the plan-level length.
    ExperimentPlan plan;
    std::string err;
    ASSERT_TRUE(parsePlanText(
        "plan = rl\nconfigs = Baseline_6_64, EOLE_4_64\n"
        "workloads = 164.gzip\nwarmup = 1000\nmeasure = 2000\n"
        "runlen EOLE_4_64 = 4000\n",
        "rl.plan", &plan, &err)) << err;
    const PlanResult res = runPlan(plan);
    const RunResult *base = res.find("Baseline_6_64", "164.gzip");
    const RunResult *eole = res.find("EOLE_4_64", "164.gzip");
    ASSERT_NE(base, nullptr);
    ASSERT_NE(eole, nullptr);
    // run() overshoots by at most one commit group.
    EXPECT_GE(base->stats.get("committed_uops"), 2000.0);
    EXPECT_LT(base->stats.get("committed_uops"), 2100.0);
    EXPECT_GE(eole->stats.get("committed_uops"), 4000.0);
    EXPECT_LT(eole->stats.get("committed_uops"), 4100.0);
}

TEST(PlanFile, CellNamesNeverContradictTheConfig)
{
    // Regression (review finding): expandGrid used to apply overrides
    // fastest-axis-first while rendering names in declaration order.
    // Every cell's embedded map must agree with what its name claims.
    const auto cells = expandGrid(
        configs::eole(4, 64),
        {{"prfBanks", {"1", "2"}}, {"eeStages", {"1", "2"}}});
    for (const SimConfig &c : cells) {
        std::istringstream name(c.name);
        std::string clause;
        std::getline(name, clause, '+');  // the base name
        while (std::getline(name, clause, '+')) {
            const std::size_t eq = clause.find('=');
            ASSERT_NE(eq, std::string::npos) << c.name;
            EXPECT_EQ(ParamRegistry::instance().get(
                          c, clause.substr(0, eq)),
                      clause.substr(eq + 1))
                << c.name;
        }
    }
}

TEST(PlanFile, MirrorsTheCompiledSmokePlanByteForByte)
{
    // The acceptance bar: a plan file expressing the compiled-in smoke
    // plan produces a byte-identical artifact (same names, same
    // per-cell seeds, same embedded config maps, same stats).
    const std::string text =
        "plan = smoke\n"
        "configs = Baseline_6_64, EOLE_4_64\n"
        "workloads = 164.gzip, 186.crafty\n"
        "warmup = 2000\n"
        "measure = 20000\n";
    ExperimentPlan from_file;
    std::string err;
    ASSERT_TRUE(parsePlanText(text, "smoke.plan", &from_file, &err))
        << err;

    ExperimentPlan compiled = plans::get("smoke");
    compiled.warmup = 2000;
    compiled.measure = 20000;

    EXPECT_EQ(jsonArtifactString(runPlan(from_file)),
              jsonArtifactString(runPlan(compiled)));
}

// ------------------------ artifacts embed configs ------------------------

TEST(ArtifactParams, CellsEmbedTheCanonicalConfigMap)
{
    ExperimentPlan plan = plans::get("smoke");
    plan.warmup = 1000;
    plan.measure = 5000;
    const PlanResult res = runPlan(plan);
    ASSERT_EQ(res.cells.size(), 4u);
    for (const RunResult &cell : res.cells) {
        const SimConfig *cfg = nullptr;
        for (const SimConfig &c : plan.configs) {
            if (c.name == cell.config)
                cfg = &c;
        }
        ASSERT_NE(cfg, nullptr);
        EXPECT_EQ(cell.params, configKeyValues(*cfg)) << cell.config;
    }

    // Golden fragment: the artifact text carries the map verbatim.
    const std::string json = jsonArtifactString(res);
    EXPECT_NE(json.find("\"schema\": \"eole-sweep-v2\""),
              std::string::npos);
    EXPECT_NE(json.find("\"params\": {"), std::string::npos);
    EXPECT_NE(json.find("\"issueWidth\": \"4\""), std::string::npos);
    EXPECT_NE(json.find("\"vp.kind\": \"VTAGE-2DStride\""),
              std::string::npos);

    // And round-trips through the reader.
    std::stringstream ss(json);
    const PlanResult back = readJsonArtifact(ss);
    ASSERT_EQ(back.cells.size(), res.cells.size());
    for (std::size_t i = 0; i < res.cells.size(); ++i)
        EXPECT_EQ(back.cells[i].params, res.cells[i].params);
    EXPECT_EQ(jsonArtifactString(back), json);
}

TEST(ArtifactParams, SampledCellsEmbedTheConfigMapToo)
{
    ExperimentPlan plan = plans::get("smoke");
    plan.warmup = 500;
    plan.measure = 4000;
    plan.workloads = {"164.gzip"};
    SampleSpec spec;
    spec.intervals = 2;
    spec.intervalUops = 500;
    spec.detailUops = 250;
    const PlanResult res = runSampledPlan(plan, spec, SweepOptions{});
    ASSERT_EQ(res.cells.size(), 2u);
    for (const RunResult &cell : res.cells)
        EXPECT_FALSE(cell.params.empty()) << cell.config;
    EXPECT_EQ(res.cells[0].params, configKeyValues(plan.configs[0]));
}

TEST(ArtifactParams, DiffReportsConfigDrift)
{
    ExperimentPlan plan = plans::get("smoke");
    plan.warmup = 500;
    plan.measure = 3000;
    plan.workloads = {"164.gzip"};
    const PlanResult a = runPlan(plan);

    // Drift one parameter on one cell: exactly one reported difference
    // even under a tolerance that forgives every stat.
    PlanResult b = a;
    for (auto &[key, value] : b.cells[0].params) {
        if (key == "prfBanks")
            value = "2";
    }
    DiffOptions loose;
    loose.relTol = 1e9;
    loose.absTol = 1e9;
    std::ostringstream out;
    EXPECT_EQ(diffArtifacts(a, b, loose, out), 1u);
    EXPECT_NE(out.str().find("config drift: prfBanks a=1 b=2"),
              std::string::npos);
}

TEST(ArtifactParams, SetOverrideMatchesCompiledEquivalent)
{
    // `--set` semantics: overriding through the registry must be
    // bit-identical to compiling the same value in.
    ExperimentPlan overridden = plans::get("smoke");
    overridden.warmup = 1000;
    overridden.measure = 5000;
    const ParamRegistry &reg = ParamRegistry::instance();
    for (SimConfig &c : overridden.configs)
        reg.set(c, "bp.rasEntries", "16");

    ExperimentPlan compiled = plans::get("smoke");
    compiled.warmup = 1000;
    compiled.measure = 5000;
    for (SimConfig &c : compiled.configs)
        c.bp.rasEntries = 16;

    EXPECT_EQ(jsonArtifactString(runPlan(overridden)),
              jsonArtifactString(runPlan(compiled)));
}

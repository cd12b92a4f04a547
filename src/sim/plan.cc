#include "sim/plan.hh"

#include <algorithm>
#include <cstdlib>

#include "common/env.hh"
#include "common/logging.hh"

namespace eole {

namespace {

/** SplitMix64 finalizer (also used by common/random.hh seeding). */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
hashString(std::uint64_t h, const std::string &s)
{
    // FNV-1a over the bytes, then a finalizing mix.
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return mix64(h);
}

} // namespace

bool
tryParseSampleSpec(const std::string &text, SampleSpec *out,
                   std::string *err)
{
    const auto fail = [&](const char *why) {
        *err = csprintf("%s sample spec \"%s\" (want N:W[:D[:B]])", why,
                        text.c_str());
        return false;
    };
    SampleSpec spec;
    // strtoull silently wraps negative input to huge values; reject
    // signs up front so "4:-100:50" is a diagnostic, not a 2^64 run.
    if (text.find_first_of("+-") != std::string::npos)
        return fail("bad");
    const char *p = text.c_str();
    char *end = nullptr;
    spec.intervals = std::strtoull(p, &end, 0);
    if (end == p || *end != ':')
        return fail("bad");
    p = end + 1;
    spec.intervalUops = std::strtoull(p, &end, 0);
    if (end == p)
        return fail("bad");
    if (*end == ':') {
        p = end + 1;
        spec.detailUops = std::strtoull(p, &end, 0);
        if (end == p)
            return fail("bad");
        if (*end == ':') {
            p = end + 1;
            spec.warmBound = std::strtoull(p, &end, 0);
            if (end == p || *end != '\0')
                return fail("bad");
        } else if (*end != '\0') {
            return fail("bad");
        }
    } else {
        if (*end != '\0')
            return fail("bad");
        spec.detailUops = spec.intervalUops / 2;
    }
    if (spec.intervals == 0 || spec.intervalUops == 0) {
        *err = csprintf("sample spec \"%s\": N and W must be positive",
                        text.c_str());
        return false;
    }
    if (spec.intervalUops > maxRunLengthUops
        || spec.detailUops > maxRunLengthUops) {
        *err = csprintf("sample spec \"%s\": W and D must be at most "
                        "%llu µ-ops", text.c_str(),
                        (unsigned long long)maxRunLengthUops);
        return false;
    }
    *out = spec;
    return true;
}

SampleSpec
parseSampleSpec(const std::string &text)
{
    SampleSpec spec;
    std::string err;
    fatal_if(!tryParseSampleSpec(text, &spec, &err), "%s", err.c_str());
    return spec;
}

SampleSpec
resolveSampleSpec(const SampleSpec &option_spec,
                  const SampleSpec &plan_spec)
{
    return option_spec.enabled() ? option_spec : plan_spec;
}

std::string
sampleSpecString(const SampleSpec &spec)
{
    return std::to_string(spec.intervals) + ":"
        + std::to_string(spec.intervalUops) + ":"
        + std::to_string(spec.detailUops) + ":"
        + std::to_string(spec.warmBound);
}

std::uint64_t
ExperimentPlan::runlenFor(const std::string &config) const
{
    for (const auto &[name, uops] : runlens) {
        if (name == config)
            return uops;
    }
    return 0;
}

std::uint64_t
resolveMeasureFor(std::uint64_t option_measure, const ExperimentPlan &plan,
                  const std::string &config)
{
    if (option_measure)
        return option_measure;
    if (const std::uint64_t runlen = plan.runlenFor(config))
        return runlen;
    return resolveRunLength(0, plan.measure, "EOLE_INSTS",
                            defaultMeasureUops);
}

std::uint64_t
jobSeed(std::uint64_t plan_seed, std::uint64_t config_seed,
        const std::string &config, const std::string &workload)
{
    std::uint64_t h = mix64(plan_seed);
    h = mix64(h ^ config_seed);
    h = hashString(h, config);
    h = hashString(h, workload);
    return h;
}

std::uint64_t
shardOfCell(std::uint64_t plan_seed, std::uint64_t config_seed,
            const std::string &config, const std::string &workload,
            std::uint64_t hosts)
{
    fatal_if(hosts == 0, "shardOfCell: hosts must be positive");
    // Remix the cell seed once more so the shard assignment shares no
    // low-bit structure with the seed streams the cell actually runs
    // with (a cell's shard must not correlate with its measurements).
    return mix64(jobSeed(plan_seed, config_seed, config, workload))
        % hosts;
}

bool
ShardSlice::owns(std::uint64_t plan_seed, std::uint64_t config_seed,
                 const std::string &config,
                 const std::string &workload) const
{
    if (!enabled())
        return true;
    return shardOfCell(plan_seed, config_seed, config, workload, hosts)
        == host;
}

std::uint64_t
maxInflightUops(const SimConfig &c)
{
    // Slack for the commit-group overshoot of the warmup and measure
    // run() calls and for anything this accounting missed.
    return static_cast<std::uint64_t>(c.frontEndCycles) * c.fetchWidth
        + c.robEntries + c.iqEntries + 4 * c.renameWidth
        + 2 * c.commitWidth + 512;
}

std::uint64_t
maxInflightUops(const ExperimentPlan &plan)
{
    std::uint64_t worst = 512;
    for (const SimConfig &c : plan.configs)
        worst = std::max(worst, maxInflightUops(c));
    return worst;
}

bool
cellMatches(const std::string &filter, const std::string &config,
            const std::string &workload)
{
    if (filter.empty())
        return true;
    const std::string id = config + "/" + workload;
    return id.find(filter) != std::string::npos;
}

} // namespace eole

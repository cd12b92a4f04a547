#include "sim/shard.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "sim/executor.hh"
#include "sim/json.hh"
#include "sim/params.hh"
#include "sim/sample/sample.hh"

namespace eole {

ShardArtifact
runShard(const ExperimentPlan &plan, const SampleSpec &spec,
         const SweepOptions &options)
{
    fatal_if(!options.shard.enabled(),
             "runShard: options.shard must be enabled");
    fatal_if(options.shard.host >= options.shard.hosts,
             "runShard: host %llu out of range for %llu hosts",
             (unsigned long long)options.shard.host,
             (unsigned long long)options.shard.hosts);

    const PlanResult result = spec.enabled()
        ? runSampledPlan(plan, spec, options)
        : runPlan(plan, options);

    ShardArtifact out;
    out.plan = result.plan;
    out.seed = result.seed;
    out.warmup = result.warmup;
    out.measure = result.measure;
    out.filter = result.filter;
    out.sample = result.sample;
    out.hosts = options.shard.hosts;
    out.shard = options.shard.host;
    out.storeHits = result.storeHits;
    out.storeComputed = result.storeComputed;

    // Global slots come from the expansion the engine ran (its cells
    // are the result cells, in order): every host numbers the
    // filter-matched grid identically, with no coordinator.
    const SweepExpansion expansion = expandPlan(plan, options);
    out.cellsTotal = expansion.filterMatched;
    for (std::size_t i = 0; i < result.cells.size(); ++i)
        out.cells.push_back(ShardCell{expansion.cells[i].slot,
                                      result.cells[i]});
    return out;
}

void
writeShardArtifact(std::ostream &os, const ShardArtifact &shard)
{
    os << "eole-shard-v1\n";
    os << "plan = " << shard.plan << "\n";
    os << "seed = " << shard.seed << "\n";
    os << "warmup = " << shard.warmup << "\n";
    os << "measure = " << shard.measure << "\n";
    os << "filter = " << shard.filter << "\n";
    os << "sample = " << sampleSpecString(shard.sample) << "\n";
    os << "hosts = " << shard.hosts << "\n";
    os << "shard = " << shard.shard << "\n";
    os << "cells_total = " << shard.cellsTotal << "\n";
    os << "cells = " << shard.cells.size() << "\n";
    for (const ShardCell &sc : shard.cells) {
        os << "cell " << sc.slot << "\n";
        os << "config = " << sc.cell.config << "\n";
        os << "workload = " << sc.cell.workload << "\n";
        os << "cellseed = " << sc.cell.seed << "\n";
        os << "params = " << sc.cell.params.size() << "\n";
        for (const auto &[k, v] : sc.cell.params)
            os << "p " << k << " = " << v << "\n";
        os << "stats = " << sc.cell.stats.all().size() << "\n";
        for (const auto &[name, value] : sc.cell.stats.all())
            os << "s " << name << " = " << jsonNumberText(value) << "\n";
    }
    os << "end\n";
}

std::string
shardArtifactString(const ShardArtifact &shard)
{
    std::ostringstream os;
    writeShardArtifact(os, shard);
    return os.str();
}

namespace {

/** Line-ordered strict reader state shared by the header and cell
 *  parsers; every failure path reports the 1-based line number. */
struct ShardReader
{
    std::istream &is;
    std::string *err;
    std::string line;
    int lineno = 0;

    bool fail(const std::string &msg)
    {
        *err = "shard artifact line " + std::to_string(lineno) + ": "
            + msg;
        return false;
    }

    bool next(const char *what)
    {
        if (!std::getline(is, line)) {
            ++lineno;
            return fail(std::string("truncated: expected ") + what);
        }
        ++lineno;
        return true;
    }

    /** "key = <rest-of-line>" (the value may be empty or hold '='). */
    bool keyLine(const std::string &key, std::string *value)
    {
        if (!next(("\"" + key + " = ...\"").c_str()))
            return false;
        const std::string prefix = key + " = ";
        if (line.rfind(prefix, 0) != 0) {
            // "key =" with nothing after the '=' spells an empty
            // value (getline strips nothing else).
            if (line == key + " =") {
                value->clear();
                return true;
            }
            return fail("expected \"" + key + " = ...\", got \"" + line
                        + "\"");
        }
        *value = line.substr(prefix.size());
        return true;
    }

    bool u64Line(const std::string &key, std::uint64_t *value)
    {
        std::string text;
        if (!keyLine(key, &text))
            return false;
        if (!parseU64Strict(text, value))
            return fail("bad " + key + " value \"" + text + "\"");
        return true;
    }
};

} // namespace

bool
tryReadShardArtifact(std::istream &is, ShardArtifact *out,
                     std::string *err)
{
    ShardReader r{is, err, {}, 0};
    ShardArtifact shard;

    if (!r.next("schema line"))
        return false;
    if (r.line != "eole-shard-v1")
        return r.fail("unsupported shard schema \"" + r.line + "\"");
    std::string sampleText;
    std::uint64_t cellCount = 0;
    if (!r.keyLine("plan", &shard.plan)
        || !r.u64Line("seed", &shard.seed)
        || !r.u64Line("warmup", &shard.warmup)
        || !r.u64Line("measure", &shard.measure)
        || !r.keyLine("filter", &shard.filter)
        || !r.keyLine("sample", &sampleText)
        || !r.u64Line("hosts", &shard.hosts)
        || !r.u64Line("shard", &shard.shard)
        || !r.u64Line("cells_total", &shard.cellsTotal)
        || !r.u64Line("cells", &cellCount)) {
        return false;
    }
    {
        std::string specErr;
        if (!tryParseSampleSpec(sampleText, &shard.sample, &specErr)) {
            // sampleSpecString of a disabled spec is "0:0:...", which
            // tryParseSampleSpec rejects (N must be positive) — accept
            // it here as "sampling disabled".
            SampleSpec disabled;
            if (sampleText != sampleSpecString(disabled))
                return r.fail(specErr);
            shard.sample = disabled;
        }
    }
    if (shard.hosts == 0)
        return r.fail("hosts must be positive");
    if (shard.shard >= shard.hosts)
        return r.fail("shard index " + std::to_string(shard.shard)
                      + " out of range for "
                      + std::to_string(shard.hosts) + " host(s)");
    if (cellCount > shard.cellsTotal)
        return r.fail("cells exceeds cells_total");

    shard.cells.reserve(cellCount);
    for (std::uint64_t i = 0; i < cellCount; ++i) {
        if (!r.next("\"cell <slot>\""))
            return false;
        ShardCell sc;
        if (r.line.rfind("cell ", 0) != 0
            || !parseU64Strict(r.line.substr(5), &sc.slot)) {
            return r.fail("expected \"cell <slot>\", got \"" + r.line
                          + "\"");
        }
        if (sc.slot >= shard.cellsTotal)
            return r.fail("slot " + std::to_string(sc.slot)
                          + " out of range for cells_total "
                          + std::to_string(shard.cellsTotal));
        std::uint64_t paramCount = 0, statCount = 0;
        if (!r.keyLine("config", &sc.cell.config)
            || !r.keyLine("workload", &sc.cell.workload)
            || !r.u64Line("cellseed", &sc.cell.seed)
            || !r.u64Line("params", &paramCount)) {
            return false;
        }
        if (paramCount > 100000)
            return r.fail("implausible params count");
        for (std::uint64_t p = 0; p < paramCount; ++p) {
            if (!r.next("\"p <key> = <value>\""))
                return false;
            const std::size_t eq = r.line.find(" = ", 2);
            if (r.line.rfind("p ", 0) != 0
                || eq == std::string::npos || eq == 2) {
                return r.fail("expected \"p <key> = <value>\", got \""
                              + r.line + "\"");
            }
            sc.cell.params.emplace_back(r.line.substr(2, eq - 2),
                                        r.line.substr(eq + 3));
        }
        if (!r.u64Line("stats", &statCount))
            return false;
        if (statCount > 100000)
            return r.fail("implausible stats count");
        for (std::uint64_t s = 0; s < statCount; ++s) {
            if (!r.next("\"s <name> = <value>\""))
                return false;
            const std::size_t eq = r.line.find(" = ", 2);
            if (r.line.rfind("s ", 0) != 0
                || eq == std::string::npos || eq == 2) {
                return r.fail("expected \"s <name> = <value>\", got \""
                              + r.line + "\"");
            }
            const std::string valueText = r.line.substr(eq + 3);
            char *end = nullptr;
            const double value = std::strtod(valueText.c_str(), &end);
            if (end == valueText.c_str() || *end != '\0')
                return r.fail("bad stat value \"" + valueText + "\"");
            sc.cell.stats.add(r.line.substr(2, eq - 2), value);
        }
        shard.cells.push_back(std::move(sc));
    }
    if (!r.next("end marker"))
        return false;
    if (r.line != "end")
        return r.fail("expected \"end\", got \"" + r.line + "\"");

    *out = std::move(shard);
    return true;
}

ShardArtifact
readShardArtifactFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    fatal_if(!is, "cannot open shard artifact %s", path.c_str());
    ShardArtifact shard;
    std::string err;
    fatal_if(!tryReadShardArtifact(is, &shard, &err), "%s: %s",
             path.c_str(), err.c_str());
    return shard;
}

bool
tryMergeShardArtifacts(const std::vector<ShardArtifact> &shards,
                       PlanResult *out, std::string *err)
{
    const auto fail = [&](const std::string &msg) {
        *err = "shard merge: " + msg;
        return false;
    };
    if (shards.empty())
        return fail("no partial artifacts given");

    const ShardArtifact &head = shards.front();
    for (std::size_t i = 1; i < shards.size(); ++i) {
        const ShardArtifact &s = shards[i];
        const auto mismatch = [&](const char *what) {
            return fail(std::string("partials disagree on ") + what
                        + " (shard " + std::to_string(head.shard)
                        + " vs shard " + std::to_string(s.shard)
                        + ") — were they produced by the same run?");
        };
        if (s.plan != head.plan)
            return mismatch("plan name");
        if (s.seed != head.seed)
            return mismatch("plan seed");
        if (s.warmup != head.warmup)
            return mismatch("warmup");
        if (s.measure != head.measure)
            return mismatch("measure");
        if (s.filter != head.filter)
            return mismatch("filter");
        if (sampleSpecString(s.sample) != sampleSpecString(head.sample))
            return mismatch("sample spec");
        if (s.hosts != head.hosts)
            return mismatch("host count");
        if (s.cellsTotal != head.cellsTotal)
            return mismatch("total cell count");
    }
    for (std::size_t i = 0; i < shards.size(); ++i) {
        for (std::size_t j = i + 1; j < shards.size(); ++j) {
            if (shards[i].shard == shards[j].shard)
                return fail("shard " + std::to_string(shards[i].shard)
                            + " appears twice");
        }
    }

    std::vector<const ShardCell *> bySlot(head.cellsTotal, nullptr);
    for (const ShardArtifact &s : shards) {
        for (const ShardCell &sc : s.cells) {
            if (sc.slot >= head.cellsTotal)
                return fail("slot " + std::to_string(sc.slot)
                            + " out of range for cells_total "
                            + std::to_string(head.cellsTotal));
            if (bySlot[sc.slot])
                return fail("slot " + std::to_string(sc.slot)
                            + " owned by two partials");
            bySlot[sc.slot] = &sc;
        }
    }
    for (std::uint64_t slot = 0; slot < head.cellsTotal; ++slot) {
        if (!bySlot[slot]) {
            return fail("slot " + std::to_string(slot)
                        + " covered by no partial — "
                        + std::to_string(shards.size()) + " of "
                        + std::to_string(head.hosts)
                        + " shard(s) present; is one missing?");
        }
    }

    PlanResult merged;
    merged.plan = head.plan;
    merged.seed = head.seed;
    merged.warmup = head.warmup;
    merged.measure = head.measure;
    merged.filter = head.filter;
    merged.sample = head.sample;
    merged.cells.reserve(head.cellsTotal);
    for (std::uint64_t slot = 0; slot < head.cellsTotal; ++slot)
        merged.cells.push_back(bySlot[slot]->cell);
    *out = std::move(merged);
    return true;
}

PlanResult
mergeShardArtifacts(const std::vector<ShardArtifact> &shards)
{
    PlanResult merged;
    std::string err;
    fatal_if(!tryMergeShardArtifacts(shards, &merged, &err), "%s",
             err.c_str());
    return merged;
}

} // namespace eole

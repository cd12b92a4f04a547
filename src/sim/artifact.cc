#include "sim/artifact.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/build_info.hh"
#include "common/logging.hh"
#include "sim/json.hh"

namespace eole {

namespace {

RunResult
parseCell(JsonParser &p)
{
    RunResult cell;
    p.expect('{');
    do {
        const std::string key = p.parseString();
        p.expect(':');
        if (key == "config") {
            cell.config = p.parseString();
        } else if (key == "workload") {
            cell.workload = p.parseString();
        } else if (key == "seed") {
            cell.seed = p.parseU64();
        } else if (key == "params") {
            p.expect('{');
            if (!p.tryConsume('}')) {
                do {
                    const std::string pk = p.parseString();
                    p.expect(':');
                    cell.params.emplace_back(pk, p.parseString());
                } while (p.tryConsume(','));
                p.expect('}');
            }
        } else if (key == "stats") {
            p.expect('{');
            if (!p.tryConsume('}')) {
                do {
                    const std::string stat = p.parseString();
                    p.expect(':');
                    cell.stats.add(stat, p.parseNumber());
                } while (p.tryConsume(','));
                p.expect('}');
            }
        } else {
            p.skipValue();
        }
    } while (p.tryConsume(','));
    p.expect('}');
    return cell;
}

} // namespace

void
writeJsonArtifact(std::ostream &os, const PlanResult &result)
{
    os << "{\n";
    os << "  \"schema\": \"eole-sweep-v2\",\n";
    // Provenance, not identity: readers skip it, diffArtifacts ignores
    // it, and within one binary it is a constant — so all byte-identity
    // contracts (jobs/cache/store/shard invariance) hold unchanged.
    os << "  \"build\": ";
    jsonWriteEscaped(os, buildInfoString());
    os << ",\n";
    os << "  \"plan\": ";
    jsonWriteEscaped(os, result.plan);
    os << ",\n";
    os << "  \"seed\": " << result.seed << ",\n";
    os << "  \"warmup\": " << result.warmup << ",\n";
    os << "  \"measure\": " << result.measure << ",\n";
    os << "  \"filter\": ";
    jsonWriteEscaped(os, result.filter);
    os << ",\n";
    os << "  \"sample\": {\"intervals\": " << result.sample.intervals
       << ", \"interval_uops\": " << result.sample.intervalUops
       << ", \"detail_uops\": " << result.sample.detailUops
       << ", \"warm_bound\": " << result.sample.warmBound << "},\n";
    os << "  \"cells\": [";
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const RunResult &cell = result.cells[i];
        os << (i ? ",\n" : "\n");
        os << "    {\n";
        os << "      \"config\": ";
        jsonWriteEscaped(os, cell.config);
        os << ",\n";
        os << "      \"workload\": ";
        jsonWriteEscaped(os, cell.workload);
        os << ",\n";
        os << "      \"seed\": " << cell.seed << ",\n";
        os << "      \"params\": {";
        for (std::size_t k = 0; k < cell.params.size(); ++k) {
            os << (k ? ",\n" : "\n");
            os << "        ";
            jsonWriteEscaped(os, cell.params[k].first);
            os << ": ";
            jsonWriteEscaped(os, cell.params[k].second);
        }
        os << (cell.params.empty() ? "}" : "\n      }") << ",\n";
        os << "      \"stats\": {";
        const auto &stats = cell.stats.all();
        for (std::size_t k = 0; k < stats.size(); ++k) {
            os << (k ? ",\n" : "\n");
            os << "        ";
            jsonWriteEscaped(os, stats[k].first);
            os << ": " << jsonNumberText(stats[k].second);
        }
        os << (stats.empty() ? "}" : "\n      }") << "\n";
        os << "    }";
    }
    os << (result.cells.empty() ? "]" : "\n  ]") << "\n";
    os << "}\n";
}

std::string
jsonArtifactString(const PlanResult &result)
{
    std::ostringstream oss;
    writeJsonArtifact(oss, result);
    return oss.str();
}

void
writeCsvArtifact(std::ostream &os, const PlanResult &result)
{
    os << "plan,config,workload,seed,stat,value\n";
    for (const RunResult &cell : result.cells) {
        for (const auto &[stat, value] : cell.stats.all()) {
            os << result.plan << ',' << cell.config << ','
               << cell.workload << ',' << cell.seed << ',' << stat << ','
               << jsonNumberText(value) << '\n';
        }
    }
}

PlanResult
readJsonArtifact(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    PlanResult result;
    std::string schema;
    JsonParser p(text);
    p.expect('{');
    do {
        const std::string key = p.parseString();
        p.expect(':');
        if (key == "schema") {
            schema = p.parseString();
        } else if (key == "plan") {
            result.plan = p.parseString();
        } else if (key == "seed") {
            result.seed = p.parseU64();
        } else if (key == "warmup") {
            result.warmup = p.parseU64();
        } else if (key == "measure") {
            result.measure = p.parseU64();
        } else if (key == "filter") {
            result.filter = p.parseString();
        } else if (key == "sample") {
            p.expect('{');
            if (!p.tryConsume('}')) {
                do {
                    const std::string sk = p.parseString();
                    p.expect(':');
                    if (sk == "intervals")
                        result.sample.intervals = p.parseU64();
                    else if (sk == "interval_uops")
                        result.sample.intervalUops = p.parseU64();
                    else if (sk == "detail_uops")
                        result.sample.detailUops = p.parseU64();
                    else if (sk == "warm_bound")
                        result.sample.warmBound = p.parseU64();
                    else
                        p.skipValue();
                } while (p.tryConsume(','));
                p.expect('}');
            }
        } else if (key == "cells") {
            p.expect('[');
            if (!p.tryConsume(']')) {
                do {
                    result.cells.push_back(parseCell(p));
                } while (p.tryConsume(','));
                p.expect(']');
            }
        } else {
            p.skipValue();
        }
    } while (p.tryConsume(','));
    p.expect('}');
    p.finish();

    // v1 artifacts predate embedded config maps; their cells read back
    // with empty params (diff treats a wholly-absent map as one
    // difference per cell, not one per key).
    fatal_if(schema != "eole-sweep-v2" && schema != "eole-sweep-v1",
             "unsupported artifact schema \"%s\"", schema.c_str());
    return result;
}

PlanResult
readJsonArtifactFile(const std::string &path)
{
    std::ifstream is(path);
    fatal_if(!is, "cannot read artifact %s", path.c_str());
    return readJsonArtifact(is);
}

std::size_t
diffArtifacts(const PlanResult &a, const PlanResult &b,
              const DiffOptions &options, std::ostream &os)
{
    std::size_t diffs = 0;
    auto report = [&](const std::string &line) {
        ++diffs;
        if (static_cast<int>(diffs) <= options.maxPrint)
            os << "  " << line << "\n";
    };

    if (a.warmup != b.warmup || a.measure != b.measure) {
        os << "note: run lengths differ (a: " << a.warmup << "+"
           << a.measure << ", b: " << b.warmup << "+" << b.measure
           << " µ-ops); stat differences are expected\n";
    }

    auto close = [&](double x, double y) {
        if (x == y)
            return true;
        const double scale = std::max(std::fabs(x), std::fabs(y));
        return std::fabs(x - y) <= options.absTol + options.relTol * scale;
    };

    auto isCiMetadata = [&](const std::string &stat) {
        if (!options.ciOverlap)
            return false;
        auto endsWith = [&](const char *suffix) {
            const std::size_t n = std::strlen(suffix);
            return stat.size() >= n
                && stat.compare(stat.size() - n, n, suffix) == 0;
        };
        // sample_* stats describe the sampling run itself (interval
        // placement, warming volume), not the measured quantity.
        return endsWith("_ci95") || endsWith("_stddev")
            || stat.rfind("sample_", 0) == 0;
    };

    // Config drift: the embedded canonical maps must agree exactly —
    // two cells sharing a name but not a configuration are different
    // experiments, whatever their stats say.
    auto paramOf = [](const RunResult &cell, const std::string &key)
        -> const std::string * {
        for (const auto &[k, v] : cell.params) {
            if (k == key)
                return &v;
        }
        return nullptr;
    };

    for (const RunResult &ca : a.cells) {
        const RunResult *cb = b.find(ca.config, ca.workload);
        const std::string id = ca.config + "/" + ca.workload;
        if (!cb) {
            report("cell " + id + " missing from b");
            continue;
        }
        if (ca.params.empty() != cb->params.empty()) {
            // One side is a legacy v1 artifact: one difference per
            // cell, not one per key.
            report(id + ": config map missing from "
                   + (ca.params.empty() ? "a" : "b"));
        } else {
            for (const auto &[key, va] : ca.params) {
                const std::string *vb = paramOf(*cb, key);
                if (!vb) {
                    report(id + ": config key " + key
                           + " missing from b");
                } else if (*vb != va) {
                    report(id + ": config drift: " + key + " a=" + va
                           + " b=" + *vb);
                }
            }
            for (const auto &[key, vb] : cb->params) {
                (void)vb;
                if (!paramOf(ca, key)) {
                    report(id + ": config key " + key
                           + " missing from a");
                }
            }
        }
        for (const auto &[stat, va] : ca.stats.all()) {
            if (!cb->stats.has(stat)) {
                // Missing keys are always a difference — even under
                // tolerance, even in CI mode (schema drift is never
                // "equal"; regression-pinned in test_experiment.cc).
                report(id + ": stat " + stat + " missing from b");
                continue;
            }
            if (isCiMetadata(stat))
                continue;
            const double vb = cb->stats.get(stat);
            const std::string ciKey = stat + "_ci95";
            if (options.ciOverlap && ca.stats.has(ciKey)
                && cb->stats.has(ciKey)) {
                const double spread =
                    ca.stats.get(ciKey) + cb->stats.get(ciKey);
                if (std::fabs(va - vb) <= spread + options.absTol)
                    continue;
                report(id + ": " + stat + " a=" + std::to_string(va)
                       + " b=" + std::to_string(vb)
                       + " beyond CI overlap (" + std::to_string(spread)
                       + ")");
                continue;
            }
            if (!close(va, vb)) {
                report(id + ": " + stat + " " + std::string("a=")
                       + std::to_string(va) + " b=" + std::to_string(vb));
            }
        }
        // Keys only b has are differences too (see header comment).
        for (const auto &[stat, vb] : cb->stats.all()) {
            (void)vb;
            if (!ca.stats.has(stat))
                report(id + ": stat " + stat + " missing from a");
        }
    }
    for (const RunResult &cb : b.cells) {
        if (!a.find(cb.config, cb.workload))
            report("cell " + cb.config + "/" + cb.workload
                   + " missing from a");
    }

    if (static_cast<int>(diffs) > options.maxPrint) {
        os << "  ... " << (diffs - options.maxPrint)
           << " more difference(s)\n";
    }
    return diffs;
}

std::string
sanitizeForPath(const std::string &s)
{
    std::string out = s;
    for (char &c : out) {
        if (c == '/' || c == '\\' || c == ' ' || c == ':')
            c = '_';
    }
    return out;
}

} // namespace eole

#include "sim/planfile.hh"

#include <cctype>
#include <fstream>
#include <sstream>
#include <tuple>

#include "common/env.hh"
#include "common/fuzzy.hh"
#include "common/logging.hh"
#include "sim/configs.hh"
#include "sim/params.hh"
#include "workloads/workload.hh"

namespace eole {

namespace {

// parseU64Strict comes from common/env.hh (shared with the registry
// and the CLI so plan-file `seed =` and `--seed` accept the same
// spellings).

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        const std::string item = trim(s.substr(pos, comma - pos));
        if (!item.empty())
            out.push_back(item);
        pos = comma + 1;
    }
    return out;
}

/** In-progress parse state: directives accumulate here, expansion and
 *  cross-validation happen once at end of file. */
struct PlanDraft
{
    ExperimentPlan plan;
    bool haveBase = false;
    SimConfig base;
    std::vector<SimConfig> explicitConfigs;
    std::vector<GridAxis> axes;
    std::vector<int> axisLines;  //!< declaration line of each axis
    std::vector<std::pair<std::string, std::string>> sets;
    std::vector<std::pair<int, TableSpec>> tables;  //!< line, spec
    /** `runlen <config> = N` directives: line, config, µ-ops. The
     *  config names are validated against the expanded grid at end of
     *  file (an axis-derived name is a legal target). */
    std::vector<std::tuple<int, std::string, std::uint64_t>> runlens;
};

const std::vector<std::string> &
directiveNames()
{
    static const std::vector<std::string> names = {
        "plan", "description", "base", "configs", "workloads", "seed",
        "warmup", "measure", "runlen", "sample", "set", "axis", "table",
    };
    return names;
}

} // namespace

std::vector<SimConfig>
expandGrid(const SimConfig &base, const std::vector<GridAxis> &axes)
{
    if (axes.empty())
        return {base};
    std::size_t cells = 1;
    for (const GridAxis &axis : axes) {
        fatal_if(axis.values.empty(), "axis %s has no values",
                 axis.key.c_str());
        cells *= axis.values.size();
    }
    std::vector<SimConfig> out;
    out.reserve(cells);
    for (std::size_t i = 0; i < cells; ++i) {
        // Row-major: the first axis varies slowest, the last fastest.
        std::vector<std::size_t> idx(axes.size());
        std::size_t rem = i;
        for (std::size_t a = axes.size(); a-- > 0;) {
            idx[a] = rem % axes[a].values.size();
            rem /= axes[a].values.size();
        }
        // Overrides apply in declaration order — the same order the
        // cell name renders — so a repeated key cannot end up with a
        // name that contradicts the config.
        std::vector<std::pair<std::string, std::string>> kvs;
        std::string name = base.name;
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const std::string &v = axes[a].values[idx[a]];
            kvs.emplace_back(axes[a].key, v);
            name += "+" + axes[a].key + "=" + v;
        }
        out.push_back(deriveConfig(base, name, kvs));
    }
    return out;
}

bool
parsePlanText(const std::string &text, const std::string &origin,
              ExperimentPlan *out, std::string *err)
{
    const ParamRegistry &reg = ParamRegistry::instance();
    PlanDraft draft;
    std::vector<std::string> workload_list;
    bool workloads_all = false;

    auto fail = [&](int line, const std::string &message) {
        *err = origin + (line > 0 ? " line " + std::to_string(line) : "")
            + ": " + message;
        return false;
    };

    std::istringstream is(text);
    std::string raw;
    int lineno = 0;
    while (std::getline(is, raw)) {
        ++lineno;
        std::string line = raw;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        line = trim(line);
        if (line.empty())
            continue;

        // Directive word = leading identifier; `set`/`axis` carry the
        // registry key between the directive and '='.
        const std::size_t eq = line.find('=');
        std::size_t word_end = line.find_first_of(" \t=");
        if (word_end == std::string::npos)
            word_end = line.size();
        const std::string directive = line.substr(0, word_end);
        // Every directive but `table` is "directive [key] = value".
        if (eq == std::string::npos && directive != "table") {
            return fail(lineno, "expected \"directive = value\", got \""
                        + line + "\"");
        }
        const std::string value =
            eq == std::string::npos ? "" : trim(line.substr(eq + 1));
        const std::string middle =
            eq == std::string::npos || eq <= word_end
                ? ""
                : trim(line.substr(word_end, eq - word_end));

        if (directive == "plan") {
            draft.plan.name = value;
        } else if (directive == "description") {
            draft.plan.description = value;
        } else if (directive == "base") {
            if (!configs::findNamed(value, &draft.base)) {
                return fail(lineno, "unknown config \"" + value + "\""
                            + didYouMean(closestMatches(
                                  value, configs::knownNames())));
            }
            draft.haveBase = true;
        } else if (directive == "configs") {
            for (const std::string &name : splitList(value)) {
                SimConfig c;
                if (!configs::findNamed(name, &c)) {
                    return fail(lineno, "unknown config \"" + name + "\""
                                + didYouMean(closestMatches(
                                      name, configs::knownNames())));
                }
                draft.explicitConfigs.push_back(c);
            }
        } else if (directive == "workloads") {
            if (value == "all") {
                workloads_all = true;
            } else {
                for (const std::string &name : splitList(value)) {
                    // "file:<path>": bind an on-disk eole-trace-v2
                    // file and address it by the canonical workload
                    // name embedded in its header, so every seed,
                    // shard and store key matches a live-generated
                    // run of the same workload byte-for-byte.
                    if (name.rfind("file:", 0) == 0) {
                        std::string canonical, err;
                        if (!workloads::resolveWorkloadSpec(
                                name, &canonical, &err))
                            return fail(lineno, err);
                        workload_list.push_back(canonical);
                        continue;
                    }
                    bool known = false;
                    for (const std::string &w : workloads::allNames())
                        known = known || w == name;
                    if (!known) {
                        return fail(lineno, "unknown workload \"" + name
                                    + "\""
                                    + didYouMean(closestMatches(
                                          name, workloads::allNames())));
                    }
                    workload_list.push_back(name);
                }
            }
        } else if (directive == "seed" || directive == "warmup"
                   || directive == "measure") {
            std::uint64_t v = 0;
            if (!parseU64Strict(value, &v)) {
                return fail(lineno, directive + " = \"" + value
                            + "\" is not an unsigned integer");
            }
            if (directive != "seed" && v > maxRunLengthUops) {
                return fail(lineno, directive + " = " + value
                            + " is over the longest run length ("
                            + std::to_string(maxRunLengthUops)
                            + " µ-ops)");
            }
            if (directive == "seed")
                draft.plan.seed = v;
            else if (directive == "warmup")
                draft.plan.warmup = v;
            else
                draft.plan.measure = v;
        } else if (directive == "runlen") {
            // Per-config measured length: "runlen <config> = N".
            // Beats the plan-level `measure` for that config's cells;
            // CLI --insts still beats both (resolveMeasureFor). Split
            // on the LAST '=' — axis-derived config names embed '='
            // (e.g. "EOLE_4_64+prfBanks=2") and are legal targets.
            const std::size_t last_eq = line.rfind('=');
            const std::string cfg_name =
                trim(line.substr(word_end, last_eq - word_end));
            const std::string uops_text = trim(line.substr(last_eq + 1));
            if (cfg_name.empty()) {
                return fail(lineno, "runlen needs a config name: "
                            "\"runlen <config> = <uops>\"");
            }
            std::uint64_t v = 0;
            if (!parseU64Strict(uops_text, &v) || v == 0) {
                return fail(lineno, "runlen " + cfg_name + " = \""
                            + uops_text
                            + "\" is not a positive µ-op count");
            }
            if (v > maxRunLengthUops) {
                return fail(lineno, "runlen " + cfg_name + " = "
                            + uops_text + " is over the longest run "
                            "length ("
                            + std::to_string(maxRunLengthUops)
                            + " µ-ops)");
            }
            for (const auto &[prev_line, prev_cfg, prev_uops] :
                 draft.runlens) {
                (void)prev_line;
                (void)prev_uops;
                if (prev_cfg == cfg_name) {
                    return fail(lineno, "runlen " + cfg_name
                                + " declared twice (the earlier value "
                                "would be silently overwritten)");
                }
            }
            draft.runlens.emplace_back(lineno, cfg_name, v);
        } else if (directive == "sample") {
            // The plan's default sampling spec; `eole run --sample`
            // overrides it (option > plan file, the resolveSampleSpec
            // precedence shared with the run-length knobs).
            std::string serr;
            if (!tryParseSampleSpec(value, &draft.plan.sample, &serr))
                return fail(lineno, serr);
        } else if (directive == "set" || directive == "axis") {
            if (middle.empty()) {
                return fail(lineno, directive
                            + " needs a parameter key: \"" + directive
                            + " <key> = <value>\"");
            }
            if (!reg.find(middle)) {
                return fail(lineno, "unknown parameter \"" + middle
                            + "\"" + didYouMean(reg.suggest(middle)));
            }
            if (directive == "set") {
                draft.sets.emplace_back(middle, value);
            } else {
                for (const GridAxis &prev : draft.axes) {
                    if (prev.key == middle) {
                        return fail(lineno, "axis " + middle
                                    + " declared twice (the earlier "
                                    "values would be silently "
                                    "overwritten)");
                    }
                }
                GridAxis axis;
                axis.key = middle;
                axis.values = splitList(value);
                if (axis.values.empty()) {
                    return fail(lineno, "axis " + middle
                                + " needs at least one value");
                }
                draft.axes.push_back(std::move(axis));
                draft.axisLines.push_back(lineno);
            }
        } else if (directive == "table") {
            // table <stat> "<title>" [normalize=<config>]
            //       [columns=<config>,<config>,...]
            // Clauses cover every TableSpec field; columns= controls
            // column selection and order (default: every config minus
            // the normalizer, in plan order).
            TableSpec spec;
            std::istringstream rest(line.substr(word_end));
            rest >> spec.stat;
            std::string tail;
            std::getline(rest, tail);
            tail = trim(tail);
            if (!tail.empty() && tail.front() == '"') {
                const std::size_t close = tail.find('"', 1);
                if (close == std::string::npos)
                    return fail(lineno, "unterminated table title");
                spec.title = tail.substr(1, close - 1);
                tail = trim(tail.substr(close + 1));
            }
            std::istringstream clauses(tail);
            std::string clause;
            while (clauses >> clause) {
                // Split on the FIRST '=' — axis-derived config names
                // embed '=' and are legal clause values.
                const std::size_t ceq = clause.find('=');
                if (ceq == std::string::npos || ceq == 0) {
                    return fail(lineno, "bad table clause \"" + clause
                                + "\" (want <key>=<value>)");
                }
                const std::string key = clause.substr(0, ceq);
                const std::string cval = clause.substr(ceq + 1);
                if (key == "normalize") {
                    if (!spec.normalizeTo.empty()) {
                        return fail(lineno, "table normalize= given "
                                    "twice");
                    }
                    if (cval.empty()) {
                        return fail(lineno, "table normalize= needs a "
                                    "config name");
                    }
                    spec.normalizeTo = cval;
                } else if (key == "columns") {
                    if (!spec.columns.empty()) {
                        return fail(lineno,
                                    "table columns= given twice");
                    }
                    spec.columns = splitList(cval);
                    if (spec.columns.empty()) {
                        return fail(lineno, "table columns= needs at "
                                    "least one config name (comma-"
                                    "separated, no spaces)");
                    }
                } else {
                    static const std::vector<std::string> clauseNames =
                        {"normalize", "columns"};
                    return fail(lineno, "unknown table clause \"" + key
                                + "\""
                                + didYouMean(closestMatches(
                                      key, clauseNames)));
                }
            }
            if (spec.stat.empty())
                return fail(lineno, "table needs a stat name");
            if (spec.title.empty())
                spec.title = spec.stat + " (" + draft.plan.name + ")";
            draft.tables.emplace_back(lineno, spec);
        } else {
            return fail(lineno, "unknown directive \"" + directive + "\""
                        + didYouMean(closestMatches(directive,
                                                    directiveNames())));
        }
    }

    // ----- end-of-file expansion and cross-validation -----
    if (draft.plan.name.empty())
        return fail(0, "missing required directive \"plan = <name>\"");
    if (!draft.axes.empty() && !draft.haveBase) {
        return fail(0, "axis directives need a \"base = <config>\" to "
                    "derive from");
    }

    draft.plan.configs = draft.explicitConfigs;
    if (draft.haveBase) {
        // Validate every axis value before expansion — expandGrid's
        // own checks are fatal (compiled-in misuse), but a plan file
        // is operator input and deserves a line-numbered exit-2.
        for (std::size_t a = 0; a < draft.axes.size(); ++a) {
            SimConfig probe = draft.base;
            for (const std::string &v : draft.axes[a].values) {
                const std::string e =
                    reg.trySet(probe, draft.axes[a].key, v);
                if (!e.empty())
                    return fail(draft.axisLines[a], e);
            }
        }
        for (SimConfig &c : expandGrid(draft.base, draft.axes))
            draft.plan.configs.push_back(std::move(c));
    }
    if (draft.plan.configs.empty()) {
        return fail(0, "no configurations: give \"base = <config>\" "
                    "and/or \"configs = <name>, ...\"");
    }
    // `set` overrides apply to every config, like `eole run --set`.
    for (SimConfig &c : draft.plan.configs) {
        for (const auto &[key, value] : draft.sets) {
            const std::string e = reg.trySet(c, key, value);
            if (!e.empty())
                return fail(0, "set " + key + " on " + c.name + ": " + e);
        }
    }
    for (std::size_t i = 0; i < draft.plan.configs.size(); ++i) {
        for (std::size_t j = i + 1; j < draft.plan.configs.size(); ++j) {
            if (draft.plan.configs[i].name == draft.plan.configs[j].name) {
                return fail(0, "duplicate config name \""
                            + draft.plan.configs[i].name
                            + "\" (cells would be indistinguishable)");
            }
        }
    }

    // runlen targets must name configs of this plan (checked after
    // grid expansion so axis-derived names are addressable).
    for (const auto &[line, cfg_name, uops] : draft.runlens) {
        bool known = false;
        for (const SimConfig &c : draft.plan.configs)
            known = known || c.name == cfg_name;
        if (!known) {
            std::vector<std::string> names;
            for (const SimConfig &c : draft.plan.configs)
                names.push_back(c.name);
            return fail(line, "runlen target \"" + cfg_name
                        + "\" is not a config of this plan"
                        + didYouMean(closestMatches(cfg_name, names)));
        }
        draft.plan.runlens.emplace_back(cfg_name, uops);
    }

    draft.plan.workloads =
        workloads_all || workload_list.empty() ? workloads::allNames()
                                               : workload_list;

    for (auto &[line, spec] : draft.tables) {
        if (!spec.normalizeTo.empty()) {
            bool known = false;
            for (const SimConfig &c : draft.plan.configs)
                known = known || c.name == spec.normalizeTo;
            if (!known) {
                std::vector<std::string> names;
                for (const SimConfig &c : draft.plan.configs)
                    names.push_back(c.name);
                return fail(line, "table normalize=\"" + spec.normalizeTo
                            + "\" is not a config of this plan"
                            + didYouMean(closestMatches(spec.normalizeTo,
                                                        names)));
            }
        }
        if (spec.columns.empty()) {
            // Columns default to every config (minus the normalizer).
            for (const SimConfig &c : draft.plan.configs) {
                if (c.name != spec.normalizeTo)
                    spec.columns.push_back(c.name);
            }
        } else {
            // Explicit columns= must name configs of this plan
            // (checked after grid expansion so axis-derived names are
            // addressable, like runlen targets).
            for (const std::string &col : spec.columns) {
                bool colKnown = false;
                for (const SimConfig &c : draft.plan.configs)
                    colKnown = colKnown || c.name == col;
                if (!colKnown) {
                    std::vector<std::string> names;
                    for (const SimConfig &c : draft.plan.configs)
                        names.push_back(c.name);
                    return fail(line, "table column \"" + col
                                + "\" is not a config of this plan"
                                + didYouMean(closestMatches(col,
                                                            names)));
                }
            }
        }
        draft.plan.tables.push_back(spec);
    }

    *out = draft.plan;
    return true;
}

bool
loadPlanFile(const std::string &path, ExperimentPlan *out,
             std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        *err = "cannot read plan file " + path;
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return parsePlanText(buf.str(), path, out, err);
}

} // namespace eole

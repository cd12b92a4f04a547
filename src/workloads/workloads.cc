/**
 * @file
 * Workload registry: name lookup over the 19 SPEC-like kernels.
 */

#include "workloads/workload.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>

#include "common/fuzzy.hh"
#include "common/logging.hh"
#include "trace/trace_file.hh"
#include "workloads/torture_gen.hh"

namespace eole {
namespace workloads {

namespace {

struct Entry
{
    const char *name;
    Workload (*build)();
};

// Traces bound from disk (bindTraceFile), keyed by the canonical name
// embedded in the file. Process-wide so that sweep/sample workers
// resolving workload names on any thread see the same binding.
std::mutex boundMutex;
std::map<std::string, std::shared_ptr<const FrozenTrace>> boundTraces;

std::shared_ptr<const FrozenTrace>
findBoundTrace(const std::string &name)
{
    std::lock_guard<std::mutex> lock(boundMutex);
    auto it = boundTraces.find(name);
    return it == boundTraces.end() ? nullptr : it->second;
}

// Table 3 order (CPU2000 first, then CPU2006).
const Entry registry[] = {
    {"164.gzip", makeGzip},
    {"168.wupwise", makeWupwise},
    {"173.applu", makeApplu},
    {"175.vpr", makeVpr},
    {"179.art", makeArt},
    {"186.crafty", makeCrafty},
    {"197.parser", makeParser},
    {"255.vortex", makeVortex},
    {"401.bzip2", makeBzip2},
    {"403.gcc", makeGcc},
    {"416.gamess", makeGamess},
    {"429.mcf", makeMcf},
    {"433.milc", makeMilc},
    {"444.namd", makeNamd},
    {"445.gobmk", makeGobmk},
    {"456.hmmer", makeHmmer},
    {"458.sjeng", makeSjeng},
    {"464.h264ref", makeH264ref},
    {"470.lbm", makeLbm},
};

} // namespace

const std::vector<std::string> &
allNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &e : registry)
            v.emplace_back(e.name);
        return v;
    }();
    return names;
}

Workload
build(const std::string &name)
{
    // File-bound traces shadow same-named generators: a plan that says
    // file:foo.trace must replay those exact bytes even if a generator
    // also answers to the embedded name.
    if (auto frozen = findBoundTrace(name)) {
        Workload w;
        w.name = name;
        w.isFp = frozen->isFp;
        w.frozen = std::move(frozen);
        w.fileBacked = true;
        return w;
    }
    for (const auto &e : registry) {
        if (name == e.name)
            return e.build();
    }
    // "torture:<seed>[:<iters>]": a seeded random program from the
    // differential torture generator (workloads/torture_gen.hh), with
    // an optional outer-loop trip-count to stretch the dynamic length
    // (sampled plans need tens of thousands of µ-ops). Not part of
    // allNames() — these are test/harness workloads, addressable
    // anywhere a registry name is accepted.
    if (name.rfind("torture:", 0) == 0) {
        const std::string spec = name.substr(8);
        // strtoull silently wraps negative input to huge values;
        // "torture:-1" must be a diagnostic, not a ~2^64-iteration
        // program (same guard as tryParseSampleSpec).
        fatal_if(spec.find_first_of("+-") != std::string::npos,
                 "bad torture workload spec in '%s' "
                 "(want torture:<seed>[:<iters>])", name.c_str());
        char *end = nullptr;
        const std::uint64_t seed = std::strtoull(spec.c_str(), &end, 0);
        std::uint64_t iters = 0;
        if (end != spec.c_str() && *end == ':')
            iters = std::strtoull(end + 1, &end, 0);
        fatal_if(spec.empty() || end != spec.c_str() + spec.size(),
                 "bad torture workload spec in '%s' "
                 "(want torture:<seed>[:<iters>])", name.c_str());
        Workload w;
        w.name = name;
        w.memBytes = tortureMemBytes;
        w.program = generateTortureProgram(seed, iters);
        return w;
    }
    fatal("unknown workload '%s'", name.c_str());
}

bool
bindTraceFile(const std::string &path, std::string *name_out,
              std::string *err)
{
    auto frozen = loadTraceFile(path, err);
    if (!frozen)
        return false;
    if (name_out)
        *name_out = frozen->name;
    std::lock_guard<std::mutex> lock(boundMutex);
    // Re-binding the same name is fine (idempotent across plan + CLI
    // resolution of the same file); last binding wins.
    boundTraces[frozen->name] = std::move(frozen);
    return true;
}

bool
resolveWorkloadSpec(const std::string &spec, std::string *resolved,
                    std::string *err)
{
    if (spec.rfind("file:", 0) != 0) {
        *resolved = spec;
        return true;
    }
    const std::string path = spec.substr(5);
    std::string name, lerr;
    if (bindTraceFile(path, &name, &lerr)) {
        *resolved = name;
        return true;
    }
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path abs = fs::absolute(path, ec);
    if (ec)
        abs = path;
    std::vector<std::string> siblings;
    if (fs::is_directory(abs.parent_path(), ec)) {
        for (const auto &e : fs::directory_iterator(abs.parent_path(),
                                                    ec)) {
            // A file that exists but does not load (an eole-trace-v1
            // file, say) is no suggestion for itself.
            if (e.path().extension() == ".trace"
                && e.path().filename() != abs.filename())
                siblings.push_back(e.path().filename().string());
        }
        std::sort(siblings.begin(), siblings.end());
    }
    *err = csprintf("cannot load trace file %s: %s",
                    abs.string().c_str(), lerr.c_str())
        + didYouMean(closestMatches(abs.filename().string(), siblings));
    return false;
}

void
clearBoundTraces()
{
    std::lock_guard<std::mutex> lock(boundMutex);
    boundTraces.clear();
}

} // namespace workloads
} // namespace eole

/**
 * @file
 * `eole` — the unified sweep driver.
 *
 *   eole list [--workloads]           show plans (or workloads)
 *   eole run <plan> [options]         execute a plan on a worker pool
 *   eole shard <plan> --hosts N --host I   run one host's slice of a
 *                                     plan (coordinator-free split)
 *   eole merge <partial...> --out F   merge shard partials into the
 *                                     single-host artifact, byte-
 *                                     identical
 *   eole store ls|gc <dir>            inspect / bound a --store
 *                                     content-addressed result cache
 *   eole diff <a.json> <b.json>       compare two artifacts
 *   eole bench [--out BENCH_x.json]   time detailed-mode µops/sec
 *                                     (--compare diffs two artifacts)
 *   eole ckpt save|info               write / inspect eole-ckpt-v2
 *                                     warm-state checkpoint files
 *
 * Each figure of the paper is a named plan (sim/plans.hh) that `eole
 * run` reproduces, with parallel execution
 * (--jobs), cell filtering (--filter), structured artifacts (--out /
 * --csv), reproducible seeding (--seed) and checkpointed statistical
 * sampling (--sample N:W:D, sim/sample/). Artifacts are byte-stable:
 * the same plan at the same run lengths, seed and sample spec produces
 * the same JSON regardless of --jobs, so `eole diff` against a prior
 * artifact is an exact regression check; `eole diff --ci` compares
 * sampled artifacts by confidence-interval overlap instead.
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/build_info.hh"
#include "common/env.hh"
#include "common/fuzzy.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/pipetrace.hh"
#include "sim/artifact.hh"
#include "sim/bench.hh"
#include "sim/configs.hh"
#include "sim/executor.hh"
#include "sim/experiment.hh"
#include "sim/params.hh"
#include "sim/plan.hh"
#include "sim/planfile.hh"
#include "sim/plans.hh"
#include "sim/sample/sample.hh"
#include "sim/shard.hh"
#include "sim/store.hh"
#include "sim/sweep.hh"
#include "sim/telemetry.hh"
#include "trace/rv64_ingest.hh"
#include "trace/trace_file.hh"
#include "workloads/workload.hh"

using namespace eole;

namespace {

int
usage(FILE *to, int exit_code)
{
    std::fprintf(to,
        "eole — EOLE sweep driver\n"
        "\n"
        "usage:\n"
        "  eole list [--workloads [name|file:F ...]]\n"
        "      List every registered experiment plan with its grid\n"
        "      size (configs x workloads) and default run lengths, or\n"
        "      with --workloads the registered workloads and their\n"
        "      µ-op counts (up to the current run-length horizon).\n"
        "      --workloads also accepts explicit names and\n"
        "      file:<path.trace> specs to describe just those (a\n"
        "      file: spec binds the trace and shows its on-disk\n"
        "      µ-op count).\n"
        "\n"
        "  eole describe <config> | --params\n"
        "      Dump a named configuration (Baseline_6_64,\n"
        "      EOLE_4_64_4ports_4banks, FPC_paper, ...) as its full\n"
        "      canonical key=value map; values differing from the\n"
        "      defaults are marked. --params lists every registered\n"
        "      parameter key with type, range and doc instead.\n"
        "\n"
        "  eole run <plan> [options]\n"
        "  eole run --plan <file.plan> [options]\n"
        "      --plan F      run a plan file (grid as data: base\n"
        "                    config + `axis key = v1, v2` lines; see\n"
        "                    DESIGN.md §9) instead of a registered\n"
        "                    plan\n"
        "      --set K=V     override parameter K on every config of\n"
        "                    the plan (repeatable; keys as in `eole\n"
        "                    describe --params`)\n"
        "      --jobs N      worker threads (default: EOLE_THREADS or\n"
        "                    hardware concurrency)\n"
        "      --filter S    run only cells whose \"config/workload\"\n"
        "                    contains S\n"
        "      --out F       write the JSON artifact to F\n"
        "      --csv F       write a long-form CSV to F\n"
        "      --warmup N    warmup µ-ops (default: EOLE_WARMUP or 1M)\n"
        "      --insts N     measured µ-ops (default: EOLE_INSTS or 5M)\n"
        "      --seed N      plan base seed (default 1)\n"
        "      --workloads W1,W2  replace the plan's workload list.\n"
        "                    Entries are registry names (torture:7,\n"
        "                    fig12:gcc, ...) or file:<path.trace>\n"
        "                    on-disk traces from `eole trace record` /\n"
        "                    `eole trace ingest`; a file: workload runs\n"
        "                    under its embedded name and its artifact\n"
        "                    cells are byte-identical to a live-\n"
        "                    generated run of the same workload. A\n"
        "                    missing or corrupt trace file exits 2\n"
        "                    with the resolved path (and nearby .trace\n"
        "                    suggestions).\n"
        "      --sample N:W:D[:B]  checkpointed statistical sampling:\n"
        "                    N intervals of W measured µ-ops, each\n"
        "                    after D µ-ops of detailed warmup (D\n"
        "                    defaults to W/2); functional warming\n"
        "                    covers up to B µ-ops before each interval\n"
        "                    (default 0 = the whole skipped prefix,\n"
        "                    warmed ONCE per cell and restored from\n"
        "                    eole-ckpt-v2 checkpoints at each\n"
        "                    interval). Overrides a plan file's\n"
        "                    `sample =` directive. Cells report mean\n"
        "                    ipc + ipc_ci95.\n"
        "      --store DIR   content-addressed result store: cells\n"
        "                    whose key (config map, workload, seed,\n"
        "                    run lengths, sample spec) already\n"
        "                    resolves in DIR load their stats instead\n"
        "                    of running, and fresh cells are inserted\n"
        "                    — artifacts stay byte-identical either\n"
        "                    way\n"
        "      --no-cache    disable the shared functional-trace cache\n"
        "      --no-tables   skip the paper-style tables\n"
        "      --quiet       suppress progress chatter on stderr\n"
        "                    (notice-level lines like store summaries\n"
        "                    still print; EOLE_LOG=quiet|normal|debug\n"
        "                    sets the same levels from the environment)\n"
        "      --progress    heartbeat as cells finish: done count,\n"
        "                    elapsed and ETA (prints even with --quiet)\n"
        "      --telemetry F write a JSONL event stream beside the run:\n"
        "                    a run_start manifest (plan, lengths, host,\n"
        "                    build), cell_queued per matched cell,\n"
        "                    job_start/job_finish with worker index and\n"
        "                    wall time, store / trace-cache counters,\n"
        "                    and a terminal run_finish — or run_aborted\n"
        "                    when the command exits early. Summarize\n"
        "                    with `eole telemetry summarize`.\n"
        "      --pipetrace F trace every pipeline event of the run's\n"
        "                    single cell (narrow with --filter) into F\n"
        "                    in Kanata format — open it in the Konata\n"
        "                    viewer. --pipetrace-format canonical\n"
        "                    writes the byte-stable text form instead;\n"
        "                    --pipetrace-range A:B restricts to µ-op\n"
        "                    sequence numbers [A, B). Unsampled,\n"
        "                    non-shard runs only.\n"
        "\n"
        "  eole shard <plan>|--plan <file.plan> --hosts N --host I\n"
        "            [run options] [--out FILE|DIR]\n"
        "      Run host I's slice of the plan (I in [0, N)): cell\n"
        "      ownership is a pure function of the plan seed and the\n"
        "      cell identity, so N hosts each run `eole shard` with\n"
        "      their own --host and no coordinator, then ship the\n"
        "      partial artifacts to one place for `eole merge`. --out\n"
        "      defaults to <plan>.shard<I>of<N>.eoleshard (a given\n"
        "      directory keeps that name inside it). Accepts the run\n"
        "      options above except --csv/--no-tables (partials are\n"
        "      not meant for human eyes; tables print at merge time).\n"
        "\n"
        "  eole merge <partial.eoleshard>... --out <artifact.json>\n"
        "      Validate and merge shard partials into the JSON\n"
        "      artifact a single-host `eole run --out` of the same\n"
        "      plan would have written — byte-identical. Exit 2 with\n"
        "      a line-numbered diagnostic on a corrupted partial, and\n"
        "      with a coverage diagnostic when a shard is missing,\n"
        "      duplicated, or from a different run.\n"
        "\n"
        "  eole store ls <dir>\n"
        "  eole store gc <dir> [--max-objects N] [--max-bytes N]\n"
        "      Inspect or bound a --store directory. `ls` prints one\n"
        "      line per object (hash prefix, kind, payload bytes,\n"
        "      logical LRU tick, cell identity) plus totals; `gc`\n"
        "      evicts least-recently-used objects until the given\n"
        "      bounds hold (eviction order is the deterministic\n"
        "      logical-tick order, not wall time).\n"
        "\n"
        "  eole ckpt save <plan>|--plan <file.plan> --out <dir>\n"
        "            [--sample N:W:D[:B]] [--filter S] [--jobs N]\n"
        "            [--seed N] [--warmup N] [--insts N] [--set K=V]\n"
        "            [--store DIR] [--no-cache] [--quiet]\n"
        "      One continuous warming pass per matched (config,\n"
        "      workload) cell, writing an eole-ckpt-v2 checkpoint\n"
        "      file (architectural registers + serialized predictor/\n"
        "      cache state) per sampling interval into <dir> — the\n"
        "      same checkpoints `eole run --sample` feeds its\n"
        "      intervals from, as shippable artifacts for other\n"
        "      hosts. The spec comes from --sample or the plan file's\n"
        "      `sample =` directive (--sample wins). With --store,\n"
        "      checkpoints are also keyed into the content-addressed\n"
        "      store; a cell whose checkpoints all resolve skips its\n"
        "      warming pass and writes them straight from the store.\n"
        "\n"
        "  eole ckpt info <file.ckpt>...\n"
        "      Validate checkpoint files (strict, line-numbered\n"
        "      diagnostics; exit 2 on a malformed file) and print\n"
        "      schema, provenance, µ-op index and section sizes.\n"
        "\n"
        "  eole trace record <workload> --out <file.trace>\n"
        "            [--uops N] [--store DIR] [--quiet]\n"
        "      Record a workload's functional µ-op trace into an\n"
        "      eole-trace-v1 file (mmap-ready packed records +\n"
        "      SHA-256 footer). --uops bounds the recording (default:\n"
        "      the current warmup+measure horizon plus slack, so the\n"
        "      file covers a default-length run of any stock config).\n"
        "      --store also inserts the file into a content-addressed\n"
        "      store as a kind=trace object keyed by its own bytes.\n"
        "\n"
        "  eole trace info <file.trace>...\n"
        "      Validate trace files (header, layout hash, checksum;\n"
        "      exit 2 with a byte-offset diagnostic on truncation or\n"
        "      corruption) and print workload, source, µ-op count and\n"
        "      completeness.\n"
        "\n"
        "  eole trace ingest <log.rvlog> --out <file.trace>\n"
        "            [--name N] [--quiet]\n"
        "      Translate an RV64I committed-instruction log (spike/\n"
        "      QEMU style `pc insn` lines, with optional reg/mem seed\n"
        "      directives) into the internal µ-op vocabulary and write\n"
        "      it as eole-trace-v1. The workload name defaults to\n"
        "      rv64:<log stem>. See DESIGN.md §13 for the cracking\n"
        "      table and the unsupported-instruction list.\n"
        "\n"
        "  eole bench [--configs A,B] [--workloads X,Y] [--budget N]\n"
        "             [--warmup N] [--reps K] [--label L] [--out F]\n"
        "             [--profile] [--quiet]\n"
        "      Time detailed-mode simulation speed (µops/sec), one\n"
        "      serial cell per (config, workload): discard --warmup\n"
        "      µ-ops (default 100k), time --budget measured µ-ops\n"
        "      (default 1M), keep the fastest of --reps repetitions\n"
        "      (default 3). Configs default to the fig12 set,\n"
        "      workloads to a 3-benchmark smoke set (file:<path.trace>\n"
        "      specs accepted). --out writes a\n"
        "      canonical eole-bench-v1 JSON artifact (the committed\n"
        "      BENCH_<label>.json trajectory files). --profile\n"
        "      attributes each cell's wall time to pipeline stages and\n"
        "      models (per-cell breakdown tables + a profile section\n"
        "      in the JSON); profiled timings carry the timer overhead,\n"
        "      so compare them only against other profiled runs.\n"
        "      EOLE_PROF=1 enables the same timers in any command.\n"
        "\n"
        "  eole bench --compare <a.json> <b.json> [--fail-below X]\n"
        "      Per-cell speedup report of b over a from two bench\n"
        "      artifacts, plus the geomean over common cells. With\n"
        "      --fail-below, exit 1 when that geomean is below X\n"
        "      (e.g. 0.8 = fail on a >20%% regression).\n"
        "\n"
        "  eole diff <a.json> <b.json> [--rel-tol X] [--abs-tol X]\n"
        "            [--ci]\n"
        "      Compare two artifacts; exit 1 if they differ beyond\n"
        "      tolerance (default: exact). Cells embed their complete\n"
        "      canonical config map, so config drift is reported\n"
        "      alongside stat drift. --ci compares stats that carry\n"
        "      *_ci95 companions by confidence-interval overlap and\n"
        "      skips sample_* bookkeeping stats (for sampled\n"
        "      artifacts; combine with --rel-tol for raw totals). A\n"
        "      stat key present on only one side is always a\n"
        "      difference.\n"
        "\n"
        "  eole telemetry summarize <file.jsonl>...\n"
        "      Merge one or more --telemetry streams (e.g. the three\n"
        "      files of a 3-shard sweep) into the time before\n"
        "      run_start, per-worker utilization, the critical-path\n"
        "      cell, store/trace-cache totals and the distinct cell\n"
        "      set.\n"
        "\n"
        "  eole --version\n"
        "      Print build provenance (git describe, compiler, build\n"
        "      type) — the same string stamped into artifacts, bench\n"
        "      JSON and telemetry manifests.\n");
    return exit_code;
}

bool
takeValue(int argc, char **argv, int &i, const char *flag, std::string &out)
{
    if (std::strcmp(argv[i], flag) != 0)
        return false;
    if (i + 1 >= argc) {
        std::fprintf(stderr, "eole: %s needs a value\n", flag);
        std::exit(2);
    }
    out = argv[++i];
    return true;
}

std::uint64_t
parseU64(const std::string &s, const char *what, std::uint64_t max = ~0ULL)
{
    std::uint64_t v = 0;
    if (!parseU64Strict(s, &v) || v > max) {
        std::fprintf(stderr, "eole: bad %s \"%s\"\n", what, s.c_str());
        std::exit(2);
    }
    return v;
}

/** A tolerance flag: a finite decimal >= 0, else exit 2. */
double
parseTolerance(const std::string &s, const char *what)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end || !std::isfinite(v) || v < 0.0) {
        std::fprintf(stderr, "eole: bad %s \"%s\"\n", what, s.c_str());
        std::exit(2);
    }
    return v;
}

bool resolveWorkloadSpec(const std::string &spec, std::string *resolved,
                         std::string *err);

int
cmdListWorkloads(const std::vector<std::string> &specs)
{
    // Default listing: the whole registry. Explicit specs may add
    // torture:<seed> or file:<path> workloads (the latter resolve to
    // their embedded canonical names).
    std::vector<std::string> names;
    if (specs.empty()) {
        names = workloads::allNames();
    } else {
        for (const std::string &spec : specs) {
            std::string resolved, err;
            if (!resolveWorkloadSpec(spec, &resolved, &err)) {
                std::fprintf(stderr, "eole: %s\n", err.c_str());
                return 2;
            }
            names.push_back(resolved);
        }
    }

    // µ-op counts are only meaningful up to the horizon a run would
    // consume; count up to warmup + measure + slack and report longer
    // workloads as lower bounds. Step a VM and discard the µ-ops —
    // counting needs O(1) memory, not a materialized trace. File-backed
    // workloads already know their exact length.
    const std::uint64_t horizon = warmupUops() + measureUops() + 1024;
    std::printf("%-14s %5s %12s\n", "workload", "suite", "µ-ops");
    for (const std::string &name : names) {
        const Workload w = workloads::build(name);
        if (w.fileBacked) {
            std::printf("%-14s %5s %11zu%s\n", name.c_str(),
                        w.isFp ? "FP" : "INT", w.frozen->uops.size(),
                        w.frozen->complete ? " " : "+");
            continue;
        }
        KernelVM vm(w.program, w.memBytes);
        if (w.init)
            w.init(vm);
        TraceUop u;
        while (vm.executedUops() < horizon && vm.step(u)) {
        }
        if (vm.halted()) {
            std::printf("%-14s %5s %12llu\n", name.c_str(),
                        w.isFp ? "FP" : "INT",
                        (unsigned long long)vm.executedUops());
        } else {
            std::printf("%-14s %5s %11llu+\n", name.c_str(),
                        w.isFp ? "FP" : "INT",
                        (unsigned long long)vm.executedUops());
        }
    }
    std::printf("\ncounts capped at the current run-length horizon "
                "(%llu µ-ops = EOLE_WARMUP + EOLE_INSTS + slack); "
                "\"+\" marks workloads still running at the cap (or an "
                "incomplete trace file)\n",
                (unsigned long long)horizon);
    return 0;
}

int
cmdList(int argc, char **argv)
{
    if (argc >= 1 && std::strcmp(argv[0], "--workloads") == 0) {
        std::vector<std::string> specs;
        for (int i = 1; i < argc; ++i) {
            if (argv[i][0] == '-') {
                std::fprintf(stderr, "eole: unknown option %s\n",
                             argv[i]);
                return usage(stderr, 2);
            }
            specs.emplace_back(argv[i]);
        }
        return cmdListWorkloads(specs);
    }
    if (argc > 0) {
        std::fprintf(stderr, "eole: unknown option %s\n", argv[0]);
        return usage(stderr, 2);
    }
    std::printf("%-16s %10s %9s %9s  %s\n", "plan", "grid", "warmup",
                "measure", "description");
    for (const std::string &name : plans::allNames()) {
        const ExperimentPlan p = plans::get(name);
        // The run lengths this plan would use today: plan fields when
        // set, else the environment/default (common/env.hh precedence
        // minus the CLI flags, which are per-invocation).
        const std::uint64_t warm = resolveRunLength(
            0, p.warmup, "EOLE_WARMUP", defaultWarmupUops);
        const std::uint64_t meas = resolveRunLength(
            0, p.measure, "EOLE_INSTS", defaultMeasureUops);
        const std::string grid = std::to_string(p.configs.size()) + "x"
            + std::to_string(p.workloads.size()) + "="
            + std::to_string(p.gridSize());
        std::printf("%-16s %10s %9llu %9llu  %s\n", name.c_str(),
                    grid.c_str(), (unsigned long long)warm,
                    (unsigned long long)meas, p.description.c_str());
    }
    std::printf("\ngrid = configs x workloads = cells; run lengths in "
                "µ-ops (EOLE_WARMUP / EOLE_INSTS env or --warmup / "
                "--insts per run)\n");
    return 0;
}

int
cmdDescribe(int argc, char **argv)
{
    if (argc != 1) {
        std::fprintf(stderr,
                     "eole: describe needs a config name or --params\n");
        return usage(stderr, 2);
    }
    const ParamRegistry &reg = ParamRegistry::instance();

    if (std::strcmp(argv[0], "--params") == 0) {
        std::printf("%-28s %-11s %-22s %s\n", "key", "type",
                    "default", "doc");
        for (const ParamInfo &p : reg.params()) {
            std::string constraint;
            if (p.type == "int" || p.type == "u64" || p.type == "u32") {
                constraint = p.maxValue == ~0ULL
                    ? csprintf("[%llu, 2^64)",
                               (unsigned long long)p.minValue)
                    : csprintf("[%llu, %llu]",
                               (unsigned long long)p.minValue,
                               (unsigned long long)p.maxValue);
            } else if (p.type == "enum") {
                for (const std::string &v : p.enumValues) {
                    constraint +=
                        (constraint.empty() ? "" : "|") + v;
                }
            }
            std::printf("%-28s %-11s %-22s %s%s%s\n", p.key.c_str(),
                        p.type.c_str(), p.defaultValue.c_str(),
                        p.doc.c_str(),
                        constraint.empty() ? "" : "; ",
                        constraint.c_str());
        }
        std::printf("\n%zu parameters; set any of them with `eole run "
                    "<plan> --set key=value` or plan-file `set`/`axis` "
                    "directives\n", reg.params().size());
        return 0;
    }

    const std::string name = argv[0];
    SimConfig c;
    if (!configs::findNamed(name, &c)) {
        std::fprintf(stderr, "eole: unknown config \"%s\"%s\n",
                     name.c_str(),
                     didYouMean(closestMatches(
                         name, configs::knownNames())).c_str());
        std::fprintf(stderr,
                     "  named configs of registered plans:");
        for (const std::string &n : configs::knownNames())
            std::fprintf(stderr, " %s", n.c_str());
        std::fprintf(stderr,
                     "\n  plus the paper naming scheme "
                     "(Baseline[_VP]_<w>_<iq>, EOLE_<w>_<iq>"
                     "[_<p>ports_<b>banks], OLE_/EOE_...)\n");
        return 2;
    }

    std::size_t overrides = 0;
    for (const ParamInfo &p : reg.params()) {
        const std::string v = p.get(c);
        if (v == p.defaultValue) {
            std::printf("%-28s = %s\n", p.key.c_str(), v.c_str());
        } else {
            std::printf("%-28s = %-22s # default: %s\n", p.key.c_str(),
                        v.c_str(), p.defaultValue.c_str());
            ++overrides;
        }
    }
    std::printf("\n%s: %zu parameters, %zu differing from defaults "
                "(marked '#')\n", c.name.c_str(), reg.params().size(),
                overrides);
    return 0;
}

/** "a,b,c" -> {"a", "b", "c"}; empty segments rejected upstream by the
 *  registries' own unknown-name diagnostics. */
std::vector<std::string>
splitCommaList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? s.size() : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/**
 * Resolve one CLI workload spec: plain names pass through untouched
 * (the registries validate them), "file:<path>" binds the trace file
 * (workloads::bindTraceFile) and resolves to the canonical name
 * embedded in it. A file that cannot be loaded produces a diagnostic
 * naming the resolved absolute path plus a did-you-mean over the
 * sibling .trace files — the usual typo is the filename, not the
 * directory.
 */
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
    if (workloads::bindTraceFile(path, &name, &lerr)) {
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
            if (e.path().extension() == ".trace")
                siblings.push_back(e.path().filename().string());
        }
        std::sort(siblings.begin(), siblings.end());
    }
    *err = csprintf("cannot load trace file %s: %s",
                    abs.string().c_str(), lerr.c_str())
        + didYouMean(closestMatches(abs.filename().string(), siblings));
    return false;
}

/**
 * The front door `run`, `shard` and `ckpt save` share: the plan (a
 * registered name or --plan FILE), --set, --seed, --filter with its
 * "matches no cell" diagnostic, --jobs, --warmup, --insts, --sample,
 * --store, --telemetry, --no-cache and --quiet, plus the exit-2 bail
 * that ends the telemetry stream with run_aborted. A command's own
 * flags go through the callback it hands to parse().
 */
struct RunRequest
{
    RunRequest(const char *verb, const char *command)
        : verb(verb), command(command)
    {}

    const char *verb;     //!< in diagnostics: "run", "ckpt save", ...
    const char *command;  //!< in the telemetry manifest
    ExperimentPlan plan;
    SweepOptions opt;
    SampleSpec sample;    //!< the effective spec once expand() ran
    SweepExpansion cells; //!< expand(): this host's matched cells
    std::string workloads;  //!< --workloads override (run, shard)
    bool quiet = false;
    std::unique_ptr<TelemetrySink> telem;
    std::unique_ptr<Store> store;

    /** Exit code of a usage error, else 0. */
    int parse(int argc, char **argv, const std::function<bool(int &)> &own);
    /** Open the telemetry sink, then load the plan and apply --seed,
     *  --workloads and --set. */
    int open();
    /** Expand the plan (after the shard slice is set) and resolve the
     *  sampling spec. */
    int expand();
    /** Emit the run manifest and attach the sink and the store. */
    void start();
    void storeSummary(std::size_t hits, std::size_t computed) const;
    int bail(const std::string &reason) const;
    int finish(std::size_t done) const;

  private:
    std::string namedPlan, planFile, telemetryPath, storeDir;
    std::vector<std::string> sets;
    std::uint64_t seed = 0;
    bool haveSeed = false;
};

int
RunRequest::parse(int argc, char **argv,
                  const std::function<bool(int &)> &own)
{
    int i = 0;
    if (argc >= 1 && argv[0][0] != '-') {
        // Resolved after the telemetry sink opens, so an unknown name
        // still terminates the stream with run_aborted.
        namedPlan = argv[0];
        i = 1;
    }
    std::string value;
    for (; i < argc; ++i) {
        if (own(i) || takeValue(argc, argv, i, "--plan", planFile)
            || takeValue(argc, argv, i, "--filter", opt.filter)
            || takeValue(argc, argv, i, "--store", storeDir)
            || takeValue(argc, argv, i, "--telemetry", telemetryPath))
            continue;
        if (takeValue(argc, argv, i, "--set", value)) {
            sets.push_back(value);
        } else if (takeValue(argc, argv, i, "--seed", value)) {
            seed = parseU64(value, "--seed");
            haveSeed = true;
        } else if (takeValue(argc, argv, i, "--jobs", value)) {
            opt.jobs = static_cast<int>(parseU64(value, "--jobs", INT_MAX));
        } else if (takeValue(argc, argv, i, "--warmup", value)) {
            opt.warmup = parseU64(value, "--warmup");
        } else if (takeValue(argc, argv, i, "--insts", value)) {
            opt.measure = parseU64(value, "--insts");
        } else if (takeValue(argc, argv, i, "--sample", value)) {
            sample = parseSampleSpec(value);
        } else if (std::strcmp(argv[i], "--no-cache") == 0) {
            opt.useTraceCache = false;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else {
            std::fprintf(stderr, "eole: unknown option %s\n", argv[i]);
            return usage(stderr, 2);
        }
    }
    return 0;
}

int
RunRequest::bail(const std::string &reason) const
{
    std::fprintf(stderr, "eole: %s\n", reason.c_str());
    if (telem)
        telem->runAborted(reason);
    return 2;
}

int
RunRequest::open()
{
    if (quiet)
        setLogLevel(LogLevel::Quiet);
    // The telemetry stream opens before any validation below, and
    // every exit-2 path from here on terminates it with run_aborted —
    // a consumer never sees a silently truncated stream.
    if (!telemetryPath.empty())
        telem = std::make_unique<TelemetrySink>(telemetryPath);
    if (!namedPlan.empty() && !plans::exists(namedPlan)) {
        return bail(csprintf("unknown plan \"%s\"%s (try `eole list`)",
                             namedPlan.c_str(),
                             didYouMean(closestMatches(
                                 namedPlan, plans::allNames())).c_str()));
    }
    if (!namedPlan.empty() && !planFile.empty())
        return bail("give either a registered plan name or --plan, not both");
    if (!namedPlan.empty()) {
        plan = plans::get(namedPlan);
    } else if (!planFile.empty()) {
        std::string err;
        if (!loadPlanFile(planFile, &plan, &err))
            return bail(err);
    } else {
        std::fprintf(stderr, "eole: %s needs a plan name or --plan "
                     "<file>\n", verb);
        if (telem)
            telem->runAborted("no plan given");
        return usage(stderr, 2);
    }
    if (haveSeed)
        plan.seed = seed;

    // Workload override: replace the plan's workload axis. Plain
    // registry/torture names pass through; file:<path> specs bind
    // their trace file and resolve to the embedded canonical name, so
    // cell identity (and thus artifacts) cannot depend on the path.
    if (!workloads.empty()) {
        std::vector<std::string> resolved_names;
        for (const std::string &spec : splitCommaList(workloads)) {
            std::string resolved, werr;
            if (!resolveWorkloadSpec(spec, &resolved, &werr))
                return bail(werr);
            resolved_names.push_back(std::move(resolved));
        }
        if (resolved_names.empty())
            return bail("--workloads needs at least one name");
        plan.workloads = std::move(resolved_names);
    }

    // Ad-hoc overrides: apply each --set key=value to every config of
    // the plan through the registry. A typo'd key or bad value is an
    // operator mistake: exit 2 with the nearest valid keys.
    const ParamRegistry &reg = ParamRegistry::instance();
    for (const std::string &kv : sets) {
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0) {
            return bail(csprintf("--set wants key=value, got \"%s\"",
                                 kv.c_str()));
        }
        for (SimConfig &c : plan.configs) {
            const std::string err =
                reg.trySet(c, kv.substr(0, eq), kv.substr(eq + 1));
            if (!err.empty())
                return bail("--set: " + err);
        }
    }
    return 0;
}

int
RunRequest::expand()
{
    cells = expandPlan(plan, opt);
    // A filter that matches nothing is an operator mistake (typo'd
    // config or workload); fail loudly with the valid names.
    if (!opt.filter.empty() && cells.filterMatched == 0) {
        const int rc = bail(csprintf("--filter \"%s\" matches no cell of "
                                     "plan %s", opt.filter.c_str(),
                                     plan.name.c_str()));
        std::fprintf(stderr, "  valid configs:");
        for (const SimConfig &c : plan.configs)
            std::fprintf(stderr, " %s", c.name.c_str());
        std::fprintf(stderr, "\n  valid workloads:");
        for (const std::string &w : plan.workloads)
            std::fprintf(stderr, " %s", w.c_str());
        std::fprintf(stderr, "\n");
        return rc;
    }
    // Effective sampling spec: the CLI flag wins over the plan file's
    // own `sample =` directive (resolveRunLength-style precedence).
    sample = resolveSampleSpec(sample, plan.sample);
    return 0;
}

void
RunRequest::start()
{
    if (telem) {
        const bool sharded = opt.shard.enabled();
        telem->runStart(
            command, plan.name, plan.seed, cells.warmup, cells.measure,
            opt.filter, sample.enabled() ? sampleSpecString(sample) : "",
            opt.jobs > 0 ? opt.jobs : runnerThreads(), cells.cells.size(),
            sharded ? static_cast<int>(opt.shard.host) : -1,
            sharded ? static_cast<int>(opt.shard.hosts) : -1);
        opt.telemetry = telem.get();
    }
    if (!storeDir.empty()) {
        store = std::make_unique<Store>(storeDir);
        opt.store = store.get();
    }
}

void
RunRequest::storeSummary(std::size_t hits, std::size_t computed) const
{
    // The one store summary line (notice level: always on stderr, even
    // --quiet): "0 computed" on a warm re-run is the observable
    // contract tests/cli_contracts.sh and tests/test_shard.cc pin.
    if (store) {
        notice("store %s: %zu cached, %zu computed", storeDir.c_str(),
               hits, computed);
    }
}

int
RunRequest::finish(std::size_t done) const
{
    if (telem)
        telem->runFinish(done);
    return 0;
}

/** `eole run` and `eole shard` share one execution path; @p shard_mode
 *  adds --hosts/--host, drops the tables and --pipetrace, and writes an
 *  "eole-shard-v1" partial instead of a JSON artifact. */
int
cmdRun(int argc, char **argv, bool shard_mode)
{
    RunRequest req(shard_mode ? "shard" : "run",
                   shard_mode ? "shard" : "run");
    std::string out_path, csv_path, value, pipetrace_path;
    std::string pipetrace_format = "kanata", pipetrace_range;
    std::uint64_t shard_hosts = 0, shard_host = 0;
    bool have_host = false, tables = true, progress_flag = false;
    int rc = req.parse(argc, argv, [&](int &i) {
        if (takeValue(argc, argv, i, "--workloads", req.workloads)
            || takeValue(argc, argv, i, "--out", out_path)
            || takeValue(argc, argv, i, "--csv", csv_path))
            return true;
        if (std::strcmp(argv[i], "--progress") == 0) {
            progress_flag = true;
            return true;
        }
        if (shard_mode) {
            if (takeValue(argc, argv, i, "--hosts", value)) {
                shard_hosts = parseU64(value, "--hosts");
                return true;
            }
            if (takeValue(argc, argv, i, "--host", value)) {
                shard_host = parseU64(value, "--host");
                have_host = true;
                return true;
            }
            return false;
        }
        if (std::strcmp(argv[i], "--no-tables") == 0) {
            tables = false;
            return true;
        }
        return takeValue(argc, argv, i, "--pipetrace", pipetrace_path)
            || takeValue(argc, argv, i, "--pipetrace-format",
                         pipetrace_format)
            || takeValue(argc, argv, i, "--pipetrace-range",
                         pipetrace_range);
    });
    if (rc || (rc = req.open()))
        return rc;
    if (shard_mode) {
        if (shard_hosts == 0 || !have_host)
            return req.bail("shard needs --hosts N and --host I");
        if (shard_host >= shard_hosts) {
            return req.bail(csprintf(
                "--host %llu out of range for --hosts %llu (hosts are "
                "numbered from 0)",
                (unsigned long long)shard_host,
                (unsigned long long)shard_hosts));
        }
        if (!csv_path.empty()) {
            return req.bail("--csv does not apply to shard partials; run "
                            "it on the merged artifact");
        }
        req.opt.shard.hosts = shard_hosts;
        req.opt.shard.host = shard_host;
    }
    if ((rc = req.expand()))
        return rc;
    const ExperimentPlan &plan = req.plan;
    const SampleSpec &sample = req.sample;
    SweepOptions &opt = req.opt;

    std::ofstream trace_os;
    std::unique_ptr<PipeTracer> tracer;
    if (!pipetrace_path.empty()) {
        if (sample.enabled())
            return req.bail("--pipetrace needs an unsampled run");
        if (req.cells.cells.size() != 1) {
            return req.bail(csprintf(
                "--pipetrace needs exactly one cell, but %zu match; "
                "narrow with --filter", req.cells.cells.size()));
        }
        PipeTracer::Format fmt;
        if (pipetrace_format == "kanata") {
            fmt = PipeTracer::Format::Kanata;
        } else if (pipetrace_format == "canonical") {
            fmt = PipeTracer::Format::Canonical;
        } else {
            return req.bail(csprintf(
                "bad --pipetrace-format \"%s\" (kanata or canonical)",
                pipetrace_format.c_str()));
        }
        SeqNum lo = 0, hi = ~SeqNum{0};
        if (!pipetrace_range.empty()) {
            const std::size_t colon = pipetrace_range.find(':');
            bool ok = colon != std::string::npos;
            if (ok) {
                ok = parseU64Strict(pipetrace_range.substr(0, colon),
                                    &lo)
                    && parseU64Strict(pipetrace_range.substr(colon + 1),
                                      &hi);
            }
            if (!ok || lo >= hi) {
                return req.bail(csprintf(
                    "bad --pipetrace-range \"%s\" (want A:B with "
                    "A < B, µ-op sequence numbers)",
                    pipetrace_range.c_str()));
            }
        }
        trace_os.open(pipetrace_path);
        if (!trace_os) {
            return req.bail(csprintf("cannot write %s",
                                     pipetrace_path.c_str()));
        }
        tracer = std::make_unique<PipeTracer>(trace_os, fmt, lo, hi);
        opt.tracer = tracer.get();
    }

    req.start();
    const auto run_t0 = std::chrono::steady_clock::now();
    if (progress_flag) {
        // Heartbeat for long sweeps: rate-based ETA over finished
        // jobs. notice-level, so it survives --quiet by design.
        opt.progress = [run_t0](std::size_t done, std::size_t total,
                                const RunResult &cell) {
            const double secs = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - run_t0).count();
            const double eta =
                done > 0 ? secs * (total - done) / done : 0.0;
            notice("[%zu/%zu] %s/%s elapsed %.0fs eta %.0fs", done,
                   total, cell.config.c_str(), cell.workload.c_str(),
                   secs, eta);
        };
    } else {
        opt.progress = [](std::size_t done, std::size_t total,
                          const RunResult &cell) {
            inform("[%zu/%zu] %s/%s ipc=%.3f", done, total,
                   cell.config.c_str(), cell.workload.c_str(),
                   cell.ipc());
        };
    }
    const int jobs = opt.jobs > 0 ? opt.jobs : runnerThreads();
    if (sample.enabled()) {
        inform("eole %s %s: %zu cells x %llu intervals (sample %s), %d "
               "jobs", req.verb, plan.name.c_str(), plan.gridSize(),
               (unsigned long long)sample.intervals,
               sampleSpecString(sample).c_str(), jobs);
    } else {
        inform("eole %s %s: %zu cells, %d jobs", req.verb,
               plan.name.c_str(), plan.gridSize(), jobs);
    }

    if (shard_mode) {
        const ShardArtifact shard = runShard(plan, sample, opt);
        req.storeSummary(shard.storeHits, shard.storeComputed);

        std::string path = out_path;
        const std::string default_name = sanitizeForPath(plan.name)
            + ".shard" + std::to_string(shard_host) + "of"
            + std::to_string(shard_hosts) + ".eoleshard";
        if (path.empty())
            path = default_name;
        else if (std::filesystem::is_directory(path))
            path += "/" + default_name;
        std::ofstream os(path, std::ios::binary);
        fatal_if(!os, "cannot write %s", path.c_str());
        writeShardArtifact(os, shard);
        os.close();
        fatal_if(os.fail(), "write failure on %s", path.c_str());
        inform("wrote %s (host %llu of %llu: %zu of %llu cells)",
               path.c_str(), (unsigned long long)shard_host,
               (unsigned long long)shard_hosts, shard.cells.size(),
               (unsigned long long)shard.cellsTotal);
        return req.finish(shard.cells.size());
    }

    const PlanResult result = sample.enabled()
        ? runSampledPlan(plan, sample, opt)
        : runPlan(plan, opt);
    req.storeSummary(result.storeHits, result.storeComputed);

    if (tracer) {
        tracer->finish();
        trace_os.close();
        fatal_if(trace_os.fail(), "write failure on %s",
                 pipetrace_path.c_str());
        inform("wrote %s (pipetrace, %s format)", pipetrace_path.c_str(),
               pipetrace_format.c_str());
    }

    if (tables)
        printPlanTables(plan, result);

    if (!out_path.empty()) {
        std::ofstream os(out_path);
        fatal_if(!os, "cannot write %s", out_path.c_str());
        writeJsonArtifact(os, result);
        inform("wrote %s (%zu cells)", out_path.c_str(),
               result.cells.size());
    }
    if (!csv_path.empty()) {
        std::ofstream os(csv_path);
        fatal_if(!os, "cannot write %s", csv_path.c_str());
        writeCsvArtifact(os, result);
        inform("wrote %s", csv_path.c_str());
    }
    return req.finish(result.cells.size());
}

int
cmdMerge(int argc, char **argv)
{
    std::vector<std::string> paths;
    std::string out_path, value;
    bool quiet = false;
    for (int i = 0; i < argc; ++i) {
        if (takeValue(argc, argv, i, "--out", value)) {
            out_path = value;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "eole: unknown option %s\n", argv[i]);
            return usage(stderr, 2);
        } else {
            paths.emplace_back(argv[i]);
        }
    }
    if (paths.empty()) {
        std::fprintf(stderr,
                     "eole: merge needs shard partial file(s)\n");
        return usage(stderr, 2);
    }
    if (out_path.empty()) {
        std::fprintf(stderr,
                     "eole: merge needs --out <artifact.json>\n");
        return 2;
    }

    std::vector<ShardArtifact> shards;
    shards.reserve(paths.size());
    for (const std::string &p : paths) {
        std::ifstream is(p, std::ios::binary);
        if (!is) {
            std::fprintf(stderr, "eole: cannot read %s\n", p.c_str());
            return 2;
        }
        ShardArtifact shard;
        std::string err;
        if (!tryReadShardArtifact(is, &shard, &err)) {
            std::fprintf(stderr, "eole: %s: %s\n", p.c_str(),
                         err.c_str());
            return 2;
        }
        shards.push_back(std::move(shard));
    }

    PlanResult merged;
    std::string err;
    if (!tryMergeShardArtifacts(shards, &merged, &err)) {
        std::fprintf(stderr, "eole: %s\n", err.c_str());
        return 2;
    }

    std::ofstream os(out_path);
    fatal_if(!os, "cannot write %s", out_path.c_str());
    writeJsonArtifact(os, merged);
    os.close();
    fatal_if(os.fail(), "write failure on %s", out_path.c_str());
    if (!quiet) {
        std::fprintf(stderr,
                     "wrote %s (%zu cells from %zu of %llu shard "
                     "partial(s))\n", out_path.c_str(),
                     merged.cells.size(), shards.size(),
                     (unsigned long long)shards.front().hosts);
    }
    return 0;
}

int
cmdStore(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "eole: store needs ls|gc and a store "
                     "directory\n");
        return usage(stderr, 2);
    }
    const std::string sub = argv[0];
    const std::string dir = argv[1];
    if (sub != "ls" && sub != "gc") {
        std::fprintf(stderr, "eole: unknown store subcommand \"%s\"\n",
                     sub.c_str());
        return usage(stderr, 2);
    }
    if (!std::filesystem::exists(dir + "/index")) {
        std::fprintf(stderr, "eole: %s is not a store directory (no "
                     "index file)\n", dir.c_str());
        return 2;
    }

    if (sub == "ls") {
        if (argc > 2) {
            std::fprintf(stderr, "eole: unknown option %s\n", argv[2]);
            return usage(stderr, 2);
        }
        Store store(dir);
        std::printf("%-14s %-5s %10s %6s  %s\n", "hash", "kind",
                    "bytes", "tick", "cell");
        for (const Store::Entry &e : store.entries()) {
            std::printf("%-14s %-5s %10llu %6llu  %s/%s\n",
                        e.hash.substr(0, 12).c_str(), e.kind.c_str(),
                        (unsigned long long)e.bytes,
                        (unsigned long long)e.tick, e.config.c_str(),
                        e.workload.c_str());
        }
        std::printf("%zu object(s), %llu payload byte(s) in %s\n",
                    store.entries().size(),
                    (unsigned long long)store.totalPayloadBytes(),
                    dir.c_str());
        return 0;
    }

    std::uint64_t max_objects = ~0ULL, max_bytes = ~0ULL;
    std::string value;
    for (int i = 2; i < argc; ++i) {
        if (takeValue(argc, argv, i, "--max-objects", value)) {
            max_objects = parseU64(value, "--max-objects");
        } else if (takeValue(argc, argv, i, "--max-bytes", value)) {
            max_bytes = parseU64(value, "--max-bytes");
        } else {
            std::fprintf(stderr, "eole: unknown option %s\n", argv[i]);
            return usage(stderr, 2);
        }
    }
    if (max_objects == ~0ULL && max_bytes == ~0ULL) {
        std::fprintf(stderr, "eole: store gc needs --max-objects "
                     "and/or --max-bytes\n");
        return 2;
    }
    Store store(dir);
    std::vector<Store::Entry> evicted;
    store.gc(max_objects, max_bytes, &evicted);
    for (const Store::Entry &e : evicted) {
        std::printf("evicted %s %s %s/%s (%llu bytes, tick %llu)\n",
                    e.hash.substr(0, 12).c_str(), e.kind.c_str(),
                    e.config.c_str(), e.workload.c_str(),
                    (unsigned long long)e.bytes,
                    (unsigned long long)e.tick);
    }
    std::printf("evicted %zu object(s); %zu object(s), %llu payload "
                "byte(s) remain in %s\n", evicted.size(),
                store.entries().size(),
                (unsigned long long)store.totalPayloadBytes(),
                dir.c_str());
    return 0;
}

int
cmdCkptSave(int argc, char **argv)
{
    RunRequest req("ckpt save", "ckpt-save");
    std::string out_dir;
    int rc = req.parse(argc, argv, [&](int &i) {
        return takeValue(argc, argv, i, "--out", out_dir);
    });
    if (rc || (rc = req.open()))
        return rc;
    if (out_dir.empty())
        return req.bail("ckpt save needs --out <directory>");
    if ((rc = req.expand()))
        return rc;
    if (!req.sample.enabled()) {
        return req.bail("ckpt save needs a sampling spec: --sample "
                        "N:W:D[:B] or a plan-file `sample =` directive");
    }

    req.start();
    const CheckpointFiles saved =
        saveCheckpoints(req.plan, req.sample, req.opt, out_dir);
    req.storeSummary(saved.storeHits, saved.storeComputed);
    for (const std::string &f : saved.files) {
        if (!req.quiet)
            std::printf("%s\n", f.c_str());
    }
    if (!saved.error.empty())
        return req.bail("ckpt save: " + saved.error);
    inform("wrote %zu checkpoint file(s) for %zu cell(s) (plan %s, "
           "sample %s, warmup %llu, measure %llu)",
           saved.files.size(), saved.cells, req.plan.name.c_str(),
           sampleSpecString(req.sample).c_str(),
           (unsigned long long)req.cells.warmup,
           (unsigned long long)req.cells.measure);
    return req.finish(saved.cells);
}

int
cmdCkptInfo(int argc, char **argv)
{
    if (argc < 1) {
        std::fprintf(stderr,
                     "eole: ckpt info needs checkpoint file(s)\n");
        return 2;
    }
    int rc = 0;
    for (int i = 0; i < argc; ++i) {
        std::ifstream is(argv[i], std::ios::binary);
        if (!is) {
            std::fprintf(stderr, "eole: cannot read %s\n", argv[i]);
            rc = 2;
            continue;
        }
        Checkpoint ckpt;
        std::string err;
        if (!tryDeserializeCheckpoint(is, &ckpt, &err)) {
            std::fprintf(stderr, "eole: %s: %s\n", argv[i],
                         err.c_str());
            rc = 2;
            continue;
        }
        std::printf("%s: %s workload \"%s\" uop %llu", argv[i],
                    checkpointSchemaName(ckpt), ckpt.workload.c_str(),
                    (unsigned long long)ckpt.uopIndex);
        if (!ckpt.config.empty())
            std::printf(" config \"%s\"", ckpt.config.c_str());
        if (ckpt.hasWarmState()) {
            std::printf(" sections");
            for (const CheckpointSection &section : ckpt.uarch) {
                std::printf(" %s=%zuB", section.name.c_str(),
                            section.text.size());
            }
        }
        std::printf("\n");
    }
    return rc;
}

int
cmdCkpt(int argc, char **argv)
{
    if (argc < 1) {
        std::fprintf(stderr, "eole: ckpt needs save|info\n");
        return usage(stderr, 2);
    }
    const std::string sub = argv[0];
    if (sub == "save")
        return cmdCkptSave(argc - 1, argv + 1);
    if (sub == "info")
        return cmdCkptInfo(argc - 1, argv + 1);
    std::fprintf(stderr, "eole: unknown ckpt subcommand \"%s\"\n",
                 sub.c_str());
    return usage(stderr, 2);
}

int
cmdBench(int argc, char **argv)
{
    BenchOptions opt;
    std::string out_path, value;
    std::vector<std::string> compare_paths;
    double fail_below = 0.0;
    bool have_fail_below = false;
    for (int i = 0; i < argc; ++i) {
        if (takeValue(argc, argv, i, "--configs", value)) {
            for (std::string &n : splitCommaList(value))
                opt.configs.push_back(std::move(n));
        } else if (takeValue(argc, argv, i, "--workloads", value)) {
            for (std::string &n : splitCommaList(value))
                opt.workloads.push_back(std::move(n));
        } else if (takeValue(argc, argv, i, "--budget", value)) {
            opt.budget = parseU64(value, "--budget");
        } else if (takeValue(argc, argv, i, "--warmup", value)) {
            opt.warmup = parseU64(value, "--warmup");
        } else if (takeValue(argc, argv, i, "--reps", value)) {
            opt.reps = static_cast<int>(parseU64(value, "--reps", INT_MAX));
        } else if (takeValue(argc, argv, i, "--label", value)) {
            opt.label = value;
        } else if (takeValue(argc, argv, i, "--out", value)) {
            out_path = value;
        } else if (std::strcmp(argv[i], "--compare") == 0) {
            if (i + 2 >= argc) {
                std::fprintf(stderr,
                             "eole: --compare needs two bench files\n");
                return 2;
            }
            compare_paths.emplace_back(argv[++i]);
            compare_paths.emplace_back(argv[++i]);
        } else if (takeValue(argc, argv, i, "--fail-below", value)) {
            char *end = nullptr;
            fail_below = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end || fail_below <= 0.0) {
                std::fprintf(stderr,
                             "eole: bad --fail-below \"%s\"\n",
                             value.c_str());
                return 2;
            }
            have_fail_below = true;
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            opt.profile = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            opt.quiet = true;
        } else {
            std::fprintf(stderr, "eole: unknown option %s\n", argv[i]);
            return usage(stderr, 2);
        }
    }
    if (opt.quiet)
        setLogLevel(LogLevel::Quiet);

    if (!compare_paths.empty()) {
        const BenchResult a = readBenchJsonFile(compare_paths[0]);
        const BenchResult b = readBenchJsonFile(compare_paths[1]);
        std::printf("bench compare: a=%s (%s), b=%s (%s)\n",
                    compare_paths[0].c_str(), a.label.c_str(),
                    compare_paths[1].c_str(), b.label.c_str());
        const double g = compareBench(a, b, std::cout);
        if (have_fail_below && g < fail_below) {
            std::fprintf(stderr,
                         "eole: bench: geomean speedup %.3f below "
                         "threshold %.3f\n", g, fail_below);
            return 1;
        }
        return 0;
    }
    if (have_fail_below) {
        std::fprintf(stderr,
                     "eole: --fail-below only applies to --compare\n");
        return 2;
    }

    // file:<path> workload specs: bind the trace and bench under its
    // canonical name, timing replay-from-mmap instead of a generator.
    for (std::string &spec : opt.workloads) {
        std::string resolved, err;
        if (!resolveWorkloadSpec(spec, &resolved, &err)) {
            std::fprintf(stderr, "eole: %s\n", err.c_str());
            return 2;
        }
        spec = std::move(resolved);
    }

    const BenchResult result = runBench(opt);
    if (opt.profile)
        writeBenchProfileTable(std::cout, result);
    std::printf("geomean: %.0f µops/s over %zu cell(s) (budget %llu, "
                "warmup %llu, min of %d rep(s))\n",
                result.geomeanUopsPerSec(), result.cells.size(),
                (unsigned long long)result.budget,
                (unsigned long long)result.warmup, result.reps);
    if (!out_path.empty()) {
        std::ofstream os(out_path);
        fatal_if(!os, "cannot write %s", out_path.c_str());
        writeBenchJson(os, result);
        inform("wrote %s (%zu cells)", out_path.c_str(),
               result.cells.size());
    }
    return 0;
}

/**
 * `eole trace` — the on-disk trace subsystem's CLI:
 *   record <workload> --out F [--uops N] [--store DIR]
 *   info <file.trace>...
 *   ingest <log.rvlog> --out F [--name N]
 */
int
cmdTrace(int argc, char **argv)
{
    if (argc < 1) {
        std::fprintf(stderr, "eole: trace needs: record | info | "
                     "ingest\n");
        return usage(stderr, 2);
    }
    const std::string sub = argv[0];
    --argc;
    ++argv;

    if (sub == "record") {
        std::string workload_spec, out_path, store_dir, value;
        std::uint64_t uops = 0;
        for (int i = 0; i < argc; ++i) {
            if (takeValue(argc, argv, i, "--out", value)) {
                out_path = value;
            } else if (takeValue(argc, argv, i, "--uops", value)) {
                uops = parseU64(value, "--uops");
            } else if (takeValue(argc, argv, i, "--store", value)) {
                store_dir = value;
            } else if (std::strcmp(argv[i], "--quiet") == 0) {
                setLogLevel(LogLevel::Quiet);
            } else if (argv[i][0] == '-') {
                std::fprintf(stderr, "eole: unknown option %s\n",
                             argv[i]);
                return usage(stderr, 2);
            } else if (workload_spec.empty()) {
                workload_spec = argv[i];
            } else {
                std::fprintf(stderr,
                             "eole: trace record takes one workload\n");
                return 2;
            }
        }
        if (workload_spec.empty() || out_path.empty()) {
            std::fprintf(stderr, "eole: trace record needs a workload "
                         "and --out <file>\n");
            return 2;
        }
        if (uops == 0) {
            // Cover a default-length run of any stock config with
            // generous in-flight slack; replaying a too-short
            // incomplete trace is a loud error, not silent drift.
            uops = warmupUops() + measureUops() + 65536;
        }
        std::string resolved, err;
        if (!resolveWorkloadSpec(workload_spec, &resolved, &err)) {
            std::fprintf(stderr, "eole: %s\n", err.c_str());
            return 2;
        }
        const Workload w = workloads::build(resolved);
        if (w.name.size() >= traceFileNameBytes) {
            std::fprintf(stderr, "eole: workload name \"%s\" is too "
                         "long for the trace header (max %zu bytes)\n",
                         w.name.c_str(), traceFileNameBytes - 1);
            return 2;
        }
        const auto trace = w.freeze(uops);
        if (!writeTraceFile(*trace, out_path, "generated", &err)) {
            std::fprintf(stderr, "eole: %s\n", err.c_str());
            return 2;
        }
        std::uint64_t file_bytes = 0;
        {
            std::error_code ec;
            file_bytes = std::filesystem::file_size(out_path, ec);
        }
        std::printf("wrote %s: workload %s, %zu µ-ops (%s), %llu "
                    "bytes\n", out_path.c_str(), trace->name.c_str(),
                    trace->uops.size(),
                    trace->complete ? "complete" : "prefix",
                    (unsigned long long)file_bytes);
        if (!store_dir.empty()) {
            // A trace is a content-addressed store object: the key is
            // its own bytes' hash, so identical recordings dedupe and
            // a changed recording is a new object, never a mutation.
            std::ifstream is(out_path, std::ios::binary);
            std::ostringstream buf;
            buf << is.rdbuf();
            const std::string payload = buf.str();
            fatal_if(!is || payload.size() != file_bytes,
                     "cannot re-read %s for --store", out_path.c_str());
            StoreKey key;
            key.kind = "trace";
            key.workload = trace->name;
            key.content = sha256Hex(payload);
            Store store(store_dir);
            store.put(key, payload);
            store.flush();
            std::printf("stored as %s (kind=trace) in %s\n",
                        storeKeyHash(key).substr(0, 12).c_str(),
                        store_dir.c_str());
        }
        return 0;
    }

    if (sub == "info") {
        std::vector<std::string> paths;
        for (int i = 0; i < argc; ++i) {
            if (argv[i][0] == '-') {
                std::fprintf(stderr, "eole: unknown option %s\n",
                             argv[i]);
                return usage(stderr, 2);
            }
            paths.emplace_back(argv[i]);
        }
        if (paths.empty()) {
            std::fprintf(stderr,
                         "eole: trace info needs file(s)\n");
            return 2;
        }
        for (const std::string &path : paths) {
            TraceFileInfo info;
            std::string err;
            if (!readTraceFileInfo(path, &info, &err)) {
                std::fprintf(stderr, "eole: %s: %s\n", path.c_str(),
                             err.c_str());
                return 2;
            }
            std::printf("%s:\n", path.c_str());
            std::printf("  workload  %s\n", info.name.c_str());
            std::printf("  source    %s\n", info.source.c_str());
            std::printf("  µ-ops     %llu (%s)\n",
                        (unsigned long long)info.uopCount,
                        info.complete ? "complete" : "prefix");
            std::printf("  suite     %s\n", info.isFp ? "FP" : "INT");
            std::printf("  bytes     %llu\n",
                        (unsigned long long)info.fileBytes);
            std::printf("  checksum  ok\n");
        }
        return 0;
    }

    if (sub == "ingest") {
        std::string log_path, out_path, name, value;
        for (int i = 0; i < argc; ++i) {
            if (takeValue(argc, argv, i, "--out", value)) {
                out_path = value;
            } else if (takeValue(argc, argv, i, "--name", value)) {
                name = value;
            } else if (std::strcmp(argv[i], "--quiet") == 0) {
                setLogLevel(LogLevel::Quiet);
            } else if (argv[i][0] == '-') {
                std::fprintf(stderr, "eole: unknown option %s\n",
                             argv[i]);
                return usage(stderr, 2);
            } else if (log_path.empty()) {
                log_path = argv[i];
            } else {
                std::fprintf(stderr,
                             "eole: trace ingest takes one log file\n");
                return 2;
            }
        }
        if (log_path.empty() || out_path.empty()) {
            std::fprintf(stderr, "eole: trace ingest needs a log file "
                         "and --out <file>\n");
            return 2;
        }
        if (name.empty()) {
            // Canonical name defaults to the log's stem under an rv64:
            // prefix — addressable like torture:<seed>, and it cannot
            // shadow a registry benchmark by accident.
            name = "rv64:"
                + std::filesystem::path(log_path).stem().string();
        }
        if (name.size() >= traceFileNameBytes) {
            std::fprintf(stderr, "eole: --name \"%s\" is too long for "
                         "the trace header (max %zu bytes)\n",
                         name.c_str(), traceFileNameBytes - 1);
            return 2;
        }
        std::string err;
        const auto trace = ingestRv64LogFile(log_path, name, &err);
        if (!trace) {
            std::fprintf(stderr, "eole: %s: %s\n", log_path.c_str(),
                         err.c_str());
            return 2;
        }
        if (!writeTraceFile(*trace, out_path, "rv64i", &err)) {
            std::fprintf(stderr, "eole: %s\n", err.c_str());
            return 2;
        }
        std::printf("wrote %s: workload %s, %zu µ-ops ingested from "
                    "%s\n", out_path.c_str(), name.c_str(),
                    trace->uops.size(), log_path.c_str());
        return 0;
    }

    std::fprintf(stderr, "eole: unknown trace subcommand \"%s\" "
                 "(record | info | ingest)\n", sub.c_str());
    return usage(stderr, 2);
}

int
cmdTelemetry(int argc, char **argv)
{
    if (argc < 1 || std::strcmp(argv[0], "summarize") != 0) {
        std::fprintf(stderr,
                     "eole: telemetry needs: summarize <file.jsonl>"
                     "...\n");
        return usage(stderr, 2);
    }
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (argv[i][0] == '-') {
            std::fprintf(stderr, "eole: unknown option %s\n", argv[i]);
            return usage(stderr, 2);
        }
        paths.emplace_back(argv[i]);
    }
    if (paths.empty()) {
        std::fprintf(stderr,
                     "eole: telemetry summarize needs file(s)\n");
        return 2;
    }
    summarizeTelemetry(paths, std::cout);
    return 0;
}

int
cmdDiff(int argc, char **argv)
{
    std::vector<std::string> paths;
    DiffOptions opt;
    std::string value;
    for (int i = 0; i < argc; ++i) {
        if (takeValue(argc, argv, i, "--rel-tol", value)) {
            opt.relTol = parseTolerance(value, "--rel-tol");
        } else if (takeValue(argc, argv, i, "--abs-tol", value)) {
            opt.absTol = parseTolerance(value, "--abs-tol");
        } else if (std::strcmp(argv[i], "--ci") == 0) {
            opt.ciOverlap = true;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "eole: unknown option %s\n", argv[i]);
            return usage(stderr, 2);
        } else {
            paths.emplace_back(argv[i]);
        }
    }
    if (paths.size() != 2)
        return usage(stderr, 2);

    const PlanResult a = readJsonArtifactFile(paths[0]);
    const PlanResult b = readJsonArtifactFile(paths[1]);
    const std::size_t diffs = diffArtifacts(a, b, opt, std::cout);
    if (diffs == 0) {
        std::printf("artifacts agree: %zu cells (%s vs %s)\n",
                    a.cells.size(), paths[0].c_str(), paths[1].c_str());
        return 0;
    }
    std::printf("%zu difference(s) between %s and %s\n", diffs,
                paths[0].c_str(), paths[1].c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(stderr, 2);
    const std::string cmd = argv[1];
    if (cmd == "list")
        return cmdList(argc - 2, argv + 2);
    if (cmd == "describe")
        return cmdDescribe(argc - 2, argv + 2);
    if (cmd == "run")
        return cmdRun(argc - 2, argv + 2, /*shard_mode=*/false);
    if (cmd == "shard")
        return cmdRun(argc - 2, argv + 2, /*shard_mode=*/true);
    if (cmd == "merge")
        return cmdMerge(argc - 2, argv + 2);
    if (cmd == "store")
        return cmdStore(argc - 2, argv + 2);
    if (cmd == "bench")
        return cmdBench(argc - 2, argv + 2);
    if (cmd == "diff")
        return cmdDiff(argc - 2, argv + 2);
    if (cmd == "ckpt")
        return cmdCkpt(argc - 2, argv + 2);
    if (cmd == "trace")
        return cmdTrace(argc - 2, argv + 2);
    if (cmd == "telemetry")
        return cmdTelemetry(argc - 2, argv + 2);
    if (cmd == "--version" || cmd == "version") {
        std::printf("eole %s\n", buildInfoString().c_str());
        return 0;
    }
    if (cmd == "help" || cmd == "--help" || cmd == "-h")
        return usage(stdout, 0);
    std::fprintf(stderr, "eole: unknown command \"%s\"\n", cmd.c_str());
    return usage(stderr, 2);
}

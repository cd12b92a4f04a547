/**
 * @file
 * `eole` — the unified sweep driver.
 *
 *   eole list [--workloads]           show plans (or workloads)
 *   eole describe <config>|--params   dump a config (or every
 *                                     parameter key)
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
 *   eole trace record|info|ingest     write / inspect eole-trace-v2
 *                                     on-disk µ-op traces
 *   eole telemetry summarize <f>...   summarize --telemetry streams
 *
 * Every command parses its argv through one flag table (Flags) and
 * writes every output file through one checked writer (writeOutput);
 * a command-line error exits 2 with one `eole: ...` diagnostic.
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
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/build_info.hh"
#include "common/env.hh"
#include "common/fuzzy.hh"
#include "common/logging.hh"
#include "common/pipetrace.hh"
#include "common/whole_file.hh"
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
        "            [--store DIR] [--telemetry F] [--quiet]\n"
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
        "            [--uops N] [--quiet]\n"
        "      Record a workload's functional µ-op trace into an\n"
        "      eole-trace-v2 file (mmap-ready packed records +\n"
        "      SHA-256 footer). A trace that ends before its program\n"
        "      halts must hold every µ-op a run fetches: warmup +\n"
        "      measure plus the plan's in-flight look-ahead\n"
        "      (maxInflightUops), e.g. 6,000,936 µ-ops for fig12 at\n"
        "      the default lengths; a run that reads past the end\n"
        "      stops with an error. --uops N records N µ-ops and adds\n"
        "      nothing; the default is EOLE_WARMUP + EOLE_INSTS +\n"
        "      65,536, which covers any stock config.\n"
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
        "      it as eole-trace-v2. The workload name defaults to\n"
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
        "\n"
        "  eole bench --compare <a.json> <b.json> [--fail-below X]\n"
        "      Per-cell speedup report of b over a from two bench\n"
        "      artifacts, plus the geomean over common cells. With\n"
        "      --fail-below, exit 1 when that geomean is below X\n"
        "      (e.g. 0.8 = fail on a >20%% regression); exit 2 when\n"
        "      a file cannot be read.\n"
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
        "      difference. Exit 2 when an artifact cannot be read.\n"
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

/** A command-line error: one `eole: ...` line on stderr, exit code 2. */
int
fail(const std::string &err)
{
    std::fprintf(stderr, "eole: %s\n", err.c_str());
    return 2;
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
 * One entry of a command's flag table: the flag, whether it takes a
 * value, and the setter that stores the value in its target — false
 * when the value breaks its kind's rule (`bad --flag "value"`). The
 * factories below make the five kinds.
 */
struct Flag
{
    const char *name;
    bool takesValue;
    std::function<bool(const std::string &)> set;
};
using Flags = std::vector<Flag>;

/** A switch. */
Flag
on(const char *name, bool *to)
{
    return {name, false, [to](const std::string &) { return *to = true; }};
}

/** Text: the last value wins (@p to is a std::string or a std::optional
 *  of one), or a vector target keeps every value in order. */
template <typename T>
Flag
text(const char *name, T *to)
{
    return {name, true, [to](const std::string &v) {
        if constexpr (std::is_same_v<T, std::vector<std::string>>)
            to->push_back(v);
        else
            *to = v;
        return true;
    }};
}

/** A comma list: every item of every value, in order. */
Flag
list(const char *name, std::vector<std::string> *to)
{
    return {name, true, [to](const std::string &v) {
        for (std::string &item : splitCommaList(v))
            to->push_back(std::move(item));
        return true;
    }};
}

/** A decimal count in [@p min, @p max] (parseU64Strict); @p to is an
 *  integer wide enough for @p max, or a std::optional of one. */
template <typename T>
Flag
count(const char *name, T *to, std::uint64_t min, std::uint64_t max)
{
    return {name, true, [=](const std::string &v) {
        std::uint64_t n = 0;
        if (!parseU64Strict(v, &n) || n < min || n > max)
            return false;
        *to = static_cast<T>(n);
        return true;
    }};
}

/** A finite decimal of at least @p min; @p to is a double or a
 *  std::optional of one. */
template <typename T>
Flag
real(const char *name, T *to, double min)
{
    return {name, true, [=](const std::string &v) {
        char *end = nullptr;
        const double x = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end || !std::isfinite(x) || x < min)
            return false;
        *to = x;
        return true;
    }};
}

/**
 * Walk @p argv once: fill the targets of the flags it names, append
 * every argument that is not a flag to @p args, and return the first
 * error ("" when there is none). It reads on past an error, so a flag
 * after it still takes effect: a later --telemetry still opens the
 * stream that reports the error.
 */
std::string
parseFlags(const Flags &flags, int argc, char **argv,
           std::vector<std::string> *args)
{
    std::string first;
    const auto note = [&first](const std::string &err) {
        if (first.empty())
            first = err;
    };
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            args->push_back(arg);
            continue;
        }
        const auto flag = std::find_if(flags.begin(), flags.end(),
            [&arg](const Flag &f) { return arg == f.name; });
        if (flag == flags.end())
            note("unknown option " + arg);
        else if (!flag->takesValue)
            flag->set("");
        else if (i + 1 >= argc)
            note(arg + " needs a value");
        else if (!flag->set(argv[++i]))
            note(csprintf("bad %s \"%s\"", flag->name, argv[i]));
    }
    return first;
}

/** A stream buffer that hands its bytes to a FILE in 64 KB blocks. */
class FileStreamBuf : public std::streambuf
{
  public:
    explicit FileStreamBuf(std::FILE *f_) : f(f_)
    {
        setp(block, block + sizeof(block));
    }

  protected:
    int_type
    overflow(int_type c) override
    {
        if (sync() != 0)
            return traits_type::eof();
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            *pptr() = traits_type::to_char_type(c);
            pbump(1);
        }
        return traits_type::not_eof(c);
    }

    int
    sync() override
    {
        const auto n = static_cast<std::size_t>(pptr() - pbase());
        setp(block, block + sizeof(block));
        return std::fwrite(block, 1, n, f) == n ? 0 : -1;
    }

  private:
    std::FILE *f;
    char block[1 << 16];
};

/**
 * Every output file of a command is written here: @p fill streams it
 * through writeWholeFile, so a run that fails or is killed part-way
 * leaves the previous file at PATH, never a cut one (a PATH that is
 * not a regular file, such as /dev/full, is written in place). Checks
 * both ends — the open ("cannot write PATH") and every write up to the
 * close that flushes the last bytes ("write failure on PATH"; a full
 * disk shows only there). Returns "" or the diagnostic.
 */
std::string
writeOutput(const std::string &path,
            const std::function<void(std::ostream &)> &fill)
{
    bool opened = false;
    std::string err;
    if (writeWholeFile(path,
                       [&](std::FILE *f) {
                           opened = true;
                           FileStreamBuf block(f);
                           std::ostream os(&block);
                           fill(os);
                           return static_cast<bool>(os.flush());
                       },
                       &err))
        return "";
    return opened ? "write failure on " + path
                  : "cannot write " + path + ": " + err;
}

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
            if (!workloads::resolveWorkloadSpec(spec, &resolved, &err))
                return fail(err);
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
        UopRecord rec;
        while (vm.executedUops() < horizon && vm.step(rec)) {
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
    bool list_workloads = false;
    std::vector<std::string> specs;
    std::string err = parseFlags({on("--workloads", &list_workloads)},
                                 argc, argv, &specs);
    if (err.empty() && !list_workloads && !specs.empty())
        err = "unexpected argument " + specs[0] + " (use --workloads)";
    if (!err.empty())
        return fail(err);
    if (list_workloads)
        return cmdListWorkloads(specs);
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
    bool params = false;
    std::vector<std::string> names;
    const std::string err =
        parseFlags({on("--params", &params)}, argc, argv, &names);
    if (!err.empty())
        return fail(err);
    if (names.size() != (params ? 0u : 1u))
        return fail("describe needs a config name or --params");
    const ParamRegistry &reg = ParamRegistry::instance();

    if (params) {
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

    const std::string &name = names[0];
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


/**
 * The front door `run`, `shard` and `ckpt save` share: the plan (a
 * registered name or --plan FILE), --set, --seed, --filter with its
 * "matches no cell" diagnostic, --jobs, --warmup, --insts, --sample,
 * --store, --telemetry and --quiet, declared into the flag table that
 * each command extends with its own flags, plus the exit-2 bail that
 * ends the telemetry stream with run_aborted. Every error on the
 * command line (an unknown option, a missing or malformed value, a run
 * length over maxRunLengthUops from a flag, the environment or the plan
 * file) takes the same bail.
 */
struct RunRequest
{
    RunRequest(const char *verb, const char *command);
    // The flag table points into this object.
    RunRequest(const RunRequest &) = delete;
    RunRequest &operator=(const RunRequest &) = delete;

    const char *verb;     //!< in diagnostics: "run", "ckpt save", ...
    const char *command;  //!< in the telemetry manifest
    Flags flags;          //!< the shared flags; the command adds its own
    ExperimentPlan plan;
    SweepOptions opt;
    SampleSpec sample;    //!< the effective spec once expand() ran
    SweepExpansion cells; //!< expand(): this host's matched cells
    std::string workloads;  //!< --workloads override (run, shard)
    bool quiet = false;
    std::unique_ptr<TelemetrySink> telem;
    std::unique_ptr<Store> store;

    /** Parse @p argv through flags and open the telemetry sink, then
     *  report the first command-line error, or load the plan and apply
     *  --seed, --workloads and --set. Exit code of an error, else 0. */
    int open(int argc, char **argv);
    /** Expand the plan (after the shard slice is set) and resolve the
     *  sampling spec. */
    int expand();
    /** Emit the run manifest and attach the sink and the store. */
    void start();
    void storeSummary(std::size_t hits, std::size_t computed) const;
    int bail(const std::string &reason) const;
    /** End the telemetry stream with run_finish. Exit code: 2 if the
     *  sink failed to write any of it, else 0. */
    int finish(std::size_t done) const;

  private:
    std::string planFile, telemetryPath, storeDir;
    std::optional<std::string> sampleText;
    std::vector<std::string> sets;
    std::optional<std::uint64_t> seed;
};

RunRequest::RunRequest(const char *verb, const char *command)
    : verb(verb), command(command)
{
    flags = {text("--plan", &planFile),
             text("--filter", &opt.filter),
             text("--store", &storeDir),
             text("--telemetry", &telemetryPath),
             text("--sample", &sampleText),
             text("--set", &sets),
             count("--seed", &seed, 0, ~0ULL),
             count("--jobs", &opt.jobs, 0, INT_MAX),
             count("--warmup", &opt.warmup, 0, maxRunLengthUops),
             count("--insts", &opt.measure, 0, maxRunLengthUops),
             on("--quiet", &quiet)};
}

int
RunRequest::bail(const std::string &reason) const
{
    if (telem)
        telem->runAborted(reason);
    return fail(reason);
}

int
RunRequest::open(int argc, char **argv)
{
    std::vector<std::string> args;
    std::string err = parseFlags(flags, argc, argv, &args);
    if (quiet)
        setLogLevel(LogLevel::Quiet);
    // The telemetry stream opens before any validation below, and
    // every exit-2 path from here on terminates it with run_aborted —
    // a consumer never sees a silently truncated stream.
    if (!telemetryPath.empty()) {
        telem = std::make_unique<TelemetrySink>(telemetryPath);
        if (const std::string e = telem->error(); !e.empty()) {
            telem.reset();
            return fail(e);
        }
    }
    if (err.empty() && args.size() > 1)
        err = csprintf("%s takes one plan name, not also \"%s\"", verb,
                       args[1].c_str());
    if (!err.empty())
        return bail(err);
    if (sampleText && !tryParseSampleSpec(*sampleText, &sample, &err))
        return bail(err);
    // The run lengths the environment may supply, checked before an
    // engine reads them so that a bad one ends the stream here.
    for (const char *env : {"EOLE_WARMUP", "EOLE_INSTS"}) {
        std::uint64_t v = 0;
        err = tryEnvU64(env, 0, maxRunLengthUops, &v);
        if (!err.empty())
            return bail(err);
    }
    const std::string named_plan = args.empty() ? "" : args[0];
    if (!named_plan.empty() && !plans::exists(named_plan)) {
        return bail(csprintf("unknown plan \"%s\"%s (try `eole list`)",
                             named_plan.c_str(),
                             didYouMean(closestMatches(
                                 named_plan, plans::allNames())).c_str()));
    }
    if (!named_plan.empty() && !planFile.empty())
        return bail("give either a registered plan name or --plan, not both");
    if (!named_plan.empty()) {
        plan = plans::get(named_plan);
    } else if (!planFile.empty()) {
        if (!loadPlanFile(planFile, &plan, &err))
            return bail(err);
    } else {
        return bail(csprintf("%s needs a plan name or --plan <file>",
                             verb));
    }
    if (seed)
        plan.seed = *seed;

    // Workload override: replace the plan's workload axis. Plain
    // registry/torture names pass through; file:<path> specs bind
    // their trace file and resolve to the embedded canonical name, so
    // cell identity (and thus artifacts) cannot depend on the path.
    if (!workloads.empty()) {
        std::vector<std::string> resolved_names;
        for (const std::string &spec : splitCommaList(workloads)) {
            std::string resolved;
            if (!workloads::resolveWorkloadSpec(spec, &resolved, &err))
                return bail(err);
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
            err = reg.trySet(c, kv.substr(0, eq), kv.substr(eq + 1));
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
    if (telem) {
        telem->runFinish(done);
        if (const std::string e = telem->error(); !e.empty())
            return fail(e);
    }
    return 0;
}

/** `eole run` and `eole shard` share one execution path; @p shard_mode
 *  adds --hosts/--host, drops the tables and --pipetrace, and writes an
 *  "eole-shard-v1" partial instead of a JSON artifact. */
int
runOrShard(int argc, char **argv, bool shard_mode)
{
    RunRequest req(shard_mode ? "shard" : "run",
                   shard_mode ? "shard" : "run");
    std::string out_path, csv_path, pipetrace_path;
    std::string pipetrace_format = "kanata", pipetrace_range;
    std::uint64_t shard_hosts = 0;
    std::optional<std::uint64_t> shard_host;
    bool no_tables = false, progress_flag = false;
    req.flags.insert(req.flags.end(),
                     {text("--workloads", &req.workloads),
                      text("--out", &out_path), text("--csv", &csv_path),
                      on("--progress", &progress_flag)});
    if (shard_mode) {
        req.flags.insert(req.flags.end(),
                         {count("--hosts", &shard_hosts, 0, ~0ULL),
                          count("--host", &shard_host, 0, ~0ULL)});
    } else {
        req.flags.insert(req.flags.end(),
                         {on("--no-tables", &no_tables),
                          text("--pipetrace", &pipetrace_path),
                          text("--pipetrace-format", &pipetrace_format),
                          text("--pipetrace-range", &pipetrace_range)});
    }
    int rc = req.open(argc, argv);
    if (rc)
        return rc;
    if (shard_mode) {
        if (shard_hosts == 0 || !shard_host)
            return req.bail("shard needs --hosts N and --host I");
        if (*shard_host >= shard_hosts) {
            return req.bail(csprintf(
                "--host %llu out of range for --hosts %llu (hosts are "
                "numbered from 0)",
                (unsigned long long)*shard_host,
                (unsigned long long)shard_hosts));
        }
        if (!csv_path.empty()) {
            return req.bail("--csv does not apply to shard partials; run "
                            "it on the merged artifact");
        }
        req.opt.shard.hosts = shard_hosts;
        req.opt.shard.host = *shard_host;
    }
    if ((rc = req.expand()))
        return rc;
    const ExperimentPlan &plan = req.plan;
    const SampleSpec &sample = req.sample;
    SweepOptions &opt = req.opt;

    PipeTracer::Format fmt = PipeTracer::Format::Kanata;
    SeqNum lo = 0, hi = ~SeqNum{0};
    if (!pipetrace_path.empty()) {
        if (sample.enabled())
            return req.bail("--pipetrace needs an unsampled run");
        if (req.cells.cells.size() != 1) {
            return req.bail(csprintf(
                "--pipetrace needs exactly one cell, but %zu match; "
                "narrow with --filter", req.cells.cells.size()));
        }
        if (pipetrace_format == "canonical") {
            fmt = PipeTracer::Format::Canonical;
        } else if (pipetrace_format != "kanata") {
            return req.bail(csprintf(
                "bad --pipetrace-format \"%s\" (kanata or canonical)",
                pipetrace_format.c_str()));
        }
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
            + ".shard" + std::to_string(*shard_host) + "of"
            + std::to_string(shard_hosts) + ".eoleshard";
        if (path.empty())
            path = default_name;
        else if (std::filesystem::is_directory(path))
            path += "/" + default_name;
        if (const std::string err = writeOutput(path, [&](std::ostream &os) {
                writeShardArtifact(os, shard);
            }); !err.empty())
            return req.bail(err);
        inform("wrote %s (host %llu of %llu: %zu of %llu cells)",
               path.c_str(), (unsigned long long)*shard_host,
               (unsigned long long)shard_hosts, shard.cells.size(),
               (unsigned long long)shard.cellsTotal);
        return req.finish(shard.cells.size());
    }

    PlanResult result;
    const auto run = [&] {
        result = sample.enabled() ? runSampledPlan(plan, sample, opt)
                                  : runPlan(plan, opt);
    };
    if (pipetrace_path.empty()) {
        run();
    } else if (const std::string err = writeOutput(pipetrace_path,
                   [&](std::ostream &os) {
                       PipeTracer tracer(os, fmt, lo, hi);
                       opt.tracer = &tracer;
                       run();
                       tracer.finish();
                   });
               !err.empty()) {
        return req.bail(err);
    }
    req.storeSummary(result.storeHits, result.storeComputed);
    if (!pipetrace_path.empty()) {
        inform("wrote %s (pipetrace, %s format)", pipetrace_path.c_str(),
               pipetrace_format.c_str());
    }

    if (!no_tables)
        printPlanTables(plan, result);

    if (!out_path.empty()) {
        if (const std::string err = writeOutput(out_path,
                [&](std::ostream &os) { writeJsonArtifact(os, result); });
            !err.empty())
            return req.bail(err);
        inform("wrote %s (%zu cells)", out_path.c_str(),
               result.cells.size());
    }
    if (!csv_path.empty()) {
        if (const std::string err = writeOutput(csv_path,
                [&](std::ostream &os) { writeCsvArtifact(os, result); });
            !err.empty())
            return req.bail(err);
        inform("wrote %s", csv_path.c_str());
    }
    return req.finish(result.cells.size());
}

int
cmdMerge(int argc, char **argv)
{
    std::vector<std::string> paths;
    std::string out_path;
    bool quiet = false;
    std::string err = parseFlags(
        {text("--out", &out_path), on("--quiet", &quiet)}, argc, argv,
        &paths);
    if (!err.empty())
        return fail(err);
    if (paths.empty())
        return fail("merge needs shard partial file(s)");
    if (out_path.empty())
        return fail("merge needs --out <artifact.json>");

    std::vector<ShardArtifact> shards;
    shards.reserve(paths.size());
    for (const std::string &p : paths) {
        std::ifstream is(p, std::ios::binary);
        if (!is)
            return fail("cannot read " + p);
        ShardArtifact shard;
        if (!tryReadShardArtifact(is, &shard, &err))
            return fail(p + ": " + err);
        shards.push_back(std::move(shard));
    }

    PlanResult merged;
    if (!tryMergeShardArtifacts(shards, &merged, &err))
        return fail(err);

    err = writeOutput(out_path, [&](std::ostream &os) {
        writeJsonArtifact(os, merged);
    });
    if (!err.empty())
        return fail(err);
    if (!quiet) {
        std::fprintf(stderr,
                     "wrote %s (%zu cells from %zu of %llu shard "
                     "partial(s))\n", out_path.c_str(),
                     merged.cells.size(), shards.size(),
                     (unsigned long long)shards.front().hosts);
    }
    return 0;
}

/** The one argument of `store ls|gc`: "" when @p args is a store
 *  directory, else the diagnostic. */
std::string
checkStoreDir(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return "store ls|gc needs one store directory";
    if (!std::filesystem::exists(args[0] + "/index"))
        return args[0] + " is not a store directory (no index file)";
    return "";
}

int
cmdStoreLs(int argc, char **argv)
{
    std::vector<std::string> args;
    std::string err = parseFlags({}, argc, argv, &args);
    if (err.empty())
        err = checkStoreDir(args);
    if (!err.empty())
        return fail(err);
    const std::string &dir = args[0];
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

int
cmdStoreGc(int argc, char **argv)
{
    std::uint64_t max_objects = ~0ULL, max_bytes = ~0ULL;
    std::vector<std::string> args;
    std::string err = parseFlags(
        {count("--max-objects", &max_objects, 0, ~0ULL),
         count("--max-bytes", &max_bytes, 0, ~0ULL)}, argc, argv, &args);
    if (err.empty())
        err = checkStoreDir(args);
    if (err.empty() && max_objects == ~0ULL && max_bytes == ~0ULL)
        err = "store gc needs --max-objects and/or --max-bytes";
    if (!err.empty())
        return fail(err);
    const std::string &dir = args[0];
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
    req.flags.push_back(text("--out", &out_dir));
    int rc = req.open(argc, argv);
    if (rc)
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
    std::vector<std::string> paths;
    const std::string err = parseFlags({}, argc, argv, &paths);
    if (!err.empty())
        return fail(err);
    if (paths.empty())
        return fail("ckpt info needs checkpoint file(s)");
    int rc = 0;
    for (const std::string &path : paths) {
        std::ifstream is(path, std::ios::binary);
        if (!is) {
            rc = fail("cannot read " + path);
            continue;
        }
        Checkpoint ckpt;
        std::string cerr;
        if (!tryDeserializeCheckpoint(is, &ckpt, &cerr)) {
            rc = fail(path + ": " + cerr);
            continue;
        }
        std::printf("%s: %s workload \"%s\" uop %llu", path.c_str(),
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
cmdBench(int argc, char **argv)
{
    BenchOptions opt;
    std::string out_path;
    std::vector<std::string> compare_paths;
    std::optional<double> fail_below;
    bool compare = false;
    std::string err = parseFlags(
        {list("--configs", &opt.configs),
         list("--workloads", &opt.workloads),
         count("--budget", &opt.budget, 1, maxRunLengthUops),
         count("--warmup", &opt.warmup, 0, maxRunLengthUops),
         count("--reps", &opt.reps, 1, INT_MAX),
         text("--label", &opt.label), text("--out", &out_path),
         on("--compare", &compare),
         // The least positive double: a threshold must be above 0.
         real("--fail-below", &fail_below,
              std::numeric_limits<double>::denorm_min()),
         on("--profile", &opt.profile), on("--quiet", &opt.quiet)},
        argc, argv, &compare_paths);
    if (err.empty() && compare && compare_paths.size() != 2)
        err = "--compare needs two bench files";
    if (err.empty() && !compare && !compare_paths.empty())
        err = "unexpected argument " + compare_paths[0]
            + " (bench files follow --compare)";
    if (err.empty() && fail_below && !compare)
        err = "--fail-below only applies to --compare";
    if (!err.empty())
        return fail(err);
    if (opt.quiet)
        setLogLevel(LogLevel::Quiet);

    if (compare) {
        BenchResult a, b;
        if (!readBenchJsonFile(compare_paths[0], &a, &err)
            || !readBenchJsonFile(compare_paths[1], &b, &err))
            return fail(err);
        std::printf("bench compare: a=%s (%s), b=%s (%s)\n",
                    compare_paths[0].c_str(), a.label.c_str(),
                    compare_paths[1].c_str(), b.label.c_str());
        const double g = compareBench(a, b, std::cout);
        if (fail_below && g < *fail_below) {
            std::fprintf(stderr,
                         "eole: bench: geomean speedup %.3f below "
                         "threshold %.3f\n", g, *fail_below);
            return 1;
        }
        return 0;
    }

    // file:<path> workload specs: bind the trace and bench under its
    // canonical name, timing replay-from-mmap instead of a generator.
    for (std::string &spec : opt.workloads) {
        std::string resolved;
        if (!workloads::resolveWorkloadSpec(spec, &resolved, &err))
            return fail(err);
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
        err = writeOutput(out_path, [&](std::ostream &os) {
            writeBenchJson(os, result);
        });
        if (!err.empty())
            return fail(err);
        inform("wrote %s (%zu cells)", out_path.c_str(),
               result.cells.size());
    }
    return 0;
}

/** `eole trace record <workload> --out F [--uops N]`. */
int
cmdTraceRecord(int argc, char **argv)
{
    std::string out_path;
    std::uint64_t uops = 0;
    bool quiet = false;
    std::vector<std::string> args;
    std::string err = parseFlags(
        {text("--out", &out_path),
         count("--uops", &uops, 0, maxRunLengthUops),
         on("--quiet", &quiet)},
        argc, argv, &args);
    if (err.empty() && (args.size() != 1 || out_path.empty()))
        err = "trace record needs one workload and --out <file>";
    if (!err.empty())
        return fail(err);
    if (quiet)
        setLogLevel(LogLevel::Quiet);
    if (uops == 0) {
        // Cover a default-length run of any stock config with
        // generous in-flight slack; replaying a too-short
        // incomplete trace is a loud error, not silent drift.
        uops = warmupUops() + measureUops() + 65536;
    }
    std::string resolved;
    if (!workloads::resolveWorkloadSpec(args[0], &resolved, &err))
        return fail(err);
    const Workload w = workloads::build(resolved);
    if (w.name.size() >= traceFileNameBytes) {
        return fail(csprintf("workload name \"%s\" is too long for the "
                             "trace header (max %zu bytes)",
                             w.name.c_str(), traceFileNameBytes - 1));
    }
    const auto trace = w.freeze(uops);
    if (!writeTraceFile(*trace, out_path, "generated", &err))
        return fail(err);
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
    return 0;
}

int
cmdTraceInfo(int argc, char **argv)
{
    std::vector<std::string> paths;
    std::string err = parseFlags({}, argc, argv, &paths);
    if (err.empty() && paths.empty())
        err = "trace info needs file(s)";
    if (!err.empty())
        return fail(err);
    for (const std::string &path : paths) {
        TraceFileInfo info;
        if (!readTraceFileInfo(path, &info, &err))
            return fail(err);  // err names the path
        std::printf("%s:\n", path.c_str());
        std::printf("  workload  %s\n", info.name.c_str());
        std::printf("  source    %s\n", info.source.c_str());
        std::printf("  µ-ops     %llu (%s), %zu bytes each\n",
                    (unsigned long long)info.uopCount,
                    info.complete ? "complete" : "prefix",
                    sizeof(UopRecord));
        std::printf("  statics   %llu entries, %zu bytes each\n",
                    (unsigned long long)info.staticCount,
                    sizeof(StaticUop));
        std::printf("  suite     %s\n", info.isFp ? "FP" : "INT");
        std::printf("  bytes     %llu\n",
                    (unsigned long long)info.fileBytes);
        std::printf("  checksum  ok\n");
    }
    return 0;
}

/** `eole trace ingest <log.rvlog> --out F [--name N]`. */
int
cmdTraceIngest(int argc, char **argv)
{
    std::string out_path, name;
    bool quiet = false;
    std::vector<std::string> args;
    std::string err = parseFlags(
        {text("--out", &out_path), text("--name", &name),
         on("--quiet", &quiet)}, argc, argv, &args);
    if (err.empty() && (args.size() != 1 || out_path.empty()))
        err = "trace ingest needs one log file and --out <file>";
    if (!err.empty())
        return fail(err);
    if (quiet)
        setLogLevel(LogLevel::Quiet);
    const std::string &log_path = args[0];
    if (name.empty()) {
        // Canonical name defaults to the log's stem under an rv64:
        // prefix — addressable like torture:<seed>, and it cannot
        // shadow a registry benchmark by accident.
        name = "rv64:" + std::filesystem::path(log_path).stem().string();
    }
    if (name.size() >= traceFileNameBytes) {
        return fail(csprintf("--name \"%s\" is too long for the trace "
                             "header (max %zu bytes)", name.c_str(),
                             traceFileNameBytes - 1));
    }
    const auto trace = ingestRv64LogFile(log_path, name, &err);
    if (!trace)
        return fail(log_path + ": " + err);
    if (!writeTraceFile(*trace, out_path, "rv64i", &err))
        return fail(err);
    std::printf("wrote %s: workload %s, %zu µ-ops ingested from "
                "%s\n", out_path.c_str(), name.c_str(),
                trace->uops.size(), log_path.c_str());
    return 0;
}

int
cmdTelemetrySummarize(int argc, char **argv)
{
    std::vector<std::string> paths;
    std::string err = parseFlags({}, argc, argv, &paths);
    if (err.empty() && paths.empty())
        err = "telemetry summarize needs file(s)";
    if (err.empty())
        err = summarizeTelemetry(paths, std::cout);
    if (!err.empty())
        return fail(err);
    return 0;
}

int
cmdDiff(int argc, char **argv)
{
    std::vector<std::string> paths;
    DiffOptions opt;
    std::string err = parseFlags(
        {real("--rel-tol", &opt.relTol, 0.0),
         real("--abs-tol", &opt.absTol, 0.0), on("--ci", &opt.ciOverlap)},
        argc, argv, &paths);
    if (err.empty() && paths.size() != 2)
        err = "diff needs two artifacts";
    if (!err.empty())
        return fail(err);

    PlanResult a, b;
    if (!readJsonArtifactFile(paths[0], &a, &err)
        || !readJsonArtifactFile(paths[1], &b, &err))
        return fail(err);
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

int
cmdVersion(int, char **)
{
    std::printf("eole %s\n", buildInfoString().c_str());
    return 0;
}

/** Every command, by its words; a handler gets the arguments after
 *  them. */
const struct
{
    const char *words;
    int (*run)(int argc, char **argv);
} commands[] = {
    {"list", cmdList},
    {"describe", cmdDescribe},
    {"run",
     [](int argc, char **argv) { return runOrShard(argc, argv, false); }},
    {"shard",
     [](int argc, char **argv) { return runOrShard(argc, argv, true); }},
    {"merge", cmdMerge},
    {"store ls", cmdStoreLs},
    {"store gc", cmdStoreGc},
    {"ckpt save", cmdCkptSave},
    {"ckpt info", cmdCkptInfo},
    {"trace record", cmdTraceRecord},
    {"trace info", cmdTraceInfo},
    {"trace ingest", cmdTraceIngest},
    {"telemetry summarize", cmdTelemetrySummarize},
    {"bench", cmdBench},
    {"diff", cmdDiff},
    {"version", cmdVersion},
    {"--version", cmdVersion},
    {"help", [](int, char **) { return usage(stdout, 0); }},
    {"--help", [](int, char **) { return usage(stdout, 0); }},
    {"-h", [](int, char **) { return usage(stdout, 0); }},
};

} // namespace

int
main(int argc, char **argv)
{
    // A write past the file-size limit (ulimit -f) then fails with
    // EFBIG like a full disk: writeWholeFile removes its temporary
    // file and the command exits 2, where the default action of
    // SIGXFSZ would kill it mid-write and leave that file behind.
    std::signal(SIGXFSZ, SIG_IGN);
    if (argc < 2)
        return usage(stderr, 2);
    const std::string one = argv[1];
    const std::string two = argc > 2 ? one + " " + argv[2] : one;
    for (const auto &c : commands) {
        if (c.words == one)
            return c.run(argc - 2, argv + 2);
        if (argc > 2 && c.words == two)
            return c.run(argc - 3, argv + 3);
    }
    std::fprintf(stderr, "eole: unknown command \"%s\"\n", two.c_str());
    return usage(stderr, 2);
}

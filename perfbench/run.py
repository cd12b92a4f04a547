#!/usr/bin/env python3
"""Repository benchmark: plan-to-artifact sweep time of the EOLE simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload full_fig12 --seed 1 --seconds 20 --trace 0

The first run builds the `eole` binary and the traced-pass tool
`eole_layers` from source into .bench_build/ (see perfbench/CMakeLists.txt).

--trace 0 times the workload's `eole` command with tracing off and prints
the end-to-end metrics. --trace 1 re-executes the same cells through
eole_layers, with a span around each call into a layer, and prints the
per-layer metrics. Either way the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. perfbench/README.md has the
metric table and the reasons behind each workload.

Other modes: --self-test (one pass with a parameter changed must fail every
cell) and --write-reference (record the default seed's fingerprints).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")

JOBS = 1                # worker threads of every timed command
DEFAULT_SEED = 1        # the plan's default seed; references exist for it
MIN_ROUNDS = 3          # measured rounds per run, even past --seconds
MIN_TRACED_ROUNDS = 2
SETUP_REPS = 5          # set-up repetitions; setup_s is their median
HARD_STOP_S = 150       # no new round starts after this (exit < 180 s)
TRACE_SLACK = 1024      # µ-ops `eole trace record` adds past the horizon
WARM_MIN_S = 0.5        # store-reading passes repeat until this long...
WARM_REPS_MAX = 30      # ...or this many, per round
SELF_TEST_SET = "mem.l1d.sizeBytes=16384"

FIG12_CONFIGS = ["Baseline_6_64", "Baseline_VP_6_64", "EOLE_4_64",
                 "EOLE_4_64_4ports_4banks"]
PROBE = {"workload": "164.gzip", "warm": 300000, "detail": 50000}

WORKLOADS = {
    # Unsampled fig12, all 4x19 cells: the detailed tick loop.
    "full_fig12": {
        "kind": "run", "workloads": None, "sample": None,
        "warmup": 20000, "insts": 50000},
    # Warm-once sampled fig12 over 4 footprint-spanning workloads:
    # recording, functional warming, checkpoint capture and restore.
    "sampled_fig12": {
        "kind": "run", "sample": "8:2000:2000",
        "workloads": ["164.gzip", "173.applu", "429.mcf", "470.lbm"],
        "warmup": 100000, "insts": 400000},
    # `eole ckpt save` over recorded trace files: mmap loads, checkpoint
    # text files and the store.
    "disk_ckpt": {
        "kind": "ckpt", "sample": "8:2000:2000",
        "configs": ["EOLE_4_64", "Baseline_6_64"],
        "workloads": ["429.mcf", "164.gzip", "173.applu", "186.crafty"],
        "warmup": 100000, "insts": 400000},
}

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("sim_uops_per_s", "uops/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("out_mb", "MB"),
              ("store_cold_s", "s"), ("store_warm_s", "s")]

LAYERS = ["isa", "trace", "workloads", "bpred", "vpred", "mem", "pipeline",
          "sim"]
PER_LAYER = (
    [("isa.record.uops_per_s", "uops/s"), ("isa.capture_at.ms", "ms"),
     ("isa.capture_at.ms_max", "ms"), ("isa.capture_at.ms_per_cell", "ms"),
     ("isa.ckpt.serialize.ms", "ms"), ("isa.ckpt.parse.ms", "ms"),
     ("isa.ckpt.bytes", "bytes"), ("trace.write.mb_per_s", "MB/s"),
     ("trace.load.ms", "ms"), ("trace.bytes_per_uop", "bytes"),
     ("workloads.build.ms", "ms")]
    + [(f"{c}.warm.uops_per_s", "uops/s") for c in ("bpred", "vpred", "mem")]
    + [m for c in ("bpred", "vpred", "mem")
       for m in ((f"{c}.snapshot.ms", "ms"), (f"{c}.snapshot.bytes", "bytes"),
                 (f"{c}.restore.ms", "ms"))]
    + [("pipeline.construct.ms", "ms"), ("pipeline.warm.uops_per_s", "uops/s"),
       ("pipeline.capture.ms", "ms"), ("pipeline.restore.ms", "ms")]
    + [(f"pipeline.run.{c}.uops_per_s", "uops/s") for c in FIG12_CONFIGS]
    + [("pipeline.committed_uops", "count"), ("pipeline.cycles", "count"),
       ("sim.store.put.ms", "ms"), ("sim.store.get.ms", "ms"),
       ("sim.store.contains.ms", "ms"), ("sim.store.hit_frac", "frac"),
       ("sim.pool.busy_frac", "frac"), ("sim.jobs", "count"),
       ("sim.job.ms_p50", "ms"), ("sim.job.ms_tail", "ms"),
       ("sim.job.tail_pct", "%"), ("sim.critical_path_s", "s"),
       ("sim.artifact.write.ms", "ms"), ("trace_overhead_frac", "frac")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """Set-up cannot go on (missing sources, failed build, refused host)."""


# ----------------------------------------------------------- build, guard

def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("run from the root of a source checkout: "
                         "CMakeLists.txt and src/ are missing")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(configure, stdout=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "eole_cli",
           "eole_layers", "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode:
        raise BenchError("build failed")
    return (os.path.abspath(os.path.join(BUILD_DIR, "eole", "eole")),
            os.path.abspath(os.path.join(BUILD_DIR, "eole_layers")))


def host_guard(eole):
    """Refuse builds and environments whose timings are not ledger
    numbers; return the host record printed with every result."""
    if os.environ.get("EOLE_PROF"):
        raise BenchError("EOLE_PROF is set: the stage profiler distorts "
                         "every timing; unset it")
    version = subprocess.run([eole, "--version"], capture_output=True,
                             text=True, check=True).stdout.strip()
    if version.split()[-1] == "Debug":
        raise BenchError(f"refusing a Debug build ({version})")
    with open(eole, "rb") as f:
        image = f.read()
    for marker in (b"__asan_init", b"__tsan_init"):
        if marker in image:
            raise BenchError(f"refusing a sanitizer build ({marker.decode()})")
    return {"nproc": os.cpu_count(), "eole_version": version,
            "loadavg": list(os.getloadavg())}


# ------------------------------------------------------- running commands

def timed(cmd, err_path):
    """Run @cmd to completion; return (exit code, wall s, cpu s, peak RSS
    MB, stderr text) with the child's own rusage from wait4."""
    with open(err_path, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read()
    os.remove(err_path)
    return (proc.returncode, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0, text)


def workload_names(eole):
    """Every registered workload: the list fig12 sweeps."""
    out = subprocess.run([eole, "list", "--workloads"], capture_output=True,
                         text=True, check=True).stdout
    return re.findall(r"^(\S+)\s+(?:INT|FP)\s+\d+", out, re.M)


def dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def store_counts(stderr_text):
    m = re.search(r"store \S+: (\d+) cached, (\d+) computed", stderr_text)
    return (int(m.group(1)), int(m.group(2))) if m else None


class Workload:
    """One benchmark workload: its commands, inputs and output checks."""

    def __init__(self, name, spec, eole, layers, seed, tmp, sets=()):
        self.name, self.spec, self.eole, self.layers = name, spec, eole, layers
        self.seed, self.tmp, self.sets = seed, tmp, list(sets)
        self.kind = spec["kind"]
        self.configs = spec.get("configs", FIG12_CONFIGS)
        self.trace_files = []
        self.pass_no = 0

    def horizon_env(self):
        env = dict(os.environ)
        env["EOLE_WARMUP"] = str(self.spec["warmup"])
        env["EOLE_INSTS"] = str(self.spec["insts"])
        return env

    def cell_count(self):
        names = self.spec["workloads"]
        return len(self.configs) * len(names or workload_names(self.eole))

    def fresh(self, stem):
        self.pass_no += 1
        return os.path.join(self.tmp, f"{stem}{self.pass_no}")

    # --- set-up: inputs the timed command reads
    def setup_once(self):
        """One preparation of the inputs. run: generate every workload's
        stream to the run horizon and confirm it covers it. ckpt: record
        the trace files. Returns (ok, seconds)."""
        t0 = time.perf_counter()
        if self.kind == "run":
            names = self.spec["workloads"] or []
            out = subprocess.run([self.eole, "list", "--workloads"] + names,
                                 capture_output=True, text=True,
                                 env=self.horizon_env())
            rows = [l for l in out.stdout.splitlines()
                    if re.match(r"^\S+\s+(INT|FP)\s+\d+", l)]
            ok = bool(out.returncode == 0 and rows
                      and all(r.endswith("+") for r in rows)
                      and (not names or len(rows) == len(names)))
            return ok, time.perf_counter() - t0
        for old in self.trace_files:
            os.remove(old)
        self.trace_files = []
        t0 = time.perf_counter()
        tdir = self.fresh("traces")
        os.makedirs(tdir)
        files, ok = [], True
        for w in self.spec["workloads"]:
            path = os.path.join(tdir, w + ".trace")
            rc = subprocess.run([self.eole, "trace", "record", w, "--out",
                                 path, "--quiet"], env=self.horizon_env(),
                                stdout=subprocess.DEVNULL).returncode
            ok = ok and rc == 0
            files.append(os.path.abspath(path))
        self.trace_files = files
        return ok, time.perf_counter() - t0

    def plan_file(self):
        path = os.path.join(self.tmp, "disk_ckpt.plan")
        with open(path, "w") as f:
            f.write("plan = disk_ckpt\n")
            f.write("configs = " + ", ".join(self.configs) + "\n")
            f.write("workloads = " + ", ".join(
                "file:" + p for p in self.trace_files) + "\n")
        return path

    # --- the timed `eole` command
    def command(self, out, store=None):
        s = self.spec
        common = ["--warmup", str(s["warmup"]), "--insts", str(s["insts"]),
                  "--jobs", str(JOBS), "--seed", str(self.seed), "--quiet"]
        for kv in self.sets:
            common += ["--set", kv]
        if s["sample"]:
            common += ["--sample", s["sample"]]
        if store:
            common += ["--store", store]
        if self.kind == "run":
            cmd = [self.eole, "run", "fig12", "--out", out, "--no-tables"]
            if s["workloads"]:
                cmd += ["--workloads", ",".join(s["workloads"])]
            return cmd + common
        return [self.eole, "ckpt", "save", "--plan", self.plan_file(),
                "--out", out] + common

    def traced_command(self, out, spans, store=None):
        s = self.spec
        common = ["--warmup", str(s["warmup"]), "--insts", str(s["insts"]),
                  "--jobs", str(JOBS), "--seed", str(self.seed),
                  "--out", out, "--spans", spans]
        if s["sample"]:
            common += ["--sample", s["sample"]]
        if self.kind == "run":
            cmd = [self.layers, "run", "--plan", "fig12"]
            if s["workloads"]:
                cmd += ["--workloads", ",".join(s["workloads"])]
            return cmd + common
        return [self.layers, "ckpt", "--configs", ",".join(self.configs),
                "--traces", ",".join(self.trace_files),
                "--store", store] + common

    # --- outputs
    def fingerprints(self, out):
        """Per-cell SHA-256 of what `eole diff` compares (seed, config
        map, stats; never build provenance), or of a cell's checkpoint
        files. None when the output is missing or unreadable."""
        try:
            if self.kind == "run":
                with open(out) as f:
                    art = json.load(f)
                return {f"{c['config']}/{c['workload']}": hashlib.sha256(
                    json.dumps([c["seed"], c["params"], c["stats"]],
                               sort_keys=True).encode()).hexdigest()
                    for c in art["cells"]}
            cells = {}
            for fname in sorted(os.listdir(out)):
                config, workload, _ = fname.split("__")
                with open(os.path.join(out, fname), "rb") as f:
                    digest = hashlib.sha256(f.read()).hexdigest()
                cells.setdefault(f"{config}/{workload}", []).append(
                    f"{fname} {digest}")
            return {k: hashlib.sha256("\n".join(v).encode()).hexdigest()
                    for k, v in cells.items()}
        except (OSError, ValueError, KeyError):
            return None

    def simulated_uops(self, out):
        """Detailed commits plus functionally warmed µ-ops of one pass."""
        if self.kind == "run":
            with open(out) as f:
                art = json.load(f)
            total = 0
            for c in art["cells"]:
                st = c["stats"]
                if "sample_warm_uops" in st:
                    total += (st["committed_uops"] + st["sample_warm_uops"]
                              + st["sample_intervals"]
                              * st["sample_detail_uops"])
                else:
                    total += art["warmup"] + st["committed_uops"]
            return total
        last = {}
        for fname in os.listdir(out):
            config, workload, u = fname.split("__")
            idx = int(u[1:-len(".ckpt")])
            key = (config, workload)
            last[key] = max(last.get(key, 0), idx)
        return sum(last.values())


class Checker:
    """Counts cells checked and failed. At the default seed each output
    is compared with the committed reference; at any other seed with the
    first output of the run."""

    def __init__(self, wl, reference):
        self.wl, self.reference = wl, reference
        self.attempted = self.failed = 0
        self.notes = []

    def check(self, label, prints):
        expect = self.reference
        n = len(expect) if expect else self.wl.cell_count()
        self.attempted += n
        if prints is None:
            self.failed += n
            self.notes.append(f"{label}: no readable output")
            return False
        if expect is None:
            self.reference = expect = prints
        bad = sorted(set(expect) ^ set(prints)
                     | {c for c in expect.keys() & prints.keys()
                        if expect[c] != prints[c]})
        self.failed += min(len(bad), n)
        if bad:
            self.notes.append(f"{label}: {len(bad)} cell(s) differ, "
                              f"e.g. {bad[0]}")
        return not bad

    def fail(self, label, why):
        self.attempted += 1
        self.failed += 1
        self.notes.append(f"{label}: {why}")


def load_reference(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE) as f:
        ref = json.load(f)
    if workload not in ref:
        raise BenchError(f"{REFERENCE} has no reference for {workload}")
    return ref[workload]["cells"]


def median(xs):
    return statistics.median(xs)


# ------------------------------------------------------ end-to-end passes

def remove(path):
    if os.path.isdir(path):
        shutil.rmtree(path, ignore_errors=True)
    elif os.path.exists(path):
        os.remove(path)


def plain_pass(wl, checker, label, keep=None):
    """The timed command with tracing off; its output is checked, sized
    and deleted (or its fingerprints handed to @keep)."""
    out = wl.fresh("out")
    rc, wall, cpu, rss, err = timed(wl.command(out), wl.fresh("stderr"))
    prints = wl.fingerprints(out) if rc == 0 else None
    if rc != 0:
        log(f"{label}: exit {rc}: {err.strip()[-400:]}")
    ok = checker.check(label, prints)
    if keep is not None:
        keep.append(prints)
    if not ok:
        remove(out)
        return None
    size = os.path.getsize(out) if wl.kind == "run" else dir_bytes(out)
    uops = wl.simulated_uops(out)
    remove(out)
    return {"wall": wall, "cpu": cpu, "rss": rss, "bytes": size,
            "uops": uops}


def checked_store_run(wl, checker, label, phase, command, out):
    """One store pass: it must exit 0, report what a cold (nothing
    cached) or warm (nothing computed) pass reports, and write the same
    cells as every other pass. Returns its wall seconds or None."""
    rc, wall, _, _, err = timed(command, wl.fresh("stderr"))
    counts = store_counts(err)
    want = 0 if phase == "cold" else 1
    if rc != 0 or counts is None or counts[want] != 0:
        checker.fail(f"{label} {phase}", f"exit {rc}, store {counts} "
                     f"(cached, computed)")
        ok = False
    else:
        ok = checker.check(f"{label} {phase}", wl.fingerprints(out))
    remove(out)
    return wall if ok else None


def store_passes(wl, checker, label, traced_spans=None):
    """A store-writing pass on a fresh store, then a store-reading pass
    that must compute nothing. With @traced_spans, the passes run through
    eole_layers and their spans are appended there."""
    store = wl.fresh("store")
    times = {"cold": [], "warm": []}
    size = 0
    # A warm pass of a small grid lasts milliseconds: repeat it (the
    # store stays filled) and keep the median.
    phases = ["cold"] + ["warm"] * (1 if traced_spans is not None
                                    else WARM_REPS_MAX)
    for phase in phases:
        if phase == "warm" and sum(times["warm"]) >= WARM_MIN_S:
            break
        out = wl.fresh("out")
        if traced_spans is None:
            command = wl.command(out, store)
        else:
            sp = wl.fresh("spans") + ".tsv"
            command = wl.traced_command(out, sp, store)
        wall = checked_store_run(wl, checker, label, phase, command, out)
        if wall is None:
            remove(store)
            return None
        if traced_spans is not None:
            traced_spans += read_spans(sp, sp)
        if phase == "cold":
            size = dir_bytes(store)
        times[phase].append(wall)
    remove(store)
    return times["cold"][0], median(times["warm"]), size


def measure(wl, checker, seconds):
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        label = f"round {len(rounds) + 1}"
        plain = plain_pass(wl, checker, label)
        stored = store_passes(wl, checker, label)
        if plain and stored:
            rounds.append(dict(plain, cold=stored[0], warm=stored[1],
                               store_bytes=stored[2]))
        took = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        done = len(rounds) >= MIN_ROUNDS and elapsed + took > seconds
        if done or elapsed + took > HARD_STOP_S or checker.failed > 0:
            return rounds


def end_to_end(rounds, setups):
    walls = [r["wall"] for r in rounds]
    return {
        "wall_s": median(walls),
        "cpu_s": median(r["cpu"] for r in rounds),
        "sim_uops_per_s": median(r["uops"] / r["wall"] for r in rounds),
        "setup_s": median(setups),
        "peak_rss_mb": median(r["rss"] for r in rounds),
        "out_mb": median((r["bytes"] + r["store_bytes"]) / 1e6
                         for r in rounds),
        "store_cold_s": median(r["cold"] for r in rounds),
        "store_warm_s": median(r["warm"] for r in rounds),
    }


# ---------------------------------------------------------- traced pass

def read_spans(path, tag):
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, cell, name, t0, t1, work, extra = \
                line.rstrip("\n").split("\t")
            spans.append({"id": (tag, int(sid)),
                          "parent": (tag, int(parent)) if int(parent) else None,
                          "cell": cell, "name": name,
                          "t0": int(t0) / 1e9, "t1": int(t1) / 1e9,
                          "work": int(work), "extra": int(extra)})
    return spans


def self_times(spans):
    """Span duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    out = {}
    for s in spans:
        covered, end = 0.0, s["t0"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, end), min(b, s["t1"])
            if b > a:
                covered += b - a
                end = b
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out


def tail(durations):
    """The highest of p99/p95/p90/p75 with at least ten samples beyond
    it; the median when there are too few samples for any."""
    xs = sorted(durations)
    for pct in (99, 95, 90, 75):
        if len(xs) * (100 - pct) / 100 >= 10:
            return xs[min(len(xs) - 1, int(len(xs) * pct / 100))], pct
    return median(xs), 50


def layer_metrics(spans, overhead):
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def durs(name):
        return [s["t1"] - s["t0"] for s in by.get(name, [])]

    def ms(name):
        return median(durs(name)) * 1e3

    def rate(name):
        return sum(s["work"] for s in by[name]) / sum(durs(name))

    m = {"isa.record.uops_per_s": rate("isa.record")}
    cap = durs("isa.capture_at")
    per_cell = {}
    for s in by["isa.capture_at"]:
        per_cell[s["cell"]] = per_cell.get(s["cell"], 0.0) + s["t1"] - s["t0"]
    m.update({"isa.capture_at.ms": median(cap) * 1e3,
              "isa.capture_at.ms_max": max(cap) * 1e3,
              "isa.capture_at.ms_per_cell": median(per_cell.values()) * 1e3,
              "isa.ckpt.serialize.ms": ms("isa.ckpt.serialize"),
              "isa.ckpt.parse.ms": ms("isa.ckpt.parse"),
              "isa.ckpt.bytes": median(s["work"]
                                       for s in by["isa.ckpt.serialize"]),
              "trace.write.mb_per_s": rate("trace.write") / 1e6,
              "trace.load.ms": ms("trace.load"),
              "trace.bytes_per_uop": sum(s["work"] for s in by["trace.write"])
              / sum(s["extra"] for s in by["trace.write"]),
              "workloads.build.ms": ms("workloads.build"),
              "bpred.warm.uops_per_s": rate("bpred.warm"),
              "mem.warm.uops_per_s": rate("mem.warm")})
    # The value predictor runs in lockstep with a branch unit; take the
    # branch unit's own loop (same cell, same µ-ops) off the pair.
    bp = {s["cell"]: s["t1"] - s["t0"] for s in by["bpred.warm"]}
    pair = [(s["work"], s["t1"] - s["t0"] - bp[s["cell"]])
            for s in by["vpred.warm_pair"]]
    m["vpred.warm.uops_per_s"] = (sum(w for w, _ in pair)
                                  / max(sum(t for _, t in pair), 1e-9))
    for c in ("bpred", "vpred", "mem"):
        m[f"{c}.snapshot.ms"] = ms(f"{c}.snapshot")
        m[f"{c}.snapshot.bytes"] = median(s["work"]
                                          for s in by[f"{c}.snapshot"])
        m[f"{c}.restore.ms"] = ms(f"{c}.restore")
    m.update({"pipeline.construct.ms": ms("pipeline.construct"),
              "pipeline.warm.uops_per_s": rate("pipeline.warm"),
              "pipeline.capture.ms": ms("pipeline.capture"),
              "pipeline.restore.ms": ms("pipeline.restore")})
    for c in FIG12_CONFIGS:
        runs = [s for s in by["pipeline.run"] if s["cell"].split("/")[0] == c]
        m[f"pipeline.run.{c}.uops_per_s"] = (
            sum(s["work"] for s in runs) / sum(s["t1"] - s["t0"] for s in runs))
    m["pipeline.committed_uops"] = sum(s["work"] for s in by["pipeline.run"])
    m["pipeline.cycles"] = sum(s["extra"] for s in by["pipeline.run"])
    lookups = by["sim.store.contains"] + by["sim.store.get"]
    m.update({"sim.store.put.ms": ms("sim.store.put"),
              "sim.store.get.ms": ms("sim.store.get"),
              "sim.store.contains.ms": ms("sim.store.contains"),
              "sim.store.hit_frac": sum(s["extra"] for s in lookups)
              / len(lookups)})
    jobs = by["sim.job"]
    job_durs = [s["t1"] - s["t0"] for s in jobs]
    pool_wall = sum(durs("sim.pool"))
    m["sim.pool.busy_frac"] = sum(job_durs) / (JOBS * pool_wall)
    m["sim.jobs"] = len(jobs)
    m["sim.job.ms_p50"] = median(job_durs) * 1e3
    t, pct = tail(job_durs)
    m["sim.job.ms_tail"], m["sim.job.tail_pct"] = t * 1e3, pct
    # A cell's jobs in one pool run in parallel; its pools in sequence.
    longest = {}
    for s in jobs:
        key = (s["cell"], s["parent"])
        longest[key] = max(longest.get(key, 0.0), s["t1"] - s["t0"])
    path = {}
    for (cell, _), d in longest.items():
        path[cell] = path.get(cell, 0.0) + d
    m["sim.critical_path_s"] = max(path.values())
    m["sim.artifact.write.ms"] = sum(durs("sim.artifact.write")) * 1e3
    m["trace_overhead_frac"] = overhead
    selfs = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s["id"]] for s in spans
                                   if s["name"].split(".")[0] == layer)
    return m


def traced(wl, checker, seconds):
    """Rounds of (untraced command, traced replay of the same cells),
    then one probe of the layers the workload's own cells skip."""
    setup_spans = []
    if wl.kind == "ckpt":
        # Record the inputs through the traced tool: the same files.
        tdir = wl.fresh("traces")
        os.makedirs(tdir)
        files = []
        for w in wl.spec["workloads"]:
            path = os.path.abspath(os.path.join(tdir, w + ".trace"))
            sp = wl.fresh("spans") + ".tsv"
            uops = wl.spec["warmup"] + wl.spec["insts"] + TRACE_SLACK
            subprocess.run([wl.layers, "record", "--workload", w, "--uops",
                            str(uops), "--out", path, "--spans", sp],
                           check=True)
            setup_spans += read_spans(sp, sp)
            files.append(path)
        wl.trace_files = files
    probe = wl.fresh("spans") + ".tsv"
    probe_dir = wl.fresh("probe")
    subprocess.run([wl.layers, "probe", "--workload", PROBE["workload"],
                    "--configs", ",".join(FIG12_CONFIGS), "--seed",
                    str(wl.seed), "--warm", str(PROBE["warm"]), "--detail",
                    str(PROBE["detail"]), "--dir", probe_dir,
                    "--spans", probe], check=True)
    remove(probe_dir)
    probe_spans = read_spans(probe, probe)

    rounds, untraced_walls, traced_walls = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        label = f"traced round {len(rounds) + 1}"
        round_spans = list(setup_spans)
        if wl.kind == "run":
            base = plain_pass(wl, checker, label + " untraced")
            out, sp = wl.fresh("out"), wl.fresh("spans") + ".tsv"
            rc, wall, _, _, err = timed(wl.traced_command(out, sp),
                                       wl.fresh("stderr"))
            if rc != 0:
                log(f"{label}: exit {rc}: {err.strip()[-400:]}")
            ok = checker.check(label, wl.fingerprints(out) if rc == 0
                               else None) and base is not None
            remove(out)
            if ok:
                untraced_walls.append(base["wall"])
                traced_walls.append(wall)
                round_spans += read_spans(sp, sp)
        else:
            base = store_passes(wl, checker, label + " untraced")
            replay = store_passes(wl, checker, label, round_spans)
            ok = base is not None and replay is not None
            if ok:
                untraced_walls.append(base[0] + base[1])
                traced_walls.append(replay[0] + replay[1])
        if ok:
            rounds.append(round_spans)
        took = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        done = len(rounds) >= MIN_TRACED_ROUNDS and elapsed + took > seconds
        if done or elapsed + took > HARD_STOP_S or checker.failed > 0:
            break
    if not rounds:
        return None
    overhead = median(traced_walls) / median(untraced_walls) - 1.0
    per_round = [layer_metrics(r + probe_spans, overhead) for r in rounds]
    return {name: median(r[name] for r in per_round) for name, _ in PER_LAYER}


# ------------------------------------------------------------------- main

def result(checker, metrics, units):
    return {"correct": checker.failed == 0 and not checker.notes,
            "attempted": checker.attempted, "failed": checker.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help=f"one pass with --set {SELF_TEST_SET} must report "
                    "failed_frac = 1")
    ap.add_argument("--write-reference", action="store_true",
                    help="record this workload's default-seed fingerprints")
    args = ap.parse_args()
    if args.self_test:
        args.seed = DEFAULT_SEED  # the changed pass is held to the reference

    try:
        eole, layers = build()
        host = host_guard(eole)
        reference = (None if args.write_reference
                     else load_reference(args.workload, args.seed))
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: {e}")
        return 2
    print("host " + json.dumps(host, sort_keys=True), flush=True)
    log(f"host {json.dumps(host, sort_keys=True)}")

    os.makedirs(BUILD_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    try:
        sets = [SELF_TEST_SET] if args.self_test else []
        wl = Workload(args.workload, WORKLOADS[args.workload], eole, layers,
                      args.seed, tmp, sets)
        checker = Checker(wl, reference)
        setups = []
        for _ in range(0 if args.trace else SETUP_REPS):
            ok, took = wl.setup_once()
            if not ok:
                checker.fail("setup", "input preparation failed")
            setups.append(took)

        if args.write_reference or args.self_test:
            keep = []
            plain_pass(wl, checker, "pass", keep)
            if args.write_reference:
                prints = keep[0]
                if not prints:
                    log("perfbench: no output to take a reference from")
                    return 1
                ref = {}
                if os.path.exists(REFERENCE):
                    with open(REFERENCE) as f:
                        ref = json.load(f)
                ref[args.workload] = {"seed": args.seed, "cells": prints}
                with open(REFERENCE, "w") as f:
                    json.dump(ref, f, indent=1, sort_keys=True)
                    f.write("\n")
                log(f"wrote {len(prints)} cell fingerprints to {REFERENCE}")
                return 0
            frac = checker.failed / checker.attempted
            log(f"self-test: failed_frac = {frac} "
                f"({checker.failed}/{checker.attempted} cells)")
            return 0 if frac == 1 else 1

        if args.trace:
            metrics = traced(wl, checker, args.seconds)
            units = PER_LAYER
        else:
            rounds = measure(wl, checker, args.seconds)
            metrics = end_to_end(rounds, setups) if rounds else None
            units = END_TO_END
            if rounds:
                log(f"{len(rounds)} rounds; setup reps {len(setups)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for note in checker.notes:
        log(f"check: {note}")
    if metrics is None:
        log("perfbench: no round completed")
        return 1
    frac = checker.failed / max(checker.attempted, 1)
    log(f"failed_frac = {frac} ({checker.failed} of {checker.attempted} "
        f"cells)")
    for name, unit in units:
        log(f"  {name:36s} {metrics[name]:16.6g} {unit}")
    print(json.dumps(result(checker, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

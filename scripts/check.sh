#!/usr/bin/env bash
# CI entrypoint: tier-1 verify (configure + build + ctest) with short
# run lengths so the experiment grids finish in CI time. The run-length
# env overrides are honoured by the sweep engine (see DESIGN.md §5/§7);
# tests that pin golden values use their own explicit run lengths and
# are unaffected.
#
# Usage: scripts/check.sh [--bench] [--tsan] [--sample]
#   --bench        simulator-speed regression gate: run `eole bench`
#                  on a reduced budget and `--compare` against the
#                  newest committed BENCH_*.json trajectory file
#                  (by commit date, so the gate tracks the latest
#                  trajectory point instead of a hardcoded name),
#                  `--fail-below 0.8` (fail on a >20% geomean
#                  regression). The committed baseline was measured
#                  on the reference CI host; on other machines, or
#                  when the build is a Debug build, the gate demotes
#                  to a warning (set EOLE_BENCH_BASELINE to a
#                  locally-recorded artifact for a hard gate
#                  anywhere).
#   --tsan         additionally build with ThreadSanitizer
#                  (-DEOLE_TSAN=ON, build-tsan/) and run the suites
#                  the `tsan` test preset selects: the sweep engine,
#                  torture and sampling suites, plus the checkpoint
#                  round-trips (the warm-once differential test)
#                  exercising snapshot/restore on the worker pool.
#   --sample       additionally run the sampling lanes:
#                  (1) the sample_validation bench at a 1M-µop
#                  measure — full vs re-warm vs warm-once-restore,
#                  requiring restore >= 2x over PR 3's B=0 re-warming
#                  with bit-equal interval IPCs (paper-grade 5M-µop
#                  runs demonstrate larger wins);
#                  (2) a warm-once v2 lane: a sampled smoke run whose
#                  artifact must carry nonzero
#                  sample_restored_intervals (proof the restore path,
#                  not silent re-warming, produced the numbers);
#                  (3) the suites the `asan` test preset of
#                  CMakePresets.json selects, under AddressSanitizer
#                  (-DEOLE_ASAN=ON, build-asan/): the checkpoint/state
#                  suites (test_sample, test_ckpt_state, test_torture
#                  incl. the checkpoint fuzzer), test_slab, the memory
#                  model (test_mem), the disk-boundary suites
#                  (test_common's SHA-256, test_trace incl. the
#                  trace-file fuzzer), the VM, workload and
#                  value-predictor suites (test_isa, test_workloads,
#                  test_vpred), the pipeline suites (test_core,
#                  test_eole and test_obs: branch, value and
#                  memory-order squashes, the LE/VT stage and the
#                  profiled tick loop), test_regression (the golden
#                  StatRecords and squash-recovery runs, whose
#                  counters every stage writes through PipelineState)
#                  and two example programs,
#                  trace_replay (maps and binds a trace file) and
#                  ckpt_sweep (round-trips checkpoint text);
#                  (4) the suites the `ubsan` test preset selects,
#                  under UndefinedBehaviorSanitizer (-DEOLE_UBSAN=ON,
#                  build-ubsan/; any finding fails): the by-value
#                  checkpoint, sampling and sweep engine suites
#                  (test_ckpt_state, test_sample, test_experiment),
#                  test_mem, test_common, test_trace, test_isa,
#                  test_workloads, test_vpred, the pipeline suites
#                  test_core, test_eole and test_obs, test_regression,
#                  trace_replay, ckpt_sweep and cli_contracts (the
#                  `eole` binary, including loads whose addresses
#                  cross 2^63).
#                  The presets are the one list of each lane's suites.
#                  The suites also run in the default ctest pass with
#                  the standard per-suite timeout.
#
# The CLI contracts run in every ctest pass (tests/cli_contracts.sh):
# store cold/warm, the shard merge, exit 2 with run_aborted telemetry,
# flag bounds, unwritable outputs, the plan-file `--set` equivalence,
# observers leaving artifacts byte-identical, trace record / info /
# `file:` replay / RV64I ingestion, one output line of every other
# command, and exit 2 on an unreadable diff, bench or telemetry input.
# So does every example program, at tiny run lengths
# (tests/run_example.sh).
#
# Every ctest invocation runs with --timeout (EOLE_TEST_TIMEOUT,
# default 600 s per suite) so a hung worker thread fails CI instead of
# wedging it, and failures are propagated explicitly — they do not rely
# on `set -e` surviving future edits.
set -euo pipefail

cd "$(dirname "$0")/.."

export EOLE_WARMUP="${EOLE_WARMUP:-50000}"
export EOLE_INSTS="${EOLE_INSTS:-100000}"

JOBS="$(nproc 2>/dev/null || echo 4)"
TEST_TIMEOUT="${EOLE_TEST_TIMEOUT:-600}"

WITH_SPEED_GATE=0
WITH_TSAN=0
WITH_SAMPLE=0
for arg in "$@"; do
    case "$arg" in
      --bench) WITH_SPEED_GATE=1 ;;
      --tsan) WITH_TSAN=1 ;;
      --sample) WITH_SAMPLE=1 ;;
      *)
        echo "check.sh: unknown option '$arg'" >&2
        exit 2
        ;;
    esac
done

run_ctest() {
    local build_dir="$1"
    shift
    # Propagate the ctest exit code under -j explicitly. The per-test
    # TIMEOUT property (set from EOLE_TEST_TIMEOUT at configure time —
    # it overrides ctest's --timeout flag) bounds each suite so one
    # hung binary cannot wedge the run.
    if ! (cd "$build_dir" && ctest --output-on-failure -j "$JOBS" "$@");
    then
        echo "check.sh: ctest FAILED in $build_dir" >&2
        exit 1
    fi
}

# sanitizer_lane PRESET: configure the preset's build directory, build
# the suites its test preset selects (ctest lists them without running
# anything) and run them.
sanitizer_lane() {
    local preset="$1"
    cmake --preset "$preset" -DEOLE_TEST_TIMEOUT="$TEST_TIMEOUT"
    local suites
    suites="$(ctest --preset "$preset" -N | sed -n 's/^ *Test *#[0-9]*: *//p')"
    if [[ -z "$suites" ]]; then
        echo "check.sh: test preset $preset selects no suite" >&2
        exit 1
    fi
    # shellcheck disable=SC2086  # one target per suite name
    cmake --build --preset "$preset" -j "$JOBS" --target $suites
    if ! ctest --preset "$preset" -j "$JOBS"; then
        echo "check.sh: ctest FAILED under preset $preset" >&2
        exit 1
    fi
}

cmake -B build -S . -DEOLE_TEST_TIMEOUT="$TEST_TIMEOUT"
cmake --build build -j "$JOBS"
run_ctest build

if [[ "$WITH_SPEED_GATE" == 1 ]]; then
    echo "check.sh: simulator-speed regression gate"
    # Baseline: EOLE_BENCH_BASELINE when set, else the newest committed
    # BENCH_*.json by commit date — the latest point of the trajectory,
    # so the gate never pins a stale (or deleted) artifact by name.
    BENCH_BASELINE="${EOLE_BENCH_BASELINE:-}"
    if [[ -n "$BENCH_BASELINE" && ! -f "$BENCH_BASELINE" ]]; then
        echo "check.sh: EOLE_BENCH_BASELINE=$BENCH_BASELINE does not" \
             "exist" >&2
        exit 2
    fi
    if [[ -z "$BENCH_BASELINE" ]]; then
        newest_ts=0
        # ls-files is sorted, so >= makes same-commit ties resolve to
        # the lexicographically last name — the newest snapshot when a
        # trajectory lands in one commit (baseline, pr6, ...).
        while IFS= read -r f; do
            ts="$(git log -1 --format=%ct -- "$f" 2>/dev/null || echo 0)"
            if [[ "${ts:-0}" -ge "$newest_ts" ]]; then
                newest_ts="$ts"
                BENCH_BASELINE="$f"
            fi
        done < <(git ls-files 'BENCH_*.json')
        if [[ -z "$BENCH_BASELINE" ]]; then
            echo "check.sh: no committed BENCH_*.json baseline found;" \
                 "record one with \`eole bench --out BENCH_<label>.json\`" \
                 "and commit it, or set EOLE_BENCH_BASELINE" >&2
            exit 2
        fi
        echo "check.sh: bench baseline $BENCH_BASELINE" \
             "(newest committed BENCH_*.json)"
    fi
    # Reduced budget: µops/sec is a rate, so a 200k-µop measurement is
    # comparable to the committed 1M-µop baseline, just noisier — which
    # is why the threshold is a full 20%.
    if ! ./build/eole bench --budget 200000 --warmup 20000 --reps 2 \
         --label ci --quiet --out build/bench_ci.json; then
        echo "check.sh: eole bench FAILED" >&2
        exit 1
    fi
    BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
                      build/CMakeCache.txt)"
    if [[ "$BUILD_TYPE" == "Debug" || -n "${EOLE_BENCH_SOFT:-}" ]]; then
        # Debug builds (or an explicitly soft run) report but never
        # fail: absolute µops/sec is meaningless without optimization.
        ./build/eole bench --compare "$BENCH_BASELINE" \
            build/bench_ci.json \
          || echo "check.sh: WARNING: bench below baseline" \
                  "(soft: build type '$BUILD_TYPE')" >&2
    elif ! ./build/eole bench --compare "$BENCH_BASELINE" \
           build/bench_ci.json --fail-below 0.8; then
        echo "check.sh: simulator speed regressed >20% vs" \
             "$BENCH_BASELINE" >&2
        exit 1
    fi
fi

if [[ "$WITH_SAMPLE" == 1 ]]; then
    echo "check.sh: sampled-vs-full validation lane"
    # 1M µ-ops, 2x target: long enough to amortize trace recording so
    # the wall-clock check means something, short enough for CI. The
    # bench requires at least one workload that is simultaneously
    # within its sampled CI, bit-equal between the restore and re-warm
    # paths, and >= 2x faster restored than re-warmed.
    if ! EOLE_WARMUP=50000 EOLE_INSTS=1000000 \
         EOLE_SAMPLE_MIN_SPEEDUP=2 ./build/sample_validation; then
        echo "check.sh: sample_validation FAILED" >&2
        exit 1
    fi

    echo "check.sh: warm-once v2 lane (restored-interval stat)"
    # The sampled artifact must prove the warm-once path ran: every
    # cell carries sample_restored_intervals, and none may be zero
    # (zero would mean the intervals silently fell back to
    # re-warming).
    if ! ./build/eole run smoke --sample 4:2000:1000 --quiet \
         --no-tables --out build/sample_v2.json; then
        echo "check.sh: sampled smoke run FAILED" >&2
        exit 1
    fi
    if ! grep -q '"sample_restored_intervals"' build/sample_v2.json \
       || grep -Eq '"sample_restored_intervals": 0(\.0+)?([,}]|$)' \
               build/sample_v2.json; then
        echo "check.sh: sampled artifact does not show the warm-once" \
             "path (sample_restored_intervals missing or zero)" >&2
        exit 1
    fi

    echo "check.sh: AddressSanitizer pass" \
         "(checkpoint/state/slab/memory-model/disk-boundary/pipeline" \
         "suites)"
    # test_slab rides in this lane on purpose: the slab poisons free
    # slots under ASan, so a use-after-release of a pooled DynInst (e.g.
    # a completion-wheel handle dropped early) faults here. test_mem
    # drives the caches' in-flight heaps far past their MSHR count.
    # test_trace reads fuzzed files through the mapped trace view whose
    # bounds the header checks set; test_common hashes split and
    # unaligned buffers. test_isa and test_workloads drive the VM's
    # bounds checks and the memSpan image writers; test_vpred (and
    # test_torture, on all four fig12 configs) the flat VpLookup.
    # test_core, test_eole and test_obs drive the stages the pipeline
    # state reaches inside its Core: every kind of squash, the LE/VT
    # stage and the profiled tick loop.
    sanitizer_lane asan

    echo "check.sh: UndefinedBehaviorSanitizer pass" \
         "(checkpoint/sampling/sweep engine/memory-model/disk-boundary" \
         "/pipeline suites)"
    # test_common runs the SHA-256 block functions (intrinsics) and the
    # partial-block logic; test_trace the trace header arithmetic;
    # test_isa the VM's wrap-free bounds check.
    sanitizer_lane ubsan
fi

if [[ "$WITH_TSAN" == 1 ]]; then
    echo "check.sh: ThreadSanitizer pass (sweep engine + torture + ckpt)"
    sanitizer_lane tsan
fi

echo "check.sh: OK (warmup=$EOLE_WARMUP, insts=$EOLE_INSTS," \
     "timeout=${TEST_TIMEOUT}s$([[ $WITH_TSAN == 1 ]] && echo ', tsan'))"

#!/usr/bin/env bash
# CLI contracts of the `eole` binary (ctest: cli_contracts):
#
#   tests/cli_contracts.sh path/to/eole
#
# Runs the smoke plan at short run lengths and checks what the library
# tests cannot see from inside one process:
#  - `ckpt save --store` cold then warm: every checkpoint computed, then
#    every one cached, with equal directories that `ckpt info` accepts;
#  - `run --store` cold then warm: equal artifacts, `store ls` counts;
#  - three `shard` slices merge to the single-host artifact, byte for
#    byte;
#  - `run`, `shard` and `ckpt save` exit 2 and end their telemetry with
#    run_aborted for an unknown plan, a bad --set and a filter that
#    matches nothing — and `ckpt save` does so for a file it cannot
#    write, also when the store serves the cell;
#  - malformed numbers (`diff --rel-tol abc`, `--abs-tol -5`, a --jobs
#    above INT_MAX) exit 2 instead of running, and so do run lengths
#    over the 2^40-µ-op bound or malformed, from a flag, the
#    environment, a plan file or a sample spec (`run` also ends its
#    telemetry with run_aborted);
#  - every command-line error of `run`, `shard` and `ckpt save` (an
#    unknown option, a missing or malformed value) ends the telemetry
#    stream with run_aborted, and a bench threshold, count or trace
#    length outside its bound exits 2;
#  - an output file that cannot be written (/dev/full) exits 2, and a
#    trace written there leaves the device node in place;
#  - a run whose artifact outgrows the file-size limit (ulimit -f)
#    exits 2 naming the file, and leaves the previous artifact at that
#    path byte for byte and no temporary file beside it;
#  - a telemetry stream that cannot be opened or written exits 2;
#  - a plan file with --set gives the compiled plan's artifact;
#  - observers do not perturb artifacts: --pipetrace (a Kanata trace
#    with a retire record) and --telemetry (ending with run_finish)
#    leave them byte-identical, and three shard streams summarize to
#    the four smoke cells;
#  - `trace record` writes a file `trace info` accepts, `file:` replay
#    equals the live generator, ingested RV64I logs sweep (one with
#    loads whose addresses cross 2^63), and a missing `file:` exits 2
#    with a suggestion, from --workloads and from a plan file alike;
#  - `list`, `describe`, `version`, `help`, `store gc`, `diff` (equal
#    and differing artifacts), `bench --compare`, `bench --profile` and
#    `run --plan examples/bank_width.plan` with its table each print
#    their line;
#  - `diff`, `bench --compare` and `telemetry summarize` exit 2 on a
#    missing or truncated input, and `diff` on an eole-sweep-v1
#    artifact.
set -uo pipefail

if [[ $# != 1 ]]; then
    echo "usage: $0 path/to/eole" >&2
    exit 2
fi
EOLE="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
DATA="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/data"
EXAMPLES="$(cd "$(dirname "${BASH_SOURCE[0]}")/../examples" && pwd)"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/eole_cli_contracts.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 2

LEN=(--warmup 20000 --insts 40000 --quiet)
SAMPLE=(--sample 2:2000:1000)
failures=0

fail() {
    echo "cli_contracts: FAIL: $*" >&2
    failures=$((failures + 1))
}

# expect_line RC PATTERN LABEL COMMAND...: the command must exit RC
# and print a line matching the extended regular expression PATTERN.
expect_line() {
    local want="$1" pattern="$2" label="$3"
    shift 3
    local out rc
    out="$("$@" 2> /dev/null)"
    rc=$?
    [[ $rc == "$want" ]] || fail "$label: exit $rc (want $want)"
    grep -Eq -- "$pattern" <<< "$out" \
        || fail "$label: no line matches '$pattern'"
}

# expect_exit2 LABEL COMMAND...: the command must exit 2.
expect_exit2() {
    local label="$1"
    shift
    "$@" > /dev/null 2>&1
    local rc=$?
    [[ $rc == 2 ]] || fail "$label: exit $rc (want 2)"
}

# ends_aborted LABEL: the stream in aborted.jsonl ends with run_aborted.
ends_aborted() {
    tail -n 1 aborted.jsonl 2> /dev/null | grep -q '"ev":"run_aborted"' \
        || fail "$1: telemetry does not end with run_aborted"
}

# expect_aborted LABEL COMMAND...: exit 2, and the --telemetry stream
# the command writes must end with run_aborted.
expect_aborted() {
    local label="$1"
    shift
    rm -f aborted.jsonl
    expect_exit2 "$label" "$@" --telemetry aborted.jsonl
    ends_aborted "$label"
}

# --- ckpt save against a store: cold, then warm
"$EOLE" ckpt save smoke "${LEN[@]}" "${SAMPLE[@]}" --store ckpt_store \
    --out ckpt_cold 2> ckpt_cold.err || fail "ckpt save (cold) exited $?"
grep -q 'store ckpt_store: 0 cached, 8 computed' ckpt_cold.err \
    || fail "ckpt save (cold): want '0 cached, 8 computed'"
"$EOLE" ckpt save smoke "${LEN[@]}" "${SAMPLE[@]}" --store ckpt_store \
    --out ckpt_warm 2> ckpt_warm.err || fail "ckpt save (warm) exited $?"
grep -q 'store ckpt_store: 8 cached, 0 computed' ckpt_warm.err \
    || fail "ckpt save (warm): want '8 cached, 0 computed'"
diff -r ckpt_cold ckpt_warm > /dev/null \
    || fail "ckpt save: warm directory differs from cold"
files=(ckpt_cold/*.ckpt)
[[ "$("$EOLE" ckpt info "${files[@]}" | grep -c 'eole-ckpt-v2.*sections')" \
   == "${#files[@]}" ]] || fail "ckpt info rejects saved checkpoints"

# --- run against a store: cold, then warm
"$EOLE" run smoke "${LEN[@]}" --no-tables --out single.json \
    || fail "run exited $?"
"$EOLE" run smoke "${LEN[@]}" --no-tables --store run_store \
    --out run_cold.json 2> run_cold.err || fail "run (cold) exited $?"
grep -q 'store run_store: 0 cached, 4 computed' run_cold.err \
    || fail "run (cold): want '0 cached, 4 computed'"
"$EOLE" run smoke "${LEN[@]}" --no-tables --store run_store \
    --out run_warm.json 2> run_warm.err || fail "run (warm) exited $?"
grep -q 'store run_store: 4 cached, 0 computed' run_warm.err \
    || fail "run (warm): want '4 cached, 0 computed'"
cmp -s run_cold.json run_warm.json || fail "run: warm artifact differs"
cmp -s single.json run_cold.json || fail "run: store changed the artifact"
"$EOLE" store ls run_store | grep -q '^4 object(s)' \
    || fail "store ls: want 4 objects"

# --- three shards merge to the single-host artifact, and their
# telemetry streams summarize to the four smoke cells
for host in 0 1 2; do
    "$EOLE" shard smoke --hosts 3 --host "$host" "${LEN[@]}" --out . \
        --telemetry "shard$host.jsonl" || fail "shard --host $host exited $?"
done
"$EOLE" merge smoke.shard*of3.eoleshard --out merged.json --quiet \
    || fail "merge exited $?"
cmp -s single.json merged.json \
    || fail "merge of 3 shards differs from the single-host artifact"
"$EOLE" telemetry summarize shard?.jsonl > summary.txt \
    || fail "telemetry summarize exited $?"
for cell in Baseline_6_64/164.gzip Baseline_6_64/186.crafty \
            EOLE_4_64/164.gzip EOLE_4_64/186.crafty; do
    grep -q "$cell" summary.txt || fail "shard telemetry lacks $cell"
done
grep -q 'cells (4)' summary.txt \
    || fail "shard telemetry does not summarize to 4 cells"

# --- a plan file with --set is the compiled plan with the same --set
printf '%s\n' 'plan = smoke' \
    'description = tiny 2x2 grid for CI, demos and determinism tests' \
    'configs = Baseline_6_64, EOLE_4_64' 'workloads = 164.gzip, 186.crafty' \
    > smoke.plan
"$EOLE" run --plan smoke.plan --set bp.rasEntries=16 "${LEN[@]}" \
    --no-tables --out planfile.json || fail "plan-file run exited $?"
"$EOLE" run smoke --set bp.rasEntries=16 "${LEN[@]}" --no-tables \
    --out compiled.json || fail "compiled --set run exited $?"
cmp -s planfile.json compiled.json \
    || fail "plan-file artifact differs from the compiled plan's"

# --- observers leave artifacts byte-identical
"$EOLE" run smoke --filter EOLE_4_64/164.gzip "${LEN[@]}" --no-tables \
    --pipetrace trace.kanata --out traced.json \
    || fail "--pipetrace run exited $?"
head -n 1 trace.kanata | grep -q $'^Kanata\t0004$' \
    || fail "pipetrace lacks the Kanata header"
grep -q $'^R\t' trace.kanata || fail "pipetrace has no retire record"
"$EOLE" run smoke --filter EOLE_4_64/164.gzip "${LEN[@]}" --no-tables \
    --out plain.json || fail "plain one-cell run exited $?"
cmp -s traced.json plain.json || fail "--pipetrace changed the artifact"
"$EOLE" run smoke "${LEN[@]}" --no-tables --telemetry run.jsonl \
    --out telem.json || fail "--telemetry run exited $?"
cmp -s telem.json single.json || fail "--telemetry changed the artifact"
tail -n 1 run.jsonl | grep -q '"ev":"run_finish"' \
    || fail "telemetry does not end with run_finish"

# --- on-disk traces: record, validate, replay, ingest
"$EOLE" trace record torture:7 --out t7.trace --quiet > /dev/null \
    || fail "trace record exited $?"
"$EOLE" trace info t7.trace | grep -Eq 'checksum +ok' \
    || fail "trace info does not validate the recording"
"$EOLE" run smoke --workloads file:t7.trace "${LEN[@]}" --no-tables \
    --out replayed.json || fail "file: run exited $?"
"$EOLE" run smoke --workloads torture:7 "${LEN[@]}" --no-tables \
    --out generated.json || fail "torture:7 run exited $?"
cmp -s replayed.json generated.json \
    || fail "file: replay differs from the live generator"
"$EOLE" trace ingest "$DATA/rv64/fib.rvlog" --out fib.trace --quiet \
    > /dev/null || fail "trace ingest exited $?"
"$EOLE" run smoke --workloads file:fib.trace "${LEN[@]}" --no-tables \
    --out fib.json || fail "sweep over the ingested trace exited $?"
grep -q '"rv64:fib"' fib.json \
    || fail "ingested-trace artifact lacks its workload name"
# Loads whose addresses cross 2^63: the stride prefetcher's arithmetic
# wraps (the ubsan preset runs this check too).
"$EOLE" trace ingest "$DATA/rv64/wrap.rvlog" --out wrap.trace --quiet \
    > /dev/null || fail "trace ingest of wrap.rvlog exited $?"
"$EOLE" run smoke --workloads file:wrap.trace "${LEN[@]}" --no-tables \
    --out wrap.json || fail "sweep over loads across 2^63 exited $?"
grep -q '"mem.prefetches_issued": [1-9]' wrap.json \
    || fail "loads across 2^63 issued no prefetch"
"$EOLE" run smoke --workloads file:t8.trace "${LEN[@]}" --no-tables \
    2> missing.err
rc=$?
[[ $rc == 2 ]] || fail "missing file: workload: exit $rc (want 2)"
grep -q 'did you mean' missing.err \
    || fail "missing file: workload: no did-you-mean suggestion"
printf 'plan = missing\nconfigs = Baseline_6_64\nworkloads = file:t8.trace\n' \
    > missing.plan
"$EOLE" run --plan missing.plan "${LEN[@]}" --no-tables 2> missing_plan.err
rc=$?
[[ $rc == 2 ]] || fail "plan-file missing file: workload: exit $rc (want 2)"
grep -q 'did you mean: t7.trace' missing_plan.err \
    || fail "plan-file missing file: workload: no did-you-mean suggestion"

# --- every exit-2 path ends the telemetry stream with run_aborted
for verb in run shard ckpt; do
    case "$verb" in
      run) cmd=(run) extra=(--no-tables) ;;
      shard) cmd=(shard) extra=(--hosts 3 --host 0 --out aborted.shard) ;;
      ckpt) cmd=(ckpt save) extra=(--out aborted_ckpt "${SAMPLE[@]}") ;;
    esac
    expect_aborted "$verb: unknown plan" \
        "$EOLE" "${cmd[@]}" no_such_plan "${extra[@]}" "${LEN[@]}"
    expect_aborted "$verb: bad --set" \
        "$EOLE" "${cmd[@]}" smoke --set no.such.key=1 "${extra[@]}" \
        "${LEN[@]}"
    expect_aborted "$verb: --filter matching nothing" \
        "$EOLE" "${cmd[@]}" smoke --filter no_such_cell "${extra[@]}" \
        "${LEN[@]}"
    expect_aborted "$verb: unknown option" \
        "$EOLE" "${cmd[@]}" smoke --no-such-flag "${extra[@]}" "${LEN[@]}"
    expect_aborted "$verb: --jobs abc" \
        "$EOLE" "${cmd[@]}" smoke --jobs abc "${extra[@]}" "${LEN[@]}"
    rm -f aborted.jsonl
    expect_exit2 "$verb: --seed without a value" \
        "$EOLE" "${cmd[@]}" smoke "${extra[@]}" "${LEN[@]}" \
        --telemetry aborted.jsonl --seed
    ends_aborted "$verb: --seed without a value"
done
expect_aborted "shard --hosts abc" \
    "$EOLE" shard smoke --hosts abc --host 0 "${LEN[@]}"

# A checkpoint that cannot be written (a directory squats its name)
# fails the save the same way when the store serves the cell.
mkdir ckpt_blocked
for f in "${files[@]}"; do
    mkdir "ckpt_blocked/$(basename "$f")"
done
expect_aborted "ckpt save (warm): unwritable checkpoint" \
    "$EOLE" ckpt save smoke "${LEN[@]}" "${SAMPLE[@]}" --store ckpt_store \
    --out ckpt_blocked

# --- malformed numbers are rejected, not reinterpreted
expect_exit2 "diff --rel-tol abc" \
    "$EOLE" diff single.json single.json --rel-tol abc
expect_exit2 "diff --abs-tol -5" \
    "$EOLE" diff single.json single.json --abs-tol -5
expect_exit2 "run --jobs 4294967297" \
    "$EOLE" run smoke --jobs 4294967297 --no-tables "${LEN[@]}"
expect_exit2 "run --jobs 2147483648" \
    "$EOLE" run smoke --jobs 2147483648 --no-tables "${LEN[@]}"
# Run lengths are bounded where they enter, so none can wrap the
# engine's sums and abort the run mid-way.
expect_aborted "run --warmup 18446744073709551000" \
    "$EOLE" run smoke --no-tables --quiet --insts 40000 \
    --warmup 18446744073709551000
expect_aborted "run EOLE_WARMUP=-1" \
    env EOLE_WARMUP=-1 "$EOLE" run smoke --no-tables --quiet --insts 40000
printf 'plan = huge\nconfigs = Baseline_6_64\nworkloads = 164.gzip\nwarmup = 18446744073709551000\n' \
    > huge.plan
expect_aborted "run plan-file warmup = 18446744073709551000" \
    "$EOLE" run --plan huge.plan --no-tables --quiet --insts 40000
expect_aborted "run --sample 1:2000:18446744073709550000" \
    "$EOLE" run smoke --no-tables "${LEN[@]}" \
    --sample 1:2000:18446744073709550000
expect_aborted "run --sample 1:307445734561825861" \
    "$EOLE" run smoke --no-tables "${LEN[@]}" --sample 1:307445734561825861
expect_aborted "run EOLE_INSTS=abc" \
    env EOLE_INSTS=abc "$EOLE" run smoke --no-tables --quiet --warmup 20000
expect_exit2 "bench --budget 18446744073709551000" \
    "$EOLE" bench --workloads 164.gzip --configs Baseline_6_64 --reps 1 \
    --quiet --budget 18446744073709551000
BENCH=(bench --workloads 164.gzip --configs Baseline_6_64 --quiet)
"$EOLE" "${BENCH[@]}" --budget 2000 --warmup 1000 --reps 1 \
    --out bench.json > /dev/null || fail "bench --out exited $?"
for x in nan inf 0; do
    expect_exit2 "bench --fail-below $x" \
        "$EOLE" bench --compare bench.json bench.json --fail-below "$x"
done
expect_exit2 "bench --reps 0" "$EOLE" "${BENCH[@]}" --budget 2000 --reps 0
expect_exit2 "bench --budget 0" "$EOLE" "${BENCH[@]}" --budget 0 --reps 1
# torture:7 halts after 674 µ-ops, so the check cannot record for long
# even where the bound is missing.
expect_exit2 "trace record --uops 2^40+1" \
    "$EOLE" trace record torture:7 --uops 1099511627777 --out over.trace

# --- an output file that cannot be written fails the command
if [[ -w /dev/full ]]; then
    expect_aborted "run --out /dev/full" \
        "$EOLE" run smoke "${LEN[@]}" --no-tables --out /dev/full
    expect_aborted "run --csv /dev/full" \
        "$EOLE" run smoke "${LEN[@]}" --no-tables --csv /dev/full
    expect_aborted "run --pipetrace /dev/full" \
        "$EOLE" run smoke --filter EOLE_4_64/164.gzip "${LEN[@]}" \
        --no-tables --pipetrace /dev/full
    expect_aborted "shard --out /dev/full" \
        "$EOLE" shard smoke --hosts 3 --host 0 "${LEN[@]}" --out /dev/full
    expect_exit2 "merge --out /dev/full" \
        "$EOLE" merge smoke.shard*of3.eoleshard --out /dev/full --quiet
    expect_exit2 "bench --out /dev/full" \
        "$EOLE" "${BENCH[@]}" --budget 2000 --warmup 1000 --reps 1 \
        --out /dev/full
    expect_exit2 "trace record --out /dev/full" \
        "$EOLE" trace record torture:7 --out /dev/full --quiet
    [[ -c /dev/full ]] || fail "trace record --out /dev/full removed it"
    expect_exit2 "run --telemetry /dev/full" \
        "$EOLE" run smoke "${LEN[@]}" --no-tables --telemetry /dev/full
fi
# --- a run that hits the file-size limit leaves the previous artifact
# whole and cleans up after itself
"$EOLE" run smoke "${LEN[@]}" --no-tables --out kept.json \
    || fail "run --out kept.json exited $?"
cp kept.json kept_first.json
err="$( (ulimit -f 8; exec "$EOLE" run smoke "${LEN[@]}" --no-tables \
      --out kept.json) 2>&1 > /dev/null)"
rc=$?
[[ $rc == 2 ]] || fail "run under ulimit -f 8: exit $rc (want 2)"
grep -q '^eole: write failure on kept\.json$' <<< "$err" \
    || fail "run under ulimit -f 8: no 'write failure on kept.json'"
cmp -s kept.json kept_first.json \
    || fail "a run stopped while writing cut the previous artifact"
compgen -G '.kept.json.tmp*' > /dev/null \
    && fail "a run stopped while writing left its temporary file"

expect_exit2 "run --telemetry in a missing directory" \
    "$EOLE" run smoke "${LEN[@]}" --no-tables \
    --telemetry "$WORK/no/such/dir/t.jsonl"

# --- the commands no other check runs print their line
expect_line 0 '^fig13 +4x19=76 ' "list" "$EOLE" list
expect_line 0 '^164\.gzip +INT +23024\+$' "list --workloads" \
    env EOLE_WARMUP=2000 EOLE_INSTS=20000 "$EOLE" list --workloads
expect_line 0 '^issueWidth +int +6 ' "describe --params" \
    "$EOLE" describe --params
expect_line 0 '^issueWidth += 4 +# default: 6$' "describe EOLE_4_64" \
    "$EOLE" describe EOLE_4_64
expect_line 0 '^eole [^ ]+ ' "version" "$EOLE" version
expect_line 0 '^eole [^ ]+ ' "--version" "$EOLE" --version
expect_line 0 '^usage:$' "help" "$EOLE" help
cp -r run_store gc_store
expect_line 0 '^evicted 3 object\(s\); 1 object\(s\)' \
    "store gc --max-objects 1" "$EOLE" store gc gc_store --max-objects 1
expect_line 0 '^1 object\(s\)' "store ls after gc" "$EOLE" store ls gc_store
expect_line 0 '^artifacts agree: 4 cells' "diff of equal artifacts" \
    "$EOLE" diff single.json merged.json
expect_line 1 '^[0-9]+ difference\(s\) between single\.json and compiled\.json$' \
    "diff of differing artifacts" "$EOLE" diff single.json compiled.json
expect_line 0 '^geomean speedup \(1 common cell\(s\)\): 1\.00x$' \
    "bench --compare of a file with itself" \
    "$EOLE" bench --compare bench.json bench.json
expect_line 0 '^  stage\.issue +[0-9.]+ s' "bench --profile" \
    "$EOLE" "${BENCH[@]}" --budget 2000 --reps 1 --profile
expect_line 0 '^mean( +[0-9]+\.[0-9]+){4}$' "run --plan bank_width.plan" \
    "$EOLE" run --plan "$EXAMPLES/bank_width.plan" "${LEN[@]}"

# --- a JSON input that cannot be read is exit 2, never the exit 1 of
# "artifacts differ" or "below threshold"
head -c 100 single.json > truncated.json
head -c 50 bench.json > truncated_bench.json
head -c 40 run.jsonl > truncated.jsonl
sed 's/"eole-sweep-v2"/"eole-sweep-v1"/' single.json > v1.json
expect_exit2 "diff of a missing artifact" \
    "$EOLE" diff missing.json single.json
expect_exit2 "diff of a truncated artifact" \
    "$EOLE" diff single.json truncated.json
expect_exit2 "diff of an eole-sweep-v1 artifact" "$EOLE" diff v1.json v1.json
expect_exit2 "bench --compare of a missing file" \
    "$EOLE" bench --compare missing.json bench.json
expect_exit2 "bench --compare of a truncated file" \
    "$EOLE" bench --compare bench.json truncated_bench.json
expect_exit2 "telemetry summarize of a missing stream" \
    "$EOLE" telemetry summarize missing.jsonl
expect_exit2 "telemetry summarize of a truncated line" \
    "$EOLE" telemetry summarize run.jsonl truncated.jsonl

if ((failures)); then
    echo "cli_contracts: $failures check(s) failed" >&2
    exit 1
fi
echo "cli_contracts: all checks passed"

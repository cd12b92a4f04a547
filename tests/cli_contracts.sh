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
#    above INT_MAX) exit 2 instead of running.
set -uo pipefail

if [[ $# != 1 ]]; then
    echo "usage: $0 path/to/eole" >&2
    exit 2
fi
EOLE="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
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

# expect_exit2 LABEL COMMAND...: the command must exit 2.
expect_exit2() {
    local label="$1"
    shift
    "$@" > /dev/null 2>&1
    local rc=$?
    [[ $rc == 2 ]] || fail "$label: exit $rc (want 2)"
}

# expect_aborted LABEL COMMAND...: exit 2, and the --telemetry stream
# the command writes must end with run_aborted.
expect_aborted() {
    local label="$1"
    shift
    rm -f aborted.jsonl
    expect_exit2 "$label" "$@" --telemetry aborted.jsonl
    tail -n 1 aborted.jsonl 2> /dev/null | grep -q '"ev":"run_aborted"' \
        || fail "$label: telemetry does not end with run_aborted"
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

# --- three shards merge to the single-host artifact
for host in 0 1 2; do
    "$EOLE" shard smoke --hosts 3 --host "$host" "${LEN[@]}" --out . \
        || fail "shard --host $host exited $?"
done
"$EOLE" merge smoke.shard*of3.eoleshard --out merged.json --quiet \
    || fail "merge exited $?"
cmp -s single.json merged.json \
    || fail "merge of 3 shards differs from the single-host artifact"

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
done

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

if ((failures)); then
    echo "cli_contracts: $failures check(s) failed" >&2
    exit 1
fi
echo "cli_contracts: all checks passed"

#!/usr/bin/env bash
# Run one example program as a ctest test (see eole_example in
# CMakeLists.txt):
#
#   tests/run_example.sh PATTERN path/to/example [ARGS...]
#
# The test passes when the program exits 0 and a line of its standard
# output matches PATTERN, an extended regular expression (grep -E).
# CTest's PASS_REGULAR_EXPRESSION alone would ignore the exit code.
set -uo pipefail

if [[ $# -lt 2 ]]; then
    echo "usage: $0 PATTERN path/to/example [ARGS...]" >&2
    exit 2
fi
pattern="$1"
shift
out="$("$@")"
rc=$?
printf '%s\n' "$out"
if [[ $rc != 0 ]]; then
    echo "run_example: $1 exited $rc" >&2
    exit 1
fi
if ! grep -Eq -- "$pattern" <<< "$out"; then
    echo "run_example: no line of $1's output matches '$pattern'" >&2
    exit 1
fi

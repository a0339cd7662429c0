#!/bin/sh
# check.sh — the full pre-merge gate: gofmt, go mod tidy, build, vet,
# lint, then the test suite under the race detector. The telemetry
# subsystem serves debug HTTP endpoints concurrently with kernel runs,
# so -race is part of the bar.
#
# Knobs (all off by default):
#   CI_QUIET=1        suppress command echoing (CI logs stay readable)
#   CHECK_SHORT=1     skip the fuzz targets and the experiment smokes;
#                     tests-only gate
#   CHECK_EXP=<name>  build, then run only that one scenario smoke —
#                     the CI matrix fans out one job per scenario this
#                     way, while this script stays the single local
#                     entry point
#   CHECK_ARTIFACTS=<dir>  have the smokes dump their run evidence —
#                     journals, Chrome traces, metrics — there (CI
#                     uploads the directory when a matrix job fails)
set -eu
[ "${CI_QUIET:-0}" = "1" ] || set -x

cd "$(dirname "$0")/.."

# smoke runs one scenario gate — the paper's figures and tables first,
# then the gates this repository adds (what each one holds the system
# to is its result's Violations in internal/workload); every scenario
# takes -artifacts.
smoke() {
    set -- -exp "$1" -series smoke
    if [ -n "${CHECK_ARTIFACTS:-}" ]; then
        set -- "$@" -artifacts "$CHECK_ARTIFACTS"
    fi
    go run ./cmd/vmbench "$@" >/dev/null
}

if [ -n "${CHECK_EXP:-}" ]; then
    # Matrix mode: one scenario smoke per invocation. The toolchain
    # gate (vet, lint, race tests) runs once in its own job, not once
    # per scenario.
    go build ./...
    smoke "$CHECK_EXP"
    exit 0
fi

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "check.sh: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go mod tidy -diff
go build ./...
go vet ./...
# "Small" is gated too: the non-test line count may not pass the ceiling
# committed beside the script (a change that grows the tree moves it).
./scripts/loc.sh --check
# So is "a feature only its own test runs": every function no binary
# links must be allowlisted with the test that needs it.
./scripts/reach.sh --check
# The benchmark is its own module, invisible to ./...: vet and test it
# here so a change to the proto/service surface it compiles against
# cannot break it unseen.
go vet -C bench .
go test -C bench .

# staticcheck is part of the gate when available (CI installs the
# pinned version; see `make lint`). Local runs without it still pass,
# loudly, so offline development keeps working.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "check.sh: staticcheck not installed, skipping lint (see 'make lint')" >&2
fi

go test -race ./...

if [ "${CHECK_SHORT:-0}" != "1" ]; then
    # Each of the ten native fuzz targets, 30 s apiece.
    ./scripts/fuzz.sh

    # Every registered scenario, in registry order.
    for exp in $(go run ./cmd/vmbench -list); do
        smoke "$exp"
    done
fi

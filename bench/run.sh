#!/usr/bin/env bash
# The benchmark driver's entry point: build bench/ from source into
# .bench_build/ at the root of the checkout, then run it with the
# driver's arguments. Everything the Go tool writes — build cache, work
# directories, its own configuration and counters — is pointed inside
# .bench_build/, so nothing is written outside the checkout. Fails
# without printing a result when the rest of the repository is not there
# to build against.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" --trace-dir "$build" "$@"

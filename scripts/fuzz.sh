#!/bin/sh
# fuzz.sh — run every native fuzz target for a fixed time each (default
# 30s; pass another `go test -fuzztime` value as $1). check.sh calls it
# in the full gate and CI calls it as its own step. The targets are the
# tree's `func Fuzz*` declarations, so a deleted target cannot linger as
# a line that fuzzes nothing and exits 0. A failing input is written to
# the package's testdata/fuzz/<Target>/ — commit it with the fix as a
# regression seed.
set -eu
cd "$(dirname "$0")/.."
fuzztime="${1:-30s}"

# The module's test files: the go tool skips directories named testdata
# or starting with . or _, and bench/ is a module of its own. Each line
# is "<package dir> <target>".
targets=$(find . \( -name testdata -o -name '[._]?*' -o -path ./bench \) -prune \
        -o -name '*_test.go' -print |
    xargs grep -Ho '^func Fuzz[A-Za-z0-9_]*' |
    sed 's|^\(.*\)/[^/]*:func \(.*\)$|\1 \2|' | sort)
if [ -z "$targets" ]; then
    echo "fuzz.sh: no fuzz targets found" >&2
    exit 1
fi

while read -r pkg target; do
    go test -run='^$' -fuzz="^${target}\$" -fuzztime="$fuzztime" "$pkg"
done <<TARGETS
$targets
TARGETS

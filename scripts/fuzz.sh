#!/bin/sh
# fuzz.sh — run every native fuzz target for a fixed time each (default
# 30s; pass another `go test -fuzztime` value as $1). check.sh calls it
# in the full gate and CI calls it as its own step, so the target list
# lives here only. A failing input is written to the package's
# testdata/fuzz/<Target>/ — commit it with the fix as a regression seed.
set -eu
cd "$(dirname "$0")/.."
fuzztime="${1:-30s}"

while read -r pkg target; do
    go test -run='^$' -fuzz="^${target}\$" -fuzztime="$fuzztime" "$pkg"
done <<TARGETS
./internal/journal FuzzDecode
./internal/shop/ledger FuzzApply
./internal/warehouse/ledger FuzzApply
./internal/proto FuzzEnvelope
./internal/classad FuzzAdXML
./internal/classad FuzzParse
./internal/classad FuzzAdOps
./internal/dag FuzzGraphXML
./internal/match FuzzEvaluate
./internal/isofs FuzzRead
TARGETS

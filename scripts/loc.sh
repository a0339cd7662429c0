#!/bin/sh
# loc.sh — "small" as a measured column: non-test Go lines per top-level
# package and in total, bench/ (its own, frozen module) left out. Plain
# `wc -l` over the files, comments and blank lines included, so the
# number cannot be moved by reformatting one into the other.
#
#   scripts/loc.sh           print the table
#   scripts/loc.sh --check   also fail when the total exceeds the number
#                            committed in scripts/loc.ceiling — a change
#                            that grows the tree edits the ceiling in
#                            the same diff and says why
set -eu
cd "$(dirname "$0")/.."

# lines DIR... — non-test Go lines under the directories (0 when none).
lines() {
    find "$@" -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 |
        xargs -0 cat | wc -l | tr -d ' '
}

for dir in cmd/* examples internal/*; do
    printf '%7d  %s\n' "$(lines "$dir")" "$dir"
done
printf '%7d  %s\n' "$(lines . -maxdepth 1)" '(root package)'
total=$(lines .)
printf '%7d  total\n' "$total"

if [ "${1:-}" = "--check" ]; then
    ceiling=$(cat scripts/loc.ceiling)
    if [ "$total" -gt "$ceiling" ]; then
        echo "loc.sh: $total non-test Go lines, over the ceiling of $ceiling in scripts/loc.ceiling" >&2
        exit 1
    fi
fi

#!/bin/sh
# reach.sh — "a feature only its own test runs" as a measured list: the
# non-test functions of non-main packages that no binary links. It
# builds every main package of the module plus the bench module with
# inlining off (so a call is a symbol), reads their symbols with
# `go tool nm`, and prints each declared function found in none of them
# with its file, line and length (doc comment included). Generic shapes
# (`F[go.shape.int]`) and closures (`F.func1`, `F-range1`, `F.gowrap1`,
# `F-fm`) count as their enclosing function.
#
#   scripts/reach.sh           print the unreached functions
#   scripts/reach.sh --check   also fail on an unreached function missing
#                              from scripts/reach.allow, and on an
#                              allowlist entry that is reached or gone
#
# scripts/reach.allow holds one line per function a test needs but no
# binary calls: `symbol class reason…`. The classes: oracle (a test's
# reference or probe of internal state), seam (a test's way in or out:
# a constructor, setter or clock the binaries wire differently), api
# (the root package's exported surface; an internal/ function has no
# caller outside this module), platform (the Go toolchain or runtime
# calls it), paper (an operation the paper describes), pinned (a frozen
# artifact needs it: a test program behind a golden that is never
# regenerated, such as sim/testdata/order.golden).
set -eu
cd "$(dirname "$0")/.."
module=$(go list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Every binary, inlining off.
i=0
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
    i=$((i + 1))
    go build -gcflags=all=-l -o "$tmp/bin$i" "$pkg"
done
go build -C bench -gcflags=all=-l -o "$tmp/bench" .

# Reached: the module's text symbols in any binary, shapes and closures
# folded into the function that declares them.
for bin in "$tmp"/bin* "$tmp/bench"; do
    go tool nm "$bin"
done | sed -nE 's/^ *[0-9a-f]+ [Tt] //p' | grep "^$module[./]" |
    sed -E ':a
s/\[[^][]*\]//g
ta
s/(-range[0-9]+|\.func[0-9]+|\.gowrap[0-9]+|\.deferwrap[0-9]+|\.[0-9]+|-fm)+$//' |
    sort -u >"$tmp/reached"

# Declared: every top-level func of a non-test file outside a main
# package, as `symbol<TAB>file:line<TAB>lines`.
go list -f '{{if ne .Name "main"}}{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}
{{end}}{{end}}' ./... | while read -r pkg file; do
    awk -v pkg="$pkg" -v file="${file#"$PWD"/}" '
        /^\/\// { if (doc == 0) doc = FNR; next }
        /^func / {
            start = doc ? doc : FNR
            line = substr($0, 6)
            sym = ""
            if (line ~ /^\(/) {
                match(line, /^\([^)]*\)/)
                n = split(substr(line, 2, RLENGTH - 2), recv, " ")
                typ = recv[n]
                sub(/\[.*/, "", typ)
                line = substr(line, RLENGTH + 2)
                sym = (typ ~ /^\*/) ? "(" typ ")." : typ "."
            }
            match(line, /^[A-Za-z0-9_]+/)
            name = substr(line, 1, RLENGTH)
            if (name != "init") {
                pending = pkg "." sym name
                pstart = start
                pline = FNR
            }
            if ($0 ~ /}$/) flush(FNR)
            doc = 0
            next
        }
        /^}/ { if (pending != "") flush(FNR); doc = 0; next }
        { doc = 0 }
        function flush(end) {
            printf "%s\t%s:%d\t%d\n", pending, file, pline, end - pstart + 1
            pending = ""
        }
    ' "$file"
done | sort >"$tmp/declared"

awk -F '\t' 'NR == FNR { reached[$1] = 1; next } !($1 in reached)' \
    "$tmp/reached" "$tmp/declared" >"$tmp/unreached"

if [ "${1:-}" != "--check" ]; then
    cat "$tmp/unreached"
    awk -F '\t' '{ n++; l += $3 } END { printf "%d functions, %d lines unreached\n", n, l }' "$tmp/unreached"
    exit 0
fi

# The allowlist: `symbol class reason…`, blank lines and # comments
# skipped.
status=0
grep -vE '^[[:space:]]*(#|$)' scripts/reach.allow >"$tmp/allow" || true
awk -v module="$module" '
    $2 !~ /^(oracle|seam|api|platform|paper|pinned)$/ || NF < 3 {
        printf "reach.allow: want `symbol class reason`, class one of oracle seam api platform paper pinned: %s\n", $0
        bad = 1
    }
    $2 == "api" && index($1, module ".") != 1 {
        printf "reach.allow: api is for the root package only: %s\n", $1
        bad = 1
    }
    END { exit bad }
' "$tmp/allow" >&2 || status=1
cut -f1 "$tmp/unreached" | sort >"$tmp/u"
awk '{ print $1 }' "$tmp/allow" | sort >"$tmp/a"
cut -f1 "$tmp/declared" | sort -u >"$tmp/d"
comm -23 "$tmp/u" "$tmp/a" >"$tmp/new"
comm -13 "$tmp/u" "$tmp/a" >"$tmp/stale"
while read -r sym; do
    where=$(awk -F '\t' -v s="$sym" '$1 == s { print $2; exit }' "$tmp/unreached")
    echo "reach.sh: $sym ($where) is linked into no binary: delete it, or allowlist it in scripts/reach.allow with the test that needs it" >&2
    status=1
done <"$tmp/new"
while read -r sym; do
    if grep -qxF "$sym" "$tmp/d"; then
        echo "reach.sh: $sym is allowlisted but a binary now reaches it: drop its scripts/reach.allow line" >&2
    else
        echo "reach.sh: $sym is allowlisted but no longer declared: drop its scripts/reach.allow line" >&2
    fi
    status=1
done <"$tmp/stale"
exit $status

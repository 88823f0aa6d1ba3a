#!/bin/sh
# Prints the non-test lines of every crate under crates/, then their
# total: the lines of each crates/*/src file above its first
# `#[cfg(test)]` (the whole file if it has none). Unit tests sit at the
# end of their file, so this counts the program and not its tests.
#
#     sh scripts/loc.sh          # the working tree
#     sh scripts/loc.sh <rev>    # <rev> (via `git archive`), the working
#                                # tree, and the change between them
set -eu
cd "$(dirname "$0")/.."

# counts DIR: "crate lines" per crate of the checkout at DIR, then "total".
counts() {
    total=0
    for crate in "$1"/crates/*/; do
        lines=$(find "$crate/src" -name '*.rs' -exec awk '
            /^[[:space:]]*#\[cfg\(test\)\]/ { nextfile }
            { n++ }
            END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
        echo "$(basename "$crate") $lines"
        total=$((total + lines))
    done
    echo "total $total"
}

if [ $# -eq 0 ]; then
    counts . | awk '{ printf "%-10s %6d\n", $1, $2 }'
    exit 0
fi

base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git archive "$1" crates | tar -x -C "$base"
counts "$base" >"$base/parent"
counts . >"$base/change"
printf '%-10s %6s %6s %6s\n' crate parent change delta
# A crate only one side has counts 0 on the other.
awk 'NR == FNR { parent[$1] = $2; order[++n] = $1; next }
     !($1 in parent) { order[++n] = $1 }
     { change[$1] = $2 }
     END {
         for (i = 1; i <= n; i++) {
             c = order[i]
             printf "%-10s %6d %6d %+6d\n", c, parent[c], change[c], change[c] - parent[c]
         }
     }' "$base/parent" "$base/change"

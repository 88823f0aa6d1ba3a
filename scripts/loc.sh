#!/bin/sh
# Prints the non-test lines of every crate under crates/, then their
# total: the lines of each crates/*/src file above its first
# `#[cfg(test)]` (the whole file if it has none). Unit tests sit at the
# end of their file, so this counts the program and not its tests.
#
#     sh scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
total=0
for crate in crates/*/; do
    lines=$(find "$crate/src" -name '*.rs' -exec awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { nextfile }
        { n++ }
        END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
    printf '%-10s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"

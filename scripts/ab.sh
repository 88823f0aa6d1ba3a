#!/bin/sh
# Alternating-pairs comparison of two checkouts on the whole-stack
# benchmark: the protocol a perf change is measured with.
#
#     sh scripts/ab.sh BASE CHANGE WORKLOADS PAIRS SECONDS SEED
#
# BASE and CHANGE are two checkouts of this repository (the parent and
# the change); WORKLOADS is a space-separated list such as
# "blocks-cold rpq-cold"; each workload runs PAIRS pairs of SECONDS-
# second runs, pair p at seed SEED + p on both sides. Each side's
# benchmark is built once, `--offline`, into `target/ab-bench` of its
# own checkout, and runs from its checkout root untraced, so nothing is
# written under `benchmark/`. Even pairs run BASE first and odd pairs
# CHANGE first, so drift in the machine's load lands on both sides.
#
# Every run's ops_per_s, setup_s, peak_rss_mb and failed count is
# printed, then per workload each side's failed ops and, per metric,
# each side's median with its q1–q3, in how many pairs the change was
# better (higher ops_per_s, lower setup_s and peak_rss_mb), and the
# verdict of the acceptance gate, with the metric's `bound` read from
# BASE's BENCHMARK.json:
#
#   unresolved    BASE's q1–q3 is wider than the bound (relative to its
#                 median): the runs spread too widely to tell;
#   gain          the change is better in at least 9 of every 10 pairs
#                 and its median beats BASE's by more than BASE's q1–q3;
#   worse         the change's median is worse than BASE's by more than
#                 the bound;
#   within bound  anything else.
set -eu
if [ $# -ne 6 ]; then
    echo "usage: sh scripts/ab.sh BASE CHANGE WORKLOADS PAIRS SECONDS SEED" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workloads=$3
pairs=$4
seconds=$5
seed=$6

bin() {
    echo "$1/target/ab-bench/release/cfpq-benchmark"
}

for side in "$base" "$change"; do
    echo "building $side" >&2
    CARGO_TARGET_DIR="$side/target/ab-bench" cargo build --release --offline --quiet \
        --manifest-path "$side/benchmark/Cargo.toml"
done

# One run: prints "workload pair seed side ops setup rss failed". A run
# whose benchmark exits non-zero, or prints no result line, stops the
# comparison with a message that names it: a pair with one side missing
# would otherwise drop out of the medians unseen.
run() {
    dir=$1 name=$2 workload=$3 pair=$4 s=$5
    fail() {
        echo "ab.sh: $workload, $name side ($dir), pair $pair, seed $s: $1" >&2
        exit 1
    }
    out=$(cd "$dir" && "$(bin "$dir")" --workload "$workload" --seed "$s" \
        --seconds "$seconds" --trace 0) || fail "the benchmark exited with status $?"
    echo "$out" | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
m = r["metrics"]
print(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4],
      m["ops_per_s"]["value"], m["setup_s"]["value"], m["peak_rss_mb"]["value"],
      r["failed"])
' "$workload" "$pair" "$s" "$name" 2>/dev/null || fail "no result line"
}

# Runs one side, stopping the script if the run failed, and records it.
record() {
    row=$(run "$@")
    echo "$row"
    echo "$row" >>"$runs"
}

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
echo "workload pair seed side ops_per_s setup_s peak_rss_mb failed"
for workload in $workloads; do
    p=0
    while [ "$p" -lt "$pairs" ]; do
        s=$((seed + p))
        if [ $((p % 2)) -eq 0 ]; then
            record "$base" base "$workload" "$p" "$s"
            record "$change" change "$workload" "$p" "$s"
        else
            record "$change" change "$workload" "$p" "$s"
            record "$base" base "$workload" "$p" "$s"
        fi
        p=$((p + 1))
    done
done

python3 - "$runs" "$base/BENCHMARK.json" <<'EOF'
import json, sys

def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)

runs = {}
for line in open(sys.argv[1]):
    workload, pair, _seed, side, ops, setup, rss, failed = line.split()
    runs.setdefault(workload, {}).setdefault(int(pair), {})[side] = (
        float(ops), float(setup), float(rss), int(failed))

bounds = {m["name"]: m["bound"] for m in json.load(open(sys.argv[2]))["end_to_end"]}

def verdict(base, change, better, higher, bound):
    (b1, bm, b3), (_, cm, _) = quartiles(base), quartiles(change)
    if b3 - b1 > bound * bm:
        return "unresolved"
    gained = cm - bm if higher else bm - cm
    if 10 * better >= 9 * len(base) and gained > b3 - b1:
        return "gain"
    return "worse" if -gained > bound * bm else "within bound"

print()
print("workload metric: base median [q1-q3] -> change median [q1-q3], change better in k/n: verdict")
for workload, by_pair in runs.items():
    both = [p for p in by_pair.values() if "base" in p and "change" in p]
    failed = [sum(p[side][3] for p in both) for side in ("base", "change")]
    print(f"{workload} failed ops: base {failed[0]}, change {failed[1]}")
    for at, metric, higher in [(0, "ops_per_s", True), (1, "setup_s", False),
                               (2, "peak_rss_mb", False)]:
        base = [p["base"][at] for p in both]
        change = [p["change"][at] for p in both]
        better = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        judged = verdict(base, change, better, higher, bounds[metric])
        print(f"{workload} {metric}: {bq[1]:.4g} [{bq[0]:.4g}-{bq[2]:.4g}] -> "
              f"{cq[1]:.4g} [{cq[0]:.4g}-{cq[2]:.4g}], change better in {better}/{len(both)}: "
              f"{judged}")
EOF

#!/usr/bin/env bash
# Alternating timed pairs of a base revision against the working tree.
#
#   scripts/pairs.sh <base-rev> <workload> [pairs] [seconds]
#
# Builds perfbench at <base-rev> and again from the working tree, as
# scripts/identity.sh does, then runs <pairs> (default 10) pairs of one
# perfbench <workload> run per side, <seconds> (default 30, the
# benchmark's run length) per run, at the held-out seed 90017. Odd pairs
# run the base first, even pairs the change. Every run starts from one
# temporary directory, so its counts are also checked against the
# previous run's. For each end-to-end metric it
# prints the median and quartiles of both sides and how many pairs the
# change won, and whether a gain would pass the claim rule: the change
# wins at least 9 of every 10 pairs, and the gap between the medians is
# wider than the base's interquartile range. Exits nonzero if any run
# failed or its counts differed.
#
# Needs python3 for the statistics. The base tree is unpacked with `git
# archive` into the temporary directory, which is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/pairs.sh <base-rev> <workload> [pairs] [seconds]" >&2
    exit 2
fi
base=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "pairs.sh: not a commit: $1" >&2
    exit 2
}
workload=$2
pairs=${3:-10}
seconds=${4:-30}
seed=90017
repo=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== build perfbench at ${base:0:12} and from the working tree =="
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
cargo build --release --quiet --manifest-path "$tmp/base/perfbench/Cargo.toml"
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
base_bin="$tmp/base/perfbench/target/release/perfbench"
change_bin="$repo/perfbench/target/release/perfbench"

mkdir "$tmp/runs"
failed=0
for pair in $(seq 1 "$pairs"); do
    # Alternate which side runs first, so neither always follows the other.
    order="base change"
    if [ $((pair % 2)) -eq 0 ]; then
        order="change base"
    fi
    for side in $order; do
        bin="${side}_bin"
        log="$tmp/$side-$pair.log"
        if (cd "$tmp/runs" && "${!bin}" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 >"$log" 2>&1); then
            tail -n 1 "$log" >>"$tmp/$side.jsonl"
            echo "ok      pair $pair $side"
        else
            echo "FAILED  pair $pair $side:"
            grep -v -e '^{' -e '^  ' "$log" | tail -n 10
            failed=1
        fi
    done
done
if [ "$failed" -ne 0 ]; then
    echo "pairs.sh: a run failed or its counts differed" >&2
    exit 1
fi

python3 - "$tmp/base.jsonl" "$tmp/change.jsonl" "$repo/BENCHMARK.json" \
    "$workload" "${base:0:12}" "$seconds" "$seed" <<'EOF'
import json
import statistics
import sys

base_path, change_path, bench_path, workload, rev, seconds, seed = sys.argv[1:]
base = [json.loads(line)["metrics"] for line in open(base_path)]
change = [json.loads(line)["metrics"] for line in open(change_path)]
metrics = json.load(open(bench_path))["end_to_end"]


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"{workload}: base {rev} vs working tree, {len(base)} alternating pairs "
      f"of {seconds} s at seed {seed}")
print(f"{'metric':<18} {'base median [Q1, Q3]':<30} {'change median [Q1, Q3]':<30} "
      f"{'wins':>6}  claim rule")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    b = [r[name]["value"] for r in base]
    c = [r[name]["value"] for r in change]
    better = lambda new, old: new < old if lower else new > old
    wins = sum(better(x, y) for x, y in zip(c, b))
    (b1, bm, b3), (c1, cm, c3) = quartiles(b), quartiles(c)
    gap = bm - cm if lower else cm - bm
    holds = wins * 10 >= 9 * len(b) and gap > b3 - b1
    verdict = "holds" if holds else "does not hold"
    print(f"{name:<18} {f'{bm:.4g} [{b1:.4g}, {b3:.4g}]':<30} "
          f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':<30} {f'{wins}/{len(b)}':>6}  "
          f"{verdict} (median gap {gap:+.4g}, base IQR {b3 - b1:.4g})")
EOF

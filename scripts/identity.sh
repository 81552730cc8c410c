#!/usr/bin/env bash
# Identity check of the working tree against a base revision.
#
#   scripts/identity.sh <base-rev>
#
# Builds perfbench at <base-rev> and again from the working tree, then runs
# every workload (tmu-grid, sve-grid, serve-chaos) for 1 s at seeds 1, 2
# and 90017, the base first and then the change, from one temporary
# directory. perfbench compares each run's simulated counts with the
# previous run's counts file for the same workload and seed, so every
# change run is checked against the base's. Exits nonzero on any counts
# mismatch or failed operation.
#
# The base tree is unpacked with `git archive` into the temporary
# directory, which is removed on exit: `git status` and `git worktree
# list` stay as they were, even if the script is interrupted.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/identity.sh <base-rev>" >&2
    exit 2
fi
base=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "identity.sh: not a commit: $1" >&2
    exit 2
}
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
for workload in tmu-grid sve-grid serve-chaos; do
    for seed in 1 2 90017; do
        for side in base change; do
            bin="${side}_bin"
            log="$tmp/$side-$workload-$seed.log"
            if (cd "$tmp/runs" && "${!bin}" --workload "$workload" --seed "$seed" \
                --seconds 1 --trace 0 >"$log" 2>&1); then
                echo "ok      $side $workload seed $seed"
            else
                echo "FAILED  $side $workload seed $seed:"
                # The run's own summary and error lines, not its tables.
                grep -v -e '^{' -e '^  ' "$log" | tail -n 10
                failed=1
            fi
        done
    done
done

if [ "$failed" -ne 0 ]; then
    echo "identity.sh: counts differ from ${base:0:12} or an operation failed" >&2
    exit 1
fi
echo "identity.sh: every count matches ${base:0:12}"

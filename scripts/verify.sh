#!/usr/bin/env bash
# Repo verification gate: formatting, lints, and the tier-1 suite.
# Run from the repo root. Mirrors .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== every quoted TMU_* knob under crates/ is documented in README.md =="
undocumented=$(
    { grep -rhoE '"TMU_[A-Z0-9_]+"' crates/ || true; } | tr -d '"' | sort -u |
        while read -r name; do
            grep -qwF -- "$name" README.md || echo "$name"
        done
)
if [ -n "$undocumented" ]; then
    echo "verify.sh: these TMU_* variables are read under crates/ but missing from README.md:" >&2
    echo "$undocumented" >&2
    exit 1
fi

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: build + test (every crate in the workspace) =="
cargo build --release
cargo test -q

# The smokes below run the release binaries tier-1 just built from one
# temporary directory, so the rows they write never touch the repo's own
# results/.
repo=$(pwd)
bin="$repo/target/release"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT

echo "== trace bin: one traced SpMV run, self-validated Chrome export =="
# The rmat input is fixed-size (scale 12, 32 768 edges): TMU_SCALE does
# not apply to it.
(cd "$smoke_dir" && "$bin/trace" spmv rmat tmu)

echo "== figure harness: every table and figure at reduced scale =="
# The figure bins are the only callers in this gate of the single-lane
# and IMP runs (Fig. 15), the A64FX- and Graviton-like machines (Fig. 3),
# the fixed-row inputs (Fig. 12c) and the SVE-width sweep (Fig. 14).
# all_figures runs them all (177 simulations) and exits nonzero if any
# job fails.
(cd "$smoke_dir" && TMU_SCALE=0.05 "$bin/all_figures")

echo "== fault model: differential resume suite + panic-free grid smoke =="
# clippy above already denies unwrap_used in sim/core (the #![warn] in
# each crate root is promoted by -D warnings); these run the resilience
# guarantees end-to-end.
cargo test -q --release --test fault_resilience
# A nonzero injection rate through the public harness must exit 0: every
# fault schedule is serviced (or degrades gracefully) and the deliberate
# panic is caught and typed.
(cd "$smoke_dir" && TMU_FAULT_RATE=50 "$bin/faults")

echo "== alternative backends: bit-identity suite + four-way matrix smoke =="
# Both engines (blocked-sve, sam-stream) must stay bit-identical to the
# kernel oracles and the tmu-front interpreter.
cargo test -q --release -p tmu-backends
# A reduced-scale four-way comparison (tmu/imp/blocked-sve/sam-stream)
# over SpMV plus the compiled expressions; exits nonzero if any cell
# panics, and writes its rows to the smoke directory's results/bench.json.
(cd "$smoke_dir" && TMU_SCALE=0.05 "$bin/matrix" spmv expr)

echo "== formats: level round-trips, conversion faults, autotuner smoke =="
# Level-format proptests, conversion round-trips, the csr→banded TMU
# program under the fault grid.
cargo test -q --release -p tmu-formats
# Reduced-scale autotuner ablation (best layout vs CSR-always over the
# Table 6 grid); exits nonzero if any pick or modeled run panics, and
# writes its rows (figure "formats") to the smoke directory's
# results/bench.json.
(cd "$smoke_dir" && TMU_SCALE=0.05 "$bin/formats")

echo "== serving layer: differential grid + two-tenant smoke (both policies) =="
cargo test -q --release -p tmu-serve
# A small contended trace under each policy; the serving DES is
# single-threaded, so the rows must come out deterministic.
(cd "$smoke_dir" && TMU_SERVE_JOBS=12 TMU_TENANTS=2 TMU_POLICY=rr "$bin/serve")
(cd "$smoke_dir" && TMU_SERVE_JOBS=12 TMU_TENANTS=2 TMU_POLICY=wf "$bin/serve")

echo "== resilience: chaos differential suite + grid smoke + knob-exercising serve =="
# Slot faults (crash/hang/degrade) × slot counts × policies: every
# admitted job completes with a bit-identical solo digest or lands in a
# typed terminal state, and admitted = completed + shed + failed holds
# exactly. Includes the proptest over random chaos schedules.
cargo test -q --release -p tmu-serve --test chaos
# Reduced grid through the standalone bin; exits nonzero on any
# LOST/DIVERGED cell or if no fault was injected anywhere.
(cd "$smoke_dir" && TMU_SCALE=0.05 "$bin/chaos")
# The serve bin's resilience knobs must parse and run end-to-end
# (validated through parse_pos_int like every other knob).
(cd "$smoke_dir" && TMU_SERVE_JOBS=12 TMU_TENANTS=2 TMU_POLICY=edf \
    TMU_CHAOS=150 TMU_RETRY_BUDGET=5 TMU_CHECKPOINT_EVERY=600 "$bin/serve")

echo "== application pipelines: stage-chain suite + trace events + GNN/CG serve smoke =="
# The apps crate's executor/cache unit suites, then the served-app
# differential grid (policies x random quanta x chaos faults, every
# completion digest bit-identical to its solo run), the pinned solo
# references, and the StageStart/StageDone/TensorCacheHit trace-event
# pinning.
cargo test -q --release -p tmu-apps
cargo test -q --release -p tmu-serve --test apps --test trace_events
# Reduced-scale GNN + CG: solo stage breakdowns, then a served
# two-tenant mix whose digests are re-verified at bench time; exits
# nonzero on any divergence. Writes its rows (figure "apps").
(cd "$smoke_dir" && TMU_SCALE=0.05 "$bin/apps")
# App jobs mixed into the synthetic serve trace with Poisson arrivals.
(cd "$smoke_dir" && TMU_SERVE_JOBS=12 TMU_TENANTS=2 TMU_POLICY=wf \
    TMU_APPS=1 TMU_ARRIVALS=poisson "$bin/serve")

echo "== host-cost benchmark: build + short tmu-grid, sve-grid and serve-chaos runs =="
# perfbench (declared in BENCHMARK.json) is a package of its own; building
# it here keeps it compiling as the crates' APIs move. A one-second
# tmu-grid run re-verifies every grid kernel's TMU output, and a one-second
# sve-grid run every baseline kernel's output through the core and cache
# hot path. A one-second serve-chaos run checks every served completion's
# digest against its solo reference, so preemption, park/resume and
# checkpoint restarts all go through the checkpointed context restore.
# Each checks that the simulated counts repeat across passes. They run
# from the smoke directory so the counts they keep never touch
# perfbench/out.
# The build must leave the benchmark's files (BENCHMARK.json and
# perfbench/) as they were: a change to the crates' dependencies can make
# cargo rewrite perfbench/Cargo.lock.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    bench_before=$(git status --porcelain -- BENCHMARK.json perfbench)
else
    echo "not a git checkout: skipping the benchmark-untouched check"
fi
cargo build --release --manifest-path perfbench/Cargo.toml
if [ -n "${bench_before+set}" ]; then
    bench_after=$(git status --porcelain -- BENCHMARK.json perfbench)
    if [ "$bench_after" != "$bench_before" ]; then
        echo "verify.sh: the perfbench build changed the benchmark's files:" >&2
        echo "before: ${bench_before:-<clean>}" >&2
        echo "after:  ${bench_after:-<clean>}" >&2
        exit 1
    fi
fi
for workload in tmu-grid sve-grid serve-chaos; do
    (cd "$smoke_dir" && "$repo/perfbench/target/release/perfbench" \
        --workload "$workload" --seed 1 --seconds 1 --trace 0)
done

echo "verify.sh: all gates passed"

#!/usr/bin/env bash
# The one way this repository compares two commits: alternated pairs of
# c2pi_benchmark runs, judged by bench_guard on BENCHMARK.json's bounds.
#
#   ci/bench_pairs.sh <parent-ref> <pairs> [workload...]   # default: all
#
# The change is the working tree; the parent is a `git archive` under
# target/bench-pairs/ (no worktree, nothing left in .git). Pair i runs
# both sides back to back with the same --seed, alternating which goes
# first, one process at a time, untraced, for BENCHMARK.json's
# run_seconds. A run that exits non-zero stops the script. To check a
# claimed gain, re-run the last line with <metric>@<workload> appended.
set -euo pipefail
cd "$(dirname "$0")/.."
parent_ref=$1 pairs=$2
shift 2
(($#)) || set -- $(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json)
seconds=$(sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p' BENCHMARK.json)
out=$PWD/target/bench-pairs
rm -rf "$out/parent-tree" "$out/runs"
mkdir -p "$out/parent-tree" "$out/runs/parent" "$out/runs/change"
git archive "$parent_ref" | tar -x -C "$out/parent-tree"
for side in parent change; do
    tree=$([[ $side == parent ]] && echo "$out/parent-tree" || pwd)
    CARGO_TARGET_DIR=$out/target-$side cargo build --release --offline --quiet \
        --manifest-path "$tree/benchmark/Cargo.toml"
done
for i in $(seq "$pairs"); do
    for workload in "$@"; do
        for side in $( ((i % 2)) && echo parent change || echo change parent); do
            echo "== pair $i/$pairs: $workload on $side =="
            "$out/target-$side/release/c2pi_benchmark" --workload "$workload" --seed "$i" \
                --seconds "$seconds" --trace 0 | tail -n 1 >"$out/runs/$side/$workload.$i.json"
        done
    done
done
cargo run --release --offline --quiet -p c2pi-bench --bin bench_guard -- BENCHMARK.json "$out/runs"

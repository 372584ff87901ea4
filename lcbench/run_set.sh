#!/usr/bin/env bash
# One complete set of untraced runs: every workload on ten seeds, one
# history line per run appended to the file named by $1 (see README.md,
# "Comparing two sets"). Run from the root of the repository.
set -euo pipefail
out=${1:?usage: lcbench/run_set.sh <out.jsonl> [first-seed]}
first=${2:-1}
workloads="pair_stream pair_pingpong pair_bulk ring_wide_tdi ring_wide_tdis lu_threads pair_recover"
cargo build --release --offline --quiet --manifest-path lcbench/Cargo.toml
for seed in $(seq "$first" $((first + 9))); do
    for w in $workloads; do
        cargo run --release --offline --quiet --manifest-path lcbench/Cargo.toml -- \
            --workload "$w" --seed "$seed" --seconds 8 --trace 0 --history "$out" | tail -n 1
    done
done

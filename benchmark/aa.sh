#!/usr/bin/env bash
# A/A check: the full benchmark twice on one build, same seed. Prints, per
# workload and end-to-end metric, the relative difference between the two
# runs against the metric's bound, both runs' harness.aa_split_pct, and
# whether the exact counts agree; exits non-zero on a breach.
#   benchmark/aa.sh [SEED]      (about four and a half minutes)
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
seed="${1:-20130520}"
cargo build --release --offline --manifest-path "$manifest"
run() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }
mkdir -p benchmark/out
run --seed "$seed" --out benchmark/out/aa-first.json > /dev/null
run --seed "$seed" --out benchmark/out/aa-second.json > /dev/null
echo "A/A on seed $seed, $(nproc) cores, $(date -u +%Y-%m-%d)"
echo
run compare benchmark/out/aa-first.json benchmark/out/aa-second.json

#!/usr/bin/env bash
# Smoke check of the benchmark itself: offline build, unit tests, a --quick
# run of all four workloads, then schema validation of BENCHMARK.json and of
# the emitted result (names, counts, units, directions, bounds, every metric
# present on every workload, ops_failed = 0). About a minute.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --quiet --manifest-path "$manifest"
run() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }
mkdir -p benchmark/out
run --quick --out benchmark/out/check.json | tail -n 1 | head -c 300
echo " ..."
run validate BENCHMARK.json benchmark/out/check.json

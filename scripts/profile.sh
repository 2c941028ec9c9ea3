#!/usr/bin/env bash
# Leaf-function profile of one benchmark workload, without perf.
# Usage: scripts/profile.sh BENCHMARK_BIN WORKLOAD SEED [SECONDS] [TOP]
#   BENCHMARK_BIN  a release examl-benchmark, e.g. built by
#                  cargo build --release --offline --manifest-path benchmark/Cargo.toml
# Builds scripts/profile/sampler.c with the host cc, runs one `--trace 0`
# run of WORKLOAD with the sampler preloaded (it samples only the measured
# `exec` child, on that process's own CPU-time timer, ITIMER_PROF), and
# prints the share of each leaf function (the compiled function a sample
# lies in, its inlined callees folded in) among the child's samples, net
# of the harness's `reference_ms` and `calibrate_ms` loops. The
# benchmark's own last stdout line (its JSON result) goes to stderr.
set -euo pipefail
[ "$#" -ge 3 ] || { sed -n '3,4p' "$0" >&2; exit 2; }
here="$(cd "$(dirname "$0")" && pwd)"
bin="$(realpath "$1")" workload="$2" seed="$3" seconds="${4:-26}" top="${5:-25}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cc -O2 -shared -fPIC -o "$work/sampler.so" "$here/profile/sampler.c"
(cd "$work" && SAMPLER_ARG1=exec SAMPLER_OUT="$work/samples.txt" LD_PRELOAD="$work/sampler.so" \
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
  --out "$work/result.json" 2>/dev/null | tail -n 1 >&2)
python3 "$here/profile/report.py" "$work/samples.txt" "$top"

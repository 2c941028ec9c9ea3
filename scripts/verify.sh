#!/usr/bin/env bash
# Tier-1 verification: lint gate + build + full test suite.
# Run from the repository root: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Under EXAML_BLESS_GOLDEN the golden test rewrites a mismatching line
# instead of failing, so a leaked bless would pass any change of bits.
if [ -n "${EXAML_BLESS_GOLDEN+set}" ]; then
  echo "verify: EXAML_BLESS_GOLDEN is set; unset it to verify (it rewrites tests/tests/evaluator_golden.txt instead of failing)" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (workspace)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# A hang is a red build, not a stuck one: every test pass runs under a
# generous bound and names itself when it hits it.
# Each pass's wall is noted, so that a slower tier-1 total names its pass.
bounded_test() { # LABEL CARGO-TEST-ARGS...
  local label="$1" status=0 t0=$SECONDS
  shift
  timeout 30m cargo test -q "$@" || status=$?
  [ "$status" -ne 124 ] || echo "TIMEOUT: test pass '$label' still running after 30 min"
  echo "$((SECONDS - t0)) s  $label" >>"$tmp/pass_walls.txt"
  return "$status"
}
# Without AVX2, KernelKind::Simd runs the scalar loops and the SIMD-vs-scalar
# bitwise tests (exa-phylo's backend::simd tests, backend_agreement,
# kernel_backends) pass without comparing two loop sets: say so, not just green.
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  simd_note="host AVX2: yes (the SIMD-vs-scalar bitwise tests compared the AVX2 loops with the scalar ones)"
else
  simd_note="host AVX2: no (the SIMD-vs-scalar bitwise tests were VACUOUS: both sides ran the scalar loops)"
fi
echo "    $simd_note"
test_t0=$SECONDS
bounded_test "workspace" --workspace
echo "tier-1 test wall: $((SECONDS - test_t0)) s"
sed 's/^/    /' "$tmp/pass_walls.txt"
echo "$simd_note"
# ROADMAP item 4's other tracked number: non-test lines under crates/*/src.
echo "crates/ non-test lines: $(scripts/loc.sh | awk 'END{print $1}')"

echo "==> exa-comm under oversubscription (release, 8 test threads)"
# The spin-then-park wait with four times as many runnable worlds as this
# box has cores: spinners must hand their core over, parkers must be woken.
RUST_TEST_THREADS=8 bounded_test "exa-comm oversubscribed" -p exa-comm --release

echo "==> benchmark self-check (offline build against crates/, --quick run, schema)"
# benchmark/ is its own package with path dependencies on crates/*: a change
# here that breaks its build or its result schema must fail this script,
# not the driver's run of BENCHMARK.json.
benchmark/check.sh

echo "==> examl smoke run (sentinel + heartbeat + repeat compression)"
cargo run -q --release -p exa-simgen --bin simgen -- "$tmp/smoke.phy" 8 2 60 1
cargo run -q --release -p exa-serve --bin examl -- \
  --phylip "$tmp/smoke.phy" --ranks 2 --iterations 2 --kernel auto \
  --site-repeats on --verify-replicas 8 --health-out "$tmp/health.jsonl" \
  --metrics-out "$tmp/metrics.prom" \
  --out-tree "$tmp/smoke.nwk" --quiet
test -s "$tmp/smoke.nwk"
test -s "$tmp/health.jsonl"
# --metrics-out must dump the global registry in Prometheus text format
# with the run-layer series populated.
test -s "$tmp/metrics.prom"
grep -q '^exa_runs_completed_total{scheme="decentralized"} [1-9]' "$tmp/metrics.prom" \
  || { echo "metrics dump missing completed-run counter"; cat "$tmp/metrics.prom"; exit 1; }
grep -q '^exa_collectives_total [1-9]' "$tmp/metrics.prom" \
  || { echo "metrics dump missing collective counter"; cat "$tmp/metrics.prom"; exit 1; }
grep -q '^exa_batches_total [1-9]' "$tmp/metrics.prom" \
  || { echo "metrics dump missing packed-batch counter"; cat "$tmp/metrics.prom"; exit 1; }
grep -q '^exa_batch_fill_ratio ' "$tmp/metrics.prom" \
  || { echo "metrics dump missing batch fill ratio"; cat "$tmp/metrics.prom"; exit 1; }
grep -q '^# TYPE exa_collective_wait_ns_total counter' "$tmp/metrics.prom" \
  || { echo "metrics dump missing TYPE metadata"; exit 1; }
# Every heartbeat line must parse as JSON, report a verified-ok run, carry
# the kernel backend auto resolved to, and (with --site-repeats on) a
# repeat-compression ratio of at least 1.
while IFS= read -r line; do
  [ -n "$line" ] || continue
  status="$(printf '%s' "$line" | jq -r .divergence)"
  [ "$status" = "ok" ] || { echo "unexpected heartbeat: $line"; exit 1; }
  kernel="$(printf '%s' "$line" | jq -r .modes.kernel)"
  case "$kernel" in
    scalar|simd) ;;
    *) echo "heartbeat missing the kernel backend: $line"; exit 1 ;;
  esac
  printf '%s' "$line" | jq -e '.repeat_ratio >= 1' >/dev/null \
    || { echo "heartbeat missing repeat-compression ratio: $line"; exit 1; }
done <"$tmp/health.jsonl"
ratio="$(tail -n 1 "$tmp/health.jsonl" | jq -r .repeat_ratio)"
echo "health: $(wc -l <"$tmp/health.jsonl") heartbeat record(s), all ok (kernel: $kernel, repeat ratio: $ratio)"

echo "==> examl command line (--help from the flag table, usage errors)"
# --help exits 0 and knows every flag this script passes to examl; a rank
# count of zero is a usage error (exit 2), not a panic in the world set-up.
examl_help="$(cargo run -q --release -p exa-serve --bin examl -- --help 2>&1)"
for flag in --phylip --ranks --iterations --seed --kernel --site-repeats --reduce --threads \
  --gradient --batch --resize-at --inject --verify-replicas \
  --checkpoint-out --checkpoint-every --resume --health-out --metrics-out \
  --out-tree --quiet; do
  grep -q -- "^  $flag " <<<"$examl_help" || { echo "examl --help does not list $flag"; exit 1; }
done
set +e
cargo run -q --release -p exa-serve --bin examl -- \
  --phylip "$tmp/smoke.phy" --ranks 0 --quiet >/dev/null 2>&1
ranks0_status=$?
set -e
[ "$ranks0_status" -eq 2 ] || { echo "--ranks 0 must exit 2 (usage), got $ranks0_status"; exit 1; }
# A PHYLIP header count must not size an allocation: 23 bytes declaring
# 10^11 taxa are one parse-error line and exit 1, not an abort (134).
printf '100000000000 4\nt0 ACGT\n' >"$tmp/hostile.phy"
set +e
cargo run -q --release -p exa-serve --bin examl -- \
  --phylip "$tmp/hostile.phy" --quiet >/dev/null 2>"$tmp/hostile.err"
hostile_status=$?
set -e
[ "$hostile_status" -eq 1 ] || { echo "a hostile PHYLIP header must exit 1, got $hostile_status"; cat "$tmp/hostile.err"; exit 1; }
[ "$(wc -l <"$tmp/hostile.err")" -eq 1 ] && grep -q 'parse error' "$tmp/hostile.err" \
  || { echo "a hostile PHYLIP header must give one parse-error line:"; cat "$tmp/hostile.err"; exit 1; }

echo "==> replica sentinel at the command line (injected divergence exits 1)"
# One flipped bit of alpha on rank 1 after collective 3 must stop the run at
# the next fingerprint sync with one diagnostic naming the minority rank and
# the diverged component.
set +e
cargo run -q --release -p exa-serve --bin examl -- \
  --phylip "$tmp/smoke.phy" --ranks 4 --iterations 2 --seed 7 --verify-replicas 1 \
  --inject diverge:1:3:alpha --quiet >/dev/null 2>"$tmp/diverge.err"
diverge_status=$?
set -e
[ "$diverge_status" -eq 1 ] || { echo "a diverged replica must exit 1, got $diverge_status"; cat "$tmp/diverge.err"; exit 1; }
grep -q 'rank(s) {1} disagree with the majority in model parameters' "$tmp/diverge.err" \
  || { echo "sentinel diagnostic must name rank 1 and model parameters:"; cat "$tmp/diverge.err"; exit 1; }
echo "sentinel: $(head -n 1 "$tmp/diverge.err")"

echo "==> one lnL trajectory for every world shape (ranks, resize, threads, batch, gradient, kernel, site repeats)"
# Under --reduce reproducible the per-iteration lnL trajectory depends only
# on the data and the seed: each flag set below must replay the 1-rank
# reference bit for bit (compared as heartbeat JSON text — serde's
# shortest-round-trip float formatting is injective, so equal text == equal
# bits) and report the modes it ran with in its health stream. The scalar
# kernel builds its transition matrices with the scalar lanes of the one
# `exp`, the reference with its AVX2 lanes on an AVX2 host.
traj() { # FILE -> "iteration lnl" per line
  sed -n 's/.*"iteration":\([0-9]*\).*"lnl":\([^,}]*\).*/\1 \2/p' "$1"
}
reproducible_run() { # NAME EXAML-FLAGS...
  local name="$1"
  shift
  cargo run -q --release -p exa-serve --bin examl -- \
    --phylip "$tmp/smoke.phy" --iterations 3 --seed 7 --reduce reproducible \
    --health-out "$tmp/traj_$name.jsonl" --quiet "$@" </dev/null >/dev/null
  traj "$tmp/traj_$name.jsonl" >"$tmp/traj_$name.txt"
}
reproducible_run ref --ranks 1
[ -s "$tmp/traj_ref.txt" ] || { echo "the 1-rank reference wrote no heartbeats"; exit 1; }
flag_sets=0
while IFS='|' read -r flags label; do
  flag_sets=$((flag_sets + 1))
  # shellcheck disable=SC2086 # FLAGS is a list of words
  reproducible_run "$flag_sets" $flags
  cmp -s "$tmp/traj_ref.txt" "$tmp/traj_$flag_sets.txt" \
    || { echo "lnL trajectory of '$flags' differs from 1 rank"; diff "$tmp/traj_ref.txt" "$tmp/traj_$flag_sets.txt"; exit 1; }
  tail -n 1 "$tmp/traj_$flag_sets.jsonl" | jq -e "$label" >/dev/null \
    || { echo "health of '$flags' does not report $label"; tail -n 1 "$tmp/traj_$flag_sets.jsonl"; exit 1; }
done <<'FLAG_SETS'
--ranks 2|.modes.reduce == "reproducible"
--ranks 4|.modes.reduce == "reproducible"
--ranks 2 --resize-at 1:4,2:1|.modes.reduce == "reproducible"
--ranks 2 --threads 2|.modes.threads == "2"
--ranks 2 --threads 2 --batch off|.modes.batch == "off"
--ranks 2 --gradient on|.modes.gradient == "on"
--ranks 2 --gradient off|.modes.gradient == "off"
--ranks 2 --kernel scalar|.modes.kernel == "scalar"
--ranks 2 --site-repeats off|.modes.site_repeats == "off"
FLAG_SETS
echo "trajectories: $flag_sets flag sets replay the 1-rank reference bit for bit"
# PSR folds each pattern's rate category into the site-repeat class key (a
# second pairing round), so its trajectory checks compressed CLV rows end to
# end. At 1 rank only: PSR still depends on the rank count (ROADMAP item 3).
# Over simgen's two 60-site partitions, so the rate rounds run per partition
# and `--threads 2` has two tasks to share.
printf 'DNA, p0 = 1-60\nDNA, p1 = 61-120\n' >"$tmp/smoke.part"
reproducible_run psr_ref --ranks 1 --model PSR --partitions "$tmp/smoke.part"
[ -s "$tmp/traj_psr_ref.txt" ] || { echo "the PSR reference wrote no heartbeats"; exit 1; }
psr_sets=0
while IFS='|' read -r flags label; do
  psr_sets=$((psr_sets + 1))
  # shellcheck disable=SC2086 # FLAGS is a list of words
  reproducible_run "psr_$psr_sets" --ranks 1 --model PSR --partitions "$tmp/smoke.part" $flags
  cmp -s "$tmp/traj_psr_ref.txt" "$tmp/traj_psr_$psr_sets.txt" \
    || { echo "PSR lnL trajectory of '$flags' differs from the PSR reference"; diff "$tmp/traj_psr_ref.txt" "$tmp/traj_psr_$psr_sets.txt"; exit 1; }
  tail -n 1 "$tmp/traj_psr_$psr_sets.jsonl" | jq -e "$label" >/dev/null \
    || { echo "health of PSR '$flags' does not report $label"; tail -n 1 "$tmp/traj_psr_$psr_sets.jsonl"; exit 1; }
done <<'PSR_SETS'
--site-repeats off|.modes.site_repeats == "off"
--kernel scalar|.modes.kernel == "scalar"
--threads 2 --batch off|.modes.threads == "2"
PSR_SETS
echo "trajectories: $psr_sets PSR flag sets replay the 1-rank PSR reference bit for bit"

echo "==> examl checkpoint smoke (atomic generations + heartbeat fields)"
cargo run -q --release -p exa-serve --bin examl -- \
  --phylip "$tmp/smoke.phy" --ranks 2 --iterations 3 \
  --checkpoint-out "$tmp/ckpt" --checkpoint-every 1 \
  --health-out "$tmp/ckpt_health.jsonl" --quiet
ls "$tmp/ckpt"/gen-*.ckpt >/dev/null || { echo "no checkpoint generations committed"; exit 1; }
if ls "$tmp/ckpt"/*.tmp* >/dev/null 2>&1; then
  echo "torn tmp file left behind by the two-phase commit"; exit 1
fi
# Once a generation is committed, heartbeats must carry the checkpoint
# telemetry: the boundary iteration of the last commit and its write time.
tail -n 1 "$tmp/ckpt_health.jsonl" | jq -e '.last_checkpoint_iter >= 0' >/dev/null \
  || { echo "heartbeat missing last_checkpoint_iter"; exit 1; }
tail -n 1 "$tmp/ckpt_health.jsonl" | jq -e '.checkpoint_write_ms >= 0' >/dev/null \
  || { echo "heartbeat missing checkpoint_write_ms"; exit 1; }

echo "==> examl kill/restart smoke (injected kill exits 3, resume completes)"
rm -rf "$tmp/ckpt"
set +e
cargo run -q --release -p exa-serve --bin examl -- \
  --phylip "$tmp/smoke.phy" --ranks 2 --iterations 3 \
  --checkpoint-out "$tmp/ckpt" --checkpoint-every 1 \
  --inject kill:1 --quiet
kill_status=$?
set -e
[ "$kill_status" -eq 3 ] || { echo "injected kill must exit 3, got $kill_status"; exit 1; }
cargo run -q --release -p exa-serve --bin examl -- \
  --phylip "$tmp/smoke.phy" --ranks 2 --iterations 3 \
  --resume "$tmp/ckpt" --out-tree "$tmp/resumed.nwk" --quiet
test -s "$tmp/resumed.nwk"
echo "checkpoint: kill at generation 1 exited 3, resume completed"

echo "==> exa-serve daemon smoke (fair-share queue, preemption, health gauges)"
examl_serve() { cargo run -q --release -p exa-serve --bin examl -- serve "$@"; }
# The address a daemon printed to the log $1 once its socket was bound.
listen_addr() {
  for _ in $(seq 1 100); do
    sed -n 's/^listening on //p' "$1" | head -n 1 | grep . && return 0
    sleep 0.1
  done
  return 1
}
cargo run -q --release -p exa-simgen --bin simgen -- "$tmp/serve.phy" 16 2 300 2
examl_serve daemon --spool "$tmp/spool" --workers 1 \
  >"$tmp/daemon.log" 2>"$tmp/daemon.err" &
daemon_pid=$!
daemon2_pid=""
trap 'kill $daemon_pid $daemon2_pid 2>/dev/null || true; rm -rf "$tmp"' EXIT
addr="$(listen_addr "$tmp/daemon.log")" \
  || { echo "daemon never reported its listen address"; cat "$tmp/daemon.err"; exit 1; }
# One worker: a long batch run plus a backlog keeps the queue non-empty
# while we sample the gauges, and the priority-9 submission can only run
# by checkpoint-preempting the batch job.
low_id="$(examl_serve submit --to "$addr" --alignment "$tmp/serve.phy" \
  --tenant batch --priority 0 --iterations 60 --epsilon 0.0000001 --seed 7)"
extra_ids=""
for _ in 1 2 3; do
  extra_ids="$extra_ids $(examl_serve submit --to "$addr" --alignment "$tmp/serve.phy" \
    --tenant batch --priority 0 --iterations 2 --seed 7)"
done
examl_serve health --to "$addr" | jq -e '.queue_depth >= 1' >/dev/null \
  || { echo "queue depth gauge missing the backlog"; exit 1; }
high_id="$(examl_serve submit --to "$addr" --alignment "$tmp/serve.phy" \
  --tenant interactive --priority 9 --iterations 2 --seed 7 --trace)"
examl_serve wait --to "$addr" "$high_id" --timeout-secs 300 >/dev/null
low_status="$(examl_serve wait --to "$addr" "$low_id" --timeout-secs 300)"
for jid in $extra_ids; do
  examl_serve wait --to "$addr" "$jid" --timeout-secs 300 >/dev/null
done
printf '%s' "$low_status" | jq -e '.preemptions >= 1' >/dev/null \
  || { echo "batch job was never preempted: $low_status"; exit 1; }
printf '%s' "$low_status" | jq -e '.attempts >= 2' >/dev/null \
  || { echo "preempted job was never re-dispatched: $low_status"; exit 1; }
health="$(examl_serve health --to "$addr")"
printf '%s' "$health" | jq -e '.preemptions >= 1' >/dev/null \
  || { echo "health missing preemption count: $health"; exit 1; }
printf '%s' "$health" | jq -e '.queue_depth == 0' >/dev/null \
  || { echo "queue must drain: $health"; exit 1; }
printf '%s' "$health" | jq -e '.completed == 5 and .resumes >= 1' >/dev/null \
  || { echo "expected 5 completed jobs incl. one resume: $health"; exit 1; }
# The Prometheus scrape and the heartbeat read the same registry atomics,
# so their counters can never disagree.
metrics="$(curl -sf "http://$addr/metrics")"
completed_prom="$(printf '%s\n' "$metrics" | sed -n 's/^exa_jobs_completed_total //p')"
preempt_prom="$(printf '%s\n' "$metrics" | sed -n 's/^exa_preemptions_total //p')"
[ "$completed_prom" = "$(printf '%s' "$health" | jq -r .completed)" ] \
  || { echo "/metrics completed ($completed_prom) disagrees with heartbeat: $health"; exit 1; }
[ "$preempt_prom" = "$(printf '%s' "$health" | jq -r .preemptions)" ] \
  || { echo "/metrics preemptions ($preempt_prom) disagrees with heartbeat: $health"; exit 1; }
printf '%s\n' "$metrics" | grep -q '^# TYPE exa_queue_wait_ms histogram' \
  || { echo "/metrics missing queue-wait histogram"; exit 1; }
# Counters are monotone across scrapes.
completed_again="$(curl -sf "http://$addr/metrics" | sed -n 's/^exa_jobs_completed_total //p')"
[ "$completed_again" -ge "$completed_prom" ] \
  || { echo "completed counter went backwards: $completed_prom -> $completed_again"; exit 1; }
# Per-job observability artifacts over HTTP: the merged Chrome trace (of
# the one job submitted with --trace; the others are a JSON 404) and the
# health report written next to the job's spool directory.
curl -sf "http://$addr/trace/$high_id" | jq -e '.traceEvents | length > 0' >/dev/null \
  || { echo "/trace/$high_id missing or empty"; exit 1; }
untraced="$(curl -s -w '\n%{http_code}' "http://$addr/trace/$low_id")"
[ "$(printf '%s' "$untraced" | tail -n 1)" = 404 ] \
  && printf '%s' "$untraced" | head -n 1 | jq -e '.ok == false and (.error | test("was not traced"))' >/dev/null \
  || { echo "/trace/$low_id (untraced job) must be a JSON 404: $untraced"; exit 1; }
curl -sf "http://$addr/job-health/$high_id" | head -n 1 | jq -e '.iteration >= 0' >/dev/null \
  || { echo "/job-health/$high_id missing heartbeats"; exit 1; }
# The journal is the daemon's durable state: a second daemon started on a
# copy taken while the first is live lists every job with the same state,
# attempts and preemptions.
mkdir "$tmp/spool2"
cp "$tmp/spool/journal.jsonl" "$tmp/spool2/journal.jsonl"
durable() { examl_serve list --to "$1" | jq -c '{id, state, attempts, preemptions}'; }
jobs_live="$(durable "$addr")"
examl_serve daemon --spool "$tmp/spool2" --workers 1 \
  >"$tmp/daemon2.log" 2>"$tmp/daemon2.err" &
daemon2_pid=$!
addr2="$(listen_addr "$tmp/daemon2.log")" \
  || { echo "replaying daemon never reported its listen address"; cat "$tmp/daemon2.err"; exit 1; }
jobs_replayed="$(durable "$addr2")"
[ "$jobs_replayed" = "$jobs_live" ] \
  || { echo "journal replay disagrees with the live daemon:"; echo "$jobs_live"; echo "---"; echo "$jobs_replayed"; exit 1; }
examl_serve shutdown --to "$addr2" >/dev/null
wait "$daemon2_pid" || { echo "replaying daemon exited non-zero"; exit 1; }
daemon2_pid=""
examl_serve shutdown --to "$addr" >/dev/null
wait "$daemon_pid" || { echo "daemon exited non-zero"; exit 1; }
echo "serve: 5 jobs, $(printf '%s' "$health" | jq -r .preemptions) preemption(s), /metrics consistent, queue drained, journal copy replays the same jobs, clean shutdown"

echo "verify: OK"

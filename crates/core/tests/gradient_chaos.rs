//! Chaos harness for `--gradient`: the mode selects how the full-tree
//! gradient is reduced (one sweep and a single fat reduction, or edge by
//! edge), and must not move a bit of the result. Under `--reduce
//! reproducible` the lnL trajectory must be **bitwise** identical between
//! `--gradient on` and `--gradient off`, across rank counts (1 → 2 → 8),
//! worker-pool widths (1 → 2 → 8) and both execution schemes. A world with
//! mixed gradient modes is a deployment error: the mode is part of the
//! fingerprint, so the sentinel must refuse it at its first sync.
//!
//! Γ only, reproducible only: the bitwise claim needs rank-count-invariant
//! sums (a fast-mode trajectory is a function of the world size by
//! design); `worker_count_is_benign_under_fast_reduce` in the fork-join
//! crate covers the fast-mode tolerance story.

#[path = "../../../tests/tests/mixed_world/mod.rs"]
mod mixed_world;

use exa_comm::ReduceChoice;
use exa_obs::HeartbeatRecord;
use exa_phylo::{GradientChoice, GradientMode, ThreadCount, ThreadsChoice};
use exa_search::{Modes, SearchConfig};
use exa_simgen::workloads;
use examl_core::{RunConfig, Scheme};
use std::path::PathBuf;

struct Fixture {
    root: PathBuf,
    workload: workloads::Workload,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("examl_gradient_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        Fixture {
            root,
            workload: workloads::partitioned(8, 2, 160, 41),
        }
    }

    fn config(
        &self,
        ranks: usize,
        threads: usize,
        scheme: Scheme,
        gradient: GradientChoice,
    ) -> RunConfig {
        RunConfig::new(ranks)
            .scheme(scheme)
            .reduce(ReduceChoice::Reproducible)
            .threads(ThreadsChoice::Count(ThreadCount::new(threads)))
            .gradient(gradient)
            .seed(23)
            .search(SearchConfig {
                max_iterations: 3,
                epsilon: 1e-9,
                ..SearchConfig::fast()
            })
    }

    /// Run and return the per-iteration `(iteration, lnl bits)` heartbeat
    /// trajectory plus the final lnL bits.
    fn trajectory(
        &self,
        cfg: RunConfig,
        tag: &str,
        gradient: GradientMode,
    ) -> (Vec<(u64, u64)>, u64) {
        let health = self.root.join(format!("{tag}.health.jsonl"));
        let out = cfg
            .health_out(&health)
            .run(&self.workload.compressed)
            .unwrap();
        assert_eq!(out.gradient, gradient, "resolved mode must round-trip");
        let text = std::fs::read_to_string(&health).unwrap();
        let steps = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                let rec = HeartbeatRecord::from_json_line(l).unwrap();
                assert_eq!(rec.modes.unwrap()["gradient"], gradient.label());
                (rec.iteration, rec.lnl.to_bits())
            })
            .collect();
        (steps, out.result.lnl.to_bits())
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

#[test]
fn decentralized_trajectory_bitwise_invariant_to_gradient_mode() {
    // The satellite matrix: rank counts × worker-pool widths, each run
    // with gradient BLO on and off. Under reproducible reductions every
    // one of these trajectories must be the same bit pattern — the sweep
    // computes the same Newton seeds the per-edge collectives would, and
    // the fat reduction bins per (derivative, edge, partition) slot
    // exactly as the per-edge reductions bin per partition.
    let fx = Fixture::new("matrix");
    let reference = fx.trajectory(
        fx.config(1, 1, Scheme::Decentralized, GradientChoice::Off),
        "ref",
        GradientMode::Off,
    );
    assert!(
        !reference.0.is_empty(),
        "harness defect: no heartbeats recorded"
    );
    for ranks in [1usize, 2, 8] {
        for threads in [1usize, 2, 8] {
            for (choice, mode) in [
                (GradientChoice::On, GradientMode::On),
                (GradientChoice::Auto, GradientMode::On),
                (GradientChoice::Off, GradientMode::Off),
            ] {
                if ranks == 1 && threads == 1 && mode == GradientMode::Off {
                    continue; // the reference itself
                }
                let got = fx.trajectory(
                    fx.config(ranks, threads, Scheme::Decentralized, choice),
                    &format!("r{ranks}t{threads}{}", mode.label()),
                    mode,
                );
                assert_eq!(
                    got, reference,
                    "ranks {ranks} × threads {threads} × gradient {choice:?}: \
                     trajectory diverged from the rank-1 per-edge reference"
                );
            }
        }
    }
}

#[test]
fn forkjoin_final_lnl_bitwise_invariant_to_gradient_mode() {
    // Same invariant on the master/worker scheme, pinned at the final lnL
    // (fork-join writes no per-iteration heartbeat file). The fork-join
    // master evaluates gradients through the worker pool's fat reduction,
    // so this also crosses the scheme boundary: every bit pattern must
    // match the de-centralized reference above's final state — which
    // `schemes_agree_bitwise_under_reproducible_reduce` already pins, so
    // here the reference is the fork-join per-edge run itself.
    let fx = Fixture::new("forkjoin");
    let reference = fx
        .config(1, 1, Scheme::ForkJoin, GradientChoice::Off)
        .run(&fx.workload.compressed)
        .unwrap();
    assert_eq!(reference.gradient, GradientMode::Off);
    for ranks in [1usize, 2, 8] {
        for threads in [1usize, 8] {
            for (choice, mode) in [
                (GradientChoice::On, GradientMode::On),
                (GradientChoice::Off, GradientMode::Off),
            ] {
                let out = fx
                    .config(ranks, threads, Scheme::ForkJoin, choice)
                    .run(&fx.workload.compressed)
                    .unwrap();
                assert_eq!(out.gradient, mode, "resolved mode must round-trip");
                assert_eq!(
                    out.result.lnl.to_bits(),
                    reference.result.lnl.to_bits(),
                    "fork-join ranks {ranks} × threads {threads} × gradient \
                     {choice:?} moved the final lnL"
                );
            }
        }
    }
}

#[test]
fn mixed_gradient_override_trips_sentinel_at_first_sync() {
    // The gradient mode is folded into the backend fingerprint, so the
    // sentinel's first sync — before the search's first collective — must
    // refuse the world (one no configuration produces, built by hand).
    let on = mixed_world::base();
    let off = Modes {
        gradient: GradientMode::Off,
        ..on
    };
    assert_eq!(
        mixed_world::minority_at_first_sync(&[on, off, on, on]),
        vec![1]
    );
}

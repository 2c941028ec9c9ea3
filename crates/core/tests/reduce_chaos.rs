//! Chaos harness for `--reduce reproducible`: the lnL trajectory of a run
//! must be **bitwise** invariant to the rank count (1 → 2 → 8 → 32), to a
//! mid-run elastic resize (grow and shrink), and must hold on both
//! execution schemes and both kernel backends. A mixed-mode world must be
//! caught by the replica-divergence sentinel at its first sync, never
//! produce silently different numbers.
//!
//! Γ only: PSR per-site rates are data-local, so their fit is a function
//! of the distribution width by design — reproducible reductions make the
//! *sums* width-invariant, not the per-site rate categories.

#[path = "../../../tests/tests/mixed_world/mod.rs"]
mod mixed_world;

use exa_comm::{ReduceChoice, ReduceKind};
use exa_obs::HeartbeatRecord;
use exa_phylo::KernelChoice;
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
        let root = std::env::temp_dir().join(format!("examl_reduce_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        Fixture {
            root,
            workload: workloads::partitioned(8, 2, 200, 41),
        }
    }

    fn config(&self, ranks: usize, kernel: KernelChoice, scheme: Scheme) -> RunConfig {
        RunConfig::new(ranks)
            .scheme(scheme)
            .kernel(kernel)
            .reduce(ReduceChoice::Reproducible)
            .seed(23)
            .search(SearchConfig {
                max_iterations: 5,
                epsilon: 1e-9,
                ..SearchConfig::fast()
            })
    }

    /// Run and return the per-iteration `(iteration, lnl bits)` heartbeat
    /// trajectory plus the final lnL bits.
    fn trajectory(&self, cfg: RunConfig, tag: &str) -> (Vec<(u64, u64)>, u64) {
        let health = self.root.join(format!("{tag}.health.jsonl"));
        let out = cfg
            .health_out(&health)
            .run(&self.workload.compressed)
            .unwrap();
        let text = std::fs::read_to_string(&health).unwrap();
        let steps = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                let rec = HeartbeatRecord::from_json_line(l).unwrap();
                assert_eq!(rec.modes.unwrap()["reduce"], "reproducible");
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
fn decentralized_trajectory_bitwise_invariant_to_rank_count() {
    for kernel in [KernelChoice::Scalar, KernelChoice::Simd] {
        let fx = Fixture::new("ranks");
        let reference = fx.trajectory(fx.config(1, kernel, Scheme::Decentralized), "r1");
        assert!(
            !reference.0.is_empty(),
            "harness defect: no heartbeats recorded"
        );
        for ranks in [2usize, 8, 32] {
            let got = fx.trajectory(
                fx.config(ranks, kernel, Scheme::Decentralized),
                &format!("r{ranks}"),
            );
            assert_eq!(
                got, reference,
                "{kernel:?}: trajectory at {ranks} ranks diverged from 1 rank"
            );
        }
    }
}

#[test]
fn forkjoin_search_bitwise_invariant_to_rank_count() {
    // Fork-join runs no boundary hooks on workers and writes no heartbeat
    // file; the search outcome (final lnL bits, iteration count, accepted
    // moves, final topology) pins the trajectory instead — any mid-run
    // difference in a reduced sum changes accept/reject decisions and
    // shows up in one of these.
    for kernel in [KernelChoice::Scalar, KernelChoice::Simd] {
        let fx = Fixture::new("fj");
        let outcomes: Vec<_> = [1usize, 2, 8, 32]
            .iter()
            .map(|&ranks| {
                let out = fx
                    .config(ranks, kernel, Scheme::ForkJoin)
                    .run(&fx.workload.compressed)
                    .unwrap();
                assert_eq!(out.reduce, ReduceKind::Reproducible);
                (
                    out.result.lnl.to_bits(),
                    out.result.iterations,
                    out.result.spr_moves,
                    out.tree_newick,
                )
            })
            .collect();
        for o in &outcomes[1..] {
            assert_eq!(
                o, &outcomes[0],
                "{kernel:?}: fork-join outcome depends on rank count"
            );
        }
    }
}

#[test]
fn schemes_agree_bitwise_under_reproducible_reduce() {
    // Reproducible sums are invariant to *any* partitioning of the site
    // terms — including the master/worker split fork-join uses — so the
    // two schemes must produce the same bits, not just close numbers.
    let fx = Fixture::new("schemes");
    let kernel = KernelChoice::Auto;
    let de = fx
        .config(4, kernel, Scheme::Decentralized)
        .run(&fx.workload.compressed)
        .unwrap();
    let fj = fx
        .config(4, kernel, Scheme::ForkJoin)
        .run(&fx.workload.compressed)
        .unwrap();
    assert_eq!(de.result.lnl.to_bits(), fj.result.lnl.to_bits());
    assert_eq!(de.tree_newick, fj.tree_newick);
}

#[test]
fn midrun_resize_grow_and_shrink_preserves_trajectory() {
    for kernel in [KernelChoice::Scalar, KernelChoice::Simd] {
        let fx = Fixture::new("resize");
        // Un-resized reference at the starting width. The comm world of
        // the resized run is larger (head-room to 8), which must not
        // matter: inactive ranks contribute empty bins.
        let reference = fx.trajectory(fx.config(4, kernel, Scheme::Decentralized), "flat");
        // collect_trace exercises the recorder, which must be sized for
        // the widest planned width, not the starting rank count.
        let resized = fx.trajectory(
            fx.config(4, kernel, Scheme::Decentralized)
                .resize_at(2, 8)
                .resize_at(4, 2)
                .collect_trace(true),
            "grow-shrink",
        );
        assert_eq!(
            resized, reference,
            "{kernel:?}: lnL trajectory shifted across a 4 -> 8 -> 2 resize"
        );
    }
}

#[test]
fn resize_requires_reproducible_reduce() {
    let fx = Fixture::new("gate");
    let result = std::panic::catch_unwind(|| {
        fx.config(4, KernelChoice::Auto, Scheme::Decentralized)
            .reduce(ReduceChoice::Fast)
            .resize_at(2, 2)
            .run(&fx.workload.compressed)
    });
    assert!(result.is_err(), "fast-mode resize must be refused");
}

#[test]
fn mixed_reduce_override_trips_sentinel_at_first_sync() {
    // The reduce mode is part of the backend fingerprint, so the very first
    // sync catches the odd rank out (a world no configuration produces,
    // built by hand).
    let fast = mixed_world::base();
    let repro = Modes {
        reduce: ReduceKind::Reproducible,
        ..fast
    };
    assert_eq!(
        mixed_world::minority_at_first_sync(&[repro, fast, repro, repro]),
        vec![1]
    );
}

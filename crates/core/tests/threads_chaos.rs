//! Chaos harness for `--threads` and `--batch`: the lnL trajectory of a
//! run must be **bitwise** invariant to the intra-rank worker-pool width
//! (1 → 2 → 8) and to partition packing (on → off), across both kernel
//! backends, both reduce modes, and site-repeat compression on/off. The
//! worker pool only changes *who* computes a partition's slot, the packing
//! pass only changes how many kernel entries a traversal issues — neither
//! may move a bit of the result. A world with mixed thread counts must be
//! caught by the replica-divergence sentinel at its first sync.

#[path = "../../../tests/tests/mixed_world/mod.rs"]
mod mixed_world;

use exa_comm::ReduceChoice;
use exa_obs::HeartbeatRecord;
use exa_phylo::{KernelChoice, RepeatsChoice, SiteRepeats, ThreadCount, ThreadsChoice};
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
            std::env::temp_dir().join(format!("examl_threads_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        Fixture {
            root,
            workload: workloads::partitioned(8, 2, 160, 41),
        }
    }

    fn config(
        &self,
        kernel: KernelChoice,
        reduce: ReduceChoice,
        repeats: SiteRepeats,
        threads: usize,
    ) -> RunConfig {
        RunConfig::new(2)
            .scheme(Scheme::Decentralized)
            .kernel(kernel)
            .reduce(reduce)
            .site_repeats(match repeats {
                SiteRepeats::On => RepeatsChoice::On,
                SiteRepeats::Off => RepeatsChoice::Off,
            })
            .threads(ThreadsChoice::Count(ThreadCount::new(threads)))
            .seed(23)
            .search(SearchConfig {
                max_iterations: 3,
                epsilon: 1e-9,
                ..SearchConfig::fast()
            })
    }

    /// Run and return the per-iteration `(iteration, lnl bits)` heartbeat
    /// trajectory plus the final lnL bits.
    fn trajectory(&self, cfg: RunConfig, tag: &str, threads: usize) -> (Vec<(u64, u64)>, u64) {
        let health = self.root.join(format!("{tag}.health.jsonl"));
        let out = cfg
            .health_out(&health)
            .run(&self.workload.compressed)
            .unwrap();
        assert_eq!(out.threads, threads, "resolved width must round-trip");
        let text = std::fs::read_to_string(&health).unwrap();
        let steps = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                let rec = HeartbeatRecord::from_json_line(l).unwrap();
                assert_eq!(rec.modes.unwrap()["threads"], threads.to_string());
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
fn trajectory_bitwise_invariant_to_thread_count() {
    // The full satellite matrix: kernels × reduce modes × site repeats,
    // each pinned at --threads 1 and replayed at 2 and 8 workers.
    for kernel in [KernelChoice::Scalar, KernelChoice::Simd] {
        for reduce in [ReduceChoice::Fast, ReduceChoice::Reproducible] {
            for repeats in [SiteRepeats::On, SiteRepeats::Off] {
                let fx = Fixture::new("width");
                let reference = fx.trajectory(fx.config(kernel, reduce, repeats, 1), "t1", 1);
                assert!(
                    !reference.0.is_empty(),
                    "harness defect: no heartbeats recorded"
                );
                for threads in [2usize, 8] {
                    let got = fx.trajectory(
                        fx.config(kernel, reduce, repeats, threads),
                        &format!("t{threads}"),
                        threads,
                    );
                    assert_eq!(
                        got, reference,
                        "{kernel:?}/{reduce:?}/{repeats:?}: trajectory at \
                         {threads} threads diverged from 1 thread"
                    );
                }
            }
        }
    }
}

#[test]
fn trajectory_bitwise_invariant_to_batching() {
    // Packing is a dispatch-structure change only: the batched run at 2
    // workers must reproduce the unbatched single-thread run bit for bit.
    for kernel in [KernelChoice::Scalar, KernelChoice::Simd] {
        for reduce in [ReduceChoice::Fast, ReduceChoice::Reproducible] {
            let fx = Fixture::new("pack");
            let reference = fx.trajectory(
                fx.config(kernel, reduce, SiteRepeats::On, 1).batch(false),
                "unbatched",
                1,
            );
            let got = fx.trajectory(
                fx.config(kernel, reduce, SiteRepeats::On, 2).batch(true),
                "batched",
                2,
            );
            assert_eq!(
                got, reference,
                "{kernel:?}/{reduce:?}: packed batches moved the trajectory"
            );
        }
    }
}

#[test]
fn mixed_threads_override_trips_sentinel_at_first_sync() {
    // The thread count is folded into the backend fingerprint, so a world
    // where one rank runs a different width (one no configuration
    // produces, built by hand) is refused by the sentinel — not a source of
    // silent divergence.
    let one = mixed_world::base();
    let two = Modes {
        threads: ThreadCount::new(2),
        ..one
    };
    assert_eq!(
        mixed_world::minority_at_first_sync(&[two, one, two, two]),
        vec![1]
    );
}

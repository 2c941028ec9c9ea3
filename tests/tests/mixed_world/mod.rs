//! A world whose ranks compute with different modes, built by hand, and the
//! one table of such worlds the sentinel must refuse.
//!
//! No `RunConfig` produces one: every rank resolves the run's one
//! configuration on the one host (`RunConfig::modes`). The replica sentinel
//! still fingerprints the modes each rank's engine and evaluator report, so
//! the suites that own a mode check their row of `ODD` here.

use exa_bio::stats::global_frequencies;
use exa_comm::{ReduceKind, World};
use exa_obs::{Component, ReplicaDivergence};
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::Tree;
use exa_phylo::{GradientMode, KernelKind, SiteRepeats, ThreadCount};
use exa_search::{BranchMode, Modes};
use exa_simgen::workloads;
use examl_core::{Allreduce, DecentralizedEvaluator};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How the odd rank's modes differ from the others'.
type Move = fn(&mut Modes);

/// One row per fingerprinted mode: how the odd rank moves from the others'
/// modes (scalar kernels, repeats on, fast sums, one thread, gradient on,
/// batched), and where it sits in a three-rank world (each position is the
/// minority at least once).
#[rustfmt::skip]
const ODD: [(&str, Move, usize); 5] = [
    ("kernel", |m| m.kernel = KernelKind::Simd, 1),
    ("site_repeats", |m| m.site_repeats = SiteRepeats::Off, 2),
    ("reduce", |m| m.reduce = ReduceKind::Reproducible, 0),
    ("threads", |m| m.threads = ThreadCount::new(2), 1),
    ("gradient", |m| m.gradient = GradientMode::Off, 2),
];

/// The world of `mode`'s row is refused at its first sentinel sync, naming
/// the odd rank alone.
pub fn refused(mode: &str) {
    let (_, set, at) = *ODD.iter().find(|r| r.0 == mode).expect("a row");
    let base = Modes {
        kernel: KernelKind::Scalar,
        site_repeats: SiteRepeats::On,
        reduce: ReduceKind::Fast,
        threads: ThreadCount::new(1),
        gradient: GradientMode::On,
        batch: true,
    };
    let mut world = [base; 3];
    set(&mut world[at]);
    assert_eq!(minority_at_first_sync(&world), vec![at], "odd {mode}");
}

/// The ranks the pre-search sentinel sync names when rank `r` computes with
/// `modes[r]`. Every rank must report the same diagnostic: the mode
/// component alone, at sync #1 and collective #0 — before any sum counts.
fn minority_at_first_sync(modes: &[Modes]) -> Vec<usize> {
    let w = workloads::partitioned(8, 2, 60, 41);
    let aln = &w.compressed;
    let freqs = global_frequencies(aln);
    let assignments = exa_sched::distribute(aln, modes.len(), exa_sched::Strategy::Cyclic);
    let verdicts = World::run(modes.len(), |rank| {
        let m = &modes[rank.id()];
        let spec = exa_sched::EngineSpec {
            rate_model: RateModelKind::Gamma,
            kernel: m.kernel,
            site_repeats: m.site_repeats,
            threads: m.threads.get(),
            batch: m.batch,
        };
        let engine = exa_sched::build_engine(aln, &assignments[rank.id()], &freqs, &spec, None);
        let mut exchange = Allreduce::new(rank.clone());
        exchange.set_sentinel(1, None);
        let tree = Tree::random(aln.n_taxa(), 1, 5);
        let mut eval = DecentralizedEvaluator::with_exchange(
            exchange,
            tree,
            engine,
            aln.n_partitions(),
            BranchMode::Joint,
        )
        .with_modes(m);
        let sync = catch_unwind(AssertUnwindSafe(|| {
            Allreduce::initial_sentinel_sync(&mut eval)
        }));
        let payload = sync.expect_err("a mixed world must not pass the first sync");
        *payload
            .downcast::<ReplicaDivergence>()
            .expect("the sentinel's diagnostic")
    });
    for d in &verdicts {
        assert_eq!(d.components, vec![Component::KernelBackend], "{d}");
        assert_eq!((d.sync_index, d.collective_index), (1, 0), "{d}");
        assert_eq!(d.minority_ranks, verdicts[0].minority_ranks, "{d}");
    }
    verdicts[0].minority_ranks.clone()
}

//! Op-level tests of the one evaluator under its three exchanges — no
//! exchange (sequential), allreduce between replicas (de-centralized), and
//! broadcast + reduce-to-master (fork-join) — inside small rank worlds.

use exa_bio::stats::global_frequencies;
use exa_comm::{CommCategory, Rank, ReduceKind, World};
use exa_forkjoin::{ForkJoinEvaluator, ToMaster};
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::Tree;
use exa_phylo::{Engine, GradientMode, KernelChoice, SiteRepeats};
use exa_sched::build_engine;
use exa_search::evaluator::{
    per_edge_full_gradient, BranchMode, Evaluator, FullGradient, SequentialEvaluator,
};
use exa_simgen::workloads;
use examl_core::{Allreduce, DecentralizedEvaluator};
use std::sync::Arc;

/// Which exchange an op script runs under, and over how many ranks.
#[derive(Debug, Clone, Copy)]
enum Scheme {
    Sequential,
    /// `n` replicas, every one of them runs the script.
    Allreduce(usize),
    /// Rank 0 runs the script; `n - 1` workers execute its commands.
    ForkJoin(usize),
}

/// Evaluator configuration shared by every rank of a scheme run.
#[derive(Debug, Clone, Copy)]
struct Setup {
    mode: BranchMode,
    reduce: ReduceKind,
    gradient: GradientMode,
    tree_seed: u64,
}

impl Setup {
    fn joint(tree_seed: u64) -> Setup {
        Setup {
            mode: BranchMode::Joint,
            reduce: ReduceKind::Fast,
            gradient: GradientMode::Off,
            tree_seed,
        }
    }
}

fn rank_engine(w: &workloads::Workload, n_ranks: usize, id: usize) -> Engine {
    let aln = &w.compressed;
    let assignments = exa_sched::distribute(aln, n_ranks, exa_sched::Strategy::Cyclic);
    build_engine(
        aln,
        &assignments[id],
        &global_frequencies(aln),
        &exa_sched::EngineSpec::new(
            RateModelKind::Gamma,
            KernelChoice::Auto.resolve_local(),
            SiteRepeats::On,
        ),
        None,
    )
}

/// Run `script` on an evaluator of the given scheme; one result per rank
/// that runs search logic (1 sequentially and under fork-join, `n` under
/// allreduce). The rank handle lets scripts read comm statistics.
fn run_scheme<T: Send>(
    scheme: Scheme,
    w: &Arc<workloads::Workload>,
    setup: Setup,
    script: impl Fn(&mut dyn Evaluator, Option<&Rank>) -> T + Sync,
) -> Vec<T> {
    let p = w.compressed.n_partitions();
    let blens = match setup.mode {
        BranchMode::Joint => 1,
        BranchMode::PerPartition => p,
    };
    let tree = || Tree::random(w.compressed.n_taxa(), blens, setup.tree_seed);
    match scheme {
        Scheme::Sequential => {
            let mut eval = SequentialEvaluator::new(tree(), rank_engine(w, 1, 0), p, setup.mode)
                .with_reduce(setup.reduce)
                .with_gradient(setup.gradient);
            vec![script(&mut eval, None)]
        }
        Scheme::Allreduce(n) => World::run(n, |rank| {
            let mut eval = DecentralizedEvaluator::with_exchange(
                Allreduce::new(rank.clone()),
                tree(),
                rank_engine(w, n, rank.id()),
                p,
                setup.mode,
            )
            .with_reduce(setup.reduce)
            .with_gradient(setup.gradient);
            script(&mut eval, Some(&rank))
        }),
        Scheme::ForkJoin(n) => World::run(n, |rank| {
            let engine = rank_engine(w, n, rank.id());
            if rank.id() != 0 {
                let assignments =
                    exa_sched::distribute(&w.compressed, n, exa_sched::Strategy::Cyclic);
                exa_forkjoin::worker::worker_loop(
                    rank.clone(),
                    engine,
                    setup.mode,
                    p,
                    setup.reduce,
                    &assignments[rank.id()],
                    &w.compressed,
                );
                return None;
            }
            let mut eval = ForkJoinEvaluator::with_exchange(
                ToMaster::new(rank.clone()),
                tree(),
                engine,
                p,
                setup.mode,
            )
            .with_reduce(setup.reduce)
            .with_gradient(setup.gradient);
            let result = script(&mut eval, Some(&rank));
            eval.exchange_mut().shutdown_workers();
            Some(result)
        })
        .into_iter()
        .flatten()
        .collect(),
    }
}

const ALL_SCHEMES: [Scheme; 3] = [
    Scheme::Sequential,
    Scheme::Allreduce(3),
    Scheme::ForkJoin(3),
];

#[test]
fn distributed_evaluate_matches_sequential_bitwise_per_rank() {
    let w = Arc::new(workloads::partitioned(7, 2, 80, 3));
    let setup = Setup::joint(5);
    let evaluate = |e: &mut dyn Evaluator, _: Option<&Rank>| e.evaluate(0);
    let expect = run_scheme(Scheme::Sequential, &w, setup, evaluate)[0];

    for scheme in [
        Scheme::Allreduce(2),
        Scheme::Allreduce(3),
        Scheme::ForkJoin(3),
    ] {
        let results = run_scheme(scheme, &w, setup, evaluate);
        // All ranks bit-identical with each other.
        for pair in results.windows(2) {
            assert_eq!(pair[0].to_bits(), pair[1].to_bits());
        }
        // And numerically equal to the sequential value (summation order
        // differs across rank counts, so allow float-level tolerance).
        assert!(
            (results[0] - expect).abs() < 1e-8,
            "{scheme:?}: {} vs {expect}",
            results[0]
        );
    }

    // The reproducible reduction removes even that tolerance: the reduced
    // bits depend on neither the scheme nor the split.
    let setup = Setup {
        reduce: ReduceKind::Reproducible,
        ..setup
    };
    let expect = run_scheme(Scheme::Sequential, &w, setup, evaluate)[0];
    for scheme in [
        Scheme::Allreduce(2),
        Scheme::Allreduce(3),
        Scheme::ForkJoin(3),
    ] {
        for lnl in run_scheme(scheme, &w, setup, evaluate) {
            assert_eq!(lnl.to_bits(), expect.to_bits(), "{scheme:?}");
        }
    }
}

#[test]
fn distributed_derivatives_match_sequential() {
    let w = Arc::new(workloads::partitioned(7, 2, 80, 9));
    let setup = Setup::joint(7);
    let derivatives = |e: &mut dyn Evaluator, _: Option<&Rank>| {
        e.prepare_derivatives(2);
        let (d1, d2) = e.derivatives(&[0.15]);
        (d1[0], d2[0])
    };
    let (ed1, ed2) = run_scheme(Scheme::Sequential, &w, setup, derivatives)[0];

    for scheme in [Scheme::Allreduce(3), Scheme::ForkJoin(3)] {
        for (d1, d2) in run_scheme(scheme, &w, setup, derivatives) {
            assert!((d1 - ed1).abs() < 1e-7, "{scheme:?}: {d1} vs {ed1}");
            assert!((d2 - ed2).abs() < 1e-6, "{scheme:?}: {d2} vs {ed2}");
        }
    }
}

#[test]
fn evaluate_uses_one_double_partitioned_uses_p() {
    // The §III-B wire contract: plain evaluation reduces a single double;
    // only the model-optimization form carries the p-vector. Fork-join
    // reduces the same payloads — and pays a descriptor broadcast on top.
    let w = Arc::new(workloads::partitioned(6, 4, 40, 11));
    for scheme in [Scheme::Allreduce(2), Scheme::ForkJoin(2)] {
        let results = run_scheme(scheme, &w, Setup::joint(3), |eval, rank| {
            let rank = rank.expect("rank schemes only");
            let lnl_bytes = || rank.stats().get(CommCategory::SiteLikelihoods).bytes;
            rank.reset_stats();
            let _ = eval.evaluate(0);
            let after_plain = lnl_bytes();
            let _ = eval.evaluate_partitioned(0);
            let descriptors = rank.stats().get(CommCategory::TraversalDescriptor).bytes;
            (after_plain, lnl_bytes() - after_plain, descriptors)
        });
        let (plain, partitioned, descriptors) = results[0];
        assert_eq!(plain, 8, "plain evaluate must reduce exactly one double");
        assert_eq!(partitioned, 8 * 4, "partitioned evaluate carries p doubles");
        assert_eq!(
            descriptors > 0,
            matches!(scheme, Scheme::ForkJoin(_)),
            "{scheme:?}: only fork-join broadcasts descriptors"
        );
    }
}

#[test]
fn snapshot_restore_in_rank_world() {
    let w = Arc::new(workloads::partitioned(6, 2, 60, 17));
    for scheme in [
        Scheme::Sequential,
        Scheme::Allreduce(2),
        Scheme::ForkJoin(3),
    ] {
        let results = run_scheme(scheme, &w, Setup::joint(3), |eval, _| {
            eval.set_alphas(&[0.4, 2.0]);
            let before = eval.evaluate(0);
            let snap = eval.snapshot();
            eval.set_alphas(&[1.0, 1.0]);
            eval.tree_mut().set_length(0, 0, 1.3);
            let perturbed = eval.evaluate(0);
            eval.restore(&snap);
            let restored = eval.evaluate(0);
            (before, perturbed, restored)
        });
        for &(before, perturbed, restored) in &results {
            assert_ne!(before.to_bits(), perturbed.to_bits(), "{scheme:?}");
            assert!(
                (before - restored).abs() < 1e-9,
                "{scheme:?}: {before} vs {restored}"
            );
        }
    }
}

fn bits(g: &[Vec<f64>]) -> Vec<Vec<u64>> {
    g.iter()
        .map(|e| e.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// `full_gradient` under `setup` (one sweep) next to the per-edge oracle on
/// the same evaluator, per search rank: asserts equal bits, one collective
/// against one per edge, and returns the pairs.
fn sweep_and_oracle(
    scheme: Scheme,
    w: &Arc<workloads::Workload>,
    setup: Setup,
) -> Vec<(FullGradient, FullGradient)> {
    let results = run_scheme(scheme, w, setup, |eval, _| {
        (eval.full_gradient(), per_edge_full_gradient(eval))
    });
    let what = format!("{scheme:?} {:?} {:?}", setup.reduce, setup.mode);
    let n_edges = 2 * w.compressed.n_taxa() - 3;
    for (swept, oracle) in &results {
        assert!(swept.swept && !oracle.swept, "{what}");
        assert_eq!(oracle.collectives, n_edges as u64, "{what}");
        let expected = u64::from(!matches!(scheme, Scheme::Sequential));
        assert_eq!(swept.collectives, expected, "{what}");
        assert_eq!(swept.d1.len(), n_edges, "{what}");
        assert_eq!(bits(&swept.d1), bits(&oracle.d1), "{what}: d1");
        assert_eq!(bits(&swept.d2), bits(&oracle.d2), "{what}: d2");
    }
    results
}

#[test]
fn full_gradient_matches_the_per_edge_oracle_bitwise() {
    // One sweep + one fat reduction must reproduce, entry for entry and bit
    // for bit, what `n_edges` prepare/derivative rounds give — under every
    // exchange, both reductions and both branch modes.
    let w = Arc::new(workloads::partitioned(7, 3, 60, 21));
    for scheme in ALL_SCHEMES {
        for reduce in [ReduceKind::Fast, ReduceKind::Reproducible] {
            for mode in [BranchMode::Joint, BranchMode::PerPartition] {
                let setup = Setup {
                    mode,
                    reduce,
                    gradient: GradientMode::On,
                    tree_seed: 13,
                };
                let results = sweep_and_oracle(scheme, &w, setup);
                let what = format!("{scheme:?} {reduce:?} {mode:?}");
                // Reproducible sums do not depend on the scheme either.
                if reduce == ReduceKind::Reproducible {
                    let seq = run_scheme(Scheme::Sequential, &w, setup, |eval, _| {
                        eval.full_gradient().d1
                    });
                    assert_eq!(
                        bits(&results[0].0.d1),
                        bits(&seq[0]),
                        "{what}: vs sequential"
                    );
                }
            }
        }
    }
    // 64 taxa: 125 per-edge collectives per Newton round become one, and a
    // smoothing pass ends on the same lnL bits whichever route it takes.
    let w = Arc::new(workloads::partitioned(64, 2, 40, 7));
    let mut setup = Setup {
        mode: BranchMode::Joint,
        reduce: ReduceKind::Reproducible,
        gradient: GradientMode::On,
        tree_seed: 5,
    };
    for scheme in [Scheme::Allreduce(2), Scheme::ForkJoin(2)] {
        for (swept, oracle) in sweep_and_oracle(scheme, &w, setup) {
            assert_eq!((oracle.collectives, swept.collectives), (125, 1));
        }
    }
    let smoothed_lnl = |setup| {
        run_scheme(Scheme::Allreduce(2), &w, setup, |eval, _| {
            exa_search::branch::smooth_all(eval, 1);
            eval.evaluate(0).to_bits()
        })
    };
    let on = smoothed_lnl(setup);
    setup.gradient = GradientMode::Off;
    assert_eq!(on, smoothed_lnl(setup), "lnL after one smoothing pass");
}

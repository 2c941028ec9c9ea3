//! Per-layer probes: each times public calls of one crate on the
//! workload's own data, so a number here names the layer that moved.

use crate::search_wl::engine_spec;
use crate::stats;
use exa_bio::patterns::CompressedAlignment;
use exa_comm::{BinnedSum, CommCategory, World};
use exa_phylo::engine::{Engine, KernelKind};
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::traversal::TraversalDescriptor;
use exa_phylo::tree::Tree;
use exa_search::evaluator::{BranchMode, Evaluator, SequentialEvaluator};
use examl_core::RunConfig;
use std::collections::BTreeMap;
use std::time::Instant;

pub type Metrics = BTreeMap<String, f64>;

/// Best of `reps` timings of `f`, in seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::min(&samples)
}

const KERNEL_REPS: usize = 5;

/// Rank 0's engine of a two-rank distribution: the slice shape the gated
/// run's kernels actually see.
fn rank0_engine(
    aln: &CompressedAlignment,
    cfg: &RunConfig,
    rate_model: RateModelKind,
    kernel: KernelKind,
) -> Engine {
    let assignments = exa_sched::distribute(aln, cfg.n_ranks, cfg.strategy);
    let freqs = exa_bio::stats::global_frequencies(aln);
    let mut spec = engine_spec(cfg);
    spec.rate_model = rate_model;
    spec.kernel = kernel;
    exa_sched::build_engine(aln, &assignments[0], &freqs, &spec, None)
}

/// Bytes one full traversal reads and writes, computed from CLV sizes (a
/// tip child is one code byte per pattern, an inner child a full CLV). It
/// ignores cache misses and repeat compression — a yardstick, not a
/// measurement of traffic.
fn traversal_bytes(d: &TraversalDescriptor, n_taxa: usize, patterns: usize, cats: usize) -> f64 {
    let clv = (patterns * cats * 4 * 8) as f64;
    let child = |node: usize| if node < n_taxa { patterns as f64 } else { clv };
    d.entries
        .iter()
        .map(|e| clv + child(e.left) + child(e.right))
        .sum()
}

/// `phylo.*`: kernels in ns per CLV entry (pattern × rate category, logical
/// entries — what repeat compression skips still counts as produced).
pub fn phylo(aln: &CompressedAlignment, cfg: &RunConfig, out: &mut Metrics) {
    let n_taxa = aln.n_taxa();
    let mut tree = Tree::random(n_taxa, 1, 5);
    let d = tree.full_traversal_descriptor(0);
    let plan = tree.gradient_plan(0);
    let simd = engine_spec(cfg).kernel;

    let mut e = rank0_engine(aln, cfg, RateModelKind::Gamma, simd);
    e.execute(&d);
    e.reset_work();
    e.execute(&d);
    let w = e.work();
    let newview_entries = (w.clv_updates + w.clv_saved) as f64;
    let dispatches = w.dispatches as f64;
    let t_newview = best_of(KERNEL_REPS, || e.execute(&d));
    out.insert(
        "phylo.newview_ns_per_entry".into(),
        t_newview * 1e9 / newview_entries,
    );
    out.insert("phylo.traversal_ms".into(), t_newview * 1e3);
    out.insert("phylo.ns_per_dispatch".into(), t_newview * 1e9 / dispatches);
    let bytes = traversal_bytes(&d, n_taxa, e.total_patterns(), 4);
    out.insert(
        "phylo.newview_gb_s_computed".into(),
        bytes / t_newview * 1e-9,
    );

    e.reset_work();
    std::hint::black_box(e.evaluate(&d));
    let eval_entries = e.work().eval_patterns as f64;
    let t_eval = best_of(KERNEL_REPS, || {
        std::hint::black_box(e.evaluate(&d));
    });
    out.insert(
        "phylo.evaluate_ns_per_entry".into(),
        t_eval * 1e9 / eval_entries,
    );

    e.prepare_derivatives(&d);
    e.reset_work();
    std::hint::black_box(e.derivatives(&[0.13]));
    let deriv_entries = e.work().deriv_patterns as f64;
    let t_deriv = best_of(KERNEL_REPS, || {
        std::hint::black_box(e.derivatives(&[0.13]));
    });
    out.insert(
        "phylo.derivatives_ns_per_entry".into(),
        t_deriv * 1e9 / deriv_entries,
    );

    e.reset_work();
    std::hint::black_box(e.edge_gradient(&plan));
    let sweep_entries = e.work().deriv_patterns as f64;
    let t_sweep = best_of(KERNEL_REPS, || {
        std::hint::black_box(e.edge_gradient(&plan));
    });
    out.insert(
        "phylo.gradient_sweep_ns_per_entry".into(),
        t_sweep * 1e9 / sweep_entries,
    );

    // The same traversal on a two-thread pool: t1 / (2 · t2).
    e.set_threads(2);
    e.execute(&d);
    let t2 = best_of(KERNEL_REPS, || e.execute(&d));
    out.insert("phylo.pool_efficiency_t2".into(), t_newview / (2.0 * t2));
    drop(e);

    let mut scalar = rank0_engine(aln, cfg, RateModelKind::Gamma, KernelKind::Scalar);
    scalar.execute(&d);
    let t_scalar = best_of(KERNEL_REPS, || scalar.execute(&d));
    out.insert(
        "phylo.newview_scalar_ns_per_entry".into(),
        t_scalar * 1e9 / newview_entries,
    );
    drop(scalar);

    let mut psr = rank0_engine(aln, cfg, RateModelKind::Psr, simd);
    psr.execute(&d);
    psr.reset_work();
    psr.execute(&d);
    let w = psr.work();
    let psr_entries = (w.clv_updates + w.clv_saved) as f64;
    let t_psr = best_of(KERNEL_REPS, || psr.execute(&d));
    out.insert(
        "phylo.psr_newview_ns_per_entry".into(),
        t_psr * 1e9 / psr_entries,
    );
    psr.reset_work();
    std::hint::black_box(psr.optimize_site_rates(&d));
    let rate_patterns = psr.work().site_rate_patterns as f64;
    let t_rates = best_of(3, || {
        std::hint::black_box(psr.optimize_site_rates(&d));
    });
    out.insert(
        "phylo.site_rates_ns_per_pattern".into(),
        t_rates * 1e9 / rate_patterns,
    );
}

/// Calls of the small-payload collectives (a tenth of it under `--quick`).
const COMM_CALLS: usize = 10_000;
const COMM_BATCHES: usize = 4;

/// Mean µs per call of `op` on a two-rank world: the best of
/// `COMM_BATCHES` batches that together make `calls` calls, as rank 0
/// timed them (every rank leaves a collective together).
fn collective_us(calls: usize, op: impl Fn(&exa_comm::Rank) + Sync) -> f64 {
    let per_batch = calls / COMM_BATCHES;
    let per_rank = World::run(2, |rank| {
        for _ in 0..200 {
            op(&rank);
        }
        (0..COMM_BATCHES)
            .map(|_| {
                rank.barrier(CommCategory::Control).expect("barrier");
                let t0 = Instant::now();
                for _ in 0..per_batch {
                    op(&rank);
                }
                t0.elapsed().as_secs_f64() * 1e6 / per_batch as f64
            })
            .fold(f64::INFINITY, f64::min)
    });
    per_rank[0]
}

/// `comm.*`: collective latency by payload on the in-process two-rank
/// world. `fat_doubles` is the all-edge gradient payload of this workload
/// (2 × edges × partitions).
pub fn comm(fat_doubles: usize, quick: bool, out: &mut Metrics) {
    let calls = if quick { COMM_CALLS / 10 } else { COMM_CALLS };
    let allreduce = |n: usize, calls: usize| {
        collective_us(calls, move |rank| {
            let mut buf = vec![1.0f64; n];
            rank.allreduce_sum(&mut buf, CommCategory::SiteLikelihoods)
                .expect("allreduce");
            std::hint::black_box(&buf);
        })
    };
    out.insert("comm.allreduce_24B_us".into(), allreduce(3, calls));
    out.insert("comm.allreduce_8kB_us".into(), allreduce(1024, calls / 2));
    out.insert(
        "comm.allreduce_fat_us".into(),
        allreduce(fat_doubles, calls / 4),
    );
    out.insert(
        "comm.allreduce_binned_24B_us".into(),
        collective_us(calls, |rank| {
            let bins: Vec<BinnedSum> = (0..3)
                .map(|i| {
                    let mut b = BinnedSum::new();
                    b.add(1.0 + i as f64);
                    b
                })
                .collect();
            let sums = rank
                .collective(CommCategory::SiteLikelihoods)
                .allreduce_binned(bins)
                .expect("binned allreduce");
            std::hint::black_box(sums);
        }),
    );
    out.insert(
        "comm.barrier_us".into(),
        collective_us(calls, |rank| {
            rank.barrier(CommCategory::Control).expect("barrier");
        }),
    );
    out.insert(
        "comm.broadcast_8kB_us".into(),
        collective_us(calls / 2, |rank| {
            let mut buf = if rank.id() == 0 {
                vec![7u8; 8192]
            } else {
                Vec::new()
            };
            rank.broadcast_bytes(0, &mut buf, CommCategory::TraversalDescriptor)
                .expect("broadcast");
            std::hint::black_box(&buf);
        }),
    );
}

/// `search.*`: the search phases on one rank holding all the data, timed
/// around the public phase functions (one shot each: an SPR round costs
/// about as much as a whole gated repetition).
pub fn search(aln: &CompressedAlignment, cfg: &RunConfig, out: &mut Metrics) {
    let t0 = Instant::now();
    let data = exa_search::parsimony::ParsimonyData::from_compressed(aln);
    let start = exa_search::parsimony::parsimony_tree(&data, 1, cfg.seed);
    out.insert(
        "search.parsimony_tree_ms".into(),
        t0.elapsed().as_secs_f64() * 1e3,
    );
    drop(start);

    let freqs = exa_bio::stats::global_frequencies(aln);
    let whole = exa_sched::distribute(aln, 1, cfg.strategy);
    let engine = exa_sched::build_engine(aln, &whole[0], &freqs, &engine_spec(cfg), None);
    let tree = exa_search::build_starting_tree(aln, &cfg.starting_tree, 1, cfg.seed);
    let mut eval = SequentialEvaluator::new(tree, engine, aln.n_partitions(), BranchMode::Joint)
        .with_gradient(cfg.gradient.resolve_local());

    let t0 = Instant::now();
    exa_search::branch::smooth_all(&mut eval, 1);
    out.insert(
        "search.smooth_pass_ms".into(),
        t0.elapsed().as_secs_f64() * 1e3,
    );

    let t0 = Instant::now();
    let lnl = exa_search::model::optimize_model(&mut eval, cfg.search.model_tol).lnl;
    out.insert(
        "search.optimize_model_ms".into(),
        t0.elapsed().as_secs_f64() * 1e3,
    );

    let t0 = Instant::now();
    let spr = exa_search::spr::spr_round(&mut eval, cfg.search.spr_radius, lnl, 0.01);
    out.insert(
        "search.spr_round_ms".into(),
        t0.elapsed().as_secs_f64() * 1e3,
    );
    assert!(
        spr.lnl.is_finite() && eval.evaluate(0).is_finite(),
        "search probe left a non-finite likelihood"
    );
}

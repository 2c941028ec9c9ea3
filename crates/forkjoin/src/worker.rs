//! The worker loop: §III-A's tree-agnostic kernel executor.
//!
//! "The worker processes are agnostic regarding the semantics of the tree
//! search and only execute one of the three likelihood functions […] on the
//! fraction of the data that has been assigned to them."

use crate::protocol::{decode, encode_site_rate_capture, WorkerCmd};
use exa_bio::patterns::CompressedAlignment;
use exa_comm::{BinnedSum, CommCategory, Rank, ReduceKind};
use exa_phylo::engine::{Engine, WorkCounters};
use exa_phylo::tree::traversal::TraversalDescriptor;
use exa_search::BranchMode;

/// Cached handle for the worker-pool command counter: one relaxed atomic
/// add per broadcast command once resolved.
fn commands_counter() -> &'static std::sync::Arc<exa_obs::metrics::Counter> {
    static HANDLE: std::sync::OnceLock<std::sync::Arc<exa_obs::metrics::Counter>> =
        std::sync::OnceLock::new();
    HANDLE.get_or_init(|| {
        exa_obs::metrics::global().counter(
            "exa_forkjoin_commands_total",
            "Master commands executed by fork-join workers, summed over workers.",
            &[],
        )
    })
}

/// Run the worker until the master broadcasts `Shutdown`. Returns the
/// worker's kernel-work counters and CLV memory footprint. The worker's
/// data `assignment` (and the alignment) are needed for the checkpoint
/// commands, which translate local PSR rates to/from global pattern
/// indices.
pub fn worker_loop(
    rank: Rank,
    mut engine: Engine,
    branch_mode: BranchMode,
    n_partitions: usize,
    reduce: ReduceKind,
    assignment: &exa_sched::RankAssignment,
    aln: &CompressedAlignment,
) -> (WorkCounters, u64) {
    // Local → global partition slots, fixed for the life of the engine.
    let globals = engine.global_indices();
    loop {
        let mut buf = Vec::new();
        rank.broadcast_bytes(0, &mut buf, CommCategory::TraversalDescriptor)
            .expect("fork-join has no failure recovery (master is a single point of failure)");
        let cmd = decode(&buf).expect("malformed master command");
        if exa_obs::metrics::enabled() {
            commands_counter().inc();
        }
        match cmd {
            WorkerCmd::Evaluate(d) => {
                engine.execute(&d);
                match reduce {
                    ReduceKind::Fast => {
                        let per_local = engine.evaluate(&d);
                        let mut total = [per_local.iter().sum::<f64>()];
                        rank.reduce_sum(0, &mut total, CommCategory::SiteLikelihoods)
                            .expect("reduce failed");
                    }
                    ReduceKind::Reproducible => {
                        let bins = evaluate_bins(&mut engine, &globals, &d, 1);
                        rank.collective(CommCategory::SiteLikelihoods)
                            .reduce_binned(bins)
                            .expect("reduce failed");
                    }
                }
            }
            WorkerCmd::EvaluatePartitioned(d) => {
                engine.execute(&d);
                match reduce {
                    ReduceKind::Fast => {
                        let per_local = engine.evaluate(&d);
                        let mut lnls = vec![0.0; n_partitions];
                        for (local, &global) in globals.iter().enumerate() {
                            lnls[global] += per_local[local];
                        }
                        rank.reduce_sum(0, &mut lnls, CommCategory::SiteLikelihoods)
                            .expect("reduce failed");
                    }
                    ReduceKind::Reproducible => {
                        let bins = evaluate_bins(&mut engine, &globals, &d, n_partitions);
                        rank.collective(CommCategory::SiteLikelihoods)
                            .reduce_binned(bins)
                            .expect("reduce failed");
                    }
                }
            }
            WorkerCmd::PrepareDerivatives(d) => {
                engine.execute(&d);
                engine.prepare_derivatives(&d);
            }
            WorkerCmd::Derivatives(lengths) => match reduce {
                ReduceKind::Fast => {
                    let (d1, d2) = engine.derivatives(&lengths);
                    let mut buf = derivative_buffer(&globals, branch_mode, n_partitions, &d1, &d2);
                    rank.reduce_sum(0, &mut buf, CommCategory::BranchLength)
                        .expect("reduce failed");
                }
                ReduceKind::Reproducible => {
                    let bins =
                        derivative_bins(&mut engine, &globals, branch_mode, n_partitions, &lengths);
                    rank.collective(CommCategory::BranchLength)
                        .reduce_binned(bins)
                        .expect("reduce failed");
                }
            },
            WorkerCmd::SetAlphas(alphas) => {
                for (local, &global) in globals.iter().enumerate() {
                    engine.set_alpha(local, alphas[global]);
                }
            }
            WorkerCmd::SetGtrRate { index, values } => {
                for (local, &global) in globals.iter().enumerate() {
                    engine.set_gtr_rate(local, index as usize, values[global]);
                }
            }
            WorkerCmd::OptimizeSiteRates(d) => {
                engine.execute(&d);
                match reduce {
                    ReduceKind::Fast => {
                        let (num, den) = engine.optimize_site_rates(&d);
                        let mut buf = [num, den];
                        rank.reduce_sum(0, &mut buf, CommCategory::ModelParams)
                            .expect("reduce failed");
                    }
                    ReduceKind::Reproducible => {
                        let bins = site_rate_bins(&mut engine, &d);
                        rank.collective(CommCategory::ModelParams)
                            .reduce_binned(bins)
                            .expect("reduce failed");
                    }
                }
            }
            WorkerCmd::SetPsrScale(scale) => {
                engine.finalize_site_rates(scale);
            }
            WorkerCmd::GatherSiteRates => {
                let local = exa_sched::capture_site_rates(&engine, assignment, aln);
                let blob = encode_site_rate_capture(&local);
                rank.gather_bytes(0, blob, CommCategory::Control)
                    .expect("site-rate gather failed");
            }
            WorkerCmd::SetSiteRates(table) => {
                exa_sched::apply_site_rates(&mut engine, assignment, aln, &table);
            }
            WorkerCmd::Gradient { descriptor, plan } => {
                engine.execute(&descriptor);
                match reduce {
                    ReduceKind::Fast => {
                        let sweep = engine.edge_gradient(&plan);
                        let mut buf = gradient_buffer(
                            &globals,
                            branch_mode,
                            n_partitions,
                            &sweep,
                            plan.n_edges,
                        );
                        rank.reduce_sum(0, &mut buf, CommCategory::BranchLength)
                            .expect("reduce failed");
                    }
                    ReduceKind::Reproducible => {
                        let bins =
                            gradient_bins(&mut engine, &globals, branch_mode, n_partitions, &plan);
                        rank.collective(CommCategory::BranchLength)
                            .reduce_binned(bins)
                            .expect("reduce failed");
                    }
                }
            }
            WorkerCmd::Shutdown => break,
        }
    }
    let work = engine.work();
    let mem = engine.clv_bytes();
    (work, mem)
}

/// Assemble the superaccumulators for a likelihood evaluation: one bin
/// total (`n_slots = 1`) or one per global partition. Shared with the
/// master so every rank contributes the same layout. The caller must have
/// run `engine.execute(&d)` first.
pub(crate) fn evaluate_bins(
    engine: &mut Engine,
    globals: &[usize],
    d: &TraversalDescriptor,
    n_slots: usize,
) -> Vec<BinnedSum> {
    let mut bins = vec![BinnedSum::new(); n_slots];
    engine.evaluate_with_terms(d, &mut |local, terms| {
        let slot = if n_slots == 1 { 0 } else { globals[local] };
        bins[slot].add_slice(terms);
    });
    bins
}

/// [`derivative_buffer`]'s superaccumulator analogue: the `[d1 | d2]`
/// layout with every slot fed the raw per-site addends.
pub(crate) fn derivative_bins(
    engine: &mut Engine,
    globals: &[usize],
    branch_mode: BranchMode,
    n_partitions: usize,
    lengths: &[f64],
) -> Vec<BinnedSum> {
    let p = match branch_mode {
        BranchMode::Joint => 1,
        BranchMode::PerPartition => n_partitions,
    };
    let mut bins = vec![BinnedSum::new(); 2 * p];
    engine.derivatives_with_terms(lengths, &mut |local, t1, t2| {
        let slot = if p == 1 { 0 } else { globals[local] };
        bins[slot].add_slice(t1);
        bins[p + slot].add_slice(t2);
    });
    bins
}

/// The PSR normalization pair `[numerator, denominator]` as
/// superaccumulators. The caller must have run `engine.execute(&d)` first.
pub(crate) fn site_rate_bins(engine: &mut Engine, d: &TraversalDescriptor) -> Vec<BinnedSum> {
    let mut bins = vec![BinnedSum::new(); 2];
    engine.optimize_site_rates_with_terms(d, &mut |_, tn, td| {
        bins[0].add_slice(tn);
        bins[1].add_slice(td);
    });
    bins
}

/// Assemble the full-tree gradient reduction buffer from a local
/// [`Engine::edge_gradient`] sweep: `[d1 of every edge | d2 of every edge]`
/// with [`derivative_buffer`]'s per-edge slot convention, so each edge's
/// reduced pair carries exactly the bits the per-edge route would have
/// produced. Shared with the master so the wire layout matches exactly.
pub(crate) fn gradient_buffer(
    globals: &[usize],
    branch_mode: BranchMode,
    n_partitions: usize,
    sweep: &[Vec<(f64, f64)>],
    n_edges: usize,
) -> Vec<f64> {
    let p = match branch_mode {
        BranchMode::Joint => 1,
        BranchMode::PerPartition => n_partitions,
    };
    let mut buf = vec![0.0; 2 * p * n_edges];
    match branch_mode {
        BranchMode::Joint => {
            // Same local-partition summation order as `derivative_buffer`.
            for e in 0..n_edges {
                buf[e] = sweep.iter().map(|part| part[e].0).sum();
                buf[n_edges + e] = sweep.iter().map(|part| part[e].1).sum();
            }
        }
        BranchMode::PerPartition => {
            for (local, &global) in globals.iter().enumerate() {
                for (e, &(d1, d2)) in sweep[local].iter().enumerate() {
                    buf[e * p + global] += d1;
                    buf[(n_edges + e) * p + global] += d2;
                }
            }
        }
    }
    buf
}

/// [`gradient_buffer`]'s superaccumulator analogue: `2 · p · n_edges` bins
/// fed the raw per-site addends of every edge. Each slot receives exactly
/// the addend multiset the per-edge [`derivative_bins`] slot would, so the
/// rendered reduction is bitwise identical to `n_edges` separate binned
/// collectives.
pub(crate) fn gradient_bins(
    engine: &mut Engine,
    globals: &[usize],
    branch_mode: BranchMode,
    n_partitions: usize,
    plan: &exa_phylo::tree::traversal::GradientPlan,
) -> Vec<BinnedSum> {
    let p = match branch_mode {
        BranchMode::Joint => 1,
        BranchMode::PerPartition => n_partitions,
    };
    let n_edges = plan.n_edges;
    let mut bins = vec![BinnedSum::new(); 2 * p * n_edges];
    engine.edge_gradient_with_terms(plan, &mut |local, edge, t1, t2| {
        let slot = if p == 1 { 0 } else { globals[local] };
        bins[edge * p + slot].add_slice(t1);
        bins[(n_edges + edge) * p + slot].add_slice(t2);
    });
    bins
}

/// Assemble the derivative reduction buffer (shared with the master so the
/// wire layout matches exactly).
pub(crate) fn derivative_buffer(
    globals: &[usize],
    branch_mode: BranchMode,
    n_partitions: usize,
    d1: &[f64],
    d2: &[f64],
) -> Vec<f64> {
    match branch_mode {
        BranchMode::Joint => vec![d1.iter().sum::<f64>(), d2.iter().sum::<f64>()],
        BranchMode::PerPartition => {
            let mut buf = vec![0.0; 2 * n_partitions];
            for (local, &global) in globals.iter().enumerate() {
                buf[global] += d1[local];
                buf[n_partitions + global] += d2[local];
            }
            buf
        }
    }
}

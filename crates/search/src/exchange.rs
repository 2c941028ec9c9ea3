//! What one rank contributes to each reducing operation, and the seam that
//! moves it between ranks.
//!
//! The paper's schemes run the same kernels and differ only in *who
//! communicates what* (§III-A vs §III-B). [`LocalLikelihood`] is the "what":
//! it turns a kernel call on this rank's data slice into a
//! [`Contribution`] — the wire layout of the reduction — and is the only
//! place those layouts are written down. [`Exchange`] is the "who": the
//! sequential, de-centralized and fork-join schemes are three small
//! implementations of it, and the fork-join worker feeds the same
//! contributions into the same reduce-to-root.
//!
//! Layouts (`p` = 1 under joint branch lengths, `n_partitions` under `-M`):
//!
//! | operation            | slots                                   | category          |
//! |----------------------|-----------------------------------------|-------------------|
//! | evaluate             | 1                                       | `SiteLikelihoods` |
//! | evaluate partitioned | `n_partitions`, by global index         | `SiteLikelihoods` |
//! | derivatives          | `[d1 × p \| d2 × p]`                    | `BranchLength`    |
//! | full-tree gradient   | `[d1 × p × n_edges \| d2 × p × n_edges]`, slot `edge · p + partition` | `BranchLength` |
//! | PSR normalisation    | `[numerator, denominator]`              | `ModelParams`     |
//!
//! Under [`ReduceKind::Fast`] a slot holds this rank's pre-summed f64 — a
//! single-slot total sums the local partitions in **local** order, which is
//! part of the bitwise contract. Under [`ReduceKind::Reproducible`] every
//! slot is a superaccumulator fed the raw per-site addends, so the reduced
//! bits depend on neither the rank count nor the data split.

use crate::evaluator::{BranchMode, ExchangeEvaluator};
use exa_comm::{BinnedSum, CommCategory, ReduceKind};
use exa_phylo::engine::Engine;
use exa_phylo::model::gtr::NUM_FREE_RATES;
use exa_phylo::tree::traversal::{GradientPlan, TraversalDescriptor};

/// One likelihood operation as a tree-less executor needs to hear it,
/// borrowing the evaluator's descriptor / plan / parameter slice. Only the
/// fork-join master announces these (as broadcast commands); the variants
/// are exactly the traffic the de-centralized scheme eliminates.
#[derive(Debug, Clone, Copy)]
pub enum Op<'a> {
    Evaluate(&'a TraversalDescriptor),
    EvaluatePartitioned(&'a TraversalDescriptor),
    PrepareDerivatives(&'a TraversalDescriptor),
    /// Candidate branch length(s) for the prepared edge.
    Derivatives(&'a [f64]),
    /// The orienting descriptor plus the one-pass sweep plan.
    Gradient {
        descriptor: &'a TraversalDescriptor,
        plan: &'a GradientPlan,
    },
    /// Γ shapes of **all** partitions.
    SetAlphas(&'a [f64]),
    /// Free GTR rate `index` of **all** partitions.
    SetGtrRate {
        index: usize,
        values: &'a [f64],
    },
    /// Full descriptor for the data-local PSR rate fit.
    OptimizeSiteRates(&'a TraversalDescriptor),
    /// The globally reduced PSR normalisation scale.
    SetPsrScale(f64),
}

/// One rank's share of a reduction: `out` holds the f64 slots (pre-summed
/// under the fast mode, zeros under the reproducible one, where `bins`
/// carries the superaccumulators instead) and receives the reduced values.
pub struct Contribution<'a> {
    pub bins: Option<Vec<BinnedSum>>,
    pub out: &'a mut [f64],
    /// Table I traffic category the collective is accounted under.
    pub category: CommCategory,
}

/// The communication seam between the shared evaluator and a
/// parallelization scheme.
pub trait Exchange: Sized + 'static {
    /// No peers hold data: the per-partition evaluation costs no more than
    /// the total, so `evaluate` takes that route (and keeps
    /// `last_per_partition` fresh), and a gradient sweep costs no
    /// collective.
    const LOCAL_ONLY: bool = false;

    /// Tell tree-less peers which operation comes next. Replicated and
    /// sequential schemes have nobody to tell.
    fn announce(&mut self, _op: &Op<'_>) {}

    /// Sum the contribution over all ranks and return the reduced slots
    /// (meaningful wherever the scheme's search logic runs).
    fn combine<'a>(&mut self, c: Contribution<'a>) -> &'a [f64];

    /// Called once after every reducing operation, with the reduced state
    /// in place (the de-centralized replica sentinel lives here).
    fn after_collective(_eval: &mut ExchangeEvaluator<Self>) {}
}

/// The sequential "scheme": one engine holds all the data.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoExchange;

impl Exchange for NoExchange {
    const LOCAL_ONLY: bool = true;

    fn combine<'a>(&mut self, c: Contribution<'a>) -> &'a [f64] {
        if let Some(bins) = c.bins {
            for (slot, bin) in c.out.iter_mut().zip(&bins) {
                *slot = bin.render();
            }
        }
        c.out
    }
}

/// This rank's data slice with everything needed to lay out its
/// contributions: the engine, the local → global partition map, and the
/// run's reduction and branch modes. Carries no tree, so fork-join
/// workers drive one straight from decoded commands.
pub struct LocalLikelihood {
    engine: Engine,
    /// `engine.global_indices()`, hoisted: every layout maps local
    /// partitions to global slots.
    globals: Vec<usize>,
    n_partitions: usize,
    branch_mode: BranchMode,
    reduce: ReduceKind,
    /// Reused f64 slot buffer — no allocation per small collective.
    out: Vec<f64>,
}

// The five operations are `#[inline(never)]`: thin LTO otherwise folds each
// of them — and the engine's kernel drivers behind it — into every scheme's
// instantiation of the evaluator, which measured +9 % on in-context
// `newview` time and +4 % on `manypart_gamma`'s wall (EXPERIMENTS.md, "One
// evaluator, three exchanges").
impl LocalLikelihood {
    pub fn new(
        engine: Engine,
        n_partitions: usize,
        branch_mode: BranchMode,
        reduce: ReduceKind,
    ) -> LocalLikelihood {
        LocalLikelihood {
            globals: engine.global_indices(),
            engine,
            n_partitions,
            branch_mode,
            reduce,
            out: Vec::new(),
        }
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Swap in a rebuilt engine (post-failure or resize redistribution).
    pub fn replace_engine(&mut self, engine: Engine) {
        self.globals = engine.global_indices();
        self.engine = engine;
    }

    /// Local → global partition indices.
    pub fn globals(&self) -> &[usize] {
        &self.globals
    }

    /// Number of **global** partitions.
    pub fn n_partitions(&self) -> usize {
        self.n_partitions
    }

    pub fn branch_mode(&self) -> BranchMode {
        self.branch_mode
    }

    pub fn reduce(&self) -> ReduceKind {
        self.reduce
    }

    pub fn set_reduce(&mut self, reduce: ReduceKind) {
        self.reduce = reduce;
    }

    /// Branch lengths per edge: `p` in the layout table.
    pub fn arity(&self) -> usize {
        match self.branch_mode {
            BranchMode::Joint => 1,
            BranchMode::PerPartition => self.n_partitions,
        }
    }

    fn joint(&self) -> bool {
        self.branch_mode == BranchMode::Joint
    }

    /// Zeroed slot buffer of `n` doubles, split-borrowed next to the engine.
    fn slots(&mut self, n: usize) -> (&mut Engine, &[usize], &mut [f64]) {
        self.out.clear();
        self.out.resize(n, 0.0);
        (&mut self.engine, &self.globals, &mut self.out)
    }

    /// Update CLVs along `d` and evaluate at its virtual root: one slot
    /// (the overall log-likelihood — all §III-B replicas need to stay in
    /// lock-step) or, `partitioned`, one per global partition (model
    /// optimization).
    #[inline(never)]
    pub fn evaluate(&mut self, d: &TraversalDescriptor, partitioned: bool) -> Contribution<'_> {
        let reduce = self.reduce;
        let n = if partitioned { self.n_partitions } else { 1 };
        let (engine, globals, out) = self.slots(n);
        engine.refresh(d);
        let bins = match reduce {
            ReduceKind::Fast => {
                let per_local = engine.evaluate(d);
                if partitioned {
                    for (local, &global) in globals.iter().enumerate() {
                        out[global] += per_local[local];
                    }
                } else {
                    out[0] = per_local.iter().sum();
                }
                None
            }
            ReduceKind::Reproducible => {
                let mut bins = vec![BinnedSum::new(); n];
                engine.evaluate_with_terms(d, &mut |local, terms| {
                    bins[if partitioned { globals[local] } else { 0 }].add_slice(terms)
                });
                Some(bins)
            }
        };
        Contribution {
            bins,
            out,
            category: CommCategory::SiteLikelihoods,
        }
    }

    /// CLV updates plus sumtable construction at `d`'s root edge.
    #[inline(never)]
    pub fn prepare_derivatives(&mut self, d: &TraversalDescriptor) {
        self.engine.refresh(d);
        self.engine.prepare_derivatives(d);
    }

    /// First/second derivatives at the prepared edge for candidate
    /// `lengths`: the paper's second allreduce, 2 doubles — `2p` under `-M`
    /// (§IV-D).
    #[inline(never)]
    pub fn derivatives(&mut self, lengths: &[f64]) -> Contribution<'_> {
        let (reduce, joint, p) = (self.reduce, self.joint(), self.arity());
        let (engine, globals, out) = self.slots(2 * p);
        let bins = match reduce {
            ReduceKind::Fast => {
                let (d1, d2) = engine.derivatives(lengths);
                if joint {
                    out[0] = d1.iter().sum();
                    out[1] = d2.iter().sum();
                } else {
                    for (local, &global) in globals.iter().enumerate() {
                        out[global] += d1[local];
                        out[p + global] += d2[local];
                    }
                }
                None
            }
            ReduceKind::Reproducible => {
                let mut bins = vec![BinnedSum::new(); 2 * p];
                engine.derivatives_with_terms(lengths, &mut |local, t1, t2| {
                    let slot = if joint { 0 } else { globals[local] };
                    bins[slot].add_slice(t1);
                    bins[p + slot].add_slice(t2);
                });
                Some(bins)
            }
        };
        Contribution {
            bins,
            out,
            category: CommCategory::BranchLength,
        }
    }

    /// Orient every inward CLV along `d`, then one analytic sweep over
    /// `plan` yields every edge's derivative pair. Each fat slot receives
    /// exactly the per-rank sum (fast) or per-site addends (reproducible)
    /// its [`Self::derivatives`] counterpart would, so one fat reduction is
    /// bitwise identical to `n_edges` per-edge ones.
    #[inline(never)]
    pub fn gradient(&mut self, d: &TraversalDescriptor, plan: &GradientPlan) -> Contribution<'_> {
        let (reduce, joint, p, n_edges) = (self.reduce, self.joint(), self.arity(), plan.n_edges);
        let (engine, globals, out) = self.slots(2 * p * n_edges);
        engine.refresh(d);
        let bins = match reduce {
            ReduceKind::Fast => {
                let sweep = engine.edge_gradient(plan);
                if joint {
                    for e in 0..n_edges {
                        out[e] = sweep.iter().map(|part| part[e].0).sum();
                        out[n_edges + e] = sweep.iter().map(|part| part[e].1).sum();
                    }
                } else {
                    for (local, &global) in globals.iter().enumerate() {
                        for (e, &(d1, d2)) in sweep[local].iter().enumerate() {
                            out[e * p + global] += d1;
                            out[(n_edges + e) * p + global] += d2;
                        }
                    }
                }
                None
            }
            ReduceKind::Reproducible => {
                let mut bins = vec![BinnedSum::new(); 2 * p * n_edges];
                engine.edge_gradient_with_terms(plan, &mut |local, edge, t1, t2| {
                    let slot = if joint { 0 } else { globals[local] };
                    bins[edge * p + slot].add_slice(t1);
                    bins[(n_edges + edge) * p + slot].add_slice(t2);
                });
                Some(bins)
            }
        };
        Contribution {
            bins,
            out,
            category: CommCategory::BranchLength,
        }
    }

    /// Fit PSR per-site rates on local data only; the global normalisation
    /// needs a single 2-double reduction (the paper's "additional MPI calls
    /// to handle the CAT model"). Apply it with
    /// [`Engine::finalize_site_rates`].
    #[inline(never)]
    pub fn optimize_site_rates(&mut self, d: &TraversalDescriptor) -> Contribution<'_> {
        let reduce = self.reduce;
        let (engine, _, out) = self.slots(2);
        engine.refresh(d);
        let bins = match reduce {
            ReduceKind::Fast => {
                let (num, den) = engine.optimize_site_rates(d);
                out.copy_from_slice(&[num, den]);
                None
            }
            ReduceKind::Reproducible => {
                let mut bins = vec![BinnedSum::new(); 2];
                engine.optimize_site_rates_with_terms(d, &mut |_, tn, td| {
                    bins[0].add_slice(tn);
                    bins[1].add_slice(td);
                });
                Some(bins)
            }
        };
        Contribution {
            bins,
            out,
            category: CommCategory::ModelParams,
        }
    }

    /// Install the Γ shapes of all partitions into the local ones.
    pub fn set_alphas(&mut self, alphas: &[f64]) {
        for (local, &global) in self.globals.iter().enumerate() {
            self.engine.set_alpha(local, alphas[global]);
        }
    }

    /// Install free GTR rate `index` of all partitions into the local ones.
    pub fn set_gtr_rate(&mut self, index: usize, values: &[f64]) {
        for (local, &global) in self.globals.iter().enumerate() {
            self.engine.set_gtr_rate(local, index, values[global]);
        }
    }

    /// Push a full replicated parameter set into the local partitions.
    ///
    /// The existing model object is mutated (`set_rates`) rather than
    /// rebuilt with `GtrModel::new`: reconstruction would re-normalize the
    /// already normalized base frequencies, shifting them by an ULP and
    /// making a restored engine bitwise-different from the live engine it
    /// snapshots — which breaks the checkpoint/restart replay guarantee.
    /// `set_rates` also applies the same clamping the in-run
    /// [`Self::set_gtr_rate`] path does.
    pub fn install_params(&mut self, alphas: &[f64], gtr_rates: &[[f64; NUM_FREE_RATES]]) {
        for (local, &global) in self.globals.iter().enumerate() {
            let (mut model, mut rates) = self.engine.model_state(local);
            if let Some(&a) = alphas.get(global) {
                rates.set_alpha(a);
            }
            model.set_rates(&gtr_rates[global]);
            self.engine.set_model_state(local, model, rates);
        }
    }
}

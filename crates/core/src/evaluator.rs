//! The de-centralized evaluator: the search runs *replicated* on every
//! rank; the only communication is the two `MPI_Allreduce`-equivalents the
//! paper inserts into the likelihood-evaluation and derivative routines
//! (§III-B), plus a 2-double reduction for PSR rate normalization.

use crate::sentinel::{DivergenceFault, FaultComponent, Sentinel};
use exa_comm::{BinnedSum, CommCategory, CommError, Rank, ReduceKind};
use exa_obs::{ReplicaDivergence, StateFingerprint};
use exa_phylo::engine::{Engine, GradientMode};
use exa_phylo::model::gtr::NUM_FREE_RATES;
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::{EdgeId, Tree};
use exa_search::evaluator::{
    apply_global_params, per_edge_full_gradient, BranchMode, CommFailurePanic, Evaluator,
    FullGradient, GlobalState,
};

/// Evaluator back-end for one de-centralized rank.
pub struct DecentralizedEvaluator {
    rank: Rank,
    tree: Tree,
    engine: Engine,
    /// `engine.global_indices()`, hoisted: every reduction maps local
    /// partitions to global slots. Refreshed by [`Self::replace_engine`].
    globals: Vec<usize>,
    n_partitions: usize,
    branch_mode: BranchMode,
    /// Replicated model parameters for **all** partitions — every rank
    /// tracks all of them even for partitions it holds no data of, which is
    /// what makes post-failure redistribution trivial.
    alphas: Vec<f64>,
    gtr_rates: Vec<[f64; NUM_FREE_RATES]>,
    last_lnl: Vec<f64>,
    /// Replica-divergence sentinel (disabled unless configured).
    sentinel: Sentinel,
    /// Negotiated collective reduction scheme. Under `Reproducible` every
    /// evaluator collective ships binned superaccumulators instead of
    /// pre-summed f64s, so the reduced bits are invariant under the rank
    /// count and the data split (the elastic-resize prerequisite).
    reduce: ReduceKind,
    /// Negotiated full-tree gradient mode. Under `On` the smoothing pass's
    /// seed derivatives come from one analytic sweep + one fat allreduce
    /// instead of `n_edges` per-edge collectives (bitwise-identical values
    /// either way).
    gradient: GradientMode,
}

impl DecentralizedEvaluator {
    /// Wrap a rank's local engine and the replicated tree.
    pub fn new(
        rank: Rank,
        tree: Tree,
        engine: Engine,
        n_partitions: usize,
        branch_mode: BranchMode,
    ) -> DecentralizedEvaluator {
        let expected = match branch_mode {
            BranchMode::Joint => 1,
            BranchMode::PerPartition => n_partitions,
        };
        assert_eq!(
            tree.blen_count(),
            expected,
            "tree branch-length arity mismatch"
        );
        let alphas = match engine.rate_kind() {
            RateModelKind::Gamma => vec![1.0; n_partitions],
            RateModelKind::Psr => Vec::new(),
        };
        let gtr_rates = vec![[1.0; NUM_FREE_RATES]; n_partitions];
        DecentralizedEvaluator {
            rank,
            tree,
            globals: engine.global_indices(),
            engine,
            n_partitions,
            branch_mode,
            alphas,
            gtr_rates,
            last_lnl: vec![0.0; n_partitions],
            sentinel: Sentinel::disabled(),
            reduce: ReduceKind::Fast,
            gradient: GradientMode::Off,
        }
    }

    /// Install the negotiated reduction scheme (default [`ReduceKind::Fast`],
    /// the classic rank-ordered sum).
    pub fn set_reduce(&mut self, reduce: ReduceKind) {
        self.reduce = reduce;
    }

    /// The reduction scheme in force.
    pub fn reduce(&self) -> ReduceKind {
        self.reduce
    }

    /// Install the negotiated full-tree gradient mode (default
    /// [`GradientMode::Off`], the per-edge derivative route).
    pub fn set_gradient(&mut self, gradient: GradientMode) {
        self.gradient = gradient;
    }

    /// The gradient mode in force.
    pub fn gradient(&self) -> GradientMode {
        self.gradient
    }

    /// Enable the replica-divergence sentinel: exchange and compare state
    /// fingerprints every `cadence` evaluator collectives (0 disables).
    /// `fault` optionally schedules a single-bit corruption (testing).
    pub fn set_sentinel(&mut self, cadence: u64, fault: Option<DivergenceFault>) {
        self.sentinel = Sentinel {
            cadence,
            collectives: 0,
            syncs: 0,
            fault,
        };
    }

    /// Fingerprint syncs completed so far.
    pub fn sentinel_syncs(&self) -> u64 {
        self.sentinel.syncs
    }

    /// The communicator handle.
    pub fn rank(&self) -> &Rank {
        &self.rank
    }

    /// The local engine (work counters, memory accounting).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Replace the local engine after post-failure redistribution, pushing
    /// the replicated model parameters into the fresh local slices. PSR
    /// per-site rates are data-local and reset to 1; the next model-
    /// optimization round re-fits them (documented recovery semantics).
    pub fn replace_engine(&mut self, engine: Engine) {
        self.globals = engine.global_indices();
        self.engine = engine;
        let state = self.snapshot();
        apply_global_params(&mut self.engine, &state);
        self.tree.invalidate_all();
    }

    fn comm_ok<T>(&self, r: Result<T, CommError>) -> T {
        match r {
            Ok(v) => v,
            Err(CommError::RanksFailed(set)) => std::panic::panic_any(CommFailurePanic {
                failed_ranks: set.into_iter().collect(),
            }),
        }
    }

    /// Sentinel hook, called after every evaluator collective. Because all
    /// replicas execute the identical collective sequence, their counters
    /// advance in lock-step and every rank reaches a sync at the same
    /// point — the fingerprint allgather is itself a collective and needs
    /// this alignment.
    fn after_collective(&mut self) {
        let sync = self.sentinel.tick();
        if let Some(f) = self.sentinel.due_fault(self.rank.id()) {
            self.inject(f.component);
        }
        if !sync {
            return;
        }
        self.sync_fingerprints();
    }

    /// One fingerprint sync at evaluator setup, before the search's first
    /// collective. Most capability mismatches are benign until their first
    /// *differing* collective, but a mixed gradient-mode world runs
    /// different collective **sequences** — one fat reduction vs one per
    /// edge — and the very first smoothing collective of the run would
    /// desynchronize the world (a length-mismatch panic deep in the comm
    /// layer, or a deadlock) before any post-collective sync could fire.
    /// Syncing once up front turns that crash into the sentinel's ordinary
    /// minority-report diagnostic at sync #1. No-op while disabled.
    pub fn initial_sentinel_sync(&mut self) {
        if self.sentinel.cadence == 0 {
            return;
        }
        self.sync_fingerprints();
    }

    /// The sync body: allgather state fingerprints, compare live replicas,
    /// panic with a [`ReplicaDivergence`] on every rank when a minority
    /// disagrees.
    fn sync_fingerprints(&mut self) {
        self.sentinel.syncs += 1;
        let fp = self.state_fingerprint();
        let r = self
            .rank
            .allgather_bytes(fp.to_bytes().to_vec(), CommCategory::Control);
        let blobs = self.comm_ok(r);
        // Failed ranks contribute empty slots; compare only live replicas,
        // remembering their true rank ids.
        let mut ids = Vec::new();
        let mut fps = Vec::new();
        for (rank_id, blob) in blobs.iter().enumerate() {
            if let Some(fp) = StateFingerprint::from_bytes(blob) {
                ids.push(rank_id);
                fps.push(fp);
            }
        }
        if let Some((minority, components)) = exa_obs::check_agreement(&fps) {
            let diagnostic = ReplicaDivergence {
                collective_index: self.sentinel.collectives,
                sync_index: self.sentinel.syncs,
                minority_ranks: minority.into_iter().map(|i| ids[i]).collect(),
                components,
            };
            // Every rank computed the identical verdict from the identical
            // allgather result, so every rank panics *here*, simultaneously
            // — no rank is left parked inside a collective and the world
            // unwinds instead of deadlocking.
            std::panic::panic_any(diagnostic);
        }
    }

    /// Apply a scheduled single-bit corruption to this rank's replica.
    fn inject(&mut self, component: FaultComponent) {
        match component {
            FaultComponent::Alpha if !self.alphas.is_empty() => {
                let mut a = self.alphas.clone();
                a[0] = f64::from_bits(a[0].to_bits() ^ 1);
                self.set_alphas(&a);
            }
            // Under PSR there is no α; corrupt a GTR rate instead (still
            // the ModelParams fingerprint component).
            FaultComponent::Alpha => {
                let mut r = self.gtr_rate(0);
                r[0] = f64::from_bits(r[0].to_bits() ^ 1);
                self.set_gtr_rate(0, &r);
            }
            // An LSB mantissa flip preserves the magnitude, so the result
            // stays inside the optimizer's branch-length bounds.
            FaultComponent::BranchLength => {
                let old = self.tree.edge(0).lengths[0];
                self.tree
                    .set_length(0, 0, f64::from_bits(old.to_bits() ^ 1));
            }
        }
    }
}

impl Evaluator for DecentralizedEvaluator {
    fn n_taxa(&self) -> usize {
        self.tree.n_taxa()
    }

    fn n_partitions(&self) -> usize {
        self.n_partitions
    }

    fn branch_mode(&self) -> BranchMode {
        self.branch_mode
    }

    fn rate_kind(&self) -> RateModelKind {
        self.engine.rate_kind()
    }

    fn tree(&self) -> &Tree {
        &self.tree
    }

    fn tree_mut(&mut self) -> &mut Tree {
        &mut self.tree
    }

    fn evaluate(&mut self, edge: EdgeId) -> f64 {
        // Local descriptor — never broadcast (the whole point of the
        // de-centralized scheme) — and ONE allreduce of a single double:
        // the overall log-likelihood is all the replicas need to stay in
        // lock-step (§III-B). Reproducible mode ships one superaccumulator
        // holding the per-site addends instead of the pre-summed double.
        let d = self.tree.traversal_descriptor(edge);
        self.engine.execute(&d);
        let total = match self.reduce {
            ReduceKind::Fast => {
                let per_local = self.engine.evaluate(&d);
                let mut buf = [per_local.iter().sum::<f64>()];
                let r = self
                    .rank
                    .allreduce_sum(&mut buf, CommCategory::SiteLikelihoods);
                self.comm_ok(r);
                buf[0]
            }
            ReduceKind::Reproducible => {
                let mut bin = BinnedSum::new();
                self.engine
                    .evaluate_with_terms(&d, &mut |_, terms| bin.add_slice(terms));
                let r = self
                    .rank
                    .collective(CommCategory::SiteLikelihoods)
                    .allreduce_binned(vec![bin]);
                self.comm_ok(r)[0]
            }
        };
        self.after_collective();
        total
    }

    fn evaluate_partitioned(&mut self, edge: EdgeId) -> f64 {
        // Model optimization needs the per-partition vector: allreduce of
        // p doubles (p superaccumulators under reproducible mode).
        let d = self.tree.traversal_descriptor(edge);
        self.engine.execute(&d);
        self.last_lnl = match self.reduce {
            ReduceKind::Fast => {
                let per_local = self.engine.evaluate(&d);
                let mut buf = vec![0.0; self.n_partitions];
                for (local, &global) in self.globals.iter().enumerate() {
                    buf[global] += per_local[local];
                }
                let r = self
                    .rank
                    .allreduce_sum(&mut buf, CommCategory::SiteLikelihoods);
                self.comm_ok(r);
                buf
            }
            ReduceKind::Reproducible => {
                let globals = &self.globals;
                let mut bins = vec![BinnedSum::new(); self.n_partitions];
                self.engine.evaluate_with_terms(&d, &mut |local, terms| {
                    bins[globals[local]].add_slice(terms)
                });
                let r = self
                    .rank
                    .collective(CommCategory::SiteLikelihoods)
                    .allreduce_binned(bins);
                self.comm_ok(r)
            }
        };
        self.after_collective();
        // Fixed-order local sum of identical inputs → identical totals.
        self.last_lnl.iter().sum()
    }

    fn last_per_partition(&self) -> &[f64] {
        &self.last_lnl
    }

    fn prepare_derivatives(&mut self, edge: EdgeId) {
        let d = self.tree.traversal_descriptor(edge);
        self.engine.execute(&d);
        self.engine.prepare_derivatives(&d);
    }

    fn derivatives(&mut self, lengths: &[f64]) -> (Vec<f64>, Vec<f64>) {
        if self.reduce == ReduceKind::Reproducible {
            // The layout mirrors the fast path ([d1 | d2], joint = 1 slot
            // each, -M = p slots each), but every slot is a superaccumulator
            // fed with the raw per-site addends.
            let p = match self.branch_mode {
                BranchMode::Joint => 1,
                BranchMode::PerPartition => self.n_partitions,
            };
            let globals = &self.globals;
            let mut bins = vec![BinnedSum::new(); 2 * p];
            self.engine
                .derivatives_with_terms(lengths, &mut |local, t1, t2| {
                    let slot = if p == 1 { 0 } else { globals[local] };
                    bins[slot].add_slice(t1);
                    bins[p + slot].add_slice(t2);
                });
            let r = self
                .rank
                .collective(CommCategory::BranchLength)
                .allreduce_binned(bins);
            let buf = self.comm_ok(r);
            self.after_collective();
            return (buf[..p].to_vec(), buf[p..].to_vec());
        }
        let (d1, d2) = self.engine.derivatives(lengths);
        match self.branch_mode {
            BranchMode::Joint => {
                // The paper's second allreduce: 2 doubles.
                let mut buf = [d1.iter().sum::<f64>(), d2.iter().sum::<f64>()];
                let r = self
                    .rank
                    .allreduce_sum(&mut buf, CommCategory::BranchLength);
                self.comm_ok(r);
                self.after_collective();
                (vec![buf[0]], vec![buf[1]])
            }
            BranchMode::PerPartition => {
                // Under -M the message grows to 2p doubles (§IV-D).
                let p = self.n_partitions;
                let mut buf = vec![0.0; 2 * p];
                for (local, &global) in self.globals.iter().enumerate() {
                    buf[global] += d1[local];
                    buf[p + global] += d2[local];
                }
                let r = self
                    .rank
                    .allreduce_sum(&mut buf, CommCategory::BranchLength);
                self.comm_ok(r);
                self.after_collective();
                (buf[..p].to_vec(), buf[p..].to_vec())
            }
        }
    }

    fn full_gradient(&mut self) -> FullGradient {
        if self.gradient == GradientMode::Off {
            return per_edge_full_gradient(self);
        }
        // One analytic sweep over the whole tree, then ONE fat allreduce of
        // `2·p·n_edges` values replacing the `n_edges` per-edge collectives.
        // Each fat slot receives exactly the per-rank contributions (fast)
        // or per-site addends (reproducible) its per-edge counterpart would,
        // so the reduced bits are identical to the per-edge route's.
        let d = self.tree.traversal_descriptor(0);
        self.engine.execute(&d);
        let plan = self.tree.gradient_plan(0);
        let p = match self.branch_mode {
            BranchMode::Joint => 1,
            BranchMode::PerPartition => self.n_partitions,
        };
        let n_edges = plan.n_edges;
        let buf = match self.reduce {
            ReduceKind::Fast => {
                let sweep = self.engine.edge_gradient(&plan);
                let mut buf = vec![0.0; 2 * p * n_edges];
                match self.branch_mode {
                    BranchMode::Joint => {
                        // Same local-partition summation order as
                        // `derivatives`.
                        for e in 0..n_edges {
                            buf[e] = sweep.iter().map(|part| part[e].0).sum();
                            buf[n_edges + e] = sweep.iter().map(|part| part[e].1).sum();
                        }
                    }
                    BranchMode::PerPartition => {
                        for (local, &global) in self.globals.iter().enumerate() {
                            for (e, &(g1, g2)) in sweep[local].iter().enumerate() {
                                buf[e * p + global] += g1;
                                buf[(n_edges + e) * p + global] += g2;
                            }
                        }
                    }
                }
                let r = self
                    .rank
                    .allreduce_sum(&mut buf, CommCategory::BranchLength);
                self.comm_ok(r);
                buf
            }
            ReduceKind::Reproducible => {
                let globals = &self.globals;
                let mut bins = vec![BinnedSum::new(); 2 * p * n_edges];
                self.engine
                    .edge_gradient_with_terms(&plan, &mut |local, edge, t1, t2| {
                        let slot = if p == 1 { 0 } else { globals[local] };
                        bins[edge * p + slot].add_slice(t1);
                        bins[(n_edges + edge) * p + slot].add_slice(t2);
                    });
                let r = self
                    .rank
                    .collective(CommCategory::BranchLength)
                    .allreduce_binned(bins);
                self.comm_ok(r)
            }
        };
        self.after_collective();
        let d1 = (0..n_edges)
            .map(|e| buf[e * p..(e + 1) * p].to_vec())
            .collect();
        let d2 = (0..n_edges)
            .map(|e| buf[(n_edges + e) * p..][..p].to_vec())
            .collect();
        FullGradient {
            d1,
            d2,
            collectives: 1,
            swept: true,
        }
    }

    fn alphas(&self) -> Vec<f64> {
        self.alphas.clone()
    }

    fn set_alphas(&mut self, alphas: &[f64]) {
        // NO communication: every rank executes this call with identical
        // arguments (derived from identical reduced likelihoods).
        assert_eq!(alphas.len(), self.n_partitions);
        self.alphas = alphas.to_vec();
        for (local, &global) in self.globals.iter().enumerate() {
            self.engine.set_alpha(local, alphas[global]);
        }
        self.tree.invalidate_all();
    }

    fn gtr_rate(&self, rate_index: usize) -> Vec<f64> {
        self.gtr_rates.iter().map(|r| r[rate_index]).collect()
    }

    fn set_gtr_rate(&mut self, rate_index: usize, values: &[f64]) {
        assert_eq!(values.len(), self.n_partitions);
        for (g, &v) in values.iter().enumerate() {
            self.gtr_rates[g][rate_index] = v;
        }
        for (local, &global) in self.globals.iter().enumerate() {
            self.engine.set_gtr_rate(local, rate_index, values[global]);
        }
        self.tree.invalidate_all();
    }

    fn optimize_site_rates(&mut self) {
        if self.engine.rate_kind() != RateModelKind::Psr {
            return;
        }
        let d = self.tree.full_traversal_descriptor(0);
        self.engine.execute(&d);
        // Per-site rates are optimized on local data only; the global
        // normalization needs a single 2-double reduction (the paper's
        // "additional MPI calls to handle the CAT model").
        let (num, den) = match self.reduce {
            ReduceKind::Fast => {
                let (num, den) = self.engine.optimize_site_rates(&d);
                let mut buf = [num, den];
                let r = self.rank.allreduce_sum(&mut buf, CommCategory::ModelParams);
                self.comm_ok(r);
                (buf[0], buf[1])
            }
            ReduceKind::Reproducible => {
                let mut bins = vec![BinnedSum::new(); 2];
                self.engine
                    .optimize_site_rates_with_terms(&d, &mut |_, tn, td| {
                        bins[0].add_slice(tn);
                        bins[1].add_slice(td);
                    });
                let r = self
                    .rank
                    .collective(CommCategory::ModelParams)
                    .allreduce_binned(bins);
                let buf = self.comm_ok(r);
                (buf[0], buf[1])
            }
        };
        self.after_collective();
        if num > 0.0 {
            self.engine.finalize_site_rates(den / num);
        }
        self.tree.invalidate_all();
    }

    fn snapshot(&self) -> GlobalState {
        GlobalState {
            tree: self.tree.clone(),
            alphas: self.alphas.clone(),
            gtr_rates: self.gtr_rates.clone(),
        }
    }

    fn restore(&mut self, state: &GlobalState) {
        self.tree = state.tree.clone();
        self.alphas = state.alphas.clone();
        self.gtr_rates = state.gtr_rates.clone();
        apply_global_params(&mut self.engine, state);
        self.tree.invalidate_all();
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn backend_fingerprint(&self) -> u64 {
        exa_search::kernel_fingerprint(
            self.engine.kernel_kind(),
            self.engine.site_repeats(),
            self.reduce.label(),
            self.engine.threads(),
            self.gradient,
        )
    }
}

//! The fork-join master: owns the tree and the search state, broadcasts
//! every likelihood operation to the workers as a command + traversal
//! descriptor, and reduces results back — §III-A's architecture, including
//! its communication costs.

use crate::protocol::{decode_site_rate_capture, encode, WorkerCmd};
use crate::worker::{
    derivative_bins, derivative_buffer, evaluate_bins, gradient_bins, gradient_buffer,
    site_rate_bins,
};
use exa_bio::patterns::CompressedAlignment;
use exa_comm::{CommCategory, Rank, ReduceKind};
use exa_phylo::engine::Engine;
use exa_phylo::model::gtr::NUM_FREE_RATES;
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::{EdgeId, Tree};
use exa_phylo::GradientMode;
use exa_search::evaluator::{
    apply_global_params, per_edge_full_gradient, BranchMode, Evaluator, FullGradient, GlobalState,
};

/// Evaluator back-end for the fork-join master (rank 0).
pub struct ForkJoinEvaluator {
    rank: Rank,
    tree: Tree,
    engine: Engine,
    /// `engine.global_indices()`, hoisted: local → global partition slots.
    globals: Vec<usize>,
    n_partitions: usize,
    branch_mode: BranchMode,
    reduce: ReduceKind,
    gradient: GradientMode,
    alphas: Vec<f64>,
    gtr_rates: Vec<[f64; NUM_FREE_RATES]>,
    last_lnl: Vec<f64>,
    shut_down: bool,
}

impl ForkJoinEvaluator {
    /// Wrap the master's tree and its local data slice.
    pub fn new(
        rank: Rank,
        tree: Tree,
        engine: Engine,
        n_partitions: usize,
        branch_mode: BranchMode,
        reduce: ReduceKind,
    ) -> ForkJoinEvaluator {
        assert_eq!(rank.id(), 0, "the fork-join master must be rank 0");
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
        ForkJoinEvaluator {
            rank,
            tree,
            globals: engine.global_indices(),
            engine,
            n_partitions,
            branch_mode,
            reduce,
            gradient: GradientMode::Off,
            alphas,
            gtr_rates: vec![[1.0; NUM_FREE_RATES]; n_partitions],
            last_lnl: vec![0.0; n_partitions],
            shut_down: false,
        }
    }

    /// Select the full-tree gradient mode (builder style). Fork-join needs
    /// no negotiation — workers are command-driven and simply see
    /// [`WorkerCmd::Gradient`] broadcasts when the master runs with `On`.
    pub fn with_gradient(mut self, gradient: GradientMode) -> Self {
        self.gradient = gradient;
        self
    }

    /// The master's local engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Broadcast a command under the given Table I traffic category.
    fn command(&self, cmd: &WorkerCmd, category: CommCategory) {
        let mut bytes = encode(cmd);
        self.rank
            .broadcast_bytes(0, &mut bytes, category)
            .expect("fork-join master cannot survive rank failure");
    }

    /// Tell the workers the run is over. Must be called exactly once after
    /// the search finishes.
    pub fn shutdown_workers(&mut self) {
        if !self.shut_down {
            self.command(&WorkerCmd::Shutdown, CommCategory::Control);
            self.shut_down = true;
        }
    }

    /// Checkpoint support: gather the data-local PSR per-pattern rates
    /// from every rank (workers + the master's own slice) into the full
    /// `table[partition][pattern]` rate-bits table. Empty under Γ.
    pub fn collect_site_rates(
        &mut self,
        aln: &CompressedAlignment,
        assignments: &[exa_sched::RankAssignment],
    ) -> Vec<Vec<u64>> {
        if self.engine.rate_kind() != RateModelKind::Psr {
            return Vec::new();
        }
        self.command(&WorkerCmd::GatherSiteRates, CommCategory::Control);
        let own = exa_sched::capture_site_rates(&self.engine, &assignments[0], aln);
        let blob = crate::protocol::encode_site_rate_capture(&own);
        let blobs = self
            .rank
            .gather_bytes(0, blob, CommCategory::Control)
            .expect("fork-join master cannot survive rank failure");
        let parts = blobs
            .iter()
            .filter(|b| !b.is_empty())
            .flat_map(|b| decode_site_rate_capture(b).expect("malformed site-rate capture"));
        exa_sched::merge_site_rates(aln, parts)
    }

    /// Restart support: broadcast a full PSR rate table so every worker
    /// (and the master's own engine) installs its slice, then invalidate
    /// all CLVs. No-op for an empty table (Γ checkpoints).
    pub fn distribute_site_rates(
        &mut self,
        table: &[Vec<u64>],
        aln: &CompressedAlignment,
        assignments: &[exa_sched::RankAssignment],
    ) {
        if table.is_empty() {
            return;
        }
        self.command(
            &WorkerCmd::SetSiteRates(table.to_vec()),
            CommCategory::ModelParams,
        );
        exa_sched::apply_site_rates(&mut self.engine, &assignments[0], aln, table);
        self.tree.invalidate_all();
    }
}

impl Evaluator for ForkJoinEvaluator {
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
        // The master computes the traversal order and must BROADCAST it —
        // the traffic the de-centralized scheme eliminates.
        let d = self.tree.traversal_descriptor(edge);
        self.command(
            &WorkerCmd::Evaluate(d.clone()),
            CommCategory::TraversalDescriptor,
        );
        self.engine.execute(&d);
        match self.reduce {
            ReduceKind::Fast => {
                let per_local = self.engine.evaluate(&d);
                let mut total = [per_local.iter().sum::<f64>()];
                self.rank
                    .reduce_sum(0, &mut total, CommCategory::SiteLikelihoods)
                    .expect("reduce failed");
                total[0]
            }
            ReduceKind::Reproducible => {
                let bins = evaluate_bins(&mut self.engine, &self.globals, &d, 1);
                self.rank
                    .collective(CommCategory::SiteLikelihoods)
                    .reduce_binned(bins)
                    .expect("reduce failed")[0]
            }
        }
    }

    fn evaluate_partitioned(&mut self, edge: EdgeId) -> f64 {
        let d = self.tree.traversal_descriptor(edge);
        self.command(
            &WorkerCmd::EvaluatePartitioned(d.clone()),
            CommCategory::TraversalDescriptor,
        );
        self.engine.execute(&d);
        self.last_lnl = match self.reduce {
            ReduceKind::Fast => {
                let per_local = self.engine.evaluate(&d);
                let mut lnls = vec![0.0; self.n_partitions];
                for (local, &global) in self.globals.iter().enumerate() {
                    lnls[global] += per_local[local];
                }
                self.rank
                    .reduce_sum(0, &mut lnls, CommCategory::SiteLikelihoods)
                    .expect("reduce failed");
                lnls
            }
            ReduceKind::Reproducible => {
                let bins = evaluate_bins(&mut self.engine, &self.globals, &d, self.n_partitions);
                self.rank
                    .collective(CommCategory::SiteLikelihoods)
                    .reduce_binned(bins)
                    .expect("reduce failed")
            }
        };
        self.last_lnl.iter().sum()
    }

    fn last_per_partition(&self) -> &[f64] {
        &self.last_lnl
    }

    fn prepare_derivatives(&mut self, edge: EdgeId) {
        let d = self.tree.traversal_descriptor(edge);
        self.command(
            &WorkerCmd::PrepareDerivatives(d.clone()),
            CommCategory::TraversalDescriptor,
        );
        self.engine.execute(&d);
        self.engine.prepare_derivatives(&d);
    }

    fn derivatives(&mut self, lengths: &[f64]) -> (Vec<f64>, Vec<f64>) {
        // Candidate branch length(s) out…
        self.command(
            &WorkerCmd::Derivatives(lengths.to_vec()),
            CommCategory::BranchLength,
        );
        // …derivative sums back.
        let buf = match self.reduce {
            ReduceKind::Fast => {
                let (d1, d2) = self.engine.derivatives(lengths);
                let mut buf =
                    derivative_buffer(&self.globals, self.branch_mode, self.n_partitions, &d1, &d2);
                self.rank
                    .reduce_sum(0, &mut buf, CommCategory::BranchLength)
                    .expect("reduce failed");
                buf
            }
            ReduceKind::Reproducible => {
                let bins = derivative_bins(
                    &mut self.engine,
                    &self.globals,
                    self.branch_mode,
                    self.n_partitions,
                    lengths,
                );
                self.rank
                    .collective(CommCategory::BranchLength)
                    .reduce_binned(bins)
                    .expect("reduce failed")
            }
        };
        match self.branch_mode {
            BranchMode::Joint => (vec![buf[0]], vec![buf[1]]),
            BranchMode::PerPartition => {
                let p = self.n_partitions;
                (buf[..p].to_vec(), buf[p..].to_vec())
            }
        }
    }

    fn full_gradient(&mut self) -> FullGradient {
        if self.gradient == GradientMode::Off {
            return per_edge_full_gradient(self);
        }
        // One broadcast carries the orientation descriptor and the sweep
        // plan; one fat reduction brings back every edge's pair.
        let d = self.tree.traversal_descriptor(0);
        let plan = self.tree.gradient_plan(0);
        self.command(
            &WorkerCmd::Gradient {
                descriptor: d.clone(),
                plan: plan.clone(),
            },
            CommCategory::TraversalDescriptor,
        );
        self.engine.execute(&d);
        let p = match self.branch_mode {
            BranchMode::Joint => 1,
            BranchMode::PerPartition => self.n_partitions,
        };
        let buf = match self.reduce {
            ReduceKind::Fast => {
                let sweep = self.engine.edge_gradient(&plan);
                let mut buf = gradient_buffer(
                    &self.globals,
                    self.branch_mode,
                    self.n_partitions,
                    &sweep,
                    plan.n_edges,
                );
                self.rank
                    .reduce_sum(0, &mut buf, CommCategory::BranchLength)
                    .expect("reduce failed");
                buf
            }
            ReduceKind::Reproducible => {
                let bins = gradient_bins(
                    &mut self.engine,
                    &self.globals,
                    self.branch_mode,
                    self.n_partitions,
                    &plan,
                );
                self.rank
                    .collective(CommCategory::BranchLength)
                    .reduce_binned(bins)
                    .expect("reduce failed")
            }
        };
        let mut d1 = Vec::with_capacity(plan.n_edges);
        let mut d2 = Vec::with_capacity(plan.n_edges);
        for e in 0..plan.n_edges {
            d1.push(buf[e * p..(e + 1) * p].to_vec());
            d2.push(buf[(plan.n_edges + e) * p..][..p].to_vec());
        }
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
        assert_eq!(alphas.len(), self.n_partitions);
        // Fork-join must broadcast the full parameter array — with 1000
        // partitions this is the 8 kB-per-region traffic of §III-A.
        self.command(
            &WorkerCmd::SetAlphas(alphas.to_vec()),
            CommCategory::ModelParams,
        );
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
        self.command(
            &WorkerCmd::SetGtrRate {
                index: rate_index as u8,
                values: values.to_vec(),
            },
            CommCategory::ModelParams,
        );
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
        self.command(
            &WorkerCmd::OptimizeSiteRates(d.clone()),
            CommCategory::TraversalDescriptor,
        );
        self.engine.execute(&d);
        let (num, den) = match self.reduce {
            ReduceKind::Fast => {
                let (num, den) = self.engine.optimize_site_rates(&d);
                let mut buf = [num, den];
                self.rank
                    .reduce_sum(0, &mut buf, CommCategory::ModelParams)
                    .expect("reduce failed");
                (buf[0], buf[1])
            }
            ReduceKind::Reproducible => {
                let bins = site_rate_bins(&mut self.engine, &d);
                let buf = self
                    .rank
                    .collective(CommCategory::ModelParams)
                    .reduce_binned(bins)
                    .expect("reduce failed");
                (buf[0], buf[1])
            }
        };
        let scale = if num > 0.0 { den / num } else { 1.0 };
        // PSR rate values themselves stay data-local on each worker; only
        // the scale is broadcast.
        self.command(&WorkerCmd::SetPsrScale(scale), CommCategory::ModelParams);
        if num > 0.0 {
            self.engine.finalize_site_rates(scale);
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
        // Workers must see the restored parameters too.
        if !self.alphas.is_empty() {
            self.command(
                &WorkerCmd::SetAlphas(self.alphas.clone()),
                CommCategory::ModelParams,
            );
        }
        for i in 0..NUM_FREE_RATES {
            let values: Vec<f64> = self.gtr_rates.iter().map(|r| r[i]).collect();
            self.command(
                &WorkerCmd::SetGtrRate {
                    index: i as u8,
                    values,
                },
                CommCategory::ModelParams,
            );
        }
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

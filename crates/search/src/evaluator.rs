//! The [`Evaluator`] trait — the seam between the (shared) search algorithm
//! and the execution back-ends — and its one implementation,
//! [`ExchangeEvaluator`], which the three schemes instantiate with their
//! [`Exchange`] (see [`crate::exchange`]).

use crate::exchange::{Exchange, LocalLikelihood, NoExchange, Op};
use crate::modes::Modes;
use exa_comm::ReduceKind;
use exa_phylo::engine::{Engine, ThreadCount};
use exa_phylo::model::gtr::NUM_FREE_RATES;
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::{EdgeId, Tree};
use exa_phylo::GradientMode;
use serde::{Deserialize, Serialize};

/// Joint (`2n-3` branch lengths shared by all partitions) versus
/// per-partition (`p·(2n-3)`, the paper's `-M` option) branch estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BranchMode {
    Joint,
    PerPartition,
}

/// The globally replicated search state: everything every rank must agree
/// on. This is also exactly what a checkpoint stores and what fault
/// recovery restores — the paper's "maximum state redundancy" (§V).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalState {
    pub tree: Tree,
    /// Per-partition Γ shapes (empty under PSR).
    pub alphas: Vec<f64>,
    /// Per-partition free GTR exchangeabilities.
    pub gtr_rates: Vec<[f64; NUM_FREE_RATES]>,
}

/// Panic payload used by distributed evaluators to signal a rank failure
/// out of the (Result-free) evaluator methods; [`crate::driver::run_search`]
/// catches it at iteration boundaries and consults its hooks.
#[derive(Debug, Clone)]
pub struct CommFailurePanic {
    pub failed_ranks: Vec<usize>,
}

/// Everything a checkpoint must persist to re-enter the search loop
/// bit-identically: the loop position, the replicated [`GlobalState`], and
/// the per-pattern PSR rates (which live in the data-parallel engines, not
/// in the replicated state, and so have to be gathered at checkpoint
/// boundaries).
///
/// `lnl` is stored as raw IEEE-754 bits: the checkpoint codec is JSON, and
/// a text float round-trip must not be trusted to preserve the exact bits
/// the convergence test (`improvement < epsilon`) depends on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchSnapshot {
    /// Boundary iteration the snapshot was taken at.
    pub iteration: usize,
    /// Log-likelihood at that boundary, as `f64::to_bits`.
    pub lnl_bits: u64,
    /// Accepted SPR moves up to that boundary.
    pub spr_moves: usize,
    /// The replicated search state (topology, branch lengths, model).
    pub state: GlobalState,
    /// Per-global-partition, per-global-pattern PSR rates as `f64` bits;
    /// empty under Γ. Indexed `[global_partition][global_pattern]`.
    pub psr_rates: Vec<Vec<u64>>,
}

impl SearchSnapshot {
    /// The loop re-entry point this snapshot encodes.
    pub fn resume_point(&self) -> crate::driver::ResumePoint {
        crate::driver::ResumePoint {
            iteration: self.iteration,
            lnl: f64::from_bits(self.lnl_bits),
            spr_moves: self.spr_moves,
        }
    }
}

/// The search algorithm's view of the world. One implementation per
/// execution scheme; §III-B's "identical search algorithm" claim holds
/// because the search only ever talks to this trait.
pub trait Evaluator {
    /// Number of taxa.
    fn n_taxa(&self) -> usize;
    /// Number of **global** partitions.
    fn n_partitions(&self) -> usize;
    /// Branch-length estimation mode.
    fn branch_mode(&self) -> BranchMode;
    /// Rate-heterogeneity model (uniform across partitions).
    fn rate_kind(&self) -> RateModelKind;

    /// The replicated tree (read).
    fn tree(&self) -> &Tree;
    /// The replicated tree (mutate — SPR moves, branch updates).
    fn tree_mut(&mut self) -> &mut Tree;

    /// Total log-likelihood at `edge`, performing whatever partial
    /// traversal is needed. Globally reduced (a single double on the wire
    /// under the de-centralized scheme — §III-B: processes only need "the
    /// same overall values for the log likelihood score"); every caller
    /// (rank) receives the identical value.
    fn evaluate(&mut self, edge: EdgeId) -> f64;
    /// Like [`Evaluator::evaluate`] but additionally reduces the
    /// per-partition log-likelihood vector (`p` doubles), needed by the
    /// batched model-parameter optimization. Refreshes
    /// [`Evaluator::last_per_partition`].
    fn evaluate_partitioned(&mut self, edge: EdgeId) -> f64;
    /// Per-global-partition log-likelihoods from the most recent
    /// [`Evaluator::evaluate_partitioned`] call.
    fn last_per_partition(&self) -> &[f64];

    /// Prepare branch-length derivative computation at `edge` (CLV updates
    /// plus sumtable construction).
    fn prepare_derivatives(&mut self, edge: EdgeId);
    /// First/second log-likelihood derivatives at the prepared edge, for
    /// candidate branch length(s): `lengths` has 1 entry under joint mode,
    /// one per global partition under per-partition mode. Returns globally
    /// reduced derivative vectors of the same arity.
    fn derivatives(&mut self, lengths: &[f64]) -> (Vec<f64>, Vec<f64>);
    /// Globally reduced `(d1, d2)` for **every** edge at the current branch
    /// lengths. The default walks the per-edge path (a `prepare_derivatives`
    /// and `derivatives` call at each edge — one collective per edge);
    /// evaluators running with `--gradient on` override it with the
    /// one-pass [`Engine::edge_gradient`] sweep and a **single** fat
    /// collective. Both routes are bitwise identical entry for entry
    /// (proven by the gradient-identity battery), so which one ran is
    /// observable only in [`FullGradient::collectives`] /
    /// [`FullGradient::swept`].
    fn full_gradient(&mut self) -> FullGradient {
        per_edge_full_gradient(self)
    }

    /// Current per-partition Γ shapes (empty under PSR).
    fn alphas(&self) -> Vec<f64>;
    /// Batched α update for **all** partitions at once (invalidates CLVs).
    fn set_alphas(&mut self, alphas: &[f64]);
    /// Current values of free GTR rate `rate_index` across partitions.
    fn gtr_rate(&self, rate_index: usize) -> Vec<f64>;
    /// Batched update of free GTR rate `rate_index` for all partitions.
    fn set_gtr_rate(&mut self, rate_index: usize, values: &[f64]);
    /// Optimize PSR per-site rates (no-op under Γ). Implementations keep
    /// this data-local except for the small normalization reduction.
    fn optimize_site_rates(&mut self);

    /// Snapshot the replicated global state (checkpointing, fault
    /// recovery).
    fn snapshot(&self) -> GlobalState;
    /// Restore a snapshot (after recovery or restart).
    fn restore(&mut self, state: &GlobalState);

    /// Downcasting hook: lets scheme-specific recovery code (e.g. the
    /// de-centralized fault handler rebuilding a rank's engine) reach its
    /// concrete evaluator through the trait object.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Digest of the likelihood-kernel backend this evaluator computes
    /// with, folded into [`Evaluator::state_fingerprint`] as
    /// [`exa_obs::Component::KernelBackend`]. Backends are bitwise
    /// identical by contract, so a mix never shows up in the numeric
    /// components — but mixed backends still break the interchangeability
    /// that fault-driven data redistribution relies on, so the sentinel
    /// flags them directly. Implementations backed by an engine return a
    /// hash of the kernel label; the default (0) means "unspecified" and
    /// only ever disagrees with an implementation that overrides this.
    fn backend_fingerprint(&self) -> u64 {
        0
    }

    /// Deterministic digest of the replicated search state, one 64-bit
    /// hash per [`exa_obs::Component`]. Under the de-centralized scheme
    /// every rank must produce the identical fingerprint at the same
    /// collective count — the replica-divergence sentinel exchanges and
    /// compares these. Bit-exact: hashes `f64::to_bits`, so a single
    /// flipped mantissa bit anywhere in the state changes the digest.
    fn state_fingerprint(&self) -> exa_obs::StateFingerprint {
        let mut model = exa_obs::Fnv1a::new();
        for a in self.alphas() {
            model.write_f64(a);
        }
        for r in 0..NUM_FREE_RATES {
            for v in self.gtr_rate(r) {
                model.write_f64(v);
            }
        }
        let tree = self.tree();
        let mut topology = exa_obs::Fnv1a::new();
        let mut branches = exa_obs::Fnv1a::new();
        for e in 0..tree.n_edges() {
            let edge = tree.edge(e);
            topology.write_u64(edge.a as u64);
            topology.write_u64(edge.b as u64);
            for &l in &edge.lengths {
                branches.write_f64(l);
            }
        }
        let mut lnl = exa_obs::Fnv1a::new();
        for &v in self.last_per_partition() {
            lnl.write_f64(v);
        }
        // Order matches `Component::ALL`.
        exa_obs::StateFingerprint {
            components: [
                model.finish(),
                branches.finish(),
                topology.finish(),
                lnl.finish(),
                self.backend_fingerprint(),
            ],
        }
    }
}

/// The all-edge derivative vector produced by
/// [`Evaluator::full_gradient`]. Entries follow edge ids;
/// each entry has the same arity as [`Evaluator::derivatives`] (1 under
/// joint mode, one per global partition under `-M`).
#[derive(Debug, Clone)]
pub struct FullGradient {
    /// First derivatives, `d1[edge][slot]`.
    pub d1: Vec<Vec<f64>>,
    /// Second derivatives, `d2[edge][slot]`.
    pub d2: Vec<Vec<f64>>,
    /// Collectives spent producing the vector (1 for the sweep, `n_edges`
    /// for the per-edge route).
    pub collectives: u64,
    /// True when the one-pass gradient sweep produced it.
    pub swept: bool,
}

/// The per-edge reference route for [`Evaluator::full_gradient`]: prepare +
/// differentiate every edge at the current lengths, one collective each.
/// Kept callable on its own so tests can pit it against a sweep-capable
/// override directly.
pub fn per_edge_full_gradient<E: Evaluator + ?Sized>(eval: &mut E) -> FullGradient {
    let n_edges = eval.tree().n_edges();
    let mut d1 = Vec::with_capacity(n_edges);
    let mut d2 = Vec::with_capacity(n_edges);
    for e in 0..n_edges {
        eval.prepare_derivatives(e);
        let arity = match eval.branch_mode() {
            BranchMode::Joint => 1,
            BranchMode::PerPartition => eval.n_partitions(),
        };
        let t: Vec<f64> = (0..arity).map(|p| eval.tree().edge(e).length(p)).collect();
        let (e1, e2) = eval.derivatives(&t);
        d1.push(e1);
        d2.push(e2);
    }
    FullGradient {
        d1,
        d2,
        collectives: n_edges as u64,
        swept: false,
    }
}

/// The one [`Evaluator`] implementation: the replicated search state (tree,
/// model parameters, last per-partition likelihoods) over this rank's
/// [`LocalLikelihood`], with every byte of communication delegated to an
/// [`Exchange`]. The three execution schemes are its three instantiations —
/// [`SequentialEvaluator`] here, the de-centralized and fork-join ones in
/// their crates.
pub struct ExchangeEvaluator<X> {
    tree: Tree,
    local: LocalLikelihood,
    /// The run's full-tree gradient mode. Under `On` `full_gradient` is one
    /// analytic sweep + one fat reduction instead of `n_edges` per-edge
    /// collectives (bitwise-identical values either way).
    gradient: GradientMode,
    /// Replicated model parameters for **all** partitions — every rank
    /// tracks all of them even for partitions it holds no data of, which is
    /// what makes post-failure redistribution trivial.
    alphas: Vec<f64>,
    gtr_rates: Vec<[f64; NUM_FREE_RATES]>,
    last_lnl: Vec<f64>,
    exchange: X,
}

/// The sequential back-end: one engine holding all data, no communication.
/// This is both the correctness reference for the parallel schemes and the
/// single-rank execution path.
pub type SequentialEvaluator = ExchangeEvaluator<NoExchange>;

impl SequentialEvaluator {
    /// Wrap a tree and a full-data engine. The tree's branch-length arity
    /// must match the mode (1 for joint, `n_partitions` for per-partition).
    pub fn new(tree: Tree, engine: Engine, n_partitions: usize, branch_mode: BranchMode) -> Self {
        Self::with_exchange(NoExchange, tree, engine, n_partitions, branch_mode)
    }
}

impl<X: Exchange> ExchangeEvaluator<X> {
    /// Wrap the replicated tree and this rank's local engine. The tree's
    /// branch-length arity must match the mode (1 for joint, `n_partitions`
    /// for per-partition). Starts with the fast reduction and the per-edge
    /// gradient route; see [`Self::with_reduce`] / [`Self::with_gradient`].
    pub fn with_exchange(
        exchange: X,
        tree: Tree,
        engine: Engine,
        n_partitions: usize,
        branch_mode: BranchMode,
    ) -> Self {
        let local = LocalLikelihood::new(engine, n_partitions, branch_mode, ReduceKind::Fast);
        assert_eq!(
            tree.blen_count(),
            local.arity(),
            "tree branch-length arity mismatch"
        );
        // Partitions this rank holds no data of start from the engine
        // defaults every rank's local slices are built with.
        let mut alphas = match local.engine().rate_kind() {
            RateModelKind::Gamma => vec![1.0; n_partitions],
            RateModelKind::Psr => Vec::new(),
        };
        let mut gtr_rates = vec![[1.0; NUM_FREE_RATES]; n_partitions];
        for (l, &global) in local.globals().iter().enumerate() {
            if let Some(a) = local.engine().alpha(l) {
                alphas[global] = a;
            }
            gtr_rates[global].copy_from_slice(&local.engine().gtr_rates(l)[..NUM_FREE_RATES]);
        }
        ExchangeEvaluator {
            tree,
            local,
            gradient: GradientMode::Off,
            alphas,
            gtr_rates,
            last_lnl: vec![0.0; n_partitions],
            exchange,
        }
    }

    /// Install the run's reduction scheme (builder style). Under
    /// `Reproducible` every collective ships binned superaccumulators
    /// instead of pre-summed f64s, so the reduced bits are invariant under
    /// the rank count and the data split (the elastic-resize prerequisite).
    pub fn with_reduce(mut self, reduce: ReduceKind) -> Self {
        self.local.set_reduce(reduce);
        self
    }

    /// Select the full-tree gradient mode (builder style). Sequentially
    /// there is no communication to save, but `On` still collapses the
    /// `2(2n-3)` per-edge kernel dispatches into one sweep; the fork-join
    /// workers are command-driven and follow the master's mode.
    pub fn with_gradient(mut self, gradient: GradientMode) -> Self {
        self.gradient = gradient;
        self
    }

    /// Install the run's resolved reduction scheme and gradient route (the
    /// other modes are already built into the engine).
    pub fn with_modes(self, modes: &Modes) -> Self {
        self.with_reduce(modes.reduce).with_gradient(modes.gradient)
    }

    /// The local engine (work counters, memory accounting, tests).
    pub fn engine(&self) -> &Engine {
        self.local.engine()
    }

    /// Mutable engine access (checkpoint rate tables, advanced testing).
    pub fn engine_mut(&mut self) -> &mut Engine {
        self.local.engine_mut()
    }

    /// The scheme's communication half (its rank handle, sentinel, …).
    pub fn exchange(&self) -> &X {
        &self.exchange
    }

    pub fn exchange_mut(&mut self) -> &mut X {
        &mut self.exchange
    }

    /// Replace the local engine after data redistribution, pushing the
    /// replicated model parameters into the fresh local slices. PSR
    /// per-site rates are data-local and reset to 1; the next model-
    /// optimization round re-fits them (documented recovery semantics).
    pub fn replace_engine(&mut self, engine: Engine) {
        self.local.replace_engine(engine);
        self.local.install_params(&self.alphas, &self.gtr_rates);
        self.tree.invalidate_all();
    }
}

impl<X: Exchange> Evaluator for ExchangeEvaluator<X> {
    fn n_taxa(&self) -> usize {
        self.tree.n_taxa()
    }

    fn n_partitions(&self) -> usize {
        self.local.n_partitions()
    }

    fn branch_mode(&self) -> BranchMode {
        self.local.branch_mode()
    }

    fn rate_kind(&self) -> RateModelKind {
        self.local.engine().rate_kind()
    }

    fn tree(&self) -> &Tree {
        &self.tree
    }

    fn tree_mut(&mut self) -> &mut Tree {
        &mut self.tree
    }

    fn evaluate(&mut self, edge: EdgeId) -> f64 {
        if X::LOCAL_ONLY {
            return self.evaluate_partitioned(edge);
        }
        // ONE reduction of a single double: the overall log-likelihood is
        // all the replicas need to stay in lock-step (§III-B).
        let d = self.tree.traversal_descriptor(edge);
        self.exchange.announce(&Op::Evaluate(&d));
        let total = self.exchange.combine(self.local.evaluate(&d, false))[0];
        X::after_collective(self);
        total
    }

    fn evaluate_partitioned(&mut self, edge: EdgeId) -> f64 {
        let d = self.tree.traversal_descriptor(edge);
        self.exchange.announce(&Op::EvaluatePartitioned(&d));
        let reduced = self.exchange.combine(self.local.evaluate(&d, true));
        self.last_lnl.copy_from_slice(reduced);
        X::after_collective(self);
        // Fixed global-order sum of identical inputs → identical totals.
        self.last_lnl.iter().sum()
    }

    fn last_per_partition(&self) -> &[f64] {
        &self.last_lnl
    }

    fn prepare_derivatives(&mut self, edge: EdgeId) {
        let d = self.tree.traversal_descriptor(edge);
        self.exchange.announce(&Op::PrepareDerivatives(&d));
        self.local.prepare_derivatives(&d);
    }

    fn derivatives(&mut self, lengths: &[f64]) -> (Vec<f64>, Vec<f64>) {
        self.exchange.announce(&Op::Derivatives(lengths));
        let reduced = self.exchange.combine(self.local.derivatives(lengths));
        let (d1, d2) = reduced.split_at(reduced.len() / 2);
        let pair = (d1.to_vec(), d2.to_vec());
        X::after_collective(self);
        pair
    }

    fn full_gradient(&mut self) -> FullGradient {
        if self.gradient == GradientMode::Off {
            return per_edge_full_gradient(self);
        }
        // One announcement carries the orientation descriptor and the sweep
        // plan; ONE fat reduction replaces the `n_edges` per-edge ones.
        let d = self.tree.traversal_descriptor(0);
        let plan = self.tree.gradient_plan(0);
        self.exchange.announce(&Op::Gradient {
            descriptor: &d,
            plan: &plan,
        });
        let reduced = self.exchange.combine(self.local.gradient(&d, &plan));
        let (d1, d2) = reduced.split_at(reduced.len() / 2);
        let per_edge = |half: &[f64]| -> Vec<Vec<f64>> {
            half.chunks(half.len() / plan.n_edges)
                .map(<[f64]>::to_vec)
                .collect()
        };
        let gradient = FullGradient {
            d1: per_edge(d1),
            d2: per_edge(d2),
            collectives: u64::from(!X::LOCAL_ONLY),
            swept: true,
        };
        X::after_collective(self);
        gradient
    }

    fn alphas(&self) -> Vec<f64> {
        self.alphas.clone()
    }

    fn set_alphas(&mut self, alphas: &[f64]) {
        assert_eq!(alphas.len(), self.n_partitions());
        // Fork-join must broadcast the full parameter array — with 1000
        // partitions this is the 8 kB-per-region traffic of §III-A. The
        // replicas instead all execute this call with identical arguments
        // (derived from identical reduced likelihoods).
        self.exchange.announce(&Op::SetAlphas(alphas));
        self.alphas = alphas.to_vec();
        self.local.set_alphas(alphas);
        self.tree.invalidate_all();
    }

    fn gtr_rate(&self, rate_index: usize) -> Vec<f64> {
        self.gtr_rates.iter().map(|r| r[rate_index]).collect()
    }

    fn set_gtr_rate(&mut self, rate_index: usize, values: &[f64]) {
        assert_eq!(values.len(), self.n_partitions());
        self.exchange.announce(&Op::SetGtrRate {
            index: rate_index,
            values,
        });
        for (rates, &v) in self.gtr_rates.iter_mut().zip(values) {
            rates[rate_index] = v;
        }
        self.local.set_gtr_rate(rate_index, values);
        self.tree.invalidate_all();
    }

    fn optimize_site_rates(&mut self) {
        if self.rate_kind() != RateModelKind::Psr {
            return;
        }
        let d = self.tree.full_traversal_descriptor(0);
        self.exchange.announce(&Op::OptimizeSiteRates(&d));
        let reduced = self.exchange.combine(self.local.optimize_site_rates(&d));
        let (num, den) = (reduced[0], reduced[1]);
        X::after_collective(self);
        // The rate values themselves stay data-local on every rank; only
        // the scale travels.
        let scale = if num > 0.0 { den / num } else { 1.0 };
        self.exchange.announce(&Op::SetPsrScale(scale));
        if num > 0.0 {
            self.local.engine_mut().finalize_site_rates(scale);
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
        // Tree-less peers must see the restored parameters too.
        if !self.alphas.is_empty() {
            self.exchange.announce(&Op::SetAlphas(&self.alphas));
        }
        for index in 0..NUM_FREE_RATES {
            let values = self.gtr_rate(index);
            self.exchange.announce(&Op::SetGtrRate {
                index,
                values: &values,
            });
        }
        self.local.install_params(&self.alphas, &self.gtr_rates);
        self.tree.invalidate_all();
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn backend_fingerprint(&self) -> u64 {
        // Read back from the engine and the exchange layer — what this rank
        // actually computes with, not what it was told to.
        let engine = self.local.engine();
        Modes {
            kernel: engine.kernel_kind(),
            site_repeats: engine.site_repeats(),
            reduce: self.local.reduce(),
            threads: ThreadCount::new(engine.threads()),
            gradient: self.gradient,
            batch: true, // not part of the digest
        }
        .fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_bio::alignment::Alignment;
    use exa_bio::partition::PartitionScheme;
    use exa_bio::patterns::CompressedAlignment;
    use exa_phylo::engine::PartitionSlice;

    fn make_eval(kind: RateModelKind) -> SequentialEvaluator {
        let rows = [
            ("t0", "ACGTACGTACGTACGTAAAA"),
            ("t1", "ACGTACGAACGTACGTAAAC"),
            ("t2", "TCGAACGTACGAACGTAAAG"),
            ("t3", "TCGAACGAACGTACGAAAAT"),
            ("t4", "TCGATCGAACGTACGAATAT"),
        ];
        let aln = Alignment::from_ascii(&rows).unwrap();
        let scheme = PartitionScheme::uniform_chunks(2, 10);
        let comp = CompressedAlignment::build(&aln, &scheme);
        let slices: Vec<PartitionSlice> = comp
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| PartitionSlice::from_compressed(i, p))
            .collect();
        let engine = Engine::new(5, slices, kind, 1.0);
        let tree = Tree::random(5, 1, 3);
        SequentialEvaluator::new(tree, engine, 2, BranchMode::Joint)
    }

    #[test]
    fn evaluate_fills_per_partition() {
        let mut e = make_eval(RateModelKind::Gamma);
        let total = e.evaluate(0);
        let per: f64 = e.last_per_partition().iter().sum();
        assert!((total - per).abs() < 1e-12);
        assert!(total < 0.0);
        assert_eq!(e.last_per_partition().len(), 2);
    }

    #[test]
    fn set_alphas_changes_likelihood() {
        let mut e = make_eval(RateModelKind::Gamma);
        let l0 = e.evaluate(0);
        e.set_alphas(&[0.05, 0.05]);
        let l1 = e.evaluate(0);
        assert_ne!(l0, l1);
        assert_eq!(e.alphas(), vec![0.05, 0.05]);
    }

    #[test]
    fn set_gtr_rate_changes_likelihood() {
        let mut e = make_eval(RateModelKind::Gamma);
        let l0 = e.evaluate(0);
        e.set_gtr_rate(1, &[5.0, 5.0]);
        let l1 = e.evaluate(0);
        assert_ne!(l0, l1);
        assert_eq!(e.gtr_rate(1), vec![5.0, 5.0]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut e = make_eval(RateModelKind::Gamma);
        e.set_alphas(&[0.3, 2.0]);
        let l0 = e.evaluate(0);
        let snap = e.snapshot();

        // Perturb everything.
        e.set_alphas(&[1.0, 1.0]);
        e.set_gtr_rate(0, &[3.0, 3.0]);
        e.tree_mut().set_length(0, 0, 1.7);
        let l1 = e.evaluate(0);
        assert_ne!(l0, l1);

        e.restore(&snap);
        let l2 = e.evaluate(0);
        assert!(
            (l0 - l2).abs() < 1e-9,
            "restore must reproduce the snapshot: {l0} vs {l2}"
        );
    }

    #[test]
    fn state_fingerprint_localizes_perturbations() {
        use exa_obs::Component;
        let mut a = make_eval(RateModelKind::Gamma);
        let mut b = make_eval(RateModelKind::Gamma);
        a.evaluate(0);
        b.evaluate(0);
        assert_eq!(
            a.state_fingerprint(),
            b.state_fingerprint(),
            "identically-built evaluators fingerprint identically"
        );

        // A single-bit α flip moves exactly the ModelParams digest.
        let mut alphas = b.alphas();
        alphas[0] = f64::from_bits(alphas[0].to_bits() ^ 1);
        b.set_alphas(&alphas);
        let d = a.state_fingerprint().differing(&b.state_fingerprint());
        assert_eq!(d, vec![Component::ModelParams]);

        // A branch-length nudge on a restored copy moves BranchLengths
        // (the tree shape itself is untouched).
        let snap = a.snapshot();
        b.restore(&snap);
        assert_eq!(
            a.state_fingerprint().differing(&b.state_fingerprint()),
            vec![]
        );
        let old = b.tree().edge(2).lengths[0];
        b.tree_mut().set_length(2, 0, old + 1e-6);
        let d = a.state_fingerprint().differing(&b.state_fingerprint());
        assert_eq!(d, vec![Component::BranchLengths]);
    }

    #[test]
    fn psr_site_rate_optimization_is_safe() {
        let mut e = make_eval(RateModelKind::Psr);
        let l0 = e.evaluate(0);
        e.optimize_site_rates();
        let l1 = e.evaluate(0);
        assert!(l1 >= l0 - 1e-6, "{l0} -> {l1}");
    }

    #[test]
    fn gamma_site_rate_optimization_is_noop() {
        let mut e = make_eval(RateModelKind::Gamma);
        let l0 = e.evaluate(0);
        e.optimize_site_rates();
        let l1 = e.evaluate(0);
        assert_eq!(l0, l1);
    }
}

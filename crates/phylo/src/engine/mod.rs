//! The partitioned likelihood engine.
//!
//! An [`Engine`] owns the **local slice** of the alignment a rank was
//! assigned (all partitions, or pattern subsets of them), the per-partition
//! models, and the conditional likelihood vectors (CLVs). It executes the
//! three kernels every likelihood-based phylogenetics code spends >90% of
//! its time in (§II):
//!
//! 1. [`Engine::execute`] — `newview`: recompute CLVs per a traversal
//!    descriptor (Felsenstein pruning); [`Engine::refresh`] is the same
//!    minus the partitions whose CLVs already hold what it would write,
//! 2. [`Engine::evaluate`] — per-partition log-likelihood at the virtual
//!    root (the caller reduces across ranks),
//! 3. [`Engine::prepare_derivatives`] + [`Engine::derivatives`] — first and
//!    second branch-length derivatives via RAxML's eigenbasis sumtable.
//!
//! The engine is deliberately **tree-agnostic**: it only sees node ids and
//! branch lengths inside descriptor entries. This is exactly the property
//! the fork-join scheme exploits (workers never hold a tree, §III-A) and it
//! guarantees the de-centralized and fork-join drivers execute bit-identical
//! arithmetic.

pub mod backend;
pub mod gradient;
mod pool;
pub mod repeats;
mod site_rates;

pub use backend::{simd_available, KernelChoice, KernelKind};
pub use gradient::{GradientChoice, GradientMode};
pub use pool::{ThreadCount, ThreadsChoice};
pub use repeats::{RepeatsChoice, SiteRepeats};

use backend::{root_side, KernelBackend, KernelScratch, OutsideJob, RootSide};
use pool::{TaskSlots, WorkerPool};
use repeats::{NodeRepeats, RepeatScratch};

use crate::model::gtr::GtrModel;
use crate::model::rates::{RateHeterogeneity, RateModelKind};
use crate::tree::traversal::{GradSource, GradientPlan, TraversalDescriptor};
use exa_bio::dna::NUM_STATES;
use exa_bio::patterns::CompressedPartition;
use exa_bio::stats::empirical_frequencies;
use std::sync::Arc;

/// Callback handed a local partition index and two parallel per-pattern
/// addend slices (first/second derivative terms, or PSR numerator and
/// denominator terms) by the `*_with_terms` kernel variants, so callers can
/// feed reproducible binned reductions.
pub type PairTermsSink<'a> = dyn FnMut(usize, &[f64], &[f64]) + 'a;

/// Per-pattern derivative-addend sink for the full-tree gradient sweep:
/// `(local_partition, edge, d1_terms, d2_terms)`.
pub type EdgeTermsSink<'a> = dyn FnMut(usize, usize, &[f64], &[f64]) + 'a;

/// CLV underflow threshold: entries below 2⁻²⁵⁶ trigger rescaling by 2²⁵⁶
/// (RAxML's constants).
pub const MIN_LIKELIHOOD: f64 = 8.636_168_555_094_445e-78; // 2^-256
pub const TWO_TO_256: f64 = 1.157_920_892_373_162e77; // 2^256
/// ln(2⁻²⁵⁶), added per scaling event when assembling log-likelihoods.
pub const LN_MIN_LIKELIHOOD: f64 = -177.445_678_223_346;

/// The immutable data of one local partition slice.
#[derive(Debug, Clone)]
pub struct PartitionSlice {
    /// Name (diagnostics only).
    pub name: String,
    /// Index of this partition in the global scheme (model-parameter
    /// batching is keyed on this).
    pub global_index: usize,
    /// Tip codes: `tips[taxon][pattern]`. Shared — an N-rank in-process
    /// cluster whose ranks all hold the full partition points every rank at
    /// one copy of the tip matrix instead of N clones.
    pub tips: Arc<Vec<Vec<u8>>>,
    /// Pattern weights (shared, like `tips`).
    pub weights: Arc<Vec<f64>>,
    /// Empirical base frequencies of the **full** partition. When a slice
    /// holds only a pattern subset (cyclic distribution), frequencies must
    /// still be the global ones or ranks would build different GTR models
    /// for the same partition and diverge.
    pub freqs: [f64; 4],
}

impl PartitionSlice {
    /// Build from a compressed partition, deriving frequencies from the
    /// partition itself. Only correct when `p` is the *full* partition —
    /// for subsets use [`PartitionSlice::from_subset`].
    pub fn from_compressed(global_index: usize, p: &CompressedPartition) -> PartitionSlice {
        let freqs = empirical_frequencies(p);
        PartitionSlice::from_subset(global_index, p, freqs)
    }

    /// Build from a (possibly subset) compressed partition with externally
    /// supplied global frequencies.
    pub fn from_subset(
        global_index: usize,
        p: &CompressedPartition,
        freqs: [f64; 4],
    ) -> PartitionSlice {
        PartitionSlice {
            name: p.name.clone(),
            global_index,
            tips: Arc::new(p.tips.clone()),
            weights: Arc::new(p.weights.iter().map(|&w| w as f64).collect()),
            freqs,
        }
    }

    /// Build a slice around already-shared tip/weight tables (full
    /// partitions distributed to several in-process ranks).
    pub fn from_shared(
        global_index: usize,
        name: String,
        tips: Arc<Vec<Vec<u8>>>,
        weights: Arc<Vec<f64>>,
        freqs: [f64; 4],
    ) -> PartitionSlice {
        PartitionSlice {
            name,
            global_index,
            tips,
            weights,
            freqs,
        }
    }

    /// Number of patterns in this slice.
    pub fn n_patterns(&self) -> usize {
        self.weights.len()
    }
}

/// Kernel work counters, used by the analytic cluster model, the heartbeat's
/// measured per-rank load and the benchmark's `core.work_entries` row. All
/// counts are in units of `pattern × rate-category`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// CLV entries recomputed by `newview`.
    pub clv_updates: u64,
    /// CLV entries `newview` *skipped* thanks to subtree-repeat compression
    /// (duplicates are read through the class map, never written).
    /// Excluded from [`WorkCounters::total`] — skipped work is not work.
    pub clv_saved: u64,
    /// Pattern-categories combined in `evaluate`.
    pub eval_patterns: u64,
    /// Pattern-categories processed by `derivatives` calls.
    pub deriv_patterns: u64,
    /// Pattern-categories processed during per-site rate optimization.
    pub site_rate_patterns: u64,
    /// Wall-clock nanoseconds spent inside the engine's kernel methods.
    /// Measured, not modeled — the heartbeat monitor's per-rank load
    /// signal. Excluded from [`WorkCounters::total`] (different unit).
    pub kernel_ns: u64,
    /// Batched kernel dispatches issued: one per batch per backend entry
    /// point (and per traversal entry for `newview`). This is the count the
    /// analytic cluster model multiplies by its per-dispatch overhead —
    /// partition packing wins exactly by shrinking it. Excluded from
    /// [`WorkCounters::total`] (different unit).
    pub dispatches: u64,
}

impl WorkCounters {
    /// Field-wise sum.
    pub fn merge(&self, other: &WorkCounters) -> WorkCounters {
        WorkCounters {
            clv_updates: self.clv_updates + other.clv_updates,
            clv_saved: self.clv_saved + other.clv_saved,
            eval_patterns: self.eval_patterns + other.eval_patterns,
            deriv_patterns: self.deriv_patterns + other.deriv_patterns,
            site_rate_patterns: self.site_rate_patterns + other.site_rate_patterns,
            kernel_ns: self.kernel_ns + other.kernel_ns,
            dispatches: self.dispatches + other.dispatches,
        }
    }

    /// Total kernel work (pattern-categories; `kernel_ns` is wall time and
    /// `clv_saved` is avoided work, so both stay out of this sum).
    pub fn total(&self) -> u64 {
        self.clv_updates + self.eval_patterns + self.deriv_patterns + self.site_rate_patterns
    }

    /// Repeat-compression factor of `newview`: full work over performed
    /// work, ≥ 1.0 (1.0 = nothing saved; meaningful only once some
    /// `newview` work has been counted).
    pub fn repeat_ratio(&self) -> f64 {
        if self.clv_updates == 0 {
            1.0
        } else {
            (self.clv_updates + self.clv_saved) as f64 / self.clv_updates as f64
        }
    }
}

/// Per-partition mutable engine state.
pub(crate) struct PartitionState {
    pub data: PartitionSlice,
    pub model: GtrModel,
    pub rates: RateHeterogeneity,
    /// `clv[inner][row * cats * 4 + c*4 + s]`: pattern `i` lives at the
    /// row [`backend::root_side`] maps it to (its repeat class, or `i`).
    /// Sized for one row per pattern; a compressed node uses its first
    /// `n_classes` rows.
    pub clv: Vec<Vec<f64>>,
    /// Accumulated scaling counts: `scale[inner][row]`, rows as in `clv`.
    pub scale: Vec<Vec<u32>>,
    /// Derivative sumtable: `[pattern * cats * 4]` in the eigenbasis.
    pub sumtable: Vec<f64>,
    /// Scratch: per-pattern rates during PSR optimization.
    pub psr_scratch: Vec<f64>,
    /// Reusable kernel scratch (P-matrices, tip lookups) — refilled per edge
    /// instead of reallocated.
    pub scratch: KernelScratch,
    /// Per-inner-node subtree-repeat tables (empty when compression is
    /// off). Indexed like `clv` (`node - n_taxa`).
    pub repeats: Vec<NodeRepeats>,
    /// Bumped whenever the PSR pattern→category map may have changed;
    /// part of every repeat table's cache key.
    pub repeat_epoch: u64,
    /// Shared repeat-builder scratch (dedup table, identity list).
    pub repeat_scratch: RepeatScratch,
    /// Reusable buffers for the `*_with_terms` kernel variants: filled
    /// inside the (possibly parallel) batch region, consumed serially by
    /// the caller's sink in local-partition order.
    pub terms_a: Vec<f64>,
    pub terms_b: Vec<f64>,
    /// Gradient-sweep scratch: per-edge "outside" CLVs and their scaling
    /// counts (`grad_clv[edge]`), sized lazily on the first sweep and
    /// reused across sweeps.
    pub grad_clv: Vec<Vec<f64>>,
    pub grad_scale: Vec<Vec<u32>>,
    /// Per-edge first/second-derivative term buffers filled by
    /// [`Engine::edge_gradient_with_terms`] inside the parallel batch
    /// region, consumed serially by the caller's sink.
    pub grad_t1: Vec<Vec<f64>>,
    pub grad_t2: Vec<Vec<f64>>,
    /// The model's bits changed since the last full traversal, so its CLVs
    /// no longer hold what a replay of `Engine::last_full` would write.
    pub model_dirty: bool,
}

impl PartitionState {
    fn new(
        data: PartitionSlice,
        n_inner: usize,
        kind: RateModelKind,
        alpha0: f64,
        site_repeats: SiteRepeats,
    ) -> PartitionState {
        let n_patterns = data.n_patterns();
        let model = GtrModel::new([1.0; 6], data.freqs);
        let rates = match kind {
            RateModelKind::Gamma => RateHeterogeneity::gamma(alpha0),
            RateModelKind::Psr => RateHeterogeneity::psr(n_patterns),
        };
        let cats = rates.clv_categories();
        PartitionState {
            data,
            model,
            rates,
            // Zeroed per node: cloning one zeroed buffer would `memcpy` it.
            clv: (0..n_inner)
                .map(|_| vec![0.0; n_patterns * cats * NUM_STATES])
                .collect(),
            scale: (0..n_inner).map(|_| vec![0; n_patterns]).collect(),
            sumtable: vec![0.0; n_patterns * cats * NUM_STATES],
            psr_scratch: vec![1.0; n_patterns],
            scratch: KernelScratch::default(),
            repeats: match site_repeats {
                SiteRepeats::On => vec![NodeRepeats::default(); n_inner],
                SiteRepeats::Off => Vec::new(),
            },
            repeat_epoch: 0,
            repeat_scratch: RepeatScratch::default(),
            terms_a: Vec::new(),
            terms_b: Vec::new(),
            grad_clv: Vec::new(),
            grad_scale: Vec::new(),
            grad_t1: Vec::new(),
            grad_t2: Vec::new(),
            model_dirty: false,
        }
    }

    /// The length of one CLV (or outside CLV) buffer:
    /// `patterns × categories × 4` entries.
    fn clv_len(&self) -> usize {
        self.data.n_patterns() * self.rates.clv_categories() * NUM_STATES
    }
}

/// The likelihood engine over a rank's local data.
pub struct Engine {
    n_taxa: usize,
    /// Configured rate model — kept even when the rank holds zero
    /// partitions (MPS with more ranks than partitions), so collective
    /// call sequences stay identical across ranks.
    kind: RateModelKind,
    /// The kernel backend all partitions run on. Must be uniform across
    /// ranks in multi-rank runs (see [`backend`] docs).
    backend: &'static dyn KernelBackend,
    /// Subtree-repeat compression setting (uniform across ranks, like the
    /// backend — see [`repeats`] docs).
    site_repeats: SiteRepeats,
    pub(crate) parts: Vec<PartitionState>,
    /// Consecutive local-partition ranges, each executed as **one** kernel
    /// dispatch sharing one scratch set. Always an exact cover of
    /// `0..parts.len()`; defaults to singleton batches (= the historical
    /// one-dispatch-per-partition behavior).
    batches: Vec<std::ops::Range<usize>>,
    /// One kernel scratch per batch (P-matrices, tip lookups),
    /// swapped into each member partition for the duration of its backend
    /// call so the buffers are built once per batch and reused across the
    /// partitions in it.
    batch_scratch: Vec<KernelScratch>,
    /// Intra-rank worker pool executing batches task-parallel. One thread =
    /// fully inline serial execution.
    pool: WorkerPool,
    work: WorkCounters,
    /// The last full descriptor (`n_taxa − 2` entries) a traversal ran,
    /// kept while no non-empty partial one has run since. Every partition
    /// whose `model_dirty` is clear still holds in its CLVs exactly what
    /// this descriptor writes.
    last_full: Option<TraversalDescriptor>,
}

impl Engine {
    /// Build an engine for `n_taxa` taxa over the given partition slices,
    /// all running the same rate-heterogeneity `kind` with initial Γ shape
    /// `alpha0` (ignored under PSR). GTR starts at equal exchangeabilities
    /// with empirical base frequencies, RAxML's defaults.
    ///
    /// The kernel backend is `auto` resolved against the local machine and
    /// site-repeat compression is on, the defaults of a run. A run's driver
    /// passes the modes it resolved through [`Engine::with_config`] instead.
    pub fn new(
        n_taxa: usize,
        slices: Vec<PartitionSlice>,
        kind: RateModelKind,
        alpha0: f64,
    ) -> Engine {
        Engine::with_config(
            n_taxa,
            slices,
            kind,
            alpha0,
            KernelChoice::Auto.resolve_local(),
            SiteRepeats::On,
        )
    }

    /// [`Engine::new`] with every backend knob chosen explicitly, as a run's
    /// driver does from its resolved modes.
    pub fn with_config(
        n_taxa: usize,
        slices: Vec<PartitionSlice>,
        kind: RateModelKind,
        alpha0: f64,
        kernel: KernelKind,
        site_repeats: SiteRepeats,
    ) -> Engine {
        assert!(n_taxa >= 3, "need at least 3 taxa");
        let n_inner = n_taxa - 2;
        let parts: Vec<PartitionState> = slices
            .into_iter()
            .map(|s| PartitionState::new(s, n_inner, kind, alpha0, site_repeats))
            .collect();
        let n = parts.len();
        Engine {
            n_taxa,
            kind,
            backend: backend::backend_for(kernel),
            site_repeats,
            parts,
            batches: (0..n).map(|i| i..i + 1).collect(),
            batch_scratch: (0..n).map(|_| KernelScratch::default()).collect(),
            pool: WorkerPool::new(1),
            work: WorkCounters::default(),
            last_full: None,
        }
    }

    /// Replace the batch layout. `batches` must be an exact consecutive
    /// cover of the local partitions (every partition in exactly one batch,
    /// local order preserved) — packing may only group, never permute, so
    /// result slots and serial reductions keep their historical order.
    pub fn set_batches(&mut self, batches: Vec<std::ops::Range<usize>>) {
        let mut next = 0usize;
        for r in &batches {
            assert!(
                r.start == next && r.end > r.start,
                "batches must consecutively cover local partitions: got {:?} at offset {next}",
                r
            );
            next = r.end;
        }
        assert_eq!(next, self.parts.len(), "batches must cover every partition");
        self.batch_scratch = (0..batches.len())
            .map(|_| KernelScratch::default())
            .collect();
        self.batches = batches;
    }

    /// Resize the intra-rank worker pool to `threads` executors. Bitwise
    /// result-neutral: the thread schedule never reaches the arithmetic
    /// (see [`pool`] docs).
    pub fn set_threads(&mut self, threads: usize) {
        if self.pool.threads() != threads {
            self.pool = WorkerPool::new(threads);
        }
    }

    /// Intra-rank thread count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Number of kernel batches the local partitions are packed into.
    pub fn batch_count(&self) -> usize {
        self.batches.len()
    }

    /// The kernel backend this engine runs on.
    pub fn kernel_kind(&self) -> KernelKind {
        self.backend.kind()
    }

    /// Whether this engine compresses subtree repeats in `newview`.
    pub fn site_repeats(&self) -> SiteRepeats {
        self.site_repeats
    }

    /// Number of taxa.
    pub fn n_taxa(&self) -> usize {
        self.n_taxa
    }

    /// Number of local partitions.
    pub fn n_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Global partition indices of the local slices, in local order.
    pub fn global_indices(&self) -> Vec<usize> {
        self.parts.iter().map(|p| p.data.global_index).collect()
    }

    /// Total local patterns.
    pub fn total_patterns(&self) -> usize {
        self.parts.iter().map(|p| p.data.n_patterns()).sum()
    }

    /// Rate-model kind (uniform across partitions; retained even with zero
    /// local partitions).
    pub fn rate_kind(&self) -> RateModelKind {
        self.kind
    }

    /// CLV memory held by this engine, in bytes.
    pub fn clv_bytes(&self) -> u64 {
        self.parts
            .iter()
            .map(|p| {
                let clv: usize = p.clv.iter().map(|v| v.len() * 8).sum();
                let sc: usize = p.scale.iter().map(|v| v.len() * 4).sum();
                (clv + sc + p.sumtable.len() * 8) as u64
            })
            .sum()
    }

    /// Read-and-keep the work counters.
    pub fn work(&self) -> WorkCounters {
        self.work
    }

    /// Reset the work counters to zero.
    pub fn reset_work(&mut self) {
        self.work = WorkCounters::default();
    }

    /// The Γ shape of local partition `local` (None under PSR).
    pub fn alpha(&self, local: usize) -> Option<f64> {
        self.parts[local].rates.alpha()
    }

    /// Set the Γ shape of local partition `local`. The caller must
    /// invalidate all CLVs on its tree afterwards.
    pub fn set_alpha(&mut self, local: usize, alpha: f64) {
        let p = &mut self.parts[local];
        p.model_dirty |= p.rates.set_alpha(alpha);
        debug_assert_eq!(p.clv_len(), p.clv[0].len());
    }

    /// Current GTR exchangeabilities of local partition `local`.
    pub fn gtr_rates(&self, local: usize) -> [f64; 6] {
        *self.parts[local].model.rates()
    }

    /// Base frequencies of local partition `local`.
    pub fn freqs(&self, local: usize) -> [f64; 4] {
        *self.parts[local].model.freqs()
    }

    /// Set one free GTR exchangeability (0..=4) of partition `local`.
    /// Caller must invalidate CLVs.
    pub fn set_gtr_rate(&mut self, local: usize, index: usize, value: f64) {
        let p = &mut self.parts[local];
        p.model_dirty |= p.model.set_rate(index, value);
    }

    /// Replace the full model state of a partition (checkpoint restore).
    pub fn set_model_state(&mut self, local: usize, model: GtrModel, rates: RateHeterogeneity) {
        let p = &mut self.parts[local];
        assert_eq!(
            rates.clv_categories(),
            p.rates.clv_categories(),
            "cannot switch rate-category count at runtime"
        );
        if let RateHeterogeneity::Psr { pattern_cat, .. } = &rates {
            assert_eq!(
                pattern_cat.len(),
                p.data.n_patterns(),
                "PSR state has wrong pattern count"
            );
        }
        if p.model.same_bits(&model) && p.rates.same_bits(&rates) {
            return;
        }
        p.model = model;
        p.rates = rates;
        p.model_dirty = true;
        // A restored PSR state may carry a different pattern→category map,
        // which is part of every repeat-table key.
        if matches!(p.rates, RateHeterogeneity::Psr { .. }) {
            p.repeat_epoch += 1;
        }
    }

    /// The immutable data slice of local partition `local`.
    pub fn partition_slice(&self, local: usize) -> &PartitionSlice {
        &self.parts[local].data
    }

    /// Clone of the model state (checkpointing).
    pub fn model_state(&self, local: usize) -> (GtrModel, RateHeterogeneity) {
        (
            self.parts[local].model.clone(),
            self.parts[local].rates.clone(),
        )
    }

    /// The branch length used by local partition `local` given a descriptor
    /// length vector (1 = joint, else indexed by *global* partition).
    pub(crate) fn branch_length(lengths: &[f64], global_index: usize) -> f64 {
        if lengths.len() == 1 {
            lengths[0]
        } else {
            lengths[global_index]
        }
    }

    /// The batched kernel runner every engine entry point goes through.
    ///
    /// Runs `f(local, part)` for every local partition, batch by batch:
    /// each batch is one pool task, its member partitions executed in local
    /// order with the batch's shared scratch swapped in. Results land in
    /// per-partition indexed slots and are returned in local order, so the
    /// output is independent of the thread schedule; callers perform any
    /// cross-partition floating-point accumulation serially over the
    /// returned vector. When `trace` is set and tracing is active, per-
    /// partition kernel timings are buffered in the parallel region and
    /// emitted serially here (the tracer is single-claimant per rank).
    fn for_each_part<T, F>(&mut self, trace: Option<exa_obs::RegionKind>, f: F) -> Vec<T>
    where
        T: Default + Send,
        F: Fn(usize, &mut PartitionState) -> T + Sync,
    {
        let n = self.parts.len();
        let per_part = trace.is_some() && exa_obs::tracing_active();
        let mut out: Vec<T> = Vec::with_capacity(n);
        out.resize_with(n, T::default);
        let mut tns: Vec<u64> = vec![0; if per_part { n } else { 0 }];
        {
            struct BatchView<'a, T> {
                start: usize,
                parts: &'a mut [PartitionState],
                out: &'a mut [T],
                tns: &'a mut [u64],
                scratch: &'a mut KernelScratch,
            }
            let mut views: Vec<BatchView<'_, T>> = Vec::with_capacity(self.batches.len());
            let mut parts_rem = self.parts.as_mut_slice();
            let mut out_rem = out.as_mut_slice();
            let mut tns_rem = tns.as_mut_slice();
            let mut scratch_rem = self.batch_scratch.as_mut_slice();
            for r in &self.batches {
                let len = r.end - r.start;
                let (p, rest) = parts_rem.split_at_mut(len);
                parts_rem = rest;
                let (o, rest) = out_rem.split_at_mut(len);
                out_rem = rest;
                let t: &mut [u64] = if per_part {
                    let (t, rest) = tns_rem.split_at_mut(len);
                    tns_rem = rest;
                    t
                } else {
                    &mut []
                };
                let (s, rest) = scratch_rem.split_at_mut(1);
                scratch_rem = rest;
                views.push(BatchView {
                    start: r.start,
                    parts: p,
                    out: o,
                    tns: t,
                    scratch: &mut s[0],
                });
            }
            let slots = TaskSlots::new(views);
            let f = &f;
            self.pool.run(self.batches.len(), &|b| {
                // SAFETY: the pool claims each batch index exactly once.
                let v = unsafe { slots.slot(b) };
                for (off, part) in v.parts.iter_mut().enumerate() {
                    let t0 = (!v.tns.is_empty()).then(std::time::Instant::now);
                    std::mem::swap(&mut part.scratch, v.scratch);
                    v.out[off] = f(v.start + off, part);
                    std::mem::swap(&mut part.scratch, v.scratch);
                    if let Some(t0) = t0 {
                        v.tns[off] = t0.elapsed().as_nanos() as u64;
                    }
                }
            });
        }
        if let (true, Some(kind)) = (per_part, trace) {
            for (local, ns) in tns.iter().enumerate() {
                exa_obs::kernel(kind, self.parts[local].data.global_index as u32, *ns);
            }
        }
        out
    }

    /// Execute a traversal descriptor: recompute the listed CLVs for every
    /// local partition.
    pub fn execute(&mut self, d: &TraversalDescriptor) {
        self.newview(d, false);
    }

    /// [`Engine::execute`] minus the partitions whose CLVs provably already
    /// hold what `d` would write: when `d` is bitwise the last full
    /// descriptor and no partial one has run since, a partition whose model
    /// bits have not changed is skipped (a CLV is a function of the model,
    /// the data, the child CLVs and the child branch lengths only). The
    /// result is bit-identical to [`Engine::execute`]; only `clv_updates` /
    /// `clv_saved` count less — `dispatches` keeps counting every batch.
    pub fn refresh(&mut self, d: &TraversalDescriptor) {
        self.newview(d, true);
    }

    /// The writer of `PartitionState::clv` besides the PSR grid passes of
    /// [`Engine::optimize_site_rates`], which clear `last_full`; any other
    /// writer would have to clear it too.
    fn newview(&mut self, d: &TraversalDescriptor, reuse: bool) {
        let _span = exa_obs::region(exa_obs::RegionKind::Newview);
        let started = std::time::Instant::now();
        let n_taxa = self.n_taxa;
        let backend = self.backend;
        let full = d.entries.len() == n_taxa - 2;
        let replay = reuse && full && self.last_full.as_ref().is_some_and(|m| m.same_bits(d));
        let results = self.for_each_part(Some(exa_obs::RegionKind::Newview), |_, part| {
            let skip = replay && !part.model_dirty;
            if full {
                part.model_dirty = false;
            }
            if skip {
                return (0, 0);
            }
            let all = (part.data.n_patterns() * part.rates.clv_categories()) as u64;
            let mut work = 0u64;
            let mut saved = 0u64;
            for entry in &d.entries {
                let w = backend.newview_entry(part, n_taxa, entry);
                work += w;
                saved += all - w;
            }
            (work, saved)
        });
        for (work, saved) in results {
            self.work.clv_updates += work;
            self.work.clv_saved += saved;
        }
        if !full {
            if !d.is_empty() {
                self.last_full = None;
            }
        } else if !replay {
            match &mut self.last_full {
                Some(m) => m.clone_from(d),
                none => *none = Some(d.clone()),
            }
        }
        self.work.dispatches += self.batches.len() as u64 * d.entries.len() as u64;
        self.work.kernel_ns += started.elapsed().as_nanos() as u64;
    }

    /// Per-partition log-likelihoods at the descriptor's virtual root.
    /// CLVs must be up to date (call [`Engine::execute`] first or use the
    /// combined form in the drivers).
    pub fn evaluate(&mut self, d: &TraversalDescriptor) -> Vec<f64> {
        self.evaluate_impl(d, false)
    }

    /// [`Engine::evaluate`] variant that also hands the caller the
    /// per-pattern weighted log-likelihood addends of each local partition
    /// (`sink(local_index, terms)`, serially in local-partition order), for
    /// reproducible binned reduction. The per-partition lnl stays the plain
    /// left-to-right sum, so `Fast` results are unchanged.
    pub fn evaluate_with_terms(
        &mut self,
        d: &TraversalDescriptor,
        sink: &mut dyn FnMut(usize, &[f64]),
    ) -> Vec<f64> {
        let out = self.evaluate_impl(d, true);
        for (local, part) in self.parts.iter().enumerate() {
            sink(local, &part.terms_a);
        }
        out
    }

    /// With `want_terms` the addends land in each partition's `terms_a` and
    /// no per-partition kernel timings are traced.
    fn evaluate_impl(&mut self, d: &TraversalDescriptor, want_terms: bool) -> Vec<f64> {
        let _span = exa_obs::region(exa_obs::RegionKind::Evaluate);
        let started = std::time::Instant::now();
        let n_taxa = self.n_taxa;
        let backend = self.backend;
        let trace = (!want_terms).then_some(exa_obs::RegionKind::Evaluate);
        let results = self.for_each_part(trace, |_, part| {
            let mut terms = want_terms.then(|| std::mem::take(&mut part.terms_a));
            let out = backend.evaluate_root(part, n_taxa, d, terms.as_mut());
            if let Some(terms) = terms {
                part.terms_a = terms;
            }
            out
        });
        let mut out = Vec::with_capacity(results.len());
        for (lnl, w) in results {
            out.push(lnl);
            self.work.eval_patterns += w;
        }
        self.work.dispatches += self.batches.len() as u64;
        self.work.kernel_ns += started.elapsed().as_nanos() as u64;
        out
    }

    /// Build the derivative sumtables for the descriptor's root edge.
    /// CLVs must be up to date.
    pub fn prepare_derivatives(&mut self, d: &TraversalDescriptor) {
        let started = std::time::Instant::now();
        let n_taxa = self.n_taxa;
        let backend = self.backend;
        self.for_each_part(None, |_, part| {
            backend.make_sumtable(part, n_taxa, d);
        });
        self.work.dispatches += self.batches.len() as u64;
        self.work.kernel_ns += started.elapsed().as_nanos() as u64;
    }

    /// First and second log-likelihood derivatives w.r.t. the root-edge
    /// branch length, per local partition. `lengths` holds the candidate
    /// branch length(s): one entry (joint) or one per *global* partition.
    /// Requires [`Engine::prepare_derivatives`] to have run for this edge.
    pub fn derivatives(&mut self, lengths: &[f64]) -> (Vec<f64>, Vec<f64>) {
        self.derivatives_impl(lengths, false)
    }

    /// [`Engine::derivatives`] variant that also hands the caller the
    /// per-pattern first/second-derivative addends of each local partition
    /// (`sink(local_index, d1_terms, d2_terms)`, serially in local-partition
    /// order), for reproducible binned reduction.
    pub fn derivatives_with_terms(
        &mut self,
        lengths: &[f64],
        sink: &mut PairTermsSink<'_>,
    ) -> (Vec<f64>, Vec<f64>) {
        let out = self.derivatives_impl(lengths, true);
        for (local, part) in self.parts.iter().enumerate() {
            sink(local, &part.terms_a, &part.terms_b);
        }
        out
    }

    /// With `want_terms` the addends land in each partition's `terms_a` /
    /// `terms_b` and no per-partition kernel timings are traced.
    fn derivatives_impl(&mut self, lengths: &[f64], want_terms: bool) -> (Vec<f64>, Vec<f64>) {
        let _span = exa_obs::region(exa_obs::RegionKind::CoreDerivative);
        let started = std::time::Instant::now();
        let backend = self.backend;
        let trace = (!want_terms).then_some(exa_obs::RegionKind::CoreDerivative);
        let results = self.for_each_part(trace, |_, part| {
            let t = Engine::branch_length(lengths, part.data.global_index);
            let mut terms = want_terms.then(|| {
                (
                    std::mem::take(&mut part.terms_a),
                    std::mem::take(&mut part.terms_b),
                )
            });
            let out =
                backend.derivatives_from_sumtable(part, t, terms.as_mut().map(|(t1, t2)| (t1, t2)));
            if let Some((t1, t2)) = terms {
                part.terms_a = t1;
                part.terms_b = t2;
            }
            out
        });
        let mut d1 = Vec::with_capacity(results.len());
        let mut d2 = Vec::with_capacity(results.len());
        for (a, b, w) in results {
            d1.push(a);
            d2.push(b);
            self.work.deriv_patterns += w;
        }
        self.work.dispatches += self.batches.len() as u64;
        self.work.kernel_ns += started.elapsed().as_nanos() as u64;
        (d1, d2)
    }

    /// Full-tree branch gradient: `(dlnL/dt, d²lnL/dt²)` for **every** edge
    /// of the plan, per local partition (`result[local][edge]`), in one
    /// pre-order sweep over materialized outside CLVs — a single kernel
    /// dispatch per batch instead of one `prepare`+`derivatives` pair per
    /// edge. Each edge's pair is produced by the *same*
    /// `derivatives_from_sumtable` kernel the per-edge path runs, from a
    /// sumtable whose sides are the canonical CLVs of the edge's two
    /// directions, so every entry is bitwise identical to what
    /// [`Engine::prepare_derivatives`] + [`Engine::derivatives`] would
    /// return at that edge. Inward CLVs must be valid and oriented toward
    /// the plan's root edge (execute the root's traversal descriptor first).
    pub fn edge_gradient(&mut self, plan: &GradientPlan) -> Vec<Vec<(f64, f64)>> {
        self.edge_gradient_impl(plan, false)
    }

    /// [`Engine::edge_gradient`] variant that also hands the caller the
    /// per-pattern first/second-derivative addends of every edge
    /// (`sink(local_index, edge, d1_terms, d2_terms)`, serially in
    /// local-partition-major order), for reproducible binned reduction.
    pub fn edge_gradient_with_terms(
        &mut self,
        plan: &GradientPlan,
        sink: &mut EdgeTermsSink<'_>,
    ) -> Vec<Vec<(f64, f64)>> {
        let out = self.edge_gradient_impl(plan, true);
        for local in 0..self.parts.len() {
            let part = &self.parts[local];
            for edge in 0..plan.n_edges {
                sink(local, edge, &part.grad_t1[edge], &part.grad_t2[edge]);
            }
        }
        out
    }

    fn edge_gradient_impl(
        &mut self,
        plan: &GradientPlan,
        want_terms: bool,
    ) -> Vec<Vec<(f64, f64)>> {
        let _span = exa_obs::region(exa_obs::RegionKind::CoreDerivative);
        let started = std::time::Instant::now();
        let n_taxa = self.n_taxa;
        let backend = self.backend;
        let results = self.for_each_part(Some(exa_obs::RegionKind::CoreDerivative), |_, part| {
            sweep_partition(backend, part, n_taxa, plan, want_terms)
        });
        let mut out = Vec::with_capacity(results.len());
        for (grad, w) in results {
            out.push(grad);
            self.work.deriv_patterns += w;
        }
        self.work.dispatches += self.batches.len() as u64;
        self.work.kernel_ns += started.elapsed().as_nanos() as u64;
        out
    }

    /// Locally optimize per-pattern PSR rates (see the `site_rates` module) —
    /// returns `(Σ w·r, Σ w)` over local patterns so the caller can compute
    /// the global normalization with one small allreduce. `d` must be a full
    /// traversal; under PSR its grid passes leave every CLV at a candidate
    /// rate, so the caller must recompute them (as after
    /// [`Engine::finalize_site_rates`]).
    pub fn optimize_site_rates(&mut self, d: &TraversalDescriptor) -> (f64, f64) {
        let started = std::time::Instant::now();
        let n_taxa = self.n_taxa;
        let backend = self.backend;
        let results = self.for_each_part(None, |_, part| {
            site_rates::optimize_partition(backend, part, n_taxa, d)
        });
        if self.kind == RateModelKind::Psr {
            // The grid passes wrote the CLVs: a `refresh` must not replay
            // over them, even when finalizing changes no rate bit.
            self.last_full = None;
        }
        // The num/den accumulation order is observable in the f64 bits:
        // sum serially in local-partition order, exactly as before.
        let mut num = 0.0;
        let mut den = 0.0;
        for (n, dn, w) in results {
            num += n;
            den += dn;
            self.work.site_rate_patterns += w;
        }
        self.work.dispatches += self.batches.len() as u64;
        self.work.kernel_ns += started.elapsed().as_nanos() as u64;
        (num, den)
    }

    /// [`Engine::optimize_site_rates`] variant that also hands the caller
    /// the per-pattern normalization addends (`sink(local_index, num_terms,
    /// den_terms)` with `numᵢ = wᵢ·rᵢ`, `denᵢ = wᵢ`) for reproducible binned
    /// reduction. Γ partitions contribute no terms. The terms are
    /// reconstructed serially from the optimized rates left in `psr_scratch`,
    /// so the kernel path is the plain variant's and the sink sees
    /// local-partition order.
    pub fn optimize_site_rates_with_terms(
        &mut self,
        d: &TraversalDescriptor,
        sink: &mut PairTermsSink<'_>,
    ) -> (f64, f64) {
        let out = self.optimize_site_rates(d);
        let mut num_terms = Vec::new();
        let mut den_terms = Vec::new();
        for (local, part) in self.parts.iter().enumerate() {
            num_terms.clear();
            den_terms.clear();
            if matches!(part.rates, RateHeterogeneity::Psr { .. }) {
                for (i, &wgt) in part.data.weights.iter().enumerate() {
                    num_terms.push(wgt * part.psr_scratch[i]);
                    den_terms.push(wgt);
                }
            }
            sink(local, &num_terms, &den_terms);
        }
        out
    }

    /// Apply the global PSR normalization `scale` (= global Σw / Σw·r) and
    /// quantize rates into categories. Caller must invalidate CLVs.
    pub fn finalize_site_rates(&mut self, scale: f64) {
        for part in self.parts.iter_mut() {
            // Re-quantization moves patterns between rate categories, which
            // are part of the PSR repeat-class keys.
            if site_rates::finalize_partition(part, scale) {
                part.model_dirty = true;
                part.repeat_epoch += 1;
            }
        }
    }
}

/// One partition's full-tree gradient sweep: root-edge derivatives straight
/// from the two inward sides, then each plan step materializes the parent's
/// outside CLV (uncompressed, one row per pattern, read through the
/// identity list — bitwise-neutral w.r.t. site repeats, see the `repeats`
/// module doc) and runs the stock sumtable + derivative kernels at
/// that edge. Returns the per-edge `(d1, d2)` pairs and the pattern·category
/// work count.
fn sweep_partition(
    backend: &'static dyn KernelBackend,
    part: &mut PartitionState,
    n_taxa: usize,
    plan: &GradientPlan,
    want_terms: bool,
) -> (Vec<(f64, f64)>, u64) {
    let gi = part.data.global_index;
    let n_patterns = part.data.n_patterns();
    let clv_len = part.clv_len();
    let mut grad = vec![(0.0, 0.0); plan.n_edges];
    let mut work = 0u64;
    let mut grad_clv = std::mem::take(&mut part.grad_clv);
    let mut grad_scale = std::mem::take(&mut part.grad_scale);
    let mut grad_t1 = std::mem::take(&mut part.grad_t1);
    let mut grad_t2 = std::mem::take(&mut part.grad_t2);
    grad_clv.resize_with(plan.n_edges, Vec::new);
    grad_scale.resize_with(plan.n_edges, Vec::new);
    if want_terms {
        grad_t1.resize_with(plan.n_edges, Vec::new);
        grad_t2.resize_with(plan.n_edges, Vec::new);
    }
    // Root edge: sumtable straight from the two inward sides — exactly what
    // `make_sumtable` builds for the per-edge path.
    {
        let mut st = std::mem::take(&mut part.sumtable);
        {
            let a = root_side(part, n_taxa, plan.root_a);
            let b = root_side(part, n_taxa, plan.root_b);
            backend.sumtable_sides(part, &a, &b, &mut st);
        }
        part.sumtable = st;
    }
    work += grad_deriv_at(
        backend,
        part,
        &mut grad,
        &mut grad_t1,
        &mut grad_t2,
        want_terms,
        plan.root_edge,
        &plan.root_lengths,
        gi,
    );
    for step in &plan.steps {
        let mut out_clv = std::mem::take(&mut grad_clv[step.edge]);
        let mut out_scale = std::mem::take(&mut grad_scale[step.edge]);
        out_clv.resize(clv_len, 0.0);
        out_scale.resize(n_patterns, 0);
        let mut scratch = std::mem::take(&mut part.scratch);
        {
            let left = grad_source_side(part, n_taxa, &grad_clv, &grad_scale, &step.left);
            let right = grad_source_side(part, n_taxa, &grad_clv, &grad_scale, &step.right);
            let job = OutsideJob {
                t_left: Engine::branch_length(&step.left.lengths, gi),
                t_right: Engine::branch_length(&step.right.lengths, gi),
                left,
                right,
            };
            work +=
                backend.gradient_outside(part, &mut scratch, &job, &mut out_clv, &mut out_scale);
        }
        part.scratch = scratch;
        grad_clv[step.edge] = out_clv;
        grad_scale[step.edge] = out_scale;
        {
            let mut st = std::mem::take(&mut part.sumtable);
            {
                let outside = RootSide::Inner {
                    clv: &grad_clv[step.edge],
                    scale: &grad_scale[step.edge],
                    rows: &part.repeat_scratch.ident,
                };
                let inward = root_side(part, n_taxa, step.child);
                // `make_sumtable` roots at (edge.a, edge.b) with xa = edge.a's
                // side; mirror that orientation so the sumtable is bitwise
                // identical to the per-edge path's.
                let (a, b) = if step.swap_sides {
                    (&inward, &outside)
                } else {
                    (&outside, &inward)
                };
                backend.sumtable_sides(part, a, b, &mut st);
            }
            part.sumtable = st;
        }
        work += grad_deriv_at(
            backend,
            part,
            &mut grad,
            &mut grad_t1,
            &mut grad_t2,
            want_terms,
            step.edge,
            &step.lengths,
            gi,
        );
    }
    part.grad_clv = grad_clv;
    part.grad_scale = grad_scale;
    part.grad_t1 = grad_t1;
    part.grad_t2 = grad_t2;
    (grad, work)
}

#[allow(clippy::too_many_arguments)]
fn grad_deriv_at(
    backend: &'static dyn KernelBackend,
    part: &mut PartitionState,
    grad: &mut [(f64, f64)],
    t1: &mut [Vec<f64>],
    t2: &mut [Vec<f64>],
    want_terms: bool,
    edge: usize,
    lengths: &[f64],
    gi: usize,
) -> u64 {
    let t = Engine::branch_length(lengths, gi);
    let (d1, d2, w) = if want_terms {
        backend.derivatives_from_sumtable(part, t, Some((&mut t1[edge], &mut t2[edge])))
    } else {
        backend.derivatives_from_sumtable(part, t, None)
    };
    grad[edge] = (d1, d2);
    w
}

fn grad_source_side<'a>(
    part: &'a PartitionState,
    n_taxa: usize,
    grad_clv: &'a [Vec<f64>],
    grad_scale: &'a [Vec<u32>],
    src: &GradSource,
) -> RootSide<'a> {
    match src.from_outside {
        Some(e) => RootSide::Inner {
            clv: &grad_clv[e],
            scale: &grad_scale[e],
            rows: &part.repeat_scratch.ident,
        },
        None => root_side(part, n_taxa, src.node),
    }
}

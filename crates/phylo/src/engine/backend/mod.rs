//! Pluggable likelihood-kernel backends.
//!
//! The three kernels (`newview`, `evaluate`, the sumtable derivatives) take
//! over 90% of runtime (§II). BEAGLE's shape: one driver per kernel, written
//! once in this module (`impl dyn KernelBackend`), around inner loops that a
//! [`KernelBackend`] supplies — its P-matrix layout, its tip tables and four
//! pattern loops. Two implementations:
//!
//! * [`scalar`] — row-major P-matrices and straight-line loops,
//! * [`simd`] — column-major P-matrices and AVX2 4×f64 lanes over the
//!   `pattern × category × 4-state` CLV blocks; where AVX2 is unavailable
//!   [`KernelKind::Simd`] is served by the scalar loops, which compute the
//!   same bits.
//!
//! Both backends are **bitwise-identical by construction**: the SIMD code
//! uses no FMA contraction and reproduces the scalar association order in
//! every reduction (per-lane `((a·b₀ + a·b₁) + a·b₂) + a·b₃` row-dots,
//! per-pattern sums in lanes over patterns after a transpose). This keeps
//! checkpoints portable across backends and makes the replica-divergence
//! sentinel's bitwise fingerprint contract backend-independent — what must
//! stay uniform across ranks is the backend *identity* (fingerprinted
//! separately), not the arithmetic.
//!
//! Backends are selected per [`Engine`](super::Engine) at construction,
//! from the run's [`KernelChoice`] resolved on the host; every rank resolves
//! the same choice on the same host, so a world computes with one backend.

pub(crate) mod scalar;
#[cfg(target_arch = "x86_64")]
pub(crate) mod simd;

use serde::{Deserialize, Serialize};

use super::{repeats, Engine, PartitionState};
use crate::model::pmatrix::{exp_factors_into, ProbMatrix};
use crate::model::rates::RateHeterogeneity;
use crate::tree::traversal::{TraversalDescriptor, TraversalEntry};
use exa_bio::dna::NUM_STATES;

/// Precomputed tip contribution table for one P-matrix:
/// `table[code][s] = Σ_t P[s][t] · tip(code)[t]` for the 16 ambiguity codes.
pub(crate) type TipTable = [[f64; NUM_STATES]; 16];

/// A concrete kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelKind {
    /// Straight-line scalar code.
    Scalar,
    /// AVX2 vectorized (the scalar loops where AVX2 is missing).
    Simd,
}

impl KernelKind {
    /// Stable lowercase label (CLI values, trace/health stamps).
    pub fn label(&self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Simd => "simd",
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A kernel-selection policy, as requested on the command line or in a
/// run's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelChoice {
    /// Force the scalar backend.
    Scalar,
    /// Force the SIMD backend (the scalar loops where AVX2 is missing).
    Simd,
    /// The best backend this host offers: `simd` where AVX2 is detected,
    /// `scalar` otherwise.
    Auto,
}

impl KernelChoice {
    /// Parse a CLI value (`scalar`, `simd`, `auto`).
    pub fn parse(s: &str) -> Option<KernelChoice> {
        match s {
            "scalar" => Some(KernelChoice::Scalar),
            "simd" => Some(KernelChoice::Simd),
            "auto" => Some(KernelChoice::Auto),
            _ => None,
        }
    }

    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            KernelChoice::Scalar => "scalar",
            KernelChoice::Simd => "simd",
            KernelChoice::Auto => "auto",
        }
    }

    /// Resolve this policy against the local machine. Every rank of a world
    /// resolves the run's one choice on the same host, so this is the
    /// world's backend.
    pub fn resolve_local(self) -> KernelKind {
        match self {
            KernelChoice::Scalar => KernelKind::Scalar,
            KernelChoice::Simd => KernelKind::Simd,
            KernelChoice::Auto => {
                if simd_available() {
                    KernelKind::Simd
                } else {
                    KernelKind::Scalar
                }
            }
        }
    }
}

impl std::fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether the hardware-accelerated SIMD path (AVX2) is available on this
/// machine. A forced `simd` still *works* without it, on the scalar loops;
/// `auto` only prefers it when this returns true.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// What a kernel backend supplies: its P-matrix layout, the tip tables over
/// that layout, and the four pattern loops of the three kernels over one
/// partition's patterns. Everything around those loops — repeat refresh,
/// pattern lists and row maps, the take/put-back of CLVs and scratch, the
/// transition set-up, the root sides — is written once, in the drivers of
/// `impl dyn KernelBackend` below. Implementations must be
/// bitwise-deterministic: the same inputs produce the same bits on every
/// call and every rank.
pub(crate) trait KernelBackend: Send + Sync {
    /// Which backend this is (stamped into traces/health reports and
    /// fingerprinted by the replica sentinel).
    fn kind(&self) -> KernelKind;

    /// Fill `out` with the P-matrices of every distinct rate multiplier at
    /// branch length `t`, in this backend's layout, reusing its allocation.
    fn p_matrices_into(&self, part: &PartitionState, t: f64, out: &mut Vec<ProbMatrix>);

    /// [`tip_tables_into`] over P-matrices in this backend's layout.
    fn tip_tables(&self, ps: &[ProbMatrix], out: &mut Vec<TipTable>);

    /// `newview` at each listed pattern: for the `j`-th pattern `i` of
    /// `patterns`, the parent's CLV blocks and scale count at **row** `j`
    /// from the two children read at pattern `i` (through their row maps),
    /// rescaled by 2²⁵⁶ when every entry falls below `MIN_LIKELIHOOD`.
    #[allow(clippy::too_many_arguments)]
    fn newview_patterns(
        &self,
        rates: &RateHeterogeneity,
        left: &Child<'_>,
        right: &Child<'_>,
        patterns: &[u32],
        cats: usize,
        parent_clv: &mut [f64],
        parent_scale: &mut [u32],
    );

    /// The weighted log-likelihood of every pattern at a root edge whose
    /// P-matrices are `ps`, summed in pattern order; each addend is pushed
    /// onto `terms` when given.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_patterns(
        &self,
        rates: &RateHeterogeneity,
        weights: &[f64],
        freqs: &[f64; NUM_STATES],
        ps: &[ProbMatrix],
        a: &RootSide<'_>,
        b: &RootSide<'_>,
        n_patterns: usize,
        cats: usize,
        cat_weight: f64,
        terms: Option<&mut Vec<f64>>,
    ) -> f64;

    /// `ST[(i·cats+c)·4+e] = (Σ_s π_s x_a[s] V[s,e]) · (Σ_t V⁻¹[e,t] x_b[t])`
    /// for every pattern and category.
    #[allow(clippy::too_many_arguments)]
    fn sumtable_patterns(
        &self,
        a: &RootSide<'_>,
        b: &RootSide<'_>,
        freqs: &[f64; NUM_STATES],
        v: &ProbMatrix,
        vi: &ProbMatrix,
        n_patterns: usize,
        cats: usize,
        sumtable: &mut [f64],
    );

    /// The weighted first/second-derivative addends of every pattern from
    /// the sumtable and the per-rate factors `ex = exp(λ r t)`, `lr = λ r`,
    /// summed in pattern order; each pair is pushed onto `terms` when given.
    #[allow(clippy::too_many_arguments)]
    fn derivative_patterns(
        &self,
        rates: &RateHeterogeneity,
        weights: &[f64],
        sumtable: &[f64],
        ex: &[[f64; NUM_STATES]],
        lr: &[[f64; NUM_STATES]],
        n_patterns: usize,
        cats: usize,
        cat_weight: f64,
        terms: Option<(&mut Vec<f64>, &mut Vec<f64>)>,
    ) -> (f64, f64);
}

/// The six kernel drivers, one for every backend. An entry makes a handful
/// of `dyn` calls into the backend (P-matrices, tip tables, one pattern
/// loop); the pattern loops make none.
impl dyn KernelBackend {
    /// Recompute the parent CLV of one traversal entry. Returns the work
    /// done in pattern-categories (with repeat compression: representatives
    /// only).
    ///
    /// With compression the parent's row `j` is class `j` of its repeat
    /// table — the row of its representative, `representatives[j]` — and
    /// readers reach pattern `i` at row `class_of[i]` (see [`root_side`]).
    /// Uncompressed, the pattern list is the identity and row = pattern.
    pub(crate) fn newview_entry(
        &self,
        part: &mut PartitionState,
        n_taxa: usize,
        entry: &TraversalEntry,
    ) -> u64 {
        let n_patterns = part.data.n_patterns();
        let cats = part.rates.clv_categories();
        let gi = part.data.global_index;
        let lengths = (
            Engine::branch_length(&entry.left_lengths, gi),
            Engine::branch_length(&entry.right_lengths, gi),
        );
        repeats::fill_identity(&mut part.repeat_scratch.ident, n_patterns);
        let compress = repeats::refresh_entry(part, n_taxa, entry);

        let mut scratch = std::mem::take(&mut part.scratch);
        let parent_idx = entry.parent - n_taxa;
        let mut parent_clv = std::mem::take(&mut part.clv[parent_idx]);
        let mut parent_scale = std::mem::take(&mut part.scale[parent_idx]);
        let (left, right) = self.children(
            part,
            &mut scratch,
            lengths,
            &root_side(part, n_taxa, entry.left),
            &root_side(part, n_taxa, entry.right),
        );
        let patterns: &[u32] = if compress {
            let classes = &part.repeats[parent_idx].classes;
            // Row `j` is class `j`: classes are numbered by first occurrence.
            debug_assert!(classes
                .representatives
                .iter()
                .enumerate()
                .all(|(j, &rep)| classes.class_of[rep as usize] as usize == j));
            &classes.representatives
        } else {
            &part.repeat_scratch.ident
        };
        self.newview_patterns(
            &part.rates,
            &left,
            &right,
            patterns,
            cats,
            &mut parent_clv,
            &mut parent_scale,
        );
        let computed = patterns.len();

        part.clv[parent_idx] = parent_clv;
        part.scale[parent_idx] = parent_scale;
        part.scratch = scratch;
        (computed * cats) as u64
    }

    /// Log-likelihood of one partition at the descriptor's virtual root.
    /// When `terms` is given it is cleared and filled with the per-pattern
    /// weighted log-likelihood addends — exactly the values the returned
    /// `lnl` accumulates, in pattern order — for reproducible (binned)
    /// cross-rank reduction.
    pub(crate) fn evaluate_root(
        &self,
        part: &mut PartitionState,
        n_taxa: usize,
        d: &TraversalDescriptor,
        mut terms: Option<&mut Vec<f64>>,
    ) -> (f64, u64) {
        let n_patterns = part.data.n_patterns();
        if let Some(sink) = terms.as_deref_mut() {
            sink.clear();
            sink.reserve(n_patterns);
        }
        let cats = part.rates.clv_categories();
        let t = Engine::branch_length(&d.root_lengths, part.data.global_index);

        let mut scratch = std::mem::take(&mut part.scratch);
        self.p_matrices_into(part, t, &mut scratch.ps_a);
        let lnl = self.evaluate_patterns(
            &part.rates,
            &part.data.weights,
            part.model.freqs(),
            &scratch.ps_a,
            &root_side(part, n_taxa, d.root_a),
            &root_side(part, n_taxa, d.root_b),
            n_patterns,
            cats,
            category_weight(&part.rates),
            terms,
        );
        part.scratch = scratch;
        (lnl, (n_patterns * cats) as u64)
    }

    /// Build the derivative sumtable for the descriptor's root edge. The
    /// branch length itself enters only in
    /// [`derivatives_from_sumtable`](Self::derivatives_from_sumtable), so
    /// Newton–Raphson iterations reuse one sumtable (RAxML's scheme).
    pub(crate) fn make_sumtable(
        &self,
        part: &mut PartitionState,
        n_taxa: usize,
        d: &TraversalDescriptor,
    ) {
        let mut sumtable = std::mem::take(&mut part.sumtable);
        self.sumtable_sides(
            part,
            &root_side(part, n_taxa, d.root_a),
            &root_side(part, n_taxa, d.root_b),
            &mut sumtable,
        );
        part.sumtable = sumtable;
    }

    /// Build the derivative sumtable from two explicit root sides — the
    /// core of [`make_sumtable`](Self::make_sumtable), which passes the
    /// descriptor's inward root sides. The gradient sweep passes an
    /// "outside" CLV on one side to take any edge's derivative without
    /// re-rooting. Same arithmetic, same bits.
    pub(crate) fn sumtable_sides(
        &self,
        part: &PartitionState,
        a: &RootSide<'_>,
        b: &RootSide<'_>,
        out: &mut Vec<f64>,
    ) {
        let n_patterns = part.data.n_patterns();
        let cats = part.rates.clv_categories();
        out.resize(n_patterns * cats * NUM_STATES, 0.0);
        self.sumtable_patterns(
            a,
            b,
            part.model.freqs(),
            part.model.v(),
            part.model.v_inv(),
            n_patterns,
            cats,
            out,
        );
    }

    /// Materialize one "outside" CLV (a [`GradStep`](crate::tree::traversal::GradStep)
    /// of a gradient sweep): the job's two sources joined through the
    /// P-matrices of their branches into `out_clv`/`out_scale`, by the
    /// `newview` pattern loop over the identity pattern list, so an outside
    /// CLV stays full width (row = pattern). The result is bitwise what a
    /// per-edge traversal computes for the same direction. Returns the work
    /// done in pattern-categories.
    pub(crate) fn gradient_outside(
        &self,
        part: &PartitionState,
        scratch: &mut KernelScratch,
        job: &OutsideJob<'_>,
        out_clv: &mut [f64],
        out_scale: &mut [u32],
    ) -> u64 {
        let n_patterns = part.data.n_patterns();
        let cats = part.rates.clv_categories();
        let patterns = &part.repeat_scratch.ident;
        debug_assert_eq!(patterns.len(), n_patterns);
        let lengths = (job.t_left, job.t_right);
        let (left, right) = self.children(part, scratch, lengths, &job.left, &job.right);
        self.newview_patterns(
            &part.rates,
            &left,
            &right,
            patterns,
            cats,
            out_clv,
            out_scale,
        );
        (n_patterns * cats) as u64
    }

    /// `(dlnL/dt, d²lnL/dt²)` of one partition at branch length `t`, from
    /// the prepared sumtable (scaling constants cancel in the `L'/L`
    /// ratios). When `terms` is given, both vectors are cleared and filled
    /// with the per-pattern first/second-derivative addends (same contract
    /// as [`evaluate_root`](Self::evaluate_root)).
    pub(crate) fn derivatives_from_sumtable(
        &self,
        part: &mut PartitionState,
        t: f64,
        mut terms: Option<(&mut Vec<f64>, &mut Vec<f64>)>,
    ) -> (f64, f64, u64) {
        let n_patterns = part.data.n_patterns();
        if let Some((s1, s2)) = terms.as_mut() {
            s1.clear();
            s2.clear();
            s1.reserve(n_patterns);
            s2.reserve(n_patterns);
        }
        let cats = part.rates.clv_categories();

        let mut scratch = std::mem::take(&mut part.scratch);
        let lam = part.model.eigenvalues();
        let rates = part.rates.distinct_rates();
        exp_factors_into(
            &part.model,
            rates.iter().map(|&r| (t, r)),
            &mut scratch.deriv_ex,
        );
        scratch.deriv_lr.clear();
        scratch
            .deriv_lr
            .extend(rates.iter().map(|&r| lam.map(|l| l * r)));
        let (d1, d2) = self.derivative_patterns(
            &part.rates,
            &part.data.weights,
            &part.sumtable,
            &scratch.deriv_ex,
            &scratch.deriv_lr,
            n_patterns,
            cats,
            category_weight(&part.rates),
            terms,
        );
        part.scratch = scratch;
        (d1, d2, (n_patterns * cats) as u64)
    }

    /// The transition set-up of two sources joined at one node — P-matrices
    /// per distinct rate for each branch, tip tables for a tip source — and
    /// the two sources as `newview` children over it.
    fn children<'a>(
        &self,
        part: &PartitionState,
        scratch: &'a mut KernelScratch,
        (t_left, t_right): (f64, f64),
        left: &RootSide<'a>,
        right: &RootSide<'a>,
    ) -> (Child<'a>, Child<'a>) {
        self.p_matrices_into(part, t_left, &mut scratch.ps_a);
        self.p_matrices_into(part, t_right, &mut scratch.ps_b);
        if let RootSide::Tip(_) = left {
            self.tip_tables(&scratch.ps_a, &mut scratch.lookup_a);
        }
        if let RootSide::Tip(_) = right {
            self.tip_tables(&scratch.ps_b, &mut scratch.lookup_b);
        }
        let child = |side: &RootSide<'a>, ps: &'a [ProbMatrix], lookup: &'a [TipTable]| match side {
            RootSide::Tip(codes) => Child::Tip { codes, lookup },
            RootSide::Inner { clv, scale, rows } => Child::Inner {
                clv,
                scale,
                rows,
                ps,
            },
        };
        let scratch = &*scratch;
        (
            child(left, &scratch.ps_a, &scratch.lookup_a),
            child(right, &scratch.ps_b, &scratch.lookup_b),
        )
    }
}

static SCALAR_BACKEND: scalar::ScalarBackend = scalar::ScalarBackend(KernelKind::Scalar);
/// [`KernelKind::Simd`] forced on a host without AVX2: the scalar loops —
/// bitwise equal by the module contract — under the kind the world agreed on.
static SIMD_WITHOUT_AVX2: scalar::ScalarBackend = scalar::ScalarBackend(KernelKind::Simd);

/// The backend singleton for a kind (backends are stateless; all per-call
/// scratch lives in [`KernelScratch`]).
pub(crate) fn backend_for(kind: KernelKind) -> &'static dyn KernelBackend {
    match kind {
        KernelKind::Scalar => &SCALAR_BACKEND,
        KernelKind::Simd => {
            #[cfg(target_arch = "x86_64")]
            if let Some(simd) = simd::SimdBackend::detect() {
                return simd;
            }
            &SIMD_WITHOUT_AVX2
        }
    }
}

/// Reusable per-partition kernel scratch: the drivers take these buffers
/// out of the [`PartitionState`], refill them, and put them back, so
/// steady-state kernels allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct KernelScratch {
    /// P-matrices for the left/a side, one per distinct rate, in the layout
    /// of the backend's [`KernelBackend::p_matrices_into`]: row-major
    /// `P[s][t]` for the scalar loops, column-major `cols[t][s] = P[s][t]`
    /// for the AVX2 loops.
    pub ps_a: Vec<ProbMatrix>,
    /// P-matrices for the right/b side (same layout as `ps_a`).
    pub ps_b: Vec<ProbMatrix>,
    /// Tip lookup tables for the left/a side (filled only when that child
    /// is a tip).
    pub lookup_a: Vec<TipTable>,
    /// Tip lookup tables for the right/b side.
    pub lookup_b: Vec<TipTable>,
    /// Per-distinct-rate `exp(λ_e r t)` factors for the derivative kernel.
    pub deriv_ex: Vec<[f64; NUM_STATES]>,
    /// Per-distinct-rate `λ_e r` factors for the derivative kernel.
    pub deriv_lr: Vec<[f64; NUM_STATES]>,
}

/// Fill `out` in place with per-rate tip contribution tables:
/// `out[k][code][s] = Σ_{t ∈ code} P_k[s][t]`, summed from `0.0` in
/// ascending `t`. Row `code` is row `code` without its top bit `t` plus
/// column `t` — the very addition, in the same order, that summing the
/// set bits one by one ends on — so every code costs one 4-wide add.
/// `column(p, t)` reads column `t` of a P in the caller's layout.
pub(crate) fn tip_tables_into(
    ps: &[ProbMatrix],
    column: impl Fn(&ProbMatrix, usize) -> [f64; NUM_STATES],
    out: &mut Vec<TipTable>,
) {
    out.resize(ps.len(), [[0.0; NUM_STATES]; 16]);
    for (p, table) in ps.iter().zip(out.iter_mut()) {
        table[0] = [0.0; NUM_STATES];
        for code in 1..16usize {
            let top = code.ilog2() as usize;
            let (rest, col) = (table[code ^ (1 << top)], column(p, top));
            table[code] = std::array::from_fn(|s| rest[s] + col[s]);
        }
    }
}

/// Which P-matrix index pattern `i`, category `c` uses.
#[inline]
pub(crate) fn cat_index(rates: &RateHeterogeneity, i: usize, c: usize) -> usize {
    match rates {
        RateHeterogeneity::Gamma { .. } => c,
        RateHeterogeneity::Psr { pattern_cat, .. } => pattern_cat[i] as usize,
    }
}

/// The per-category weight used when integrating site likelihoods.
#[inline]
pub(crate) fn category_weight(rates: &RateHeterogeneity) -> f64 {
    match rates {
        RateHeterogeneity::Gamma { rates, .. } => 1.0 / rates.len() as f64,
        RateHeterogeneity::Psr { .. } => 1.0,
    }
}

/// The 16 possible tip state vectors, indexed by 4-bit ambiguity code:
/// `TIP_STATE[code][s] = 1.0` iff bit `s` of `code` is set: a tip's state
/// vector as one contiguous 4-wide row.
pub(crate) const TIP_STATE: [[f64; NUM_STATES]; 16] = build_tip_state();

const fn build_tip_state() -> [[f64; NUM_STATES]; 16] {
    let mut table = [[0.0; NUM_STATES]; 16];
    let mut code = 0;
    while code < 16 {
        let mut s = 0;
        while s < NUM_STATES {
            if code & (1 << s) != 0 {
                table[code][s] = 1.0;
            }
            s += 1;
        }
        code += 1;
    }
    table
}

/// One outside-CLV computation of a gradient sweep: two sources (tip codes,
/// inward CLVs, or previously materialized outside CLVs — all expressible as
/// [`RootSide`]s) and the branch lengths connecting them to the node being
/// materialized. `left`/`right` keep the deterministic smaller-node-id-first
/// order of `collect_entries`.
pub(crate) struct OutsideJob<'a> {
    pub t_left: f64,
    pub t_right: f64,
    pub left: RootSide<'a>,
    pub right: RootSide<'a>,
}

/// Per-pattern state vector access at the virtual root: tip codes, or a
/// CLV whose row `rows[i]` holds pattern `i`.
pub(crate) enum RootSide<'a> {
    Tip(&'a [u8]),
    Inner {
        clv: &'a [f64],
        scale: &'a [u32],
        rows: &'a [u32],
    },
}

impl<'a> RootSide<'a> {
    /// Copy the state vector of pattern `i`, category `c` into `out`.
    #[inline]
    pub(crate) fn state(&self, i: usize, c: usize, cats: usize, out: &mut [f64; NUM_STATES]) {
        out.copy_from_slice(self.state_slice(i, c, cats));
    }

    /// The state vector of pattern `i`, category `c` as a contiguous 4-wide
    /// slice (the [`TIP_STATE`] row for tips, the CLV block at row
    /// `rows[i]` for inner nodes).
    #[inline]
    pub(crate) fn state_slice(&self, i: usize, c: usize, cats: usize) -> &[f64] {
        let (states, stride) = self.pattern_states(i, cats);
        &states[c * stride..c * stride + NUM_STATES]
    }

    /// Every category's state vector of pattern `i`, category `c` at
    /// `c · stride`: the CLV row `rows[i]` (stride 4), or for tips the one
    /// [`TIP_STATE`] row all categories share (stride 0).
    #[inline]
    pub(crate) fn pattern_states(&self, i: usize, cats: usize) -> (&'a [f64], usize) {
        match *self {
            RootSide::Tip(codes) => (&TIP_STATE[codes[i] as usize & 0xf], 0),
            RootSide::Inner { clv, rows, .. } => {
                let len = cats * NUM_STATES;
                (&clv[rows[i] as usize * len..][..len], NUM_STATES)
            }
        }
    }

    /// The scaling count of pattern `i` (at row `rows[i]`).
    #[inline]
    pub(crate) fn scale_of(&self, i: usize) -> u32 {
        match self {
            RootSide::Tip(_) => 0,
            RootSide::Inner { scale, rows, .. } => scale[rows[i] as usize],
        }
    }
}

/// One child of a `newview` join: a tip through its per-rate lookup
/// tables, or an inner CLV (pattern `i` at row `rows[i]`) through the
/// backend's P-matrices.
pub(crate) enum Child<'a> {
    Tip {
        codes: &'a [u8],
        lookup: &'a [TipTable],
    },
    Inner {
        clv: &'a [f64],
        scale: &'a [u32],
        rows: &'a [u32],
        ps: &'a [ProbMatrix],
    },
}

impl Child<'_> {
    /// The scaling count of pattern `i` (at row `rows[i]`).
    #[inline]
    pub(crate) fn scale_of(&self, i: usize) -> u32 {
        match self {
            Child::Tip { .. } => 0,
            Child::Inner { scale, rows, .. } => scale[rows[i] as usize],
        }
    }
}

/// A node as a reader sees it: a tip's codes, or an inner node's CLV with
/// its row map — the class map of its repeat table when its CLV was last
/// written compressed, the identity list otherwise (repeats off, or an
/// entry that fell back, whose table no longer describes the rows).
pub(crate) fn root_side<'a>(part: &'a PartitionState, n_taxa: usize, node: usize) -> RootSide<'a> {
    if node < n_taxa {
        RootSide::Tip(&part.data.tips[node])
    } else {
        let idx = node - n_taxa;
        RootSide::Inner {
            clv: &part.clv[idx],
            scale: &part.scale[idx],
            rows: part
                .repeats
                .get(idx)
                .and_then(|r| r.rows())
                .unwrap_or(&part.repeat_scratch.ident),
        }
    }
}

/// The transition set-up as the backends built it before the subset
/// recurrence and the one-pass column builder, kept verbatim as the
/// bit-for-bit oracles of the builders above and of [`simd`]'s, plus the
/// inputs they are checked on.
#[cfg(test)]
pub(crate) mod oracle {
    use super::TipTable;
    use crate::model::pmatrix::ProbMatrix;
    use crate::model::GtrModel;
    use exa_bio::dna::NUM_STATES;

    /// `(V, ex, V⁻¹)`: the eigenbasis factors of one P-matrix.
    pub(crate) type Factors = (ProbMatrix, [f64; NUM_STATES], ProbMatrix);

    /// `P(r·t) = V · diag(e^{λ_k r t}) · V⁻¹`, clamped at 0.
    pub(crate) fn prob_matrix(model: &GtrModel, t: f64, r: f64) -> ProbMatrix {
        let lam = model.eigenvalues();
        let mut ex = [0.0; NUM_STATES];
        for k in 0..NUM_STATES {
            ex[k] = crate::numerics::exp::exp(lam[k] * r * t);
        }
        reconstruct(&(*model.v(), ex, *model.v_inv()))
    }

    /// [`prob_matrix`]'s loop over explicit factors, so crafted inputs can
    /// be fed to it.
    pub(crate) fn reconstruct((v, ex, vi): &Factors) -> ProbMatrix {
        let mut p = [[0.0; NUM_STATES]; NUM_STATES];
        for i in 0..NUM_STATES {
            for j in 0..NUM_STATES {
                let mut s = 0.0;
                for k in 0..NUM_STATES {
                    s += v[i][k] * ex[k] * vi[k][j];
                }
                p[i][j] = s.max(0.0);
            }
        }
        p
    }

    /// Per-rate tip contribution tables by the per-code, per-bit loop.
    pub(crate) fn build_tip_lookup_into(ps: &[ProbMatrix], out: &mut Vec<TipTable>) {
        out.clear();
        out.extend(ps.iter().map(|p| {
            let mut table = [[0.0; NUM_STATES]; 16];
            for (code, entry) in table.iter_mut().enumerate() {
                for s in 0..NUM_STATES {
                    let mut acc = 0.0;
                    for t in 0..NUM_STATES {
                        if code & (1 << t) != 0 {
                            acc += p[s][t];
                        }
                    }
                    entry[s] = acc;
                }
            }
            table
        }));
    }

    /// Column-major transposes (`out[k][t][s] = ps[k][s][t]`).
    pub(crate) fn transpose_into(ps: &[ProbMatrix], out: &mut Vec<ProbMatrix>) {
        out.clear();
        out.extend(ps.iter().map(|p| {
            let mut c = [[0.0; NUM_STATES]; NUM_STATES];
            for s in 0..NUM_STATES {
                for t in 0..NUM_STATES {
                    c[t][s] = p[s][t];
                }
            }
            c
        }));
    }

    /// Every entry's bit pattern (NaN-safe equality).
    pub(crate) fn bits(rows: &[[f64; NUM_STATES]]) -> Vec<u64> {
        rows.iter().flatten().map(|x| x.to_bits()).collect()
    }

    /// Random GTR models, each with a branch length in `[BL_MIN, BL_MAX]`
    /// and a rate in `[PSR_RATE_MIN, PSR_RATE_MAX]` (log-uniform, each
    /// endpoint drawn one time in ten).
    pub(crate) fn random_models(seed: u64, n: usize) -> Vec<(GtrModel, f64, f64)> {
        use crate::model::rates::{PSR_RATE_MAX, PSR_RATE_MIN};
        use crate::tree::{BL_MAX, BL_MIN};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let log_uniform = |rng: &mut StdRng, lo: f64, hi: f64| match rng.gen_range(0u32..10) {
            0 => lo,
            1 => hi,
            _ => (lo.ln() + rng.gen_range(0.0f64..1.0) * (hi.ln() - lo.ln())).exp(),
        };
        (0..n)
            .map(|_| {
                let model = GtrModel::new(
                    std::array::from_fn(|_| rng.gen_range(0.05..20.0)),
                    std::array::from_fn(|_| rng.gen_range(0.05..1.0)),
                );
                let t = log_uniform(&mut rng, BL_MIN, BL_MAX);
                let r = log_uniform(&mut rng, PSR_RATE_MIN, PSR_RATE_MAX);
                (model, t, r)
            })
            .collect()
    }

    /// Crafted factors: exact zeros, subnormals, negative sums (clamped),
    /// an infinite factor, and one NaN entry.
    pub(crate) fn crafted_factors() -> Vec<Factors> {
        let sub = f64::from_bits(1); // the smallest subnormal
        let mut v = [
            [0.5, -0.25, sub, 0.0],
            [1.0; 4],
            [-1e-310, 0.0, 2.0, -3.0],
            [0.0; 4],
        ];
        let vi = [
            [1.0, sub, -0.0, 4.0],
            [0.0; 4],
            [1e-300, -1.0, 0.5, 1e-310],
            [0.3; 4],
        ];
        let mut cases = vec![
            (v, [1.0, 0.0, sub, 1e-300], vi),
            (v, [0.0; 4], vi),
            (v, [f64::INFINITY, 1.0, 1.0, 1.0], vi),
        ];
        v[2][1] = f64::NAN;
        cases.push((v, [1.0, 0.5, 0.25, sub], vi));
        cases
    }

    /// Crafted P-matrices for the tip-table builders: zeros of both signs,
    /// subnormals, and one NaN entry.
    pub(crate) fn crafted_matrices() -> Vec<ProbMatrix> {
        let sub = f64::from_bits(1);
        vec![
            [[0.0; 4]; 4],
            [
                [sub, 0.0, -0.0, 1e-310],
                [0.25; 4],
                [1.0, sub, 0.0, 0.5],
                [0.0, 0.0, 0.0, 1.0],
            ],
            [[0.1, f64::NAN, 0.3, 0.4], [0.0; 4], [sub; 4], [1e300; 4]],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prob_matrix_is_the_oracle() {
        for (model, t, r) in oracle::random_models(0x9a7, 2000) {
            let p = crate::model::pmatrix::prob_matrix(&model, t, r);
            let want = oracle::prob_matrix(&model, t, r);
            assert_eq!(oracle::bits(&p), oracle::bits(&want), "t {t} r {r}");
        }
    }

    #[test]
    fn tip_tables_match_the_per_code_loop_in_both_layouts() {
        let mut ps: Vec<ProbMatrix> = oracle::random_models(0x7e57, 2000)
            .iter()
            .map(|(model, t, r)| oracle::prob_matrix(model, *t, *r))
            .collect();
        ps.extend(oracle::crafted_factors().iter().map(oracle::reconstruct));
        ps.extend(oracle::crafted_matrices());
        let mut want = Vec::new();
        oracle::build_tip_lookup_into(&ps, &mut want);
        let mut cols = Vec::new();
        oracle::transpose_into(&ps, &mut cols);

        // A longer scratch shrinks and a shorter one grows; neither leaks
        // its stale rows.
        let mut got = vec![[[f64::NAN; NUM_STATES]; 16]; ps.len() + 3];
        SCALAR_BACKEND.tip_tables(&ps, &mut got);
        assert_eq!(got.len(), want.len());
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(oracle::bits(g), oracle::bits(w), "row-major case {k}");
        }
        #[cfg(target_arch = "x86_64")]
        if let Some(simd) = simd::SimdBackend::detect() {
            let mut got = vec![[[f64::NAN; NUM_STATES]; 16]; 1];
            simd.tip_tables(&cols, &mut got);
            assert_eq!(got.len(), want.len());
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(oracle::bits(g), oracle::bits(w), "column-major case {k}");
            }
        }
    }

    #[test]
    fn kind_labels_roundtrip_through_choice_parse() {
        for kind in [KernelKind::Scalar, KernelKind::Simd] {
            let choice = KernelChoice::parse(kind.label()).unwrap();
            assert_eq!(choice.resolve_local(), kind);
        }
        assert_eq!(KernelChoice::parse("auto"), Some(KernelChoice::Auto));
        assert_eq!(KernelChoice::parse("avx512"), None);
    }

    #[test]
    fn auto_resolves_to_an_available_backend() {
        let kind = KernelChoice::Auto.resolve_local();
        if simd_available() {
            assert_eq!(kind, KernelKind::Simd);
        } else {
            assert_eq!(kind, KernelKind::Scalar);
        }
    }

    #[test]
    fn backend_singletons_report_their_kind() {
        assert_eq!(backend_for(KernelKind::Scalar).kind(), KernelKind::Scalar);
        assert_eq!(backend_for(KernelKind::Simd).kind(), KernelKind::Simd);
    }
}

//! The SIMD kernel backend: column-major P-matrices and AVX2 4×f64 lanes
//! over the `pattern × category × 4-state` CLV blocks. x86-64 only, and a
//! [`SimdBackend`] exists only where [`SimdBackend::detect`] found AVX2 at
//! runtime — every `unsafe` call into [`mod@avx2`] below rests on that.
//!
//! # Bitwise identity with the scalar backend
//!
//! Every reduction reproduces the scalar association order exactly, and no
//! FMA contraction is used, so results are bit-for-bit equal to
//! [`super::scalar`]:
//!
//! * The factors `e^{(λ_k·r)·t}` of a P set come from the AVX2 lanes of
//!   the one `exp` ([`crate::numerics::exp`]), four per rate in one
//!   vector; the scalar backend's come from its scalar lanes. Both forms
//!   run the same IEEE operations in the same order, so the same bits.
//! * P-matrices exist here only **column-major** (`cols[t][s] = P[s][t]`):
//!   [`avx2::prob_columns`] writes them straight from the eigenbasis with
//!   lanes over `s`, each lane summing `prob_matrix`'s terms in its order
//!   and clamping with `prob_matrix`'s `max(·, 0)`, NaN included.
//! * Matrix–vector products run over those columns as
//!   broadcast-multiply-adds; lane `s` then computes
//!   `((P[s][0]·b₀ + P[s][1]·b₁) + P[s][2]·b₂) + P[s][3]·b₃` — the scalar
//!   row-dot order. Tip tables add whole columns, as the scalar loops add
//!   strided ones ([`super::tip_tables_into`]).
//! * `newview` has one body per pair of child kinds and rate model. The
//!   kinds and the model are matched once per call, not per (pattern,
//!   category). Tip–tip, tip–inner and inner–inner are instantiations of
//!   one generic body; an inner–tip pair runs the tip–inner body with its
//!   operands swapped. That keeps the bits because an IEEE multiply
//!   commutes: `a·b` and `b·a` are the same rounded product. The one
//!   exception is two NaN factors, where x86 returns the first one's
//!   payload. Under Γ a row has
//!   [`GAMMA_CATEGORIES`](crate::model::rates::GAMMA_CATEGORIES) categories, a
//!   compile-time count, and an inner child's P columns are loaded once
//!   per call. Under PSR a row has one category, and its P index is read
//!   once per pattern. Each child's CLV row (or tip-table row) is resolved
//!   once per pattern. The products, the rescaling test and the ×2²⁵⁶ are
//!   the scalar loop's, entry by entry.
//! * The root-edge loops (`evaluate`, the derivatives) have no horizontal
//!   sums: they take four patterns per block, one pattern per lane. One
//!   in-register 4×4 transpose makes state-major vectors of four patterns'
//!   state vectors — `evaluate`'s products `(π·x_a)·P x_b`, formed with
//!   lanes over states as above, or the derivatives' sumtable rows, which
//!   are then multiplied by `ex` and `λr` state by state (elementwise
//!   products: the same bits in either layout) — and every lane adds
//!   `acc + t₀ + t₁ + t₂ + t₃` from `0.0` and over categories in the
//!   scalar `acc += …` order. The floor `max(·, MIN_POSITIVE)` (NaN
//!   maps to the floor, as with `f64::max`), the divisions and the
//!   `weight·(…)` are vector ops on the same operands, `ln` is libm's,
//!   once per lane, and the per-pattern terms are summed and handed to the
//!   sinks lane by lane in pattern order. A last, partial block fills its
//!   spare lanes with its last pattern and drops their results.
//!
//! The documented exceptions are NaN only: `newview`'s rescaling max is
//! computed with vector max, which treats NaN differently from `f64::max`,
//! and a swapped inner–tip product of two NaNs carries the other payload.
//! NaN CLVs only arise from already-broken inputs.

use super::{tip_tables_into, Child, KernelBackend, KernelKind, RootSide, TipTable};
use crate::engine::PartitionState;
use crate::model::pmatrix::ProbMatrix;
use crate::model::rates::RateHeterogeneity;
use exa_bio::dna::NUM_STATES;

/// Proof that this host has AVX2: the only way to one is [`Self::detect`].
pub(crate) struct SimdBackend(());

impl SimdBackend {
    /// The backend singleton, if this host has AVX2.
    pub(crate) fn detect() -> Option<&'static SimdBackend> {
        static BACKEND: SimdBackend = SimdBackend(());
        std::arch::is_x86_feature_detected!("avx2").then_some(&BACKEND)
    }
}

impl KernelBackend for SimdBackend {
    fn kind(&self) -> KernelKind {
        KernelKind::Simd
    }

    fn p_matrices_into(&self, part: &PartitionState, t: f64, out: &mut Vec<ProbMatrix>) {
        let rates = part.rates.distinct_rates();
        out.resize(rates.len(), [[0.0; NUM_STATES]; NUM_STATES]);
        // SAFETY: AVX2 was detected (module doc).
        unsafe { avx2::prob_column_set(&part.model, t, rates, out) };
    }

    /// Column `t` of a column-major P is one row.
    fn tip_tables(&self, cols: &[ProbMatrix], out: &mut Vec<TipTable>) {
        tip_tables_into(cols, |c, t| c[t], out);
    }

    fn newview_patterns(
        &self,
        rates: &RateHeterogeneity,
        left: &Child<'_>,
        right: &Child<'_>,
        patterns: &[u32],
        cats: usize,
        parent_clv: &mut [f64],
        parent_scale: &mut [u32],
    ) {
        // SAFETY: AVX2 was detected (module doc).
        unsafe {
            avx2::newview_patterns(rates, left, right, patterns, cats, parent_clv, parent_scale)
        }
    }

    fn evaluate_patterns(
        &self,
        rates: &RateHeterogeneity,
        weights: &[f64],
        freqs: &[f64; NUM_STATES],
        cols: &[ProbMatrix],
        a: &RootSide<'_>,
        b: &RootSide<'_>,
        n_patterns: usize,
        cats: usize,
        cat_weight: f64,
        terms: Option<&mut Vec<f64>>,
    ) -> f64 {
        // SAFETY: AVX2 was detected (module doc).
        unsafe {
            avx2::evaluate_patterns(
                rates, weights, freqs, cols, a, b, n_patterns, cats, cat_weight, terms,
            )
        }
    }

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
    ) {
        // Transposed V⁻¹ so the `be` reduction can run row-contiguous:
        // `vit[s][e] = vi[e][s]`.
        let vit: ProbMatrix = std::array::from_fn(|s| std::array::from_fn(|e| vi[e][s]));
        // SAFETY: AVX2 was detected (module doc).
        unsafe { avx2::sumtable_patterns(a, b, freqs, v, &vit, n_patterns, cats, sumtable) }
    }

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
    ) -> (f64, f64) {
        // SAFETY: AVX2 was detected (module doc).
        unsafe {
            avx2::derivative_patterns(
                rates, weights, sumtable, ex, lr, n_patterns, cats, cat_weight, terms,
            )
        }
    }
}

/// The AVX2 hardware path. Every function carries
/// `#[target_feature(enable = "avx2")]`; callers must have verified AVX2
/// support (see the module doc).
mod avx2 {
    use crate::engine::backend::{cat_index, Child, RootSide, TipTable};
    use crate::engine::{LN_MIN_LIKELIHOOD, MIN_LIKELIHOOD, TWO_TO_256};
    use crate::model::pmatrix::ProbMatrix;
    use crate::model::rates::{RateHeterogeneity, GAMMA_CATEGORIES};
    use crate::model::GtrModel;
    use crate::numerics::exp::avx2::exp4;
    use exa_bio::dna::NUM_STATES;
    use std::arch::x86_64::*;

    /// The P set of every rate in `rates` at branch length `t`, one
    /// column-major matrix each: the factors `e^{(λ_k·r)·t}` by
    /// [`exp4`]'s lanes — `exp_factors`' bits — then [`prob_columns`].
    #[target_feature(enable = "avx2")]
    pub(super) fn prob_column_set(model: &GtrModel, t: f64, rates: &[f64], out: &mut [ProbMatrix]) {
        // SAFETY: the eigenvalues are 4 contiguous f64, one unaligned
        // 256-bit load.
        let lam = unsafe { _mm256_loadu_pd(model.eigenvalues().as_ptr()) };
        let tv = _mm256_set1_pd(t);
        for (cols, &r) in out.iter_mut().zip(rates) {
            let mut ex = [0.0; NUM_STATES];
            let x = _mm256_mul_pd(_mm256_mul_pd(lam, _mm256_set1_pd(r)), tv);
            // SAFETY: `ex` is 4 contiguous f64, one unaligned 256-bit store.
            unsafe { _mm256_storeu_pd(ex.as_mut_ptr(), exp4(x)) };
            prob_columns(model.v(), &ex, model.v_inv(), cols);
        }
    }

    /// `cols[j][i] = max(Σ_k (V[i][k]·ex[k])·V⁻¹[k][j], 0)` with lanes over
    /// `i`: `prob_matrix`'s sum for `P[i][j]`, term by term from `+0.0`
    /// (so never `-0.0`), and `max(s, 0)` in the operand order that maps a
    /// NaN to `0`, as `f64::max` does.
    #[target_feature(enable = "avx2")]
    pub(super) fn prob_columns(
        v: &ProbMatrix,
        ex: &[f64; NUM_STATES],
        vi: &ProbMatrix,
        cols: &mut ProbMatrix,
    ) {
        let zero = _mm256_setzero_pd();
        let mut vex = [zero; NUM_STATES];
        for (k, x) in vex.iter_mut().enumerate() {
            let vk = _mm256_set_pd(v[3][k], v[2][k], v[1][k], v[0][k]);
            *x = _mm256_mul_pd(vk, _mm256_set1_pd(ex[k]));
        }
        for (j, col) in cols.iter_mut().enumerate() {
            let mut s = zero;
            for (k, x) in vex.iter().enumerate() {
                s = _mm256_add_pd(s, _mm256_mul_pd(*x, _mm256_set1_pd(vi[k][j])));
            }
            // SAFETY: `col` is 4 contiguous f64, one unaligned 256-bit store.
            unsafe { _mm256_storeu_pd(col.as_mut_ptr(), _mm256_max_pd(s, zero)) };
        }
    }

    /// The four columns of a column-major P, one vector each.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_cols(cols: &ProbMatrix) -> [__m256d; NUM_STATES] {
        // SAFETY: a column is 4 contiguous f64, one unaligned 256-bit load.
        cols.map(|col| unsafe { _mm256_loadu_pd(col.as_ptr()) })
    }

    /// `P·b` over the columns of a column-major P: per-lane
    /// `((P[s][0]·b₀ + P[s][1]·b₁) + P[s][2]·b₂) + P[s][3]·b₃`, the scalar
    /// row-dot association order.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn matvec(cols: &[__m256d; NUM_STATES], b: &[f64]) -> __m256d {
        let term = |t: usize| _mm256_mul_pd(cols[t], _mm256_set1_pd(b[t]));
        _mm256_add_pd(
            _mm256_add_pd(_mm256_add_pd(term(0), term(1)), term(2)),
            term(3),
        )
    }

    /// Patterns per block of the root-edge loops: one pattern per lane.
    const LANES: usize = 4;

    /// The four patterns of a block starting at `start`; the lanes past the
    /// last of `n_patterns` repeat it, so they read nothing out of range,
    /// and their results are dropped. Returns the indices and how many
    /// lanes are live.
    #[inline]
    fn block(start: usize, n_patterns: usize) -> ([usize; LANES], usize) {
        let live = (n_patterns - start).min(LANES);
        (std::array::from_fn(|l| start + l.min(live - 1)), live)
    }

    /// The 4×4 transpose: `v[l]` holds pattern `l`'s four states, output
    /// `k` holds state `k` of the four patterns, in lane order.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose(v: &[__m256d; LANES]) -> [__m256d; LANES] {
        // [p0[0] p1[0] p0[2] p1[2]], [p0[1] p1[1] p0[3] p1[3]], likewise p2/p3.
        let lo01 = _mm256_unpacklo_pd(v[0], v[1]);
        let hi01 = _mm256_unpackhi_pd(v[0], v[1]);
        let lo23 = _mm256_unpacklo_pd(v[2], v[3]);
        let hi23 = _mm256_unpackhi_pd(v[2], v[3]);
        [
            _mm256_permute2f128_pd(lo01, lo23, 0x20),
            _mm256_permute2f128_pd(hi01, hi23, 0x20),
            _mm256_permute2f128_pd(lo01, lo23, 0x31),
            _mm256_permute2f128_pd(hi01, hi23, 0x31),
        ]
    }

    /// `acc + s₀ + s₁ + s₂ + s₃` per lane, `s_k` state `k` of [`transpose`]:
    /// the scalar `acc += t[s]` order in every lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_states(acc: __m256d, v: &[__m256d; LANES]) -> __m256d {
        transpose(v)
            .into_iter()
            .fold(acc, |acc, s| _mm256_add_pd(acc, s))
    }

    /// The lanes of `v` as an array, in pattern order.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lanes(v: __m256d) -> [f64; LANES] {
        let mut out = [0.0; LANES];
        // SAFETY: `out` is 4 contiguous f64, one unaligned 256-bit store.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), v) };
        out
    }

    /// Four values as one vector, lane `l` = `v[l]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn from_lanes(v: [f64; LANES]) -> __m256d {
        // SAFETY: `v` is 4 contiguous f64, one unaligned 256-bit load.
        unsafe { _mm256_loadu_pd(v.as_ptr()) }
    }

    /// One child of a `newview` join as a body reads it. [`at`](Self::at)
    /// resolves pattern `i`, whose category `c` reads P-matrix `k + c`,
    /// once per pattern; [`vec`](Self::vec) is category `c`'s vector there.
    trait Operand {
        /// Pattern `i` resolved: its tables and code, or its CLV row.
        type At: Copy;
        fn at(&self, i: usize, k: usize) -> Self::At;
        /// # Safety
        /// AVX2 is available.
        unsafe fn vec(&self, at: Self::At, c: usize) -> __m256d;
        fn scale(at: Self::At) -> u32;
    }

    /// A tip child: the row of its code in each category's tip table.
    struct Tip<'a, const CATS: usize> {
        codes: &'a [u8],
        lookup: &'a [TipTable],
    }

    impl<'a, const CATS: usize> Operand for Tip<'a, CATS> {
        type At = (&'a [TipTable; CATS], usize);

        #[inline]
        fn at(&self, i: usize, k: usize) -> Self::At {
            let tables = self.lookup[k..]
                .first_chunk()
                .expect("a tip table per category");
            (tables, self.codes[i] as usize & 0xf)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn vec(&self, (tables, code): Self::At, c: usize) -> __m256d {
            // SAFETY: a tip-table row is 4 contiguous f64, one unaligned
            // 256-bit load.
            unsafe { _mm256_loadu_pd(tables[c][code].as_ptr()) }
        }

        #[inline]
        fn scale(_: Self::At) -> u32 {
            0
        }
    }

    /// An inner child: `P·x` over its CLV row `rows[i]`, the columns of
    /// P-matrix `k` given by `cols(k)`.
    struct Inner<'a, const CATS: usize, P> {
        clv: &'a [f64],
        scale: &'a [u32],
        rows: &'a [u32],
        cols: P,
    }

    impl<'a, const CATS: usize, P> Inner<'a, CATS, P> {
        fn new(clv: &'a [f64], scale: &'a [u32], rows: &'a [u32], cols: P) -> Self {
            // Every row with a scale count is inside the CLV: `at`'s
            // unchecked row reads rest on this.
            assert!(scale.len() * CATS * NUM_STATES <= clv.len());
            Inner {
                clv,
                scale,
                rows,
                cols,
            }
        }
    }

    impl<'a, const CATS: usize, P> Operand for Inner<'a, CATS, P>
    where
        P: Fn(usize) -> [__m256d; NUM_STATES],
    {
        type At = (&'a [[f64; NUM_STATES]; CATS], u32, usize);

        #[inline]
        fn at(&self, i: usize, k: usize) -> Self::At {
            let row = self.rows[i] as usize;
            let scale = self.scale[row];
            // SAFETY: `row < scale.len()` by the index above, and the CLV
            // holds `CATS · 4` values per scale count (`new`'s assert).
            let x = unsafe {
                &*self
                    .clv
                    .as_ptr()
                    .add(row * CATS * NUM_STATES)
                    .cast::<[[f64; NUM_STATES]; CATS]>()
            };
            (x, scale, k)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn vec(&self, (x, _, k): Self::At, c: usize) -> __m256d {
            matvec(&(self.cols)(k + c), &x[c])
        }

        #[inline]
        fn scale((_, scale, _): Self::At) -> u32 {
            scale
        }
    }

    /// `newview` by child kind and rate model: one [`join`] per kind pair
    /// and model, the kinds and the model dispatched once per call. Γ rows
    /// hold [`GAMMA_CATEGORIES`] categories, category `c` through matrix
    /// `c`, and an inner child's columns are loaded once per call; a PSR
    /// row holds one category, pattern `i`'s through matrix
    /// `pattern_cat[i]`. An `(Inner, Tip)` join runs as `(Tip, Inner)`
    /// with the operands swapped: the products are the same bits.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn newview_patterns(
        rates: &RateHeterogeneity,
        left: &Child,
        right: &Child,
        patterns: &[u32],
        cats: usize,
        parent_clv: &mut [f64],
        parent_scale: &mut [u32],
    ) {
        assert_eq!(cats, rates.clv_categories());
        match rates {
            RateHeterogeneity::Gamma { .. } => by_kind::<GAMMA_CATEGORIES, _>(
                |_| 0,
                |ps| {
                    let cols: [_; GAMMA_CATEGORIES] = std::array::from_fn(|c| load_cols(&ps[c]));
                    move |k| cols[k]
                },
                left,
                right,
                patterns,
                parent_clv,
                parent_scale,
            ),
            RateHeterogeneity::Psr { pattern_cat, .. } => by_kind::<1, _>(
                |i| pattern_cat[i] as usize,
                |ps| move |k| load_cols(&ps[k]),
                left,
                right,
                patterns,
                parent_clv,
                parent_scale,
            ),
        }
    }

    /// [`join`] for the kinds of `left` and `right`, an inner child's
    /// columns by `cols(ps)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn by_kind<'a, const CATS: usize, P>(
        k_of: impl Fn(usize) -> usize,
        cols: impl Fn(&'a [ProbMatrix]) -> P,
        left: &Child<'a>,
        right: &Child<'a>,
        patterns: &[u32],
        parent_clv: &mut [f64],
        parent_scale: &mut [u32],
    ) where
        P: Fn(usize) -> [__m256d; NUM_STATES],
    {
        let side = |child: &Child<'a>| match *child {
            Child::Tip { codes, lookup } => Side::Tip(Tip::<CATS> { codes, lookup }),
            Child::Inner {
                clv,
                scale,
                rows,
                ps,
            } => Side::Inner(Inner::<CATS, _>::new(clv, scale, rows, cols(ps))),
        };
        let out = (patterns, parent_clv, parent_scale);
        match (side(left), side(right)) {
            (Side::Tip(a), Side::Tip(b)) => join::<CATS, _, _>(k_of, &a, &b, out),
            (Side::Tip(a), Side::Inner(b)) | (Side::Inner(b), Side::Tip(a)) => {
                join::<CATS, _, _>(k_of, &a, &b, out)
            }
            (Side::Inner(a), Side::Inner(b)) => join::<CATS, _, _>(k_of, &a, &b, out),
        }
    }

    /// A child as the operand of its kind.
    enum Side<T, I> {
        Tip(T),
        Inner(I),
    }

    /// The `newview` body: for the `j`-th listed pattern `i`, row `j` of
    /// the parent is `a ⊙ b` per category, rescaled by 2²⁵⁶ (and its count
    /// bumped) when every entry's magnitude is below [`MIN_LIKELIHOOD`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn join<const CATS: usize, A: Operand, B: Operand>(
        k_of: impl Fn(usize) -> usize,
        a: &A,
        b: &B,
        (patterns, parent_clv, parent_scale): (&[u32], &mut [f64], &mut [u32]),
    ) {
        let sign_mask = _mm256_set1_pd(-0.0);
        let upscale = _mm256_set1_pd(TWO_TO_256);
        let min = _mm256_set1_pd(MIN_LIKELIHOOD);
        let (rows, _) = parent_clv
            .as_chunks_mut::<NUM_STATES>()
            .0
            .as_chunks_mut::<CATS>();
        assert!(patterns.len() <= rows.len() && patterns.len() <= parent_scale.len());
        for ((&i, out), count) in patterns.iter().zip(rows).zip(parent_scale) {
            let i = i as usize;
            let k = k_of(i);
            let (ax, bx) = (a.at(i, k), b.at(i, k));
            let mut vmax = _mm256_setzero_pd();
            for (c, o) in out.iter_mut().enumerate() {
                // SAFETY: AVX2 is enabled here; `o` is 4 contiguous f64, one
                // unaligned 256-bit store.
                let v = unsafe { _mm256_mul_pd(a.vec(ax, c), b.vec(bx, c)) };
                unsafe { _mm256_storeu_pd(o.as_mut_ptr(), v) };
                vmax = _mm256_max_pd(vmax, _mm256_andnot_pd(sign_mask, v));
            }
            let mut n = A::scale(ax) + B::scale(bx);
            if below(vmax, min) {
                for o in out.iter_mut() {
                    // SAFETY: `o` is 4 contiguous f64.
                    unsafe {
                        let p = o.as_mut_ptr();
                        _mm256_storeu_pd(p, _mm256_mul_pd(_mm256_loadu_pd(p), upscale));
                    }
                }
                n += 1;
            }
            *count = n;
        }
    }

    /// `m₀.max(m₁).max(m₂).max(m₃) < min` over the lanes `m` of `v`, as
    /// `f64::max` takes a NaN: no lane at or above `min`, and not every lane
    /// NaN.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn below(v: __m256d, min: __m256d) -> bool {
        let nge = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_NGE_UQ>(v, min));
        let ordered = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_ORD_Q>(v, v));
        nge == 0xf && ordered != 0
    }

    /// Four patterns per block, one per lane: each pattern's
    /// `(π·x_a)·P x_b` with lanes over states, transposed so that every lane
    /// sums its own pattern's states from `0.0` and then its categories,
    /// the scalar loop's order; `ln` by libm, lane by lane.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn evaluate_patterns(
        rates: &RateHeterogeneity,
        weights: &[f64],
        freqs: &[f64; NUM_STATES],
        cols: &[ProbMatrix],
        a: &RootSide,
        b: &RootSide,
        n_patterns: usize,
        cats: usize,
        cat_weight: f64,
        mut term_sink: Option<&mut Vec<f64>>,
    ) -> f64 {
        let zero = _mm256_setzero_pd();
        // SAFETY: `freqs` is 4 contiguous f64, one unaligned 256-bit load.
        let fv = unsafe { _mm256_loadu_pd(freqs.as_ptr()) };
        let cw = _mm256_set1_pd(cat_weight);
        // Under Γ the four lanes of a category share matrix `c`: one load of
        // its columns. Decided per call: a per-block test of the four PSR
        // categories read slower under PSR, where lanes share by chance.
        let shared = matches!(rates, RateHeterogeneity::Gamma { .. });
        let mut lnl = 0.0f64;
        for start in (0..n_patterns).step_by(LANES) {
            let (idx, live) = block(start, n_patterns);
            let xa = idx.map(|i| a.pattern_states(i, cats));
            let xb = idx.map(|i| b.pattern_states(i, cats));
            let mut site = zero;
            for c in 0..cats {
                let k = idx.map(|i| cat_index(rates, i, c));
                let xb_c = |l: usize| &xb[l].0[c * xb[l].1..];
                let pb: [__m256d; LANES] = if shared {
                    let p = load_cols(&cols[k[0]]);
                    std::array::from_fn(|l| matvec(&p, xb_c(l)))
                } else {
                    std::array::from_fn(|l| matvec(&load_cols(&cols[k[l]]), xb_c(l)))
                };
                let terms: [__m256d; LANES] = std::array::from_fn(|l| {
                    let (ra, sa) = xa[l];
                    // SAFETY: a 4-wide slice, one unaligned 256-bit load.
                    let xav = unsafe { _mm256_loadu_pd(ra[c * sa..][..NUM_STATES].as_ptr()) };
                    _mm256_mul_pd(_mm256_mul_pd(fv, xav), pb[l])
                });
                site = _mm256_add_pd(site, _mm256_mul_pd(cw, add_states(zero, &terms)));
            }
            let site = _mm256_max_pd(site, _mm256_set1_pd(f64::MIN_POSITIVE));
            let ln = from_lanes(lanes(site).map(f64::ln));
            let count = from_lanes(idx.map(|i| (a.scale_of(i) + b.scale_of(i)) as f64));
            let term = _mm256_mul_pd(
                from_lanes(idx.map(|i| weights[i])),
                _mm256_add_pd(ln, _mm256_mul_pd(count, _mm256_set1_pd(LN_MIN_LIKELIHOOD))),
            );
            for term in &lanes(term)[..live] {
                if let Some(sink) = term_sink.as_deref_mut() {
                    sink.push(*term);
                }
                lnl += term;
            }
        }
        lnl
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn sumtable_patterns(
        a: &RootSide,
        b: &RootSide,
        freqs: &[f64; NUM_STATES],
        v: &ProbMatrix,
        vit: &ProbMatrix,
        n_patterns: usize,
        cats: usize,
        sumtable: &mut [f64],
    ) {
        let fv = unsafe { _mm256_loadu_pd(freqs.as_ptr()) };
        for i in 0..n_patterns {
            for c in 0..cats {
                let xa = a.state_slice(i, c, cats);
                let xb = b.state_slice(i, c, cats);
                let fa = _mm256_mul_pd(fv, unsafe { _mm256_loadu_pd(xa.as_ptr()) });
                let mut fa_arr = [0.0f64; NUM_STATES];
                unsafe { _mm256_storeu_pd(fa_arr.as_mut_ptr(), fa) };
                let mut ae = _mm256_setzero_pd();
                let mut be = _mm256_setzero_pd();
                for s in 0..NUM_STATES {
                    unsafe {
                        ae = _mm256_add_pd(
                            ae,
                            _mm256_mul_pd(
                                _mm256_set1_pd(fa_arr[s]),
                                _mm256_loadu_pd(v[s].as_ptr()),
                            ),
                        );
                        be = _mm256_add_pd(
                            be,
                            _mm256_mul_pd(_mm256_set1_pd(xb[s]), _mm256_loadu_pd(vit[s].as_ptr())),
                        );
                    }
                }
                let base = (i * cats + c) * NUM_STATES;
                unsafe {
                    _mm256_storeu_pd(sumtable.as_mut_ptr().add(base), _mm256_mul_pd(ae, be));
                }
            }
        }
    }

    /// Four patterns per block, one per lane: their sumtable rows transposed
    /// to state-major vectors, then `st·ex`, `·λr` and `·λr` again state by
    /// state, and each lane's three sums over categories and states in the
    /// scalar loop's order; the ratios and weights as vector ops.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn derivative_patterns(
        rates: &RateHeterogeneity,
        weights: &[f64],
        sumtable: &[f64],
        ex: &[[f64; NUM_STATES]],
        lr: &[[f64; NUM_STATES]],
        n_patterns: usize,
        cats: usize,
        cat_weight: f64,
        mut term_sink: Option<(&mut Vec<f64>, &mut Vec<f64>)>,
    ) -> (f64, f64) {
        let zero = _mm256_setzero_pd();
        let cw = _mm256_set1_pd(cat_weight);
        // The raw-pointer loads below read block `(i·cats + c)·4` of it.
        assert!(n_patterns * cats * NUM_STATES <= sumtable.len());
        let mut d1_sum = 0.0f64;
        let mut d2_sum = 0.0f64;
        for start in (0..n_patterns).step_by(LANES) {
            let (idx, live) = block(start, n_patterns);
            let (mut l, mut l1, mut l2) = (zero, zero, zero);
            for c in 0..cats {
                let k = idx.map(|i| cat_index(rates, i, c));
                // SAFETY: block `(i·cats + c)·4` lies inside `sumtable` by the
                // assert above; each row is 4 contiguous f64.
                let st = transpose(&idx.map(|i| unsafe {
                    _mm256_loadu_pd(sumtable.as_ptr().add((i * cats + c) * NUM_STATES))
                }));
                // State `s` of each lane's factors: broadcasts when the four
                // lanes share a rate (always under Γ), a transpose otherwise.
                let by_state = |rows: &[[f64; NUM_STATES]]| -> [__m256d; LANES] {
                    if k.iter().all(|&kl| kl == k[0]) {
                        rows[k[0]].map(|x| _mm256_set1_pd(x))
                    } else {
                        // SAFETY: a factor row is 4 contiguous f64.
                        transpose(&k.map(|kl| unsafe { _mm256_loadu_pd(rows[kl].as_ptr()) }))
                    }
                };
                let (ev, lkv) = (by_state(ex), by_state(lr));
                for s in 0..NUM_STATES {
                    let w = _mm256_mul_pd(st[s], ev[s]);
                    let wl1 = _mm256_mul_pd(w, lkv[s]);
                    l = _mm256_add_pd(l, w);
                    l1 = _mm256_add_pd(l1, wl1);
                    l2 = _mm256_add_pd(l2, _mm256_mul_pd(wl1, lkv[s]));
                }
            }
            let l = _mm256_max_pd(_mm256_mul_pd(l, cw), _mm256_set1_pd(f64::MIN_POSITIVE));
            let ratio1 = _mm256_div_pd(_mm256_mul_pd(l1, cw), l);
            let ratio2 = _mm256_div_pd(_mm256_mul_pd(l2, cw), l);
            let wgt = from_lanes(idx.map(|i| weights[i]));
            let t1 = lanes(_mm256_mul_pd(wgt, ratio1));
            let t2 = lanes(_mm256_mul_pd(
                wgt,
                _mm256_sub_pd(ratio2, _mm256_mul_pd(ratio1, ratio1)),
            ));
            for (&t1, &t2) in t1[..live].iter().zip(&t2[..live]) {
                if let Some((s1, s2)) = term_sink.as_mut() {
                    s1.push(t1);
                    s2.push(t2);
                }
                d1_sum += t1;
                d2_sum += t2;
            }
        }
        (d1_sum, d2_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::backend::{backend_for, root_side, simd_available, OutsideJob};
    use crate::engine::{Engine, PartitionSlice, SiteRepeats};
    use crate::model::pmatrix::exp_factors;
    use crate::model::rates::RateModelKind;
    use crate::tree::Tree;

    /// Hand-built deterministic partition slice with a mix of unambiguous,
    /// ambiguous, and gap tip codes.
    fn slice(n_taxa: usize, n_patterns: usize, seed: u64) -> PartitionSlice {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let tips: Vec<Vec<u8>> = (0..n_taxa)
            .map(|_| {
                (0..n_patterns)
                    .map(|_| match next() % 10 {
                        0..=7 => 1u8 << (next() % 4),
                        8 => 0xf,
                        _ => 0b0101,
                    })
                    .collect()
            })
            .collect();
        let weights: Vec<f64> = (0..n_patterns).map(|_| (1 + next() % 3) as f64).collect();
        PartitionSlice {
            name: "test".into(),
            global_index: 0,
            tips: std::sync::Arc::new(tips),
            weights: std::sync::Arc::new(weights),
            freqs: [0.3, 0.2, 0.25, 0.25],
        }
    }

    const N_TAXA: usize = 7;

    /// An engine over a fixed [`slice`] with the repeat setting pinned (the
    /// drivers are called with an explicit backend, so its own is unused).
    fn engine(kind: RateModelKind, repeats: SiteRepeats, s: &PartitionSlice) -> Engine {
        let n_taxa = s.tips.len();
        Engine::with_config(
            n_taxa,
            vec![s.clone()],
            kind,
            0.6,
            KernelKind::Scalar,
            repeats,
        )
    }

    /// Run the scalar and the AVX2 loops (where the host has them) through
    /// the shared drivers over the same traversal, with subtree repeats on
    /// (representative lists) and off (identity lists), and assert every
    /// observable output — CLVs, scale counts, lnl and its per-pattern
    /// terms, sumtable, derivatives and their terms — is bitwise identical.
    /// Branch lengths are multiplied by `stretch`; under PSR one rate round
    /// first spreads the patterns over several categories. Returns the
    /// scale count the root-edge loops read at each pattern (empty without
    /// AVX2).
    fn check_paths(kind: RateModelKind, s: &PartitionSlice, stretch: f64) -> Vec<u32> {
        let Some(simd) = SimdBackend::detect() else {
            return Vec::new();
        };
        let (scalar, simd): (_, &'static dyn KernelBackend) =
            (backend_for(KernelKind::Scalar), simd);
        let (n_taxa, n_patterns) = (s.tips.len(), s.n_patterns());
        let mut root_counts = Vec::new();
        for repeats in [SiteRepeats::On, SiteRepeats::Off] {
            let mut tree = Tree::random(n_taxa, 1, 5);
            for e in 0..tree.n_edges() {
                tree.set_length(e, 0, tree.edge(e).length(0) * stretch);
            }
            let mut eng_scalar = engine(kind, repeats, s);
            let mut eng_avx = engine(kind, repeats, s);
            if kind == RateModelKind::Psr && n_patterns > 0 {
                let d = tree.full_traversal_descriptor(0);
                for eng in [&mut eng_scalar, &mut eng_avx] {
                    eng.execute(&d);
                    let (num, den) = eng.optimize_site_rates(&d);
                    eng.finalize_site_rates(den / num);
                }
                tree.invalidate_all();
            }
            let d = tree.full_traversal_descriptor(0);
            for entry in &d.entries {
                scalar.newview_entry(&mut eng_scalar.parts[0], n_taxa, entry);
                simd.newview_entry(&mut eng_avx.parts[0], n_taxa, entry);
            }
            assert_eq!(eng_scalar.parts[0].clv, eng_avx.parts[0].clv, "{repeats}");
            assert_eq!(
                eng_scalar.parts[0].scale, eng_avx.parts[0].scale,
                "{repeats}"
            );
            let part = &eng_scalar.parts[0];
            let (ra, rb) = (
                root_side(part, n_taxa, d.root_a),
                root_side(part, n_taxa, d.root_b),
            );
            root_counts = (0..n_patterns)
                .map(|i| ra.scale_of(i) + rb.scale_of(i))
                .collect();

            let case = format!("{kind:?}, {n_patterns} patterns, {repeats}");
            let mut terms_s = Vec::new();
            let mut terms_a = Vec::new();
            let (lnl_s, w_s) =
                scalar.evaluate_root(&mut eng_scalar.parts[0], n_taxa, &d, Some(&mut terms_s));
            let (lnl_a, w_a) =
                simd.evaluate_root(&mut eng_avx.parts[0], n_taxa, &d, Some(&mut terms_a));
            assert_eq!(
                lnl_s.to_bits(),
                lnl_a.to_bits(),
                "{lnl_s} vs {lnl_a} ({case})"
            );
            assert_eq!(w_s, w_a);
            assert_eq!(terms_s.len(), n_patterns);
            assert_eq!(
                bits_of(&terms_s),
                bits_of(&terms_a),
                "per-pattern lnl terms differ ({case})"
            );
            let replayed = replay(&terms_s);
            assert_eq!(
                replayed.to_bits(),
                lnl_s.to_bits(),
                "terms do not replay lnl ({case})"
            );

            scalar.make_sumtable(&mut eng_scalar.parts[0], n_taxa, &d);
            simd.make_sumtable(&mut eng_avx.parts[0], n_taxa, &d);
            assert_eq!(
                bits_of(&eng_scalar.parts[0].sumtable),
                bits_of(&eng_avx.parts[0].sumtable),
                "{case}"
            );

            for t in [1e-6, 0.07, 0.9] {
                let (mut s1, mut s2) = (Vec::new(), Vec::new());
                let (mut v1, mut v2) = (Vec::new(), Vec::new());
                let (a1, a2, _) = scalar.derivatives_from_sumtable(
                    &mut eng_scalar.parts[0],
                    t,
                    Some((&mut s1, &mut s2)),
                );
                let (b1, b2, _) = simd.derivatives_from_sumtable(
                    &mut eng_avx.parts[0],
                    t,
                    Some((&mut v1, &mut v2)),
                );
                assert_eq!(a1.to_bits(), b1.to_bits(), "d1 at {t} ({case})");
                assert_eq!(a2.to_bits(), b2.to_bits(), "d2 at {t} ({case})");
                assert_eq!(s1.len(), n_patterns);
                assert_eq!(bits_of(&s1), bits_of(&v1), "d1 terms at {t} ({case})");
                assert_eq!(bits_of(&s2), bits_of(&v2), "d2 terms at {t} ({case})");
                assert_eq!(replay(&s1).to_bits(), a1.to_bits());
                assert_eq!(replay(&s2).to_bits(), a2.to_bits());
            }
        }
        root_counts
    }

    /// The kernels' pattern-order sum from `+0.0` (`Iterator::sum` starts
    /// at `-0.0`).
    fn replay(terms: &[f64]) -> f64 {
        terms.iter().fold(0.0, |acc, t| acc + t)
    }

    /// The bits of a slice of values, so NaN and signed zeros compare.
    fn bits_of(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The gradient-sweep entry point must hold the same bitwise contract
    /// as the classic kernels: the outside-CLV driver runs each backend's
    /// `newview_patterns` over an identity pattern list, so the scalar and
    /// AVX2 loops must agree bit for bit on the CLV, the scale counts, and
    /// the work accounting — under Γ and PSR, over inward CLVs built with
    /// subtree repeats on and off.
    #[test]
    fn gradient_outside_paths_match_scalar_bitwise() {
        let Some(simd) = SimdBackend::detect() else {
            return;
        };
        let (scalar, simd): (_, &'static dyn KernelBackend) =
            (backend_for(KernelKind::Scalar), simd);
        for kind in [RateModelKind::Gamma, RateModelKind::Psr] {
            for repeats in [SiteRepeats::On, SiteRepeats::Off] {
                let mut tree = Tree::random(N_TAXA, 1, 5);
                let d = tree.full_traversal_descriptor(0);
                let plan = tree.gradient_plan(0);
                // A first-generation step: both sides resolve to inward
                // CLVs, so the job can be built without running the whole
                // sweep.
                let step = plan
                    .steps
                    .iter()
                    .find(|st| st.left.from_outside.is_none() && st.right.from_outside.is_none())
                    .expect("plan must start at a root endpoint");

                let run = |backend: &'static dyn KernelBackend| -> (Vec<f64>, Vec<u32>, u64) {
                    let mut eng = engine(kind, repeats, &slice(N_TAXA, 41, 77));
                    for entry in &d.entries {
                        scalar.newview_entry(&mut eng.parts[0], N_TAXA, entry);
                    }
                    let part = &mut eng.parts[0];
                    let gi = part.data.global_index;
                    let mut out_clv = vec![0.0; part.clv_len()];
                    let mut out_scale = vec![0u32; part.data.n_patterns()];
                    let mut scratch = std::mem::take(&mut part.scratch);
                    let job = OutsideJob {
                        t_left: Engine::branch_length(&step.left.lengths, gi),
                        t_right: Engine::branch_length(&step.right.lengths, gi),
                        left: root_side(part, N_TAXA, step.left.node),
                        right: root_side(part, N_TAXA, step.right.node),
                    };
                    let w = backend.gradient_outside(
                        part,
                        &mut scratch,
                        &job,
                        &mut out_clv,
                        &mut out_scale,
                    );
                    (out_clv, out_scale, w)
                };

                let (clv_s, scale_s, w_s) = run(scalar);
                let (clv_a, scale_a, w_a) = run(simd);
                assert_eq!(
                    clv_s, clv_a,
                    "avx2 outside CLV differs ({kind:?}, {repeats})"
                );
                assert_eq!(
                    scale_s, scale_a,
                    "avx2 outside scale differs ({kind:?}, {repeats})"
                );
                assert_eq!(w_s, w_a);
            }
        }
    }

    /// The one-pass AVX2 column builder against `prob_matrix`'s loop
    /// transposed, and the tip tables summed from its columns against the
    /// per-code loop over the row-major oracle — bit for bit, over random
    /// models × lengths × rates and crafted zeros, subnormals and NaN.
    #[test]
    fn prob_columns_match_the_transposed_oracle_bitwise() {
        use crate::engine::backend::oracle;
        if !simd_available() {
            return;
        }
        let random = oracle::random_models(0xc01, 2000)
            .into_iter()
            .map(|(m, t, r)| {
                let want = oracle::prob_matrix(&m, t, r);
                ((*m.v(), exp_factors(&m, t, r), *m.v_inv()), want)
            });
        let crafted = oracle::crafted_factors().into_iter().map(|f| {
            let want = oracle::reconstruct(&f);
            (f, want)
        });
        for (case, ((v, ex, vi), p)) in random.chain(crafted).enumerate() {
            let (mut want_cols, mut want_tips) = (Vec::new(), Vec::new());
            oracle::transpose_into(&[p], &mut want_cols);
            oracle::build_tip_lookup_into(&[p], &mut want_tips);

            let mut cols = [[f64::NAN; NUM_STATES]; NUM_STATES];
            // SAFETY: AVX2 was detected above.
            unsafe { avx2::prob_columns(&v, &ex, &vi, &mut cols) };
            assert_eq!(
                oracle::bits(&cols),
                oracle::bits(&want_cols[0]),
                "case {case}"
            );
            let mut tips = Vec::new();
            SimdBackend(()).tip_tables(&[cols], &mut tips);
            assert_eq!(
                oracle::bits(&tips[0]),
                oracle::bits(&want_tips[0]),
                "case {case}"
            );
        }
    }

    /// The P sets, tip tables and rates of a partition as each backend
    /// lays them out, at two branch lengths (the left and the right child);
    /// under PSR after one rate round, so patterns use several matrices.
    struct Sets {
        rates: RateHeterogeneity,
        cats: usize,
        tips: Vec<Vec<u8>>,
        /// `[scalar, simd]` × `[left, right]`.
        ps: [[Vec<ProbMatrix>; 2]; 2],
        lookup: [[Vec<TipTable>; 2]; 2],
    }

    fn sets(kind: RateModelKind, s: &PartitionSlice, simd: &'static dyn KernelBackend) -> Sets {
        let mut eng = engine(kind, SiteRepeats::Off, s);
        if kind == RateModelKind::Psr {
            let d = Tree::random(s.tips.len(), 1, 5).full_traversal_descriptor(0);
            eng.execute(&d);
            let (num, den) = eng.optimize_site_rates(&d);
            eng.finalize_site_rates(den / num);
        }
        let part = &eng.parts[0];
        let mut ps: [[Vec<ProbMatrix>; 2]; 2] = Default::default();
        let mut lookup: [[Vec<TipTable>; 2]; 2] = Default::default();
        for (b, backend) in [backend_for(KernelKind::Scalar), simd]
            .into_iter()
            .enumerate()
        {
            for (side, t) in [0.13, 0.41].into_iter().enumerate() {
                backend.p_matrices_into(part, t, &mut ps[b][side]);
                backend.tip_tables(&ps[b][side], &mut lookup[b][side]);
            }
        }
        Sets {
            rates: part.rates.clone(),
            cats: part.rates.clv_categories(),
            tips: part.data.tips.to_vec(),
            ps,
            lookup,
        }
    }

    /// An inner child's inputs over `n_rows` CLV rows: values in `(0, 1)`,
    /// every third row scaled by 10⁻¹⁰⁰ (so a join with it rescales), and
    /// scale counts that differ from row to row.
    fn inner_rows(n_rows: usize, cats: usize, seed: u64) -> (Vec<f64>, Vec<u32>) {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let row_len = cats * NUM_STATES;
        let clv = (0..n_rows * row_len)
            .map(|e| {
                let tiny = if (e / row_len).is_multiple_of(3) {
                    1e-100
                } else {
                    1.0
                };
                (0.01 + 0.98 * next()) * tiny
            })
            .collect();
        let scale = (0..n_rows as u32).map(|r| r % 5).collect();
        (clv, scale)
    }

    /// `avx2::newview_patterns` against `ScalarBackend::newview_patterns`,
    /// bit for bit in CLV rows and scale counts, for every (left, right)
    /// kind pair, under Γ and under PSR after a rate round. Inner children
    /// are read through identity rows and through a class map (fewer rows
    /// than patterns, a subset of patterns listed); inner rows with and
    /// without rescaling.
    #[test]
    fn every_kind_pair_matches_scalar_bitwise() {
        let Some(simd) = SimdBackend::detect() else {
            return;
        };
        let scalar = backend_for(KernelKind::Scalar);
        let n_patterns = 43;
        let s = slice(N_TAXA, n_patterns, 91);
        for kind in [RateModelKind::Gamma, RateModelKind::Psr] {
            let sets = sets(kind, &s, simd);
            let cats = sets.cats;
            if kind == RateModelKind::Psr {
                let RateHeterogeneity::Psr { pattern_cat, .. } = &sets.rates else {
                    unreachable!()
                };
                assert!(pattern_cat.iter().any(|&k| k != pattern_cat[0]));
            }
            let ident: Vec<u32> = (0..n_patterns as u32).collect();
            let class_map: Vec<u32> = (0..n_patterns as u32).map(|i| (i * 7) % 11).collect();
            let listed: Vec<u32> = (0..n_patterns as u32).filter(|i| i % 3 != 1).collect();
            for (rows, n_rows, patterns) in
                [(&ident, n_patterns, &ident), (&class_map, 11, &listed)]
            {
                let inputs = [inner_rows(n_rows, cats, 3), inner_rows(n_rows, cats, 4)];
                let child = |b: usize, side: usize, inner: bool| {
                    if inner {
                        let (clv, scale) = &inputs[side];
                        Child::Inner {
                            clv,
                            scale,
                            rows,
                            ps: &sets.ps[b][side],
                        }
                    } else {
                        Child::Tip {
                            codes: &sets.tips[2 + side],
                            lookup: &sets.lookup[b][side],
                        }
                    }
                };
                for (l_inner, r_inner) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let case = format!("{kind:?}, {n_rows} rows, inner: {l_inner}/{r_inner}");
                    let run = |b: usize, backend: &dyn KernelBackend| {
                        let mut clv = vec![f64::NAN; patterns.len() * cats * NUM_STATES];
                        let mut scale = vec![u32::MAX; patterns.len()];
                        let (l, r) = (child(b, 0, l_inner), child(b, 1, r_inner));
                        backend.newview_patterns(
                            &sets.rates,
                            &l,
                            &r,
                            patterns,
                            cats,
                            &mut clv,
                            &mut scale,
                        );
                        let counts: Vec<u32> = patterns
                            .iter()
                            .map(|&i| l.scale_of(i as usize) + r.scale_of(i as usize))
                            .collect();
                        (bits_of(&clv), scale, counts)
                    };
                    let (clv_s, scale_s, counts) = run(0, scalar);
                    let (clv_a, scale_a, _) = run(1, simd);
                    assert_eq!(clv_s, clv_a, "CLV ({case})");
                    assert_eq!(scale_s, scale_a, "scale ({case})");
                    let rescaled = scale_s.iter().zip(&counts).filter(|(s, c)| s > c).count();
                    if l_inner || r_inner {
                        assert!(
                            0 < rescaled && rescaled < patterns.len(),
                            "{rescaled} rescaled ({case})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_loops_match_scalar_bitwise_gamma() {
        check_paths(RateModelKind::Gamma, &slice(N_TAXA, 41, 77), 1.0);
    }

    #[test]
    fn avx2_loops_match_scalar_bitwise_psr() {
        check_paths(RateModelKind::Psr, &slice(N_TAXA, 41, 77), 1.0);
    }

    /// The root-edge loops run four patterns per block: every remainder mod
    /// 4 of the last block, less than one block, and no pattern at all.
    #[test]
    fn avx2_blocks_and_tails_match_scalar_bitwise() {
        for n_patterns in 0..=9 {
            for kind in [RateModelKind::Gamma, RateModelKind::Psr] {
                check_paths(kind, &slice(N_TAXA, n_patterns, 77), 1.0);
            }
        }
    }

    /// 256 taxa on saturated branches: CLV rows rescale. Pattern `i` has
    /// its first `28·(5i mod 9)` taxa gapped, so likelihoods differ within
    /// a block and its lanes read different, non-zero scale counts.
    #[test]
    fn avx2_loops_match_scalar_bitwise_while_rescaling() {
        if SimdBackend::detect().is_none() {
            return;
        }
        let mut s = slice(256, 9, 77);
        for (t, codes) in std::sync::Arc::make_mut(&mut s.tips).iter_mut().enumerate() {
            for (i, code) in codes.iter_mut().enumerate() {
                if t < 28 * (5 * i % 9) {
                    *code = 0xf;
                }
            }
        }
        for kind in [RateModelKind::Gamma, RateModelKind::Psr] {
            let counts = check_paths(kind, &s, 20.0);
            let (lo, hi) = (counts.iter().min(), counts.iter().max());
            assert!(hi > Some(&0), "{kind:?}: rescaling never fired: {counts:?}");
            assert!(
                lo < hi,
                "{kind:?}: one scale count for every pattern: {counts:?}"
            );
        }
    }
}

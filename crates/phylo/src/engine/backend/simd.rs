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
//! * Horizontal sums extract lanes and accumulate in lane order starting
//!   from `0.0`, matching the scalar `acc += …` loops.
//!
//! The one documented exception: `newview`'s rescaling max is computed with
//! vector max, which treats NaN differently from `f64::max`; NaN CLVs only
//! arise from already-broken inputs.

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
    use crate::engine::backend::{cat_index, Child, RootSide};
    use crate::engine::{LN_MIN_LIKELIHOOD, MIN_LIKELIHOOD, TWO_TO_256};
    use crate::model::pmatrix::ProbMatrix;
    use crate::model::rates::RateHeterogeneity;
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

    /// `P·b` over a column-major P: per-lane
    /// `((P[s][0]·b₀ + P[s][1]·b₁) + P[s][2]·b₂) + P[s][3]·b₃`, the scalar
    /// row-dot association order.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn matvec(cols: &ProbMatrix, b: &[f64]) -> __m256d {
        unsafe {
            let mut acc = _mm256_mul_pd(_mm256_loadu_pd(cols[0].as_ptr()), _mm256_set1_pd(b[0]));
            acc = _mm256_add_pd(
                acc,
                _mm256_mul_pd(_mm256_loadu_pd(cols[1].as_ptr()), _mm256_set1_pd(b[1])),
            );
            acc = _mm256_add_pd(
                acc,
                _mm256_mul_pd(_mm256_loadu_pd(cols[2].as_ptr()), _mm256_set1_pd(b[2])),
            );
            acc = _mm256_add_pd(
                acc,
                _mm256_mul_pd(_mm256_loadu_pd(cols[3].as_ptr()), _mm256_set1_pd(b[3])),
            );
            acc
        }
    }

    /// In-lane-order horizontal sum starting from `0.0`, matching the
    /// scalar `acc = 0.0; for s { acc += t[s] }` loops bitwise.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum_ordered(v: __m256d) -> f64 {
        let mut arr = [0.0f64; NUM_STATES];
        unsafe { _mm256_storeu_pd(arr.as_mut_ptr(), v) };
        let mut acc = 0.0;
        for x in arr {
            acc += x;
        }
        acc
    }

    /// One child's contribution at pattern `i` (an inner child's row
    /// `rows[i]`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn child_vec(child: &Child, i: usize, c: usize, cats: usize, k: usize) -> __m256d {
        match child {
            // SAFETY: a tip-table row is 4 contiguous f64, one unaligned
            // 256-bit load.
            Child::Tip { codes, lookup } => unsafe {
                _mm256_loadu_pd(lookup[k][codes[i] as usize & 0xf].as_ptr())
            },
            Child::Inner { clv, rows, ps, .. } => {
                let base = (rows[i] as usize * cats + c) * NUM_STATES;
                matvec(&ps[k], &clv[base..base + NUM_STATES])
            }
        }
    }

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
        let sign_mask = _mm256_set1_pd(-0.0);
        let upscale = _mm256_set1_pd(TWO_TO_256);
        // Row `j` of the raw-pointer stores below stays inside the parent.
        assert!(patterns.len() * cats * NUM_STATES <= parent_clv.len());
        for (j, &ip) in patterns.iter().enumerate() {
            let i = ip as usize;
            let base_j = j * cats * NUM_STATES;
            let mut vmax = _mm256_setzero_pd();
            for c in 0..cats {
                let k = cat_index(rates, i, c);
                let lv = child_vec(left, i, c, cats, k);
                let rv = child_vec(right, i, c, cats, k);
                let v = _mm256_mul_pd(lv, rv);
                unsafe {
                    _mm256_storeu_pd(parent_clv.as_mut_ptr().add(base_j + c * NUM_STATES), v);
                }
                vmax = _mm256_max_pd(vmax, _mm256_andnot_pd(sign_mask, v));
            }
            let mut arr = [0.0f64; NUM_STATES];
            unsafe { _mm256_storeu_pd(arr.as_mut_ptr(), vmax) };
            let maxv = arr[0].max(arr[1]).max(arr[2]).max(arr[3]);
            let mut count = left.scale_of(i) + right.scale_of(i);
            if maxv < MIN_LIKELIHOOD {
                for c in 0..cats {
                    unsafe {
                        let p = parent_clv.as_mut_ptr().add(base_j + c * NUM_STATES);
                        _mm256_storeu_pd(p, _mm256_mul_pd(_mm256_loadu_pd(p), upscale));
                    }
                }
                count += 1;
            }
            parent_scale[j] = count;
        }
    }

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
        let fv = unsafe { _mm256_loadu_pd(freqs.as_ptr()) };
        let mut lnl = 0.0f64;
        for i in 0..n_patterns {
            let mut site = 0.0f64;
            for c in 0..cats {
                let k = cat_index(rates, i, c);
                let xa = a.state_slice(i, c, cats);
                let xb = b.state_slice(i, c, cats);
                let pb = matvec(&cols[k], xb);
                let xav = unsafe { _mm256_loadu_pd(xa.as_ptr()) };
                let terms = _mm256_mul_pd(_mm256_mul_pd(fv, xav), pb);
                site += cat_weight * hsum_ordered(terms);
            }
            let count = a.scale_of(i) + b.scale_of(i);
            let site = site.max(f64::MIN_POSITIVE);
            let term = weights[i] * (site.ln() + count as f64 * LN_MIN_LIKELIHOOD);
            if let Some(sink) = term_sink.as_deref_mut() {
                sink.push(term);
            }
            lnl += term;
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
        let mut d1_sum = 0.0f64;
        let mut d2_sum = 0.0f64;
        for i in 0..n_patterns {
            let mut l = 0.0f64;
            let mut l1 = 0.0f64;
            let mut l2 = 0.0f64;
            for c in 0..cats {
                let k = cat_index(rates, i, c);
                let base = (i * cats + c) * NUM_STATES;
                let (w, wl1, wl2);
                unsafe {
                    let st = _mm256_loadu_pd(sumtable.as_ptr().add(base));
                    let ev = _mm256_loadu_pd(ex[k].as_ptr());
                    let lkv = _mm256_loadu_pd(lr[k].as_ptr());
                    w = _mm256_mul_pd(st, ev);
                    wl1 = _mm256_mul_pd(w, lkv);
                    wl2 = _mm256_mul_pd(wl1, lkv);
                }
                let mut wa = [0.0f64; NUM_STATES];
                let mut w1a = [0.0f64; NUM_STATES];
                let mut w2a = [0.0f64; NUM_STATES];
                unsafe {
                    _mm256_storeu_pd(wa.as_mut_ptr(), w);
                    _mm256_storeu_pd(w1a.as_mut_ptr(), wl1);
                    _mm256_storeu_pd(w2a.as_mut_ptr(), wl2);
                }
                for s in 0..NUM_STATES {
                    l += wa[s];
                    l1 += w1a[s];
                    l2 += w2a[s];
                }
            }
            l *= cat_weight;
            l1 *= cat_weight;
            l2 *= cat_weight;
            let l = l.max(f64::MIN_POSITIVE);
            let ratio1 = l1 / l;
            let ratio2 = l2 / l;
            let wgt = weights[i];
            let t1 = wgt * ratio1;
            let t2 = wgt * (ratio2 - ratio1 * ratio1);
            if let Some((s1, s2)) = term_sink.as_mut() {
                s1.push(t1);
                s2.push(t2);
            }
            d1_sum += t1;
            d2_sum += t2;
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
    fn engine(kind: RateModelKind, repeats: SiteRepeats) -> Engine {
        let s = slice(N_TAXA, 41, 77);
        Engine::with_config(N_TAXA, vec![s], kind, 0.6, KernelKind::Scalar, repeats)
    }

    /// Run the scalar and the AVX2 loops (where the host has them) through
    /// the shared drivers over the same traversal, with subtree repeats on
    /// (representative lists) and off (identity lists), and assert every
    /// observable output — CLVs, scale counts, lnl, sumtable, derivatives —
    /// is bitwise identical.
    fn check_paths(kind: RateModelKind) {
        let Some(simd) = SimdBackend::detect() else {
            return;
        };
        let (scalar, simd): (_, &'static dyn KernelBackend) =
            (backend_for(KernelKind::Scalar), simd);
        for repeats in [SiteRepeats::On, SiteRepeats::Off] {
            let mut tree = Tree::random(N_TAXA, 1, 5);
            let d = tree.full_traversal_descriptor(0);
            let mut eng_scalar = engine(kind, repeats);
            let mut eng_avx = engine(kind, repeats);
            for entry in &d.entries {
                scalar.newview_entry(&mut eng_scalar.parts[0], N_TAXA, entry);
                simd.newview_entry(&mut eng_avx.parts[0], N_TAXA, entry);
            }
            assert_eq!(eng_scalar.parts[0].clv, eng_avx.parts[0].clv, "{repeats}");
            assert_eq!(
                eng_scalar.parts[0].scale, eng_avx.parts[0].scale,
                "{repeats}"
            );

            let mut terms_s = Vec::new();
            let mut terms_a = Vec::new();
            let (lnl_s, w_s) =
                scalar.evaluate_root(&mut eng_scalar.parts[0], N_TAXA, &d, Some(&mut terms_s));
            let (lnl_a, w_a) =
                simd.evaluate_root(&mut eng_avx.parts[0], N_TAXA, &d, Some(&mut terms_a));
            assert_eq!(lnl_s.to_bits(), lnl_a.to_bits(), "{lnl_s} vs {lnl_a}");
            assert_eq!(w_s, w_a);
            assert_eq!(terms_s.len(), 41);
            assert_eq!(terms_s, terms_a, "per-pattern lnl terms differ");
            let replayed: f64 = terms_s.iter().sum();
            assert_eq!(
                replayed.to_bits(),
                lnl_s.to_bits(),
                "terms do not replay lnl"
            );

            scalar.make_sumtable(&mut eng_scalar.parts[0], N_TAXA, &d);
            simd.make_sumtable(&mut eng_avx.parts[0], N_TAXA, &d);
            assert_eq!(eng_scalar.parts[0].sumtable, eng_avx.parts[0].sumtable);

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
                assert_eq!(a1.to_bits(), b1.to_bits(), "d1 at {t}");
                assert_eq!(a2.to_bits(), b2.to_bits(), "d2 at {t}");
                assert_eq!(s1, v1, "d1 terms at {t}");
                assert_eq!(s2, v2, "d2 terms at {t}");
                assert_eq!(s1.iter().sum::<f64>().to_bits(), a1.to_bits());
                assert_eq!(s2.iter().sum::<f64>().to_bits(), a2.to_bits());
            }
        }
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
                    let mut eng = engine(kind, repeats);
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

    #[test]
    fn avx2_loops_match_scalar_bitwise_gamma() {
        check_paths(RateModelKind::Gamma);
    }

    #[test]
    fn avx2_loops_match_scalar_bitwise_psr() {
        check_paths(RateModelKind::Psr);
    }
}

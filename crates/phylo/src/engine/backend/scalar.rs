//! The scalar kernel backend: row-major P-matrices (`prob_matrix`'s
//! product, its factors by the scalar lanes of the one `exp`), tip tables
//! over their strided columns (by [`tip_tables_into`]'s subset recurrence,
//! the same sums in the same order as a per-code loop), and the four
//! pattern loops in straight-line code.
//!
//! The loops are generic over the two rate models through a small
//! category-indirection: under Γ every pattern integrates over all category
//! P-matrices (weight 1/k each); under PSR each pattern uses the single
//! P-matrix of its quantized rate category.

use super::{cat_index, tip_tables_into, Child, KernelBackend, KernelKind, RootSide, TipTable};
use crate::engine::{PartitionState, LN_MIN_LIKELIHOOD, MIN_LIKELIHOOD, TWO_TO_256};
use crate::model::pmatrix::{from_factors, ProbMatrix};
use crate::model::rates::RateHeterogeneity;
use crate::numerics::exp::exp;
use exa_bio::dna::NUM_STATES;

/// The scalar loops, under the [`KernelKind`] they are handed out for (see
/// [`super::backend_for`]).
pub(crate) struct ScalarBackend(pub(crate) KernelKind);

impl KernelBackend for ScalarBackend {
    fn kind(&self) -> KernelKind {
        self.0
    }

    /// The factors by [`exp`]'s scalar lanes, whatever the host, so a
    /// scalar-kernel run checks the SIMD backend's AVX2 lanes end to end;
    /// four rates' factors at a time, so that their exponentials overlap.
    fn p_matrices_into(&self, part: &PartitionState, t: f64, out: &mut Vec<ProbMatrix>) {
        let lam = part.model.eigenvalues();
        out.clear();
        for rates in part.rates.distinct_rates().chunks(4) {
            let mut ex = [[0.0; NUM_STATES]; 4];
            for (e, &r) in ex.iter_mut().zip(rates) {
                *e = lam.map(|l| exp(l * r * t));
            }
            out.extend(
                ex[..rates.len()]
                    .iter()
                    .map(|e| from_factors(&part.model, e)),
            );
        }
    }

    /// Column `t` of a row-major P is strided.
    fn tip_tables(&self, ps: &[ProbMatrix], out: &mut Vec<TipTable>) {
        tip_tables_into(ps, |p, t| std::array::from_fn(|s| p[s][t]), out);
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
        let mut lv = [0.0; NUM_STATES];
        let mut rv = [0.0; NUM_STATES];
        for (j, &ip) in patterns.iter().enumerate() {
            let i = ip as usize;
            let mut maxv = 0.0f64;
            let base_j = j * cats * NUM_STATES;
            for c in 0..cats {
                let k = cat_index(rates, i, c);
                contribution(left, i, c, cats, k, &mut lv);
                contribution(right, i, c, cats, k, &mut rv);
                let out = &mut parent_clv[base_j + c * NUM_STATES..base_j + (c + 1) * NUM_STATES];
                for s in 0..NUM_STATES {
                    let v = lv[s] * rv[s];
                    out[s] = v;
                    maxv = maxv.max(v.abs());
                }
            }
            let mut count = left.scale_of(i) + right.scale_of(i);
            if maxv < MIN_LIKELIHOOD {
                for v in parent_clv[base_j..base_j + cats * NUM_STATES].iter_mut() {
                    *v *= TWO_TO_256;
                }
                count += 1;
            }
            parent_scale[j] = count;
        }
    }

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
        mut terms: Option<&mut Vec<f64>>,
    ) -> f64 {
        let mut lnl = 0.0f64;
        let mut xa = [0.0; NUM_STATES];
        let mut xb = [0.0; NUM_STATES];
        for i in 0..n_patterns {
            let mut site = 0.0f64;
            for c in 0..cats {
                let k = cat_index(rates, i, c);
                a.state(i, c, cats, &mut xa);
                b.state(i, c, cats, &mut xb);
                let p = &ps[k];
                let mut acc = 0.0;
                for s in 0..NUM_STATES {
                    let row = &p[s];
                    let pb = row[0] * xb[0] + row[1] * xb[1] + row[2] * xb[2] + row[3] * xb[3];
                    acc += freqs[s] * xa[s] * pb;
                }
                site += cat_weight * acc;
            }
            let count = a.scale_of(i) + b.scale_of(i);
            let site = site.max(f64::MIN_POSITIVE);
            let term = weights[i] * (site.ln() + count as f64 * LN_MIN_LIKELIHOOD);
            if let Some(sink) = terms.as_deref_mut() {
                sink.push(term);
            }
            lnl += term;
        }
        lnl
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
        let mut xa = [0.0; NUM_STATES];
        let mut xb = [0.0; NUM_STATES];
        for i in 0..n_patterns {
            for c in 0..cats {
                a.state(i, c, cats, &mut xa);
                b.state(i, c, cats, &mut xb);
                let base = (i * cats + c) * NUM_STATES;
                for e in 0..NUM_STATES {
                    let mut ae = 0.0;
                    let mut be = 0.0;
                    for s in 0..NUM_STATES {
                        ae += freqs[s] * xa[s] * v[s][e];
                        be += vi[e][s] * xb[s];
                    }
                    sumtable[base + e] = ae * be;
                }
            }
        }
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
        mut terms: Option<(&mut Vec<f64>, &mut Vec<f64>)>,
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
                let e = &ex[k];
                let lk = &lr[k];
                for s in 0..NUM_STATES {
                    let w = sumtable[base + s] * e[s];
                    l += w;
                    l1 += w * lk[s];
                    l2 += w * lk[s] * lk[s];
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
            if let Some((s1, s2)) = terms.as_mut() {
                s1.push(t1);
                s2.push(t2);
            }
            d1_sum += t1;
            d2_sum += t2;
        }
        (d1_sum, d2_sum)
    }
}

/// One child's contribution to a parent CLV state at pattern `i`: its
/// tip-lookup row, or the row-major `P·x` against its CLV block at row
/// `rows[i]`.
#[inline]
fn contribution(
    child: &Child<'_>,
    i: usize,
    c: usize,
    cats: usize,
    k: usize,
    out: &mut [f64; NUM_STATES],
) {
    match child {
        Child::Tip { codes, lookup } => {
            *out = lookup[k][codes[i] as usize & 0xf];
        }
        Child::Inner { clv, rows, ps, .. } => {
            let base = (rows[i] as usize * cats + c) * NUM_STATES;
            let block = &clv[base..base + NUM_STATES];
            let p = &ps[k];
            for (s, o) in out.iter_mut().enumerate() {
                let row = &p[s];
                *o = row[0] * block[0] + row[1] * block[1] + row[2] * block[2] + row[3] * block[3];
            }
        }
    }
}

//! The scalar kernel backend: the original straight-line implementations of
//! `newview`, `evaluate`, and the sumtable derivatives, moved behind
//! [`KernelBackend`]. P-matrices (row-major, from `prob_matrix`) and tip
//! lookup tables (by [`tip_tables_into`]'s subset recurrence, the same sums
//! in the same order as a per-code loop) are refilled per edge into the
//! partition's [`KernelScratch`](super::KernelScratch) instead of fresh
//! `Vec`s.
//!
//! All kernels run per local partition and are generic over the two rate
//! models through a small category-indirection: under Γ every pattern
//! integrates over all category P-matrices (weight 1/k each); under PSR each
//! pattern uses the single P-matrix of its quantized rate category.

use super::{
    cat_index, category_weight, entry_lengths, fill_deriv_factors, root_side, tip_tables_into,
    KernelBackend, KernelKind, KernelScratch, OutsideJob, RootSide, TipTable,
};
use crate::engine::{PartitionState, LN_MIN_LIKELIHOOD, MIN_LIKELIHOOD, TWO_TO_256};
use crate::model::pmatrix::{prob_matrix, ProbMatrix};
use crate::tree::traversal::{TraversalDescriptor, TraversalEntry};
use exa_bio::dna::NUM_STATES;

/// The scalar loops, under the [`KernelKind`] they are handed out for (see
/// [`super::backend_for`]).
pub(crate) struct ScalarBackend(pub(crate) KernelKind);

impl KernelBackend for ScalarBackend {
    fn kind(&self) -> KernelKind {
        self.0
    }

    fn newview_entry(
        &self,
        part: &mut PartitionState,
        n_taxa: usize,
        entry: &TraversalEntry,
    ) -> u64 {
        newview_entry(part, n_taxa, entry)
    }

    fn evaluate_root(
        &self,
        part: &mut PartitionState,
        n_taxa: usize,
        d: &TraversalDescriptor,
        terms: Option<&mut Vec<f64>>,
    ) -> (f64, u64) {
        evaluate_root(part, n_taxa, d, terms)
    }

    fn make_sumtable(&self, part: &mut PartitionState, n_taxa: usize, d: &TraversalDescriptor) {
        make_sumtable(part, n_taxa, d)
    }

    fn sumtable_sides(
        &self,
        part: &PartitionState,
        a: &RootSide<'_>,
        b: &RootSide<'_>,
        sumtable: &mut Vec<f64>,
    ) {
        sumtable_sides(part, a, b, sumtable)
    }

    fn gradient_outside(
        &self,
        part: &PartitionState,
        scratch: &mut KernelScratch,
        job: &OutsideJob<'_>,
        out_clv: &mut [f64],
        out_scale: &mut [u32],
    ) -> u64 {
        gradient_outside(part, scratch, job, out_clv, out_scale)
    }

    fn derivatives_from_sumtable(
        &self,
        part: &mut PartitionState,
        t: f64,
        terms: Option<(&mut Vec<f64>, &mut Vec<f64>)>,
    ) -> (f64, f64, u64) {
        derivatives_from_sumtable(part, t, terms)
    }
}

/// Fill `out` with the row-major P-matrices of every distinct rate
/// multiplier, reusing its allocation.
fn p_matrices_into(part: &PartitionState, t: f64, out: &mut Vec<ProbMatrix>) {
    out.clear();
    out.extend(
        part.rates
            .distinct_rates()
            .iter()
            .map(|&r| prob_matrix(&part.model, t, r)),
    );
}

/// Tip tables from row-major P-matrices (column `t` is strided).
pub(super) fn tip_tables(ps: &[ProbMatrix], out: &mut Vec<TipTable>) {
    tip_tables_into(ps, |p, t| std::array::from_fn(|s| p[s][t]), out);
}

/// One child's contribution to a parent CLV state: either through the tip
/// lookup or by a matrix–vector product against the child's CLV block.
enum Child<'a> {
    Tip {
        codes: &'a [u8],
        lookup: &'a [TipTable],
    },
    Inner {
        clv: &'a [f64],
        scale: &'a [u32],
        ps: &'a [ProbMatrix],
    },
}

impl<'a> Child<'a> {
    #[inline]
    fn contribution(&self, i: usize, c: usize, cats: usize, k: usize, out: &mut [f64; NUM_STATES]) {
        match self {
            Child::Tip { codes, lookup } => {
                *out = lookup[k][codes[i] as usize & 0xf];
            }
            Child::Inner { clv, ps, .. } => {
                let base = (i * cats + c) * NUM_STATES;
                let block = &clv[base..base + NUM_STATES];
                let p = &ps[k];
                for (s, o) in out.iter_mut().enumerate() {
                    let row = &p[s];
                    *o = row[0] * block[0]
                        + row[1] * block[1]
                        + row[2] * block[2]
                        + row[3] * block[3];
                }
            }
        }
    }

    #[inline]
    fn scale_of(&self, i: usize) -> u32 {
        match self {
            Child::Tip { .. } => 0,
            Child::Inner { scale, .. } => scale[i],
        }
    }
}

/// Recompute the parent CLV of one traversal entry. Returns the work done in
/// pattern-categories (with repeat compression: representatives only).
fn newview_entry(part: &mut PartitionState, n_taxa: usize, entry: &TraversalEntry) -> u64 {
    let n_patterns = part.data.n_patterns();
    let cats = part.rates.clv_categories();
    let (t_left, t_right) = entry_lengths(part, entry);
    let compress = crate::engine::repeats::refresh_entry(part, n_taxa, entry);
    if !compress {
        crate::engine::repeats::fill_identity(&mut part.repeat_scratch.ident, n_patterns);
    }

    let mut scratch = std::mem::take(&mut part.scratch);
    p_matrices_into(part, t_left, &mut scratch.ps_a);
    p_matrices_into(part, t_right, &mut scratch.ps_b);
    if entry.left < n_taxa {
        tip_tables(&scratch.ps_a, &mut scratch.lookup_a);
    }
    if entry.right < n_taxa {
        tip_tables(&scratch.ps_b, &mut scratch.lookup_b);
    }

    let parent_idx = entry.parent - n_taxa;
    let mut parent_clv = std::mem::take(&mut part.clv[parent_idx]);
    let mut parent_scale = std::mem::take(&mut part.scale[parent_idx]);

    let computed;
    {
        let patterns: &[u32] = if compress {
            &part.repeats[parent_idx].classes.representatives
        } else {
            &part.repeat_scratch.ident
        };
        computed = patterns.len();

        let left = if entry.left < n_taxa {
            Child::Tip {
                codes: &part.data.tips[entry.left],
                lookup: &scratch.lookup_a,
            }
        } else {
            let idx = entry.left - n_taxa;
            Child::Inner {
                clv: &part.clv[idx],
                scale: &part.scale[idx],
                ps: &scratch.ps_a,
            }
        };
        let right = if entry.right < n_taxa {
            Child::Tip {
                codes: &part.data.tips[entry.right],
                lookup: &scratch.lookup_b,
            }
        } else {
            let idx = entry.right - n_taxa;
            Child::Inner {
                clv: &part.clv[idx],
                scale: &part.scale[idx],
                ps: &scratch.ps_b,
            }
        };

        let mut lv = [0.0; NUM_STATES];
        let mut rv = [0.0; NUM_STATES];
        for &ip in patterns {
            let i = ip as usize;
            let mut maxv = 0.0f64;
            let base_i = i * cats * NUM_STATES;
            for c in 0..cats {
                let k = cat_index(&part.rates, i, c);
                left.contribution(i, c, cats, k, &mut lv);
                right.contribution(i, c, cats, k, &mut rv);
                let out = &mut parent_clv[base_i + c * NUM_STATES..base_i + (c + 1) * NUM_STATES];
                for s in 0..NUM_STATES {
                    let v = lv[s] * rv[s];
                    out[s] = v;
                    maxv = maxv.max(v.abs());
                }
            }
            let mut count = left.scale_of(i) + right.scale_of(i);
            if maxv < MIN_LIKELIHOOD {
                for v in parent_clv[base_i..base_i + cats * NUM_STATES].iter_mut() {
                    *v *= TWO_TO_256;
                }
                count += 1;
            }
            parent_scale[i] = count;
        }
        if compress {
            crate::engine::repeats::scatter_entry(
                &part.repeats[parent_idx].classes,
                cats,
                &mut parent_clv,
                &mut parent_scale,
            );
        }
    }

    part.clv[parent_idx] = parent_clv;
    part.scale[parent_idx] = parent_scale;
    part.scratch = scratch;
    (computed * cats) as u64
}

/// Log-likelihood of one partition at the descriptor's virtual root.
fn evaluate_root(
    part: &mut PartitionState,
    n_taxa: usize,
    d: &TraversalDescriptor,
    mut terms: Option<&mut Vec<f64>>,
) -> (f64, u64) {
    if let Some(sink) = terms.as_deref_mut() {
        sink.clear();
    }
    let n_patterns = part.data.n_patterns();
    let cats = part.rates.clv_categories();
    let gi = part.data.global_index;
    let t = crate::engine::Engine::branch_length(&d.root_lengths, gi);

    let mut scratch = std::mem::take(&mut part.scratch);
    p_matrices_into(part, t, &mut scratch.ps_a);
    let freqs = *part.model.freqs();
    let cat_weight = category_weight(&part.rates);

    let mut lnl = 0.0f64;
    {
        let a = root_side(part, n_taxa, d.root_a);
        let b = root_side(part, n_taxa, d.root_b);
        let mut xa = [0.0; NUM_STATES];
        let mut xb = [0.0; NUM_STATES];
        for i in 0..n_patterns {
            let mut site = 0.0f64;
            for c in 0..cats {
                let k = cat_index(&part.rates, i, c);
                a.state(i, c, cats, &mut xa);
                b.state(i, c, cats, &mut xb);
                let p = &scratch.ps_a[k];
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
            let term = part.data.weights[i] * (site.ln() + count as f64 * LN_MIN_LIKELIHOOD);
            if let Some(sink) = terms.as_deref_mut() {
                sink.push(term);
            }
            lnl += term;
        }
    }
    part.scratch = scratch;
    (lnl, (n_patterns * cats) as u64)
}

/// Build the derivative sumtable for the descriptor's root edge:
/// `ST[(i·cats+c)·4+e] = (Σ_s π_s x_a[s] V[s,e]) · (Σ_t V⁻¹[e,t] x_b[t])`.
/// The branch length itself enters only in [`derivatives_from_sumtable`],
/// so Newton–Raphson iterations reuse one sumtable (RAxML's scheme).
fn make_sumtable(part: &mut PartitionState, n_taxa: usize, d: &TraversalDescriptor) {
    let mut sumtable = std::mem::take(&mut part.sumtable);
    {
        let a = root_side(part, n_taxa, d.root_a);
        let b = root_side(part, n_taxa, d.root_b);
        sumtable_sides(part, &a, &b, &mut sumtable);
    }
    part.sumtable = sumtable;
}

/// The sumtable core over two explicit sides (shared by [`make_sumtable`]
/// and the gradient sweep, so both paths are one kernel).
fn sumtable_sides(part: &PartitionState, a: &RootSide<'_>, b: &RootSide<'_>, out: &mut Vec<f64>) {
    let n_patterns = part.data.n_patterns();
    let cats = part.rates.clv_categories();
    let freqs = *part.model.freqs();
    let v = *part.model.v();
    let vi = *part.model.v_inv();

    out.resize(n_patterns * cats * NUM_STATES, 0.0);
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
                out[base + e] = ae * be;
            }
        }
    }
}

/// Materialize one outside CLV: `newview`'s inner loop with explicit sources
/// and destination, uncompressed over all patterns. The arithmetic —
/// contribution row-dots, `lv·rv` products, the rescale test and factor —
/// is [`newview_entry`]'s exactly, so the result is bitwise identical to
/// what a per-edge traversal would have computed for the same direction.
fn gradient_outside(
    part: &PartitionState,
    scratch: &mut KernelScratch,
    job: &OutsideJob<'_>,
    out_clv: &mut [f64],
    out_scale: &mut [u32],
) -> u64 {
    let n_patterns = part.data.n_patterns();
    let cats = part.rates.clv_categories();
    p_matrices_into(part, job.t_left, &mut scratch.ps_a);
    p_matrices_into(part, job.t_right, &mut scratch.ps_b);
    if matches!(job.left, RootSide::Tip(_)) {
        tip_tables(&scratch.ps_a, &mut scratch.lookup_a);
    }
    if matches!(job.right, RootSide::Tip(_)) {
        tip_tables(&scratch.ps_b, &mut scratch.lookup_b);
    }
    let left = grad_child(&job.left, &scratch.ps_a, &scratch.lookup_a);
    let right = grad_child(&job.right, &scratch.ps_b, &scratch.lookup_b);

    let mut lv = [0.0; NUM_STATES];
    let mut rv = [0.0; NUM_STATES];
    for i in 0..n_patterns {
        let mut maxv = 0.0f64;
        let base_i = i * cats * NUM_STATES;
        for c in 0..cats {
            let k = cat_index(&part.rates, i, c);
            left.contribution(i, c, cats, k, &mut lv);
            right.contribution(i, c, cats, k, &mut rv);
            let out = &mut out_clv[base_i + c * NUM_STATES..base_i + (c + 1) * NUM_STATES];
            for s in 0..NUM_STATES {
                let v = lv[s] * rv[s];
                out[s] = v;
                maxv = maxv.max(v.abs());
            }
        }
        let mut count = left.scale_of(i) + right.scale_of(i);
        if maxv < MIN_LIKELIHOOD {
            for v in out_clv[base_i..base_i + cats * NUM_STATES].iter_mut() {
                *v *= TWO_TO_256;
            }
            count += 1;
        }
        out_scale[i] = count;
    }
    (n_patterns * cats) as u64
}

/// View a gradient-sweep source as a `newview` child.
fn grad_child<'a>(side: &RootSide<'a>, ps: &'a [ProbMatrix], lookup: &'a [TipTable]) -> Child<'a> {
    match side {
        RootSide::Tip(codes) => Child::Tip { codes, lookup },
        RootSide::Inner { clv, scale } => Child::Inner { clv, scale, ps },
    }
}

/// `(dlnL/dt, d²lnL/dt²)` of one partition at branch length `t`, from the
/// prepared sumtable. Scaling constants cancel in the `L'/L` ratios.
fn derivatives_from_sumtable(
    part: &mut PartitionState,
    t: f64,
    mut terms: Option<(&mut Vec<f64>, &mut Vec<f64>)>,
) -> (f64, f64, u64) {
    if let Some((s1, s2)) = terms.as_mut() {
        s1.clear();
        s2.clear();
    }
    let n_patterns = part.data.n_patterns();
    let cats = part.rates.clv_categories();
    let cat_weight = category_weight(&part.rates);

    let mut scratch = std::mem::take(&mut part.scratch);
    fill_deriv_factors(part, t, &mut scratch.deriv_ex, &mut scratch.deriv_lr);
    let ex = &scratch.deriv_ex;
    let lr1 = &scratch.deriv_lr;

    let mut d1_sum = 0.0f64;
    let mut d2_sum = 0.0f64;
    for i in 0..n_patterns {
        let mut l = 0.0f64;
        let mut l1 = 0.0f64;
        let mut l2 = 0.0f64;
        for c in 0..cats {
            let k = cat_index(&part.rates, i, c);
            let base = (i * cats + c) * NUM_STATES;
            let e = &ex[k];
            let lk = &lr1[k];
            for s in 0..NUM_STATES {
                let w = part.sumtable[base + s] * e[s];
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
        let wgt = part.data.weights[i];
        let t1 = wgt * ratio1;
        let t2 = wgt * (ratio2 - ratio1 * ratio1);
        if let Some((s1, s2)) = terms.as_mut() {
            s1.push(t1);
            s2.push(t2);
        }
        d1_sum += t1;
        d2_sum += t2;
    }
    part.scratch = scratch;
    (d1_sum, d2_sum, (n_patterns * cats) as u64)
}

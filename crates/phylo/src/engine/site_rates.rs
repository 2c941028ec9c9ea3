//! PSR (per-site rate) optimization.
//!
//! Under PSR every pattern owns an evolutionary rate. Optimizing it requires
//! the likelihood of *that single pattern* as a function of a rate that
//! scales **every** branch of the tree, so each candidate rate needs a full
//! single-pattern tree traversal (RAxML's `evaluatePartialGeneric`). Rates
//! are searched on a multiplicative grid around the current value, then
//! globally normalized to weighted mean 1 and quantized into at most
//! [`crate::model::rates::PSR_MAX_CATEGORIES`] categories.
//!
//! Crucially for the paper: each pattern's optimization touches only data
//! local to the rank owning that pattern; the only communication is the
//! 2-double allreduce for the normalization constant (§III-B's "additional
//! MPI calls to handle the CAT model").

use super::backend::TIP_STATE;
use super::{Engine, PartitionState, LN_MIN_LIKELIHOOD, MIN_LIKELIHOOD, TWO_TO_256};
use crate::model::pmatrix::{exp_factors_into, from_factors};
use crate::model::rates::{RateHeterogeneity, PSR_MAX_CATEGORIES, PSR_RATE_MAX, PSR_RATE_MIN};
use crate::tree::traversal::TraversalDescriptor;
use exa_bio::dna::NUM_STATES;

/// One inner node of a single-pattern traversal: its state vector and
/// scaling count.
pub(crate) type PatternNode = ([f64; NUM_STATES], u32);

/// Multiplicative search grid around the current rate.
const GRID: [f64; 7] = [0.25, 0.5, 0.75, 1.0, 4.0 / 3.0, 2.0, 4.0];

/// Optimize all pattern rates of one partition. Returns
/// `(Σ wᵢ·rᵢ, Σ wᵢ, work)`; rates are stored in `psr_scratch` pending
/// global normalization. No-op (zeros) for Γ partitions.
pub(crate) fn optimize_partition(
    part: &mut PartitionState,
    n_taxa: usize,
    d: &TraversalDescriptor,
) -> (f64, f64, u64) {
    if !matches!(part.rates, RateHeterogeneity::Psr { .. }) {
        return (0.0, 0.0, 0);
    }
    let n_patterns = part.data.n_patterns();
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    let mut work = 0u64;
    let mut scratch = std::mem::take(&mut part.psr_scratch);
    let mut nodes = std::mem::take(&mut part.psr_nodes);
    // The derivative kernel's factor buffer, idle while rates are optimised.
    let mut factors = std::mem::take(&mut part.scratch.deriv_ex);
    for i in 0..n_patterns {
        let r0 = part
            .rates
            .pattern_rate(i)
            .expect("PSR partition has per-pattern rates");
        let mut best_r = r0;
        let mut best_lnl = f64::NEG_INFINITY;
        for g in GRID {
            let r = (r0 * g).clamp(PSR_RATE_MIN, PSR_RATE_MAX);
            let lnl = single_pattern_lnl(part, n_taxa, d, i, r, &mut nodes, &mut factors);
            work += d.entries.len() as u64 + 1;
            if lnl > best_lnl {
                best_lnl = lnl;
                best_r = r;
            }
        }
        scratch[i] = best_r;
        num += part.data.weights[i] * best_r;
        den += part.data.weights[i];
    }
    part.psr_scratch = scratch;
    part.psr_nodes = nodes;
    part.scratch.deriv_ex = factors;
    (num, den, work)
}

/// Apply the global normalization and quantize. Returns whether the
/// partition's rate bits changed (never for Γ partitions).
pub(crate) fn finalize_partition(part: &mut PartitionState, scale: f64) -> bool {
    if !matches!(part.rates, RateHeterogeneity::Psr { .. }) {
        return false;
    }
    let scaled: Vec<f64> = part.psr_scratch.iter().map(|r| r * scale).collect();
    part.rates
        .set_pattern_rates(&scaled, &part.data.weights, PSR_MAX_CATEGORIES)
}

/// Log-likelihood of the single pattern `i` with every branch scaled by
/// rate `r`, via a full traversal over the descriptor entries. `nodes` is
/// the partition's reusable per-inner-node (state vector, scaling count)
/// buffer; it is zeroed on entry, as a fresh allocation would be.
/// `factors` receives the traversal's transition factors.
fn single_pattern_lnl(
    part: &PartitionState,
    n_taxa: usize,
    d: &TraversalDescriptor,
    i: usize,
    r: f64,
    nodes: &mut Vec<PatternNode>,
    factors: &mut Vec<[f64; NUM_STATES]>,
) -> f64 {
    let gi = part.data.global_index;
    // Every factor set of the traversal at rate `r` — each entry's left and
    // right branch, then the root branch — in one batch.
    let lengths = d.entries.iter().flat_map(|entry| {
        [
            Engine::branch_length(&entry.left_lengths, gi),
            Engine::branch_length(&entry.right_lengths, gi),
        ]
    });
    let root = Engine::branch_length(&d.root_lengths, gi);
    exp_factors_into(&part.model, lengths.chain([root]).map(|t| (t, r)), factors);
    nodes.clear();
    nodes.resize(n_taxa - 2, ([0.0; NUM_STATES], 0));
    let state_of = |node: usize, nodes: &[PatternNode]| -> PatternNode {
        if node < n_taxa {
            (TIP_STATE[part.data.tips[node][i] as usize & 0xf], 0)
        } else {
            nodes[node - n_taxa]
        }
    };

    for (entry, lr) in d.entries.iter().zip(factors.chunks_exact(2)) {
        let pl = from_factors(&part.model, &lr[0]);
        let pr = from_factors(&part.model, &lr[1]);
        let (xl, scale_l) = state_of(entry.left, nodes);
        let (xr, scale_r) = state_of(entry.right, nodes);
        let mut out = [0.0; NUM_STATES];
        let mut maxv = 0.0f64;
        for s in 0..NUM_STATES {
            let l = pl[s][0] * xl[0] + pl[s][1] * xl[1] + pl[s][2] * xl[2] + pl[s][3] * xl[3];
            let rr = pr[s][0] * xr[0] + pr[s][1] * xr[1] + pr[s][2] * xr[2] + pr[s][3] * xr[3];
            out[s] = l * rr;
            maxv = maxv.max(out[s].abs());
        }
        let mut count = scale_l + scale_r;
        if maxv < MIN_LIKELIHOOD {
            for o in out.iter_mut() {
                *o *= TWO_TO_256;
            }
            count += 1;
        }
        nodes[entry.parent - n_taxa] = (out, count);
    }

    // Root evaluation.
    let p = from_factors(
        &part.model,
        factors.last().expect("the root branch's factors"),
    );
    let freqs = part.model.freqs();
    let (xa, scale_a) = state_of(d.root_a, nodes);
    let (xb, scale_b) = state_of(d.root_b, nodes);
    let mut acc = 0.0f64;
    for s in 0..NUM_STATES {
        let pb = p[s][0] * xb[0] + p[s][1] * xb[1] + p[s][2] * xb[2] + p[s][3] * xb[3];
        acc += freqs[s] * xa[s] * pb;
    }
    let count = scale_a + scale_b;
    acc.max(f64::MIN_POSITIVE).ln() + count as f64 * LN_MIN_LIKELIHOOD
}

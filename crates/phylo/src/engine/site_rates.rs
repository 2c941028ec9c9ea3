//! PSR (per-site rate) optimization.
//!
//! Under PSR every pattern owns an evolutionary rate. Optimizing it requires
//! the likelihood of each pattern as a function of a rate that scales
//! **every** branch of the tree. Rates are searched on a multiplicative grid
//! around the current value, then globally normalized to weighted mean 1 and
//! quantized into at most [`crate::model::rates::PSR_MAX_CATEGORIES`]
//! categories.
//!
//! The patterns of one category share their rate, so a grid factor `g`
//! moves every pattern to its candidate at once: scaling each category rate
//! by `g` and running the engine's own `newview` and root evaluation over
//! the whole partition scores every pattern's candidate in one traversal —
//! one traversal per grid point, not one per pattern and grid point.
//!
//! Crucially for the paper: each pattern's optimization touches only data
//! local to the rank owning that pattern; the only communication is the
//! 2-double allreduce for the normalization constant (§III-B's "additional
//! MPI calls to handle the CAT model").

use super::backend::KernelBackend;
use super::PartitionState;
use crate::model::rates::{RateHeterogeneity, PSR_MAX_CATEGORIES, PSR_RATE_MAX, PSR_RATE_MIN};
use crate::tree::traversal::TraversalDescriptor;
use std::sync::Arc;

/// Multiplicative search grid around the current rate.
const GRID: [f64; 7] = [0.25, 0.5, 0.75, 1.0, 4.0 / 3.0, 2.0, 4.0];

/// Optimize all pattern rates of one partition. Returns
/// `(Σ wᵢ·rᵢ, Σ wᵢ, work)`; rates are stored in `psr_scratch` pending
/// global normalization. No-op (zeros) for Γ partitions.
///
/// `d` must be a full traversal: every grid point rewrites every CLV of the
/// partition at its candidate rates, so on return the CLVs hold the last
/// grid point's values and the caller must recompute them. The work count
/// keeps the unit of a per-pattern traversal: pattern × grid point ×
/// (entries + 1).
pub(crate) fn optimize_partition(
    backend: &'static dyn KernelBackend,
    part: &mut PartitionState,
    n_taxa: usize,
    d: &TraversalDescriptor,
) -> (f64, f64, u64) {
    let RateHeterogeneity::Psr { category_rates, .. } = &part.rates else {
        return (0.0, 0.0, 0);
    };
    let current = category_rates.clone();
    let n_patterns = part.data.n_patterns();
    let mut scratch = std::mem::take(&mut part.psr_scratch);
    scratch.clear();
    scratch.extend((0..n_patterns).map(|i| pattern_rate(part, i)));
    let mut best = std::mem::take(&mut part.terms_b);
    best.clear();
    best.resize(n_patterns, f64::NEG_INFINITY);
    let mut lnl = std::mem::take(&mut part.terms_a);
    // Score under unit weights: a weighted term could round two candidates
    // of one pattern to a tie.
    let weights = std::mem::replace(&mut part.data.weights, Arc::new(vec![1.0; n_patterns]));
    for g in GRID {
        for (r, r0) in category_rates_mut(&mut part.rates).iter_mut().zip(&current) {
            *r = (r0 * g).clamp(PSR_RATE_MIN, PSR_RATE_MAX);
        }
        for entry in &d.entries {
            backend.newview_entry(part, n_taxa, entry);
        }
        backend.evaluate_root(part, n_taxa, d, Some(&mut lnl));
        // The first strict maximum wins: a tie keeps the earlier grid point.
        for (i, (&l, b)) in lnl.iter().zip(best.iter_mut()).enumerate() {
            if l > *b {
                *b = l;
                scratch[i] = pattern_rate(part, i);
            }
        }
    }
    *category_rates_mut(&mut part.rates) = current;
    part.data.weights = weights;
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&w, &r) in part.data.weights.iter().zip(&scratch) {
        num += w * r;
        den += w;
    }
    part.psr_scratch = scratch;
    part.terms_a = lnl;
    part.terms_b = best;
    let work = (n_patterns * GRID.len() * (d.entries.len() + 1)) as u64;
    (num, den, work)
}

/// The rate pattern `i` of a PSR partition currently runs at.
fn pattern_rate(part: &PartitionState, i: usize) -> f64 {
    part.rates
        .pattern_rate(i)
        .expect("PSR partition has per-pattern rates")
}

fn category_rates_mut(rates: &mut RateHeterogeneity) -> &mut Vec<f64> {
    match rates {
        RateHeterogeneity::Psr { category_rates, .. } => category_rates,
        RateHeterogeneity::Gamma { .. } => unreachable!("PSR partition"),
    }
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

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, KernelKind, PartitionSlice, SiteRepeats};
    use crate::model::rates::RateModelKind;
    use crate::tree::Tree;
    use std::sync::Arc;

    /// `n_patterns` xorshift columns of unambiguous codes, `N` and `R` over
    /// `n_taxa` taxa, weights 1–3.
    fn slice(n_taxa: usize, n_patterns: usize) -> PartitionSlice {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let codes = [1u8, 2, 4, 8, 0xf, 0b0101];
        let tips = (0..n_taxa)
            .map(|_| (0..n_patterns).map(|_| codes[next(6) as usize]).collect())
            .collect();
        let weights = (0..n_patterns).map(|_| 1.0 + next(3) as f64).collect();
        PartitionSlice::from_shared(
            0,
            "p".into(),
            Arc::new(tips),
            Arc::new(weights),
            [0.3, 0.2, 0.2, 0.3],
        )
    }

    /// The grid passes leave every CLV at a candidate rate. After a round
    /// whose finalize moves no bit, a `refresh` of the last full descriptor
    /// must recompute the CLVs, not replay over them: its lnL is a fresh
    /// engine's at the same rates.
    #[test]
    fn refresh_after_a_rate_round_that_moves_no_bit_recomputes() {
        let s = slice(9, 60);
        let d = Tree::random(9, 1, 3).full_traversal_descriptor(0);
        for kernel in [KernelKind::Scalar, KernelKind::Simd] {
            for repeats in [SiteRepeats::On, SiteRepeats::Off] {
                let build = || {
                    let kind = RateModelKind::Psr;
                    Engine::with_config(9, vec![s.clone()], kind, 1.0, kernel, repeats)
                };
                let mut eng = build();
                eng.execute(&d);
                let (num, den) = eng.optimize_site_rates(&d);
                let fitted = eng.parts[0].psr_scratch.clone();
                eng.finalize_site_rates(den / num);
                eng.refresh(&d);
                // A second round whose finalize installs the same rates again.
                eng.optimize_site_rates(&d);
                eng.parts[0].psr_scratch = fitted;
                let (model, rates) = eng.model_state(0);
                eng.finalize_site_rates(den / num);
                assert!(eng.model_state(0).1.same_bits(&rates));
                assert!(rates.distinct_rates().len() > 1);
                eng.refresh(&d);
                let got = eng.evaluate(&d)[0];

                let mut fresh = build();
                fresh.set_model_state(0, model, rates);
                fresh.execute(&d);
                let want = fresh.evaluate(&d)[0];
                assert_eq!(got.to_bits(), want.to_bits(), "{kernel:?}, {repeats}");
            }
        }
    }
}

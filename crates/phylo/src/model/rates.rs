//! Rate heterogeneity among sites: the Γ model (Yang 1994) and the PSR
//! (Per-Site Rate) model — RAxML's CAT model renamed, as §IV-B of the paper
//! explains, to avoid confusion with PhyloBayes' CAT.
//!
//! * **Γ**: four discrete rate categories with equal weights; every site is
//!   integrated over all categories. CLVs carry 4 categories × 4 states.
//! * **PSR**: every site (pattern) has one individually optimized rate,
//!   quantized into at most [`PSR_MAX_CATEGORIES`] distinct values so the
//!   engine only exponentiates a bounded set of P-matrices per branch. CLVs
//!   carry 1 category × 4 states — the 4× memory saving the paper calls
//!   *the* main advantage of PSR (§IV-C).

use serde::{Deserialize, Serialize};

use crate::numerics::gamma::discrete_gamma_rates;
use crate::numerics::same_bits;

/// Bounds RAxML applies to the Γ shape parameter.
pub const ALPHA_MIN: f64 = 0.02;
pub const ALPHA_MAX: f64 = 100.0;

/// Bounds on individual per-site rates under PSR.
pub const PSR_RATE_MIN: f64 = 1e-4;
pub const PSR_RATE_MAX: f64 = 100.0;

/// Maximum number of distinct PSR rate categories after quantization
/// (RAxML's default CAT category cap).
pub const PSR_MAX_CATEGORIES: usize = 25;

/// Number of Γ categories used throughout (RAxML hard-codes 4).
pub const GAMMA_CATEGORIES: usize = 4;

/// Which rate-heterogeneity model a partition runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RateModelKind {
    Gamma,
    Psr,
}

/// Per-partition rate-heterogeneity state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RateHeterogeneity {
    /// Discrete Γ with shape `alpha`; `rates` are the category rates
    /// (mean 1, ascending), all with weight `1/len`.
    Gamma { alpha: f64, rates: Vec<f64> },
    /// Per-site rates, quantized: `pattern_cat[i]` indexes into
    /// `category_rates`. The weighted mean rate over patterns is kept at 1.
    Psr {
        category_rates: Vec<f64>,
        pattern_cat: Vec<u32>,
    },
}

impl RateHeterogeneity {
    /// A fresh Γ model with the given shape.
    pub fn gamma(alpha: f64) -> RateHeterogeneity {
        let alpha = alpha.clamp(ALPHA_MIN, ALPHA_MAX);
        RateHeterogeneity::Gamma {
            alpha,
            rates: discrete_gamma_rates(alpha, GAMMA_CATEGORIES),
        }
    }

    /// A fresh PSR model with all `n_patterns` rates at 1.
    pub fn psr(n_patterns: usize) -> RateHeterogeneity {
        RateHeterogeneity::Psr {
            category_rates: vec![1.0],
            pattern_cat: vec![0; n_patterns],
        }
    }

    /// Which model this is.
    pub fn kind(&self) -> RateModelKind {
        match self {
            RateHeterogeneity::Gamma { .. } => RateModelKind::Gamma,
            RateHeterogeneity::Psr { .. } => RateModelKind::Psr,
        }
    }

    /// CLV rate-category count: Γ integrates over its categories, PSR stores
    /// one conditional per pattern.
    pub fn clv_categories(&self) -> usize {
        match self {
            RateHeterogeneity::Gamma { rates, .. } => rates.len(),
            RateHeterogeneity::Psr { .. } => 1,
        }
    }

    /// Distinct rate values for which P-matrices must be exponentiated.
    pub fn distinct_rates(&self) -> &[f64] {
        match self {
            RateHeterogeneity::Gamma { rates, .. } => rates,
            RateHeterogeneity::Psr { category_rates, .. } => category_rates,
        }
    }

    /// Update the Γ shape parameter (clamped) and its category rates.
    /// Returns whether the stored bits changed; a shape the model already
    /// holds returns before the rates are recomputed.
    ///
    /// # Panics
    /// Panics if called on a PSR model.
    pub fn set_alpha(&mut self, new_alpha: f64) -> bool {
        match self {
            RateHeterogeneity::Gamma { alpha, rates } => {
                let new_alpha = new_alpha.clamp(ALPHA_MIN, ALPHA_MAX);
                if new_alpha.to_bits() == alpha.to_bits() {
                    return false;
                }
                *alpha = new_alpha;
                *rates = discrete_gamma_rates(*alpha, GAMMA_CATEGORIES);
                true
            }
            RateHeterogeneity::Psr { .. } => panic!("set_alpha on a PSR model"),
        }
    }

    /// Bitwise equality: the same variant with the same bits in every field.
    pub fn same_bits(&self, other: &RateHeterogeneity) -> bool {
        match (self, other) {
            (
                RateHeterogeneity::Gamma { alpha, rates },
                RateHeterogeneity::Gamma {
                    alpha: a2,
                    rates: r2,
                },
            ) => alpha.to_bits() == a2.to_bits() && same_bits(rates, r2),
            (
                RateHeterogeneity::Psr {
                    category_rates,
                    pattern_cat,
                },
                RateHeterogeneity::Psr {
                    category_rates: c2,
                    pattern_cat: p2,
                },
            ) => same_bits(category_rates, c2) && pattern_cat == p2,
            _ => false,
        }
    }

    /// The Γ shape, if this is a Γ model.
    pub fn alpha(&self) -> Option<f64> {
        match self {
            RateHeterogeneity::Gamma { alpha, .. } => Some(*alpha),
            RateHeterogeneity::Psr { .. } => None,
        }
    }

    /// Install freshly optimized per-pattern rates: quantize into at most
    /// `max_categories` categories (weight-balanced over `weights`) and
    /// normalize so the weighted mean rate is exactly 1. Returns whether
    /// the stored bits changed.
    ///
    /// # Panics
    /// Panics if called on a Γ model, or on length mismatch.
    pub fn set_pattern_rates(
        &mut self,
        rates: &[f64],
        weights: &[f64],
        max_categories: usize,
    ) -> bool {
        let RateHeterogeneity::Psr {
            category_rates,
            pattern_cat,
        } = self
        else {
            panic!("set_pattern_rates on a Gamma model");
        };
        assert_eq!(rates.len(), weights.len());
        assert_eq!(rates.len(), pattern_cat.len());
        assert!(max_categories >= 1);

        // Normalize the raw rates to weighted mean 1 first.
        let wsum: f64 = weights.iter().sum();
        let mean: f64 = rates.iter().zip(weights).map(|(r, w)| r * w).sum::<f64>() / wsum;
        let norm: Vec<f64> = rates
            .iter()
            .map(|r| (r / mean).clamp(PSR_RATE_MIN, PSR_RATE_MAX))
            .collect();

        // Weight-balanced quantization: sort patterns by rate, cut into
        // `max_categories` buckets of roughly equal total weight, use each
        // bucket's weighted mean as the category rate.
        let mut order: Vec<usize> = (0..norm.len()).collect();
        order.sort_by(|&a, &b| norm[a].partial_cmp(&norm[b]).unwrap());
        let k = max_categories.min(norm.len()).max(1);
        let target = wsum / k as f64;

        let mut cats: Vec<f64> = Vec::with_capacity(k);
        let mut assignment = vec![0u32; norm.len()];
        let mut bucket_w = 0.0;
        let mut bucket_rw = 0.0;
        let mut bucket_members: Vec<usize> = Vec::new();
        let mut flushed_w = 0.0;
        for (pos, &i) in order.iter().enumerate() {
            bucket_w += weights[i];
            bucket_rw += norm[i] * weights[i];
            bucket_members.push(i);
            let remaining_buckets = k - cats.len();
            let is_last_pattern = pos + 1 == order.len();
            let quota_hit = flushed_w + bucket_w >= target * (cats.len() + 1) as f64;
            if (quota_hit && remaining_buckets > 1) || is_last_pattern {
                let rate = bucket_rw / bucket_w;
                let cat = cats.len() as u32;
                for &m in &bucket_members {
                    assignment[m] = cat;
                }
                cats.push(rate);
                flushed_w += bucket_w;
                bucket_w = 0.0;
                bucket_rw = 0.0;
                bucket_members.clear();
            }
        }

        // Re-normalize category rates so the weighted mean stays exactly 1.
        let mut num = 0.0;
        for (i, &c) in assignment.iter().enumerate() {
            num += cats[c as usize] * weights[i];
        }
        let scale = wsum / num;
        for c in cats.iter_mut() {
            *c = (*c * scale).clamp(PSR_RATE_MIN, PSR_RATE_MAX);
        }

        if same_bits(category_rates, &cats) && *pattern_cat == assignment {
            return false;
        }
        *category_rates = cats;
        *pattern_cat = assignment;
        true
    }

    /// The effective rate of `pattern` (PSR) — Γ models have no single
    /// per-pattern rate.
    pub fn pattern_rate(&self, pattern: usize) -> Option<f64> {
        match self {
            RateHeterogeneity::Gamma { .. } => None,
            RateHeterogeneity::Psr {
                category_rates,
                pattern_cat,
            } => Some(category_rates[pattern_cat[pattern] as usize]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_construction() {
        let g = RateHeterogeneity::gamma(0.7);
        assert_eq!(g.kind(), RateModelKind::Gamma);
        assert_eq!(g.clv_categories(), GAMMA_CATEGORIES);
        assert_eq!(g.distinct_rates().len(), 4);
        assert_eq!(g.alpha(), Some(0.7));
        let mean: f64 = g.distinct_rates().iter().sum::<f64>() / 4.0;
        assert!((mean - 1.0).abs() < 1e-10);
    }

    #[test]
    fn gamma_alpha_clamped() {
        let g = RateHeterogeneity::gamma(1e9);
        assert_eq!(g.alpha(), Some(ALPHA_MAX));
        let mut g2 = RateHeterogeneity::gamma(1.0);
        g2.set_alpha(0.0);
        assert_eq!(g2.alpha(), Some(ALPHA_MIN));
    }

    #[test]
    fn psr_starts_uniform() {
        let p = RateHeterogeneity::psr(10);
        assert_eq!(p.kind(), RateModelKind::Psr);
        assert_eq!(p.clv_categories(), 1);
        assert_eq!(p.distinct_rates(), &[1.0]);
        assert_eq!(p.pattern_rate(3), Some(1.0));
    }

    #[test]
    fn psr_memory_is_quarter_of_gamma() {
        let g = RateHeterogeneity::gamma(1.0);
        let p = RateHeterogeneity::psr(100);
        assert_eq!(g.clv_categories(), 4 * p.clv_categories());
    }

    #[test]
    fn set_pattern_rates_normalizes_mean() {
        let mut p = RateHeterogeneity::psr(4);
        let weights = [1.0, 2.0, 1.0, 1.0];
        p.set_pattern_rates(&[0.5, 2.0, 4.0, 0.1], &weights, 25);
        let mut mean = 0.0;
        for i in 0..4 {
            mean += p.pattern_rate(i).unwrap() * weights[i];
        }
        mean /= weights.iter().sum::<f64>();
        assert!((mean - 1.0).abs() < 1e-10, "mean={mean}");
    }

    #[test]
    fn quantization_caps_categories() {
        let mut p = RateHeterogeneity::psr(100);
        let rates: Vec<f64> = (0..100).map(|i| 0.1 + i as f64 * 0.05).collect();
        let weights = vec![1.0; 100];
        p.set_pattern_rates(&rates, &weights, 25);
        assert!(p.distinct_rates().len() <= 25);
        assert!(
            p.distinct_rates().len() >= 20,
            "{}",
            p.distinct_rates().len()
        );
        // Quantization preserves rate ordering.
        for i in 1..100 {
            assert!(p.pattern_rate(i).unwrap() >= p.pattern_rate(i - 1).unwrap() - 1e-12);
        }
    }

    #[test]
    fn quantization_fewer_patterns_than_categories() {
        let mut p = RateHeterogeneity::psr(3);
        p.set_pattern_rates(&[1.0, 2.0, 3.0], &[1.0; 3], 25);
        assert_eq!(p.distinct_rates().len(), 3);
    }

    #[test]
    fn identical_rates_collapse() {
        let mut p = RateHeterogeneity::psr(5);
        p.set_pattern_rates(&[2.0; 5], &[1.0; 5], 25);
        // All rates identical → every category rate is 1 after normalization.
        for i in 0..5 {
            assert!((p.pattern_rate(i).unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "set_alpha on a PSR model")]
    fn alpha_on_psr_panics() {
        RateHeterogeneity::psr(2).set_alpha(1.0);
    }

    #[test]
    #[should_panic(expected = "set_pattern_rates on a Gamma model")]
    fn pattern_rates_on_gamma_panics() {
        RateHeterogeneity::gamma(1.0).set_pattern_rates(&[1.0], &[1.0], 25);
    }
}

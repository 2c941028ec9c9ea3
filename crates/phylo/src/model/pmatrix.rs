//! Transition-probability matrices `P(t) = e^{Qt}`, computed in the GTR
//! eigenbasis. Every exponential of the transition set-up — these matrices,
//! the scalar backend's P sets, the SIMD backend's column builder and the
//! derivative factors — is [`crate::numerics::exp`]'s, whose scalar and
//! AVX2 lanes return the same bits, so a matrix has the same bits on every
//! host, backend and rank.

use super::gtr::GtrModel;
use crate::numerics::exp::exp_in_place;
use exa_bio::dna::NUM_STATES;

/// A 4×4 transition matrix, `p[i][j] = P(state j at child | state i at parent)`.
pub type ProbMatrix = [[f64; NUM_STATES]; NUM_STATES];

/// `P(r·t) = V · diag(e^{λ_k r t}) · V⁻¹` for branch length `t` and rate
/// multiplier `r` (the rate-category or per-site rate).
pub fn prob_matrix(model: &GtrModel, t: f64, r: f64) -> ProbMatrix {
    from_factors(model, &exp_factors(model, t, r))
}

/// [`prob_matrix`]'s eigenbasis product over given factors `ex`.
pub(crate) fn from_factors(model: &GtrModel, ex: &[f64; NUM_STATES]) -> ProbMatrix {
    let v = model.v();
    let vi = model.v_inv();
    let mut p = [[0.0; NUM_STATES]; NUM_STATES];
    for i in 0..NUM_STATES {
        for j in 0..NUM_STATES {
            let mut s = 0.0;
            for k in 0..NUM_STATES {
                s += v[i][k] * ex[k] * vi[k][j];
            }
            // Round-off can push tiny probabilities fractionally negative;
            // clamp so downstream likelihoods stay non-negative.
            p[i][j] = s.max(0.0);
        }
    }
    p
}

/// The diagonal `e^{(λ_k·r)·t}` of [`prob_matrix`]'s eigenbasis product.
pub(crate) fn exp_factors(model: &GtrModel, t: f64, r: f64) -> [f64; NUM_STATES] {
    debug_assert!(t >= 0.0 && r >= 0.0, "negative branch length or rate");
    let mut ex = model.eigenvalues().map(|l| l * r * t);
    exp_in_place(&mut ex);
    ex
}

/// The factors `e^{(λ_k·r)·t}` of every `(t, r)` in `at`, one set each, in
/// `out`: one [`exp_in_place`] call for the whole batch, so that the
/// exponentials overlap instead of waiting on each other.
pub(crate) fn exp_factors_into(
    model: &GtrModel,
    at: impl IntoIterator<Item = (f64, f64)>,
    out: &mut Vec<[f64; NUM_STATES]>,
) {
    let lam = model.eigenvalues();
    out.clear();
    out.extend(at.into_iter().map(|(t, r)| lam.map(|l| l * r * t)));
    exp_in_place(out.as_flattened_mut());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GtrModel {
        GtrModel::new([1.3, 3.2, 0.9, 1.1, 4.0, 1.0], [0.3, 0.2, 0.25, 0.25])
    }

    #[test]
    fn identity_at_zero() {
        let p = prob_matrix(&sample(), 0.0, 1.0);
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((p[i][j] - expect).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn rows_are_distributions() {
        for &t in &[0.001, 0.1, 1.0, 10.0] {
            let p = prob_matrix(&sample(), t, 1.0);
            for (i, row) in p.iter().enumerate() {
                let s: f64 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-10, "t={t} row {i}: {s}");
                for &x in row {
                    assert!((0.0..=1.0 + 1e-12).contains(&x));
                }
            }
        }
    }

    #[test]
    fn stationary_limit() {
        let m = sample();
        let p = prob_matrix(&m, 1e4, 1.0);
        for i in 0..4 {
            for j in 0..4 {
                assert!((p[i][j] - m.freqs()[j]).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    #[test]
    fn chapman_kolmogorov() {
        // P(s+t) = P(s) · P(t).
        let m = sample();
        let (s, t) = (0.17, 0.45);
        let ps = prob_matrix(&m, s, 1.0);
        let pt = prob_matrix(&m, t, 1.0);
        let pst = prob_matrix(&m, s + t, 1.0);
        for i in 0..4 {
            for j in 0..4 {
                let mut prod = 0.0;
                for k in 0..4 {
                    prod += ps[i][k] * pt[k][j];
                }
                assert!((prod - pst[i][j]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn rate_multiplier_scales_time() {
        let m = sample();
        let a = prob_matrix(&m, 2.0, 0.5);
        let b = prob_matrix(&m, 1.0, 1.0);
        for i in 0..4 {
            for j in 0..4 {
                assert!((a[i][j] - b[i][j]).abs() < 1e-12);
            }
        }
    }
}

//! Transition-probability matrices `P(t) = e^{Qt}` and their branch-length
//! derivatives, computed in the GTR eigenbasis.

use super::gtr::GtrModel;
use exa_bio::dna::NUM_STATES;

/// A 4×4 transition matrix, `p[i][j] = P(state j at child | state i at parent)`.
pub type ProbMatrix = [[f64; NUM_STATES]; NUM_STATES];

/// `P(r·t) = V · diag(e^{λ_k r t}) · V⁻¹` for branch length `t` and rate
/// multiplier `r` (the rate-category or per-site rate).
pub fn prob_matrix(model: &GtrModel, t: f64, r: f64) -> ProbMatrix {
    let v = model.v();
    let vi = model.v_inv();
    let ex = exp_factors(model, t, r);
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

/// The diagonal `e^{λ_k r t}` of [`prob_matrix`]'s eigenbasis product —
/// shared with the SIMD column builder and the derivative kernels, so all
/// of them see the same bits.
pub(crate) fn exp_factors(model: &GtrModel, t: f64, r: f64) -> [f64; NUM_STATES] {
    debug_assert!(t >= 0.0 && r >= 0.0, "negative branch length or rate");
    let lam = model.eigenvalues();
    std::array::from_fn(|k| (lam[k] * r * t).exp())
}

/// `(P, dP/dt, d²P/dt²)` at `t` with rate multiplier `r`:
/// derivative factors are `(λ_k r)` and `(λ_k r)²` in the eigenbasis.
pub fn prob_matrix_derivs(
    model: &GtrModel,
    t: f64,
    r: f64,
) -> (ProbMatrix, ProbMatrix, ProbMatrix) {
    let lam = model.eigenvalues();
    let v = model.v();
    let vi = model.v_inv();
    let mut p = [[0.0; NUM_STATES]; NUM_STATES];
    let mut d1 = [[0.0; NUM_STATES]; NUM_STATES];
    let mut d2 = [[0.0; NUM_STATES]; NUM_STATES];
    for k in 0..NUM_STATES {
        let lk = lam[k] * r;
        let e = (lk * t).exp();
        for i in 0..NUM_STATES {
            let vik = v[i][k];
            for j in 0..NUM_STATES {
                let w = vik * e * vi[k][j];
                p[i][j] += w;
                d1[i][j] += w * lk;
                d2[i][j] += w * lk * lk;
            }
        }
    }
    for row in p.iter_mut() {
        for x in row.iter_mut() {
            *x = x.max(0.0);
        }
    }
    (p, d1, d2)
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

    #[test]
    fn derivatives_match_finite_differences() {
        let m = sample();
        let t = 0.3;
        let h = 1e-6;
        let (p, d1, d2) = prob_matrix_derivs(&m, t, 1.3);
        let pp = prob_matrix(&m, t + h, 1.3);
        let pm = prob_matrix(&m, t - h, 1.3);
        for i in 0..4 {
            for j in 0..4 {
                let fd1 = (pp[i][j] - pm[i][j]) / (2.0 * h);
                let fd2 = (pp[i][j] - 2.0 * p[i][j] + pm[i][j]) / (h * h);
                assert!(
                    (d1[i][j] - fd1).abs() < 1e-6,
                    "d1 ({i},{j}): {} vs {fd1}",
                    d1[i][j]
                );
                assert!(
                    (d2[i][j] - fd2).abs() < 1e-3,
                    "d2 ({i},{j}): {} vs {fd2}",
                    d2[i][j]
                );
            }
        }
    }

    #[test]
    fn derivative_rows_sum_to_zero() {
        // d/dt of a stochastic matrix has zero row sums.
        let (_, d1, d2) = prob_matrix_derivs(&sample(), 0.7, 1.0);
        for i in 0..4 {
            assert!(d1[i].iter().sum::<f64>().abs() < 1e-10);
            assert!(d2[i].iter().sum::<f64>().abs() < 1e-9);
        }
    }
}

//! The General Time Reversible (GTR) nucleotide substitution model.
//!
//! A GTR model is defined by six exchangeability rates `r(AC), r(AG), r(AT),
//! r(CG), r(CT), r(GT)` (the last is fixed to 1 as the reference) and the
//! stationary base frequencies π. The instantaneous rate matrix is
//! `Q[i][j] = r(ij)·π[j]` for `i ≠ j`, diagonal set so rows sum to zero, and
//! the whole matrix scaled so the expected substitution rate at stationarity
//! is 1 (`-Σ π_i Q[i][i] = 1`), which makes branch lengths expected
//! substitutions per site.
//!
//! Because GTR is time-reversible, `B = D^{1/2} Q D^{-1/2}` with
//! `D = diag(π)` is symmetric; its eigendecomposition `B = U Λ Uᵀ` gives
//! `Q = V Λ V⁻¹` with `V = D^{-1/2} U`, `V⁻¹ = Uᵀ D^{1/2}`. Transition
//! matrices and likelihood derivatives are computed in this eigenbasis
//! (exactly the scheme RAxML uses).

use crate::numerics::eigen::sym_eigen;
use exa_bio::dna::NUM_STATES;
use serde::{Deserialize, Serialize};

/// Number of free exchangeability rates (the sixth, GT, is the reference).
pub const NUM_FREE_RATES: usize = 5;
/// Total exchangeability rates.
pub const NUM_RATES: usize = 6;

/// Lower/upper bounds RAxML applies to exchangeability rates during
/// optimization.
pub const RATE_MIN: f64 = 1e-4;
pub const RATE_MAX: f64 = 1e4;

/// Index of the exchangeability rate for the unordered state pair `(i, j)`.
fn pair_index(i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < NUM_STATES);
    match (i, j) {
        (0, 1) => 0, // AC
        (0, 2) => 1, // AG
        (0, 3) => 2, // AT
        (1, 2) => 3, // CG
        (1, 3) => 4, // CT
        (2, 3) => 5, // GT (reference)
        _ => unreachable!(),
    }
}

/// A fully-specified GTR model with its cached eigendecomposition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GtrModel {
    /// Exchangeabilities `[AC, AG, AT, CG, CT, GT]`; `GT` is held at 1.
    rates: [f64; NUM_RATES],
    /// Stationary frequencies π (positive, sum 1).
    freqs: [f64; NUM_STATES],
    /// Eigenvalues of Q (all ≤ 0; one is exactly 0).
    eigenvalues: [f64; NUM_STATES],
    /// `V[i][k] = U[i][k] / sqrt(π_i)` — right eigenvectors of Q as columns.
    v: [[f64; NUM_STATES]; NUM_STATES],
    /// `V⁻¹[k][j] = U[j][k] · sqrt(π_j)`.
    v_inv: [[f64; NUM_STATES]; NUM_STATES],
}

impl GtrModel {
    /// Jukes-Cantor-like default: all exchangeabilities 1, uniform π.
    pub fn jukes_cantor() -> GtrModel {
        GtrModel::new([1.0; NUM_RATES], [0.25; NUM_STATES])
    }

    /// Build a GTR model; normalizes frequencies and fixes `rates[5] = 1`.
    ///
    /// # Panics
    /// Panics on non-positive rates or frequencies.
    pub fn new(mut rates: [f64; NUM_RATES], mut freqs: [f64; NUM_STATES]) -> GtrModel {
        for r in &rates {
            assert!(*r > 0.0 && r.is_finite(), "non-positive GTR rate {r}");
        }
        for f in &freqs {
            assert!(*f > 0.0 && f.is_finite(), "non-positive base frequency {f}");
        }
        // Normalize to the GT = 1 convention and Σπ = 1.
        let reference = rates[NUM_RATES - 1];
        for r in rates.iter_mut() {
            *r /= reference;
        }
        let fsum: f64 = freqs.iter().sum();
        for f in freqs.iter_mut() {
            *f /= fsum;
        }

        let mut m = GtrModel {
            rates,
            freqs,
            eigenvalues: [0.0; NUM_STATES],
            v: [[0.0; NUM_STATES]; NUM_STATES],
            v_inv: [[0.0; NUM_STATES]; NUM_STATES],
        };
        m.decompose();
        m
    }

    /// The (normalized) instantaneous rate matrix Q.
    pub fn q_matrix(&self) -> [[f64; NUM_STATES]; NUM_STATES] {
        let mut q = [[0.0; NUM_STATES]; NUM_STATES];
        for i in 0..NUM_STATES {
            let mut rowsum = 0.0;
            for j in 0..NUM_STATES {
                if i == j {
                    continue;
                }
                let (a, b) = if i < j { (i, j) } else { (j, i) };
                q[i][j] = self.rates[pair_index(a, b)] * self.freqs[j];
                rowsum += q[i][j];
            }
            q[i][i] = -rowsum;
        }
        // Scale so the mean rate at stationarity is 1.
        let mean: f64 = (0..NUM_STATES).map(|i| -self.freqs[i] * q[i][i]).sum();
        for row in q.iter_mut() {
            for x in row.iter_mut() {
                *x /= mean;
            }
        }
        q
    }

    fn decompose(&mut self) {
        let q = self.q_matrix();
        // B = D^{1/2} Q D^{-1/2} is symmetric.
        let sqrt_pi: Vec<f64> = self.freqs.iter().map(|f| f.sqrt()).collect();
        let b: Vec<Vec<f64>> = (0..NUM_STATES)
            .map(|i| {
                (0..NUM_STATES)
                    .map(|j| q[i][j] * sqrt_pi[i] / sqrt_pi[j])
                    .collect()
            })
            .collect();
        // Symmetrize away round-off before handing to the Jacobi solver.
        let mut bs = b.clone();
        for i in 0..NUM_STATES {
            for j in 0..NUM_STATES {
                bs[i][j] = 0.5 * (b[i][j] + b[j][i]);
            }
        }
        let e = sym_eigen(&bs);
        for k in 0..NUM_STATES {
            self.eigenvalues[k] = e.values[k];
            for i in 0..NUM_STATES {
                self.v[i][k] = e.vectors[i][k] / sqrt_pi[i];
                self.v_inv[k][i] = e.vectors[i][k] * sqrt_pi[i];
            }
        }
    }

    /// Exchangeability rates `[AC, AG, AT, CG, CT, GT]`.
    pub fn rates(&self) -> &[f64; NUM_RATES] {
        &self.rates
    }

    /// Stationary frequencies π.
    pub fn freqs(&self) -> &[f64; NUM_STATES] {
        &self.freqs
    }

    /// Eigenvalues of Q, ascending.
    pub fn eigenvalues(&self) -> &[f64; NUM_STATES] {
        &self.eigenvalues
    }

    /// Right eigenvectors (columns of V).
    pub fn v(&self) -> &[[f64; NUM_STATES]; NUM_STATES] {
        &self.v
    }

    /// Inverse eigenvector matrix (rows of V⁻¹).
    pub fn v_inv(&self) -> &[[f64; NUM_STATES]; NUM_STATES] {
        &self.v_inv
    }

    /// Replace one free exchangeability rate (0..=4) and refresh the
    /// decomposition. The value is clamped into `[RATE_MIN, RATE_MAX]`.
    /// Returns whether the stored bits changed; a value the model already
    /// holds returns before the decomposition.
    pub fn set_rate(&mut self, index: usize, value: f64) -> bool {
        assert!(
            index < NUM_FREE_RATES,
            "rate index {index} out of range (GT is fixed)"
        );
        let value = value.clamp(RATE_MIN, RATE_MAX);
        if value.to_bits() == self.rates[index].to_bits() {
            return false;
        }
        self.rates[index] = value;
        self.decompose();
        true
    }

    /// Replace all free exchangeability rates at once (batch proposal form).
    pub fn set_rates(&mut self, values: &[f64; NUM_FREE_RATES]) {
        for (i, &v) in values.iter().enumerate() {
            self.rates[i] = v.clamp(RATE_MIN, RATE_MAX);
        }
        self.decompose();
    }

    /// Bitwise equality of every stored field, the decomposition included.
    pub fn same_bits(&self, other: &GtrModel) -> bool {
        use crate::numerics::same_bits;
        same_bits(&self.rates, &other.rates)
            && same_bits(&self.freqs, &other.freqs)
            && same_bits(&self.eigenvalues, &other.eigenvalues)
            && same_bits(self.v.as_flattened(), other.v.as_flattened())
            && same_bits(self.v_inv.as_flattened(), other.v_inv.as_flattened())
    }
}

impl PartialEq for GtrModel {
    fn eq(&self, other: &Self) -> bool {
        self.rates == other.rates && self.freqs == other.freqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GtrModel {
        GtrModel::new([1.3, 3.2, 0.9, 1.1, 4.0, 1.0], [0.3, 0.2, 0.25, 0.25])
    }

    #[test]
    fn q_rows_sum_to_zero() {
        let q = sample().q_matrix();
        for row in q {
            let s: f64 = row.iter().sum();
            assert!(s.abs() < 1e-12, "{row:?}");
        }
    }

    #[test]
    fn q_mean_rate_is_one() {
        let m = sample();
        let q = m.q_matrix();
        let mean: f64 = (0..4).map(|i| -m.freqs()[i] * q[i][i]).sum();
        assert!((mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn detailed_balance() {
        // Time reversibility: π_i Q_ij = π_j Q_ji.
        let m = sample();
        let q = m.q_matrix();
        for i in 0..4 {
            for j in 0..4 {
                let lhs = m.freqs()[i] * q[i][j];
                let rhs = m.freqs()[j] * q[j][i];
                assert!((lhs - rhs).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn eigen_reconstructs_q() {
        let m = sample();
        let q = m.q_matrix();
        for i in 0..4 {
            for j in 0..4 {
                let mut x = 0.0;
                for k in 0..4 {
                    x += m.v()[i][k] * m.eigenvalues()[k] * m.v_inv()[k][j];
                }
                assert!((x - q[i][j]).abs() < 1e-10, "({i},{j}): {x} vs {}", q[i][j]);
            }
        }
    }

    #[test]
    fn one_zero_eigenvalue_rest_negative() {
        let m = sample();
        let ev = m.eigenvalues();
        // Ascending order: last is the zero eigenvalue.
        assert!(ev[3].abs() < 1e-10, "{ev:?}");
        for &l in &ev[..3] {
            assert!(l < -1e-6, "{ev:?}");
        }
    }

    #[test]
    fn v_vinv_are_inverses() {
        let m = sample();
        for i in 0..4 {
            for j in 0..4 {
                let mut x = 0.0;
                for k in 0..4 {
                    x += m.v()[i][k] * m.v_inv()[k][j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((x - expect).abs() < 1e-10, "({i},{j}): {x}");
            }
        }
    }

    #[test]
    fn normalization_conventions() {
        let m = GtrModel::new([2.0, 4.0, 2.0, 2.0, 8.0, 2.0], [1.0, 1.0, 1.0, 1.0]);
        // GT scaled to 1, frequencies to 1/4.
        assert!((m.rates()[5] - 1.0).abs() < 1e-15);
        assert!((m.rates()[1] - 2.0).abs() < 1e-15);
        for f in m.freqs() {
            assert!((f - 0.25).abs() < 1e-15);
        }
    }

    #[test]
    fn set_rate_clamps_and_redecomposes() {
        let mut m = sample();
        m.set_rate(0, 1e9);
        assert_eq!(m.rates()[0], RATE_MAX);
        // Still a valid decomposition.
        let q = m.q_matrix();
        for row in q {
            assert!(row.iter().sum::<f64>().abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(std::panic::catch_unwind(|| GtrModel::new([0.0; 6], [0.25; 4])).is_err());
        assert!(
            std::panic::catch_unwind(|| GtrModel::new([1.0; 6], [0.0, 0.5, 0.25, 0.25])).is_err()
        );
    }

    #[test]
    fn jukes_cantor_has_symmetric_q() {
        let q = GtrModel::jukes_cantor().q_matrix();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert!((q[i][j] - 1.0 / 3.0).abs() < 1e-12);
                }
            }
        }
    }
}

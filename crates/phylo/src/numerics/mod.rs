//! Self-contained numerical routines.
//!
//! Nothing here is phylogenetics-specific; these are the classical special
//! functions and optimizers the likelihood engine needs, implemented locally
//! so the workspace has no linear-algebra or special-function dependencies
//! (see DESIGN.md §6).

pub mod brent;
pub mod eigen;
pub mod exp;
pub mod gamma;

/// Bitwise equality of two `f64` slices: `==` would equate `0.0` with
/// `-0.0` and never `NaN` with itself.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

//! Models of molecular evolution: the GTR substitution matrix (Tavaré 1986)
//! and the two rate-heterogeneity models the RAxML family implements —
//! Γ (Yang 1994) and PSR/CAT (Stamatakis 2006).

pub mod gtr;
pub mod pmatrix;
pub mod rates;

pub use gtr::GtrModel;
pub use pmatrix::prob_matrix;
pub use rates::{RateHeterogeneity, RateModelKind};

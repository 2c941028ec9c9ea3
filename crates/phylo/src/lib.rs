//! `exa-phylo` — the phylogenetic likelihood engine underlying `examl-rs`.
//!
//! This crate is the computational substrate both parallelization schemes of
//! the paper run on:
//!
//! * [`numerics`] — special functions (Γ quantiles for the Yang-1994 rate
//!   discretization, and the one host-independent `exp` every transition
//!   matrix uses, in scalar and AVX2 lanes with equal bits), a Jacobi
//!   eigensolver, and Brent minimization including the batched lockstep
//!   form needed for simultaneous all-partition parameter proposals,
//! * [`model`] — GTR substitution model with cached eigendecomposition, plus
//!   Γ and PSR rate heterogeneity,
//! * [`tree`] — unrooted binary trees with SPR moves, CLV-orientation
//!   tracking, traversal descriptors, Newick I/O, and bipartition
//!   comparison,
//! * [`engine`] — the likelihood kernels (`newview`, `evaluate`,
//!   sumtable-based derivatives) over a rank's local data slice, with work
//!   counters for the analytic cluster model.

// Dense fixed-size matrix/vector math throughout this crate reads most
// clearly with explicit indices (mirroring the textbook formulas); iterator
// rewrites obscure the stride structure the kernels depend on.
#![allow(clippy::needless_range_loop)]

pub mod engine;
pub mod model;
pub mod numerics;
pub mod tree;

pub use engine::{
    simd_available, Engine, GradientChoice, GradientMode, KernelChoice, KernelKind, PartitionSlice,
    RepeatsChoice, SiteRepeats, ThreadCount, ThreadsChoice, WorkCounters,
};
pub use model::{GtrModel, RateHeterogeneity, RateModelKind};
pub use tree::{EdgeId, NodeId, Tree};

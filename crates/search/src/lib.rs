//! `exa-search` — the RAxML-style maximum-likelihood tree search.
//!
//! §III-B of the paper stresses that ExaML and RAxML-Light implement
//! **exactly the same search algorithm** and differ only in how the
//! likelihood is computed in parallel. This crate enforces that property by
//! construction: the search ([`driver::run_search`]) is written against the
//! [`evaluator::Evaluator`] trait, and the sequential engine, the fork-join
//! master, and each de-centralized rank plug in as back-ends.
//!
//! Components:
//!
//! * [`evaluator`] — the trait and its one implementation over an
//!   [`exchange::Exchange`] (sequential = no exchange),
//! * [`exchange`] — each reducing operation's wire layout, written once,
//!   and the seam the three schemes implement,
//! * [`branch`] — Newton–Raphson branch-length optimization and smoothing
//!   passes (joint or per-partition `-M` mode),
//! * [`model`] — batched model-parameter optimization: α and GTR rates via
//!   lockstep Brent (one parallel region evaluates proposals for *all*
//!   partitions, the load-balance fix from ref. 23), and PSR per-site rates,
//! * [`spr`] — lazy SPR rounds with rearrangement radius,
//! * [`modes`] — the resolved compute modes of a run as one record
//!   (sentinel digest, trace marks, labels),
//! * [`driver`] — the hill-climbing loop with iteration hooks for
//!   checkpointing and fault recovery.

pub mod branch;
pub mod driver;
pub mod evaluator;
pub mod exchange;
pub mod model;
pub mod modes;
pub mod parsimony;
pub mod spr;

pub use driver::{
    run_search, run_search_from, BoundaryInfo, KillSpec, NoHooks, PreemptSignal, ResumePoint,
    SearchHooks, SearchResult,
};
pub use evaluator::{
    per_edge_full_gradient, BranchMode, CommFailurePanic, Evaluator, ExchangeEvaluator,
    FullGradient, GlobalState, SearchSnapshot, SequentialEvaluator,
};
pub use modes::Modes;

use serde::{Deserialize, Serialize};

/// How the initial topology is obtained (every rank must derive the
/// identical tree, so all variants are deterministic given the config).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StartingTree {
    /// Random stepwise attachment (seeded).
    Random,
    /// Randomized stepwise-addition maximum-parsimony tree (seeded) — the
    /// RAxML-family default, much closer to the ML optimum.
    Parsimony,
    /// A user-supplied Newick string (taxon labels must match the
    /// alignment).
    Newick(String),
}

/// Build the starting tree for an alignment under the chosen policy.
pub fn build_starting_tree(
    aln: &exa_bio::patterns::CompressedAlignment,
    policy: &StartingTree,
    blen_count: usize,
    seed: u64,
) -> exa_phylo::tree::Tree {
    match policy {
        StartingTree::Random => exa_phylo::tree::Tree::random(aln.n_taxa(), blen_count, seed),
        StartingTree::Parsimony => {
            let data = parsimony::ParsimonyData::from_compressed(aln);
            parsimony::parsimony_tree(&data, blen_count, seed)
        }
        StartingTree::Newick(text) => {
            exa_phylo::tree::Tree::from_newick(text, &aln.taxa, blen_count)
                .expect("invalid starting tree")
        }
    }
}

/// Search configuration (mirrors the relevant RAxML-Light/ExaML options).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchConfig {
    /// SPR rearrangement radius (RAxML default regime: 5–10).
    pub spr_radius: usize,
    /// Convergence threshold on the log-likelihood between iterations.
    pub epsilon: f64,
    /// Hard cap on search iterations.
    pub max_iterations: usize,
    /// Branch-length smoothing passes per iteration.
    pub smoothing_passes: usize,
    /// Whether to optimize model parameters (α / GTR / PSR rates).
    pub optimize_model: bool,
    /// Relative tolerance for model-parameter optimization.
    pub model_tol: f64,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            spr_radius: 5,
            epsilon: 0.1,
            max_iterations: 10,
            smoothing_passes: 2,
            optimize_model: true,
            model_tol: 1e-3,
        }
    }
}

impl SearchConfig {
    /// A cheap configuration for tests: small radius, loose tolerances.
    pub fn fast() -> SearchConfig {
        SearchConfig {
            spr_radius: 3,
            epsilon: 0.5,
            max_iterations: 3,
            smoothing_passes: 1,
            optimize_model: true,
            model_tol: 1e-2,
        }
    }
}

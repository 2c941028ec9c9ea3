//! `exa-forkjoin` — the **fork-join** parallelization baseline
//! (RAxML-Light's scheme, §III-A of the paper).
//!
//! A dedicated *master* rank owns the tree and steers the search; worker
//! ranks are agnostic of tree semantics and only execute likelihood kernels
//! on their data slice, driven by broadcast commands:
//!
//! * every likelihood operation broadcasts a **traversal descriptor**,
//! * every model-parameter change broadcasts the new parameter arrays,
//! * every Newton–Raphson step broadcasts candidate branch lengths and
//!   reduces derivative sums back to the master,
//! * likelihood evaluation reduces per-partition log-likelihoods to the
//!   master.
//!
//! All of this traffic is recorded by `exa-comm` under the Table I
//! categories, which is how the `table1` harness regenerates the paper's
//! communication-cost breakdown. The search algorithm itself is byte-for-
//! byte the one ExaML runs (`exa-search`), per §III-B's "exactly the same
//! tree search algorithm" — and so is the driver around it: this crate
//! supplies the exchange ([`ToMaster`]), the wire protocol and the worker
//! loop; `examl_core::RunConfig::run` drives a fork-join world with them.

pub mod master;
pub mod protocol;
pub mod worker;

pub use master::{ForkJoinEvaluator, ToMaster};

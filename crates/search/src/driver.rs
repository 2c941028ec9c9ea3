//! The hill-climbing search driver.
//!
//! The loop structure follows RAxML-Light/ExaML: initial branch smoothing
//! and model optimization, then repeated (SPR round → branch smoothing →
//! model optimization) iterations until the log-likelihood improvement
//! drops below ε. The same driver runs sequentially, on the fork-join
//! master, and replicated on every de-centralized rank.
//!
//! Iteration boundaries are the **quiescent points** of the whole system:
//! hooks fire there for checkpointing, and a rank failure signalled from
//! inside an iteration (via a [`CommFailurePanic`] panic out of a
//! distributed evaluator) unwinds to the boundary, where the hook decides
//! whether to recover-and-retry the iteration from the last consistent
//! snapshot — the paper's §V fault-tolerance design built on full state
//! redundancy. A search stops short of convergence only at a boundary,
//! and only by its hooks returning the stop, which [`run_search_from`]
//! hands back as its `Err`.

use crate::evaluator::{CommFailurePanic, Evaluator};
use crate::{branch, model, spr, SearchConfig};
use serde::{Deserialize, Serialize};

/// Result of a completed search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchResult {
    /// Total log-likelihood of the state the search ended in.
    pub lnl: f64,
    /// Search iterations executed (the paper reports 17–23 on the
    /// partitioned datasets, §IV-D).
    pub iterations: usize,
    /// Total accepted SPR moves.
    pub spr_moves: usize,
    /// Whether the ε-convergence criterion was reached (vs the iteration
    /// cap).
    pub converged: bool,
}

/// Search progress at an iteration boundary, handed to
/// [`SearchHooks::at_boundary`]. A struct (rather than positional
/// arguments) so new observability fields don't ripple through every hook
/// implementor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundaryInfo {
    /// Iteration about to start (0 = before the first).
    pub iteration: usize,
    /// Current total log-likelihood.
    pub lnl: f64,
    /// Accepted SPR moves so far.
    pub spr_moves: usize,
}

/// Where to re-enter the search loop on a checkpoint restart. The driver
/// skips initial conditioning (the checkpointed `lnl` already reflects it)
/// and seeds its loop counters from here, so a resumed run replays the
/// remaining iterations bit-identically to an uninterrupted one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResumePoint {
    /// Iteration to resume at (the checkpoint's boundary iteration).
    pub iteration: usize,
    /// Log-likelihood at that boundary.
    pub lnl: f64,
    /// Accepted SPR moves up to that boundary.
    pub spr_moves: usize,
}

/// A deterministic kill point for the crash/restart chaos harness:
/// terminate the run immediately after the `after_checkpoints`-th
/// checkpoint has been committed. With `rank: None` every rank dies at
/// that boundary (a job-level kill); with `rank: Some(r)` only rank `r`
/// dies (a node loss), which the kill-armed drivers escalate to a full
/// abort instead of recovering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Die after this many checkpoints have been written (1 = after the
    /// first).
    pub after_checkpoints: u64,
    /// Victim rank, or `None` for all ranks.
    pub rank: Option<usize>,
}

/// Cooperative preemption request, shared between a controller (scheduler,
/// signal handler) and a running search. The controller calls
/// [`PreemptSignal::request`]; the run observes it at the next iteration
/// boundary — the same quiescent point where checkpoints commit — writes a
/// final checkpoint and its hooks return the stop. The flag is a plain
/// `SeqCst` atomic: boundary hooks turn the racy per-rank read into a
/// collective decision (an allgather) so every rank preempts at the *same*
/// boundary.
#[derive(Clone, Default)]
pub struct PreemptSignal(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl PreemptSignal {
    pub fn new() -> PreemptSignal {
        PreemptSignal::default()
    }

    /// Ask the run to checkpoint and stop at its next boundary.
    pub fn request(&self) {
        self.0.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Has a preemption been requested?
    pub fn is_requested(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl std::fmt::Debug for PreemptSignal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PreemptSignal")
            .field(&self.is_requested())
            .finish()
    }
}

// A preempt handle is process-local: it never travels through a config
// file or checkpoint. Serialize to `Null` and deserialize to a fresh,
// disconnected signal so configs holding one still round-trip.
impl Serialize for PreemptSignal {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for PreemptSignal {
    fn from_value(_v: &serde::Value) -> Result<PreemptSignal, serde::DeError> {
        Ok(PreemptSignal::default())
    }
}

/// Hook points at iteration boundaries.
pub trait SearchHooks {
    /// Why the hooks may stop a search at a boundary (a preemption, an
    /// injected kill, …); [`run_search_from`] hands it back unchanged.
    type Stop;

    /// Called before each iteration (and once before the first) with the
    /// current search progress. Checkpointing, heartbeats and fault
    /// injection live here. `Err` ends the search at this boundary.
    fn at_boundary(
        &mut self,
        eval: &mut dyn Evaluator,
        info: &BoundaryInfo,
    ) -> Result<(), Self::Stop>;

    /// A recoverable failure unwound the current iteration. Return `true`
    /// after restoring consistent state (the driver retries the iteration),
    /// `false` to abort the search (the panic is re-raised).
    fn on_failure(&mut self, eval: &mut dyn Evaluator, failure: &CommFailurePanic) -> bool;
}

/// No-op hooks (sequential runs, tests).
pub struct NoHooks;

impl SearchHooks for NoHooks {
    type Stop = std::convert::Infallible;

    fn at_boundary(
        &mut self,
        _eval: &mut dyn Evaluator,
        _info: &BoundaryInfo,
    ) -> Result<(), Self::Stop> {
        Ok(())
    }
    fn on_failure(&mut self, _eval: &mut dyn Evaluator, _failure: &CommFailurePanic) -> bool {
        false
    }
}

/// Run the search to convergence, or to the first stop its hooks return.
pub fn run_search<H: SearchHooks>(
    eval: &mut dyn Evaluator,
    cfg: &SearchConfig,
    hooks: &mut H,
) -> Result<SearchResult, H::Stop> {
    run_search_from(eval, cfg, hooks, None)
}

/// [`run_search`], optionally re-entering the loop at a [`ResumePoint`].
///
/// On resume the initial conditioning phase (branch smoothing + model
/// optimization before iteration 0) is skipped: the restored model
/// parameters, branch lengths and `lnl` already include it, and re-running
/// it would perturb the state away from the uninterrupted trajectory. The
/// caller must have restored the evaluator to the checkpointed state first.
pub fn run_search_from<H: SearchHooks>(
    eval: &mut dyn Evaluator,
    cfg: &SearchConfig,
    hooks: &mut H,
    resume: Option<&ResumePoint>,
) -> Result<SearchResult, H::Stop> {
    let (mut lnl, mut iterations, mut spr_moves) = match resume {
        Some(rp) => (rp.lnl, rp.iteration, rp.spr_moves),
        None => {
            // Initial conditioning: branch lengths, then model.
            let lnl = run_recoverable(eval, hooks, &mut |e| {
                branch::smooth_all(e, cfg.smoothing_passes.max(2));
                if cfg.optimize_model {
                    model::optimize_model(e, cfg.model_tol).lnl
                } else {
                    e.evaluate(0)
                }
            });
            (lnl, 0, 0)
        }
    };
    let mut converged = false;

    while iterations < cfg.max_iterations {
        exa_obs::mark(|| format!("{}{iterations}", exa_obs::ITERATION_MARK));
        hooks.at_boundary(
            eval,
            &BoundaryInfo {
                iteration: iterations,
                lnl,
                spr_moves,
            },
        )?;
        let radius = cfg.spr_radius;
        let passes = cfg.smoothing_passes;
        let optimize = cfg.optimize_model;
        let tol = cfg.model_tol;
        let (new_lnl, accepted) = {
            let mut accepted_out = 0usize;
            let out = run_recoverable(eval, hooks, &mut |e| {
                let stats = spr::spr_round(e, radius, lnl, 0.01);
                accepted_out = stats.accepted;
                branch::smooth_all(e, passes);
                if optimize {
                    model::optimize_model(e, tol).lnl
                } else {
                    e.evaluate(0)
                }
            });
            (out, accepted_out)
        };
        iterations += 1;
        spr_moves += accepted;
        if exa_obs::metrics::enabled() {
            let reg = exa_obs::metrics::global();
            reg.counter(
                "exa_search_iterations_total",
                "SPR search iterations completed, summed over ranks running the loop \
                 (all ranks under the de-centralized scheme, the master under fork-join).",
                &[],
            )
            .inc();
            reg.counter(
                "exa_spr_moves_total",
                "Accepted SPR moves, summed over ranks running the search loop.",
                &[],
            )
            .add(accepted as u64);
        }
        let improvement = new_lnl - lnl;
        // An iteration can lose likelihood (PSR site-rate re-estimation does,
        // routinely): what is reported is the lnL of the state handed back,
        // not the best one seen on the way.
        lnl = new_lnl;
        if improvement < cfg.epsilon {
            converged = true;
            break;
        }
    }

    Ok(SearchResult {
        lnl,
        iterations,
        spr_moves,
        converged,
    })
}

/// Execute `body`; if it panics with a [`CommFailurePanic`], consult the
/// hooks and retry (the hooks must have restored consistent state). Any
/// other panic propagates.
fn run_recoverable<H: SearchHooks>(
    eval: &mut dyn Evaluator,
    hooks: &mut H,
    body: &mut dyn FnMut(&mut dyn Evaluator) -> f64,
) -> f64 {
    loop {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(eval)));
        match outcome {
            Ok(v) => return v,
            Err(payload) => match payload.downcast::<CommFailurePanic>() {
                Ok(failure) => {
                    if !hooks.on_failure(eval, &failure) {
                        std::panic::resume_unwind(Box::new(*failure));
                    }
                    // Hooks restored state; retry the body.
                }
                Err(other) => std::panic::resume_unwind(other),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{BranchMode, SequentialEvaluator};
    use exa_phylo::engine::{Engine, PartitionSlice};
    use exa_phylo::model::rates::RateModelKind;
    use exa_phylo::tree::bipartitions::rf_distance;
    use exa_phylo::tree::Tree;
    use exa_simgen::workloads;

    fn make_eval(kind: RateModelKind, seed: u64) -> (SequentialEvaluator, Tree) {
        let w = workloads::partitioned(8, 2, 150, seed);
        let slices: Vec<PartitionSlice> = w
            .compressed
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| PartitionSlice::from_compressed(i, p))
            .collect();
        let engine = Engine::new(8, slices, kind, 1.0);
        let start = Tree::random(8, 1, seed + 99);
        (
            SequentialEvaluator::new(start, engine, 2, BranchMode::Joint),
            w.true_tree,
        )
    }

    #[test]
    fn search_converges_and_improves() {
        let (mut e, _) = make_eval(RateModelKind::Gamma, 5);
        let start_lnl = e.evaluate(0);
        let Ok(r) = run_search(&mut e, &SearchConfig::fast(), &mut NoHooks);
        assert!(r.lnl > start_lnl, "{start_lnl} -> {}", r.lnl);
        assert!(r.iterations >= 1);
        e.tree().check_invariants().unwrap();
    }

    #[test]
    fn search_recovers_generating_topology() {
        let (mut e, true_tree) = make_eval(RateModelKind::Gamma, 13);
        let cfg = SearchConfig {
            max_iterations: 6,
            epsilon: 0.05,
            ..SearchConfig::fast()
        };
        let Ok(_) = run_search(&mut e, &cfg, &mut NoHooks);
        let rf = rf_distance(e.tree(), &true_tree);
        // 8 taxa, 300 simulated sites: the ML tree is almost always the
        // generating tree (allow one split of slack).
        assert!(rf <= 2, "RF distance to truth: {rf}");
    }

    #[test]
    fn search_is_deterministic() {
        let (mut a, _) = make_eval(RateModelKind::Gamma, 17);
        let (mut b, _) = make_eval(RateModelKind::Gamma, 17);
        let cfg = SearchConfig::fast();
        let Ok(ra) = run_search(&mut a, &cfg, &mut NoHooks);
        let Ok(rb) = run_search(&mut b, &cfg, &mut NoHooks);
        assert_eq!(
            ra.lnl.to_bits(),
            rb.lnl.to_bits(),
            "bit-identical likelihoods"
        );
        assert_eq!(ra.iterations, rb.iterations);
        assert_eq!(rf_distance(a.tree(), b.tree()), 0);
    }

    #[test]
    fn psr_search_runs() {
        let (mut e, _) = make_eval(RateModelKind::Psr, 23);
        let start = e.evaluate(0);
        let Ok(r) = run_search(&mut e, &SearchConfig::fast(), &mut NoHooks);
        assert!(r.lnl > start);
    }

    /// PSR site-rate re-estimation routinely loses likelihood in the last
    /// iteration (seed 5 here): the result used to carry the
    /// previous iteration's higher lnL beside this iteration's tree.
    #[test]
    fn reported_lnl_is_the_returned_states() {
        for seed in [4, 5, 7, 13] {
            for kind in [RateModelKind::Gamma, RateModelKind::Psr] {
                let (mut e, _) = make_eval(kind, seed);
                let Ok(r) = run_search(&mut e, &SearchConfig::fast(), &mut NoHooks);
                assert_eq!(
                    r.lnl.to_bits(),
                    e.evaluate(0).to_bits(),
                    "{kind:?} seed {seed}: {r:?}"
                );
            }
        }
    }

    #[test]
    fn hooks_fire_at_boundaries() {
        struct Counting {
            boundaries: usize,
        }
        impl SearchHooks for Counting {
            type Stop = std::convert::Infallible;
            fn at_boundary(
                &mut self,
                _e: &mut dyn Evaluator,
                _info: &BoundaryInfo,
            ) -> Result<(), Self::Stop> {
                self.boundaries += 1;
                Ok(())
            }
            fn on_failure(
                &mut self,
                _e: &mut dyn Evaluator,
                _f: &crate::evaluator::CommFailurePanic,
            ) -> bool {
                false
            }
        }
        let (mut e, _) = make_eval(RateModelKind::Gamma, 29);
        let mut hooks = Counting { boundaries: 0 };
        let Ok(r) = run_search(&mut e, &SearchConfig::fast(), &mut hooks);
        assert_eq!(hooks.boundaries, r.iterations);
    }

    /// A stop returned at a boundary ends the search there: no iteration
    /// runs after it, and the stop comes back as the search's `Err`.
    #[test]
    fn a_boundary_stop_ends_the_search() {
        struct StopAt(usize, usize);
        impl SearchHooks for StopAt {
            type Stop = usize;
            fn at_boundary(
                &mut self,
                _e: &mut dyn Evaluator,
                info: &BoundaryInfo,
            ) -> Result<(), usize> {
                self.1 += 1;
                if info.iteration == self.0 {
                    return Err(info.iteration);
                }
                Ok(())
            }
            fn on_failure(&mut self, _e: &mut dyn Evaluator, _f: &CommFailurePanic) -> bool {
                false
            }
        }
        let (mut e, _) = make_eval(RateModelKind::Gamma, 29);
        let mut hooks = StopAt(1, 0);
        let stopped = run_search(&mut e, &SearchConfig::fast(), &mut hooks);
        assert_eq!(stopped.map(|r| r.iterations), Err(1));
        assert_eq!(
            hooks.1, 2,
            "boundaries 0 and 1 fire, nothing after the stop"
        );
    }

    #[test]
    fn resume_from_boundary_is_bitwise_identical() {
        use crate::evaluator::GlobalState;
        // Reference: uninterrupted run.
        let (mut reference, _) = make_eval(RateModelKind::Gamma, 37);
        let cfg = SearchConfig::fast();
        let Ok(ref_result) = run_search(&mut reference, &cfg, &mut NoHooks);
        assert!(ref_result.iterations >= 2, "need a boundary to resume at");

        // Capture the state at an interior boundary, as a checkpoint would.
        struct Capture {
            at: usize,
            point: Option<(ResumePoint, GlobalState)>,
        }
        impl SearchHooks for Capture {
            type Stop = std::convert::Infallible;
            fn at_boundary(
                &mut self,
                e: &mut dyn Evaluator,
                info: &BoundaryInfo,
            ) -> Result<(), Self::Stop> {
                if info.iteration == self.at {
                    self.point = Some((
                        ResumePoint {
                            iteration: info.iteration,
                            lnl: info.lnl,
                            spr_moves: info.spr_moves,
                        },
                        e.snapshot(),
                    ));
                }
                Ok(())
            }
            fn on_failure(&mut self, _e: &mut dyn Evaluator, _f: &CommFailurePanic) -> bool {
                false
            }
        }
        let (mut first, _) = make_eval(RateModelKind::Gamma, 37);
        let mut capture = Capture { at: 1, point: None };
        let Ok(_) = run_search(&mut first, &cfg, &mut capture);
        let (point, state) = capture.point.expect("boundary 1 must fire");

        // Restart a fresh evaluator from the captured state.
        let (mut resumed, _) = make_eval(RateModelKind::Gamma, 37);
        resumed.restore(&state);
        let Ok(res) = run_search_from(&mut resumed, &cfg, &mut NoHooks, Some(&point));
        assert_eq!(res.lnl.to_bits(), ref_result.lnl.to_bits());
        assert_eq!(res.iterations, ref_result.iterations);
        assert_eq!(res.spr_moves, ref_result.spr_moves);
        assert_eq!(rf_distance(resumed.tree(), reference.tree()), 0);
    }

    #[test]
    fn unrelated_panics_propagate() {
        struct Boom;
        impl SearchHooks for Boom {
            type Stop = std::convert::Infallible;
            fn at_boundary(
                &mut self,
                _e: &mut dyn Evaluator,
                info: &BoundaryInfo,
            ) -> Result<(), Self::Stop> {
                if info.iteration == 0 {
                    panic!("unrelated failure");
                }
                Ok(())
            }
            fn on_failure(
                &mut self,
                _e: &mut dyn Evaluator,
                _f: &crate::evaluator::CommFailurePanic,
            ) -> bool {
                true
            }
        }
        let (mut e, _) = make_eval(RateModelKind::Gamma, 31);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_search(&mut e, &SearchConfig::fast(), &mut Boom)
        }));
        assert!(result.is_err());
    }
}

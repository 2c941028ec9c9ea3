//! Run-health sentinel: injected single-bit replica divergence is caught at
//! the next fingerprint sync with the right rank and state component, and
//! clean runs never trip at any cadence.
//!
//! The de-centralized scheme keeps replicas in lock-step because they branch
//! on identical allreduced values — a silently corrupted replica keeps
//! *contributing* to those reductions, so without the sentinel the run
//! completes normally with a wrong answer. These tests exercise the exact
//! scenario the sentinel exists for.

use exa_obs::Component;
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_core::{DivergenceFault, FaultComponent, RunConfig, RunError};
use proptest::prelude::*;

fn workload(seed: u64) -> workloads::Workload {
    workloads::partitioned(8, 2, 100, seed)
}

/// Unwrap the structured sentinel diagnostic out of a run result.
fn divergence(res: Result<examl_core::RunOutcome, RunError>) -> exa_obs::ReplicaDivergence {
    match res {
        Err(RunError::Divergence(d)) => d,
        Ok(_) => panic!("a corrupted replica must trip the sentinel"),
        Err(other) => panic!("expected a divergence, got {other}"),
    }
}

fn cfg(n_ranks: usize, cadence: u64) -> RunConfig {
    let mut cfg = RunConfig::new(n_ranks);
    cfg.search = SearchConfig {
        max_iterations: 3,
        epsilon: 0.01,
        ..SearchConfig::fast()
    };
    cfg.seed = 21;
    cfg.verify_replicas = cadence;
    cfg
}

#[test]
fn injected_alpha_flip_is_detected_at_next_sync() {
    let w = workload(5);
    // Injection fires on the tick where rank 1's collective count reaches
    // 8; with cadence 8 that tick is itself a sync, so detection happens in
    // the same call — no window for a later model-optimization round to
    // overwrite (heal) the corrupted α.
    let mut c = cfg(4, 8);
    c.faults.divergence = Some(DivergenceFault {
        rank: 1,
        after_collectives: 8,
        component: FaultComponent::Alpha,
    });
    let err = divergence(c.run(&w.compressed));
    assert_eq!(err.minority_ranks, vec![1], "{err}");
    assert_eq!(err.components, vec![Component::ModelParams], "{err}");
    assert_eq!(err.collective_index, 8, "{err}");
    // Sync #1 is the pre-search sentinel sync at collective #0; the
    // cadence sync that catches the flip is #2.
    assert_eq!(err.sync_index, 2, "{err}");
}

#[test]
fn injected_branch_length_flip_is_detected_with_component() {
    let w = workload(7);
    let mut c = cfg(3, 4);
    c.faults.divergence = Some(DivergenceFault {
        rank: 2,
        after_collectives: 12,
        component: FaultComponent::BranchLength,
    });
    let err = divergence(c.run(&w.compressed));
    assert_eq!(err.minority_ranks, vec![2], "{err}");
    assert_eq!(err.components, vec![Component::BranchLengths], "{err}");
    assert_eq!(err.sync_index, 4, "{err}");
}

#[test]
fn clean_runs_never_trip_and_match_the_unverified_run() {
    let w = workload(11);
    let baseline = cfg(3, 0).run(&w.compressed).expect("clean run");
    assert_eq!(baseline.sentinel_syncs, 0);
    for cadence in [1, 2, 3, 5, 7, 64] {
        let out = cfg(3, cadence)
            .run(&w.compressed)
            .unwrap_or_else(|d| panic!("clean run tripped at cadence {cadence}: {d}"));
        assert!(out.sentinel_syncs > 0, "cadence {cadence} never synced");
        // The sentinel is pure observation: the result is bit-identical to
        // the unverified run.
        assert_eq!(
            out.result.lnl.to_bits(),
            baseline.result.lnl.to_bits(),
            "cadence {cadence} changed the search trajectory"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: with no injected fault, no cadence ever produces a false
    /// positive (replicas really are bit-identical, and the sentinel's own
    /// allgather keeps all ranks aligned).
    #[test]
    fn any_cadence_is_false_positive_free(cadence in 1u64..=32) {
        let w = workloads::partitioned(6, 1, 60, 3);
        let mut c = cfg(2, cadence);
        c.search.max_iterations = 2;
        let out = c.run(&w.compressed);
        prop_assert!(out.is_ok(), "false positive at cadence {}", cadence);
        prop_assert!(out.unwrap().sentinel_syncs > 0);
    }
}

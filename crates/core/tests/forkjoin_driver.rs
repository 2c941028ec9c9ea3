//! The world driver under the fork-join exchange (the cross-scheme
//! equivalence lives in the workspace integration suite).

use exa_comm::CommCategory;
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_core::{RunConfig, Scheme};

/// Fork-join defaults for `ranks` ranks with the one-iteration search.
fn forkjoin(ranks: usize) -> RunConfig {
    RunConfig::new(ranks)
        .scheme(Scheme::ForkJoin)
        .search(quick())
}

fn quick() -> SearchConfig {
    SearchConfig {
        max_iterations: 1,
        ..SearchConfig::fast()
    }
}

#[test]
fn single_rank_forkjoin_works() {
    // Degenerate fork-join: master with zero workers.
    let w = workloads::partitioned(6, 2, 60, 3);
    let out = forkjoin(1).run(&w.compressed).unwrap();
    assert!(out.result.lnl.is_finite() && out.result.lnl < 0.0);
    out.state.tree.check_invariants().unwrap();
}

#[test]
fn worker_count_does_not_change_result() {
    // Under `--reduce reproducible` the guarantee is exact: every summed
    // collective is rank-count-invariant, so the whole search trajectory
    // (including the gradient-seeded smoothing passes) replays bitwise.
    let w = workloads::partitioned(6, 2, 60, 5);
    let mut lnls = Vec::new();
    for ranks in [1usize, 2, 3] {
        let cfg = forkjoin(ranks)
            .seed(9)
            .reduce(exa_comm::ReduceChoice::Reproducible);
        lnls.push(cfg.run(&w.compressed).unwrap().result.lnl);
    }
    for pair in lnls.windows(2) {
        assert!(pair[0].to_bits() == pair[1].to_bits(), "{lnls:?}");
    }
}

#[test]
fn worker_count_is_benign_under_fast_reduce() {
    // Fast reductions are only approximately rank-count-invariant (the
    // summation tree depends on the world size), and the branch-length
    // smoother's seeded Newton steps can amplify those last-bit differences
    // across convergence boundaries. The searches must still agree to well
    // within biological significance.
    let w = workloads::partitioned(6, 2, 60, 5);
    let mut lnls = Vec::new();
    for ranks in [1usize, 2, 3] {
        let cfg = forkjoin(ranks).seed(9);
        lnls.push(cfg.run(&w.compressed).unwrap().result.lnl);
    }
    for pair in lnls.windows(2) {
        assert!((pair[0] - pair[1]).abs() < 1e-2, "{lnls:?}");
    }
}

#[test]
fn every_operation_broadcasts_a_descriptor_or_parameters() {
    // The defining property of fork-join: all coordination flows through
    // master broadcasts.
    let w = workloads::partitioned(6, 3, 60, 7);
    let out = forkjoin(3).run(&w.compressed).unwrap();
    let s = &out.comm_stats;
    assert!(s.get(CommCategory::TraversalDescriptor).regions > 0);
    assert!(s.get(CommCategory::ModelParams).regions > 0);
    assert!(s.get(CommCategory::BranchLength).regions > 0);
    assert!(s.get(CommCategory::SiteLikelihoods).regions > 0);
    // Broadcast count >= reduce count is NOT generally true (NR iterations
    // reduce per candidate); but every reduce has a commanding broadcast.
    let broadcasts = s.ops_of_kind(exa_comm::OpKind::Broadcast);
    let reduces = s.ops_of_kind(exa_comm::OpKind::Reduce);
    assert!(
        broadcasts >= reduces,
        "broadcasts {broadcasts} vs reduces {reduces}"
    );
}

#[test]
fn mps_strategy_works_under_forkjoin() {
    let w = workloads::partitioned(6, 8, 40, 11);
    let cyc = forkjoin(3).seed(3);
    let mps = cyc.clone().strategy(exa_sched::Strategy::MonolithicLpt);
    let a = cyc.run(&w.compressed).unwrap();
    let b = mps.run(&w.compressed).unwrap();
    assert!((a.result.lnl - b.result.lnl).abs() < 1e-6);
}

#[test]
fn parsimony_start_beats_or_matches_random_start() {
    use exa_search::StartingTree;
    let w = workloads::partitioned(8, 2, 120, 13);
    let random = forkjoin(2).starting_tree(StartingTree::Random);
    let pars = random.clone().starting_tree(StartingTree::Parsimony);
    let lr = random.run(&w.compressed).unwrap().result.lnl;
    let lp = pars.run(&w.compressed).unwrap().result.lnl;
    // With only 1 search iteration, a better start shows through.
    assert!(lp >= lr - 1.0, "parsimony {lp} vs random {lr}");
}

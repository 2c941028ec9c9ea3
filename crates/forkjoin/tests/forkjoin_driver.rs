//! Fork-join driver tests at crate level (the cross-scheme equivalence
//! lives in the workspace integration suite).

use exa_comm::CommCategory;
use exa_forkjoin::{execute, ForkJoinConfig};
use exa_search::SearchConfig;
use exa_simgen::workloads;

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
    let mut cfg = ForkJoinConfig::new(1);
    cfg.search = quick();
    let out = execute(&w.compressed, &cfg, None);
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
        let mut cfg = ForkJoinConfig::new(ranks);
        cfg.search = quick();
        cfg.seed = 9;
        cfg.modes.reduce = exa_comm::ReduceKind::Reproducible;
        lnls.push(execute(&w.compressed, &cfg, None).result.lnl);
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
        let mut cfg = ForkJoinConfig::new(ranks);
        cfg.search = quick();
        cfg.seed = 9;
        lnls.push(execute(&w.compressed, &cfg, None).result.lnl);
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
    let mut cfg = ForkJoinConfig::new(3);
    cfg.search = quick();
    let out = execute(&w.compressed, &cfg, None);
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
    let mut cyc = ForkJoinConfig::new(3);
    cyc.search = quick();
    cyc.seed = 3;
    let mut mps = cyc.clone();
    mps.strategy = exa_sched::Strategy::MonolithicLpt;
    let a = execute(&w.compressed, &cyc, None);
    let b = execute(&w.compressed, &mps, None);
    assert!((a.result.lnl - b.result.lnl).abs() < 1e-6);
}

#[test]
fn parsimony_start_beats_or_matches_random_start() {
    use exa_search::StartingTree;
    let w = workloads::partitioned(8, 2, 120, 13);
    let mut random = ForkJoinConfig::new(2);
    random.search = quick();
    random.starting_tree = StartingTree::Random;
    let mut pars = random.clone();
    pars.starting_tree = StartingTree::Parsimony;
    let lr = execute(&w.compressed, &random, None).result.lnl;
    let lp = execute(&w.compressed, &pars, None).result.lnl;
    // With only 1 search iteration, a better start shows through.
    assert!(lp >= lr - 1.0, "parsimony {lp} vs random {lr}");
}

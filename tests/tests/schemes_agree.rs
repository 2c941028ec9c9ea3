//! The paper's central correctness claim, §III-B: the de-centralized scheme
//! and the fork-join scheme run *exactly the same search algorithm* and must
//! therefore produce the same tree and likelihood; and both must match the
//! sequential reference. These tests run all three end-to-end.

use exa_phylo::engine::{Engine, KernelKind, PartitionSlice, SiteRepeats};
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::bipartitions::rf_distance;
use exa_phylo::tree::Tree;
use exa_phylo::KernelChoice;
use exa_search::evaluator::BranchMode;
use exa_search::{run_search, NoHooks, SearchConfig, SequentialEvaluator};
use exa_simgen::workloads;
use examl_core::{RunConfig, Scheme};

fn small_workload(seed: u64) -> workloads::Workload {
    workloads::partitioned(8, 2, 120, seed)
}

fn fast_search() -> SearchConfig {
    SearchConfig {
        max_iterations: 2,
        ..SearchConfig::fast()
    }
}

fn sequential_reference(
    w: &workloads::Workload,
    kind: RateModelKind,
    mode: BranchMode,
    seed: u64,
    (kernel, repeats): (KernelKind, SiteRepeats),
) -> (f64, Tree) {
    let slices: Vec<PartitionSlice> = w
        .compressed
        .partitions
        .iter()
        .enumerate()
        .map(|(i, p)| PartitionSlice::from_compressed(i, p))
        .collect();
    let n_taxa = w.compressed.n_taxa();
    let engine = Engine::with_config(n_taxa, slices, kind, 1.0, kernel, repeats);
    let blens = match mode {
        BranchMode::Joint => 1,
        BranchMode::PerPartition => w.compressed.n_partitions(),
    };
    let tree = Tree::random(w.compressed.n_taxa(), blens, seed);
    let mut eval = SequentialEvaluator::new(tree, engine, w.compressed.n_partitions(), mode);
    let Ok(r) = run_search(&mut eval, &fast_search(), &mut NoHooks);
    use exa_search::Evaluator as _;
    (r.lnl, eval.snapshot().tree)
}

#[test]
fn decentralized_matches_sequential() {
    let w = small_workload(3);
    let seed = 42;
    // What `RunConfig::new` resolves to.
    let defaults = (KernelChoice::Auto.resolve_local(), SiteRepeats::On);
    let (seq_lnl, seq_tree) =
        sequential_reference(&w, RateModelKind::Gamma, BranchMode::Joint, seed, defaults);

    let mut cfg = RunConfig::new(3);
    cfg.search = fast_search();
    cfg.seed = seed;
    let out = cfg.run(&w.compressed).unwrap();

    assert!(
        (out.result.lnl - seq_lnl).abs() < 1e-6,
        "decentralized {} vs sequential {seq_lnl}",
        out.result.lnl
    );
    assert_eq!(
        rf_distance(&out.state.tree, &seq_tree),
        0,
        "topologies must agree"
    );
}

/// The sequential reference computes the same bits on either kernel
/// backend, with site-repeat compression on or off.
#[test]
fn sequential_reference_is_bitwise_invariant_to_kernel_and_repeats() {
    let w = small_workload(3);
    let run = |backend| {
        let (lnl, tree) =
            sequential_reference(&w, RateModelKind::Gamma, BranchMode::Joint, 42, backend);
        (lnl.to_bits(), tree.to_newick(&w.compressed.taxa))
    };
    let reference = run((KernelKind::Scalar, SiteRepeats::On));
    for backend in [
        (KernelKind::Scalar, SiteRepeats::Off),
        (KernelKind::Simd, SiteRepeats::On),
        (KernelKind::Simd, SiteRepeats::Off),
    ] {
        assert_eq!(run(backend), reference, "{backend:?}");
    }
}

#[test]
fn forkjoin_matches_decentralized_exactly() {
    let w = small_workload(7);
    let seed = 11;

    let mut dcfg = RunConfig::new(3);
    dcfg.search = fast_search();
    dcfg.seed = seed;
    let dec = dcfg.run(&w.compressed).unwrap();

    let mut fcfg = RunConfig::new(3).scheme(Scheme::ForkJoin);
    fcfg.search = fast_search();
    fcfg.seed = seed;
    let fj = fcfg.run(&w.compressed).unwrap();

    assert!(
        (dec.result.lnl - fj.result.lnl).abs() < 1e-6,
        "decentralized {} vs fork-join {}",
        dec.result.lnl,
        fj.result.lnl
    );
    assert_eq!(rf_distance(&dec.state.tree, &fj.state.tree), 0);
    assert_eq!(dec.result.iterations, fj.result.iterations);
}

#[test]
fn rank_count_does_not_change_the_result() {
    let w = small_workload(13);
    let mut lnls = Vec::new();
    for n_ranks in [1usize, 2, 4] {
        let mut cfg = RunConfig::new(n_ranks);
        cfg.search = fast_search();
        cfg.seed = 5;
        let out = cfg.run(&w.compressed).unwrap();
        lnls.push(out.result.lnl);
    }
    for pair in lnls.windows(2) {
        assert!(
            (pair[0] - pair[1]).abs() < 1e-6,
            "likelihood must be rank-count independent: {lnls:?}"
        );
    }
}

#[test]
fn mps_and_cyclic_agree() {
    let w = workloads::partitioned(8, 6, 60, 17);
    let mut results = Vec::new();
    for strategy in [
        exa_sched::Strategy::Cyclic,
        exa_sched::Strategy::MonolithicLpt,
    ] {
        let mut cfg = RunConfig::new(3);
        cfg.search = fast_search();
        cfg.strategy = strategy;
        cfg.seed = 9;
        let out = cfg.run(&w.compressed).unwrap();
        results.push(out);
    }
    assert!(
        (results[0].result.lnl - results[1].result.lnl).abs() < 1e-6,
        "distribution strategy must not change the result: {} vs {}",
        results[0].result.lnl,
        results[1].result.lnl
    );
    assert_eq!(
        rf_distance(&results[0].state.tree, &results[1].state.tree),
        0
    );
}

#[test]
fn psr_schemes_agree() {
    let w = small_workload(23);
    let seed = 3;

    let mut dcfg = RunConfig::new(2);
    dcfg.search = fast_search();
    dcfg.rate_model = RateModelKind::Psr;
    dcfg.seed = seed;
    let dec = dcfg.run(&w.compressed).unwrap();

    let mut fcfg = RunConfig::new(2).scheme(Scheme::ForkJoin);
    fcfg.search = fast_search();
    fcfg.rate_model = RateModelKind::Psr;
    fcfg.seed = seed;
    let fj = fcfg.run(&w.compressed).unwrap();

    // PSR rates are optimized on pattern subsets, so the quantization is
    // distribution-dependent in principle; with identical distribution
    // (same strategy, same rank count) results must agree exactly.
    assert!(
        (dec.result.lnl - fj.result.lnl).abs() < 1e-6,
        "{} vs {}",
        dec.result.lnl,
        fj.result.lnl
    );
}

#[test]
fn per_partition_branch_mode_agrees_across_schemes() {
    let w = small_workload(29);
    let seed = 8;

    let mut dcfg = RunConfig::new(2);
    dcfg.search = fast_search();
    dcfg.branch_mode = BranchMode::PerPartition;
    dcfg.seed = seed;
    let dec = dcfg.run(&w.compressed).unwrap();

    let mut fcfg = RunConfig::new(2).scheme(Scheme::ForkJoin);
    fcfg.search = fast_search();
    fcfg.branch_mode = BranchMode::PerPartition;
    fcfg.seed = seed;
    let fj = fcfg.run(&w.compressed).unwrap();

    assert!(
        (dec.result.lnl - fj.result.lnl).abs() < 1e-6,
        "{} vs {}",
        dec.result.lnl,
        fj.result.lnl
    );
    assert_eq!(rf_distance(&dec.state.tree, &fj.state.tree), 0);
}

#[test]
fn communication_profile_matches_the_paper_story() {
    use exa_comm::CommCategory;
    let w = small_workload(31);
    let seed = 4;

    let mut dcfg = RunConfig::new(3);
    dcfg.search = fast_search();
    dcfg.seed = seed;
    let dec = dcfg.run(&w.compressed).unwrap();

    let mut fcfg = RunConfig::new(3).scheme(Scheme::ForkJoin);
    fcfg.search = fast_search();
    fcfg.seed = seed;
    let fj = fcfg.run(&w.compressed).unwrap();

    // (i) The de-centralized scheme never broadcasts traversal descriptors.
    assert_eq!(
        dec.comm_stats.get(CommCategory::TraversalDescriptor).bytes,
        0
    );
    assert!(fj.comm_stats.get(CommCategory::TraversalDescriptor).bytes > 0);

    // (ii) Descriptor traffic dominates fork-join bytes (Table I: 30–97%).
    let share = fj.comm_stats.byte_share(CommCategory::TraversalDescriptor);
    assert!(share > 30.0, "descriptor share {share}%");

    // (iii) Fewer parallel regions and far fewer bytes overall for ExaML.
    assert!(dec.comm_stats.total_regions() < fj.comm_stats.total_regions());
    assert!(dec.comm_stats.total_bytes() < fj.comm_stats.total_bytes() / 2);

    // (iv) Model-parameter broadcasts exist only under fork-join.
    assert!(fj.comm_stats.get(CommCategory::ModelParams).bytes > 0);
    assert_eq!(dec.comm_stats.get(CommCategory::ModelParams).bytes, 0);
}

//! Regression tests for ranks that hold **zero** partitions: under MPS
//! (`-Q`) with more ranks than partitions, some ranks have no data but must
//! still participate in every collective with the same call sequence —
//! including the PSR site-rate normalization, which an empty rank would
//! have skipped when its rate-model kind was derived from (absent) local
//! partitions.

use exa_phylo::model::rates::RateModelKind;
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_core::{RunConfig, Scheme};

fn cfg(ranks: usize, kind: RateModelKind) -> RunConfig {
    let mut cfg = RunConfig::new(ranks);
    cfg.rate_model = kind;
    cfg.strategy = exa_sched::Strategy::MonolithicLpt;
    cfg.search = SearchConfig {
        max_iterations: 1,
        ..SearchConfig::fast()
    };
    cfg.seed = 3;
    cfg
}

#[test]
fn more_ranks_than_partitions_under_gamma() {
    // 2 partitions, 4 ranks: two ranks are empty.
    let w = workloads::partitioned(6, 2, 60, 3);
    let out = cfg(4, RateModelKind::Gamma).run(&w.compressed).unwrap();
    assert!(out.result.lnl.is_finite());

    // Same answer as the fully-loaded 2-rank run.
    let dense = cfg(2, RateModelKind::Gamma).run(&w.compressed).unwrap();
    assert!(
        (out.result.lnl - dense.result.lnl).abs() < 1e-6,
        "{} vs {}",
        out.result.lnl,
        dense.result.lnl
    );
}

#[test]
fn more_ranks_than_partitions_under_psr() {
    // The regression: PSR site-rate optimization performs an allreduce that
    // empty ranks must join.
    let w = workloads::partitioned(6, 2, 60, 5);
    let out = cfg(4, RateModelKind::Psr).run(&w.compressed).unwrap();
    assert!(out.result.lnl.is_finite());
}

#[test]
fn empty_ranks_under_forkjoin_psr() {
    let w = workloads::partitioned(6, 2, 60, 7);
    let mut cfg = RunConfig::new(4).scheme(Scheme::ForkJoin);
    cfg.rate_model = RateModelKind::Psr;
    cfg.strategy = exa_sched::Strategy::MonolithicLpt;
    cfg.search = SearchConfig {
        max_iterations: 1,
        ..SearchConfig::fast()
    };
    let out = cfg.run(&w.compressed).unwrap();
    assert!(out.result.lnl.is_finite());
}

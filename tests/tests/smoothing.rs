//! Branch-length smoothing must not cost a search its likelihood. With the
//! 32-round all-edge (Jacobi) smoothing loop this `tall_psr`-shaped PSR
//! search came back from smoothing *below* where the SPR round had left it,
//! reported `converged` after two iterations and stopped at lnL −11 393.82.

use exa_phylo::model::rates::RateModelKind;
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_core::RunConfig;

#[test]
fn psr_search_keeps_climbing_through_smoothing() {
    let w = workloads::partitioned(40, 4, 100, 2);
    let out = RunConfig::new(2)
        .rate_model(RateModelKind::Psr)
        .seed(1)
        .search(SearchConfig {
            max_iterations: 3,
            ..SearchConfig::default()
        })
        .run(&w.compressed)
        .expect("the search completes");
    let result = out.result;
    assert_eq!(result.iterations, 3, "stopped early: {result:?}");
    assert!(!result.converged, "{result:?}");
    // −9 364.47 when this was written.
    assert!(result.lnl > -10_500.0, "{result:?}");
}

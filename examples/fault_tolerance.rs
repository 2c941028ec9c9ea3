//! §V fault tolerance live: kill ranks mid-search and watch the survivors
//! redistribute the data and finish the inference — the payoff of full
//! state redundancy in the de-centralized scheme (a fork-join master death
//! would end the run).
//!
//! ```text
//! cargo run -p examl-examples --release --bin fault_tolerance -- [ranks=4]
//! ```

use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_core::fault::FaultPlan;
use examl_core::RunConfig;

fn main() {
    let ranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    assert!(
        ranks >= 3,
        "need at least 3 ranks to kill one and keep going"
    );

    println!("generating 20-taxon, 5-partition workload...");
    let w = workloads::partitioned(20, 5, 150, 77);

    let search = SearchConfig {
        max_iterations: 4,
        epsilon: 0.01,
        ..SearchConfig::default()
    };

    println!("\n--- run 1: no failures, {ranks} ranks ---");
    let mut cfg = RunConfig::new(ranks);
    cfg.search = search.clone();
    let clean = cfg
        .run(&w.compressed)
        .expect("uniform replicas cannot diverge");
    println!(
        "  lnL = {:.4}, survivors = {:?}",
        clean.result.lnl, clean.survivors
    );

    println!(
        "\n--- run 2: rank 1 dies at iteration 1, rank {} at iteration 2 ---",
        ranks - 1
    );
    let mut cfg = RunConfig::new(ranks);
    cfg.search = search;
    cfg.faults.plan = FaultPlan::kill(1, 1).and_kill(ranks - 1, 2);
    let faulted = cfg
        .run(&w.compressed)
        .expect("uniform replicas cannot diverge");
    println!(
        "  lnL = {:.4}, survivors = {:?}",
        faulted.result.lnl, faulted.survivors
    );

    println!("\n--- comparison ---");
    println!("  clean   : {:.4}", clean.result.lnl);
    println!("  faulted : {:.4}", faulted.result.lnl);
    println!(
        "  same final topology: {}",
        exa_phylo::tree::bipartitions::rf_distance(&clean.state.tree, &faulted.state.tree) == 0
    );
    println!(
        "\nEvery surviving rank redistributed the dead ranks' data and redid the \
         interrupted iteration from the replicated state; no work before the \
         failure boundary was lost."
    );
}

//! The uniform-backend contract end-to-end: every rank of a run must
//! compute with the same likelihood-kernel backend, because fault recovery
//! redistributes partitions across ranks and replicas must stay bitwise
//! interchangeable. A mixed-backend world — which no configuration produces,
//! so the test builds one by hand (`mixed_world`) — is a replica-divergence
//! event the sentinel must attribute to the kernel-backend component —
//! while uniform runs are bitwise identical under either backend.

mod mixed_world;

use exa_phylo::{KernelChoice, KernelKind};
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_core::RunConfig;

fn cfg(n_ranks: usize, cadence: u64) -> RunConfig {
    let mut cfg = RunConfig::new(n_ranks);
    cfg.search = SearchConfig {
        max_iterations: 3,
        epsilon: 0.01,
        ..SearchConfig::fast()
    };
    cfg.seed = 33;
    cfg.verify_replicas = cadence;
    cfg
}

#[test]
fn mixed_backend_world_is_flagged_as_replica_divergence() {
    // Rank 1 runs the SIMD backend while ranks 0 and 2 run scalar. Both
    // produce bitwise-identical numerics, so the backend identity is the
    // ONLY component that diverges — caught at the pre-search sentinel sync
    // (collective #0), before any numeric drift or collective-sequence
    // desync could exist.
    mixed_world::refused("kernel");
}

#[test]
fn uniform_backend_runs_are_bitwise_identical_across_backends() {
    let w = workloads::partitioned(8, 2, 100, 43);
    let scalar = {
        let mut c = cfg(3, 8);
        c.kernel = KernelChoice::Scalar;
        c.run(&w.compressed).expect("uniform scalar run is clean")
    };
    let simd = {
        let mut c = cfg(3, 8);
        c.kernel = KernelChoice::Simd;
        c.run(&w.compressed).expect("uniform SIMD run is clean")
    };
    assert_eq!(scalar.kernel, KernelKind::Scalar);
    assert_eq!(simd.kernel, KernelKind::Simd);
    assert_eq!(
        scalar.result.lnl.to_bits(),
        simd.result.lnl.to_bits(),
        "scalar {} vs simd {}",
        scalar.result.lnl,
        simd.result.lnl
    );
    assert_eq!(scalar.tree_newick, simd.tree_newick);
    assert_eq!(scalar.sentinel_syncs, simd.sentinel_syncs);
}

#[test]
fn auto_negotiation_agrees_on_one_backend_for_every_rank() {
    let w = workloads::partitioned(6, 2, 80, 47);
    let mut c = cfg(4, 8);
    c.kernel = KernelChoice::Auto;
    let out = c.run(&w.compressed).expect("auto run is clean");
    // Every rank resolves `auto` on the same host, so the world computes
    // with what the host offers (a mixed world would trip the sentinel).
    assert_eq!(out.kernel, KernelChoice::Auto.resolve_local());
    assert_eq!(out.survivors, vec![0, 1, 2, 3]);
}

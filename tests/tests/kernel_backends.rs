//! The uniform-backend contract end-to-end: every rank of a run must
//! compute with the same likelihood-kernel backend, because fault recovery
//! redistributes partitions across ranks and replicas must stay bitwise
//! interchangeable. A mixed-backend world (forced through the
//! `--inject kernel:…` fault, `Faults::kernel`) is a replica-divergence
//! event the sentinel must attribute to the kernel-backend component —
//! while uniform runs are bitwise identical under either backend.

use exa_obs::Component;
use exa_phylo::{KernelChoice, KernelKind};
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_core::{RunConfig, RunError};

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
    let w = workloads::partitioned(8, 2, 100, 41);
    let mut c = cfg(3, 4);
    // Rank 1 silently runs the SIMD backend while ranks 0 and 2 run scalar.
    c.faults.kernel = vec![KernelKind::Scalar, KernelKind::Simd, KernelKind::Scalar];
    let err = match c.run(&w.compressed) {
        Err(RunError::Divergence(d)) => d,
        Ok(_) => panic!("a mixed-backend world must trip the sentinel"),
        Err(other) => panic!("expected a divergence, got {other}"),
    };
    assert_eq!(err.minority_ranks, vec![1], "{err}");
    // Both backends produce bitwise-identical numerics, so the backend
    // identity is the ONLY component that diverges — caught at the
    // pre-search sentinel sync (collective #0), before any numeric drift
    // or collective-sequence desync could exist.
    assert_eq!(err.components, vec![Component::KernelBackend], "{err}");
    assert_eq!(err.sync_index, 1, "{err}");
    assert_eq!(err.collective_index, 0, "{err}");
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
    let out = c.run(&w.compressed).expect("negotiated run is clean");
    // All four ranks adopted the same negotiated winner (a mixed world
    // would have tripped the sentinel above); the winner equals the local
    // resolution because the in-process world shares one machine.
    assert_eq!(out.kernel, KernelChoice::Auto.resolve_local());
    assert_eq!(out.survivors, vec![0, 1, 2, 3]);
}

//! The subtree-repeat compression contract end-to-end: compression is a
//! pure work-saving transform, so a run with `--site-repeats on` must be
//! bitwise identical to the same run with `off` — same final lnL, same
//! tree, no sentinel trip — while doing strictly fewer `newview` column
//! computations. And because fault recovery redistributes partitions, the
//! setting must be uniform across ranks: a mixed world — which no
//! configuration produces, so the test builds one by hand (`mixed_world`) —
//! is a replica-divergence event caught at the first fingerprint sync,
//! before any numeric question arises.

mod mixed_world;

use exa_phylo::{RepeatsChoice, SiteRepeats};
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
    cfg.seed = 51;
    cfg.verify_replicas = cadence;
    cfg
}

#[test]
fn verified_runs_are_bitwise_identical_with_repeats_on_and_off() {
    let w = workloads::partitioned(8, 2, 100, 53);
    let on = {
        let mut c = cfg(3, 4);
        c.site_repeats = RepeatsChoice::On;
        c.run(&w.compressed).expect("repeats-on run is clean")
    };
    let off = {
        let mut c = cfg(3, 4);
        c.site_repeats = RepeatsChoice::Off;
        c.run(&w.compressed).expect("repeats-off run is clean")
    };
    assert_eq!(on.site_repeats, SiteRepeats::On);
    assert_eq!(off.site_repeats, SiteRepeats::Off);
    assert_eq!(
        on.result.lnl.to_bits(),
        off.result.lnl.to_bits(),
        "on {} vs off {}",
        on.result.lnl,
        off.result.lnl
    );
    assert_eq!(on.tree_newick, off.tree_newick);
    assert_eq!(on.sentinel_syncs, off.sentinel_syncs);
    // Compression replaces duplicate-column computations with copies; the
    // work counters must show the savings (real alignments always repeat).
    assert!(
        on.work.clv_updates < off.work.clv_updates,
        "on {} vs off {}",
        on.work.clv_updates,
        off.work.clv_updates
    );
    assert!(on.work.clv_saved > 0);
    assert_eq!(off.work.clv_saved, 0);
    assert_eq!(
        on.work.clv_updates + on.work.clv_saved,
        off.work.clv_updates,
        "computed + copied columns must equal the uncompressed total"
    );
}

#[test]
fn mixed_repeats_world_is_flagged_as_replica_divergence() {
    // Rank 2 runs uncompressed while ranks 0 and 1 compress. Compression is
    // bitwise invisible in the numerics, so the backend fingerprint (which
    // stamps the repeats setting next to the kernel kind) is the ONLY
    // diverging component — caught at the very first sync, exactly like a
    // mixed kernel backend.
    mixed_world::refused("site_repeats");
}

#[test]
fn auto_negotiation_agrees_on_compression_for_every_rank() {
    let w = workloads::partitioned(6, 2, 80, 59);
    let mut c = cfg(4, 8);
    c.site_repeats = RepeatsChoice::Auto;
    let out = c.run(&w.compressed).expect("auto run is clean");
    // `auto` resolves to `on` on every rank.
    assert_eq!(out.site_repeats, SiteRepeats::On);
    assert_eq!(out.survivors, vec![0, 1, 2, 3]);
}

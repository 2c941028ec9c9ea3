//! Deterministic kill-and-restart chaos harness.
//!
//! For every configuration the harness runs the same seeded search three
//! ways:
//!
//! 1. **reference** — uninterrupted, checkpointing on;
//! 2. **killed** — identical, plus `--inject kill:N` at a checkpoint-aligned
//!    kill point, which must abort with [`RunError::Killed`];
//! 3. **resumed** — a fresh process-equivalent run resuming from the killed
//!    run's checkpoint directory.
//!
//! The resumed run must reach a final likelihood, topology and model state
//! that are **bitwise** identical to the reference — restart is a replay,
//! not an approximation. The sweep covers kill points, both parallelization
//! schemes, both kernel backends and site-repeats on/off.

mod common;

use exa_comm::ReduceChoice;
use exa_phylo::engine::{KernelChoice, RepeatsChoice};
use exa_phylo::model::rates::RateModelKind;
use exa_search::{KillSpec, SearchConfig};
use exa_simgen::workloads;
use examl_core::{Faults, RunConfig, RunError, RunOutcome, Scheme};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("examl_chaos_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn base_cfg(scheme: Scheme, kernel: KernelChoice, repeats: RepeatsChoice) -> RunConfig {
    RunConfig::new(2)
        .scheme(scheme)
        .kernel(kernel)
        .site_repeats(repeats)
        .seed(23)
        .search(SearchConfig {
            max_iterations: 4,
            epsilon: 0.001,
            ..SearchConfig::fast()
        })
}

/// Bitwise state fingerprint: likelihood bits, topology, and every model
/// parameter's bits.
fn fingerprint(out: &RunOutcome) -> (u64, String, Vec<u64>, Vec<u64>) {
    (
        out.result.lnl.to_bits(),
        out.tree_newick.clone(),
        out.state.alphas.iter().map(|a| a.to_bits()).collect(),
        out.state
            .gtr_rates
            .iter()
            .flat_map(|r| r.iter().map(|v| v.to_bits()))
            .collect(),
    )
}

/// Run reference / killed / resumed for one configuration and assert the
/// resumed run replays the reference bitwise.
fn kill_and_restart(
    tag: &str,
    make: impl Fn() -> RunConfig,
    aln: &exa_bio::patterns::CompressedAlignment,
    kill: KillSpec,
) {
    let ref_dir = tmp_dir(&format!("{tag}_ref"));
    let reference = make()
        .checkpoint(&ref_dir, 1)
        .run(aln)
        .unwrap_or_else(|e| panic!("[{tag}] reference run failed: {e}"));
    std::fs::remove_dir_all(&ref_dir).ok();

    let dir = tmp_dir(tag);
    let err = make()
        .checkpoint(&dir, 1)
        .faults(Faults {
            kill: Some(kill),
            ..Faults::none()
        })
        .run(aln)
        .expect_err("the injected kill must abort the run");
    match err {
        RunError::Killed {
            after_checkpoints, ..
        } => assert!(
            after_checkpoints >= kill.after_checkpoints,
            "[{tag}] kill fired before its checkpoint budget"
        ),
        other => panic!("[{tag}] expected Killed, got {other}"),
    }
    assert!(
        !examl_core::checkpoint::list_generations(&dir)
            .unwrap()
            .is_empty(),
        "[{tag}] the killed run must leave committed generations behind"
    );

    let resumed = make()
        .checkpoint(&dir, 1)
        .resume(&dir)
        .run(aln)
        .unwrap_or_else(|e| panic!("[{tag}] resume failed: {e}"));
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        fingerprint(&resumed),
        fingerprint(&reference),
        "[{tag}] resumed run must be bitwise identical to the uninterrupted reference"
    );
    // ... and what it reports is the lnL of the state it returned. (Fast
    // sums depend on the scheme; PSR site rates are not in the state.)
    let cfg = make();
    if cfg.rate_model == RateModelKind::Gamma && cfg.scheme == Scheme::Decentralized {
        assert_eq!(
            resumed.result.lnl.to_bits(),
            common::returned_state_lnl(aln, &cfg, &resumed).to_bits(),
            "[{tag}] result.lnl is not the lnL of the returned state"
        );
    }
}

#[test]
fn kill_restart_sweep_schemes_kernels_repeats() {
    let w = workloads::partitioned(8, 2, 100, 41);
    for scheme in [Scheme::Decentralized, Scheme::ForkJoin] {
        for kernel in [KernelChoice::Scalar, KernelChoice::Simd] {
            for repeats in [RepeatsChoice::On, RepeatsChoice::Off] {
                let tag = format!("{scheme:?}_{kernel:?}_{repeats:?}").to_lowercase();
                kill_and_restart(
                    &tag,
                    || base_cfg(scheme, kernel, repeats),
                    &w.compressed,
                    KillSpec {
                        after_checkpoints: 2,
                        rank: None,
                    },
                );
            }
        }
    }
}

#[test]
fn kill_restart_sweep_kill_points() {
    let w = workloads::partitioned(8, 2, 100, 41);
    for scheme in [Scheme::Decentralized, Scheme::ForkJoin] {
        for after in [1, 2, 3] {
            let tag = format!("{scheme:?}_kp{after}").to_lowercase();
            kill_and_restart(
                &tag,
                || base_cfg(scheme, KernelChoice::Scalar, RepeatsChoice::On),
                &w.compressed,
                KillSpec {
                    after_checkpoints: after,
                    rank: None,
                },
            );
        }
    }
}

#[test]
fn kill_single_rank_then_restart_decentralized() {
    // A single-rank kill exercises the failure-detection path (the victim
    // dies, the survivors abort the run as planned) before the restart.
    let w = workloads::partitioned(8, 2, 100, 41);
    kill_and_restart(
        "victim1",
        || {
            base_cfg(
                Scheme::Decentralized,
                KernelChoice::Scalar,
                RepeatsChoice::On,
            )
        },
        &w.compressed,
        KillSpec {
            after_checkpoints: 2,
            rank: Some(1),
        },
    );
}

#[test]
fn kill_restart_replays_psr_rates_bitwise() {
    // PSR per-pattern rates are data-local state; the checkpoint gathers
    // them and the restart redistributes them, and the replay must still
    // be bitwise.
    let w = workloads::partitioned(8, 2, 100, 41);
    for scheme in [Scheme::Decentralized, Scheme::ForkJoin] {
        let tag = format!("psr_{scheme:?}").to_lowercase();
        kill_and_restart(
            &tag,
            || {
                base_cfg(scheme, KernelChoice::Scalar, RepeatsChoice::Off)
                    .rate_model(RateModelKind::Psr)
            },
            &w.compressed,
            KillSpec {
                after_checkpoints: 2,
                rank: None,
            },
        );
    }
}

#[test]
fn checkpoint_resumes_across_schemes() {
    // The replicated state is scheme-agnostic: a checkpoint committed by a
    // de-centralized run resumes under fork-join (and vice versa) with a
    // bitwise-identical replay — the header's scheme field is elastic.
    let w = workloads::partitioned(8, 2, 100, 41);
    let reference = base_cfg(
        Scheme::Decentralized,
        KernelChoice::Scalar,
        RepeatsChoice::On,
    )
    .run(&w.compressed)
    .unwrap();

    for (from, to) in [
        (Scheme::Decentralized, Scheme::ForkJoin),
        (Scheme::ForkJoin, Scheme::Decentralized),
    ] {
        let dir = tmp_dir(&format!("xscheme_{from:?}_{to:?}").to_lowercase());
        let err = base_cfg(from, KernelChoice::Scalar, RepeatsChoice::On)
            .checkpoint(&dir, 1)
            .faults(Faults {
                kill: Some(KillSpec {
                    after_checkpoints: 2,
                    rank: None,
                }),
                ..Faults::none()
            })
            .run(&w.compressed)
            .expect_err("kill must fire");
        assert!(matches!(err, RunError::Killed { .. }));

        let resumed = base_cfg(to, KernelChoice::Scalar, RepeatsChoice::On)
            .resume(&dir)
            .run(&w.compressed)
            .unwrap_or_else(|e| panic!("{from:?}->{to:?} resume failed: {e}"));
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            fingerprint(&resumed),
            fingerprint(&reference),
            "{from:?}->{to:?} cross-scheme resume must replay bitwise"
        );
    }
}

#[test]
fn resume_is_elastic_across_kernel_and_rank_count() {
    // Kernel backend and site-repeats are unconditionally elastic header
    // fields; the rank count is elastic only when both the checkpoint and
    // the resuming run use reproducible reductions (a fast-mode lnL
    // trajectory is a function of the rank count, so a fast elastic resume
    // would be a silent fork). Resuming under a different combination
    // redistributes and completes (bitwise identity is only promised for
    // like-for-like restarts — a different backend may round differently).
    let w = workloads::partitioned(8, 2, 100, 41);
    let dir = tmp_dir("elastic");
    let err = base_cfg(Scheme::Decentralized, KernelChoice::Simd, RepeatsChoice::On)
        .reduce(ReduceChoice::Reproducible)
        .checkpoint(&dir, 1)
        .faults(Faults {
            kill: Some(KillSpec {
                after_checkpoints: 2,
                rank: None,
            }),
            ..Faults::none()
        })
        .run(&w.compressed)
        .expect_err("kill must fire");
    assert!(matches!(err, RunError::Killed { .. }));

    let resumed = RunConfig::new(3)
        .scheme(Scheme::Decentralized)
        .kernel(KernelChoice::Scalar)
        .site_repeats(RepeatsChoice::Off)
        .reduce(ReduceChoice::Reproducible)
        .seed(23)
        .search(SearchConfig {
            max_iterations: 4,
            epsilon: 0.001,
            ..SearchConfig::fast()
        })
        .resume(&dir)
        .run(&w.compressed)
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(resumed.result.lnl.is_finite());
}

#[test]
fn checkpoint_resumes_across_gradient_modes() {
    // Gradient BLO is bitwise result-neutral — the full-tree sweep
    // computes the same Newton seeds the per-edge collectives would — so
    // the header's gradient field is elastic: a checkpoint committed under
    // `--gradient on` resumes under `--gradient off` (and vice versa) and
    // must replay the uninterrupted reference bit for bit.
    use exa_phylo::GradientChoice;
    let w = workloads::partitioned(8, 2, 100, 41);
    let reference = base_cfg(
        Scheme::Decentralized,
        KernelChoice::Scalar,
        RepeatsChoice::On,
    )
    .gradient(GradientChoice::On)
    .run(&w.compressed)
    .unwrap();

    for (from, to) in [
        (GradientChoice::On, GradientChoice::Off),
        (GradientChoice::Off, GradientChoice::On),
    ] {
        let dir = tmp_dir(&format!("xgradient_{from:?}_{to:?}").to_lowercase());
        let err = base_cfg(
            Scheme::Decentralized,
            KernelChoice::Scalar,
            RepeatsChoice::On,
        )
        .gradient(from)
        .checkpoint(&dir, 1)
        .faults(Faults {
            kill: Some(KillSpec {
                after_checkpoints: 2,
                rank: None,
            }),
            ..Faults::none()
        })
        .run(&w.compressed)
        .expect_err("kill must fire");
        assert!(matches!(err, RunError::Killed { .. }));

        let resumed = base_cfg(
            Scheme::Decentralized,
            KernelChoice::Scalar,
            RepeatsChoice::On,
        )
        .gradient(to)
        .resume(&dir)
        .run(&w.compressed)
        .unwrap_or_else(|e| panic!("{from:?}->{to:?} resume failed: {e}"));
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            fingerprint(&resumed),
            fingerprint(&reference),
            "{from:?}->{to:?} cross-gradient resume must replay bitwise"
        );
    }
}

#[test]
fn resumed_run_appends_to_the_heartbeat_file() {
    // A resumed attempt continues the job's heartbeat history (the daemon
    // serves it as `GET /job-health/<id>`); only a fresh run truncates.
    let w = workloads::partitioned(8, 2, 100, 53);
    let dir = tmp_dir("health_append");
    let health = dir.join("health.jsonl");
    let cfg = base_cfg(
        Scheme::Decentralized,
        KernelChoice::Scalar,
        RepeatsChoice::Off,
    )
    .checkpoint(dir.join("ckpt"), 1)
    .health_out(&health);
    std::fs::create_dir_all(&dir).unwrap();
    // A stale file from an unrelated earlier run must not leak into a
    // fresh one.
    std::fs::write(&health, "stale\n").unwrap();

    let killed = cfg.clone().faults(Faults {
        kill: Some(KillSpec {
            after_checkpoints: 1,
            rank: None,
        }),
        ..Faults::none()
    });
    assert!(matches!(
        killed.run(&w.compressed),
        Err(RunError::Killed { .. })
    ));
    let first_attempt = std::fs::read_to_string(&health).unwrap();
    assert!(!first_attempt.contains("stale"), "fresh runs truncate");
    let first_lines = first_attempt.lines().count();
    assert!(first_lines >= 1, "the killed attempt wrote heartbeats");

    let resumed = cfg.resume(dir.join("ckpt")).run(&w.compressed).unwrap();
    let both = std::fs::read_to_string(&health).unwrap();
    assert!(
        both.starts_with(&first_attempt),
        "the resumed attempt wiped the first attempt's records"
    );
    assert!(
        both.lines().count() > first_lines,
        "resumed attempt appends"
    );
    assert_eq!(resumed.health.heartbeats, both.lines().count() as u64);
    std::fs::remove_dir_all(&dir).ok();
}

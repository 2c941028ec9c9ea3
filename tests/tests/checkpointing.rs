//! Checkpoint/restart across full de-centralized runs: generation
//! directories, header validation, elastic resume, and the crash-mid-write
//! regression (a torn tmp file must never shadow an intact generation).

use exa_comm::ReduceChoice;
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_core::checkpoint::{self, CheckpointError};
use examl_core::{RunConfig, RunError, Scheme};

fn workload() -> workloads::Workload {
    workloads::partitioned(8, 2, 100, 41)
}

/// A fresh per-test checkpoint directory under the system temp dir.
fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("examl_it_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn checkpoints_are_written_and_loadable() {
    let w = workload();
    let dir = tmp_dir("write");
    let cfg = RunConfig::new(2)
        .search(SearchConfig {
            max_iterations: 3,
            epsilon: 0.01,
            ..SearchConfig::fast()
        })
        .checkpoint(&dir, 1);
    let out = cfg.run(&w.compressed).unwrap();
    assert!(out.result.lnl.is_finite());

    let gens = checkpoint::list_generations(&dir).unwrap();
    assert!(!gens.is_empty(), "cadence 1 must commit generations");
    assert!(
        gens.len() <= checkpoint::KEEP_GENERATIONS,
        "rotation must cap retained generations: {gens:?}"
    );
    // No torn tmp files left behind by the two-phase commit.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "leftover tmp file {name}");
    }

    let ckpt = checkpoint::load_latest(&dir).expect("latest generation must parse");
    assert_eq!(ckpt.header.format_version, checkpoint::CHECKPOINT_VERSION);
    assert_eq!(ckpt.header.scheme, "decentralized");
    assert_eq!(ckpt.header.rank_count, 2);
    assert_eq!(ckpt.header.n_taxa, 8);
    assert_eq!(ckpt.header.n_partitions, 2);
    let snap = &ckpt.payload.snapshot;
    assert!(snap.iteration < cfg.search.max_iterations);
    assert!(f64::from_bits(snap.lnl_bits).is_finite());
    assert_eq!(snap.state.tree.n_taxa(), 8);
    // The checkpointed likelihood is from an earlier boundary; the final
    // result can only be better or equal.
    assert!(out.result.lnl >= f64::from_bits(snap.lnl_bits) - 1e-9);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_continues_to_a_result_at_least_as_good() {
    let w = workload();
    let dir = tmp_dir("resume");

    // Phase 1: a deliberately short run that leaves a checkpoint behind.
    let first = RunConfig::new(2)
        .search(SearchConfig {
            max_iterations: 1,
            epsilon: 0.001,
            ..SearchConfig::fast()
        })
        .checkpoint(&dir, 1)
        .run(&w.compressed)
        .unwrap();

    // Phase 2: resume and keep searching.
    let second = RunConfig::new(2)
        .search(SearchConfig {
            max_iterations: 3,
            epsilon: 0.001,
            ..SearchConfig::fast()
        })
        .resume(&dir)
        .run(&w.compressed)
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert!(
        second.result.lnl >= first.result.lnl - 1e-6,
        "resumed run must not be worse: {} vs {}",
        second.result.lnl,
        first.result.lnl
    );
}

#[test]
fn resume_with_different_rank_count() {
    // The checkpoint stores only replicated state, so the rank count is
    // free to change across restarts (a real operational need on
    // clusters) — but only when both runs use reproducible reductions,
    // where the lnL trajectory is rank-count-invariant by construction. A
    // fast-mode trajectory is a function of the rank count, so resuming it
    // on a different count is refused as a silent fork.
    let w = workload();
    let dir = tmp_dir("ranks");

    RunConfig::new(3)
        .reduce(ReduceChoice::Reproducible)
        .search(SearchConfig {
            max_iterations: 1,
            ..SearchConfig::fast()
        })
        .checkpoint(&dir, 1)
        .run(&w.compressed)
        .unwrap();
    assert_eq!(checkpoint::load_latest(&dir).unwrap().header.rank_count, 3);

    let err = RunConfig::new(2)
        .search(SearchConfig {
            max_iterations: 2,
            ..SearchConfig::fast()
        })
        .resume(&dir)
        .run(&w.compressed)
        .unwrap_err();
    match err {
        RunError::Checkpoint(CheckpointError::Mismatch { field, .. }) => {
            assert_eq!(field, "rank_count");
        }
        other => panic!("fast-mode elastic resume must be refused: {other:?}"),
    }

    let out = RunConfig::new(2)
        .reduce(ReduceChoice::Reproducible)
        .search(SearchConfig {
            max_iterations: 2,
            ..SearchConfig::fast()
        })
        .resume(&dir)
        .run(&w.compressed)
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.result.lnl.is_finite());
}

#[test]
fn resume_with_mismatched_seed_names_the_field() {
    // Strict header fields (seed drives the starting topology) refuse to
    // resume, with a structured error naming the offending field.
    let w = workload();
    let dir = tmp_dir("seedmm");

    RunConfig::new(2)
        .seed(41)
        .search(SearchConfig {
            max_iterations: 1,
            ..SearchConfig::fast()
        })
        .checkpoint(&dir, 1)
        .run(&w.compressed)
        .unwrap();

    let err = RunConfig::new(2)
        .seed(42)
        .search(SearchConfig {
            max_iterations: 1,
            ..SearchConfig::fast()
        })
        .resume(&dir)
        .run(&w.compressed)
        .unwrap_err();
    std::fs::remove_dir_all(&dir).ok();
    match err {
        RunError::Checkpoint(CheckpointError::Mismatch { field, .. }) => {
            assert_eq!(field, "seed");
        }
        other => panic!("expected a seed mismatch, got {other}"),
    }
}

#[test]
fn crash_mid_write_leaves_previous_generation_loadable() {
    // Regression for the historical non-atomic `save`: simulate a crash
    // mid-write (a torn `.tmp` alongside a truncated newer generation) and
    // check the previous intact generation still loads.
    let w = workload();
    let dir = tmp_dir("torn");
    RunConfig::new(2)
        .search(SearchConfig {
            max_iterations: 2,
            epsilon: 0.001,
            ..SearchConfig::fast()
        })
        .checkpoint(&dir, 1)
        .run(&w.compressed)
        .unwrap();

    let gens = checkpoint::list_generations(&dir).unwrap();
    let (last_seq, last_path) = gens.last().unwrap().clone();
    let intact = checkpoint::load(&last_path).unwrap();

    // A crash between `write` and `rename` leaves a partial tmp file…
    let bytes = std::fs::read(&last_path).unwrap();
    std::fs::write(dir.join("gen-99999999.ckpt.tmp"), &bytes[..bytes.len() / 3]).unwrap();
    // …and a crash *during* an (imagined pre-atomic) in-place write leaves
    // a truncated newer generation.
    let torn = checkpoint::generation_path(&dir, last_seq + 1);
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();

    let recovered = checkpoint::load_latest(&dir).expect("must fall back to the intact gen");
    assert_eq!(recovered.header, intact.header);
    assert_eq!(checkpoint::encode(&recovered), checkpoint::encode(&intact));

    // And the torn generation alone reports a structured error.
    let err = checkpoint::load(&torn).unwrap_err();
    assert!(
        matches!(
            err,
            CheckpointError::Corrupt { .. } | CheckpointError::Io(_)
        ),
        "torn file must yield a structured error, got {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint that cannot be written (the "directory" is a regular file —
/// the portable stand-in for `ENOSPC`) must fail the run with the I/O error.
/// Before the drivers were merged the writer rank panicked outside any
/// collective and its peers parked in their next one forever, so the run
/// is watched from outside: a hang fails the test instead of the suite.
#[test]
fn a_checkpoint_write_error_fails_the_run_instead_of_hanging() {
    let w = workload();
    for scheme in [Scheme::Decentralized, Scheme::ForkJoin] {
        let dir = tmp_dir(&format!("unwritable_{scheme:?}"));
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("not-a-directory");
        std::fs::write(&blocker, b"occupied").unwrap();
        let cfg = RunConfig::new(2)
            .scheme(scheme)
            .search(SearchConfig {
                max_iterations: 2,
                ..SearchConfig::fast()
            })
            .checkpoint(&blocker, 1);
        let aln = w.compressed.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(cfg.run(&aln).map(|out| out.result.lnl));
        });
        let t0 = std::time::Instant::now();
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{scheme:?}: the run hung on a checkpoint write error"));
        match outcome {
            Err(RunError::Checkpoint(CheckpointError::Io(_))) => {}
            other => panic!("{scheme:?}: expected a checkpoint I/O error, got {other:?}"),
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(30),
            "{scheme:?}: took {:?} to report the error",
            t0.elapsed()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

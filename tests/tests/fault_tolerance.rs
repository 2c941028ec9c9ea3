//! §V fault tolerance: ranks die mid-search, survivors redistribute the
//! dead rank's data and finish the inference from the replicated state.

use exa_phylo::tree::bipartitions::rf_distance;
use exa_search::{KillSpec, SearchConfig};
use exa_simgen::workloads;
use examl_core::fault::FaultPlan;
use examl_core::{RunConfig, RunError};

fn workload(seed: u64) -> workloads::Workload {
    workloads::partitioned(8, 2, 100, seed)
}

fn cfg(n_ranks: usize, plan: FaultPlan) -> RunConfig {
    let mut cfg = RunConfig::new(n_ranks);
    cfg.search = SearchConfig {
        max_iterations: 3,
        epsilon: 0.01,
        ..SearchConfig::fast()
    };
    cfg.seed = 21;
    cfg.faults.plan = plan;
    cfg
}

#[test]
fn single_rank_failure_is_survived() {
    let w = workload(5);
    let baseline = cfg(4, FaultPlan::none()).run(&w.compressed).unwrap();
    let faulted = cfg(4, FaultPlan::kill(2, 1)).run(&w.compressed).unwrap();

    // The run completes and reaches (essentially) the same optimum: the
    // survivors redo the interrupted iteration on redistributed data, and
    // since the search state is fully replicated the trajectory is
    // identical up to floating-point summation order across rank counts.
    assert!(faulted.result.lnl.is_finite());
    assert!(
        (faulted.result.lnl - baseline.result.lnl).abs() < 1.0,
        "faulted {} vs baseline {}",
        faulted.result.lnl,
        baseline.result.lnl
    );
    assert_eq!(
        rf_distance(&faulted.state.tree, &baseline.state.tree),
        0,
        "same final topology with and without failure"
    );
    assert_eq!(faulted.survivors, vec![0, 1, 3]);
}

#[test]
fn failure_of_rank_zero_is_survived() {
    // There is no master: rank 0 is as expendable as any other (the paper's
    // §V contrast with fork-join, where a master death is catastrophic).
    let w = workload(9);
    let out = cfg(3, FaultPlan::kill(0, 1)).run(&w.compressed).unwrap();
    assert!(out.result.lnl.is_finite());
    assert_eq!(out.survivors, vec![1, 2]);
}

#[test]
fn two_failures_in_sequence_are_survived() {
    let w = workload(13);
    let plan = FaultPlan::kill(1, 1).and_kill(3, 2);
    let baseline = cfg(4, FaultPlan::none()).run(&w.compressed).unwrap();
    let out = cfg(4, plan).run(&w.compressed).unwrap();
    assert!(out.result.lnl.is_finite());
    assert_eq!(out.survivors, vec![0, 2]);
    assert!(
        (out.result.lnl - baseline.result.lnl).abs() < 1.0,
        "{} vs {}",
        out.result.lnl,
        baseline.result.lnl
    );
}

#[test]
fn simultaneous_failures_are_survived() {
    let w = workload(17);
    let plan = FaultPlan::kill(1, 1).and_kill(2, 1);
    let out = cfg(4, plan).run(&w.compressed).unwrap();
    assert!(out.result.lnl.is_finite());
    assert_eq!(out.survivors, vec![0, 3]);
}

#[test]
fn failure_under_mps_distribution() {
    let w = workloads::partitioned(8, 6, 60, 19);
    let mut c = cfg(3, FaultPlan::kill(1, 1));
    c.strategy = exa_sched::Strategy::MonolithicLpt;
    let out = c.run(&w.compressed).unwrap();
    assert!(out.result.lnl.is_finite());
    assert_eq!(out.survivors, vec![0, 2]);
}

#[test]
fn failure_under_psr_model() {
    // PSR per-site rates are data-local; recovery resets them on the new
    // owners and the next optimization round re-fits them.
    let w = workload(23);
    let mut c = cfg(3, FaultPlan::kill(2, 1));
    c.rate_model = exa_phylo::model::rates::RateModelKind::Psr;
    let out = c.run(&w.compressed).unwrap();
    assert!(out.result.lnl.is_finite());
}

#[test]
fn heartbeat_file_survives_a_change_of_writer() {
    // The lowest-id active rank writes the heartbeat file. When rank 0 dies
    // the next writer must append: the records rank 0 wrote before dying
    // stay, and the health report counts every line.
    let w = workload(9);
    let path = std::env::temp_dir().join(format!("examl_ft_health_{}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mut c = cfg(3, FaultPlan::kill(0, 1));
    c.health_out = Some(path.clone());
    let out = c.run(&w.compressed).unwrap();
    assert_eq!(out.survivors, vec![1, 2]);

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let iterations: Vec<u64> = text
        .lines()
        .map(|l| {
            serde_json::from_str::<exa_obs::HeartbeatRecord>(l)
                .expect("heartbeat parses")
                .iteration
        })
        .collect();
    assert_eq!(
        iterations.first(),
        Some(&0),
        "the dead writer's records were wiped: {iterations:?}"
    );
    assert!(
        iterations.windows(2).all(|w| w[0] <= w[1]),
        "iterations must never decrease: {iterations:?}"
    );
    assert_eq!(out.health.heartbeats, iterations.len() as u64);
}

#[test]
fn resumed_run_appends_to_the_heartbeat_file() {
    // A resumed attempt continues the job's heartbeat history (the daemon
    // serves it as `GET /job-health/<id>`); only a fresh run truncates.
    let w = workload(53);
    let dir = std::env::temp_dir().join(format!("examl_ft_append_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let health = dir.join("health.jsonl");
    let mut c = cfg(2, FaultPlan::none()).checkpoint(dir.join("ckpt"), 1);
    c.health_out = Some(health.clone());
    // A stale file from an unrelated earlier run must not leak into a
    // fresh one.
    std::fs::write(&health, "stale\n").unwrap();

    let mut killed = c.clone();
    killed.faults.kill = Some(KillSpec {
        after_checkpoints: 1,
        rank: None,
    });
    assert!(matches!(
        killed.run(&w.compressed),
        Err(RunError::Killed { .. })
    ));
    let first_attempt = std::fs::read_to_string(&health).unwrap();
    assert!(!first_attempt.contains("stale"), "fresh runs truncate");
    let first_lines = first_attempt.lines().count();
    assert!(first_lines >= 1, "the killed attempt wrote heartbeats");

    let resumed = c.resume(dir.join("ckpt")).run(&w.compressed).unwrap();
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

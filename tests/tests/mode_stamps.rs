//! Artifact pin for the resolved compute modes: every place a run stamps
//! the modes it computed with — `RunOutcome`, heartbeats, `HealthReport`,
//! the Chrome trace's `otherData`, the checkpoint header and the first six
//! trace marks of every rank — asserted against literals captured from the
//! build *before* the per-mode plumbing was folded into one `Modes` record
//! (commit 8507595). Every mode is off its default so a sink that silently
//! fell back to a default cannot pass. Same literal-from-parent technique
//! as `evaluator_golden.rs`; a mismatch prints what the current build
//! stamps.

use exa_comm::ReduceChoice;
use exa_obs::{EventKind, HeartbeatRecord};
use exa_phylo::engine::{ThreadCount, ThreadsChoice};
use exa_phylo::{GradientChoice, KernelChoice, RepeatsChoice};
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_core::{checkpoint, RunConfig, Scheme};

/// What the de-centralized run stamped, one sink per line.
const DECENTRALIZED: &str = "\
outcome kernel=scalar site_repeats=off reduce=reproducible threads=2 gradient=off
heartbeat kernel=Some(\"scalar\") reduce=Some(\"reproducible\") threads=Some(2) gradient=Some(\"off\")
health kernel=Some(\"scalar\") site_repeats=Some(\"off\") reduce=Some(\"reproducible\") threads=Some(2) gradient=Some(\"off\")
otherData {\"kernel_backend\":\"scalar\",\"site_repeats\":\"off\",\"reduce_mode\":\"reproducible\",\"threads\":\"2\",\"batch\":\"off\",\"gradient\":\"off\"}
header scheme=decentralized kernel=scalar site_repeats=off reduce_mode=Some(\"reproducible\") gradient=Some(\"off\")
marks rank0 kernel_backend:scalar site_repeats:off reduce_mode:reproducible threads:2 gradient:off batch:off
marks rank1 kernel_backend:scalar site_repeats:off reduce_mode:reproducible threads:2 gradient:off batch:off
";

/// What the fork-join run stamped (no heartbeats: only the de-centralized
/// hooks write them).
const FORKJOIN: &str = "\
outcome kernel=scalar site_repeats=off reduce=reproducible threads=2 gradient=off
health kernel=Some(\"scalar\") site_repeats=Some(\"off\") reduce=Some(\"reproducible\") threads=Some(2) gradient=Some(\"off\")
otherData {\"kernel_backend\":\"scalar\",\"site_repeats\":\"off\",\"reduce_mode\":\"reproducible\",\"threads\":\"2\",\"batch\":\"off\",\"gradient\":\"off\"}
header scheme=forkjoin kernel=scalar site_repeats=off reduce_mode=Some(\"reproducible\") gradient=Some(\"off\")
marks rank0 kernel_backend:scalar site_repeats:off reduce_mode:reproducible threads:2 gradient:off batch:off
marks rank1 kernel_backend:scalar site_repeats:off reduce_mode:reproducible threads:2 gradient:off batch:off
";

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("examl_modes_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run 2 ranks with every mode off its default and render every stamp.
fn stamps(name: &str, scheme: Scheme) -> String {
    use std::fmt::Write as _;
    let w = workloads::partitioned(8, 2, 60, 41);
    let dir = tmp_dir(name);
    let health_path = dir.join("health.jsonl");
    // What an earlier run left at the same path must not be counted as
    // this run's: a fresh run starts its heartbeat file empty.
    std::fs::write(&health_path, "stale heartbeat of an earlier run\n").unwrap();
    let out = RunConfig::new(2)
        .scheme(scheme)
        .kernel(KernelChoice::Scalar)
        .site_repeats(RepeatsChoice::Off)
        .reduce(ReduceChoice::Reproducible)
        .threads(ThreadsChoice::Count(ThreadCount::new(2)))
        .gradient(GradientChoice::Off)
        .batch(false)
        .seed(17)
        .search(SearchConfig {
            max_iterations: 2,
            ..SearchConfig::fast()
        })
        .checkpoint(dir.join("ckpt"), 1)
        .health_out(&health_path)
        .collect_trace(true)
        .run(&w.compressed)
        .expect("pinned run must complete");

    let mut s = String::new();
    writeln!(
        s,
        "outcome kernel={} site_repeats={} reduce={} threads={} gradient={}",
        out.kernel.label(),
        out.site_repeats.label(),
        out.reduce.label(),
        out.threads,
        out.gradient.label()
    )
    .unwrap();
    let text = std::fs::read_to_string(&health_path).expect("the run started its heartbeat file");
    assert!(!text.contains("stale"), "heartbeat file not truncated");
    assert_eq!(out.health.heartbeats, text.lines().count() as u64);
    if scheme == Scheme::ForkJoin {
        assert_eq!(out.health.heartbeats, 0, "only replicas write heartbeats");
    }
    if let Some(last) = text.lines().last() {
        let hb: HeartbeatRecord = serde_json::from_str(last).expect("heartbeat parses");
        writeln!(
            s,
            "heartbeat kernel={:?} reduce={:?} threads={:?} gradient={:?}",
            hb.kernel, hb.reduce, hb.threads, hb.gradient
        )
        .unwrap();
    }
    let h = &out.health;
    writeln!(
        s,
        "health kernel={:?} site_repeats={:?} reduce={:?} threads={:?} gradient={:?}",
        h.kernel, h.site_repeats, h.reduce, h.threads, h.gradient
    )
    .unwrap();
    let trace = out.trace.as_ref().expect("collect_trace was set");
    let chrome = exa_obs::chrome_trace(trace);
    let other = serde::field(chrome.as_map("chrome trace").unwrap(), "otherData");
    writeln!(s, "otherData {}", serde_json::to_string(other).unwrap()).unwrap();
    let header = checkpoint::load_latest(&dir.join("ckpt"))
        .expect("cadence 1 committed a generation")
        .header;
    writeln!(
        s,
        "header scheme={} kernel={} site_repeats={} reduce_mode={:?} gradient={:?}",
        header.scheme, header.kernel, header.site_repeats, header.reduce_mode, header.gradient
    )
    .unwrap();
    for rank in 0..trace.n_ranks() {
        let marks: Vec<&str> = trace
            .events(rank)
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Mark { label } => Some(label.as_str()),
                _ => None,
            })
            .take(6)
            .collect();
        writeln!(s, "marks rank{rank} {}", marks.join(" ")).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
    s
}

fn check(scheme_label: &str, actual: &str, pinned: &str) {
    assert_eq!(
        actual, pinned,
        "{scheme_label} mode stamps changed; current build gives:\n{actual}"
    );
}

#[test]
fn decentralized_run_stamps_the_pinned_modes_everywhere() {
    check(
        "de-centralized",
        &stamps("dec", Scheme::Decentralized),
        DECENTRALIZED,
    );
}

#[test]
fn forkjoin_run_stamps_the_pinned_modes_everywhere() {
    check("fork-join", &stamps("fj", Scheme::ForkJoin), FORKJOIN);
}

/// The daemon journals job specs as `RunConfig` JSON, so the serialized
/// keys and their order are a wire format: pinned against the parent
/// commit's output, and the literal must deserialize back to itself.
#[test]
fn run_config_json_keeps_its_keys_and_their_order() {
    const PINNED: &str = r#"{"scheme":"Decentralized","n_ranks":3,"rate_model":"Gamma","branch_mode":"Joint","strategy":"Cyclic","search":{"spr_radius":5,"epsilon":0.1,"max_iterations":10,"smoothing_passes":2,"optimize_model":true,"model_tol":0.001},"seed":17,"starting_tree":"Random","checkpoint_out":"ckpt","checkpoint_every":2,"checkpoint_keep":3,"checkpoint_every_secs":null,"preempt":null,"resume_from":null,"inject_kill":null,"fault_plan":{"failures":[]},"verify_replicas":0,"divergence_fault":null,"health_out":"health.jsonl","kernel":"Scalar","kernel_override":null,"site_repeats":"Off","site_repeats_override":null,"reduce":"Reproducible","reduce_override":["Fast","Reproducible"],"threads":{"Count":2},"threads_override":null,"gradient":"Off","gradient_override":null,"batch":false,"resize_plan":[[1,2]],"collect_trace":false,"bootstrap":null}"#;
    let cfg = RunConfig::new(3)
        .kernel(KernelChoice::Scalar)
        .site_repeats(RepeatsChoice::Off)
        .reduce(ReduceChoice::Reproducible)
        .threads(ThreadsChoice::Count(ThreadCount::new(2)))
        .gradient(GradientChoice::Off)
        .batch(false)
        .reduce_override(vec![
            exa_comm::ReduceKind::Fast,
            exa_comm::ReduceKind::Reproducible,
        ])
        .resize_at(1, 2)
        .checkpoint("ckpt", 2)
        .health_out("health.jsonl")
        .seed(17);
    assert_eq!(serde_json::to_string(&cfg).unwrap(), PINNED);
    let back: RunConfig = serde_json::from_str(PINNED).expect("pinned spec parses");
    assert_eq!(serde_json::to_string(&back).unwrap(), PINNED);
}

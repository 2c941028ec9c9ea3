//! Artifact pin for the resolved compute modes: every place a run stamps
//! the modes it computed with — `RunOutcome`, heartbeats, `HealthReport`,
//! the Chrome trace's `otherData`, the checkpoint header and the first six
//! trace marks of every rank — asserted against literals captured from the
//! build *before* the per-mode plumbing was folded into one `Modes` record
//! (commit 8507595). Every mode is off its default so a sink that silently
//! fell back to a default cannot pass. Same literal-from-parent technique
//! as `evaluator_golden.rs`; a mismatch prints what the current build
//! stamps.
//!
//! The `heartbeat`, `health`, `otherData` and `marks` lines changed once
//! since, with the one sanctioned wire bump (ROADMAP 7b): the sinks carry
//! one `modes` table written from `Modes::labels` instead of a hand-picked
//! subset of flat fields each, and the trace names a mode by the same key
//! as the health JSON (`kernel`, `reduce`; formerly `kernel_backend`,
//! `reduce_mode`). `outcome`, `header` and the `RunConfig` JSON are
//! byte-for-byte what commit 8507595 wrote.

use exa_comm::ReduceChoice;
use exa_obs::{EventKind, HeartbeatRecord};
use exa_phylo::engine::{ThreadCount, ThreadsChoice};
use exa_phylo::{GradientChoice, KernelChoice, RepeatsChoice};
use exa_search::{KillSpec, SearchConfig};
use exa_simgen::workloads;
use examl_core::{checkpoint, Faults, RunConfig, Scheme};

/// What the de-centralized run stamped, one sink per line.
const DECENTRALIZED: &str = "\
outcome kernel=scalar site_repeats=off reduce=reproducible threads=2 gradient=off
heartbeat modes=Some({\"batch\": \"off\", \"gradient\": \"off\", \"kernel\": \"scalar\", \"reduce\": \"reproducible\", \"site_repeats\": \"off\", \"threads\": \"2\"})
health modes=Some({\"batch\": \"off\", \"gradient\": \"off\", \"kernel\": \"scalar\", \"reduce\": \"reproducible\", \"site_repeats\": \"off\", \"threads\": \"2\"})
otherData {\"kernel\":\"scalar\",\"site_repeats\":\"off\",\"reduce\":\"reproducible\",\"threads\":\"2\",\"gradient\":\"off\",\"batch\":\"off\"}
header scheme=decentralized kernel=scalar site_repeats=off reduce_mode=Some(\"reproducible\") gradient=Some(\"off\")
marks rank0 mode:kernel=scalar mode:site_repeats=off mode:reduce=reproducible mode:threads=2 mode:gradient=off mode:batch=off
marks rank1 mode:kernel=scalar mode:site_repeats=off mode:reduce=reproducible mode:threads=2 mode:gradient=off mode:batch=off
";

/// What the fork-join run stamped (no heartbeats: only the de-centralized
/// hooks write them).
const FORKJOIN: &str = "\
outcome kernel=scalar site_repeats=off reduce=reproducible threads=2 gradient=off
health modes=Some({\"batch\": \"off\", \"gradient\": \"off\", \"kernel\": \"scalar\", \"reduce\": \"reproducible\", \"site_repeats\": \"off\", \"threads\": \"2\"})
otherData {\"kernel\":\"scalar\",\"site_repeats\":\"off\",\"reduce\":\"reproducible\",\"threads\":\"2\",\"gradient\":\"off\",\"batch\":\"off\"}
header scheme=forkjoin kernel=scalar site_repeats=off reduce_mode=Some(\"reproducible\") gradient=Some(\"off\")
marks rank0 mode:kernel=scalar mode:site_repeats=off mode:reduce=reproducible mode:threads=2 mode:gradient=off mode:batch=off
marks rank1 mode:kernel=scalar mode:site_repeats=off mode:reduce=reproducible mode:threads=2 mode:gradient=off mode:batch=off
";

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("examl_modes_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 2 ranks, two iterations, every mode off its default.
fn every_mode_off_its_default(scheme: Scheme) -> RunConfig {
    RunConfig::new(2)
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
}

/// What a run reports computing with is `RunConfig::modes`, under either
/// scheme: every rank resolves the one configuration on the one host.
#[test]
fn outcome_and_health_report_the_configured_modes() {
    let w = workloads::partitioned(8, 2, 60, 41);
    for scheme in [Scheme::Decentralized, Scheme::ForkJoin] {
        let cfg = every_mode_off_its_default(scheme);
        let modes = cfg.modes();
        assert_eq!(
            modes.labels(),
            [
                ("kernel", "scalar"),
                ("site_repeats", "off"),
                ("reduce", "reproducible"),
                ("threads", "2"),
                ("gradient", "off"),
                ("batch", "off"),
            ]
        );
        let out = cfg.run(&w.compressed).expect("the run completes");
        assert_eq!(
            (out.kernel, out.site_repeats, out.reduce, out.gradient),
            (
                modes.kernel,
                modes.site_repeats,
                modes.reduce,
                modes.gradient
            ),
            "{scheme:?}"
        );
        assert_eq!(out.threads, modes.threads.get(), "{scheme:?}");
        assert_eq!(out.health.modes, Some(modes.label_map()), "{scheme:?}");
    }
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
    let out = every_mode_off_its_default(scheme)
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
        writeln!(s, "heartbeat modes={:?}", hb.modes).unwrap();
    }
    writeln!(s, "health modes={:?}", out.health.modes).unwrap();
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
/// commit's output, and the literal must deserialize back to itself. The
/// faults are process-local and always serialize as `null` (re-captured
/// once, when the eight fault fields became one).
#[test]
fn run_config_json_keeps_its_keys_and_their_order() {
    const PINNED: &str = r#"{"scheme":"Decentralized","n_ranks":3,"rate_model":"Gamma","branch_mode":"Joint","strategy":"Cyclic","search":{"spr_radius":5,"epsilon":0.1,"max_iterations":10,"smoothing_passes":2,"optimize_model":true,"model_tol":0.001},"seed":17,"starting_tree":"Random","checkpoint_out":"ckpt","checkpoint_every":2,"checkpoint_keep":3,"checkpoint_every_secs":null,"preempt":null,"resume_from":null,"faults":null,"verify_replicas":0,"health_out":"health.jsonl","kernel":"Scalar","site_repeats":"Off","reduce":"Reproducible","threads":{"Count":2},"gradient":"Off","batch":false,"resize_plan":[[1,2]],"collect_trace":false,"bootstrap":null}"#;
    let cfg = pinned_config().faults(Faults {
        kill: Some(KillSpec {
            after_checkpoints: 1,
            rank: Some(1),
        }),
        ..Faults::none()
    });
    assert_eq!(serde_json::to_string(&cfg).unwrap(), PINNED);
    let back: RunConfig = serde_json::from_str(PINNED).expect("pinned spec parses");
    assert_eq!(serde_json::to_string(&back).unwrap(), PINNED);
    assert_eq!(back.faults, Faults::none());
}

/// Specs journaled before the fold (commit 88a0e26: eight fault fields,
/// the forced reduce table among them) must still replay: every other
/// field is kept, and the faults are dropped.
#[test]
fn run_config_json_written_before_the_fault_fold_still_parses() {
    const PARENT: &str = r#"{"scheme":"Decentralized","n_ranks":3,"rate_model":"Gamma","branch_mode":"Joint","strategy":"Cyclic","search":{"spr_radius":5,"epsilon":0.1,"max_iterations":10,"smoothing_passes":2,"optimize_model":true,"model_tol":0.001},"seed":17,"starting_tree":"Random","checkpoint_out":"ckpt","checkpoint_every":2,"checkpoint_keep":3,"checkpoint_every_secs":null,"preempt":null,"resume_from":null,"inject_kill":null,"fault_plan":{"failures":[]},"verify_replicas":0,"divergence_fault":null,"health_out":"health.jsonl","kernel":"Scalar","kernel_override":null,"site_repeats":"Off","site_repeats_override":null,"reduce":"Reproducible","reduce_override":["Fast","Reproducible"],"threads":{"Count":2},"threads_override":null,"gradient":"Off","gradient_override":null,"batch":false,"resize_plan":[[1,2]],"collect_trace":false,"bootstrap":null}"#;
    let back: RunConfig = serde_json::from_str(PARENT).expect("parent spec parses");
    assert_eq!(back.faults, Faults::none());
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        serde_json::to_string(&pinned_config()).unwrap()
    );
}

/// The run both `RunConfig` literals describe, but for its faults.
fn pinned_config() -> RunConfig {
    RunConfig::new(3)
        .kernel(KernelChoice::Scalar)
        .site_repeats(RepeatsChoice::Off)
        .reduce(ReduceChoice::Reproducible)
        .threads(ThreadsChoice::Count(ThreadCount::new(2)))
        .gradient(GradientChoice::Off)
        .batch(false)
        .resize_at(1, 2)
        .checkpoint("ckpt", 2)
        .health_out("health.jsonl")
        .seed(17)
}

/// The other half of the wire bump: lines written by the build before it
/// (commit 5660473 — flat `kernel` / `reduce` / `threads` / `gradient`
/// fields, `threads` a number) still parse under the new structs. The flat
/// fields are ignored, `modes` is `None`, everything else is kept.
#[test]
fn lines_written_before_the_wire_bump_still_parse() {
    use exa_obs::ServeHeartbeat;
    const HEARTBEAT: &str = r#"{"iteration":1,"lnl":-557.9310030996219,"spr_accepts":5,"collectives_per_sec":39508.439160638474,"comm_bytes":20278,"imbalance":1.0014179614887557,"sentinel_syncs":0,"divergence":"ok","kernel":"simd","repeat_ratio":1.6175385283264598,"clv_saved":68280,"last_checkpoint_iter":1,"checkpoint_write_ms":0.8893730000000001,"reduce":"fast","threads":2,"gradient":"on"}"#;
    const SERVE: &str = r#"{"seq":1,"queue_depth":0,"running":0,"workers_idle":1,"completed":0,"failed":0,"cancelled":0,"preemptions":0,"resumes":0,"max_wait_ms":0.0,"mean_wait_ms":0.0,"tenants":[],"version":"0.1.0","kernel":"simd","site_repeats":"on","uptime_secs":1.01325493,"reduce":"fast","gradient":"on"}"#;

    let hb = HeartbeatRecord::from_json_line(HEARTBEAT).expect("parent heartbeat parses");
    assert_eq!(hb.modes, None);
    assert_eq!(hb.iteration, 1);
    assert_eq!(hb.lnl, -557.9310030996219);
    assert_eq!(hb.clv_saved, Some(68280));
    assert_eq!(hb.last_checkpoint_iter, Some(1));

    let serve = ServeHeartbeat::from_json_line(SERVE).expect("parent serve heartbeat parses");
    assert_eq!(serve.modes, None);
    assert_eq!(serve.version.as_deref(), Some("0.1.0"));
    assert_eq!(serve.uptime_secs, Some(1.01325493));
}

//! End-to-end daemon tests: submit/preempt/resume/cancel against a real
//! worker pool running real (small) likelihood searches, plus journal
//! replay across a daemon restart.
//!
//! The central claim mirrors the kill/resume cells of the reproducibility
//! matrix one level up: a job that was checkpoint-preempted by a
//! higher-priority submission — or cut short by a daemon shutdown — must
//! finish with a final likelihood **bitwise** identical to the same job run
//! uninterrupted.

use exa_bio::partition::PartitionScheme;
use exa_bio::patterns::CompressedAlignment;
use exa_obs::ServeHeartbeat;
use exa_search::SearchConfig;
use exa_serve::daemon::{Daemon, DaemonConfig};
use exa_serve::journal::Journal;
use exa_serve::{JobSpec, JobState, JobStatus};
use exa_simgen::workloads;
use examl_core::RunConfig;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A spool directory plus a PHYLIP alignment file the daemon can load.
struct Fixture {
    root: PathBuf,
    alignment: PathBuf,
    /// The alignment exactly as the daemon will see it (text round-trip,
    /// unpartitioned) — references must run on the same patterns.
    compressed: CompressedAlignment,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let root = std::env::temp_dir().join(format!("examl_serve_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        let w = workloads::partitioned(8, 2, 100, 41);
        let text = exa_bio::phylip::write_phylip(&w.alignment);
        let alignment = root.join("aln.phy");
        std::fs::write(&alignment, &text).unwrap();
        let parsed = exa_bio::phylip::parse_phylip_auto(&text).unwrap();
        let scheme = PartitionScheme::unpartitioned(parsed.n_sites());
        let compressed = CompressedAlignment::build(&parsed, &scheme);
        Fixture {
            root,
            alignment,
            compressed,
        }
    }

    fn spool(&self) -> PathBuf {
        self.root.join("spool")
    }

    fn spec(&self, tenant: &str, priority: u32, iterations: usize) -> JobSpec {
        JobSpec {
            tenant: tenant.to_string(),
            priority,
            cost: 1,
            alignment: self.alignment.clone(),
            partitions: None,
            config: RunConfig::new(2).seed(23).search(SearchConfig {
                max_iterations: iterations,
                epsilon: 1e-9,
                ..SearchConfig::fast()
            }),
        }
    }

    /// The lnL the daemon must reproduce for `spec`, computed by running
    /// the identical config uninterrupted (checkpointing on, as the daemon
    /// forces it).
    fn reference_lnl(&self, spec: &JobSpec, tag: &str) -> f64 {
        let dir = self.root.join(format!("ref_{tag}"));
        let out = spec
            .config
            .clone()
            .checkpoint(&dir, 1)
            .run(&self.compressed)
            .unwrap();
        out.result.lnl
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

fn wait_for(daemon: &Daemon, id: u64, pred: impl Fn(&JobState) -> bool, what: &str) -> JobState {
    let start = Instant::now();
    loop {
        let st = daemon.status(id).expect("job must exist").state;
        if pred(&st) {
            return st;
        }
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "timed out waiting for job {id} to be {what}; last state {st:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn completed_lnl(state: &JobState) -> f64 {
    match state {
        JobState::Completed { lnl, .. } => *lnl,
        other => panic!("expected Completed, got {other:?}"),
    }
}

#[test]
fn preempted_job_resumes_to_bitwise_identical_lnl() {
    let fx = Fixture::new("preempt");
    let low = fx.spec("batch", 0, 10);
    let high = fx.spec("interactive", 9, 2);
    let low_ref = fx.reference_lnl(&low, "low");
    let high_ref = fx.reference_lnl(&high, "high");

    // One worker: the high-priority submission can only run by preempting.
    let mut cfg = DaemonConfig::new(fx.spool());
    cfg.workers = 1;
    let daemon = Daemon::start(cfg).unwrap();

    let low_id = daemon.submit(low).unwrap();
    wait_for(&daemon, low_id, |s| *s == JobState::Running, "running");
    let high_id = daemon.submit(high).unwrap();

    let high_state = wait_for(&daemon, high_id, JobState::is_terminal, "terminal");
    let low_state = wait_for(&daemon, low_id, JobState::is_terminal, "terminal");

    let low_status = daemon.status(low_id).unwrap();
    assert!(
        low_status.preemptions >= 1,
        "the low-priority job must have been checkpoint-preempted"
    );
    assert_eq!(
        completed_lnl(&low_state).to_bits(),
        low_ref.to_bits(),
        "preempt/resume must preserve the final likelihood bitwise"
    );
    assert_eq!(completed_lnl(&high_state).to_bits(), high_ref.to_bits());

    let hb = daemon.health();
    assert!(hb.preemptions >= 1, "health must count the preemption");
    assert!(hb.resumes >= 1, "health must count the resume");
    assert_eq!(hb.completed, 2);
    daemon.shutdown();
}

#[test]
fn cancel_hits_queued_and_running_jobs() {
    let fx = Fixture::new("cancel");
    let mut cfg = DaemonConfig::new(fx.spool());
    cfg.workers = 1;
    let daemon = Daemon::start(cfg).unwrap();

    let running = daemon.submit(fx.spec("a", 0, 10)).unwrap();
    wait_for(&daemon, running, |s| *s == JobState::Running, "running");
    // Same priority: these queue behind the running job.
    let queued_a = daemon.submit(fx.spec("a", 0, 2)).unwrap();
    let queued_b = daemon.submit(fx.spec("a", 0, 2)).unwrap();

    // Cancelling a queued job is immediate.
    assert!(daemon.cancel(queued_b).unwrap());
    assert_eq!(
        daemon.status(queued_b).unwrap().state,
        JobState::Cancelled,
        "queued job must cancel synchronously"
    );

    // Cancelling the running job checkpoint-preempts it into `Cancelled`
    // rather than re-queueing it.
    assert!(daemon.cancel(running).unwrap());
    let st = wait_for(&daemon, running, JobState::is_terminal, "terminal");
    assert_eq!(st, JobState::Cancelled);

    // The untouched job still completes; cancelling it afterwards is a
    // no-op.
    wait_for(&daemon, queued_a, JobState::is_terminal, "terminal");
    assert!(!daemon.cancel(queued_a).unwrap());

    let hb = daemon.health();
    assert_eq!(hb.cancelled, 2);
    assert_eq!(hb.completed, 1);
    daemon.shutdown();
}

/// A second daemon started on a copy of a live daemon's journal rebuilds
/// the first one's table and counters: every job's state, attempts and
/// preemptions, and health's completed / failed / cancelled / preemptions.
/// The jobs end each way a run can: preempted then completed, completed,
/// cancelled while running, cancelled while queued. Every job is terminal
/// when the copy is taken, so the second daemon has nothing to dispatch
/// and its table holds still while it is read.
#[test]
fn a_live_journal_copy_replays_to_the_same_table_and_counters() {
    let fx = Fixture::new("journal_copy");
    let mut cfg = DaemonConfig::new(fx.spool());
    cfg.workers = 1;
    let daemon = Daemon::start(cfg).unwrap();

    let low = daemon.submit(fx.spec("batch", 0, 10)).unwrap();
    wait_for(&daemon, low, |s| *s == JobState::Running, "running");
    let high = daemon.submit(fx.spec("interactive", 9, 2)).unwrap();
    for id in [high, low] {
        wait_for(&daemon, id, JobState::is_terminal, "terminal");
    }
    let running = daemon.submit(fx.spec("batch", 0, 10)).unwrap();
    wait_for(&daemon, running, |s| *s == JobState::Running, "running");
    let queued = daemon.submit(fx.spec("batch", 0, 2)).unwrap();
    assert!(daemon.cancel(queued).unwrap());
    assert!(daemon.cancel(running).unwrap());
    wait_for(&daemon, running, JobState::is_terminal, "terminal");

    let live = daemon.list();
    assert!(live[0].preemptions >= 1, "{:?}", live[0]);
    assert_eq!(live[2].state, JobState::Cancelled);
    assert_eq!(live[3].state, JobState::Cancelled);
    let copy = fx.root.join("copy");
    std::fs::create_dir_all(&copy).unwrap();
    std::fs::copy(Journal::path_in(&fx.spool()), Journal::path_in(&copy)).unwrap();
    let replayed = Daemon::start(DaemonConfig::new(copy)).unwrap();

    // Everything but `wait_ms`, which the journal does not keep.
    let durable = |jobs: Vec<JobStatus>| {
        jobs.into_iter()
            .map(|s| {
                (
                    s.id,
                    s.tenant,
                    s.priority,
                    s.cost,
                    s.state,
                    s.attempts,
                    s.preemptions,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(durable(replayed.list()), durable(live));
    let counters = |h: ServeHeartbeat| (h.completed, h.failed, h.cancelled, h.preemptions);
    assert_eq!(counters(replayed.health()), counters(daemon.health()));
    replayed.shutdown();
    daemon.shutdown();
}

#[test]
fn shutdown_journal_replay_resumes_to_bitwise_identical_lnl() {
    let fx = Fixture::new("replay");
    let spec = fx.spec("batch", 0, 10);
    let reference = fx.reference_lnl(&spec, "replay");

    let mut cfg = DaemonConfig::new(fx.spool());
    cfg.workers = 1;
    let daemon = Daemon::start(cfg.clone()).unwrap();
    let id = daemon.submit(spec).unwrap();
    wait_for(&daemon, id, |s| *s == JobState::Running, "running");
    // Graceful shutdown: checkpoint-preempt, journal `Preempted`, compact.
    // Two callers at once, as when a client's `shutdown` op wakes the
    // daemon's main thread: whichever comes second must wait for the pool
    // too, or the process would exit under the job's final checkpoint.
    let first = {
        let daemon = daemon.clone();
        std::thread::spawn(move || daemon.shutdown())
    };
    while !daemon.is_shutting_down() {
        std::thread::yield_now();
    }
    daemon.shutdown();
    assert_eq!(
        daemon.status(id).unwrap().state,
        JobState::Queued,
        "shutdown must leave the interrupted job resumable, not running or failed"
    );
    first.join().unwrap();
    drop(daemon);

    // A fresh daemon on the same spool replays the journal and finishes
    // the job from its checkpoint.
    let daemon = Daemon::start(cfg).unwrap();
    let st = daemon.status(id).expect("replay must restore the job");
    assert!(!st.state.is_terminal(), "job must come back queued");
    let state = wait_for(&daemon, id, JobState::is_terminal, "terminal");
    assert_eq!(
        completed_lnl(&state).to_bits(),
        reference.to_bits(),
        "a job finished across a daemon restart must match the reference bitwise"
    );
    assert!(daemon.health().resumes >= 1);
    daemon.shutdown();
}

#[test]
fn resize_grows_and_shrinks_the_worker_pool() {
    let fx = Fixture::new("resize");
    let spec = fx.spec("batch", 0, 3);
    let reference = fx.reference_lnl(&spec, "resize");

    let mut cfg = DaemonConfig::new(fx.spool());
    cfg.workers = 1;
    let daemon = Daemon::start(cfg).unwrap();

    // Grow 1 -> 3: the two extra threads spawn immediately and park idle.
    assert_eq!(daemon.resize(3).unwrap(), (1, 3));
    let start = Instant::now();
    while daemon.health().workers_idle < 3 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "grown workers never parked; last idle {}",
            daemon.health().workers_idle
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(daemon.metrics_text().contains("exa_pool_workers 3"));

    // Shrink 3 -> 1: idle workers wake on the resize notification and
    // drain without touching any job.
    assert_eq!(daemon.resize(1).unwrap(), (3, 1));
    let start = Instant::now();
    while daemon.health().workers_idle > 1 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "excess workers never drained; last idle {}",
            daemon.health().workers_idle
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(daemon.metrics_text().contains("exa_pool_workers 1"));
    assert!(daemon.metrics_text().contains("exa_pool_resizes_total 2"));

    // The surviving worker still runs jobs to the bitwise-exact answer.
    let id = daemon.submit(spec).unwrap();
    let state = wait_for(&daemon, id, JobState::is_terminal, "terminal");
    assert_eq!(completed_lnl(&state).to_bits(), reference.to_bits());
    daemon.shutdown();
}

#[test]
fn a_job_is_traced_only_when_its_spec_asks() {
    use std::io::{Read, Write};
    let fx = Fixture::new("trace_opt_in");
    let plain = fx.spec("batch", 0, 2);
    let mut traced = plain.clone();
    traced.config = traced.config.collect_trace(true);
    let reference = fx.reference_lnl(&plain, "trace_opt_in");

    let daemon = Daemon::start(DaemonConfig::new(fx.spool())).unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accept = exa_serve::http::spawn(daemon.clone(), listener);
    let plain_id = daemon.submit(plain).unwrap();
    let traced_id = daemon.submit(traced).unwrap();

    // Tracing changes what a job leaves behind, not what it computes.
    let artifact = |id: u64| fx.spool().join(format!("jobs/{id:08}/trace.json"));
    for id in [plain_id, traced_id] {
        let status = daemon.wait(id, Duration::from_secs(120)).unwrap();
        assert_eq!(completed_lnl(&status.state).to_bits(), reference.to_bits());
    }
    assert!(
        !artifact(plain_id).exists(),
        "an untraced job wrote a trace"
    );
    let trace: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(artifact(traced_id)).unwrap()).unwrap();
    let events = serde::field(trace.as_map("trace").unwrap(), "traceEvents");
    assert!(!events.as_array("traceEvents").unwrap().is_empty());

    let get = |path: &str| {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\n\r\n").unwrap();
        let mut answer = String::new();
        stream.read_to_string(&mut answer).unwrap();
        answer
    };
    let answer = get(&format!("/trace/{traced_id}"));
    assert!(answer.starts_with("HTTP/1.1 200"), "{answer}");
    assert!(answer.contains("\"traceEvents\""));
    let answer = get(&format!("/trace/{plain_id}"));
    assert!(answer.starts_with("HTTP/1.1 404"), "{answer}");
    assert!(
        answer.ends_with(&format!(
            r#"{{"ok":false,"error":"job {plain_id} was not traced"}}"#
        )),
        "{answer}"
    );
    let answer = get("/trace/99");
    assert!(answer.starts_with("HTTP/1.1 404"), "{answer}");
    assert!(answer.contains("no such job 99"), "{answer}");
    daemon.shutdown();
    accept.join().unwrap();
}

/// Faults are process-local: a spec whose JSON names one — as the specs of
/// older builds could, here a bit flip that trips the sentinel at the third
/// collective — runs fault-free, to the bits of the direct run.
#[test]
fn the_daemon_takes_no_faults_from_the_wire() {
    use std::io::{Read, Write};
    let fx = Fixture::new("no_wire_faults");
    let mut spec = fx.spec("batch", 0, 2);
    spec.config = spec.config.verify_replicas(1);
    let reference = fx.reference_lnl(&spec, "no_wire_faults");
    let json = serde_json::to_string(&spec).unwrap();
    let sentinel_on = r#""verify_replicas":1,"#;
    assert!(json.contains(sentinel_on), "{json}");
    let faulted = json.replace(
        sentinel_on,
        r#""verify_replicas":1,"divergence_fault":{"rank":1,"after_collectives":3,"component":"Alpha"},"#,
    );

    let daemon = Daemon::start(DaemonConfig::new(fx.spool())).unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accept = exa_serve::http::spawn(daemon.clone(), listener);
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let head = format!(
        "POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        faulted.len()
    );
    stream.write_all((head + &faulted).as_bytes()).unwrap();
    let mut answer = String::new();
    stream.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 200"), "{answer}");
    let body: serde::Value =
        serde_json::from_str(answer.split("\r\n\r\n").nth(1).unwrap()).unwrap();
    let id = serde::field(body.as_map("answer").unwrap(), "id")
        .as_u64("id")
        .unwrap();

    let status = daemon.wait(id, Duration::from_secs(120)).unwrap();
    assert_eq!(completed_lnl(&status.state).to_bits(), reference.to_bits());
    daemon.shutdown();
    accept.join().unwrap();
}

/// A spec no run can have is refused at submission, with the reason, and
/// never journaled: a journaled job is one a worker can run.
#[test]
fn the_daemon_refuses_a_spec_no_run_can_have() {
    let fx = Fixture::new("refused");
    let daemon = Daemon::start(DaemonConfig::new(fx.spool())).unwrap();
    let mut fast_resize = fx.spec("batch", 0, 2);
    fast_resize.config = fast_resize
        .config
        .reduce(exa_comm::ReduceChoice::Fast)
        .resize_at(1, 4);
    let mut no_ranks = fx.spec("batch", 0, 2);
    no_ranks.config.n_ranks = 0;
    for (spec, why) in [
        (fast_resize, "--reduce reproducible"),
        (no_ranks, "at least one rank"),
    ] {
        let err = daemon.submit(spec).expect_err("the spec must be refused");
        assert!(err.to_string().contains(why), "{err}");
    }
    let journal = exa_serve::journal::Journal::path_in(&fx.spool());
    let journal = std::fs::read_to_string(journal).unwrap_or_default();
    assert!(!journal.contains("Submitted"), "{journal}");
    assert_eq!(daemon.health().queue_depth, 0);
    daemon.shutdown();
}

/// A submitted file whose PHYLIP header declares 10¹¹ taxa (23 bytes)
/// fails its job with a parse error. The daemon parses alignments in its
/// own process, so the header must not size an allocation: afterwards the
/// daemon still answers `health` and completes a normal job.
#[test]
fn a_hostile_phylip_header_fails_its_job_not_the_daemon() {
    let fx = Fixture::new("hostile_header");
    let daemon = Daemon::start(DaemonConfig::new(fx.spool())).unwrap();
    let hostile = fx.root.join("hostile.phy");
    std::fs::write(&hostile, "100000000000 4\nt0 ACGT\n").unwrap();
    let mut spec = fx.spec("batch", 0, 2);
    spec.alignment = hostile;
    let id = daemon.submit(spec).unwrap();
    match wait_for(&daemon, id, JobState::is_terminal, "terminal") {
        JobState::Failed { error } => {
            assert!(
                error.contains("header declares 100000000000 taxa"),
                "{error}"
            )
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(daemon.health().failed, 1);

    let normal = fx.spec("batch", 0, 2);
    let want = fx.reference_lnl(&normal, "normal");
    let id = daemon.submit(normal).unwrap();
    let got = completed_lnl(&wait_for(&daemon, id, JobState::is_terminal, "terminal"));
    assert_eq!(got.to_bits(), want.to_bits());
    assert_eq!(daemon.health().completed, 1);
    daemon.shutdown();
}

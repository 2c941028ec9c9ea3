//! The daemon side of a workload: an in-process `Daemon` behind its real
//! listener, a closed backlog of small jobs submitted as one batch over one
//! JSON-lines connection, and the journal probes.
//!
//! Three timers hide in this path, and the drain is built so that none of
//! them is what it measures:
//!
//! * `Client::wait` sleeps 50 ms between polls — a benchmark built on it
//!   reports 1 / 51 ms ≈ 19.5 jobs/s for any daemon at all. Completion is
//!   detected by polling the in-process `Daemon::list` every
//!   `POLL_INTERVAL` instead.
//! * The accept loop sleeps 50 ms when idle, so every *new* connection
//!   waits up to that long. One connection is opened before the clock
//!   starts and carries every request.
//! * The listener writes each JSON-lines response in two segments (body,
//!   then newline); on a connection that stays open the second waits for
//!   the client's delayed ACK, about 40 ms per request-response round trip.
//!   The backlog is therefore written as one batch and its responses read
//!   afterwards (they coalesce), and the round-trip cost is reported on its
//!   own as `serve.submit_ms_*` from sequential submits outside the drain.

use crate::inputs::{self, InputFiles, SERVE_WORKERS, TENANTS};
use crate::spans::{Span, Spans};
use exa_serve::daemon::{Daemon, DaemonConfig};
use exa_serve::journal::{Journal, JournalEvent};
use exa_serve::{JobSpec, JobState, JobStatus};
use serde::{field, Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Longest the drain loop may sleep between two `list` polls.
pub const POLL_INTERVAL: Duration = Duration::from_millis(5);
const DRAIN_DEADLINE: Duration = Duration::from_secs(120);

pub fn job_spec(files: &InputFiles, variant: usize, priority: u32) -> JobSpec {
    JobSpec {
        tenant: format!("tenant{variant}"),
        priority,
        cost: 1,
        alignment: files.phylip.clone(),
        partitions: Some(files.partitions.clone()),
        config: inputs::job_config(variant),
    }
}

/// What a worker does for one job, done directly: load the alignment and
/// run the spec with the spool-owned fields set the way the daemon sets
/// them. Returns the wall in ms and the lnL every daemon job of this
/// variant must reproduce bit for bit.
pub fn direct_job(files: &InputFiles, variant: usize, scratch: &Path) -> (f64, f64) {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).expect("create job scratch directory");
    let cfg = inputs::job_config(variant)
        .checkpoint(scratch.join("ckpt"), 1)
        .health_out(scratch.join("health.jsonl"))
        .collect_trace(true);
    let t0 = Instant::now();
    let (aln, _) = crate::search_wl::load(files, &mut Spans::new(0));
    let out = cfg.run(&aln).expect("direct job run failed");
    (t0.elapsed().as_secs_f64() * 1e3, out.result.lnl)
}

/// One JSON-lines connection to the listener.
struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn connect(addr: std::net::SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect to the daemon listener");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set read timeout");
        Wire {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, op: &str, extra: Vec<(String, Value)>) {
        let mut req = vec![("op".to_string(), Value::Str(op.to_string()))];
        req.extend(extra);
        let mut line = serde_json::to_string(&Value::Map(req)).expect("encode request");
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .expect("send request");
    }

    fn receive(&mut self, op: &str) -> Value {
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read response");
        let v: Value = serde_json::from_str(&resp).expect("decode response");
        let ok = v
            .as_map("response")
            .map(|m| field(m, "ok") == &Value::Bool(true))
            .unwrap_or(false);
        assert!(ok, "daemon refused {op}: {resp}");
        v
    }

    /// One request, one response.
    fn call(&mut self, op: &str, extra: Vec<(String, Value)>) -> Value {
        self.send(op, extra);
        self.receive(op)
    }

    fn job_id(resp: &Value) -> u64 {
        let m = resp.as_map("response").expect("response map");
        field(m, "id").as_u64("id").expect("job id")
    }

    fn submit(&mut self, spec: &JobSpec) -> u64 {
        Self::job_id(&self.call("submit", vec![("spec".to_string(), spec.to_value())]))
    }

    /// Submit a whole backlog: every request is written before the first
    /// response is read. Responses are ~20 bytes each, so the daemon never
    /// blocks writing them while this side is still sending.
    fn submit_batch(&mut self, specs: &[&JobSpec]) -> Vec<u64> {
        for spec in specs {
            self.send("submit", vec![("spec".to_string(), spec.to_value())]);
        }
        specs
            .iter()
            .map(|_| Self::job_id(&self.receive("submit")))
            .collect()
    }
}

/// Poll until `done` says so, sleeping `POLL_INTERVAL` between polls.
/// Sleeping goes through `sleep` so a test can watch every request.
pub fn poll_until(
    mut done: impl FnMut() -> bool,
    mut sleep: impl FnMut(Duration),
    deadline: Duration,
) -> u64 {
    let t0 = Instant::now();
    let mut polls = 0u64;
    loop {
        polls += 1;
        if done() {
            return polls;
        }
        assert!(
            t0.elapsed() < deadline,
            "drain did not finish within {deadline:?}"
        );
        sleep(POLL_INTERVAL);
    }
}

/// A daemon on `spool` behind a listener on an ephemeral local port.
struct Served {
    daemon: Daemon,
    accept: std::thread::JoinHandle<()>,
    addr: std::net::SocketAddr,
}

fn daemon_config(spool: &Path) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(spool);
    cfg.workers = SERVE_WORKERS;
    cfg
}

impl Served {
    fn start(spool: &Path) -> Served {
        let daemon = Daemon::start(daemon_config(spool)).expect("start daemon");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind listener");
        let addr = listener.local_addr().expect("listener address");
        let accept = exa_serve::http::spawn(daemon.clone(), listener);
        Served {
            daemon,
            accept,
            addr,
        }
    }

    fn stop(self) {
        self.daemon.shutdown();
        self.accept.join().expect("accept thread panicked");
    }
}

/// One drain of a closed backlog.
#[derive(Debug, Default)]
pub struct Drain {
    /// Batch written → last job seen terminal.
    pub wall_s: f64,
    pub wait_ms: Vec<f64>,
    pub urgent_wait_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// `serve.submit` and `serve.drain`, for the span table.
    pub spans: Vec<Span>,
}

/// Check every job of a finished daemon against the direct run of its
/// spec: `Completed`, and the same lnL bit for bit.
fn verify(
    statuses: &[JobStatus],
    variant_of: &std::collections::BTreeMap<u64, usize>,
    expected_lnl: &[f64; TENANTS],
    out: &mut Drain,
) {
    for status in statuses {
        out.attempted += 1;
        let want = expected_lnl[variant_of[&status.id]];
        match &status.state {
            JobState::Completed { lnl, .. } if lnl.to_bits() == want.to_bits() => {}
            other => {
                out.failed += 1;
                out.notes
                    .push(format!("job {}: {other:?}, expected lnL {want}", status.id));
            }
        }
    }
}

/// Submit `n_jobs` as one batch over one connection, one urgent
/// (priority 9) job once half of them are terminal, and wait for all
/// `n_jobs + 1`. The journal is copied to `history` before shutdown
/// compacts it.
pub fn drain(
    files: &InputFiles,
    n_jobs: usize,
    expected_lnl: &[f64; TENANTS],
    spool: &Path,
    history: &Path,
    span_id: u64,
) -> Drain {
    let mut spans = Spans::new(span_id);
    let _ = std::fs::remove_dir_all(spool);
    let served = Served::start(spool);
    let mut wire = Wire::connect(served.addr);
    // Opens the connection's handler thread before the clock starts.
    wire.call("health", vec![]);
    let specs: Vec<JobSpec> = (0..TENANTS).map(|v| job_spec(files, v, 0)).collect();
    let backlog: Vec<&JobSpec> = (0..n_jobs).map(|i| &specs[i % TENANTS]).collect();

    let mut out = Drain::default();
    let t0 = Instant::now();
    let ids = spans.scope("serve.submit", |_| wire.submit_batch(&backlog));
    let mut variant_of: std::collections::BTreeMap<u64, usize> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i % TENANTS))
        .collect();
    let mut urgent_id = None;
    let mut last = Vec::new();
    spans.scope("serve.drain", |_| {
        poll_until(
            || {
                last = served.daemon.list();
                let terminal = last.iter().filter(|s| s.state.is_terminal()).count();
                if urgent_id.is_none() && terminal >= n_jobs / 2 {
                    let id = wire.submit(&job_spec(files, 0, 9));
                    variant_of.insert(id, 0);
                    urgent_id = Some(id);
                    return false;
                }
                urgent_id.is_some() && terminal == last.len()
            },
            std::thread::sleep,
            DRAIN_DEADLINE,
        );
    });
    out.wall_s = t0.elapsed().as_secs_f64();

    verify(&last, &variant_of, expected_lnl, &mut out);
    for status in &last {
        match status.wait_ms {
            Some(w) if Some(status.id) == urgent_id => out.urgent_wait_ms = w,
            Some(w) => out.wait_ms.push(w),
            None => {}
        }
    }
    out.spans = spans.finish();
    drop(wire);
    std::fs::create_dir_all(history).expect("create history directory");
    std::fs::copy(Journal::path_in(spool), Journal::path_in(history))
        .expect("keep journal history");
    served.stop();
    out
}

/// Round-trip latency of `k` sequential submits on one open connection, in
/// ms — what a caller that waits for each answer pays per request. The jobs
/// run to completion and are verified like any other.
pub fn sequential_submits(
    files: &InputFiles,
    k: usize,
    expected_lnl: &[f64; TENANTS],
    spool: &Path,
) -> (Vec<f64>, Drain) {
    let _ = std::fs::remove_dir_all(spool);
    let served = Served::start(spool);
    let mut wire = Wire::connect(served.addr);
    wire.call("health", vec![]);
    let mut variant_of = std::collections::BTreeMap::new();
    let latencies = (0..k)
        .map(|i| {
            let t = Instant::now();
            let id = wire.submit(&job_spec(files, i % TENANTS, 0));
            variant_of.insert(id, i % TENANTS);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let mut last = Vec::new();
    poll_until(
        || {
            last = served.daemon.list();
            last.iter().all(|s| s.state.is_terminal())
        },
        std::thread::sleep,
        DRAIN_DEADLINE,
    );
    let mut out = Drain::default();
    verify(&last, &variant_of, expected_lnl, &mut out);
    drop(wire);
    served.stop();
    (latencies, out)
}

/// Daemon set-up: `Daemon::start` replaying `history`'s journal, listener
/// bind, and the first `GET /health` answered. The request is written into
/// the listen backlog *before* the accept loop starts, so the loop's first
/// `accept` finds it and its 50 ms idle sleep is never part of this time.
pub fn daemon_setup_once(history: &Path, spool: &Path) -> f64 {
    let _ = std::fs::remove_dir_all(spool);
    std::fs::create_dir_all(spool).expect("create spool");
    std::fs::copy(Journal::path_in(history), Journal::path_in(spool)).expect("restore journal");
    let t0 = Instant::now();
    let daemon = Daemon::start(daemon_config(spool)).expect("start daemon");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind listener");
    let mut stream = TcpStream::connect(listener.local_addr().expect("address")).expect("connect");
    stream
        .write_all(b"GET /health HTTP/1.1\r\nHost: benchmark\r\n\r\n")
        .expect("send health request");
    let accept = exa_serve::http::spawn(daemon.clone(), listener);
    let mut answer = String::new();
    stream
        .read_to_string(&mut answer)
        .expect("read health answer");
    let secs = t0.elapsed().as_secs_f64();
    assert!(
        answer.starts_with("HTTP/1.1 200"),
        "health answered: {answer}"
    );
    daemon.shutdown();
    accept.join().expect("accept thread panicked");
    secs
}

/// Latency of `n` durable journal appends (write + flush + fdatasync), µs.
pub fn journal_append_us(dir: &Path, files: &InputFiles, n: usize) -> Vec<f64> {
    let _ = std::fs::remove_dir_all(dir);
    let (mut journal, _) = Journal::open(dir).expect("open probe journal");
    let spec = job_spec(files, 0, 0);
    (0..n as u64)
        .map(|i| {
            let ev = if i % 3 == 0 {
                JournalEvent::Submitted {
                    id: i,
                    spec: Box::new(spec.clone()),
                }
            } else if i % 3 == 1 {
                JournalEvent::Started { id: i }
            } else {
                JournalEvent::Completed {
                    id: i,
                    lnl: -1.0,
                    iterations: 1,
                }
            };
            let t0 = Instant::now();
            journal.append(&ev).expect("journal append");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Time to open and replay the journal a drain left behind, ms.
pub fn journal_replay_ms(history: &Path) -> f64 {
    let t0 = Instant::now();
    let (_journal, events) = Journal::open(history).expect("replay journal");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(!events.is_empty(), "history journal is empty");
    ms
}

pub fn spool_paths(dir: &Path) -> (PathBuf, PathBuf, PathBuf) {
    (
        dir.join("spool"),
        dir.join("history"),
        dir.join("setup-spool"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_loop_never_sleeps_longer_than_five_ms() {
        let mut sleeps = Vec::new();
        let mut remaining = 40;
        let polls = poll_until(
            || {
                remaining -= 1;
                remaining == 0
            },
            |d| sleeps.push(d),
            Duration::from_secs(5),
        );
        assert_eq!(polls, 40);
        assert_eq!(
            sleeps.len(),
            39,
            "no sleep after the poll that saw completion"
        );
        assert!(
            sleeps.iter().all(|d| *d <= Duration::from_millis(5)),
            "{sleeps:?}"
        );
        assert_eq!(POLL_INTERVAL, Duration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "did not finish")]
    fn drain_loop_gives_up_at_its_deadline() {
        poll_until(|| false, |_| {}, Duration::ZERO);
    }
}

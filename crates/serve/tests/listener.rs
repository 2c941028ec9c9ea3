//! The listener's serving path: what a request costs in wall time, how
//! promptly shutdown is observed, the blocking `wait`, and the input limits.
//!
//! None of these tests runs a likelihood search. Jobs are either parked in
//! the queue for good (a tenant quota of zero running jobs) or fail at once
//! (their alignment does not exist), so every duration measured here is the
//! listener's and the daemon's own. Time bounds are an order of magnitude
//! above what the code needs and well below what the sleeps and the
//! delayed-ACK stall they guard against used to cost; every test body runs
//! under a watchdog, because the failure mode of this code is to hang.

use exa_serve::client::Client;
use exa_serve::daemon::{Daemon, DaemonConfig};
use exa_serve::scheduler::TenantConfig;
use exa_serve::{JobSpec, JobState};
use examl_core::RunConfig;
use serde::{field, Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Run `body` on its own thread and fail if it has not finished in 60 s.
fn watched(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let thread = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => thread.join().unwrap(),
        // The body panicked: surface its message.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(thread.join().unwrap_err())
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("test body hung for 60 s"),
    }
}

/// A daemon behind its listener on an ephemeral port, over a fresh spool.
struct Served {
    daemon: Daemon,
    accept: std::thread::JoinHandle<()>,
    addr: SocketAddr,
    spool: PathBuf,
}

impl Served {
    /// `parked`: no job is ever dispatched, so each stays `Queued` until it
    /// is cancelled.
    fn start(name: &str, parked: bool) -> Served {
        Served::start_on("127.0.0.1:0", name, parked)
    }

    fn start_on(bind: &str, name: &str, parked: bool) -> Served {
        let spool =
            std::env::temp_dir().join(format!("examl_listener_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&spool).ok();
        let mut cfg = DaemonConfig::new(&spool);
        cfg.workers = 1;
        if parked {
            cfg.default_tenant = TenantConfig {
                weight: 1,
                max_running: 0,
            };
        }
        let daemon = Daemon::start(cfg).unwrap();
        let listener = TcpListener::bind(bind).unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = exa_serve::http::spawn(daemon.clone(), listener);
        Served {
            daemon,
            accept,
            addr,
            spool,
        }
    }

    /// `daemon.shutdown(); accept.join()`, timed.
    fn stop(self) -> Duration {
        let t0 = Instant::now();
        self.daemon.shutdown();
        self.accept.join().unwrap();
        let took = t0.elapsed();
        std::fs::remove_dir_all(&self.spool).ok();
        took
    }
}

/// A job that fails as soon as it is dispatched.
fn spec() -> JobSpec {
    JobSpec {
        tenant: "t".into(),
        priority: 0,
        cost: 1,
        alignment: "/nonexistent/alignment.phy".into(),
        partitions: None,
        config: RunConfig::new(1),
    }
}

/// One JSON-lines connection.
struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Wire {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
    }

    /// The next response line, or `None` once the daemon closed.
    fn receive(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(line.trim_end().to_string()),
        }
    }

    fn call(&mut self, line: &str) -> String {
        self.send(line);
        self.receive().expect("the daemon answers")
    }
}

fn submit_line() -> String {
    let req = Value::Map(vec![
        ("op".to_string(), Value::Str("submit".into())),
        ("spec".to_string(), spec().to_value()),
    ]);
    serde_json::to_string(&req).unwrap()
}

/// `state` of the `job` object in a `status`/`wait` response line.
fn job_state(response: &str) -> JobState {
    let v: Value = serde_json::from_str(response).unwrap();
    let job = field(v.as_map("response").unwrap(), "job");
    <exa_serve::JobStatus as serde::Deserialize>::from_value(job)
        .unwrap_or_else(|e| panic!("no job in {response}: {}", e.0))
        .state
}

/// One HTTP exchange: send `request`, half-close if asked, read to EOF.
fn http(addr: SocketAddr, request: &[u8], half_close: bool) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request).unwrap();
    if half_close {
        stream.shutdown(Shutdown::Write).unwrap();
    }
    let mut answer = String::new();
    let _ = stream.read_to_string(&mut answer);
    answer
}

#[test]
fn sequential_submits_on_one_connection_cost_the_daemons_work() {
    watched(|| {
        let served = Served::start("submits", true);
        let mut wire = Wire::connect(served.addr);
        let line = submit_line();
        let mut round_trips: Vec<Duration> = (0..40)
            .map(|_| {
                let t0 = Instant::now();
                let resp = wire.call(&line);
                assert!(resp.starts_with(r#"{"ok":true,"id":"#), "{resp}");
                t0.elapsed()
            })
            .collect();
        round_trips.sort();
        // A response written in two segments cost a delayed ACK (~40 ms)
        // per request; the work is a journal append.
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(5),
            "median submit round trip {median:?}, all: {round_trips:?}"
        );
        drop(wire);
        served.stop();
    });
}

#[test]
fn a_fresh_connection_to_an_idle_listener_is_answered_promptly() {
    watched(|| {
        let served = Served::start("fresh", true);
        let client = Client::new(served.addr.to_string());
        // Eleven connections at drifting phases of what used to be a 50 ms
        // accept poll (and each request a two-segment write: 43 ms, every
        // time); two may be slow for reasons of the machine's own.
        let mut answered: Vec<Duration> = (0..11)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(7));
                let t0 = Instant::now();
                client.health().unwrap();
                t0.elapsed()
            })
            .collect();
        answered.sort();
        assert!(
            answered[8] < Duration::from_millis(20),
            "fresh connections answered in {answered:?}"
        );
        served.stop();
    });
}

#[test]
fn shutdown_is_prompt_with_an_idle_listener() {
    watched(|| {
        let took = Served::start("stop_idle", true).stop();
        assert!(took < Duration::from_millis(100), "{took:?}");
        // A wildcard bind has no address of its own to be woken at.
        let took = Served::start_on("0.0.0.0:0", "stop_wildcard", true).stop();
        assert!(took < Duration::from_millis(100), "{took:?}");
    });
}

#[test]
fn shutdown_is_prompt_with_an_open_idle_connection() {
    watched(|| {
        let served = Served::start("stop_open", true);
        let mut wire = Wire::connect(served.addr);
        assert!(wire.call(r#"{"op":"health"}"#).starts_with(r#"{"ok":true"#));
        let took = served.stop();
        assert!(took < Duration::from_millis(100), "{took:?}");
    });
}

#[test]
fn shutdown_ends_a_slow_health_stream_at_once() {
    watched(|| {
        let served = Served::start("stop_stream", true);
        let mut wire = Wire::connect(served.addr);
        wire.send(r#"{"op":"stream-health","interval_ms":5000}"#);
        let first = wire.receive().expect("first heartbeat");
        assert!(first.contains("queue_depth"), "{first}");
        let t0 = Instant::now();
        let took = served.stop();
        assert!(took < Duration::from_millis(100), "{took:?}");
        // The stream's handler was 5 s from its next line: it must answer
        // the shutdown, not the interval.
        assert_eq!(wire.receive().as_deref(), Some(r#"{"ok":true}"#));
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    });
}

#[test]
fn wait_returns_when_the_job_turns_terminal() {
    watched(|| {
        let served = Served::start("wait_terminal", true);
        let id = served.daemon.submit(spec()).unwrap();
        let addr = served.addr;
        let waiter = std::thread::spawn(move || {
            let resp = Wire::connect(addr)
                .call(&format!(r#"{{"op":"wait","id":{id},"timeout_ms":30000}}"#));
            (Instant::now(), resp)
        });
        // Let the waiter park; if it has not yet, the bound below still
        // holds for a wait that finds the job already terminal.
        std::thread::sleep(Duration::from_millis(100));
        let cancelled_at = Instant::now();
        assert!(served.daemon.cancel(id).unwrap());
        let (returned_at, resp) = waiter.join().unwrap();
        assert_eq!(job_state(&resp), JobState::Cancelled, "{resp}");
        let lag = returned_at.duration_since(cancelled_at);
        assert!(lag < Duration::from_millis(20), "wait lagged {lag:?}");
        served.stop();
    });
}

#[test]
fn wait_answers_with_the_live_status_at_its_timeout_and_rejects_unknown_ids() {
    watched(|| {
        let served = Served::start("wait_timeout", true);
        let id = served.daemon.submit(spec()).unwrap();
        let mut wire = Wire::connect(served.addr);
        let t0 = Instant::now();
        let resp = wire.call(&format!(r#"{{"op":"wait","id":{id},"timeout_ms":60}}"#));
        let took = t0.elapsed();
        assert_eq!(job_state(&resp), JobState::Queued, "{resp}");
        assert!(
            (Duration::from_millis(60)..Duration::from_secs(2)).contains(&took),
            "{took:?}"
        );
        assert_eq!(
            wire.call(r#"{"op":"wait","id":99,"timeout_ms":30000}"#),
            r#"{"ok":false,"error":"no such job 99"}"#
        );

        // The same operation over HTTP and through the client.
        let answer = http(
            served.addr,
            format!("GET /wait/{id}?timeout_ms=60 HTTP/1.1\r\n\r\n").as_bytes(),
            false,
        );
        assert!(answer.starts_with("HTTP/1.1 200"), "{answer}");
        assert!(answer.contains(r#""state":"Queued""#), "{answer}");
        assert!(
            http(served.addr, b"GET /wait/99 HTTP/1.1\r\n\r\n", false).starts_with("HTTP/1.1 400")
        );
        let client = Client::new(served.addr.to_string());
        let err = client.wait(id, Duration::from_millis(60)).unwrap_err();
        assert!(err.contains("still Queued"), "{err}");
        served.daemon.cancel(id).unwrap();
        let st = client.wait(id, Duration::from_secs(30)).unwrap();
        assert_eq!(st.state, JobState::Cancelled);
        served.stop();
    });
}

#[test]
fn wait_observes_a_failing_job_and_is_released_by_shutdown() {
    watched(|| {
        // Dispatched at once, fails at once: the wait sees `Failed`.
        let served = Served::start("wait_failed", false);
        let id = served.daemon.submit(spec()).unwrap();
        let st = Client::new(served.addr.to_string())
            .wait(id, Duration::from_secs(30))
            .unwrap();
        assert!(matches!(st.state, JobState::Failed { .. }), "{st:?}");
        served.stop();

        let served = Served::start("wait_shutdown", true);
        let id = served.daemon.submit(spec()).unwrap();
        let mut wire = Wire::connect(served.addr);
        wire.send(&format!(r#"{{"op":"wait","id":{id},"timeout_ms":30000}}"#));
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        let took = served.stop();
        assert!(took < Duration::from_millis(100), "{took:?}");
        let resp = wire.receive().expect("shutdown releases the wait");
        assert_eq!(job_state(&resp), JobState::Queued, "{resp}");
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    });
}

#[test]
fn hostile_input_is_refused_without_taking_the_listener_down() {
    watched(|| {
        let served = Served::start("hostile", true);
        let addr = served.addr;
        const MIB: usize = 1 << 20;

        // A JSON-lines "line" that never ends: refused at the cap, closed.
        let mut wire = Wire::connect(addr);
        let mut endless = vec![b'x'; MIB + 4096];
        endless[0] = b'{';
        wire.writer.write_all(&endless).unwrap();
        assert_eq!(
            wire.receive().as_deref(),
            Some(r#"{"ok":false,"error":"request too large"}"#)
        );
        assert_eq!(wire.receive(), None, "the connection is closed");

        // A line of exactly the cap is still a request (a malformed one).
        let mut wire = Wire::connect(addr);
        let mut at_cap = vec![b'x'; MIB];
        at_cap[0] = b'{';
        at_cap.push(b'\n');
        wire.writer.write_all(&at_cap).unwrap();
        let resp = wire.receive().expect("answered");
        assert!(
            resp.starts_with(r#"{"ok":false,"error":"bad request"#),
            "{resp}"
        );
        // ... and the connection lives on.
        assert!(wire.call(r#"{"op":"health"}"#).starts_with(r#"{"ok":true"#));

        // Garbage after the sniffed `{`, invalid UTF-8 included.
        wire.writer.write_all(b"{\xff\xfe\x00 garbage\n").unwrap();
        let resp = wire.receive().expect("answered");
        assert!(
            resp.starts_with(r#"{"ok":false,"error":"bad request"#),
            "{resp}"
        );
        assert!(wire.call(r#"{"op":"health"}"#).starts_with(r#"{"ok":true"#));

        // Garbage that is not JSON-lines is taken for HTTP.
        let answer = http(addr, b"\x00\xff\x13\x37\r\n\r\n", false);
        assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
        let answer = http(addr, b"BREW /pot HTTP/1.1\r\n\r\n", false);
        assert!(answer.starts_with("HTTP/1.1 404"), "{answer}");

        // A Content-Length nobody will allocate for, with or without a body
        // on its way.
        let answer = http(
            addr,
            b"POST /submit HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
            false,
        );
        assert!(answer.starts_with("HTTP/1.1 413"), "{answer}");
        let mut oversized = b"POST /submit HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n".to_vec();
        oversized.resize(oversized.len() + 2_000_000, b' ');
        let answer = http(addr, &oversized, true);
        assert!(answer.starts_with("HTTP/1.1 413"), "{answer}");
        let answer = http(
            addr,
            b"POST /submit HTTP/1.1\r\nContent-Length: 1e9\r\n\r\n",
            false,
        );
        assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");

        // A header line that never ends, and a head of many short lines.
        let mut long_header = b"GET /health HTTP/1.1\r\nX-Pad: ".to_vec();
        long_header.resize(200 * 1024, b'a');
        let answer = http(addr, &long_header, true);
        assert!(answer.starts_with("HTTP/1.1 431"), "{answer}");
        let mut many_headers = b"GET /health HTTP/1.1\r\n".to_vec();
        while many_headers.len() < 200 * 1024 {
            many_headers.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        let answer = http(addr, &many_headers, true);
        assert!(answer.starts_with("HTTP/1.1 431"), "{answer}");

        // The peer half-closes after the head, short of its body.
        let answer = http(
            addr,
            b"POST /submit HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
            true,
        );
        assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
        // ... or before the head is over: nothing to answer, nothing breaks.
        assert_eq!(http(addr, b"GET /health HTTP/1.1\r\n", true), "");

        // A request trickled a byte at a time, inside the request deadline,
        // is served.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        for byte in b"GET /health HTTP/1.1\r\nHost: slow\r\n\r\n" {
            stream.write_all(&[*byte]).unwrap();
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut answer = String::new();
        stream.read_to_string(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 200"), "{answer}");

        // After all of it the daemon still serves, and still stops promptly.
        assert_eq!(Client::new(addr.to_string()).health().unwrap().failed, 0);
        let took = served.stop();
        assert!(took < Duration::from_millis(100), "{took:?}");
    });
}

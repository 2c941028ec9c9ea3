//! Wire protocol: minimal HTTP/1.1 and a line-oriented JSON protocol on
//! the same TCP listener.
//!
//! The daemon sniffs the first byte of each connection: `{` starts the
//! JSON-lines protocol (one request object per line, one response object
//! per line — what [`crate::client`] speaks), anything else is parsed as an
//! HTTP/1.1 request. Both surfaces expose the same operations:
//!
//! | HTTP                          | JSON-lines `op`  |
//! |-------------------------------|------------------|
//! | `POST /submit` (spec body)    | `submit`         |
//! | `GET /status/<id>`            | `status`         |
//! | `GET /wait/<id>?timeout_ms=T` | `wait`           |
//! | `POST /cancel/<id>`           | `cancel`         |
//! | `GET /list`                   | `list`           |
//! | `GET /health`                 | `health`         |
//! | `GET /stream-health`          | `stream-health`  |
//! | `GET /metrics`                | `metrics`        |
//! | `GET /trace/<id>`             | —                |
//! | `GET /job-health/<id>`        | —                |
//! | `POST /resize/<workers>`      | `resize`         |
//! | `POST /shutdown`              | `shutdown`       |
//!
//! `wait` (`{"op":"wait","id":N,"timeout_ms":T}`) answers like `status`,
//! but not before the job is terminal, `T` ms have passed (default 0) or the
//! daemon shuts down: the handler parks on the daemon's condvar
//! ([`Daemon::wait`]), so a client learns of completion without polling.
//! `stream-health` emits one [`ServeHeartbeat`] JSON line per interval
//! (`?count=N&interval_ms=M`) until the count is reached, the client goes
//! away, or the daemon shuts down. `GET /metrics` returns the Prometheus
//! text exposition of the daemon + process registries (the JSON-lines
//! `metrics` op wraps the same text in `{"ok":true,"text":...}`).
//! `GET /trace/<id>` serves the job's Chrome trace, written on completion
//! and only when the job's spec asked for it (`config.collect_trace`; a job
//! that did not is a JSON 404 `job <id> was not traced`);
//! `GET /job-health/<id>` serves its heartbeat ndjson.
//! Everything else responds with a single JSON object `{"ok":true,...}` or
//! `{"ok":false,"error":...}`. Per-verb handling latency is recorded in
//! the daemon's `exa_http_request_ms` histogram.
//!
//! The parser is deliberately tiny: request line + `Content-Length`, no
//! chunked encoding, no keep-alive on HTTP. Each connection is one thread.
//! Every response — a JSON line, an HTTP head with its body, one
//! `stream-health` line — is assembled in one buffer and sent with one
//! `write_all` on a `TCP_NODELAY` socket, so a request costs the daemon's
//! work and not a delayed-ACK stall. The accept loop blocks in `accept()`;
//! [`Daemon::shutdown`] wakes it with a throw-away connection, and nothing
//! in this module sleeps.
//!
//! Input is bounded before it is buffered: a JSON-lines request line or an
//! HTTP body above `MAX_REQUEST_BYTES` (1 MiB) is refused (`request too
//! large` / `413`) and the connection closed, an HTTP head above
//! `MAX_HEAD_BYTES` (64 KiB) is a `431`, and a request that has not arrived
//! whole within `REQUEST_TIMEOUT` (30 s) of the previous response loses its
//! connection whether the peer is idle or trickling bytes.

use crate::daemon::{Daemon, HEALTH_FILE, TRACE_FILE};
use crate::{JobId, JobSpec};
use serde::{field, Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A request must arrive whole within this long of the connection opening
/// or of the previous response.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest JSON-lines request line and longest HTTP body accepted; a
/// `JobSpec` is under a kilobyte.
const MAX_REQUEST_BYTES: usize = 1 << 20;
/// Longest HTTP head (request line and headers) accepted.
const MAX_HEAD_BYTES: usize = 64 * 1024;

fn ok_with(extra: Vec<(String, Value)>) -> Value {
    let mut m = vec![("ok".to_string(), Value::Bool(true))];
    m.extend(extra);
    Value::Map(m)
}

fn err_with(msg: impl Into<String>) -> Value {
    Value::Map(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(msg.into())),
    ])
}

/// Handle one non-streaming operation. `shutdown` responds before the
/// (blocking, graceful) shutdown itself begins, which the caller performs
/// after writing the response.
fn handle_op(daemon: &Daemon, op: &str, req: &Value) -> (Value, bool) {
    let entries = match req.as_map("request") {
        Ok(m) => m,
        Err(e) => return (err_with(e.0), false),
    };
    let id_of = |entries: &[(String, Value)]| -> Result<JobId, String> {
        field(entries, "id")
            .as_u64("id")
            .map_err(|e| e.0.to_string())
    };
    match op {
        "submit" => match <JobSpec as serde::Deserialize>::from_value(field(entries, "spec")) {
            Ok(spec) => match daemon.submit(spec) {
                Ok(id) => (ok_with(vec![("id".to_string(), Value::UInt(id))]), false),
                Err(e) => (err_with(e.to_string()), false),
            },
            Err(e) => (err_with(format!("bad spec: {}", e.0)), false),
        },
        // `status` is a `wait` that is not prepared to wait.
        "status" | "wait" => match id_of(entries) {
            Ok(id) => {
                let timeout_ms = field(entries, "timeout_ms")
                    .as_u64("timeout_ms")
                    .unwrap_or(0);
                match daemon.wait(id, Duration::from_millis(timeout_ms)) {
                    Some(st) => (ok_with(vec![("job".to_string(), st.to_value())]), false),
                    None => (err_with(format!("no such job {id}")), false),
                }
            }
            Err(e) => (err_with(e), false),
        },
        "cancel" => match id_of(entries) {
            Ok(id) => match daemon.cancel(id) {
                Ok(hit) => (
                    ok_with(vec![("cancelled".to_string(), Value::Bool(hit))]),
                    false,
                ),
                Err(e) => (err_with(e.to_string()), false),
            },
            Err(e) => (err_with(e), false),
        },
        "list" => {
            let jobs: Vec<Value> = daemon.list().iter().map(|s| s.to_value()).collect();
            (
                ok_with(vec![("jobs".to_string(), Value::Array(jobs))]),
                false,
            )
        }
        "health" => (
            ok_with(vec![("health".to_string(), daemon.health().to_value())]),
            false,
        ),
        "metrics" => (
            ok_with(vec![(
                "text".to_string(),
                Value::Str(daemon.metrics_text()),
            )]),
            false,
        ),
        "resize" => match field(entries, "workers").as_u64("workers") {
            Ok(n) => match daemon.resize(n as usize) {
                Ok((previous, workers)) => (
                    ok_with(vec![
                        ("workers".to_string(), Value::UInt(workers as u64)),
                        ("previous".to_string(), Value::UInt(previous as u64)),
                    ]),
                    false,
                ),
                Err(e) => (err_with(e.to_string()), false),
            },
            Err(e) => (err_with(e.0), false),
        },
        "shutdown" => (ok_with(vec![]), true),
        other => (err_with(format!("unknown op {other:?}")), false),
    }
}

/// Write heartbeats — each line one segment; `buf` arrives holding what
/// must precede the first (the HTTP head) — until `count` lines, a write
/// error, or shutdown. The interval is a wait on the daemon's condvar, so
/// shutdown ends the stream at once rather than an interval later.
fn stream_health(
    daemon: &Daemon,
    conn: &mut Conn,
    mut buf: Vec<u8>,
    count: u64,
    interval: Duration,
) {
    for i in 0..count {
        buf.extend_from_slice(daemon.health().to_json_line().as_bytes());
        buf.push(b'\n');
        if conn.send(&buf).is_err() || i + 1 == count || daemon.wait_shutdown(interval) {
            return;
        }
        buf.clear();
    }
}

fn stream_params(req: &Value) -> (u64, Duration) {
    let entries = req.as_map("request").unwrap_or(&[]);
    let count = field(entries, "count").as_u64("count").unwrap_or(u64::MAX);
    let interval = field(entries, "interval_ms")
        .as_u64("interval_ms")
        .unwrap_or(200);
    (count.max(1), Duration::from_millis(interval))
}

/// The read half of a connection. Every read's timeout is the time left to
/// `at`, so a peer trickling a byte at a time loses its handler thread at
/// the same moment an idle one does.
struct Deadline {
    stream: TcpStream,
    at: Instant,
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

struct Conn {
    reader: BufReader<Deadline>,
    writer: TcpStream,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Conn> {
        // A response is one `write_all`; without Nagle it is also one
        // segment, sent now, whatever the peer has or has not ACKed.
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(Deadline {
                stream,
                at: Instant::now() + REQUEST_TIMEOUT,
            }),
        })
    }

    /// Send one whole response; the next request's clock starts now.
    fn send(&mut self, response: &[u8]) -> std::io::Result<()> {
        let sent = self.writer.write_all(response);
        self.reader.get_mut().at = Instant::now() + REQUEST_TIMEOUT;
        sent
    }

    /// Send a refusal and hang up. What the peer is still sending is
    /// discarded first (to EOF or the request deadline): closing a socket
    /// with unread input resets it, which can cost the peer the refusal.
    fn refuse(&mut self, response: &[u8]) {
        let _ = self.send(response);
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
        let _ = std::io::copy(&mut self.reader, &mut std::io::sink());
    }
}

enum Line {
    Complete,
    TooLong,
    Closed,
}

/// Append one line (through its `\n`, or to EOF) to `line`, buffering at
/// most `cap + 1` bytes of it.
fn read_line(reader: &mut impl BufRead, line: &mut Vec<u8>, cap: usize) -> Line {
    match reader.by_ref().take(cap as u64 + 1).read_until(b'\n', line) {
        Ok(0) | Err(_) => Line::Closed,
        Ok(n) if n > cap && !line.ends_with(b"\n") => Line::TooLong,
        Ok(_) => Line::Complete,
    }
}

fn handle_jsonl(daemon: &Daemon, conn: &mut Conn) {
    let mut line = Vec::new();
    loop {
        line.clear();
        match read_line(&mut conn.reader, &mut line, MAX_REQUEST_BYTES) {
            Line::Complete => {}
            Line::TooLong => return conn.refuse(&json_line(&err_with("request too large"))),
            Line::Closed => return,
        }
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let req: Value = match serde_json::from_slice(&line) {
            Ok(v) => v,
            Err(e) => {
                if conn
                    .send(&json_line(&err_with(format!("bad request: {e}"))))
                    .is_err()
                {
                    return;
                }
                continue;
            }
        };
        let op = req
            .as_map("request")
            .ok()
            .map(|m| field(m, "op"))
            .and_then(|v| v.as_str("op").ok().map(str::to_string))
            .unwrap_or_default();
        if op == "stream-health" {
            let (count, interval) = stream_params(&req);
            stream_health(daemon, conn, Vec::new(), count, interval);
            let _ = conn.send(&json_line(&ok_with(vec![])));
            continue;
        }
        let t0 = Instant::now();
        let (resp, shutdown) = handle_op(daemon, &op, &req);
        if conn.send(&json_line(&resp)).is_err() {
            return;
        }
        observe_request(daemon, &op, t0);
        if shutdown {
            daemon.shutdown();
            return;
        }
    }
}

fn to_line(v: &Value) -> String {
    serde_json::to_string(v).expect("value serialization cannot fail")
}

/// One JSON-lines response: the object and its newline in one buffer.
fn json_line(v: &Value) -> Vec<u8> {
    let mut line = to_line(v).into_bytes();
    line.push(b'\n');
    line
}

/// One HTTP response, head and body in one buffer.
fn http_response(status: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

fn http_json(status: &str, body: &Value) -> Vec<u8> {
    http_response(status, "application/json", to_line(body).as_bytes())
}

/// Serve a per-job spool file ([`TRACE_FILE`], [`HEALTH_FILE`]), or a JSON
/// 404 saying why there is none: no such job, the job's spec did not ask for
/// a trace, or the file doesn't exist (yet).
fn serve_artifact(daemon: &Daemon, conn: &mut Conn, id: JobId, file: &str, content_type: &str) {
    let body = daemon
        .job_artifact(id, file)
        .and_then(|p| std::fs::read(p).map_err(|_| format!("no {file} for job {id}")));
    let _ = conn.send(&match body {
        Ok(body) => http_response("200 OK", content_type, &body),
        Err(why) => http_json("404 Not Found", &err_with(why)),
    });
}

/// Record one request's handling latency under its verb label. Arbitrary
/// wire strings collapse to `unknown` so a client can't mint unbounded
/// label values.
fn observe_request(daemon: &Daemon, verb: &str, t0: Instant) {
    const KNOWN: &[&str] = &[
        "submit",
        "status",
        "wait",
        "cancel",
        "list",
        "health",
        "stream-health",
        "metrics",
        "trace",
        "job-health",
        "resize",
        "shutdown",
    ];
    let verb = if KNOWN.contains(&verb) {
        verb
    } else {
        "unknown"
    };
    daemon
        .http_request_histogram(verb)
        .observe(t0.elapsed().as_secs_f64() * 1e3);
}

/// A query string's `k=v` pairs as request entries. Only unsigned-integer
/// values are kept: no route reads any other kind.
fn query_entries(query: &str) -> Vec<(String, Value)> {
    query
        .split('&')
        .filter_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            Some((k.to_string(), Value::UInt(v.parse().ok()?)))
        })
        .collect()
}

fn handle_http(daemon: &Daemon, conn: &mut Conn) {
    // The head: everything to the blank line.
    let mut head = Vec::new();
    while !(head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n")) {
        let room = MAX_HEAD_BYTES.saturating_sub(head.len());
        match read_line(&mut conn.reader, &mut head, room) {
            Line::Complete => {}
            Line::TooLong => {
                return conn.refuse(&http_json(
                    "431 Request Header Fields Too Large",
                    &err_with("request head too large"),
                ))
            }
            Line::Closed => return,
        }
    }
    let bad_request = |conn: &mut Conn, why: String| {
        let _ = conn.send(&http_json("400 Bad Request", &err_with(why)));
    };
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.lines();
    let mut parts = lines.next().unwrap_or_default().split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return bad_request(conn, "bad request line".into());
    };
    // The length is checked against the cap before anything is allocated
    // for it.
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .map_or(Ok(0), |(_, v)| v.trim().parse::<u64>());
    let mut body = match content_length {
        Ok(n) if n <= MAX_REQUEST_BYTES as u64 => vec![0u8; n as usize],
        Ok(_) => {
            return conn.refuse(&http_json(
                "413 Content Too Large",
                &err_with("request too large"),
            ))
        }
        Err(_) => return bad_request(conn, "bad Content-Length".into()),
    };
    if conn.reader.read_exact(&mut body).is_err() {
        return bad_request(conn, "body shorter than Content-Length".into());
    }
    let (route, query) = path.split_once('?').unwrap_or((path, ""));
    // `/<verb>/<number>` routes.
    let numbered = route
        .strip_prefix('/')
        .and_then(|r| r.split_once('/'))
        .and_then(|(verb, n)| Some((verb, n.parse::<u64>().ok()?)));
    let request = |key: &str, v: Value| Value::Map(vec![(key.to_string(), v)]);
    let t0 = Instant::now();
    let (op, req): (&str, Value) = match (method, route, numbered) {
        ("POST", "/submit", _) => match serde_json::from_slice(&body) {
            Ok(spec) => ("submit", request("spec", spec)),
            Err(e) => return bad_request(conn, format!("bad body: {e}")),
        },
        ("GET", "/list", _) => ("list", Value::Map(vec![])),
        ("GET", "/health", _) => ("health", Value::Map(vec![])),
        ("POST", "/shutdown", _) => ("shutdown", Value::Map(vec![])),
        ("GET", "/metrics", _) => {
            let text = daemon.metrics_text();
            let _ = conn.send(&http_response(
                "200 OK",
                "text/plain; version=0.0.4",
                text.as_bytes(),
            ));
            return observe_request(daemon, "metrics", t0);
        }
        ("GET", "/stream-health", _) => {
            let (count, interval) = stream_params(&Value::Map(query_entries(query)));
            let head = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
            return stream_health(daemon, conn, head.to_vec(), count, interval);
        }
        ("GET", _, Some(("trace", id))) => {
            serve_artifact(daemon, conn, id, TRACE_FILE, "application/json");
            return observe_request(daemon, "trace", t0);
        }
        ("GET", _, Some(("job-health", id))) => {
            serve_artifact(daemon, conn, id, HEALTH_FILE, "application/x-ndjson");
            return observe_request(daemon, "job-health", t0);
        }
        ("GET", _, Some(("status", id))) => ("status", request("id", Value::UInt(id))),
        ("GET", _, Some(("wait", id))) => {
            let mut entries = query_entries(query);
            entries.push(("id".to_string(), Value::UInt(id)));
            ("wait", Value::Map(entries))
        }
        ("POST", _, Some(("cancel", id))) => ("cancel", request("id", Value::UInt(id))),
        ("POST", _, Some(("resize", n))) => ("resize", request("workers", Value::UInt(n))),
        _ => {
            let _ = conn.send(&http_json("404 Not Found", &err_with("no route")));
            return;
        }
    };
    let (resp, shutdown) = handle_op(daemon, op, &req);
    let ok = matches!(
        resp.as_map("response").ok().map(|m| field(m, "ok")),
        Some(Value::Bool(true))
    );
    let _ = conn.send(&http_json(
        if ok { "200 OK" } else { "400 Bad Request" },
        &resp,
    ));
    observe_request(daemon, op, t0);
    if shutdown {
        daemon.shutdown();
    }
}

fn handle_conn(daemon: Daemon, stream: TcpStream) {
    let Ok(mut conn) = Conn::new(stream) else {
        return;
    };
    // `{` opens the JSON-lines protocol, anything else is taken for HTTP.
    let first = conn.reader.fill_buf().ok().and_then(|b| b.first().copied());
    match first {
        Some(b'{') => handle_jsonl(&daemon, &mut conn),
        Some(_) => handle_http(&daemon, &mut conn),
        None => {}
    }
}

/// Serve connections on `listener` until the daemon shuts down. Returns
/// the join handle of the accept thread, which blocks in `accept()`:
/// [`Daemon::shutdown`] wakes it with one throw-away connection to the
/// address registered here.
pub fn spawn(daemon: Daemon, listener: TcpListener) -> std::thread::JoinHandle<()> {
    let addr = listener
        .local_addr()
        .expect("a bound listener has a local address");
    daemon.register_listener(addr);
    std::thread::spawn(move || {
        // Registering and raising the shutdown flag take the same lock:
        // either shutdown saw the address and its connection ends the
        // `accept` below, or the flag is already up here.
        while !daemon.is_shutting_down() {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let d = daemon.clone();
            std::thread::spawn(move || handle_conn(d, stream));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every one of a trickling peer's bytes arrives well inside any
    /// per-read timeout; only the shrinking one stops it.
    #[test]
    fn a_trickling_peer_is_cut_off_at_the_request_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.set_nodelay(true).unwrap();
        let (stream, _) = listener.accept().unwrap();
        // A byte per segment, never a newline, until the reader hangs up.
        let trickle = std::thread::spawn(move || while peer.write_all(b"x").is_ok() {});
        let t0 = Instant::now();
        let mut reader = BufReader::new(Deadline {
            stream,
            at: t0 + Duration::from_millis(200),
        });
        let mut line = Vec::new();
        assert!(matches!(
            read_line(&mut reader, &mut line, 1 << 30),
            Line::Closed
        ));
        let took = t0.elapsed();
        assert!(
            (Duration::from_millis(200)..Duration::from_secs(2)).contains(&took),
            "{took:?}"
        );
        assert!(!line.is_empty(), "the trickle was being read");
        drop(reader);
        trickle.join().unwrap();
    }
}

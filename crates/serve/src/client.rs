//! Blocking client for the daemon's JSON-lines protocol, used by the
//! `examl serve …` subcommands and the test/bench harnesses.
//!
//! Each call opens a fresh connection, writes one request line and reads
//! one response line ([`Client::stream_health`] reads several). Keeping the
//! client connectionless sidesteps keep-alive state on both ends; daemon
//! operations are rare enough that the three-way handshake is noise.
//! Nothing here polls: [`Client::wait`] is one `wait` request that the
//! daemon answers when the job is terminal.

use crate::{JobId, JobSpec, JobStatus};
use exa_obs::ServeHeartbeat;
use serde::{field, Deserialize, Serialize, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long the daemon may take to answer a request that does not itself
/// wait.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// Daemon address, e.g. `127.0.0.1:7711`.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
}

impl Client {
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into() }
    }

    /// Connect and send `req` as one line in one segment.
    fn request(&self, req: &Value, read_timeout: Duration) -> Result<TcpStream, String> {
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(read_timeout))
            .map_err(|e| e.to_string())?;
        let mut line = serde_json::to_string(req).map_err(|e| e.to_string())?;
        line.push('\n');
        stream
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        Ok(stream)
    }

    fn rpc(&self, req: &Value) -> Result<Value, String> {
        self.rpc_within(req, RESPONSE_TIMEOUT)
    }

    fn rpc_within(&self, req: &Value, read_timeout: Duration) -> Result<Value, String> {
        let mut reader = BufReader::new(self.request(req, read_timeout)?);
        let mut resp = String::new();
        reader.read_line(&mut resp).map_err(|e| e.to_string())?;
        let v: Value = serde_json::from_str(&resp).map_err(|e| format!("bad response: {e}"))?;
        let entries = v.as_map("response").map_err(|e| e.0)?;
        match field(entries, "ok") {
            Value::Bool(true) => Ok(v.clone()),
            _ => Err(field(entries, "error")
                .as_str("error")
                .unwrap_or("request failed")
                .to_string()),
        }
    }

    fn op(name: &str, extra: Vec<(String, Value)>) -> Value {
        let mut m = vec![("op".to_string(), Value::Str(name.to_string()))];
        m.extend(extra);
        Value::Map(m)
    }

    /// Submit a job, returning its daemon-assigned id.
    pub fn submit(&self, spec: &JobSpec) -> Result<JobId, String> {
        let resp = self.rpc(&Self::op(
            "submit",
            vec![("spec".to_string(), spec.to_value())],
        ))?;
        let entries = resp.as_map("response").map_err(|e| e.0)?;
        field(entries, "id").as_u64("id").map_err(|e| e.0)
    }

    /// `status` (a zero `timeout`) or `wait`: the job as it is once it is
    /// terminal or `timeout` has passed.
    fn job(&self, op: &str, id: JobId, timeout: Duration) -> Result<JobStatus, String> {
        let timeout_ms = u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX);
        let resp = self.rpc_within(
            &Self::op(
                op,
                vec![
                    ("id".to_string(), Value::UInt(id)),
                    ("timeout_ms".to_string(), Value::UInt(timeout_ms)),
                ],
            ),
            timeout.saturating_add(RESPONSE_TIMEOUT),
        )?;
        let entries = resp.as_map("response").map_err(|e| e.0)?;
        JobStatus::from_value(field(entries, "job")).map_err(|e| e.0)
    }

    /// Snapshot one job.
    pub fn status(&self, id: JobId) -> Result<JobStatus, String> {
        self.job("status", id, Duration::ZERO)
    }

    /// Cancel a job; `Ok(true)` when a cancellation was initiated.
    pub fn cancel(&self, id: JobId) -> Result<bool, String> {
        let resp = self.rpc(&Self::op(
            "cancel",
            vec![("id".to_string(), Value::UInt(id))],
        ))?;
        let entries = resp.as_map("response").map_err(|e| e.0)?;
        field(entries, "cancelled")
            .as_bool("cancelled")
            .map_err(|e| e.0)
    }

    /// Snapshot every job.
    pub fn list(&self) -> Result<Vec<JobStatus>, String> {
        let resp = self.rpc(&Self::op("list", vec![]))?;
        let entries = resp.as_map("response").map_err(|e| e.0)?;
        field(entries, "jobs")
            .as_array("jobs")
            .map_err(|e| e.0)?
            .iter()
            .map(|v| JobStatus::from_value(v).map_err(|e| e.0))
            .collect()
    }

    /// Current daemon gauges.
    pub fn health(&self) -> Result<ServeHeartbeat, String> {
        let resp = self.rpc(&Self::op("health", vec![]))?;
        let entries = resp.as_map("response").map_err(|e| e.0)?;
        ServeHeartbeat::from_value(field(entries, "health")).map_err(|e| e.0)
    }

    /// Prometheus text-format snapshot of the daemon's metrics registry
    /// (same text `GET /metrics` serves).
    pub fn metrics(&self) -> Result<String, String> {
        let resp = self.rpc(&Self::op("metrics", vec![]))?;
        let entries = resp.as_map("response").map_err(|e| e.0)?;
        field(entries, "text")
            .as_str("text")
            .map(str::to_string)
            .map_err(|e| e.0)
    }

    /// Read `count` heartbeats spaced `interval_ms` apart from the
    /// streaming endpoint.
    pub fn stream_health(
        &self,
        count: u64,
        interval_ms: u64,
    ) -> Result<Vec<ServeHeartbeat>, String> {
        let req = Self::op(
            "stream-health",
            vec![
                ("count".to_string(), Value::UInt(count)),
                ("interval_ms".to_string(), Value::UInt(interval_ms)),
            ],
        );
        let stream = self.request(&req, RESPONSE_TIMEOUT)?;
        let reader = BufReader::new(stream);
        let mut out = Vec::new();
        for line in reader.lines() {
            let line = line.map_err(|e| e.to_string())?;
            if line.trim().is_empty() {
                continue;
            }
            // The trailing {"ok":true} terminator ends the stream.
            if let Ok(hb) = ServeHeartbeat::from_json_line(&line) {
                out.push(hb);
            } else {
                break;
            }
        }
        Ok(out)
    }

    /// Resize the daemon's worker pool; returns `(previous, new)` targets.
    pub fn resize(&self, workers: u64) -> Result<(u64, u64), String> {
        let resp = self.rpc(&Self::op(
            "resize",
            vec![("workers".to_string(), Value::UInt(workers))],
        ))?;
        let entries = resp.as_map("response").map_err(|e| e.0)?;
        let previous = field(entries, "previous")
            .as_u64("previous")
            .map_err(|e| e.0)?;
        let new = field(entries, "workers")
            .as_u64("workers")
            .map_err(|e| e.0)?;
        Ok((previous, new))
    }

    /// Ask the daemon to checkpoint running jobs and stop.
    pub fn shutdown(&self) -> Result<(), String> {
        self.rpc(&Self::op("shutdown", vec![])).map(|_| ())
    }

    /// Block until the job reaches a terminal state or `timeout` elapses
    /// (an error): one `wait` request, answered by the daemon when either
    /// happens.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Result<JobStatus, String> {
        let st = self.job("wait", id, timeout)?;
        if st.state.is_terminal() {
            Ok(st)
        } else {
            Err(format!("job {id} still {:?} after {timeout:?}", st.state))
        }
    }
}

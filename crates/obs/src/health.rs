//! Run-health reporting: heartbeat records and the end-of-run summary.
//!
//! A long de-centralized run is opaque from the outside: stdout shows the
//! final tree hours later, and a stalled or diverged run looks identical to
//! a slow one. The heartbeat monitor emits one JSON-lines
//! [`HeartbeatRecord`] per search-iteration boundary (behind
//! `--health-out FILE`), cheap enough to tail from another terminal or feed
//! a dashboard; [`HealthReport`] condenses the same signals into the CLI's
//! end-of-run summary.
//!
//! All three sinks carry the compute modes a run resolved as one `modes`
//! table, `key → label` (`"kernel" → "simd"`, `"threads" → "2"`, …). Which
//! modes exist is the producing layer's business (`exa_search::Modes`);
//! this module stores and renders the table without knowing its keys.

use crate::aggregate::CriticalPathSummary;
use crate::fingerprint::ReplicaDivergence;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One periodic status record, serialized as a single JSON line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatRecord {
    /// Search iteration this boundary precedes (0 = before the first).
    pub iteration: u64,
    /// Current total log likelihood.
    pub lnl: f64,
    /// Accepted SPR moves so far.
    pub spr_accepts: u64,
    /// Collectives per wall-clock second since the previous heartbeat.
    pub collectives_per_sec: f64,
    /// Cumulative theoretical payload bytes across all collectives.
    pub comm_bytes: u64,
    /// Measured kernel-time imbalance (max rank / mean rank) since the
    /// previous heartbeat; 1.0 is perfect balance, 0.0 means no kernel
    /// time was measured in the interval.
    pub imbalance: f64,
    /// Fingerprint syncs completed so far (0 when the sentinel is off).
    pub sentinel_syncs: u64,
    /// `"ok"` while replicas agree. A run that trips the sentinel aborts
    /// before the next heartbeat, so a diverged status never appears here —
    /// the field documents that the run was verified up to this record.
    pub divergence: String,
    /// Subtree-repeat compression ratio so far:
    /// `(clv_updates + clv_saved) / clv_updates`, i.e. how many times more
    /// CLV columns a repeat-blind run would have computed. 1.0 when
    /// compression is off; `None` on legacy records.
    pub repeat_ratio: Option<f64>,
    /// Cumulative CLV pattern-category updates skipped by subtree-repeat
    /// compression. `None` on legacy records.
    pub clv_saved: Option<u64>,
    /// Search iteration captured by the most recent committed checkpoint
    /// generation. `None` on legacy records or before the first checkpoint.
    pub last_checkpoint_iter: Option<u64>,
    /// Wall-clock milliseconds the most recent checkpoint write took
    /// (gather + encode + fsync + rename). `None` on legacy records or
    /// before the first checkpoint.
    pub checkpoint_write_ms: Option<f64>,
    /// The modes the run computes with. `None` on records written before
    /// the modes were nested (those carried some of them as flat fields).
    pub modes: Option<BTreeMap<String, String>>,
}

impl HeartbeatRecord {
    /// One-line JSON encoding (no interior newlines), ready to append to a
    /// JSON-lines file.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("heartbeat serialization cannot fail")
    }

    /// Parse a line produced by [`HeartbeatRecord::to_json_line`].
    pub fn from_json_line(line: &str) -> Result<HeartbeatRecord, String> {
        serde_json::from_str(line.trim()).map_err(|e| e.to_string())
    }
}

/// One daemon-level status record from `exa-serve`: queue and worker-pool
/// gauges, serialized as a single JSON line (`GET /health` returns the
/// latest one; `GET /stream-health` emits them as ndjson). The daemon owns
/// the counters; this type only fixes the wire format so dashboards and the
/// verify harness can `jq` it without knowing daemon internals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeHeartbeat {
    /// Monotonic record index within this daemon process.
    pub seq: u64,
    /// Jobs waiting in the scheduler (not running, not terminal).
    pub queue_depth: u64,
    /// Jobs currently executing on a worker.
    pub running: u64,
    /// Workers parked waiting for dispatchable jobs.
    pub workers_idle: u64,
    /// Terminal-state counters since daemon start (journal replay included).
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    /// Checkpoint-preemptions performed (a job may contribute several).
    pub preemptions: u64,
    /// Runs started from a checkpoint left by a previous attempt.
    pub resumes: u64,
    /// Worst queue wait so far, submit → first dispatch, in milliseconds.
    pub max_wait_ms: f64,
    /// Mean queue wait over all first dispatches, in milliseconds.
    pub mean_wait_ms: f64,
    /// Per-tenant gauges, in tenant-name order.
    pub tenants: Vec<TenantGauge>,
    /// Daemon build version (`CARGO_PKG_VERSION`). `None` on legacy
    /// records.
    pub version: Option<String>,
    /// Seconds since this daemon process started. `None` on legacy
    /// records.
    pub uptime_secs: Option<f64>,
    /// What a job left on the defaults computes with on this host (every
    /// `auto` resolved locally). `None` on records written before the
    /// modes were nested.
    pub modes: Option<BTreeMap<String, String>>,
}

/// Per-tenant slice of a [`ServeHeartbeat`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantGauge {
    pub tenant: String,
    /// Jobs of this tenant waiting in the scheduler.
    pub queued: u64,
    /// Jobs of this tenant currently running.
    pub running: u64,
    /// Dispatches granted to this tenant since daemon start.
    pub dispatched: u64,
}

impl ServeHeartbeat {
    /// One-line JSON encoding, ready for an ndjson stream.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("serve heartbeat serialization cannot fail")
    }

    /// Parse a line produced by [`ServeHeartbeat::to_json_line`].
    pub fn from_json_line(line: &str) -> Result<ServeHeartbeat, String> {
        serde_json::from_str(line.trim()).map_err(|e| e.to_string())
    }
}

/// Measured kernel-time imbalance: max over ranks divided by the mean.
/// Returns 0.0 when no time was measured (so callers can distinguish "no
/// data" from "perfectly balanced").
pub fn imbalance_ratio(per_rank_ns: &[u64]) -> f64 {
    if per_rank_ns.is_empty() {
        return 0.0;
    }
    let total: u64 = per_rank_ns.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mean = total as f64 / per_rank_ns.len() as f64;
    *per_rank_ns.iter().max().unwrap() as f64 / mean
}

/// End-of-run health summary for the CLI.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Sentinel cadence in collectives (0 = sentinel off).
    pub sentinel_cadence: u64,
    /// Fingerprint syncs completed.
    pub sentinel_syncs: u64,
    /// The divergence that aborted the run, if any.
    pub divergence: Option<ReplicaDivergence>,
    /// Measured kernel-time imbalance over the whole run (from the trace),
    /// when tracing was on.
    pub measured_imbalance: Option<f64>,
    /// The scheduler's predicted imbalance (pattern counts).
    pub predicted_imbalance: Option<f64>,
    /// Heartbeat records written.
    pub heartbeats: u64,
    /// The modes the run computed with (`None` on a report nobody filled
    /// in, or one written before the modes were nested).
    pub modes: Option<BTreeMap<String, String>>,
    /// Subtree-repeat compression ratio over the whole run:
    /// `(clv_updates + clv_saved) / clv_updates`.
    pub repeat_ratio: Option<f64>,
    /// Per-iteration wall-time attribution (compute vs collective-wait vs
    /// straggler-induced idle), from [`crate::RunTrace::critical_path`].
    /// `None` when tracing was off or the trace had no iteration marks.
    pub critical_path: Option<CriticalPathSummary>,
}

impl HealthReport {
    /// Multi-line plain-text rendering for the end-of-run summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "run health");
        for (key, label) in self.modes.iter().flatten() {
            let _ = writeln!(out, "  {key}: {label}");
        }
        if let Some(ratio) = self.repeat_ratio {
            let _ = writeln!(out, "  repeat compression ratio: {ratio:.3}");
        }
        match (self.sentinel_cadence, &self.divergence) {
            (0, _) => {
                let _ = writeln!(out, "  sentinel: off");
            }
            (n, None) => {
                let _ = writeln!(
                    out,
                    "  sentinel: {} fingerprint sync(s) at cadence {n}, replicas bit-identical",
                    self.sentinel_syncs
                );
            }
            (n, Some(d)) => {
                let _ = writeln!(
                    out,
                    "  sentinel: TRIPPED after {} sync(s) at cadence {n}",
                    self.sentinel_syncs
                );
                let _ = writeln!(out, "  {d}");
            }
        }
        match (self.measured_imbalance, self.predicted_imbalance) {
            (Some(m), Some(p)) if p > 0.0 => {
                let _ = writeln!(
                    out,
                    "  load imbalance: measured {m:.3}, predicted {p:.3} (ratio {:.3})",
                    m / p
                );
            }
            (Some(m), _) => {
                let _ = writeln!(out, "  load imbalance: measured {m:.3}");
            }
            (None, Some(p)) => {
                let _ = writeln!(out, "  load imbalance: predicted {p:.3} (no trace)");
            }
            (None, None) => {}
        }
        if self.heartbeats > 0 {
            let _ = writeln!(out, "  heartbeats: {} record(s)", self.heartbeats);
        }
        if let Some(cp) = &self.critical_path {
            let _ = writeln!(
                out,
                "  critical path: {} iteration(s), compute {:.1}%, collective {:.1}%, \
                 straggler {:.1}%",
                cp.iterations,
                cp.compute_frac() * 100.0,
                cp.collective_frac() * 100.0,
                cp.straggler_frac() * 100.0,
            );
            match (cp.slowest_rank, cp.hottest_partition) {
                (Some(r), Some(p)) => {
                    let _ = writeln!(out, "    slowest rank {r}, hottest partition {p}");
                }
                (Some(r), None) => {
                    let _ = writeln!(out, "    slowest rank {r}");
                }
                (None, Some(p)) => {
                    let _ = writeln!(out, "    hottest partition {p}");
                }
                (None, None) => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Component;

    fn modes(entries: &[(&str, &str)]) -> Option<BTreeMap<String, String>> {
        Some(
            entries
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    fn record() -> HeartbeatRecord {
        HeartbeatRecord {
            iteration: 3,
            lnl: -1234.5678,
            spr_accepts: 7,
            collectives_per_sec: 812.5,
            comm_bytes: 65536,
            imbalance: 1.25,
            sentinel_syncs: 4,
            divergence: "ok".into(),
            repeat_ratio: Some(2.5),
            clv_saved: Some(1200),
            last_checkpoint_iter: Some(2),
            checkpoint_write_ms: Some(0.75),
            modes: modes(&[("kernel", "simd"), ("reduce", "fast"), ("threads", "2")]),
        }
    }

    #[test]
    fn heartbeat_roundtrips_as_one_json_line() {
        let r = record();
        let line = r.to_json_line();
        assert!(!line.contains('\n'), "must be a single line: {line}");
        assert!(
            line.ends_with(r#","modes":{"kernel":"simd","reduce":"fast","threads":"2"}}"#),
            "{line}"
        );
        let back = HeartbeatRecord::from_json_line(&line).unwrap();
        assert_eq!(r, back);
        assert!(HeartbeatRecord::from_json_line("not json").is_err());

        // Lines written before the optional fields existed still parse.
        let legacy = line
            .replace(",\"repeat_ratio\":2.5", "")
            .replace(",\"clv_saved\":1200", "")
            .replace(",\"last_checkpoint_iter\":2", "")
            .replace(",\"checkpoint_write_ms\":0.75", "")
            .replace(
                r#","modes":{"kernel":"simd","reduce":"fast","threads":"2"}"#,
                "",
            );
        assert_ne!(legacy, line);
        let back = HeartbeatRecord::from_json_line(&legacy).unwrap();
        assert_eq!(back.repeat_ratio, None);
        assert_eq!(back.clv_saved, None);
        assert_eq!(back.last_checkpoint_iter, None);
        assert_eq!(back.checkpoint_write_ms, None);
        assert_eq!(back.modes, None);
    }

    #[test]
    fn serve_heartbeat_roundtrips() {
        let hb = ServeHeartbeat {
            seq: 9,
            queue_depth: 42,
            running: 3,
            workers_idle: 1,
            completed: 17,
            failed: 1,
            cancelled: 2,
            preemptions: 5,
            resumes: 4,
            max_wait_ms: 812.5,
            mean_wait_ms: 90.25,
            tenants: vec![
                TenantGauge {
                    tenant: "batch".into(),
                    queued: 40,
                    running: 1,
                    dispatched: 12,
                },
                TenantGauge {
                    tenant: "interactive".into(),
                    queued: 2,
                    running: 2,
                    dispatched: 8,
                },
            ],
            version: Some("0.1.0".into()),
            uptime_secs: Some(12.5),
            modes: modes(&[("kernel", "simd"), ("site_repeats", "on")]),
        };
        let line = hb.to_json_line();
        assert!(!line.contains('\n'), "must be a single line: {line}");
        assert_eq!(ServeHeartbeat::from_json_line(&line).unwrap(), hb);
        assert!(ServeHeartbeat::from_json_line("not json").is_err());

        // Lines written before the capability fields existed still parse.
        let legacy = line
            .replace(",\"version\":\"0.1.0\"", "")
            .replace(",\"uptime_secs\":12.5", "")
            .replace(r#","modes":{"kernel":"simd","site_repeats":"on"}"#, "");
        assert_ne!(legacy, line);
        let back = ServeHeartbeat::from_json_line(&legacy).unwrap();
        assert_eq!(back.version, None);
        assert_eq!(back.uptime_secs, None);
        assert_eq!(back.modes, None);
    }

    #[test]
    fn imbalance_ratio_is_max_over_mean() {
        assert_eq!(imbalance_ratio(&[]), 0.0);
        assert_eq!(imbalance_ratio(&[0, 0]), 0.0);
        assert!((imbalance_ratio(&[100, 100, 100]) - 1.0).abs() < 1e-12);
        // mean = 150, max = 200.
        assert!((imbalance_ratio(&[100, 200]) - 200.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn report_renders_clean_and_tripped_states() {
        let clean = HealthReport {
            sentinel_cadence: 64,
            sentinel_syncs: 12,
            divergence: None,
            measured_imbalance: Some(1.08),
            predicted_imbalance: Some(1.05),
            heartbeats: 5,
            modes: modes(&[
                ("kernel", "simd"),
                ("reduce", "reproducible"),
                ("site_repeats", "on"),
                ("threads", "2"),
            ]),
            repeat_ratio: Some(2.125),
            critical_path: Some(CriticalPathSummary {
                iterations: 4,
                wall_ns: 1_000,
                compute_ns: 600,
                collective_ns: 100,
                straggler_ns: 50,
                other_ns: 250,
                slowest_rank: Some(1),
                hottest_partition: Some(3),
                hottest_partition_ns: 400,
            }),
        };
        let text = clean.render();
        assert!(text.contains("  kernel: simd\n"), "{text}");
        assert!(text.contains("  reduce: reproducible\n"), "{text}");
        assert!(text.contains("  threads: 2\n"), "{text}");
        assert!(text.contains("  site_repeats: on\n"), "{text}");
        assert!(text.contains("compression ratio: 2.125"), "{text}");
        assert!(text.contains("replicas bit-identical"), "{text}");
        assert!(text.contains("cadence 64"), "{text}");
        assert!(text.contains("measured 1.080"), "{text}");
        assert!(text.contains("heartbeats: 5"), "{text}");
        assert!(
            text.contains("critical path: 4 iteration(s), compute 60.0%"),
            "{text}"
        );
        assert!(
            text.contains("slowest rank 1, hottest partition 3"),
            "{text}"
        );

        let tripped = HealthReport {
            sentinel_cadence: 8,
            sentinel_syncs: 2,
            divergence: Some(ReplicaDivergence {
                collective_index: 16,
                sync_index: 2,
                minority_ranks: vec![1],
                components: vec![Component::ModelParams],
            }),
            ..HealthReport::default()
        };
        let text = tripped.render();
        assert!(text.contains("TRIPPED"), "{text}");
        assert!(text.contains("rank(s) {1}"), "{text}");

        let off = HealthReport::default();
        assert!(off.render().contains("sentinel: off"));
    }
}

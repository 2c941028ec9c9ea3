//! Exporters: Chrome `trace_event` JSON and a plain-text summary table.

use crate::aggregate::{RunMetrics, RunTrace};
use crate::events::EventKind;
use crate::stats::CommCategory;
use serde::Value;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Reserved mark-label prefix of a mode stamp, `mode:<key>=<label>`: one
/// per compute mode the run resolved (which modes exist is the stamping
/// layer's business, not this crate's). [`chrome_trace`] hoists every such
/// mark into the top-level `otherData` header as `otherData.<key>`, so the
/// modes are visible without scanning events. Per-rank *batch counts* are
/// deliberately not marked (they differ across ranks under MPS and would
/// break trace rank-parity) — those go to the metrics registry instead.
pub const MODE_MARK: &str = "mode:";

/// Reserved mark-label prefix stamped (on every rank) each time a
/// checkpoint generation is committed; the suffix is the search iteration
/// the checkpoint captured. Emitting it on all ranks keeps per-rank event
/// streams structurally identical, so the trace rank-parity invariants
/// hold across checkpointing runs.
pub const CHECKPOINT_MARK: &str = "checkpoint:";

/// Reserved mark-label prefix the search driver emits at every iteration
/// boundary; the suffix is the iteration number. These marks cut the
/// windows of [`crate::RunTrace::critical_path`] — on the de-centralized
/// scheme every rank emits them, on fork-join only the master does, and
/// both cases window correctly because ranks share the recorder clock.
pub const ITERATION_MARK: &str = "iteration:";

/// Microseconds (Chrome's `ts`/`dur` unit) from nanoseconds, as the exact
/// decimal (`2.000`, `0.007`): always with a fraction, so it parses back to
/// a float — the `f64` nearest `ns / 1000`.
struct Micros(u64);

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1000, self.0 % 1000)
    }
}

/// A JSON string literal. Only mark labels need it: every other string in
/// the document is one of this crate's own identifier-like labels.
fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("string serialization cannot fail")
}

/// Stream a trace as Chrome `trace_event` JSON ("JSON object format"): one
/// process, one thread per rank, `B`/`E` span events for regions, `X`
/// complete events for kernels and `i` instant events for collectives and
/// marks. Loadable in Perfetto and `chrome://tracing`. The first occurrence
/// of each [`MODE_MARK`] key is additionally surfaced in the top-level
/// `otherData` header (`otherData.kernel`, …), in order of first
/// appearance. Each event is formatted straight into `out`: a small job's
/// trace is already thousands of events, and building them as a `Value`
/// tree first took 8× as long (EXPERIMENTS.md, "Daemon serving path").
fn write_trace(out: &mut impl std::io::Write, trace: &RunTrace) -> std::io::Result<()> {
    let mut hoisted: Vec<(&str, &str)> = Vec::new();
    out.write_all(b"{\"traceEvents\":[")?;
    for rank in 0..trace.n_ranks() {
        if rank > 0 {
            out.write_all(b",")?;
        }
        // Thread-name metadata so the timeline rows read "rank 0", …
        write!(
            out,
            r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{rank},"args":{{"name":"rank {rank}"}}}}"#
        )?;
        for e in trace.events(rank) {
            write!(out, r#",{{"pid":0,"tid":{rank},"ts":{}"#, Micros(e.ts_ns))?;
            match &e.kind {
                EventKind::RegionBegin { region } => write!(
                    out,
                    r#","ph":"B","name":"{}","cat":"region"}}"#,
                    region.label()
                )?,
                EventKind::RegionEnd { region } => write!(
                    out,
                    r#","ph":"E","name":"{}","cat":"region"}}"#,
                    region.label()
                )?,
                EventKind::Collective {
                    op,
                    category,
                    bytes,
                } => write!(
                    out,
                    r#","ph":"i","s":"t","name":"{}","cat":"collective","args":{{"category":"{category:?}","bytes":{bytes}}}}}"#,
                    op.label()
                )?,
                EventKind::Mark { label } => {
                    let stamp = label
                        .strip_prefix(MODE_MARK)
                        .and_then(|s| s.split_once('='));
                    if let Some((key, value)) = stamp {
                        if !hoisted.iter().any(|(k, _)| *k == key) {
                            hoisted.push((key, value));
                        }
                    }
                    write!(
                        out,
                        r#","ph":"i","s":"t","name":{},"cat":"mark"}}"#,
                        json_str(label)
                    )?
                }
                // Chrome "complete" event: begin + duration in one record.
                EventKind::Kernel {
                    region,
                    partition,
                    dur_ns,
                } => write!(
                    out,
                    r#","ph":"X","dur":{},"name":"{}","cat":"kernel","args":{{"partition":{partition}}}}}"#,
                    Micros(*dur_ns),
                    region.label()
                )?,
            }
        }
    }
    out.write_all(b"],\"displayTimeUnit\":\"ms\"")?;
    let mut sep = r#","otherData":{"#;
    for (key, value) in &hoisted {
        write!(out, "{sep}{}:{}", json_str(key), json_str(value))?;
        sep = ",";
    }
    if sep == "," {
        out.write_all(b"}")?;
    }
    out.write_all(b"}\n")
}

/// The document [`write_chrome_trace`] writes, parsed.
pub fn chrome_trace(trace: &RunTrace) -> Value {
    let mut text = Vec::new();
    write_trace(&mut text, trace).expect("writing to memory cannot fail");
    serde_json::from_slice(&text).expect("the exporter writes valid JSON")
}

/// Write the trace to `path` as Chrome `trace_event` JSON.
pub fn write_chrome_trace(path: &Path, trace: &RunTrace) -> std::io::Result<()> {
    // 64 KiB: at the default 8 KiB the `write` calls were a third of the
    // export.
    let mut out = std::io::BufWriter::with_capacity(1 << 16, std::fs::File::create(path)?);
    write_trace(&mut out, trace)?;
    out.flush()
}

fn fmt_ns(ns: u64) -> String {
    let x = ns as f64;
    if x < 1e3 {
        format!("{ns} ns")
    } else if x < 1e6 {
        format!("{:.1} µs", x / 1e3)
    } else if x < 1e9 {
        format!("{:.1} ms", x / 1e6)
    } else {
        format!("{:.2} s", x / 1e9)
    }
}

fn fmt_bytes(b: u64) -> String {
    let x = b as f64;
    if x < 1024.0 {
        format!("{b} B")
    } else if x < 1024.0 * 1024.0 {
        format!("{:.1} KiB", x / 1024.0)
    } else {
        format!("{:.1} MiB", x / (1024.0 * 1024.0))
    }
}

/// Human-readable end-of-run summary: one row per region kind that
/// occurred, one per comm category with traffic, plus run totals.
pub fn summary_table(metrics: &RunMetrics) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "trace summary ({} ranks)", metrics.n_ranks);
    let _ = writeln!(
        out,
        "  {:<16} {:>9} {:>12} {:>12} {:>12}",
        "region", "count", "total", "mean", "max"
    );
    for kind in crate::RegionKind::ALL {
        let s = metrics.region(kind);
        if s.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<16} {:>9} {:>12} {:>12} {:>12}",
            kind.label(),
            s.count,
            fmt_ns(s.total_ns),
            fmt_ns(s.mean_ns() as u64),
            fmt_ns(s.max_ns),
        );
    }
    let _ = writeln!(
        out,
        "  {:<34} {:>9} {:>14}",
        "comm category", "regions", "bytes"
    );
    for cat in CommCategory::ALL {
        let c = metrics.comm.get(cat);
        if c.regions == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>9} {:>14}",
            cat.label(),
            c.regions,
            fmt_bytes(c.bytes),
        );
    }
    let _ = writeln!(
        out,
        "  totals: {} parallel regions, {}, {} events, span {}",
        metrics.comm.total_regions(),
        fmt_bytes(metrics.comm.total_bytes()),
        metrics.collective_events + metrics.marks,
        fmt_ns(metrics.span_ns),
    );
    if metrics.unmatched_regions > 0 {
        let _ = writeln!(
            out,
            "  WARNING: {} unmatched region events",
            metrics.unmatched_regions
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{RegionKind, TraceEvent};
    use crate::stats::OpKind;

    fn sample_trace() -> RunTrace {
        RunTrace {
            per_rank: vec![
                vec![
                    TraceEvent {
                        ts_ns: 0,
                        kind: EventKind::RegionBegin {
                            region: RegionKind::Newview,
                        },
                    },
                    TraceEvent {
                        ts_ns: 1500,
                        kind: EventKind::RegionEnd {
                            region: RegionKind::Newview,
                        },
                    },
                    TraceEvent {
                        ts_ns: 2000,
                        kind: EventKind::Collective {
                            op: OpKind::Allreduce,
                            category: CommCategory::SiteLikelihoods,
                            bytes: 8,
                        },
                    },
                ],
                vec![
                    TraceEvent {
                        ts_ns: 2100,
                        kind: EventKind::Mark {
                            label: "spr_round:0".into(),
                        },
                    },
                    TraceEvent {
                        ts_ns: 2200,
                        kind: EventKind::Kernel {
                            region: RegionKind::Evaluate,
                            partition: 1,
                            dur_ns: 900,
                        },
                    },
                ],
            ],
        }
    }

    #[test]
    fn chrome_trace_has_valid_shape() {
        let v = chrome_trace(&sample_trace());
        let text = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        let map = back.as_map("trace").unwrap();
        let events = serde::field(map, "traceEvents")
            .as_array("traceEvents")
            .unwrap();
        // 5 events + 2 thread-name metadata records.
        assert_eq!(events.len(), 7);
        for e in events {
            let m = e.as_map("event").unwrap();
            let ph = serde::field(m, "ph").as_str("ph").unwrap();
            assert!(["B", "E", "i", "M", "X"].contains(&ph), "{ph}");
        }
        // B/E balance for rank 0.
        let b = text.matches("\"ph\":\"B\"").count();
        let e = text.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e);
    }

    #[test]
    fn mode_marks_are_hoisted_into_other_data() {
        // No mark → no otherData header.
        let plain = serde_json::to_string(&chrome_trace(&sample_trace())).unwrap();
        assert!(!plain.contains("otherData"), "{plain}");

        // Whatever keys the stamping layer uses are hoisted, first value
        // per key, in order of first appearance; a mark that merely starts
        // with the prefix is not a stamp.
        let mut trace = sample_trace();
        let labels = ["mode:kernel=simd", "mode:threads=4", "mode:novel=x=y"];
        for (i, label) in labels.into_iter().enumerate() {
            trace.per_rank[0].insert(
                i,
                TraceEvent {
                    ts_ns: 0,
                    kind: EventKind::Mark {
                        label: label.into(),
                    },
                },
            );
        }
        for label in ["mode:kernel=scalar", "mode:unkeyed"] {
            trace.per_rank[1].push(TraceEvent {
                ts_ns: 9000,
                kind: EventKind::Mark {
                    label: label.into(),
                },
            });
        }
        let v = chrome_trace(&trace);
        let other = serde::field(v.as_map("trace").unwrap(), "otherData");
        assert_eq!(
            serde_json::to_string(other).unwrap(),
            r#"{"kernel":"simd","threads":"4","novel":"x=y"}"#
        );
    }

    #[test]
    fn write_chrome_trace_produces_parseable_file() {
        let dir = std::env::temp_dir().join("exa_obs_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        write_chrome_trace(&path, &sample_trace()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        assert!(serde::field(v.as_map("root").unwrap(), "traceEvents") != &Value::Null);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_table_lists_active_rows_only() {
        let table = summary_table(&sample_trace().aggregate());
        assert!(table.contains("newview"));
        assert!(table.contains("per-site/per-partition likelihoods"));
        assert!(
            !table.contains("model parameters"),
            "no ModelParams traffic:\n{table}"
        );
        assert!(
            !table.contains("spr_round "),
            "no spr region rows:\n{table}"
        );
        assert!(table.contains("totals: 1 parallel regions"));
    }
}

//! End-to-end tests of the `exa-obs` tracing subsystem.
//!
//! Three properties are checked over real inference runs:
//!
//! 1. **Trace parity** — de-centralized ranks replicate the search, so the
//!    timestamp-free event sequences of all ranks are bit-identical, and two
//!    runs with the same seed produce identical traces (§III-B's lock-step
//!    guarantee, observed rather than assumed).
//! 2. **Scheme comparison** — the fork-join scheme needs strictly more
//!    parallel regions (descriptor/parameter broadcasts on top of the
//!    reductions) than the de-centralized scheme on the same problem; the
//!    paper's §III-B argues ≥2× fewer regions for de-centralized.
//! 3. **Aggregation consistency** — the comm stats reconstructed from the
//!    trace match the communicator's own accounting, and kernel/search
//!    regions appear with sane counts.

use exa_obs::{RegionKind, RunTrace};
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_core::{RunConfig, Scheme};
use serde::Value;

fn small_workload(seed: u64) -> workloads::Workload {
    workloads::partitioned(8, 2, 120, seed)
}

fn fast_search() -> SearchConfig {
    SearchConfig {
        max_iterations: 2,
        ..SearchConfig::fast()
    }
}

fn traced_decentralized(
    w: &workloads::Workload,
    n_ranks: usize,
    seed: u64,
) -> (RunTrace, exa_comm::CommStats) {
    let out = RunConfig::new(n_ranks)
        .search(fast_search())
        .seed(seed)
        .collect_trace(true)
        .run(&w.compressed)
        .unwrap();
    (out.trace.unwrap(), out.comm_stats)
}

fn traced_forkjoin(w: &workloads::Workload, n_ranks: usize, seed: u64) -> RunTrace {
    let out = RunConfig::new(n_ranks)
        .scheme(Scheme::ForkJoin)
        .search(fast_search())
        .seed(seed)
        .collect_trace(true)
        .run(&w.compressed)
        .unwrap();
    out.trace.unwrap()
}

#[test]
fn decentralized_ranks_emit_identical_event_sequences() {
    let w = small_workload(11);
    let (trace, _) = traced_decentralized(&w, 3, 42);
    assert_eq!(trace.n_ranks(), 3);
    let reference = trace.signatures(0);
    assert!(!reference.is_empty());
    for rank in 1..trace.n_ranks() {
        assert_eq!(
            trace.signatures(rank),
            reference,
            "rank {rank} diverged from rank 0"
        );
    }
}

#[test]
fn same_seed_reruns_are_bit_identical() {
    let w = small_workload(13);
    let (a, _) = traced_decentralized(&w, 2, 7);
    let (b, _) = traced_decentralized(&w, 2, 7);
    for rank in 0..2 {
        assert_eq!(
            a.signatures(rank),
            b.signatures(rank),
            "rerun diverged on rank {rank}"
        );
    }
}

#[test]
fn forkjoin_needs_at_least_twice_the_parallel_regions() {
    let w = small_workload(17);
    let seed = 42;
    let (dec, _) = traced_decentralized(&w, 3, seed);
    let fj = traced_forkjoin(&w, 3, seed);
    let dec_regions = dec.aggregate().comm.total_regions();
    let fj_regions = fj.aggregate().comm.total_regions();
    assert!(
        fj_regions >= 2 * dec_regions,
        "fork-join should need ≥2× the collectives of de-centralized \
         (§III-B): fork-join {fj_regions}, de-centralized {dec_regions}"
    );
}

#[test]
fn trace_comm_stats_match_communicator_accounting() {
    use exa_comm::{CommCategory, OpKind};
    let w = small_workload(19);
    let (trace, stats) = traced_decentralized(&w, 2, 5);
    let metrics = trace.aggregate();
    assert_eq!(metrics.unmatched_regions, 0);
    // The trace holds observed collectives only; the communicator's stats
    // additionally account the modeled initial-distribution scatter. Their
    // difference must be exactly that one Control-category scatter.
    let modeled = stats.diff(&metrics.comm);
    assert_eq!(modeled.total_regions(), 1);
    assert_eq!(modeled.ops_of_kind(OpKind::Scatter), 1);
    assert_eq!(
        modeled.get(CommCategory::Control).bytes,
        modeled.total_bytes()
    );
    for cat in CommCategory::ALL {
        if cat != CommCategory::Control {
            assert_eq!(
                metrics.comm.get(cat),
                stats.get(cat),
                "category {cat:?} diverges"
            );
        }
    }
    // Every observed collective is mirrored on every rank.
    assert_eq!(metrics.collective_events, 2 * metrics.comm.total_regions());
}

#[test]
fn kernel_and_search_regions_have_sane_counts() {
    let w = small_workload(23);
    let (trace, _) = traced_decentralized(&w, 2, 9);
    let m = trace.aggregate();
    let newview = m.region(RegionKind::Newview).count;
    let evaluate = m.region(RegionKind::Evaluate).count;
    let deriv = m.region(RegionKind::CoreDerivative).count;
    let nr = m.region(RegionKind::NrIteration).count;
    let spr = m.region(RegionKind::SprRound).count;
    let model_opt = m.region(RegionKind::ModelOptRound).count;
    assert!(
        newview > 0 && evaluate > 0 && deriv > 0,
        "{newview} {evaluate} {deriv}"
    );
    // Every Newton iteration, of SPR scoring and of smoothing alike, wraps
    // exactly one derivative kernel call, and nothing else in a search
    // differentiates.
    assert!(nr > 0, "nr iterations: {nr}");
    assert_eq!(deriv, nr, "derivative regions vs NR iterations");
    // Two ranks ran ≤ 2 search iterations each: one SPR round and one
    // model-optimization round per iteration, plus the initial conditioning
    // model round.
    assert!((2..=2 * 2).contains(&spr), "spr rounds: {spr}");
    assert!(model_opt >= spr, "model rounds: {model_opt} vs spr {spr}");
    assert!(m.marks >= 2, "iteration-boundary marks: {}", m.marks);
    // Wait time is attributed to every collective.
    assert_eq!(
        m.region(RegionKind::CollectiveWait).count,
        m.collective_events,
    );
}

#[test]
fn trace_collection_is_opt_in() {
    // The external-recorder shims are gone (their migration window is
    // over); `RunConfig::collect_trace` is now the only tracing switch, and
    // a run without it must not return a trace.
    let w = small_workload(29);
    let out = RunConfig::new(2)
        .search(fast_search())
        .seed(29)
        .run(&w.compressed)
        .unwrap();
    assert!(out.trace.is_none(), "untraced run must not carry a trace");
}

#[test]
fn chrome_trace_export_roundtrips_via_json() {
    let w = small_workload(31);
    let (trace, _) = traced_decentralized(&w, 2, 3);
    let value = exa_obs::chrome_trace(&trace);
    let text = serde_json::to_string(&value).unwrap();
    let back: serde::Value = serde_json::from_str(&text).unwrap();
    let events = serde::field(back.as_map("trace").unwrap(), "traceEvents")
        .as_array("traceEvents")
        .unwrap();
    // All events + one thread-name metadata record per rank.
    assert_eq!(events.len(), trace.total_events() + trace.n_ranks());
}

/// Test oracle: the exporter as it was before it streamed — the whole
/// document built as a `Value` tree, one `Map` per event. The production
/// writer must keep producing this document.
fn reference_chrome_trace(trace: &RunTrace) -> Value {
    use exa_obs::EventKind;
    fn entry(k: &str, v: Value) -> (String, Value) {
        (k.to_string(), v)
    }
    fn str_v(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }
    fn us(ts_ns: u64) -> Value {
        Value::Float(ts_ns as f64 / 1000.0)
    }
    let mut hoisted: Vec<(String, Value)> = Vec::new();
    let mut events: Vec<Value> = Vec::new();
    for rank in 0..trace.n_ranks() {
        events.push(Value::Map(vec![
            entry("name", str_v("thread_name")),
            entry("ph", str_v("M")),
            entry("pid", Value::UInt(0)),
            entry("tid", Value::UInt(rank as u64)),
            entry(
                "args",
                Value::Map(vec![entry("name", str_v(format!("rank {rank}")))]),
            ),
        ]));
        for e in trace.events(rank) {
            let mut fields = vec![
                entry("pid", Value::UInt(0)),
                entry("tid", Value::UInt(rank as u64)),
                entry("ts", us(e.ts_ns)),
            ];
            match &e.kind {
                EventKind::RegionBegin { region } => {
                    fields.push(entry("ph", str_v("B")));
                    fields.push(entry("name", str_v(region.label())));
                    fields.push(entry("cat", str_v("region")));
                }
                EventKind::RegionEnd { region } => {
                    fields.push(entry("ph", str_v("E")));
                    fields.push(entry("name", str_v(region.label())));
                    fields.push(entry("cat", str_v("region")));
                }
                EventKind::Collective {
                    op,
                    category,
                    bytes,
                } => {
                    fields.push(entry("ph", str_v("i")));
                    fields.push(entry("s", str_v("t")));
                    fields.push(entry("name", str_v(op.label())));
                    fields.push(entry("cat", str_v("collective")));
                    fields.push(entry(
                        "args",
                        Value::Map(vec![
                            entry("category", str_v(format!("{category:?}"))),
                            entry("bytes", Value::UInt(*bytes)),
                        ]),
                    ));
                }
                EventKind::Mark { label } => {
                    let stamp = label
                        .strip_prefix(exa_obs::MODE_MARK)
                        .and_then(|stamp| stamp.split_once('='));
                    if let Some((key, value)) = stamp {
                        if hoisted.iter().all(|(k, _)| k != key) {
                            hoisted.push(entry(key, str_v(value)));
                        }
                    }
                    fields.push(entry("ph", str_v("i")));
                    fields.push(entry("s", str_v("t")));
                    fields.push(entry("name", str_v(label.clone())));
                    fields.push(entry("cat", str_v("mark")));
                }
                EventKind::Kernel {
                    region,
                    partition,
                    dur_ns,
                } => {
                    fields.push(entry("ph", str_v("X")));
                    fields.push(entry("dur", us(*dur_ns)));
                    fields.push(entry("name", str_v(region.label())));
                    fields.push(entry("cat", str_v("kernel")));
                    fields.push(entry(
                        "args",
                        Value::Map(vec![entry("partition", Value::UInt(*partition as u64))]),
                    ));
                }
            }
            events.push(Value::Map(fields));
        }
    }
    let mut top = vec![
        entry("traceEvents", Value::Array(events)),
        entry("displayTimeUnit", str_v("ms")),
    ];
    if !hoisted.is_empty() {
        top.push(entry("otherData", Value::Map(hoisted)));
    }
    Value::Map(top)
}

/// Every event kind, whole and fractional microsecond stamps, two mode
/// marks (the second `kernel` must not displace the first) and a label
/// that needs every JSON escape.
fn synthetic_trace() -> RunTrace {
    use exa_obs::{CommCategory, EventKind, OpKind, TraceEvent};
    let at = |ts_ns, kind| TraceEvent { ts_ns, kind };
    let mark = |ts_ns, label: String| at(ts_ns, EventKind::Mark { label });
    RunTrace {
        per_rank: vec![
            vec![
                mark(0, format!("{}kernel=simd", exa_obs::MODE_MARK)),
                mark(1, format!("{}threads=4", exa_obs::MODE_MARK)),
                at(
                    1000,
                    EventKind::RegionBegin {
                        region: RegionKind::Newview,
                    },
                ),
                at(
                    2500,
                    EventKind::RegionEnd {
                        region: RegionKind::Newview,
                    },
                ),
                at(
                    3000,
                    EventKind::Collective {
                        op: OpKind::Allreduce,
                        category: CommCategory::SiteLikelihoods,
                        bytes: 24,
                    },
                ),
            ],
            vec![
                mark(7, format!("{}kernel=scalar", exa_obs::MODE_MARK)),
                mark(2_000_000, "quote\" back\\slash\nnew\tline \u{1} µs".into()),
                at(
                    86_400_000_000_123,
                    EventKind::Kernel {
                        region: RegionKind::Evaluate,
                        partition: 3,
                        dur_ns: 900,
                    },
                ),
            ],
            vec![],
        ],
    }
}

fn written_chrome_trace(trace: &RunTrace, name: &str) -> Value {
    let path = std::env::temp_dir().join(format!("examl_{name}_{}.json", std::process::id()));
    exa_obs::write_chrome_trace(&path, trace).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    serde_json::from_str(&text).unwrap()
}

#[test]
fn streamed_chrome_trace_is_the_value_tree_document() {
    let synthetic = synthetic_trace();
    let reference = reference_chrome_trace(&synthetic);
    assert_eq!(written_chrome_trace(&synthetic, "synthetic"), reference);
    assert_eq!(exa_obs::chrome_trace(&synthetic), reference);
    let other = serde::field(reference.as_map("trace").unwrap(), "otherData");
    assert_eq!(
        serde_json::to_string(other).unwrap(),
        r#"{"kernel":"simd","threads":"4"}"#
    );

    let w = small_workload(31);
    let (trace, _) = traced_decentralized(&w, 2, 3);
    let reference = reference_chrome_trace(&trace);
    let written = written_chrome_trace(&trace, "two_ranks");
    assert_eq!(written, reference);
    let events = serde::field(written.as_map("trace").unwrap(), "traceEvents")
        .as_array("traceEvents")
        .unwrap();
    let phases: std::collections::BTreeSet<&str> = events
        .iter()
        .map(|e| {
            serde::field(e.as_map("event").unwrap(), "ph")
                .as_str("ph")
                .unwrap()
        })
        .collect();
    assert_eq!(
        phases.into_iter().collect::<Vec<_>>(),
        ["B", "E", "M", "X", "i"]
    );
}

/// Export cost on a trace the size of a `serve_flood` daemon job's
/// (12 taxa, 2 × 150 sites, one rank, one iteration): the `Value`-tree
/// exporter against the streaming one, best of 20 each. Prints; run with
/// `cargo test --release -p examl-integration-tests --test tracing -- --ignored --nocapture`.
#[test]
#[ignore = "timing report for EXPERIMENTS.md, not a check"]
fn export_timing_value_tree_vs_streaming() {
    use std::io::Write;
    let w = workloads::partitioned(12, 2, 150, 8);
    let out = RunConfig::new(1)
        .starting_tree(exa_search::StartingTree::Parsimony)
        .search(SearchConfig {
            max_iterations: 1,
            ..SearchConfig::default()
        })
        .collect_trace(true)
        .run(&w.compressed)
        .unwrap();
    let trace = out.trace.unwrap();
    let path =
        std::env::temp_dir().join(format!("examl_export_timing_{}.json", std::process::id()));
    let best_ms = |f: &dyn Fn()| {
        (0..20)
            .map(|_| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    let value_tree = best_ms(&|| {
        let json = serde_json::to_string(&reference_chrome_trace(&trace)).unwrap();
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(json.as_bytes()).unwrap();
        f.write_all(b"\n").unwrap();
    });
    let streaming = best_ms(&|| exa_obs::write_chrome_trace(&path, &trace).unwrap());
    let bytes = std::fs::metadata(&path).unwrap().len();
    std::fs::remove_file(&path).ok();
    println!(
        "{} events, {bytes} bytes: value tree {value_tree:.2} ms, streaming {streaming:.2} ms ({:.1}x)",
        trace.total_events(),
        value_tree / streaming
    );
}

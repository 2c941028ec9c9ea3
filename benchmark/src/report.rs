//! Output: the metric table a person reads, the JSON a driver reads, and
//! the two checks built on that JSON — `compare` (the A/A table behind
//! `aa.sh`) and `validate` (the schema check behind `check.sh`).

use crate::inputs::WORKLOADS;
use crate::metrics::{self, s, MetricDef, END_TO_END, PER_LAYER};
use crate::parent::{Mode, Options, WorkloadResult};
use crate::sys;
use serde::{field, Value};
use std::path::Path;

fn map(pairs: Vec<(String, Value)>) -> Value {
    Value::Map(pairs)
}

fn metric_map(defs: &[MetricDef], values: &crate::layers::Metrics) -> Vec<(String, Value)> {
    defs.iter()
        .filter_map(|m| {
            values.get(m.name).map(|&v| {
                (
                    m.name.to_string(),
                    map(vec![
                        ("value".into(), Value::Float(v)),
                        ("unit".into(), s(m.unit)),
                    ]),
                )
            })
        })
        .collect()
}

/// The object a driver reads from the last line: exactly `correct`,
/// `attempted`, `failed`, `metrics`.
pub fn driver_line(r: &WorkloadResult, mode: Mode) -> Value {
    let metrics = match mode {
        Mode::Layers => metric_map(&PER_LAYER, &r.per_layer),
        _ => metric_map(&END_TO_END, &r.end_to_end),
    };
    map(vec![
        ("correct".into(), Value::Bool(r.failed == 0)),
        ("attempted".into(), Value::UInt(r.attempted.max(1))),
        ("failed".into(), Value::UInt(r.failed)),
        ("metrics".into(), map(metrics)),
    ])
}

/// The full result of an invocation: what was run, on what, and every
/// metric of every workload.
pub fn full_result(opts: &Options, results: &[WorkloadResult], spool_dir: &Path) -> Value {
    let workloads = results
        .iter()
        .map(|r| {
            let shape = r.def.shape(opts.quick);
            let mut metrics = metric_map(&END_TO_END, &r.end_to_end);
            metrics.extend(metric_map(&PER_LAYER, &r.per_layer));
            (
                r.def.name.to_string(),
                map(vec![
                    ("ops_attempted".into(), Value::UInt(r.attempted)),
                    ("ops_failed".into(), Value::UInt(r.failed)),
                    (
                        "failures".into(),
                        Value::Array(r.notes.iter().map(|n| s(n)).collect()),
                    ),
                    (
                        "sizes".into(),
                        map(vec![
                            ("taxa".into(), Value::UInt(shape.taxa as u64)),
                            ("partitions".into(), Value::UInt(shape.partitions as u64)),
                            (
                                "sites_per_partition".into(),
                                Value::UInt(shape.sites_per_partition as u64),
                            ),
                            ("patterns".into(), Value::Float(r.patterns)),
                            ("jobs".into(), Value::UInt(r.def.jobs(opts.quick) as u64)),
                        ]),
                    ),
                    ("metrics".into(), map(metrics)),
                ]),
            )
        })
        .collect();
    map(vec![
        // A quick run uses other sizes; it is a smoke test, never a result.
        ("comparable".into(), Value::Bool(!opts.quick)),
        ("quick".into(), Value::Bool(opts.quick)),
        ("seed".into(), Value::UInt(opts.seed)),
        ("seconds".into(), Value::Float(opts.seconds)),
        (
            "machine".into(),
            map(vec![
                ("nproc".into(), Value::UInt(sys::nproc() as u64)),
                (
                    "caches".into(),
                    Value::Array(sys::cache_sizes().iter().map(|c| s(c)).collect()),
                ),
                (
                    "spool_filesystem".into(),
                    s(&sys::filesystem_type(spool_dir)),
                ),
            ]),
        ),
        ("workloads".into(), map(workloads)),
    ])
}

/// Print every metric by name with unit, one column per workload.
pub fn print_table(opts: &Options, results: &[WorkloadResult]) {
    if opts.quick {
        println!("QUICK run: reduced sizes, smoke test only, never comparable with any other run");
    }
    print!("{:<36} {:>6}", "metric", "unit");
    for r in results {
        print!(" {:>16}", r.def.name);
    }
    println!();
    let row = |m: &MetricDef, pick: fn(&WorkloadResult) -> &crate::layers::Metrics| {
        if !results.iter().any(|r| pick(r).contains_key(m.name)) {
            return;
        }
        print!("{:<36} {:>6}", m.name, m.unit);
        for r in results {
            match pick(r).get(m.name) {
                Some(v) => print!(" {:>16}", format_value(*v)),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    };
    for m in &END_TO_END {
        row(m, |r| &r.end_to_end);
    }
    for m in &PER_LAYER {
        row(m, |r| &r.per_layer);
    }
    print!("{:<36} {:>6}", "ops_attempted", "count");
    for r in results {
        print!(" {:>16}", r.attempted);
    }
    println!();
    print!("{:<36} {:>6}", "ops_failed", "count");
    for r in results {
        print!(" {:>16}", r.failed);
    }
    println!();
    for r in results {
        for note in &r.notes {
            println!("FAILED {}: {note}", r.def.name);
        }
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

fn read_json(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path} is not JSON: {e}"))
}

fn metric_value(result: &Value, workload: &str, metric: &str) -> Option<f64> {
    let top = result.as_map("result").ok()?;
    let w = field(top, "workloads").as_map("workloads").ok()?;
    let m = field(w, workload).as_map("workload").ok()?;
    let metrics = field(m, "metrics").as_map("metrics").ok()?;
    let entry = field(metrics, metric).as_map("metric").ok()?;
    match field(entry, "value") {
        // A non-finite float is written as null.
        Value::Null => None,
        v => v.as_f64("value").ok(),
    }
}

/// Counts that depend on the inputs alone: two runs of one build on one
/// seed must print them identically.
const EXACT: [&str; 9] = [
    "core.collectives_per_iter",
    "core.comm_bytes_per_iter",
    "core.work_entries",
    "core.dispatches",
    "forkjoin.descriptor_bytes",
    "forkjoin.param_bytes",
    "sched.imbalance_max_over_mean",
    "sched.batches_per_rank",
    "sched.batch_fill_ratio",
];

/// The A/A table: two result sets of the same build, every workload ×
/// end-to-end metric, relative difference against the bound. Returns
/// whether every pair is within its bound and every exact count agrees.
pub fn compare(path_a: &str, path_b: &str) -> bool {
    let (a, b) = (read_json(path_a), read_json(path_b));
    let mut ok = true;
    println!("| workload | metric | first | second | difference | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (
                metric_value(&a, w.name, m.name),
                metric_value(&b, w.name, m.name),
            ) else {
                println!(
                    "| {} | {} | missing | missing | - | - | BREACH |",
                    w.name, m.name
                );
                ok = false;
                continue;
            };
            let diff = (y - x) / x;
            let bound = m.bound.expect("end-to-end metrics are gated");
            let within = diff.abs() <= bound;
            ok &= within;
            println!(
                "| {} | {} | {:.4} {} | {:.4} {} | {:+.2} % | {:.0} % | {} |",
                w.name,
                m.name,
                x,
                m.unit,
                y,
                m.unit,
                100.0 * diff,
                100.0 * bound,
                if within { "ok" } else { "BREACH" }
            );
        }
    }
    println!();
    println!("| workload | harness.aa_split_pct first | second | exact counts |");
    println!("|---|---|---|---|");
    for w in &WORKLOADS {
        let split = |r: &Value| {
            metric_value(r, w.name, "harness.aa_split_pct")
                .map_or("-".to_string(), |v| format!("{v:.2} %"))
        };
        let differing: Vec<&str> = EXACT
            .iter()
            .copied()
            .filter(|name| {
                let (x, y) = (
                    metric_value(&a, w.name, name),
                    metric_value(&b, w.name, name),
                );
                x.map(f64::to_bits) != y.map(f64::to_bits)
            })
            .collect();
        ok &= differing.is_empty();
        println!(
            "| {} | {} | {} | {} |",
            w.name,
            split(&a),
            split(&b),
            if differing.is_empty() {
                "identical".to_string()
            } else {
                format!("DIFFER: {}", differing.join(", "))
            }
        );
    }
    ok
}

/// Schema check of `BENCHMARK.json` and of one result file. Returns the
/// list of problems found.
pub fn validate(manifest_path: &str, result_path: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let manifest = read_json(manifest_path);
    if manifest != metrics::manifest() {
        problems.push(format!(
            "{manifest_path} differs from the catalogue in src/metrics.rs (regenerate it with `manifest`)"
        ));
    }
    let top = manifest.as_map("manifest").unwrap_or(&[]);
    let list = |key: &str| {
        field(top, key)
            .as_array(key)
            .map(<[Value]>::to_vec)
            .unwrap_or_default()
    };
    let name_of = |v: &Value| -> String {
        v.as_map("entry")
            .ok()
            .and_then(|m| field(m, "name").as_str("name").ok())
            .unwrap_or("")
            .to_string()
    };
    for (key, limit) in [("workloads", 8), ("end_to_end", 16), ("per_layer", 128)] {
        let entries = list(key);
        if entries.is_empty() || entries.len() > limit {
            problems.push(format!("{key}: {} entries, limit {limit}", entries.len()));
        }
        for e in &entries {
            let name = name_of(e);
            if !metrics::valid_name(&name) {
                problems.push(format!("{key}: invalid name {name:?}"));
            }
            let m = e.as_map("entry").unwrap_or(&[]);
            if key != "workloads" {
                let unit = field(m, "unit").as_str("unit").unwrap_or("");
                let better = field(m, "better").as_str("better").unwrap_or("");
                if !metrics::valid_unit(unit) || !matches!(better, "lower" | "higher") {
                    problems.push(format!("{key}.{name}: unit {unit:?} / better {better:?}"));
                }
            }
            if key == "end_to_end" {
                match field(m, "bound").as_f64("bound") {
                    Ok(b) if b > 0.0 && b <= 0.25 => {}
                    _ => problems.push(format!(
                        "end_to_end.{name}: bound missing or outside (0, 0.25]"
                    )),
                }
            }
        }
    }

    let result = read_json(result_path);
    for w in list("workloads") {
        let w = name_of(&w);
        for key in ["end_to_end", "per_layer"] {
            for m in list(key) {
                let m = name_of(&m);
                match metric_value(&result, &w, &m) {
                    Some(v) if v.is_finite() => {}
                    _ => problems.push(format!("{w}: {m} missing or not finite in {result_path}")),
                }
            }
        }
        let failed = result
            .as_map("result")
            .ok()
            .and_then(|t| field(t, "workloads").as_map("workloads").ok())
            .and_then(|ws| field(ws, &w).as_map("workload").ok())
            .and_then(|m| field(m, "ops_failed").as_u64("ops_failed").ok());
        if failed != Some(0) {
            problems.push(format!("{w}: ops_failed = {failed:?}"));
        }
    }
    problems
}

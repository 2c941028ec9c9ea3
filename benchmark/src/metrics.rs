//! The catalogue: every metric the benchmark prints, with unit, direction
//! and — for the gated end-to-end three — the bound. `BENCHMARK.json` is
//! generated from this table (`examl-benchmark manifest`), and `check.sh`
//! fails when the two disagree.

use crate::inputs::WORKLOADS;
use serde::Value;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which a gated metric may worsen.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
        bound: None,
    }
}

/// Seconds one run spends on its timed rounds (`--seconds` default and
/// `run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 26;

pub const END_TO_END: [MetricDef; 3] = [
    gated("wall_s", "s", 0.25),
    gated("setup_s", "s", 0.25),
    gated("peak_rss_mb", "MB", 0.20),
];

pub const PER_LAYER: [MetricDef; 74] = [
    higher("bio.parse_phylip_mb_s", "MB/s"),
    lower("bio.parse_partitions_ms", "ms"),
    lower("bio.compress_ms", "ms"),
    lower("sched.distribute_ms", "ms"),
    lower("sched.build_engine_ms", "ms"),
    lower("sched.imbalance_max_over_mean", "ratio"),
    lower("sched.batches_per_rank", "count"),
    higher("sched.batch_fill_ratio", "ratio"),
    lower("phylo.newview_ns_per_entry", "ns"),
    lower("phylo.newview_scalar_ns_per_entry", "ns"),
    lower("phylo.evaluate_ns_per_entry", "ns"),
    lower("phylo.derivatives_ns_per_entry", "ns"),
    lower("phylo.gradient_sweep_ns_per_entry", "ns"),
    higher("phylo.newview_gb_s_computed", "GB/s"),
    higher("phylo.repeat_ratio", "ratio"),
    lower("phylo.traversal_ms", "ms"),
    lower("phylo.clv_bytes", "B"),
    lower("phylo.psr_newview_ns_per_entry", "ns"),
    lower("phylo.site_rates_ns_per_pattern", "ns"),
    lower("phylo.ns_per_dispatch", "ns"),
    higher("phylo.pool_efficiency_t2", "ratio"),
    lower("comm.allreduce_24B_us", "us"),
    lower("comm.allreduce_binned_24B_us", "us"),
    lower("comm.barrier_us", "us"),
    lower("comm.allreduce_8kB_us", "us"),
    lower("comm.allreduce_fat_us", "us"),
    lower("comm.broadcast_8kB_us", "us"),
    lower("search.spr_round_ms", "ms"),
    lower("search.smooth_pass_ms", "ms"),
    lower("search.parsimony_tree_ms", "ms"),
    lower("search.iterations", "count"),
    lower("search.optimize_model_ms", "ms"),
    lower("core.collectives_per_iter", "count"),
    lower("core.comm_bytes_per_iter", "B"),
    lower("core.work_entries", "count"),
    lower("core.dispatches", "count"),
    lower("core.wall_raw_s", "s"),
    lower("core.wall_best_s", "s"),
    lower("core.wall_spread_pct", "%"),
    lower("core.cpu_s", "s"),
    lower("core.wall_r1_s", "s"),
    higher("core.scaling_efficiency_r2", "ratio"),
    lower("core.checkpoint_save_ms", "ms"),
    lower("core.checkpoint_load_ms", "ms"),
    lower("core.checkpoint_bytes", "B"),
    lower("forkjoin.wall_s", "s"),
    higher("forkjoin.wall_ratio", "ratio"),
    lower("forkjoin.collectives_per_iter", "count"),
    lower("forkjoin.bytes_per_iter", "B"),
    lower("forkjoin.descriptor_bytes", "B"),
    lower("forkjoin.param_bytes", "B"),
    lower("obs.trace_overhead_pct", "%"),
    higher("obs.cp_compute_pct", "%"),
    lower("obs.cp_collective_pct", "%"),
    lower("obs.cp_idle_pct", "%"),
    higher("serve.jobs_per_s", "1/s"),
    lower("serve.submit_ms_p50", "ms"),
    lower("serve.submit_ms_p90", "ms"),
    lower("serve.queue_wait_ms_p50", "ms"),
    lower("serve.queue_wait_ms_p90", "ms"),
    lower("serve.job_service_ms", "ms"),
    lower("serve.journal_append_us_p50", "us"),
    lower("serve.journal_append_us_p90", "us"),
    lower("serve.journal_replay_ms", "ms"),
    lower("serve.urgent_wait_ms", "ms"),
    higher("harness.reps", "count"),
    lower("harness.calib_best_ms", "ms"),
    lower("harness.calib_spread_pct", "%"),
    lower("harness.ref_ms", "ms"),
    lower("harness.ref_spread_pct", "%"),
    lower("harness.aa_split_pct", "%"),
    lower("harness.traced_wall_s", "s"),
    higher("harness.spans", "count"),
    higher("harness.span_self_sum_pct", "%"),
];

pub fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn entry(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", s(m.name)),
            ("unit", s(m.unit)),
            ("better", s(m.better)),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Value::Float(b)));
        }
        entry(pairs)
    };
    entry(vec![
        (
            "command",
            Value::Array(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| entry(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// A name the contract accepts: starts with a letter or digit, at most 64
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A unit the contract accepts.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_within_the_contract() {
        assert!(WORKLOADS.len() >= 2 && WORKLOADS.len() <= 8);
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("every end-to-end metric is gated");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(serde_json::to_string(&manifest()).unwrap().len() < 64 * 1024);
    }
}

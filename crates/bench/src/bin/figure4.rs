//! **Figure 4** — execution times of ExaML vs RAxML-Light on alignments
//! with an increasing number of partitions (10/50/100/500/1000), under PSR
//! and Γ, on 4 nodes (192 cores); MPS enabled for ≥ 500 partitions.
//! `--mode joint` reproduces Fig. 4(a), `--mode per-partition` Fig. 4(b)
//! (the `-M` option).
//!
//! ```text
//! cargo run -p examl-bench --release --bin figure4 -- \
//!     [--mode joint|per-partition] [--chunk 25] [--ranks 4] [--sizes 10,50,100,500,1000]
//! ```
//!
//! Both schemes run for real (in-process ranks); their measured, rank-count
//! independent profiles (kernel work, parallel regions, payload bytes) are
//! then mapped onto the paper's 4-node × 48-core cluster with the analytic
//! model in `exa_comm::cluster` (substitution documented in DESIGN.md §2).

use exa_comm::cluster::{modeled_time, ClusterSpec};
use exa_phylo::model::rates::RateModelKind;
use exa_search::evaluator::BranchMode;
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_bench::{fmt_secs, write_json, write_markdown, MeasuredRun};
use examl_core::{RunConfig, Scheme};
use serde::Serialize;

#[derive(Serialize)]
struct Figure4Point {
    partitions: usize,
    model: String,
    scheme: String,
    mps: bool,
    measured: MeasuredRun,
    modeled_seconds: f64,
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Run once to warm the allocator and page cache, then three more times and
/// keep the median wall time. Everything else in a `MeasuredRun` (lnL, comm
/// stats, work counters) is deterministic across repeats, so the last
/// measurement is kept with only its wall time replaced.
fn median_of_three(mut run: impl FnMut() -> MeasuredRun) -> MeasuredRun {
    let _ = run();
    let runs = [run(), run(), run()];
    let mut walls = [
        runs[0].wall_seconds,
        runs[1].wall_seconds,
        runs[2].wall_seconds,
    ];
    walls.sort_by(f64::total_cmp);
    let [_, _, last] = runs;
    MeasuredRun {
        wall_seconds: walls[1],
        ..last
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match arg_value(&args, "--mode").as_deref() {
        Some("per-partition") => BranchMode::PerPartition,
        _ => BranchMode::Joint,
    };
    let chunk: usize = arg_value(&args, "--chunk")
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);
    let ranks: usize = arg_value(&args, "--ranks")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let sizes: Vec<usize> = arg_value(&args, "--sizes")
        .map(|s| s.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|| vec![10, 50, 100, 500, 1000]);

    let search = SearchConfig {
        max_iterations: 2,
        epsilon: 0.05,
        spr_radius: 3,
        smoothing_passes: 1,
        optimize_model: true,
        model_tol: 1e-2,
    };
    // The paper runs on 4 nodes (192 cores). ExaML carries the §V hybrid
    // execution this codebase implements (`--threads`: one rank per node,
    // a worker pool inside), so its collectives span nodes; RAxML-Light's
    // fork-join stays a flat per-core rank world.
    let spec = ClusterSpec::magny_cours(4);
    let hybrid = ClusterSpec {
        hybrid_collectives: true,
        ..spec
    };

    let mut points: Vec<Figure4Point> = Vec::new();
    for &p in &sizes {
        // MPS (-Q) for >= 500 partitions, exactly like the paper.
        let mps = p >= 500;
        let strategy = if mps {
            exa_sched::Strategy::MonolithicLpt
        } else {
            exa_sched::Strategy::Cyclic
        };
        eprintln!("generating {p}-partition workload (52 taxa x {p} x {chunk} bp)...");
        let w = workloads::partitioned_52taxa(p, chunk, 3);

        for kind in [RateModelKind::Psr, RateModelKind::Gamma] {
            let model_label = match kind {
                RateModelKind::Psr => "PSR",
                RateModelKind::Gamma => "GAMMA",
            };
            // --- ExaML (de-centralized, batched kernels) ---
            eprintln!("  ExaML, {model_label} ...");
            let measured = median_of_three(|| {
                let mut cfg = RunConfig::new(ranks);
                cfg.rate_model = kind;
                cfg.branch_mode = mode;
                cfg.strategy = strategy;
                cfg.search = search.clone();
                cfg.seed = 5;
                cfg.batch = true;
                let t0 = std::time::Instant::now();
                let out = cfg.run(&w.compressed).unwrap();
                MeasuredRun::new(
                    out.result.lnl,
                    out.result.iterations,
                    &out.comm_stats,
                    &out.work,
                    out.mem_bytes,
                    t0.elapsed().as_secs_f64(),
                )
            });
            let modeled = modeled_time(&hybrid, &measured.profile_scaled(1.0, 1.0));
            points.push(Figure4Point {
                partitions: p,
                model: model_label.into(),
                scheme: "ExaML".into(),
                mps,
                measured,
                modeled_seconds: modeled.total_s,
            });

            // --- RAxML-Light (fork-join, per-partition dispatch) ---
            eprintln!("  RAxML-Light, {model_label} ...");
            let measured = median_of_three(|| {
                let mut cfg = RunConfig::new(ranks).scheme(Scheme::ForkJoin);
                cfg.rate_model = kind;
                cfg.branch_mode = mode;
                cfg.strategy = strategy;
                cfg.search = search.clone();
                cfg.seed = 5;
                cfg.batch = false;
                let t0 = std::time::Instant::now();
                let out = cfg.run(&w.compressed).unwrap();
                MeasuredRun::new(
                    out.result.lnl,
                    out.result.iterations,
                    &out.comm_stats,
                    &out.work,
                    out.mem_bytes,
                    t0.elapsed().as_secs_f64(),
                )
            });
            let modeled = modeled_time(&spec, &measured.profile_scaled(1.0, 1.0));
            points.push(Figure4Point {
                partitions: p,
                model: model_label.into(),
                scheme: "RAxML-Light".into(),
                mps,
                measured,
                modeled_seconds: modeled.total_s,
            });
        }
    }

    // Render.
    let suffix = match mode {
        BranchMode::Joint => "a",
        BranchMode::PerPartition => "b",
    };
    let mut md = String::new();
    md.push_str(&format!(
        "# Figure 4({suffix}) reproduction: partition-count sweep ({} branch lengths)\n\n",
        match mode {
            BranchMode::Joint => "joint",
            BranchMode::PerPartition => "per-partition (-M)",
        }
    ));
    md.push_str(
        "Modeled times are for the paper's 4-node x 48-core cluster, from measured \
         work/communication/dispatch profiles. ExaML runs with packed partition \
         batches and hybrid (one-rank-per-node) collectives; RAxML-Light dispatches \
         each partition separately in a flat rank world. Wall times are the \
         in-process measurement (median of 3 after one warm-up run).\n\n",
    );
    md.push_str(
        "| partitions | model | MPS | ExaML modeled (s) | RAxML-Light modeled (s) | speedup | ExaML wall (s) | RAxML-Light wall (s) | identical lnL |\n",
    );
    md.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for &p in &sizes {
        for model in ["PSR", "GAMMA"] {
            let ex = points
                .iter()
                .find(|x| x.partitions == p && x.model == model && x.scheme == "ExaML")
                .unwrap();
            let fj = points
                .iter()
                .find(|x| x.partitions == p && x.model == model && x.scheme == "RAxML-Light")
                .unwrap();
            md.push_str(&format!(
                "| {p} | {model} | {} | {} | {} | {:.2}x | {} | {} | {} |\n",
                if ex.mps { "yes" } else { "no" },
                fmt_secs(ex.modeled_seconds),
                fmt_secs(fj.modeled_seconds),
                fj.modeled_seconds / ex.modeled_seconds,
                fmt_secs(ex.measured.wall_seconds),
                fmt_secs(fj.measured.wall_seconds),
                (ex.measured.lnl - fj.measured.lnl).abs() < 1e-6
            ));
        }
    }
    md.push_str(
        "\nPaper reference, Fig. 4(a): ExaML ~= RAxML-Light on 10/50/100 partitions under \
         PSR, ~30% faster under Γ; 3.1x/2.6x (Γ) and 3.2x/2.7x (PSR) faster on 500/1000. \
         Fig. 4(b) (-M): up to 1.7x (Γ) / 2.0x (PSR). The expected shape: the speedup \
         factor grows with the partition count because fork-join traffic (descriptors + \
         parameter arrays) grows with partitions while ExaML's collectives stay small.\n",
    );
    println!("{md}");
    write_markdown(&format!("figure4{suffix}"), &md);
    write_json(&format!("figure4{suffix}"), &points);
}

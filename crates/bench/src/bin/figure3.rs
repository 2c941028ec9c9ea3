//! **Figure 3** — log-scaled ExaML runtimes under PSR and Γ on the large
//! unpartitioned alignment (paper: 150 taxa × 20,000,000 bp, 12,597,450
//! unique patterns) for 1–32 nodes of 48 cores.
//!
//! ```text
//! cargo run -p examl-bench --release --bin figure3 -- \
//!     [--taxa 150] [--sites 20000] [--ranks 4]
//! ```
//!
//! The run executes for real at `--sites` scale; the measured profile is
//! rescaled to the paper's 12.6M patterns and mapped onto the Magny-Cours
//! cluster model, including the per-node memory capacity that made the
//! paper's Γ runs swap on 1–2 nodes (super-linear speedups, §IV-C). Also
//! reproduces the §IV-C ExaML-vs-RAxML-Light comparison at 32 nodes.

use exa_comm::cluster::{modeled_time, ClusterSpec};
use exa_phylo::model::rates::RateModelKind;
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_bench::{fmt_secs, write_json, write_markdown, MeasuredRun};
use examl_core::{RunConfig, Scheme};
use serde::Serialize;

/// The paper's pattern count for this dataset.
const PAPER_PATTERNS: f64 = 12_597_450.0;
/// The paper's taxon count (CLV work and memory scale with `taxa - 2`
/// inner nodes as well as with patterns).
const PAPER_TAXA: f64 = 150.0;
/// Non-CLV memory overhead (alignment, tip data, buffers, OS) relative to
/// CLV bytes; calibrated so the Γ footprint exceeds one 256 GB node and two
/// nodes' capacity, as observed in §IV-C (see EXPERIMENTS.md).
const MEM_OVERHEAD: f64 = 2.3;

#[derive(Serialize)]
struct Figure3Point {
    model: String,
    nodes: usize,
    modeled_seconds: f64,
    swapped: bool,
    speedup_vs_1_node: f64,
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let taxa: usize = arg_value(&args, "--taxa")
        .and_then(|s| s.parse().ok())
        .unwrap_or(150);
    let sites: usize = arg_value(&args, "--sites")
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let ranks: usize = arg_value(&args, "--ranks")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    eprintln!("generating the large unpartitioned workload ({taxa} taxa x {sites} bp)...");
    let w = workloads::large_unpartitioned(taxa, sites, 9);
    let measured_patterns = w.compressed.total_patterns() as f64;
    let scale = (PAPER_PATTERNS / measured_patterns) * ((PAPER_TAXA - 2.0) / (taxa as f64 - 2.0));
    eprintln!(
        "  {measured_patterns} unique patterns measured; scaling work/memory x{scale:.0} \
         to the paper's 12.6M patterns x 150 taxa"
    );

    let search = SearchConfig {
        max_iterations: 2,
        epsilon: 0.05,
        spr_radius: 3,
        smoothing_passes: 1,
        optimize_model: true,
        model_tol: 1e-2,
    };
    let node_counts = [1usize, 2, 4, 8, 16, 32];

    let mut points: Vec<Figure3Point> = Vec::new();
    let mut comparison_rows: Vec<String> = Vec::new();
    for kind in [RateModelKind::Psr, RateModelKind::Gamma] {
        let label = match kind {
            RateModelKind::Psr => "PSR",
            RateModelKind::Gamma => "GAMMA",
        };
        eprintln!("running ExaML under {label} on {ranks} in-process ranks ...");
        let mut cfg = RunConfig::new(ranks);
        cfg.rate_model = kind;
        cfg.search = search.clone();
        cfg.seed = 11;
        let t0 = std::time::Instant::now();
        let out = cfg.run(&w.compressed).unwrap();
        let ex = MeasuredRun::new(
            out.result.lnl,
            out.result.iterations,
            &out.comm_stats,
            &out.work,
            out.mem_bytes,
            t0.elapsed().as_secs_f64(),
        );

        let profile = ex.profile_scaled(scale, MEM_OVERHEAD);
        let mut t1 = f64::NAN;
        for &n in &node_counts {
            let spec = ClusterSpec::magny_cours(n);
            let m = modeled_time(&spec, &profile);
            if n == 1 {
                t1 = m.total_s;
            }
            points.push(Figure3Point {
                model: label.into(),
                nodes: n,
                modeled_seconds: m.total_s,
                swapped: m.swapped,
                speedup_vs_1_node: t1 / m.total_s,
            });
        }

        // §IV-C comparison at 32 nodes: ExaML vs RAxML-Light (reduction in
        // collective count is the only difference — unpartitioned data).
        eprintln!("running RAxML-Light under {label} for the 32-node comparison ...");
        let mut fcfg = RunConfig::new(ranks).scheme(Scheme::ForkJoin);
        fcfg.rate_model = kind;
        fcfg.search = search.clone();
        fcfg.seed = 11;
        let t0 = std::time::Instant::now();
        let fj_out = fcfg.run(&w.compressed).unwrap();
        let fj = MeasuredRun::new(
            fj_out.result.lnl,
            fj_out.result.iterations,
            &fj_out.comm_stats,
            &fj_out.work,
            fj_out.mem_bytes,
            t0.elapsed().as_secs_f64(),
        );
        let spec32 = ClusterSpec::magny_cours(32);
        let ex32 = modeled_time(&spec32, &profile).total_s;
        let fj32 = modeled_time(&spec32, &fj.profile_scaled(scale, MEM_OVERHEAD)).total_s;
        comparison_rows.push(format!(
            "| {label} | {} | {} | {:+.1}% |\n",
            fmt_secs(ex32),
            fmt_secs(fj32),
            100.0 * (fj32 - ex32) / fj32
        ));
    }

    let mut md = String::new();
    md.push_str("# Figure 3 reproduction: node sweep on the large unpartitioned alignment\n\n");
    md.push_str(&format!(
        "Profiles measured at {taxa} taxa x {sites} bp on {ranks} in-process ranks, \
         rescaled to the paper's 12.6M unique patterns; times modeled for the \
         Magny-Cours cluster (48 cores/node, 256 GB/node).\n\n"
    ));
    md.push_str("| model | nodes | modeled time (s) | speedup vs 1 node | swapping |\n");
    md.push_str("|---|---|---|---|---|\n");
    for p in &points {
        md.push_str(&format!(
            "| {} | {} | {} | {:.1} | {} |\n",
            p.model,
            p.nodes,
            fmt_secs(p.modeled_seconds),
            p.speedup_vs_1_node,
            if p.swapped { "YES" } else { "" }
        ));
    }
    md.push_str(
        "\nPaper reference: PSR speedups 6.9 @ 8 nodes and 26.9 @ 32 nodes (vs 1 node); \
         Γ super-linear on 1-2 nodes because the footprint exceeded node memory and \
         swapped.\n\n## ExaML vs RAxML-Light at 32 nodes (§IV-C)\n\n",
    );
    md.push_str("| model | ExaML (s) | RAxML-Light (s) | improvement |\n|---|---|---|---|\n");
    for r in &comparison_rows {
        md.push_str(r);
    }
    md.push_str(
        "\nPaper: 4990 s vs 6108 s under Γ (6.0-35.8% improvement range across node \
         counts); PSR execution times similar between the two codes.\n",
    );

    println!("{md}");
    write_markdown("figure3", &md);
    write_json("figure3", &points);
}

//! The paper in one program: run the SAME search under the fork-join
//! baseline (RAxML-Light) and the de-centralized scheme (ExaML) and print
//! the identical results next to the wildly different communication
//! profiles (§III, Table I).
//!
//! ```text
//! cargo run -p examl-examples --release --bin fork_join_vs_decentralized -- \
//!     [partitions=10] [chunk_len=200] [ranks=4]
//! ```

use exa_comm::{CommCategory, CommStats};
use exa_simgen::workloads;
use examl_core::{RunConfig, Scheme};

fn print_stats(label: &str, stats: &CommStats) {
    println!("  {label}:");
    println!(
        "    {:<38} {:>12} {:>14} {:>8}",
        "category", "regions", "bytes", "share"
    );
    for cat in CommCategory::ALL {
        let c = stats.get(cat);
        if c.regions == 0 {
            continue;
        }
        println!(
            "    {:<38} {:>12} {:>14} {:>7.2}%",
            cat.label(),
            c.regions,
            c.bytes,
            stats.byte_share(cat)
        );
    }
    println!(
        "    {:<38} {:>12} {:>14}",
        "TOTAL",
        stats.total_regions(),
        stats.total_bytes()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let partitions: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(10);
    let chunk_len: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(200);
    let ranks: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let seed = 7u64;

    println!("generating {partitions}-partition workload ({chunk_len} bp each, 52 taxa)...");
    let w = workloads::partitioned_52taxa(partitions, chunk_len, 99);

    println!("\n=== fork-join (RAxML-Light scheme) on {ranks} ranks ===");
    let mut fcfg = RunConfig::new(ranks).scheme(Scheme::ForkJoin);
    fcfg.seed = seed;
    let t0 = std::time::Instant::now();
    let fj = fcfg.run(&w.compressed).unwrap();
    let fj_time = t0.elapsed();
    println!(
        "  lnL = {:.4} after {} iterations ({fj_time:.2?})",
        fj.result.lnl, fj.result.iterations
    );

    println!("\n=== de-centralized (ExaML scheme) on {ranks} ranks ===");
    let mut dcfg = RunConfig::new(ranks);
    dcfg.seed = seed;
    let t0 = std::time::Instant::now();
    let dec = dcfg
        .run(&w.compressed)
        .expect("uniform replicas cannot diverge");
    let dec_time = t0.elapsed();
    println!(
        "  lnL = {:.4} after {} iterations ({dec_time:.2?})",
        dec.result.lnl, dec.result.iterations
    );

    println!("\n=== identical science ===");
    println!(
        "  |lnL difference|   : {:.3e}",
        (fj.result.lnl - dec.result.lnl).abs()
    );
    println!(
        "  same topology      : {}",
        exa_phylo::tree::bipartitions::rf_distance(&fj.state.tree, &dec.state.tree) == 0
    );

    println!("\n=== very different communication (cf. Table I) ===");
    print_stats("fork-join", &fj.comm_stats);
    print_stats("de-centralized", &dec.comm_stats);

    let ratio_bytes =
        fj.comm_stats.total_bytes() as f64 / dec.comm_stats.total_bytes().max(1) as f64;
    let ratio_regions =
        fj.comm_stats.total_regions() as f64 / dec.comm_stats.total_regions().max(1) as f64;
    println!("\n  fork-join moves {ratio_bytes:.1}x the bytes in {ratio_regions:.1}x the parallel regions");
}

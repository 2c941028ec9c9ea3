//! `examl-bench` — shared harness code for regenerating every table and
//! figure of the paper (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results). Everything
//! else that is measured lives in `benchmark/` (catalogue: `BENCHMARK.json`).
//!
//! Binaries:
//! * `figure3` — node-count sweep on the large unpartitioned alignment,
//! * `figure4` — partition-count sweep, ExaML vs RAxML-Light (`--mode
//!   joint|per-partition` for Fig. 4(a)/4(b)),
//! * `table1`  — fork-join communication-cost breakdown.

use exa_comm::cluster::RunProfile;
use exa_comm::{CommCategory, CommStats};
use exa_phylo::engine::WorkCounters;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Where harness binaries drop their JSON/markdown artifacts.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir.canonicalize().unwrap_or(dir)
}

/// Write a serializable result as pretty JSON under `results/`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize results");
    std::fs::write(&path, json).expect("write results json");
    eprintln!("wrote {}", path.display());
}

/// Write a rendered markdown table under `results/`.
pub fn write_markdown(name: &str, content: &str) {
    let path = results_dir().join(format!("{name}.md"));
    std::fs::write(&path, content).expect("write results markdown");
    eprintln!("wrote {}", path.display());
}

/// One measured scheme execution, reduced to the rank-count-independent
/// profile the cluster model consumes.
#[derive(Debug, Clone, Serialize)]
pub struct MeasuredRun {
    pub lnl: f64,
    pub iterations: usize,
    pub regions: u64,
    pub bytes: u64,
    pub work: u64,
    pub mem_bytes: u64,
    pub dispatches: u64,
    pub wall_seconds: f64,
    pub per_category: Vec<(String, u64, u64)>, // (label, regions, bytes)
}

impl MeasuredRun {
    /// Assemble from driver outputs.
    pub fn new(
        lnl: f64,
        iterations: usize,
        stats: &CommStats,
        work: &WorkCounters,
        mem_bytes: u64,
        wall_seconds: f64,
    ) -> MeasuredRun {
        let per_category = CommCategory::ALL
            .iter()
            .map(|&c| {
                let s = stats.get(c);
                (c.label().to_string(), s.regions, s.bytes)
            })
            .collect();
        MeasuredRun {
            lnl,
            iterations,
            regions: stats.total_regions(),
            bytes: stats.total_bytes(),
            work: work.total(),
            mem_bytes,
            dispatches: work.dispatches,
            wall_seconds,
            per_category,
        }
    }

    /// The cluster-model profile, scaled to a larger dataset: `scale` is
    /// the target-to-measured pattern ratio. Kernel work and memory scale
    /// with patterns; collective *counts* do not; message payloads are
    /// dominated by fixed-size reductions and taxa-sized descriptors, so
    /// bytes are left unscaled (conservative in the baseline's favour).
    /// `mem_overhead` accounts for non-CLV memory the engine does not track
    /// (alignment, buffers, OS — calibrated in EXPERIMENTS.md).
    pub fn profile_scaled(&self, scale: f64, mem_overhead: f64) -> RunProfile {
        RunProfile {
            work: (self.work as f64 * scale) as u64,
            regions: self.regions,
            bytes: self.bytes,
            mem_bytes: (self.mem_bytes as f64 * scale * mem_overhead) as u64,
            // Dispatch counts follow the partition/batch structure, not the
            // per-partition pattern count — scaling patterns leaves them put.
            dispatches: self.dispatches,
        }
    }
}

/// Format seconds human-readably for harness tables.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.3}")
    }
}

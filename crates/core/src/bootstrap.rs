//! Non-parametric bootstrap analysis.
//!
//! The production pipelines ExaML was built for (1KITE, the bird
//! phylogenomics project, §I) pair every ML tree with bootstrap support:
//! alignment columns are resampled with replacement, a tree is inferred per
//! replicate, and each bipartition of the best tree is annotated with the
//! fraction of replicates containing it.
//!
//! Under pattern compression, resampling columns is a multinomial redraw of
//! the per-pattern *weights* within each partition (total sites per
//! partition preserved) — no sequence data moves, which is why bootstrapping
//! composes cheaply with the binary alignment format and the de-centralized
//! driver.

use crate::checkpoint::{self, BootstrapProgress, Checkpoint, CheckpointHeader, CheckpointPayload};
use crate::run::{BootstrapOptions, BootstrapSummary, RunConfig, RunError, RunOutcome};
use crate::scheme::SchemeExchange;
use crate::{run_world, Allreduce};
use exa_bio::patterns::{CompressedAlignment, CompressedPartition};
use exa_phylo::tree::bipartitions::bipartitions;
use exa_search::evaluator::SearchSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Multinomially resample the pattern weights of one partition (total site
/// count preserved). Patterns drawn zero times are dropped.
fn resample_partition(part: &CompressedPartition, rng: &mut StdRng) -> CompressedPartition {
    let n_patterns = part.n_patterns();
    let total_sites: u32 = part.weights.iter().sum();
    // Draw `total_sites` columns according to the original weights.
    let cumulative: Vec<u64> = part
        .weights
        .iter()
        .scan(0u64, |acc, &w| {
            *acc += w as u64;
            Some(*acc)
        })
        .collect();
    let total = *cumulative.last().expect("non-empty partition") as f64;
    let mut counts = vec![0u32; n_patterns];
    for _ in 0..total_sites {
        let x = rng.gen_range(0.0..total) as u64;
        let idx = cumulative.partition_point(|&c| c <= x);
        counts[idx.min(n_patterns - 1)] += 1;
    }
    // Keep only drawn patterns.
    let kept: Vec<usize> = (0..n_patterns).filter(|&i| counts[i] > 0).collect();
    let mut sub = part.select_patterns(&kept);
    for (slot, &i) in sub.weights.iter_mut().zip(&kept) {
        *slot = counts[i];
    }
    sub
}

/// Resample a whole alignment (per-partition, preserving each partition's
/// site total).
pub fn resample_alignment(aln: &CompressedAlignment, seed: u64) -> CompressedAlignment {
    let mut rng = StdRng::seed_from_u64(seed);
    CompressedAlignment {
        taxa: aln.taxa.clone(),
        partitions: aln
            .partitions
            .iter()
            .map(|p| resample_partition(p, &mut rng))
            .collect(),
    }
}

/// Derive the trace path of bootstrap replicate `replicate` from the base
/// `--trace-out` path: `trace.json` → `trace.rep3.json` (the extension-less
/// case appends `.rep3`).
pub fn replicate_trace_path(path: &Path, replicate: usize) -> PathBuf {
    match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => path.with_extension(format!("rep{replicate}.{ext}")),
        None => {
            let mut p = path.as_os_str().to_owned();
            p.push(format!(".rep{replicate}"));
            PathBuf::from(p)
        }
    }
}

/// The bootstrap driver behind [`crate::RunConfig::run`]: the best-tree run
/// under `cfg`, then `bs.replicates` resampled runs, returned as the best
/// run's outcome with the support summary attached. When `bs.trace_out` is
/// set, the best-tree run's Chrome trace goes to that path and each
/// replicate's to [`replicate_trace_path`] of it (one trace per replicate —
/// replicates run sequentially, so sharing one recorder would interleave
/// them).
///
/// Checkpointing: a checkpoint committed *during* the best-tree search
/// carries `bootstrap: None` and resuming it re-enters that search; after
/// each completed replicate the driver commits a generation with
/// `bootstrap: Some(progress)` and resuming it skips both the best run and
/// the completed replicates. Replicate searches themselves never checkpoint
/// (the per-replicate state is tiny next to re-running one replicate, and
/// generations from different replicates would alias in the same
/// directory).
pub(crate) fn bootstrap_impl(
    aln: &CompressedAlignment,
    cfg: &RunConfig,
    bs: &BootstrapOptions,
    resume: Option<&CheckpointPayload>,
) -> Result<RunOutcome, RunError> {
    /// One traced-or-not run: the outcome and its committed checkpoints.
    fn run_one(
        aln: &CompressedAlignment,
        cfg: &RunConfig,
        trace_path: Option<PathBuf>,
        resume: Option<&CheckpointPayload>,
    ) -> Result<(RunOutcome, u64), RunError> {
        let recorder = trace_path
            .is_some()
            .then(|| exa_obs::Recorder::new(cfg.n_ranks));
        let out = run_world::<Allreduce>(aln, cfg, recorder.as_ref(), resume)?;
        if let (Some(path), Some(recorder)) = (trace_path, recorder) {
            exa_obs::write_chrome_trace(&path, &exa_obs::Recorder::finish(recorder))?;
        }
        Ok(out)
    }
    let trace_out = bs.trace_out.as_deref();
    // What a resumed best run is reported with and what the
    // between-replicate headers carry: the modes every world of this run
    // computes with.
    let modes = cfg.modes();

    let (mut best, mut committed, mut counts, mut replicate_lnls, start) = match resume {
        // Between-replicate checkpoint: the best run already finished —
        // reconstruct its outcome (communication/work counters are gone
        // with the original world and report as zero) and pick the
        // replicate loop back up where it left off.
        Some(CheckpointPayload {
            bootstrap: Some(progress),
            ..
        }) => {
            let mut best = RunOutcome {
                survivors: (0..cfg.n_ranks).collect(),
                ..RunOutcome::new(
                    progress.best_result.clone(),
                    progress.best_state.clone(),
                    &aln.taxa,
                    &modes,
                )
            };
            // No world ran, so no driver held the assignment table the
            // health report's predicted imbalance comes from.
            let assignments = exa_sched::distribute(aln, cfg.n_ranks, cfg.strategy);
            best.health.predicted_imbalance =
                Some(exa_sched::balance::balance_stats(aln, &assignments).imbalance);
            let counts: HashMap<Vec<usize>, usize> = progress
                .split_counts
                .iter()
                .map(|(s, c)| (s.clone(), *c as usize))
                .collect();
            let lnls: Vec<f64> = progress
                .replicate_lnl_bits
                .iter()
                .map(|&b| f64::from_bits(b))
                .collect();
            (best, 0, counts, lnls, progress.completed.min(bs.replicates))
        }
        // Mid-best-run checkpoint (or no checkpoint): run (or resume) the
        // best-tree search, then start the replicates from scratch.
        _ => {
            let (best, committed) = run_one(aln, cfg, trace_out.map(Path::to_path_buf), resume)?;
            (best, committed, HashMap::new(), Vec::new(), 0)
        }
    };
    let best_splits = bipartitions(&best.state.tree);
    let header = CheckpointHeader::new(cfg, aln, Allreduce::LABEL, &modes);

    for r in start..bs.replicates {
        let replicate_seed = bs.seed.wrapping_add(r as u64);
        let resampled = resample_alignment(aln, replicate_seed);
        let mut rcfg = cfg.clone();
        rcfg.seed = replicate_seed;
        // Replicates never checkpoint, kill, resume, fault-inject or
        // heartbeat (the sentinel cadence, if any, stays on — replicas
        // must agree in replicate searches too).
        rcfg.checkpoint_out = None;
        rcfg.resume_from = None;
        rcfg.faults = crate::Faults::none();
        rcfg.health_out = None;
        let (out, _) = run_one(
            &resampled,
            &rcfg,
            trace_out.map(|p| replicate_trace_path(p, r)),
            None,
        )?;
        replicate_lnls.push(out.result.lnl);
        for split in bipartitions(&out.state.tree) {
            *counts.entry(split).or_insert(0) += 1;
        }

        if let Some(dir) = &cfg.checkpoint_out {
            // Sorted split order so the checkpoint bytes are a pure
            // function of the progress (HashMap order is not).
            let mut split_counts: Vec<(Vec<usize>, u32)> =
                counts.iter().map(|(s, &c)| (s.clone(), c as u32)).collect();
            split_counts.sort();
            let progress = BootstrapProgress {
                completed: r + 1,
                replicate_lnl_bits: replicate_lnls.iter().map(|l| l.to_bits()).collect(),
                split_counts,
                best_result: best.result.clone(),
                best_state: best.state.clone(),
            };
            let snapshot = SearchSnapshot {
                iteration: best.result.iterations,
                lnl_bits: best.result.lnl.to_bits(),
                spr_moves: best.result.spr_moves,
                state: best.state.clone(),
                psr_rates: Vec::new(),
            };
            let ckpt = Checkpoint::build(
                header.clone(),
                CheckpointPayload {
                    snapshot,
                    bootstrap: Some(progress),
                },
            );
            checkpoint::save_generation_keeping(dir, &ckpt, cfg.checkpoint_keep)?;
            committed += 1;
            // Driver-level kill injection: replicate boundaries count
            // toward the same committed-checkpoint budget as in-search
            // boundaries, so a chaos harness can kill between replicates.
            if let Some(k) = cfg.faults.kill {
                if committed >= k.after_checkpoints {
                    return Err(RunError::Killed {
                        after_checkpoints: committed,
                        iteration: best.result.iterations,
                    });
                }
            }
        }
    }

    let denom = bs.replicates.max(1) as f64;
    let support: HashMap<Vec<usize>, f64> = best_splits
        .iter()
        .map(|s| {
            (
                s.clone(),
                100.0 * counts.get(s).copied().unwrap_or(0) as f64 / denom,
            )
        })
        .collect();
    best.bootstrap = Some(BootstrapSummary {
        annotated_newick: best.state.tree.to_newick_with_support(&aln.taxa, &support),
        replicate_lnls,
        support,
    });
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_search::SearchConfig;
    use exa_simgen::workloads;

    #[test]
    fn replicate_trace_paths_insert_rep_suffix() {
        use std::path::Path;
        assert_eq!(
            replicate_trace_path(Path::new("out/trace.json"), 3),
            Path::new("out/trace.rep3.json")
        );
        assert_eq!(
            replicate_trace_path(Path::new("trace"), 0),
            Path::new("trace.rep0")
        );
    }

    #[test]
    fn resampling_preserves_site_totals() {
        let w = workloads::partitioned(6, 3, 50, 3);
        let r = resample_alignment(&w.compressed, 7);
        assert_eq!(r.n_partitions(), 3);
        for (orig, res) in w.compressed.partitions.iter().zip(&r.partitions) {
            let so: u32 = orig.weights.iter().sum();
            let sr: u32 = res.weights.iter().sum();
            assert_eq!(so, sr, "site total must be preserved");
            assert!(res.n_patterns() <= orig.n_patterns());
            assert!(res.n_patterns() > 0);
        }
    }

    #[test]
    fn resampling_is_deterministic_and_seed_sensitive() {
        let w = workloads::partitioned(6, 2, 60, 5);
        let a = resample_alignment(&w.compressed, 1);
        let b = resample_alignment(&w.compressed, 1);
        let c = resample_alignment(&w.compressed, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn resampled_weights_differ_from_original() {
        let w = workloads::partitioned(6, 1, 200, 9);
        let r = resample_alignment(&w.compressed, 11);
        assert_ne!(
            w.compressed.partitions[0].weights, r.partitions[0].weights,
            "a 200-site multinomial redraw virtually never reproduces the input"
        );
    }

    #[test]
    fn bootstrap_end_to_end_supports_strong_signal() {
        // Clean simulated data: every split of the generating tree should
        // receive high support across replicates.
        let w = workloads::partitioned(6, 1, 400, 13);
        let cfg = RunConfig::new(2)
            .search(SearchConfig {
                max_iterations: 2,
                ..SearchConfig::fast()
            })
            .bootstrap(5, 99);
        let bs = cfg.bootstrap.as_ref().unwrap();
        let out = bootstrap_impl(&w.compressed, &cfg, bs, None)
            .unwrap()
            .bootstrap
            .unwrap();
        assert_eq!(out.replicate_lnls.len(), 5);
        assert!(out.annotated_newick.ends_with(");"));
        // 6 taxa → 3 internal splits on the best tree.
        assert_eq!(out.support.len(), 3);
        let mean_support: f64 = out.support.values().sum::<f64>() / out.support.len() as f64;
        assert!(
            mean_support >= 60.0,
            "strong simulated signal should give high support: {:?}",
            out.support
        );
        // Labels present in the annotated tree.
        assert!(
            out.annotated_newick.contains(')'),
            "{}",
            out.annotated_newick
        );
    }
}

//! The search side of a workload: files → engines (set-up), one
//! `RunConfig::run` (a repetition), the fork-join and single-rank scalar
//! cross-checks, and the traced repetition.

use crate::inputs::InputFiles;
use crate::spans::{Span, Spans};
use exa_bio::patterns::CompressedAlignment;
use exa_phylo::engine::{Engine, KernelChoice, RepeatsChoice};
use exa_sched::{EngineSpec, RankAssignment};
use examl_core::{RunConfig, RunOutcome, Scheme};
use std::time::Instant;

/// A likelihood-ready state, as `RunConfig::run` builds it per rank.
pub struct Ready {
    pub aln: CompressedAlignment,
    pub assignments: Vec<RankAssignment>,
    pub engines: Vec<Engine>,
    pub phylip_bytes: u64,
}

pub fn engine_spec(cfg: &RunConfig) -> EngineSpec {
    EngineSpec {
        rate_model: cfg.rate_model,
        kernel: cfg.kernel.resolve_local(),
        site_repeats: cfg.site_repeats.resolve_local(),
        threads: cfg.threads.resolve_local().get(),
        batch: cfg.batch,
    }
}

/// Files on disk → compressed alignment (what the daemon's workers and the
/// `examl` binary do before anything else). Returns the PHYLIP byte count
/// alongside, for the parse throughput.
pub fn load(files: &InputFiles, s: &mut Spans) -> (CompressedAlignment, u64) {
    let text = s.scope("bio.read", |_| {
        std::fs::read_to_string(&files.phylip).expect("read PHYLIP input")
    });
    let alignment = s.scope("bio.parse_phylip", |_| {
        exa_bio::phylip::parse_phylip_auto(&text).expect("parse PHYLIP input")
    });
    let scheme = s.scope("bio.parse_partitions", |_| {
        let ptext = std::fs::read_to_string(&files.partitions).expect("read partition file");
        exa_bio::partition::parse_partition_file(&ptext, alignment.n_sites())
            .expect("parse partition file")
    });
    let aln = s.scope("bio.compress", |_| {
        CompressedAlignment::build(&alignment, &scheme)
    });
    (aln, text.len() as u64)
}

/// Files on disk → one engine per rank. Every call into a layer is a span
/// named `<crate>.<call>`, so set-up stage times and the traced
/// repetition's layer table come from the same code.
pub fn setup_once(files: &InputFiles, cfg: &RunConfig, spans: &mut Spans) -> Ready {
    spans.scope("setup", |s| {
        let (aln, phylip_bytes) = load(files, s);
        let assignments = s.scope("sched.distribute", |_| {
            exa_sched::distribute(&aln, cfg.n_ranks, cfg.strategy)
        });
        let engines = s.scope("sched.build_engine", |_| {
            let freqs = exa_bio::stats::global_frequencies(&aln);
            let shared = exa_sched::SharedSlices::build(&aln);
            let spec = engine_spec(cfg);
            assignments
                .iter()
                .map(|a| exa_sched::build_engine(&aln, a, &freqs, &spec, Some(&shared)))
                .collect()
        });
        Ready {
            aln,
            assignments,
            engines,
            phylip_bytes,
        }
    })
}

/// One timed `RunConfig::run`.
pub struct RunSample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub outcome: RunOutcome,
}

pub fn run_once(cfg: &RunConfig, aln: &CompressedAlignment) -> RunSample {
    let cpu0 = crate::sys::cpu_seconds();
    let t0 = Instant::now();
    let outcome = cfg.run(aln).expect("benchmark run failed");
    let wall_s = t0.elapsed().as_secs_f64();
    RunSample {
        wall_s,
        cpu_s: crate::sys::cpu_seconds() - cpu0,
        outcome,
    }
}

pub fn forkjoin_of(cfg: &RunConfig) -> RunConfig {
    cfg.clone().scheme(Scheme::ForkJoin)
}

/// The plain baseline: one rank, scalar kernels, no subtree-repeat
/// compression — the code path with the fewest optimisations between the
/// alignment and the likelihood.
pub fn reference_of(cfg: &RunConfig) -> RunConfig {
    let mut r = cfg
        .clone()
        .kernel(KernelChoice::Scalar)
        .site_repeats(RepeatsChoice::Off);
    r.n_ranks = 1;
    r
}

/// Same configuration on a single rank (the scaling-efficiency base).
pub fn single_rank_of(cfg: &RunConfig) -> RunConfig {
    let mut r = cfg.clone();
    r.n_ranks = 1;
    r
}

pub fn rel_diff(a: f64, b: f64) -> f64 {
    ((a - b) / b).abs()
}

/// The traced repetition: the whole path from files to final lnL, with the
/// run collecting an `exa-obs` trace, wrapped in the benchmark's spans.
pub struct Traced {
    pub spans: Vec<Span>,
    pub outcome: RunOutcome,
    /// Duration of the `core.run` span alone, comparable to `wall_s`.
    pub run_s: f64,
}

pub fn traced_once(
    files: &InputFiles,
    cfg: &RunConfig,
    id: u64,
    ckpt_dir: &std::path::Path,
) -> Traced {
    let traced_cfg = cfg.clone().collect_trace(true);
    let mut spans = Spans::new(id);
    let outcome = spans.scope("rep", |s| {
        let ready = setup_once(files, cfg, s);
        // `run` distributes and builds its own engines; the set-up above is
        // in the traced repetition so that its layers appear in the table.
        drop(ready.engines);
        let outcome = s.scope("core.run", |_| {
            traced_cfg.run(&ready.aln).expect("traced run failed")
        });
        checkpoint_roundtrip(&outcome, cfg, &ready.aln, ckpt_dir, s);
        outcome
    });
    let spans = spans.finish();
    let run_s = spans
        .iter()
        .find(|s| s.name == "core.run")
        .map_or(0.0, |s| s.dur_ns() as f64 * 1e-9);
    Traced {
        spans,
        outcome,
        run_s,
    }
}

/// Save the run's final state as a checkpoint generation and load it back,
/// each under its own span. The checkpoint is assembled from the outcome
/// (what a boundary hook would persist), so no extra search runs for it.
fn checkpoint_roundtrip(
    outcome: &RunOutcome,
    cfg: &RunConfig,
    aln: &CompressedAlignment,
    dir: &std::path::Path,
    spans: &mut Spans,
) {
    use exa_search::evaluator::SearchSnapshot;
    use examl_core::checkpoint::{self, Checkpoint, CheckpointHeader, CheckpointPayload};
    let psr_rates = match cfg.rate_model {
        exa_phylo::model::rates::RateModelKind::Gamma => Vec::new(),
        exa_phylo::model::rates::RateModelKind::Psr => aln
            .partitions
            .iter()
            .map(|p| vec![1.0f64.to_bits(); p.n_patterns()])
            .collect(),
    };
    let ckpt = Checkpoint::build(
        CheckpointHeader {
            format_version: 0,
            scheme: "decentralized".into(),
            kernel: outcome.kernel.label().into(),
            site_repeats: outcome.site_repeats.label().into(),
            rank_count: cfg.n_ranks,
            rate_model: format!("{:?}", cfg.rate_model),
            branch_mode: format!("{:?}", cfg.branch_mode),
            seed: cfg.seed,
            n_taxa: aln.n_taxa(),
            n_partitions: aln.n_partitions(),
            iteration: 0,
            payload_len: 0,
            payload_fingerprint: 0,
            reduce_mode: Some(outcome.reduce.label().into()),
            gradient: Some(outcome.gradient.label().into()),
        },
        CheckpointPayload {
            snapshot: SearchSnapshot {
                iteration: outcome.result.iterations,
                lnl_bits: outcome.result.lnl.to_bits(),
                spr_moves: outcome.result.spr_moves,
                state: outcome.state.clone(),
                psr_rates,
            },
            bootstrap: None,
        },
    );
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create checkpoint directory");
    spans.scope("core.checkpoint_save", |_| {
        checkpoint::save_generation(dir, &ckpt).expect("save checkpoint")
    });
    let loaded = spans.scope("core.checkpoint_load", |_| {
        checkpoint::load_latest(dir).expect("load checkpoint")
    });
    assert_eq!(
        loaded.payload.snapshot.lnl_bits,
        outcome.result.lnl.to_bits(),
        "checkpoint round-trip changed the lnL bits"
    );
}

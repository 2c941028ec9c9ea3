//! `examl-core` — the paper's contribution: **de-centralized** parallel
//! maximum-likelihood phylogenetic inference (ExaML, §III-B).
//!
//! Every rank executes a local, *consistent* copy of the tree-search
//! algorithm on its slice of the alignment. There is no master process, no
//! traversal-descriptor broadcasts and no model-parameter broadcasts: ranks
//! only communicate where global values are mathematically required —
//!
//! 1. one `allreduce` inside the likelihood evaluation (per-partition
//!    log-likelihoods),
//! 2. one `allreduce` inside the branch-length derivative computation,
//!
//! plus a small reduction for PSR rate normalization. Because the
//! allreduce results are bit-identical on every rank (guaranteed by
//! `exa-comm`), all replicas take identical search decisions and stay in
//! lock-step without any coordination messages.
//!
//! The replicated state also yields the paper's §V fault-tolerance design
//! for free: when a rank dies, survivors redistribute its data (from the
//! binary alignment) and resume from the last iteration boundary — see
//! [`fault`].

pub mod bootstrap;
pub mod capability;
pub mod checkpoint;
pub mod cli;
pub mod evaluator;
pub mod fault;
pub mod run;
pub mod sentinel;

pub use capability::{CapabilityRequests, Choice};
pub use cli::{CliConfig, CliError};
pub use evaluator::{Allreduce, DecentralizedEvaluator};
pub use run::{BootstrapOptions, BootstrapSummary, RunConfig, RunError, RunOutcome, Scheme};
pub use sentinel::{DivergenceFault, FaultComponent};

use exa_bio::patterns::CompressedAlignment;
use exa_comm::{CommCategory, CommStats, Rank, World};
use exa_obs::Recorder;
use exa_phylo::engine::WorkCounters;
use exa_search::evaluator::GlobalState;
use exa_search::{
    build_starting_tree, run_search_from, BranchMode, KillPanic, Modes, PreemptPanic, SearchResult,
};
use std::sync::Arc;

/// What every rank thread of one in-process world reads and none writes:
/// the run's inputs, borrowed for the lifetime of the world, plus the
/// derived tables each rank would otherwise rebuild.
pub(crate) struct WorldContext<'a> {
    pub aln: &'a CompressedAlignment,
    pub cfg: &'a RunConfig,
    /// Empirical base frequencies per partition.
    pub freqs: Vec<[f64; 4]>,
    /// One set of Arc-wrapped tip/weight buffers for the whole world:
    /// ranks holding a full partition alias these instead of cloning.
    pub shared: exa_sched::SharedSlices,
    /// Pre-validated payload of the checkpoint generation to restart from
    /// (loaded once by the caller; every rank restores from the same parsed
    /// state).
    pub resume: Option<&'a checkpoint::CheckpointPayload>,
}

impl WorldContext<'_> {
    /// Build this rank's engine over `assignment` under the world's modes —
    /// at startup, and again whenever the data is redistributed (planned
    /// resize, failure recovery: the survivors keep the modes negotiated at
    /// startup, re-negotiating would need a collective the failed rank can
    /// no longer join).
    pub(crate) fn build_engine(
        &self,
        assignment: &exa_sched::RankAssignment,
        modes: &Modes,
    ) -> exa_phylo::Engine {
        exa_sched::build_engine(
            self.aln,
            assignment,
            &self.freqs,
            &exa_sched::EngineSpec {
                rate_model: self.cfg.rate_model,
                kernel: modes.kernel,
                site_repeats: modes.site_repeats,
                threads: modes.threads.get(),
                batch: modes.batch,
            },
            Some(&self.shared),
        )
    }
}

/// Compute the deterministic data distribution over `width` ranks, padded
/// with empty assignments up to `world` ranks (elastic head-room: ranks at
/// or beyond the current data width replicate the search on zero local
/// patterns until a resize grows into them).
pub(crate) fn padded_assignments(
    aln: &CompressedAlignment,
    width: usize,
    world: usize,
    strategy: exa_sched::Strategy,
) -> Vec<exa_sched::RankAssignment> {
    assert!(
        width >= 1 && width <= world,
        "resize width {width} outside 1..={world}"
    );
    let mut assignments = exa_sched::distribute(aln, width, strategy);
    assignments.resize_with(world, Default::default);
    assignments
}

/// Why a de-centralized run aborted instead of producing a result.
#[derive(Debug)]
pub(crate) enum RunAbort {
    /// The replica-divergence sentinel tripped.
    Divergence(exa_obs::ReplicaDivergence),
    /// An injected kill terminated the run after `after_checkpoints`
    /// committed checkpoints, at iteration boundary `iteration`.
    Killed {
        after_checkpoints: u64,
        iteration: usize,
    },
    /// A [`exa_search::PreemptSignal`] was honoured at iteration boundary
    /// `iteration`; `checkpoints` generations (including the preemption
    /// checkpoint, when one was written) are on disk.
    Preempted { iteration: usize, checkpoints: u64 },
}

/// What each rank thread reports back.
enum RankReport {
    Survived {
        result: SearchResult,
        state: Box<GlobalState>,
        work: WorkCounters,
        mem_bytes: u64,
        stats: CommStats,
        sentinel_syncs: u64,
        modes: Modes,
        checkpoints: u64,
    },
    Died {
        work: WorkCounters,
        mem_bytes: u64,
    },
    /// The sentinel tripped: every rank aborted with the same diagnostic.
    Diverged {
        work: WorkCounters,
        mem_bytes: u64,
        diagnostic: Box<exa_obs::ReplicaDivergence>,
    },
    /// An injected kill (`--inject-kill`) terminated this rank.
    Killed {
        work: WorkCounters,
        mem_bytes: u64,
        after_checkpoints: u64,
        iteration: usize,
    },
    /// A cooperative preemption stopped this rank at a boundary.
    Preempted {
        work: WorkCounters,
        mem_bytes: u64,
        iteration: usize,
        checkpoints: u64,
    },
}

/// Per-rank panic payload for a scripted death (unwinds out of the search).
struct RankDiedPanic;

/// Silence the default panic hook for the payloads this crate uses as
/// control flow (scripted deaths, comm failures, sentinel divergence) —
/// they are always caught and turned into reports/diagnostics, so the
/// default hook's per-thread `Box<dyn Any>` message and backtrace are pure
/// noise. Installed once, process-wide, wrapping the previous hook.
pub(crate) fn install_control_panic_silencer() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.downcast_ref::<RankDiedPanic>().is_some()
                || p.downcast_ref::<exa_obs::ReplicaDivergence>().is_some()
                || p.downcast_ref::<exa_search::evaluator::CommFailurePanic>()
                    .is_some()
                || p.downcast_ref::<KillPanic>().is_some()
                || p.downcast_ref::<PreemptPanic>().is_some()
            {
                return;
            }
            prev(info);
        }));
    });
}

/// The de-centralized scheme driver behind [`RunConfig::run`]. `resume` is
/// the pre-validated payload of the checkpoint generation to restart from.
/// Returns the outcome — its `trace`, `health` and `bootstrap` are for the
/// caller to fill — and the checkpoint generations committed during the
/// run.
pub(crate) fn decentralized_impl(
    aln: &CompressedAlignment,
    cfg: &RunConfig,
    recorder: Option<&Arc<Recorder>>,
    resume: Option<&checkpoint::CheckpointPayload>,
) -> Result<(RunOutcome, u64), RunAbort> {
    assert!(
        aln.n_taxa() >= 4,
        "need at least 4 taxa for a meaningful search"
    );
    install_control_panic_silencer();
    let ctx = WorldContext {
        aln,
        cfg,
        freqs: exa_bio::stats::global_frequencies(aln),
        shared: exa_sched::SharedSlices::build(aln),
        resume,
    };

    // The comm world is sized for the widest point of the resize plan up
    // front: collectives need a fixed membership, so growth happens into
    // pre-allocated head-room ranks that idle (zero local data) until the
    // plan reaches them.
    let world = cfg.world_size();
    let reports: Vec<RankReport> = World::run_traced(world, recorder, |rank| rank_main(rank, &ctx));

    // Aggregate: all survivors must agree bit-for-bit; pick the first.
    let mut work = WorkCounters::default();
    let mut mem = 0u64;
    let mut chosen: Option<(SearchResult, Box<GlobalState>, CommStats, Modes)> = None;
    let mut lnls: Vec<u64> = Vec::new();
    let mut syncs = 0u64;
    let mut ckpts = 0u64;
    let mut divergence: Option<Box<exa_obs::ReplicaDivergence>> = None;
    let mut killed: Option<(u64, usize)> = None;
    let mut preempted: Option<(usize, u64)> = None;
    for r in reports {
        match r {
            RankReport::Survived {
                result,
                state,
                work: w,
                mem_bytes,
                stats,
                sentinel_syncs,
                modes,
                checkpoints,
            } => {
                work = work.merge(&w);
                mem += mem_bytes;
                lnls.push(result.lnl.to_bits());
                syncs = syncs.max(sentinel_syncs);
                ckpts = ckpts.max(checkpoints);
                chosen.get_or_insert((result, state, stats, modes));
            }
            RankReport::Died { work: w, mem_bytes } => {
                work = work.merge(&w);
                mem += mem_bytes;
            }
            RankReport::Diverged {
                work: w,
                mem_bytes,
                diagnostic,
            } => {
                work = work.merge(&w);
                mem += mem_bytes;
                // Every rank derived the identical verdict from the same
                // allgathered fingerprints; keep one.
                divergence = Some(diagnostic);
            }
            RankReport::Killed {
                work: w,
                mem_bytes,
                after_checkpoints,
                iteration,
            } => {
                work = work.merge(&w);
                mem += mem_bytes;
                killed = Some((after_checkpoints, iteration));
            }
            RankReport::Preempted {
                work: w,
                mem_bytes,
                iteration,
                checkpoints,
            } => {
                work = work.merge(&w);
                mem += mem_bytes;
                preempted = Some((iteration, checkpoints));
            }
        }
    }
    if let Some(d) = divergence {
        return Err(RunAbort::Divergence(*d));
    }
    if let Some((after_checkpoints, iteration)) = killed {
        return Err(RunAbort::Killed {
            after_checkpoints,
            iteration,
        });
    }
    if let Some((iteration, checkpoints)) = preempted {
        return Err(RunAbort::Preempted {
            iteration,
            checkpoints,
        });
    }
    assert!(
        lnls.windows(2).all(|w| w[0] == w[1]),
        "de-centralized replicas diverged: {lnls:?}"
    );
    let (result, state, stats, modes) = chosen.expect("at least one rank must survive");
    let outcome = RunOutcome {
        comm_stats: stats,
        work,
        mem_bytes: mem,
        survivors: (0..world).filter(|r| !cfg.fault_plan.kills(*r)).collect(),
        sentinel_syncs: syncs,
        ..RunOutcome::new(result, *state, &aln.taxa, &modes)
    };
    Ok((outcome, ckpts))
}

/// Per-rank batch shape for the live registry. Batch counts legitimately
/// differ across ranks (each packs its own slice assignment), so they go to
/// `/metrics` — labelled by rank — rather than into trace marks, which must
/// stay uniform across the world for event-sequence parity.
fn record_batch_metrics(engine: &exa_phylo::Engine) {
    if !exa_obs::metrics::enabled() {
        return;
    }
    let batches = engine.batch_count() as u64;
    if batches == 0 {
        return;
    }
    let reg = exa_obs::metrics::global();
    reg.counter(
        "exa_batches_total",
        "Packed kernel batches built on this rank",
        &[],
    )
    .add(batches);
    reg.gauge(
        "exa_batch_fill_ratio",
        "Partitions per packed batch (mean fill)",
        &[],
    )
    .set(engine.n_partitions() as f64 / batches as f64);
}

fn rank_main(rank: Rank, ctx: &WorldContext<'_>) -> RankReport {
    let (aln, cfg) = (ctx.aln, ctx.cfg);
    // 1. Deterministic data distribution — every rank computes the same
    //    assignment table locally (no coordination needed). Data starts
    //    spread over the configured rank count; ranks beyond it are resize
    //    head-room and hold an empty assignment until the plan grows into
    //    them.
    let assignments = padded_assignments(aln, cfg.n_ranks, rank.world_size(), cfg.strategy);
    // Agree on the compute modes before building any engine: one packed
    // allgather, `Auto` slots adopt the world minimum. Every rank stamps
    // the winners into its trace so post-hoc analysis knows what the run
    // computed with.
    let modes = capability::negotiate(&rank, &cfg.capability_requests(rank.id()));
    modes.stamp_trace();
    let mut engine = ctx.build_engine(&assignments[rank.id()], &modes);
    record_batch_metrics(&engine);
    // Checkpoint resume, phase 1: per-pattern PSR rates go straight into
    // the fresh engine (this rank's slice of the gathered global table —
    // elastic across any rank count, since the table is complete).
    if let Some(p) = ctx.resume {
        if !p.snapshot.psr_rates.is_empty() {
            exa_sched::apply_site_rates(
                &mut engine,
                &assignments[rank.id()],
                aln,
                &p.snapshot.psr_rates,
            );
        }
    }
    // Account the initial data distribution (real ExaML reads the binary
    // alignment via MPI I/O; the in-process world shares memory, so this
    // traffic is modeled, not moved): one scatter of each rank's slice.
    if rank.id() == 0 {
        let bytes: u64 = assignments
            .iter()
            .flat_map(|a| exa_sched::materialize(aln, a))
            .map(|(_, p)| (p.tips.iter().map(Vec::len).sum::<usize>() + 4 * p.weights.len()) as u64)
            .sum();
        rank.account(CommCategory::Control, exa_comm::OpKind::Scatter, bytes);
    }

    // 2. Identical starting tree on every rank (deterministic policy).
    let blens = match cfg.branch_mode {
        BranchMode::Joint => 1,
        BranchMode::PerPartition => aln.n_partitions(),
    };
    let tree = build_starting_tree(aln, &cfg.starting_tree, blens, cfg.seed);

    let mut eval = DecentralizedEvaluator::with_exchange(
        Allreduce::new(rank.clone()),
        tree,
        engine,
        aln.n_partitions(),
        cfg.branch_mode,
    )
    .with_modes(&modes);
    eval.exchange_mut()
        .set_sentinel(cfg.verify_replicas, cfg.divergence_fault);

    // 3. Checkpoint resume, phase 2: restore the replicated state (every
    //    rank restores from the identical parsed payload, the in-process
    //    analogue of ExaML's parallel binary-file read), then a restart
    //    barrier so no rank races ahead into the search while others are
    //    still rebuilding.
    let resume_point = ctx.resume.map(|p| {
        use exa_search::Evaluator as _;
        eval.restore(&p.snapshot.state);
        exa_obs::mark(|| format!("resume:{}", p.snapshot.iteration));
        rank.barrier(CommCategory::Control)
            .expect("restart barrier cannot proceed after a rank failure");
        p.snapshot.resume_point()
    });

    let mut hooks = fault::DecentralizedHooks::new(
        rank.clone(),
        ctx,
        modes,
        assignments[rank.id()].clone(),
        &eval,
    );

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Sync #1 fires before the search's first collective: a mixed
        // gradient-mode world runs different collective *sequences*, so it
        // must be refused here, not discovered as a length mismatch (or a
        // deadlock) inside the first smoothing reduction.
        Allreduce::initial_sentinel_sync(&mut eval);
        run_search_from(&mut eval, &cfg.search, &mut hooks, resume_point.as_ref())
    }));

    match outcome {
        Ok(result) => {
            use exa_search::Evaluator as _;
            RankReport::Survived {
                result,
                state: Box::new(eval.snapshot()),
                work: eval.engine().work(),
                mem_bytes: eval.engine().clv_bytes(),
                stats: rank.stats(),
                sentinel_syncs: eval.exchange().sentinel_syncs(),
                modes,
                checkpoints: hooks.checkpoints_written(),
            }
        }
        Err(payload) => {
            if payload.downcast_ref::<RankDiedPanic>().is_some() {
                RankReport::Died {
                    work: eval.engine().work(),
                    mem_bytes: eval.engine().clv_bytes(),
                }
            } else if let Some(k) = payload.downcast_ref::<KillPanic>() {
                RankReport::Killed {
                    work: eval.engine().work(),
                    mem_bytes: eval.engine().clv_bytes(),
                    after_checkpoints: k.after_checkpoints,
                    iteration: k.iteration,
                }
            } else if let Some(p) = payload.downcast_ref::<PreemptPanic>() {
                RankReport::Preempted {
                    work: eval.engine().work(),
                    mem_bytes: eval.engine().clv_bytes(),
                    iteration: p.iteration,
                    checkpoints: p.checkpoints,
                }
            } else if payload
                .downcast_ref::<exa_search::evaluator::CommFailurePanic>()
                .is_some()
                && hooks.kill_event().is_some()
            {
                // Survivor of a targeted kill: the victim's death surfaced
                // as a comm failure with recovery disabled.
                let (after_checkpoints, iteration) =
                    hooks.kill_event().expect("kill event just checked");
                RankReport::Killed {
                    work: eval.engine().work(),
                    mem_bytes: eval.engine().clv_bytes(),
                    after_checkpoints,
                    iteration,
                }
            } else if let Some(d) = payload.downcast_ref::<exa_obs::ReplicaDivergence>() {
                // Caught here (not at join) so the structured diagnostic
                // survives — `World::run` re-panics with a plain message.
                RankReport::Diverged {
                    work: eval.engine().work(),
                    mem_bytes: eval.engine().clv_bytes(),
                    diagnostic: Box::new(d.clone()),
                }
            } else {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Internal: scripted-death trigger used by the fault hooks.
pub(crate) fn die_now(rank: &Rank) -> ! {
    rank.fail();
    std::panic::panic_any(RankDiedPanic);
}

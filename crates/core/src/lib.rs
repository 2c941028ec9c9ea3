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
//!
//! The driver around the search — world, per-rank setup, boundary hooks,
//! aggregation — is scheme-agnostic and lives here once: [`RunConfig::run`]
//! runs it under this crate's [`Allreduce`] or under `exa-forkjoin`'s
//! `ToMaster`, the paper's baseline (§III-A).

pub mod bootstrap;
pub mod checkpoint;
pub mod cli;
pub mod evaluator;
pub mod fault;
pub mod run;
mod scheme;
pub mod sentinel;

pub use cli::{Choice, Cli, CliError};
pub use evaluator::{Allreduce, DecentralizedEvaluator};
pub use fault::Faults;
pub use run::{BootstrapOptions, BootstrapSummary, RunConfig, RunError, RunOutcome, Scheme};
pub use sentinel::{DivergenceFault, FaultComponent};

use exa_bio::patterns::CompressedAlignment;
use exa_comm::{CommCategory, CommStats, Rank, World};
use exa_obs::Recorder;
use exa_phylo::engine::WorkCounters;
use exa_search::evaluator::{CommFailurePanic, Evaluator, ExchangeEvaluator, GlobalState};
use exa_search::{build_starting_tree, run_search_from, BranchMode, Modes, SearchResult};
use scheme::SchemeExchange;
use std::any::Any;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What every rank thread of one in-process world reads: the run's inputs,
/// borrowed for the lifetime of the world, plus the derived tables each
/// rank would otherwise rebuild.
pub(crate) struct WorldContext<'a> {
    pub aln: &'a CompressedAlignment,
    pub cfg: &'a RunConfig,
    /// Empirical base frequencies per partition.
    pub freqs: Vec<[f64; 4]>,
    /// One set of Arc-wrapped tip/weight buffers for the whole world:
    /// ranks holding a full partition alias these instead of cloning.
    pub shared: exa_sched::SharedSlices,
    /// The deterministic data distribution the world starts with: spread
    /// over the configured rank count; ranks beyond it are resize head-room
    /// and hold an empty assignment until the plan grows into them.
    pub assignments: Vec<exa_sched::RankAssignment>,
    /// What every rank computes with: [`RunConfig::modes`], resolved once
    /// per world. An engine rebuilt after a resize or a failure keeps it.
    pub modes: Modes,
    /// Pre-validated payload of the checkpoint generation to restart from
    /// (loaded once by the caller; every rank restores from the same parsed
    /// state).
    pub resume: Option<&'a checkpoint::CheckpointPayload>,
    /// The one thing a rank writes: set by a rank that leaves the search
    /// alone (an injected kill's victim, a checkpoint writer that could not
    /// write) before it releases its peers, so they end the run at their
    /// next collective instead of healing around the gap.
    pub aborting: AtomicBool,
}

impl WorldContext<'_> {
    /// Build this rank's engine over `assignment` under the world's modes —
    /// at startup, and again whenever the data is redistributed (planned
    /// resize, failure recovery).
    pub(crate) fn build_engine(&self, assignment: &exa_sched::RankAssignment) -> exa_phylo::Engine {
        let modes = &self.modes;
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

/// What each rank thread reports back: its engine's kernel work and CLV
/// memory, and how it left the search.
struct RankReport {
    work: WorkCounters,
    mem_bytes: u64,
    end: RankEnd,
}

enum RankEnd {
    /// The search ran to its end on this rank.
    Finished {
        result: SearchResult,
        state: Box<GlobalState>,
        stats: CommStats,
        sentinel_syncs: u64,
        checkpoints: u64,
    },
    /// The run stops with this error: the sentinel tripped (every rank
    /// derived the same diagnostic), an injected kill or a preemption fired
    /// at a boundary, or the checkpoint could not be written.
    Stopped(RunError),
    /// Left without a result of its own: a worker served out, a scripted
    /// death, or a rank released by a peer that stopped alone.
    Left,
}

/// How a searching rank's boundary hooks stop its search: the
/// [`SearchHooks::Stop`](exa_search::SearchHooks::Stop) of
/// [`fault::BoundaryHooks`].
pub(crate) enum Stop {
    /// The run stops with this error: a preemption, an injected kill, or a
    /// checkpoint that could not be written.
    Run(RunError),
    /// A scripted death: this rank leaves and its peers heal without it.
    Died,
}

impl From<Stop> for RankEnd {
    fn from(stop: Stop) -> RankEnd {
        match stop {
            Stop::Run(e) => RankEnd::Stopped(e),
            Stop::Died => RankEnd::Left,
        }
    }
}

/// Silence the default panic hook for the two failures that still unwind,
/// because they arise mid-iteration inside a collective (a comm failure,
/// a sentinel divergence) — they are always caught and turned into
/// reports/diagnostics, so the default hook's per-thread `Box<dyn Any>`
/// message and backtrace are pure noise. Installed once, process-wide,
/// wrapping the previous hook.
fn install_control_panic_silencer() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<exa_obs::ReplicaDivergence>() || p.is::<CommFailurePanic>() {
                return;
            }
            prev(info);
        }));
    });
}

/// The scheme driver behind [`RunConfig::run`]: one world, every rank in
/// [`rank_main`] under exchange `X`. `resume` is the pre-validated payload
/// of the checkpoint generation to restart from. Returns the outcome — its
/// `trace`, `bootstrap` and the rest of `health` are for the caller to fill
/// — and the checkpoint generations committed during the run.
pub(crate) fn run_world<X: SchemeExchange>(
    aln: &CompressedAlignment,
    cfg: &RunConfig,
    recorder: Option<&Arc<Recorder>>,
    resume: Option<&checkpoint::CheckpointPayload>,
) -> Result<(RunOutcome, u64), RunError> {
    assert!(
        aln.n_taxa() >= 4,
        "need at least 4 taxa for a meaningful search"
    );
    install_control_panic_silencer();
    // The comm world is sized for the widest point of the resize plan up
    // front: collectives need a fixed membership, so growth happens into
    // pre-allocated head-room ranks that idle (zero local data) until the
    // plan reaches them.
    let world = cfg.world_size();
    let ctx = WorldContext {
        aln,
        cfg,
        freqs: exa_bio::stats::global_frequencies(aln),
        shared: exa_sched::SharedSlices::build(aln),
        assignments: padded_assignments(aln, cfg.n_ranks, world, cfg.strategy),
        modes: cfg.modes(),
        resume,
        aborting: AtomicBool::new(false),
    };
    let reports = World::run_traced(world, recorder, |rank| rank_main::<X>(rank, &ctx));

    // Aggregate: all finishers must agree bit-for-bit; pick the first. A
    // stop is either world-wide or came from the lowest rank that saw it.
    let mut work = WorkCounters::default();
    let mut mem_bytes = 0u64;
    let mut chosen = None;
    let mut lnls: Vec<u64> = Vec::new();
    let mut syncs = 0u64;
    let mut ckpts = 0u64;
    let mut stopped = None;
    for r in reports {
        work = work.merge(&r.work);
        mem_bytes += r.mem_bytes;
        match r.end {
            RankEnd::Finished {
                result,
                state,
                stats,
                sentinel_syncs,
                checkpoints,
            } => {
                lnls.push(result.lnl.to_bits());
                syncs = syncs.max(sentinel_syncs);
                ckpts = ckpts.max(checkpoints);
                chosen.get_or_insert((result, state, stats));
            }
            RankEnd::Stopped(e) => {
                stopped.get_or_insert(e);
            }
            RankEnd::Left => {}
        }
    }
    if let Some(e) = stopped {
        return Err(e);
    }
    assert!(
        lnls.windows(2).all(|w| w[0] == w[1]),
        "de-centralized replicas diverged: {lnls:?}"
    );
    let (result, state, comm_stats) = chosen.expect("at least one rank must finish");
    let mut outcome = RunOutcome {
        comm_stats,
        work,
        mem_bytes,
        survivors: (0..world).filter(|r| !cfg.faults.plan.kills(*r)).collect(),
        sentinel_syncs: syncs,
        ..RunOutcome::new(result, *state, &aln.taxa, &ctx.modes)
    };
    let data_ranks = &ctx.assignments[..cfg.n_ranks];
    outcome.health.predicted_imbalance =
        Some(exa_sched::balance::balance_stats(aln, data_ranks).imbalance);
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

fn rank_main<X: SchemeExchange>(rank: Rank, ctx: &WorldContext<'_>) -> RankReport {
    let (aln, cfg) = (ctx.aln, ctx.cfg);
    // 1. This rank's row of the world's assignment table and its engine,
    //    under the world's modes. Every rank stamps the modes into its trace
    //    so post-hoc analysis knows what the run computed with.
    let assignment = &ctx.assignments[rank.id()];
    ctx.modes.stamp_trace();
    let engine = ctx.build_engine(assignment);
    record_batch_metrics(&engine);
    // Account the initial data distribution (real ExaML reads the binary
    // alignment via MPI I/O; the in-process world shares memory, so this
    // traffic is modeled, not moved): one scatter of each rank's slice.
    if rank.id() == 0 {
        let bytes: u64 = ctx
            .assignments
            .iter()
            .flat_map(|a| exa_sched::materialize(aln, a))
            .map(|(_, p)| (p.tips.iter().map(Vec::len).sum::<usize>() + 4 * p.weights.len()) as u64)
            .sum();
        rank.account(CommCategory::Control, exa_comm::OpKind::Scatter, bytes);
    }
    let engine = match X::serve(&rank, engine, ctx) {
        ControlFlow::Continue(engine) => engine,
        ControlFlow::Break((work, mem_bytes)) => {
            return RankReport {
                work,
                mem_bytes,
                end: RankEnd::Left,
            }
        }
    };

    // 2. Identical starting tree on every searching rank (deterministic
    //    policy), then the checkpointed state over it when resuming.
    let blens = match cfg.branch_mode {
        BranchMode::Joint => 1,
        BranchMode::PerPartition => aln.n_partitions(),
    };
    let tree = build_starting_tree(aln, &cfg.starting_tree, blens, cfg.seed);
    let mut eval = ExchangeEvaluator::with_exchange(
        X::connect(rank.clone(), cfg),
        tree,
        engine,
        aln.n_partitions(),
        cfg.branch_mode,
    )
    .with_modes(&ctx.modes);
    let resume_point = ctx.resume.map(|p| {
        X::install_resume(&mut eval, &p.snapshot, aln, assignment);
        p.snapshot.resume_point()
    });

    // 3. The search. However it ends, the peers are released before this
    //    rank's report is read: at the end here, or by the hook that
    //    returned the stop. Only a failure inside a collective unwinds.
    let mut hooks = fault::BoundaryHooks::new(rank.clone(), ctx, assignment.clone(), &eval);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        X::before_search(&mut eval);
        run_search_from(&mut eval, &cfg.search, &mut hooks, resume_point.as_ref())
            .inspect(|_| eval.exchange_mut().leave(false))
    }));
    let end = match outcome {
        Ok(Ok(result)) => RankEnd::Finished {
            result,
            state: Box::new(eval.snapshot()),
            stats: rank.stats(),
            sentinel_syncs: eval.exchange().sentinel_syncs(),
            checkpoints: hooks.checkpoints_written(),
        },
        Ok(Err(stop)) => stop.into(),
        Err(payload) => how_it_stopped(payload, ctx),
    };
    RankReport {
        work: eval.engine().work(),
        mem_bytes: eval.engine().clv_bytes(),
        end,
    }
}

/// Turn the payload a rank's search unwound with out of a collective into
/// its report; anything else keeps unwinding (and poisons the world on its
/// way out). Caught here, not at join, so the structured payloads survive —
/// `World::run` re-panics with a plain message.
fn how_it_stopped(payload: Box<dyn Any + Send>, ctx: &WorldContext<'_>) -> RankEnd {
    if let Some(d) = payload.downcast_ref::<exa_obs::ReplicaDivergence>() {
        RankEnd::Stopped(RunError::Divergence(d.clone()))
    } else if payload.is::<CommFailurePanic>() && ctx.aborting.load(Ordering::SeqCst) {
        RankEnd::Left
    } else {
        std::panic::resume_unwind(payload)
    }
}

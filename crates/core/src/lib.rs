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

pub use capability::{Capability, CapabilityRequests, Caps, Negotiated};
pub use cli::{CliConfig, CliError};
pub use evaluator::{Allreduce, DecentralizedEvaluator};
pub use run::{BootstrapOptions, BootstrapSummary, RunConfig, RunError, RunOutcome, Scheme};
pub use sentinel::{DivergenceFault, FaultComponent};

use exa_bio::patterns::CompressedAlignment;
use exa_comm::{CommCategory, CommStats, Rank, ReduceChoice, ReduceKind, World};
use exa_obs::Recorder;
use exa_phylo::engine::{
    GradientChoice, GradientMode, KernelChoice, KernelKind, RepeatsChoice, SiteRepeats,
    ThreadCount, ThreadsChoice, WorkCounters,
};
use exa_phylo::model::rates::RateModelKind;
use exa_search::evaluator::GlobalState;
use exa_search::{
    build_starting_tree, run_search_from, BranchMode, KillPanic, KillSpec, PreemptPanic,
    SearchConfig, SearchResult, StartingTree,
};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;

/// Full configuration of a de-centralized inference run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InferenceConfig {
    /// Number of ranks (threads standing in for MPI processes).
    pub n_ranks: usize,
    /// Γ or PSR rate heterogeneity.
    pub rate_model: RateModelKind,
    /// Joint or per-partition (`-M`) branch lengths.
    pub branch_mode: BranchMode,
    /// Data distribution (`-Q` = `MonolithicLpt`).
    pub strategy: exa_sched::Strategy,
    /// Tree-search parameters.
    pub search: SearchConfig,
    /// Seed for the starting topology.
    pub seed: u64,
    /// Starting-tree policy (random, parsimony, or a given Newick tree).
    pub starting_tree: StartingTree,
    /// Commit a checkpoint generation every `checkpoint_every` iterations
    /// into this directory (if set). `0` disables the iteration cadence
    /// (checkpoints then only commit on the time cadence or a preemption).
    pub checkpoint_out: Option<PathBuf>,
    pub checkpoint_every: usize,
    /// Checkpoint generations retained in `checkpoint_out` (default
    /// [`checkpoint::KEEP_GENERATIONS`]).
    pub checkpoint_keep: usize,
    /// Also commit a checkpoint whenever at least this many wall-clock
    /// seconds have elapsed since the last one, evaluated at iteration
    /// boundaries. Wall clocks differ across ranks, so the per-boundary
    /// decision is made collectively (any rank due → all commit).
    pub checkpoint_every_secs: Option<f64>,
    /// Cooperative preemption handle. When the controller requests it, the
    /// ranks agree collectively at the next iteration boundary, commit a
    /// final checkpoint (if `checkpoint_out` is set) and abort the run as
    /// preempted — resumable via `resume_from`.
    pub preempt: Option<exa_search::PreemptSignal>,
    /// Resume from the newest intact generation in this checkpoint
    /// directory before searching.
    pub resume_from: Option<PathBuf>,
    /// Deterministic kill injection for the restart chaos harness: die
    /// after N committed checkpoints (`--inject-kill N[:RANK]`). Requires
    /// `checkpoint_out`.
    pub inject_kill: Option<KillSpec>,
    /// Scripted rank failures (testing / demonstration of §V).
    pub fault_plan: fault::FaultPlan,
    /// Replica-divergence sentinel cadence: exchange state fingerprints
    /// every N evaluator collectives (`--verify-replicas N`, 0 = off).
    pub verify_replicas: u64,
    /// Scripted single-bit state corruption (sentinel fault injection).
    pub divergence_fault: Option<DivergenceFault>,
    /// Write heartbeat JSON-lines records here (one per iteration boundary).
    pub health_out: Option<PathBuf>,
    /// Likelihood-kernel backend selection. `Auto` makes the ranks agree on
    /// a common backend via a one-time capability allgather (every rank
    /// adopts the weakest capability present), keeping the backend uniform
    /// across the world — a requirement for fault-driven redistribution.
    pub kernel: KernelChoice,
    /// Test hook: force a specific backend per rank, bypassing negotiation.
    /// Mixing kinds violates the uniform-backend requirement and is
    /// detected by the replica-divergence sentinel.
    pub kernel_override: Option<Vec<KernelKind>>,
    /// Subtree-repeat CLV compression selection. Like `kernel`, `Auto` is
    /// negotiated uniformly across the ranks (minimum capability wins) and
    /// the resolved setting is stamped into the sentinel fingerprint, so a
    /// rank that somehow resolved differently trips the sentinel instead of
    /// silently diverging operationally.
    pub site_repeats: RepeatsChoice,
    /// Test hook: force a repeats setting per rank, bypassing negotiation.
    pub site_repeats_override: Option<Vec<SiteRepeats>>,
    /// Collective reduction scheme (`--reduce`). `Fast` is the classic
    /// rank-ordered f64 sum (bit-identical within one world, but the bits
    /// depend on the rank count); `Reproducible` sums through binned
    /// superaccumulators so the bits are invariant under the rank count and
    /// the data split — the prerequisite for mid-run elastic resize. `Auto`
    /// negotiates the minimum capability across the world.
    pub reduce: ReduceChoice,
    /// Test hook: force a reduce mode per rank, bypassing negotiation.
    /// Mixing modes changes the bits of every collective sum and trips the
    /// replica-divergence sentinel at the first fingerprint sync.
    pub reduce_override: Option<Vec<ReduceKind>>,
    /// Intra-rank worker threads per rank (`--threads`). Like the other
    /// capabilities, `Auto` is negotiated to the world minimum so every
    /// rank runs the same pool width; the resolved count is folded into the
    /// sentinel fingerprint. Threading is bitwise invisible (results land
    /// in indexed slots, reductions stay serial), so this only changes who
    /// executes a partition's kernels, never the lnL bits.
    pub threads: ThreadsChoice,
    /// Test hook: force a thread count per rank, bypassing negotiation.
    pub threads_override: Option<Vec<ThreadCount>>,
    /// Gradient-driven branch-length optimization (`--gradient`). `On`
    /// computes every edge's seed derivatives in one analytic full-tree
    /// sweep ending in a single fat collective; `Off` keeps the per-edge
    /// derivative collectives. Both produce bitwise-identical trajectories
    /// — only the collective call sequence differs — so `Auto` negotiates
    /// the minimum capability across the world to keep it uniform.
    pub gradient: GradientChoice,
    /// Test hook: force a gradient mode per rank, bypassing negotiation.
    /// Mixing modes desynchronizes the collective call sequence and trips
    /// the replica-divergence sentinel at the first fingerprint sync.
    pub gradient_override: Option<Vec<GradientMode>>,
    /// Pack small partitions into cache-sized kernel batches (`--batch`,
    /// default on). Packing is deterministic from the slice assignment and
    /// bitwise invisible; turning it off reverts to one singleton batch per
    /// partition.
    pub batch: bool,
    /// Mid-run elastic-resize plan: at the boundary of iteration `i`,
    /// redistribute the alignment over `w` ranks (`--resize-at I:W,...`).
    /// The comm world is sized to the largest width up front; ranks beyond
    /// the current width hold no data but keep replicating the search.
    /// Requires a reproducible reduce mode — under `Fast` the lnL bits
    /// would shift with the width and the replicas would diverge from their
    /// own checkpointed trajectory.
    pub resize_plan: Vec<(usize, usize)>,
}

impl InferenceConfig {
    /// Sensible defaults for `n_ranks` ranks under Γ.
    pub fn new(n_ranks: usize) -> InferenceConfig {
        InferenceConfig {
            n_ranks,
            rate_model: RateModelKind::Gamma,
            branch_mode: BranchMode::Joint,
            strategy: exa_sched::Strategy::Cyclic,
            search: SearchConfig::default(),
            seed: 42,
            starting_tree: StartingTree::Random,
            checkpoint_out: None,
            checkpoint_every: 1,
            checkpoint_keep: checkpoint::KEEP_GENERATIONS,
            checkpoint_every_secs: None,
            preempt: None,
            resume_from: None,
            inject_kill: None,
            fault_plan: fault::FaultPlan::none(),
            verify_replicas: 0,
            divergence_fault: None,
            health_out: None,
            kernel: KernelChoice::from_env(),
            kernel_override: None,
            site_repeats: RepeatsChoice::from_env(),
            site_repeats_override: None,
            reduce: ReduceChoice::Fast,
            reduce_override: None,
            threads: ThreadsChoice::from_env(),
            threads_override: None,
            gradient: GradientChoice::from_env(),
            gradient_override: None,
            batch: true,
            resize_plan: Vec::new(),
        }
    }

    /// This rank's entries into the one-time packed capability exchange
    /// (see [`capability::negotiate`]).
    pub fn capability_requests(&self, rank_id: usize) -> CapabilityRequests {
        CapabilityRequests {
            kernel: capability::kernel_request(
                rank_id,
                self.kernel,
                self.kernel_override.as_deref(),
            ),
            site_repeats: capability::repeats_request(
                rank_id,
                self.site_repeats,
                self.site_repeats_override.as_deref(),
            ),
            reduce: capability::reduce_request(
                rank_id,
                self.reduce,
                self.reduce_override.as_deref(),
            ),
            threads: capability::threads_request(
                rank_id,
                self.threads,
                self.threads_override.as_deref(),
            ),
            gradient: capability::gradient_request(
                rank_id,
                self.gradient,
                self.gradient_override.as_deref(),
            ),
        }
    }

    /// The communicator width a run needs: the configured rank count, plus
    /// head-room up to the widest target in the resize plan (a world cannot
    /// grow past the ranks it launched with).
    pub fn world_size(&self) -> usize {
        self.resize_plan
            .iter()
            .map(|&(_, w)| w)
            .chain(std::iter::once(self.n_ranks))
            .max()
            .expect("chain is non-empty")
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

/// Result of a de-centralized run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub result: SearchResult,
    /// Final replicated state (tree + model parameters).
    pub state: GlobalState,
    /// Final tree in Newick form.
    pub tree_newick: String,
    /// Communication statistics of the whole world.
    pub comm_stats: CommStats,
    /// Kernel work summed over all ranks.
    pub work: WorkCounters,
    /// Total CLV memory across ranks, bytes.
    pub mem_bytes: u64,
    /// Ranks alive at the end.
    pub survivors: Vec<usize>,
    /// Sentinel fingerprint syncs completed (0 when the sentinel is off).
    pub sentinel_syncs: u64,
    /// The likelihood-kernel backend the ranks computed with (negotiated
    /// under `KernelChoice::Auto`, forced otherwise).
    pub kernel: KernelKind,
    /// The subtree-repeat compression setting the ranks computed with
    /// (negotiated under `RepeatsChoice::Auto`, forced otherwise).
    pub site_repeats: SiteRepeats,
    /// The collective reduction scheme the ranks computed with (negotiated
    /// under `ReduceChoice::Auto`, forced otherwise).
    pub reduce: ReduceKind,
    /// Intra-rank worker threads each rank computed with (negotiated under
    /// `ThreadsChoice::Auto`, forced otherwise).
    pub threads: usize,
    /// The gradient-BLO mode the ranks computed with (negotiated under
    /// `GradientChoice::Auto`, forced otherwise).
    pub gradient: GradientMode,
    /// Checkpoint generations committed during the run (0 when
    /// checkpointing is off).
    pub checkpoints: u64,
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
        kernel: KernelKind,
        site_repeats: SiteRepeats,
        reduce: ReduceKind,
        threads: usize,
        gradient: GradientMode,
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
/// the pre-validated payload of the checkpoint generation to restart from
/// (loaded once by the caller; every rank restores from the same parsed
/// state).
pub(crate) fn decentralized_impl(
    aln: &CompressedAlignment,
    cfg: &InferenceConfig,
    recorder: Option<&Arc<Recorder>>,
    resume: Option<&checkpoint::CheckpointPayload>,
) -> Result<RunOutput, RunAbort> {
    assert!(
        aln.n_taxa() >= 4,
        "need at least 4 taxa for a meaningful search"
    );
    install_control_panic_silencer();
    let aln = Arc::new(aln.clone());
    let freqs = Arc::new(exa_bio::stats::global_frequencies(&aln));
    let cfg = Arc::new(cfg.clone());
    let resume = resume.cloned().map(Arc::new);
    // One set of Arc-wrapped tip/weight buffers for the whole in-process
    // world: ranks holding a full partition alias these instead of cloning.
    let shared = Arc::new(exa_sched::SharedSlices::build(&aln));

    // The comm world is sized for the widest point of the resize plan up
    // front: collectives need a fixed membership, so growth happens into
    // pre-allocated head-room ranks that idle (zero local data) until the
    // plan reaches them.
    let world = cfg.world_size();
    let reports: Vec<RankReport> = World::run_traced(world, recorder, |rank| {
        rank_main(
            rank,
            Arc::clone(&aln),
            Arc::clone(&freqs),
            Arc::clone(&cfg),
            Arc::clone(&shared),
            resume.clone(),
        )
    });

    // Aggregate: all survivors must agree bit-for-bit; pick the first.
    let mut work = WorkCounters::default();
    let mut mem = 0u64;
    let mut chosen: Option<(SearchResult, Box<GlobalState>, CommStats)> = None;
    let mut lnls: Vec<u64> = Vec::new();
    let mut syncs = 0u64;
    let mut run_kernel = KernelKind::Scalar;
    let mut run_repeats = SiteRepeats::Off;
    let mut run_reduce = ReduceKind::Fast;
    let mut run_threads = 1usize;
    let mut run_gradient = GradientMode::Off;
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
                kernel,
                site_repeats,
                reduce,
                threads,
                gradient,
                checkpoints,
            } => {
                work = work.merge(&w);
                mem += mem_bytes;
                lnls.push(result.lnl.to_bits());
                syncs = syncs.max(sentinel_syncs);
                ckpts = ckpts.max(checkpoints);
                if chosen.is_none() {
                    chosen = Some((result, state, stats));
                    run_kernel = kernel;
                    run_repeats = site_repeats;
                    run_reduce = reduce;
                    run_threads = threads;
                    run_gradient = gradient;
                }
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
    let (result, state, stats) = chosen.expect("at least one rank must survive");
    let names: Vec<String> = aln.taxa.clone();
    let survivors = (0..world).filter(|r| !cfg.fault_plan.kills(*r)).collect();
    Ok(RunOutput {
        tree_newick: state.tree.to_newick(&names),
        result,
        state: *state,
        comm_stats: stats,
        work,
        mem_bytes: mem,
        survivors,
        sentinel_syncs: syncs,
        kernel: run_kernel,
        site_repeats: run_repeats,
        reduce: run_reduce,
        threads: run_threads,
        gradient: run_gradient,
        checkpoints: ckpts,
    })
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

fn rank_main(
    rank: Rank,
    aln: Arc<CompressedAlignment>,
    freqs: Arc<Vec<[f64; 4]>>,
    cfg: Arc<InferenceConfig>,
    shared: Arc<exa_sched::SharedSlices>,
    resume: Option<Arc<checkpoint::CheckpointPayload>>,
) -> RankReport {
    // 1. Deterministic data distribution — every rank computes the same
    //    assignment table locally (no coordination needed). Data starts
    //    spread over the configured rank count; ranks beyond it are resize
    //    head-room and hold an empty assignment until the plan grows into
    //    them.
    let assignments = padded_assignments(&aln, cfg.n_ranks, rank.world_size(), cfg.strategy);
    // Agree on the compute capabilities (kernel backend, site repeats,
    // reduce mode) before building any engine: one packed allgather, `Auto`
    // slots adopt the world minimum. Every rank stamps the winners into its
    // trace — identically, preserving cross-rank event-sequence parity — so
    // post-hoc analysis knows what the run computed with.
    let caps = capability::negotiate(&rank, &cfg.capability_requests(rank.id()));
    let kernel = caps.kernel.value;
    let site_repeats = caps.site_repeats.value;
    let reduce = caps.reduce.value;
    let threads = caps.threads.value;
    let gradient = caps.gradient.value;
    exa_obs::mark(|| format!("{}{}", exa_obs::KERNEL_BACKEND_MARK, kernel.label()));
    exa_obs::mark(|| format!("{}{}", exa_obs::SITE_REPEATS_MARK, site_repeats.label()));
    exa_obs::mark(|| format!("{}{}", exa_obs::REDUCE_MODE_MARK, reduce.label()));
    exa_obs::mark(|| format!("{}{}", exa_obs::THREADS_MARK, threads.label()));
    exa_obs::mark(|| format!("{}{}", exa_obs::GRADIENT_MARK, gradient.label()));
    exa_obs::mark(|| {
        format!(
            "{}{}",
            exa_obs::BATCH_MARK,
            if cfg.batch { "on" } else { "off" }
        )
    });
    let mut engine = exa_sched::build_engine(
        &aln,
        &assignments[rank.id()],
        &freqs,
        &exa_sched::EngineSpec {
            rate_model: cfg.rate_model,
            kernel,
            site_repeats,
            threads: threads.get(),
            batch: cfg.batch,
        },
        Some(&shared),
    );
    record_batch_metrics(&engine);
    // Checkpoint resume, phase 1: per-pattern PSR rates go straight into
    // the fresh engine (this rank's slice of the gathered global table —
    // elastic across any rank count, since the table is complete).
    if let Some(p) = resume.as_deref() {
        if !p.snapshot.psr_rates.is_empty() {
            exa_sched::apply_site_rates(
                &mut engine,
                &assignments[rank.id()],
                &aln,
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
            .flat_map(|a| exa_sched::materialize(&aln, a))
            .map(|(_, p)| (p.tips.iter().map(Vec::len).sum::<usize>() + 4 * p.weights.len()) as u64)
            .sum();
        rank.account(CommCategory::Control, exa_comm::OpKind::Scatter, bytes);
    }

    // 2. Identical starting tree on every rank (deterministic policy).
    let blens = match cfg.branch_mode {
        BranchMode::Joint => 1,
        BranchMode::PerPartition => aln.n_partitions(),
    };
    let tree = build_starting_tree(&aln, &cfg.starting_tree, blens, cfg.seed);

    let mut eval = DecentralizedEvaluator::with_exchange(
        Allreduce::new(rank.clone()),
        tree,
        engine,
        aln.n_partitions(),
        cfg.branch_mode,
    )
    .with_reduce(reduce)
    .with_gradient(gradient);
    eval.exchange_mut()
        .set_sentinel(cfg.verify_replicas, cfg.divergence_fault);

    // 3. Checkpoint resume, phase 2: restore the replicated state (every
    //    rank restores from the identical parsed payload, the in-process
    //    analogue of ExaML's parallel binary-file read), then a restart
    //    barrier so no rank races ahead into the search while others are
    //    still rebuilding.
    let resume_point = resume.as_deref().map(|p| {
        use exa_search::Evaluator as _;
        eval.restore(&p.snapshot.state);
        exa_obs::mark(|| format!("resume:{}", p.snapshot.iteration));
        rank.barrier(CommCategory::Control)
            .expect("restart barrier cannot proceed after a rank failure");
        p.snapshot.resume_point()
    });

    let mut hooks = fault::DecentralizedHooks::new(
        rank.clone(),
        Arc::clone(&aln),
        Arc::clone(&freqs),
        Arc::clone(&cfg),
        Arc::clone(&shared),
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
                kernel: eval.engine().kernel_kind(),
                site_repeats: eval.engine().site_repeats(),
                reduce: eval.reduce(),
                threads: eval.engine().threads(),
                gradient: eval.gradient(),
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

/// Convenience for tests and examples: single collective sanity check that
/// the world agrees on a value.
pub(crate) fn _assert_world_agrees(rank: &Rank, value: f64) {
    let mut buf = vec![value, -value];
    rank.allreduce_sum(&mut buf, CommCategory::Control)
        .expect("agreement check failed");
    let n = rank.active_count() as f64;
    assert!((buf[0] - value * n).abs() < 1e-9);
}

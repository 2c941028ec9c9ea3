//! `exa-forkjoin` — the **fork-join** parallelization baseline
//! (RAxML-Light's scheme, §III-A of the paper).
//!
//! A dedicated *master* rank owns the tree and steers the search; worker
//! ranks are agnostic of tree semantics and only execute likelihood kernels
//! on their data slice, driven by broadcast commands:
//!
//! * every likelihood operation broadcasts a **traversal descriptor**,
//! * every model-parameter change broadcasts the new parameter arrays,
//! * every Newton–Raphson step broadcasts candidate branch lengths and
//!   reduces derivative sums back to the master,
//! * likelihood evaluation reduces per-partition log-likelihoods to the
//!   master.
//!
//! All of this traffic is recorded by `exa-comm` under the Table I
//! categories, which is how the `table1` harness regenerates the paper's
//! communication-cost breakdown. The search algorithm itself is byte-for-
//! byte the one ExaML runs (`exa-search`), per §III-B's "exactly the same
//! tree search algorithm".

pub mod master;
pub mod protocol;
pub mod worker;

pub use master::{ForkJoinEvaluator, ToMaster};

use exa_bio::patterns::CompressedAlignment;
use exa_comm::{CommStats, ReduceKind, World};
use exa_obs::Recorder;
use exa_phylo::engine::{GradientChoice, KernelChoice, RepeatsChoice, ThreadsChoice, WorkCounters};
use exa_phylo::model::rates::RateModelKind;
use exa_search::evaluator::{CommFailurePanic, Evaluator, GlobalState, SearchSnapshot};
use exa_search::{
    build_starting_tree, run_search_from, BoundaryInfo, BranchMode, KillPanic, KillSpec, Modes,
    PreemptPanic, PreemptSignal, SearchConfig, SearchHooks, SearchResult, StartingTree,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a fork-join run (mirror of the de-centralized one,
/// minus fault tolerance — a master failure is catastrophic by design,
/// which is one of the paper's arguments *against* fork-join).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForkJoinConfig {
    pub n_ranks: usize,
    pub rate_model: RateModelKind,
    pub branch_mode: BranchMode,
    pub strategy: exa_sched::Strategy,
    pub search: SearchConfig,
    pub seed: u64,
    /// Starting-tree policy (must match across comparison runs).
    pub starting_tree: StartingTree,
    /// The resolved modes every rank computes with. The ranks of an
    /// in-process fork-join world share one machine and the workers take
    /// the master's settings via the command stream, so there is no
    /// capability negotiation here — callers resolve `auto` locally.
    pub modes: Modes,
}

impl ForkJoinConfig {
    /// Defaults for `n_ranks` ranks under Γ.
    pub fn new(n_ranks: usize) -> ForkJoinConfig {
        ForkJoinConfig {
            n_ranks,
            rate_model: RateModelKind::Gamma,
            branch_mode: BranchMode::Joint,
            strategy: exa_sched::Strategy::Cyclic,
            search: SearchConfig::default(),
            seed: 42,
            starting_tree: StartingTree::Random,
            modes: Modes {
                kernel: KernelChoice::from_env().resolve_local(),
                site_repeats: RepeatsChoice::from_env().resolve_local(),
                reduce: ReduceKind::Fast,
                threads: ThreadsChoice::from_env().resolve_local(),
                gradient: GradientChoice::from_env().resolve_local(),
                batch: true,
            },
        }
    }
}

/// Result of a fork-join run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub result: SearchResult,
    pub state: GlobalState,
    pub tree_newick: String,
    pub comm_stats: CommStats,
    pub work: WorkCounters,
    pub mem_bytes: u64,
}

enum RankReport {
    Master {
        result: SearchResult,
        state: Box<GlobalState>,
        work: WorkCounters,
        mem: u64,
        stats: CommStats,
    },
    Worker {
        work: WorkCounters,
        mem: u64,
    },
    /// The master stopped early (kill injection or preemption), after
    /// releasing the workers.
    Stopped(Stop),
}

/// An injected kill terminated the run (checkpoint/restart chaos testing):
/// the master died after `after_checkpoints` committed checkpoints, at
/// iteration boundary `iteration`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KilledRun {
    pub after_checkpoints: u64,
    pub iteration: usize,
}

/// A cooperative preemption stopped the run at iteration boundary
/// `iteration`; `checkpoints` generations (including the preemption
/// checkpoint, when the sink was armed) were committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptedRun {
    pub iteration: usize,
    pub checkpoints: u64,
}

/// Why [`execute_controlled`] stopped without producing a [`RunOutput`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// An injected [`KillSpec`] fired (simulated crash — nothing graceful).
    Killed(KilledRun),
    /// A [`PreemptSignal`] was honoured at a boundary (graceful stop,
    /// resumable from the final checkpoint).
    Preempted(PreemptedRun),
}

/// Checkpoint/restart controls for [`execute_controlled`]. The fork-join
/// crate owns *when* (boundary cadence, PSR rate gathers, kill points);
/// the caller owns *what* goes on disk — `sink` receives the master's
/// [`SearchSnapshot`] and persists it however it likes.
pub struct RestartControl<'a> {
    /// Is the sink backed by real storage? When false (resume-only or
    /// kill-only controls) no checkpoint is ever written, including on
    /// preemption.
    pub checkpoint_armed: bool,
    /// Commit a checkpoint every `every` iterations (0 = no iteration
    /// cadence; resume-only controls use 0).
    pub every: usize,
    /// Also commit whenever at least this many wall-clock seconds have
    /// elapsed since the last commit, evaluated at boundaries. Only set
    /// when the sink is armed (the caller has a checkpoint directory).
    pub every_secs: Option<f64>,
    /// Called on the master thread with each checkpoint snapshot.
    pub sink: &'a (dyn Fn(&SearchSnapshot) -> std::io::Result<()> + Sync),
    /// Snapshot to resume from, applied before the search starts.
    pub resume: Option<SearchSnapshot>,
    /// Kill the master after this many committed checkpoints. The master
    /// broadcasts `Shutdown` *before* dying so the workers drain instead of
    /// deadlocking on the next command broadcast.
    pub inject_kill: Option<KillSpec>,
    /// Cooperative preemption handle, polled at boundaries. The fork-join
    /// master owns the only search state, so no collective agreement is
    /// needed: the master's local read is authoritative, and the workers
    /// are released via `Shutdown` before it unwinds.
    pub preempt: Option<PreemptSignal>,
}

/// Master-side boundary hooks implementing [`RestartControl`].
struct MasterHooks<'a> {
    aln: &'a CompressedAlignment,
    assignments: &'a [exa_sched::RankAssignment],
    ctrl: Option<&'a RestartControl<'a>>,
    checkpoints: u64,
    last_checkpoint: Instant,
}

impl SearchHooks for MasterHooks<'_> {
    fn at_boundary(&mut self, eval: &mut dyn Evaluator, info: &BoundaryInfo) {
        let Some(ctrl) = self.ctrl else { return };
        let fj = eval
            .as_any_mut()
            .downcast_mut::<ForkJoinEvaluator>()
            .expect("fork-join hooks require the fork-join evaluator");
        let preempt = ctrl.preempt.as_ref().is_some_and(|p| p.is_requested());
        let on_cadence = ctrl.every > 0 && info.iteration.is_multiple_of(ctrl.every);
        let time_due = ctrl
            .every_secs
            .is_some_and(|secs| self.last_checkpoint.elapsed().as_secs_f64() >= secs);
        if ctrl.checkpoint_armed && (on_cadence || time_due || preempt) {
            let psr_rates = ToMaster::collect_site_rates(fj, self.aln, self.assignments);
            let snap = SearchSnapshot {
                iteration: info.iteration,
                lnl_bits: info.lnl.to_bits(),
                spr_moves: info.spr_moves,
                state: fj.snapshot(),
                psr_rates,
            };
            (ctrl.sink)(&snap).expect("checkpoint write failed");
            self.checkpoints += 1;
            self.last_checkpoint = Instant::now();
            exa_obs::mark(|| format!("{}{}", exa_obs::CHECKPOINT_MARK, info.iteration));
        }
        if preempt {
            // Master death would strand the workers mid-broadcast: release
            // them first, then unwind.
            fj.exchange_mut().shutdown_workers();
            exa_obs::mark(|| format!("preempt:{}", info.iteration));
            std::panic::panic_any(PreemptPanic {
                iteration: info.iteration,
                checkpoints: self.checkpoints,
            });
        }
        if let Some(kill) = ctrl.inject_kill {
            if self.checkpoints >= kill.after_checkpoints {
                fj.exchange_mut().shutdown_workers();
                std::panic::panic_any(KillPanic {
                    after_checkpoints: kill.after_checkpoints,
                    iteration: info.iteration,
                });
            }
        }
    }

    fn on_failure(&mut self, _eval: &mut dyn Evaluator, _failure: &CommFailurePanic) -> bool {
        // A master failure is catastrophic by design (§III-A).
        false
    }
}

/// Execute a fork-join inference: rank 0 is the master, the rest are
/// workers. With a [`Recorder`], each rank claims its tracer slot so
/// kernels, search phases and collectives emit events.
pub fn execute(
    aln: &CompressedAlignment,
    cfg: &ForkJoinConfig,
    recorder: Option<&std::sync::Arc<Recorder>>,
) -> RunOutput {
    match execute_controlled(aln, cfg, recorder, None) {
        Ok(out) => out,
        Err(_) => unreachable!("no kill or preemption can fire without a RestartControl"),
    }
}

/// Record the batch-packing outcome of one rank's engine in the metrics
/// registry (`/metrics`). Per-rank batch counts differ under MPS, so these
/// go to metrics rather than trace marks (which must stay rank-uniform).
fn examl_obs_batch_metrics(engine: &exa_phylo::Engine) {
    if !exa_obs::metrics::enabled() {
        return;
    }
    let m = exa_obs::metrics::global();
    m.counter(
        "exa_batches_total",
        "Kernel batches created by partition packing",
        &[],
    )
    .add(engine.batch_count() as u64);
    if engine.batch_count() > 0 {
        m.gauge(
            "exa_batch_fill_ratio",
            "Mean partitions per kernel batch",
            &[],
        )
        .set(engine.n_partitions() as f64 / engine.batch_count() as f64);
    }
}

/// [`execute`] with checkpoint/restart controls: boundary-cadence (and
/// wall-clock-cadence) checkpoints fed to `ctrl.sink`, resume from a
/// snapshot, deterministic master kills for the restart chaos harness, and
/// cooperative checkpoint-preemption.
pub fn execute_controlled(
    aln: &CompressedAlignment,
    cfg: &ForkJoinConfig,
    recorder: Option<&std::sync::Arc<Recorder>>,
    ctrl: Option<RestartControl<'_>>,
) -> Result<RunOutput, Stop> {
    assert!(
        aln.n_taxa() >= 4,
        "need at least 4 taxa for a meaningful search"
    );
    let aln = Arc::new(aln.clone());
    let freqs = Arc::new(exa_bio::stats::global_frequencies(&aln));
    let cfg = Arc::new(cfg.clone());
    let shared = Arc::new(exa_sched::SharedSlices::build(&aln));

    let reports: Vec<RankReport> = World::run_traced(cfg.n_ranks, recorder, |rank| {
        let assignments = exa_sched::distribute(&aln, rank.world_size(), cfg.strategy);
        let engine = exa_sched::build_engine(
            &aln,
            &assignments[rank.id()],
            &freqs,
            &exa_sched::EngineSpec {
                rate_model: cfg.rate_model,
                kernel: cfg.modes.kernel,
                site_repeats: cfg.modes.site_repeats,
                threads: cfg.modes.threads.get(),
                batch: cfg.modes.batch,
            },
            Some(&shared),
        );
        examl_obs_batch_metrics(&engine);
        cfg.modes.stamp_trace();
        if rank.id() == 0 {
            // Account the initial data distribution (modeled; see the
            // de-centralized driver for the rationale).
            let bytes: u64 = assignments
                .iter()
                .flat_map(|a| exa_sched::materialize(&aln, a))
                .map(|(_, p)| {
                    (p.tips.iter().map(Vec::len).sum::<usize>() + 4 * p.weights.len()) as u64
                })
                .sum();
            rank.account(
                exa_comm::CommCategory::Control,
                exa_comm::OpKind::Scatter,
                bytes,
            );
            // Master: owns the tree and runs the search; the evaluator
            // broadcasts work to the workers.
            let blens = match cfg.branch_mode {
                BranchMode::Joint => 1,
                BranchMode::PerPartition => aln.n_partitions(),
            };
            let tree = build_starting_tree(&aln, &cfg.starting_tree, blens, cfg.seed);
            let mut eval = ForkJoinEvaluator::with_exchange(
                ToMaster::new(rank.clone()),
                tree,
                engine,
                aln.n_partitions(),
                cfg.branch_mode,
            )
            .with_modes(&cfg.modes);
            // Resume: install the checkpointed PSR rates on every rank
            // (broadcast), then the replicated master state.
            let resume_point = ctrl.as_ref().and_then(|c| c.resume.as_ref()).map(|snap| {
                ToMaster::distribute_site_rates(&mut eval, &snap.psr_rates, &aln, &assignments);
                eval.restore(&snap.state);
                exa_obs::mark(|| format!("resume:{}", snap.iteration));
                snap.resume_point()
            });
            let mut hooks = MasterHooks {
                aln: &aln,
                assignments: &assignments,
                ctrl: ctrl.as_ref(),
                checkpoints: 0,
                last_checkpoint: Instant::now(),
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_search_from(&mut eval, &cfg.search, &mut hooks, resume_point.as_ref())
            }));
            match outcome {
                Ok(result) => {
                    eval.exchange_mut().shutdown_workers();
                    RankReport::Master {
                        result,
                        state: Box::new(eval.snapshot()),
                        work: eval.engine().work(),
                        mem: eval.engine().clv_bytes(),
                        stats: rank.stats(),
                    }
                }
                Err(payload) => match payload.downcast::<KillPanic>() {
                    Ok(k) => RankReport::Stopped(Stop::Killed(KilledRun {
                        after_checkpoints: k.after_checkpoints,
                        iteration: k.iteration,
                    })),
                    Err(payload) => match payload.downcast::<PreemptPanic>() {
                        Ok(p) => RankReport::Stopped(Stop::Preempted(PreemptedRun {
                            iteration: p.iteration,
                            checkpoints: p.checkpoints,
                        })),
                        Err(payload) => std::panic::resume_unwind(payload),
                    },
                },
            }
        } else {
            // Worker: tree-agnostic kernel executor.
            let (work, mem) = worker::worker_loop(
                rank.clone(),
                engine,
                cfg.branch_mode,
                aln.n_partitions(),
                cfg.modes.reduce,
                &assignments[rank.id()],
                &aln,
            );
            RankReport::Worker { work, mem }
        }
    });

    let mut total_work = WorkCounters::default();
    let mut total_mem = 0u64;
    let mut master: Option<(SearchResult, Box<GlobalState>, CommStats)> = None;
    let mut stopped: Option<Stop> = None;
    for r in reports {
        match r {
            RankReport::Master {
                result,
                state,
                work,
                mem,
                stats,
            } => {
                total_work = total_work.merge(&work);
                total_mem += mem;
                master = Some((result, state, stats));
            }
            RankReport::Worker { work, mem } => {
                total_work = total_work.merge(&work);
                total_mem += mem;
            }
            RankReport::Stopped(s) => stopped = Some(s),
        }
    }
    if let Some(s) = stopped {
        return Err(s);
    }
    let (result, state, stats) = master.expect("master rank must report");
    Ok(RunOutput {
        tree_newick: state.tree.to_newick(&aln.taxa),
        result,
        state: *state,
        comm_stats: stats,
        work: total_work,
        mem_bytes: total_mem,
    })
}

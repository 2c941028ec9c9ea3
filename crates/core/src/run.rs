//! The unified run entrypoint.
//!
//! Every combination of scheme × tracing × divergence handling × bootstrap
//! goes through [`RunConfig`]: one builder-style configuration, one
//! [`RunConfig::run`] call, one [`RunOutcome`] that always carries the
//! kernel backend the run computed with, the optional trace and the
//! end-of-run [`HealthReport`].
//!
//! ```no_run
//! # let aln: exa_bio::patterns::CompressedAlignment = unimplemented!();
//! use examl_core::{RunConfig, Scheme};
//!
//! let outcome = RunConfig::new(4)
//!     .scheme(Scheme::Decentralized)
//!     .verify_replicas(64)
//!     .collect_trace(true)
//!     .run(&aln)
//!     .expect("replicas stayed bit-identical");
//! println!("lnL {} with {} kernels", outcome.result.lnl, outcome.kernel.label());
//! ```

use crate::bootstrap::bootstrap_impl;
use crate::checkpoint::{self, Checkpoint, CheckpointError};
use crate::fault::Faults;
use crate::scheme::SchemeExchange;
use crate::{run_world, Allreduce};
use exa_bio::patterns::CompressedAlignment;
use exa_comm::{CommStats, ReduceChoice, ReduceKind};
use exa_obs::{HealthReport, Recorder, ReplicaDivergence, RunTrace};
use exa_phylo::engine::{
    GradientChoice, GradientMode, KernelChoice, KernelKind, RepeatsChoice, SiteRepeats,
    ThreadsChoice, WorkCounters,
};
use exa_phylo::model::rates::RateModelKind;
use exa_search::evaluator::GlobalState;
use exa_search::{BranchMode, Modes, PreemptSignal, SearchConfig, SearchResult, StartingTree};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;

/// Which parallelization scheme executes the search (§III of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Scheme {
    /// The paper's contribution: every rank replicates the search and only
    /// mathematically-required reductions are communicated. Supports
    /// checkpointing, fault tolerance, the replica sentinel and bootstrap.
    Decentralized,
    /// The RAxML-Light master/worker baseline: rank 0 owns the tree and
    /// broadcasts work. No fault tolerance (a master failure is
    /// catastrophic by design) and no replica sentinel (there are no
    /// replicas to compare).
    ForkJoin,
}

/// Bootstrap settings carried by a [`RunConfig`] (de-centralized only).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BootstrapOptions {
    /// Number of bootstrap replicates.
    pub replicates: usize,
    /// Master seed; replicate `i` resamples with `seed + i`.
    pub seed: u64,
    /// Write the best-tree run's Chrome trace here and each replicate's to
    /// `bootstrap::replicate_trace_path` of it.
    pub trace_out: Option<PathBuf>,
}

/// Bootstrap results attached to a [`RunOutcome`].
#[derive(Debug, Clone)]
pub struct BootstrapSummary {
    /// Per-replicate final log-likelihoods.
    pub replicate_lnls: Vec<f64>,
    /// Support (% of replicates) per canonical bipartition of the best tree.
    pub support: HashMap<Vec<usize>, f64>,
    /// Best tree with support labels, Newick.
    pub annotated_newick: String,
}

/// Why a run did not produce a [`RunOutcome`].
#[derive(Debug)]
pub enum RunError {
    /// The replica sentinel tripped: the diagnostic names the first
    /// divergent collective, the minority ranks and the state component(s).
    Divergence(ReplicaDivergence),
    /// An injected kill (`--inject kill:N`) terminated the run after the
    /// configured number of committed checkpoints.
    Killed {
        after_checkpoints: u64,
        iteration: usize,
    },
    /// A [`PreemptSignal`] stopped the run cleanly at iteration boundary
    /// `iteration`. Not a failure: `checkpoints` generations are on disk
    /// (including the preemption checkpoint when `checkpoint_out` was set)
    /// and the run resumes bit-identically via [`RunConfig::resume`].
    Preempted { iteration: usize, checkpoints: u64 },
    /// Checkpoint load/validation failed (corrupt file, incompatible
    /// header, empty directory), or a generation could not be written.
    Checkpoint(CheckpointError),
    /// Trace or support-file I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Divergence(d) => write!(f, "{d}"),
            RunError::Killed {
                after_checkpoints,
                iteration,
            } => write!(
                f,
                "run killed by injection after {after_checkpoints} checkpoint(s), \
                 at iteration boundary {iteration}"
            ),
            RunError::Preempted {
                iteration,
                checkpoints,
            } => write!(
                f,
                "run preempted at iteration boundary {iteration} \
                 ({checkpoints} checkpoint generation(s) on disk)"
            ),
            RunError::Checkpoint(e) => write!(f, "{e}"),
            RunError::Io(e) => write!(f, "trace I/O failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ReplicaDivergence> for RunError {
    fn from(d: ReplicaDivergence) -> RunError {
        RunError::Divergence(d)
    }
}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> RunError {
        RunError::Io(e)
    }
}

impl From<CheckpointError> for RunError {
    fn from(e: CheckpointError) -> RunError {
        RunError::Checkpoint(e)
    }
}

/// Everything a run produces, regardless of scheme: the search result and
/// final state, the world's communication and kernel work, the modes the
/// ranks computed with, the merged trace (when requested) and the
/// end-of-run health summary.
#[derive(Debug)]
pub struct RunOutcome {
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
    /// Ranks alive at the end (all of them under fork-join).
    pub survivors: Vec<usize>,
    /// Sentinel fingerprint syncs completed (0 when the sentinel is off).
    pub sentinel_syncs: u64,
    /// The likelihood-kernel backend the ranks computed with (this and the
    /// next four: [`RunConfig::modes`]).
    pub kernel: KernelKind,
    /// The subtree-repeat compression setting the ranks computed with.
    pub site_repeats: SiteRepeats,
    /// The collective reduction mode the ranks computed with.
    pub reduce: ReduceKind,
    /// Intra-rank worker threads each rank computed with.
    pub threads: usize,
    /// The gradient-BLO mode the ranks computed with.
    pub gradient: GradientMode,
    /// Merged trace, present when [`RunConfig::collect_trace`] was set
    /// (absent for bootstrap runs, which write per-replicate trace files
    /// instead).
    pub trace: Option<RunTrace>,
    /// End-of-run health summary (sentinel verdict, load imbalance,
    /// heartbeat count, kernel backend).
    pub health: HealthReport,
    /// Bootstrap support results, when replicates were requested.
    pub bootstrap: Option<BootstrapSummary>,
}

impl RunOutcome {
    /// The outcome of a search that ended in `state` computing with
    /// `modes`: zero counters, all ranks unaccounted, no trace or bootstrap
    /// yet, a health report that names the modes and nothing else — the
    /// drivers fill in what they measured.
    pub(crate) fn new(
        result: SearchResult,
        state: GlobalState,
        taxa: &[String],
        modes: &Modes,
    ) -> RunOutcome {
        RunOutcome {
            tree_newick: state.tree.to_newick(taxa),
            result,
            state,
            comm_stats: CommStats::default(),
            work: WorkCounters::default(),
            mem_bytes: 0,
            survivors: Vec::new(),
            sentinel_syncs: 0,
            kernel: modes.kernel,
            site_repeats: modes.site_repeats,
            reduce: modes.reduce,
            threads: modes.threads.get(),
            gradient: modes.gradient,
            trace: None,
            health: HealthReport {
                modes: Some(modes.label_map()),
                ..HealthReport::default()
            },
            bootstrap: None,
        }
    }
}

/// Builder-style configuration for [`RunConfig::run`], the one run
/// configuration every layer below reads.
///
/// Serializable: the serve daemon spools jobs as `RunConfig` JSON. The
/// `preempt` handle and the `faults` are process-local and round-trip as
/// `null` (a deserialized config gets a fresh, disconnected signal slot
/// and no faults).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunConfig {
    pub scheme: Scheme,
    pub n_ranks: usize,
    pub rate_model: RateModelKind,
    pub branch_mode: BranchMode,
    pub strategy: exa_sched::Strategy,
    pub search: SearchConfig,
    pub seed: u64,
    pub starting_tree: StartingTree,
    /// Checkpoint directory: commit a generation every `checkpoint_every`
    /// iterations (both schemes; 0 disables the iteration cadence).
    pub checkpoint_out: Option<PathBuf>,
    pub checkpoint_every: usize,
    /// Checkpoint generations retained (default
    /// [`checkpoint::KEEP_GENERATIONS`]).
    pub checkpoint_keep: usize,
    /// Also commit whenever this many wall-clock seconds have elapsed since
    /// the last commit, evaluated at iteration boundaries (both schemes).
    pub checkpoint_every_secs: Option<f64>,
    /// Cooperative preemption handle: when requested, the run checkpoints
    /// at its next boundary and returns [`RunError::Preempted`].
    pub preempt: Option<PreemptSignal>,
    /// Resume from the newest intact generation in this directory.
    pub resume_from: Option<PathBuf>,
    /// Test faults: kills, scripted deaths, state corruption.
    pub faults: Faults,
    pub verify_replicas: u64,
    pub health_out: Option<PathBuf>,
    /// Kernel-backend selection; `Auto` is the best backend the host
    /// offers.
    pub kernel: KernelChoice,
    /// Subtree-repeat CLV compression; `Auto` is on.
    pub site_repeats: RepeatsChoice,
    /// Collective reduction mode; `Auto` is reproducible. `Reproducible`
    /// makes every summed collective rank-count-invariant and bitwise
    /// deterministic via binned superaccumulators.
    pub reduce: ReduceChoice,
    /// Intra-rank worker threads per rank; `Auto` is one. Bitwise
    /// invisible: the lnL trajectory is identical at any count.
    pub threads: ThreadsChoice,
    /// Route of `Evaluator::full_gradient`: every edge's analytic
    /// `dlnL/dt` from one full-tree sweep and a single collective, or from
    /// per-edge reductions. Bitwise-equal numbers, and branch smoothing does
    /// not call it; `Auto` is on.
    pub gradient: GradientChoice,
    /// Pack small partitions into cache-sized kernel batches (default on).
    pub batch: bool,
    /// Mid-run elastic resize plan: at each `(iteration, width)` boundary
    /// the active rank pool shrinks or grows to `width` ranks by
    /// deterministic local data redistribution. Requires the de-centralized
    /// scheme and a non-`Fast` reduction mode (only rank-count-invariant
    /// sums keep the lnL trajectory bitwise stable across widths).
    pub resize_plan: Vec<(usize, usize)>,
    /// Collect an `exa-obs` trace and return it in the outcome.
    pub collect_trace: bool,
    /// Run a bootstrap analysis around the best-tree search.
    pub bootstrap: Option<BootstrapOptions>,
}

impl RunConfig {
    /// Defaults for `n_ranks` ranks: de-centralized scheme, Γ model, no
    /// tracing, sentinel off, and the run modes `auto` except for the
    /// reduction, which is `fast`: the baseline numerics stay
    /// byte-identical unless reproducibility is asked for.
    pub fn new(n_ranks: usize) -> RunConfig {
        RunConfig {
            scheme: Scheme::Decentralized,
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
            faults: Faults::none(),
            verify_replicas: 0,
            health_out: None,
            kernel: KernelChoice::Auto,
            site_repeats: RepeatsChoice::Auto,
            reduce: ReduceChoice::Fast,
            threads: ThreadsChoice::Auto,
            gradient: GradientChoice::Auto,
            batch: true,
            resize_plan: Vec::new(),
            collect_trace: false,
            bootstrap: None,
        }
    }

    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    pub fn rate_model(mut self, model: RateModelKind) -> Self {
        self.rate_model = model;
        self
    }

    pub fn branch_mode(mut self, mode: BranchMode) -> Self {
        self.branch_mode = mode;
        self
    }

    pub fn strategy(mut self, strategy: exa_sched::Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    pub fn search(mut self, search: SearchConfig) -> Self {
        self.search = search;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn starting_tree(mut self, tree: StartingTree) -> Self {
        self.starting_tree = tree;
        self
    }

    /// Commit a checkpoint generation into directory `dir` every `every`
    /// iterations (the directory keeps the last [`RunConfig::checkpoint_keep`]
    /// generations; `every = 0` disables the iteration cadence, leaving only
    /// the time cadence and preemption commits).
    pub fn checkpoint(mut self, dir: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint_out = Some(dir.into());
        self.checkpoint_every = every;
        self
    }

    /// Retain the last `keep` checkpoint generations (clamped to ≥ 1).
    pub fn checkpoint_keep(mut self, keep: usize) -> Self {
        self.checkpoint_keep = keep.max(1);
        self
    }

    /// Also commit a checkpoint whenever `secs` wall-clock seconds have
    /// elapsed since the last commit, evaluated at iteration boundaries.
    /// Requires [`RunConfig::checkpoint`].
    pub fn checkpoint_every_secs(mut self, secs: f64) -> Self {
        self.checkpoint_every_secs = Some(secs);
        self
    }

    /// Arm cooperative preemption: when `signal` is requested, the run
    /// commits a final checkpoint at its next iteration boundary (if
    /// checkpointing is configured) and returns [`RunError::Preempted`].
    pub fn preempt(mut self, signal: PreemptSignal) -> Self {
        self.preempt = Some(signal);
        self
    }

    /// Resume from the newest intact checkpoint generation in `dir` before
    /// searching.
    pub fn resume(mut self, dir: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(dir.into());
        self
    }

    /// Inject these test faults (a kill needs [`RunConfig::checkpoint`]).
    pub fn faults(mut self, faults: Faults) -> Self {
        self.faults = faults;
        self
    }

    /// Exchange replica state fingerprints every `cadence` collectives
    /// (0 = sentinel off).
    pub fn verify_replicas(mut self, cadence: u64) -> Self {
        self.verify_replicas = cadence;
        self
    }

    /// Append one heartbeat JSON line per iteration boundary to `path`.
    pub fn health_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.health_out = Some(path.into());
        self
    }

    /// Select the likelihood-kernel backend.
    pub fn kernel(mut self, kernel: KernelChoice) -> Self {
        self.kernel = kernel;
        self
    }

    /// Select the subtree-repeat CLV compression setting.
    pub fn site_repeats(mut self, choice: RepeatsChoice) -> Self {
        self.site_repeats = choice;
        self
    }

    /// Select the collective reduction mode.
    pub fn reduce(mut self, choice: ReduceChoice) -> Self {
        self.reduce = choice;
        self
    }

    /// Select the intra-rank worker thread count.
    pub fn threads(mut self, choice: ThreadsChoice) -> Self {
        self.threads = choice;
        self
    }

    /// Select the gradient-BLO mode.
    pub fn gradient(mut self, choice: GradientChoice) -> Self {
        self.gradient = choice;
        self
    }

    /// Enable or disable partition packing into kernel batches.
    pub fn batch(mut self, on: bool) -> Self {
        self.batch = on;
        self
    }

    /// Schedule a mid-run elastic resize: at iteration boundary `iteration`
    /// the active rank pool becomes `width` ranks (grow or shrink). May be
    /// called repeatedly to chain resizes. Requires the de-centralized
    /// scheme and a non-`Fast` [`RunConfig::reduce`] mode.
    pub fn resize_at(mut self, iteration: usize, width: usize) -> Self {
        self.resize_plan.push((iteration, width));
        self
    }

    /// Collect an `exa-obs` trace and return it in the outcome.
    pub fn collect_trace(mut self, on: bool) -> Self {
        self.collect_trace = on;
        self
    }

    /// Run `replicates` bootstrap replicates (replicate `i` resamples with
    /// `seed + i`) and attach bipartition support to the outcome.
    pub fn bootstrap(mut self, replicates: usize, seed: u64) -> Self {
        self.bootstrap = Some(BootstrapOptions {
            replicates,
            seed,
            trace_out: None,
        });
        self
    }

    /// Write bootstrap traces (best run + one file per replicate) rooted at
    /// `path`. Only meaningful after [`RunConfig::bootstrap`].
    pub fn bootstrap_trace_out(mut self, path: impl Into<PathBuf>) -> Self {
        if let Some(bs) = &mut self.bootstrap {
            bs.trace_out = Some(path.into());
        }
        self
    }

    /// The modes this run computes with: every choice resolved on this
    /// host, plus the batching switch. Every rank of a world reads the same
    /// configuration on the same host, so this is the world's answer, and
    /// the one place a configuration becomes a [`Modes`].
    pub fn modes(&self) -> Modes {
        Modes {
            kernel: self.kernel.resolve_local(),
            site_repeats: self.site_repeats.resolve_local(),
            reduce: self.reduce.resolve_local(),
            threads: self.threads.resolve_local(),
            gradient: self.gradient.resolve_local(),
            batch: self.batch,
        }
    }

    /// The communicator width a run needs: the configured rank count, plus
    /// head-room up to the widest target in the resize plan (a world cannot
    /// grow past the ranks it launched with; ranks beyond the current width
    /// hold no data but keep replicating the search).
    pub fn world_size(&self) -> usize {
        self.resize_plan
            .iter()
            .map(|&(_, w)| w)
            .chain(std::iter::once(self.n_ranks))
            .max()
            .expect("chain is non-empty")
    }

    /// Whether the settings describe a run at all. [`RunConfig::run`]
    /// panics on what this rejects; a front end reports it as a usage
    /// error instead.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.n_ranks == 0 || self.resize_plan.iter().any(|&(_, width)| width == 0) {
            return Err("a run needs at least one rank (--ranks, --resize-at widths)");
        }
        self.faults.validate(self.world_size(), self.scheme)?;
        if self.faults.kill.is_some() && self.checkpoint_out.is_none() {
            return Err(
                "--inject kill requires --checkpoint-out (kills are counted in checkpoints)",
            );
        }
        if self.scheme != Scheme::Decentralized && self.bootstrap.is_some() {
            return Err("--bootstrap requires the de-centralized scheme");
        }
        if self.resize_plan.is_empty() {
            return Ok(());
        }
        if self.scheme != Scheme::Decentralized {
            return Err("--resize-at requires the de-centralized scheme");
        }
        if matches!(self.reduce, ReduceChoice::Fast) {
            return Err(
                "--resize-at requires --reduce reproducible (or auto): only \
                 rank-count-invariant reductions keep the lnL trajectory \
                 bitwise stable across a width change",
            );
        }
        Ok(())
    }

    /// Execute the configured run.
    pub fn run(&self, aln: &CompressedAlignment) -> Result<RunOutcome, RunError> {
        if let Err(why) = self.validate() {
            panic!("{why}");
        }
        match self.scheme {
            Scheme::Decentralized => self.run_scheme::<Allreduce>(aln),
            Scheme::ForkJoin => self.run_scheme::<exa_forkjoin::ToMaster>(aln),
        }
    }

    /// Load and validate the resume checkpoint, if one was requested. The
    /// strict header fields must match this run ([`checkpoint::validate_resume`]);
    /// the elastic ones (kernel, site-repeats, scheme) may differ — the
    /// replicated state redistributes. The rank count is elastic only when
    /// both the checkpoint and this run use the reproducible reduce mode.
    fn load_resume(&self, aln: &CompressedAlignment) -> Result<Option<Checkpoint>, RunError> {
        let Some(dir) = &self.resume_from else {
            return Ok(None);
        };
        let ckpt = checkpoint::load_latest(dir)?;
        let ctx = checkpoint::ResumeContext {
            rate_model: format!("{:?}", self.rate_model),
            branch_mode: format!("{:?}", self.branch_mode),
            seed: self.seed,
            n_taxa: aln.n_taxa(),
            n_partitions: aln.n_partitions(),
            rank_count: self.n_ranks,
            reduce: self.modes().reduce.label().into(),
        };
        checkpoint::validate_resume(&ckpt.header, &ctx)?;
        Ok(Some(ckpt))
    }

    /// The run under exchange `X`: one world (or the bootstrap's sequence
    /// of them), then what is measured from outside it.
    fn run_scheme<X: SchemeExchange>(
        &self,
        aln: &CompressedAlignment,
    ) -> Result<RunOutcome, RunError> {
        let resume = self.load_resume(aln)?.map(|c| c.payload);
        // The heartbeat file belongs to the run, not to whichever rank is
        // its writer at some boundary: start it empty here, once, and let
        // every writer append. A resumed run continues its history.
        if let (Some(path), None) = (&self.health_out, &self.resume_from) {
            std::fs::File::create(path)?;
        }
        let mut out = if let Some(bs) = &self.bootstrap {
            bootstrap_impl(aln, self, bs, resume.as_ref())?
        } else {
            // The recorder needs one buffer per comm-world rank, which under
            // a resize plan is the widest planned width, not the starting one.
            let recorder = self.collect_trace.then(|| Recorder::new(self.world_size()));
            let (mut out, _) = run_world::<X>(aln, self, recorder.as_ref(), resume.as_ref())?;
            out.trace = recorder.map(Recorder::finish);
            record_run_metrics(X::LABEL, out.kernel, out.trace.as_ref());
            out
        };
        out.health = self.health_report(&out);
        Ok(out)
    }

    /// End-of-run health summary of `out`: sentinel verdict, measured
    /// (trace) load imbalance, heartbeat count — around what the driver
    /// already filled in because only it held them: the predicted imbalance
    /// (assignment table) and the modes the ranks computed with.
    fn health_report(&self, out: &RunOutcome) -> HealthReport {
        let trace = out.trace.as_ref();
        let measured = trace.and_then(|t| {
            let ratio = exa_obs::imbalance_ratio(&t.kernel_profile().rank_totals());
            (ratio > 0.0).then_some(ratio)
        });
        let heartbeats = self
            .health_out
            .as_ref()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .map(|s| s.lines().filter(|l| !l.trim().is_empty()).count() as u64)
            .unwrap_or(0);
        HealthReport {
            sentinel_cadence: self.verify_replicas,
            sentinel_syncs: out.sentinel_syncs,
            measured_imbalance: measured,
            heartbeats,
            repeat_ratio: Some(out.work.repeat_ratio()),
            critical_path: trace
                .and_then(RunTrace::critical_path)
                .map(|cp| cp.summary()),
            ..out.health.clone()
        }
    }
}

/// Fold a finished run into the process-global metrics registry: one
/// `exa_runs_completed_total{scheme}` tick, plus the trace's total kernel
/// time as `exa_kernel_ns_total{scheme,kernel}` when tracing was on. No-op
/// while the registry is disabled.
fn record_run_metrics(scheme: &str, kernel: KernelKind, trace: Option<&RunTrace>) {
    if !exa_obs::metrics::enabled() {
        return;
    }
    let reg = exa_obs::metrics::global();
    reg.counter(
        "exa_runs_completed_total",
        "Tree-search runs completed, by parallelization scheme.",
        &[("scheme", scheme)],
    )
    .inc();
    if let Some(t) = trace {
        let total: u64 = t.kernel_profile().rank_totals().iter().sum();
        reg.counter(
            "exa_kernel_ns_total",
            "Nanoseconds spent in likelihood kernels, summed over ranks.",
            &[("scheme", scheme), ("kernel", kernel.label())],
        )
        .add(total);
    }
}

/// Record one checkpoint write's wall time into
/// `exa_checkpoint_write_ms{scheme}`. No-op while the registry is disabled.
pub(crate) fn observe_checkpoint_write(scheme: &str, ms: f64) {
    if !exa_obs::metrics::enabled() {
        return;
    }
    exa_obs::metrics::global()
        .histogram(
            "exa_checkpoint_write_ms",
            "Wall-clock milliseconds per checkpoint write (gather + encode + fsync + rename).",
            &[("scheme", scheme)],
        )
        .observe(ms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_search::KillSpec;

    /// The reason `validate` gives for `cfg`, which must be refused.
    fn refusal(cfg: RunConfig) -> &'static str {
        cfg.validate()
            .expect_err("the configuration must be refused")
    }

    fn kill(rank: Option<usize>) -> Faults {
        let kill = Some(KillSpec {
            after_checkpoints: 1,
            rank,
        });
        Faults {
            kill,
            ..Faults::none()
        }
    }

    /// `RunConfig::new(2)` with a reproducible 4 → 2 resize plan.
    fn resized() -> RunConfig {
        let cfg = RunConfig::new(2).reduce(ReduceChoice::Reproducible);
        cfg.resize_at(1, 4).resize_at(2, 2)
    }

    #[test]
    fn validate_refuses_a_world_without_ranks() {
        assert!(RunConfig::new(1).validate().is_ok());
        assert!(refusal(RunConfig::new(0)).contains("at least one rank"));
        assert!(refusal(resized().resize_at(3, 0)).contains("at least one rank"));
    }

    #[test]
    fn validate_asks_the_faults_about_the_planned_world() {
        // `Faults::validate`'s own tests cover each of its arms; here the
        // world it is asked about is the widest the resize plan reaches.
        let victim = |cfg: RunConfig| cfg.checkpoint("ckpt", 1).faults(kill(Some(3)));
        assert!(refusal(victim(RunConfig::new(2))).contains("outside the world"));
        assert!(victim(resized()).validate().is_ok());
        let fj = RunConfig::new(2).scheme(Scheme::ForkJoin);
        assert!(refusal(victim(fj)).contains("outside the world"));
    }

    #[test]
    fn validate_refuses_a_kill_without_checkpoints() {
        assert!(refusal(RunConfig::new(2).faults(kill(None))).contains("--checkpoint-out"));
    }

    #[test]
    fn validate_refuses_bootstrap_under_fork_join() {
        let fj = RunConfig::new(2).scheme(Scheme::ForkJoin);
        assert!(refusal(fj.bootstrap(2, 1)).contains("--bootstrap"));
        assert!(RunConfig::new(2).bootstrap(2, 1).validate().is_ok());
    }

    #[test]
    fn validate_refuses_a_resize_under_fork_join() {
        // The command line cannot choose fork-join; a library caller can.
        let fj = resized().scheme(Scheme::ForkJoin);
        assert!(refusal(fj).contains("de-centralized"));
    }

    #[test]
    fn validate_refuses_a_resize_under_fast_sums() {
        assert!(resized().validate().is_ok());
        assert!(resized().reduce(ReduceChoice::Auto).validate().is_ok());
        let fast = resized().reduce(ReduceChoice::Fast);
        assert!(refusal(fast).contains("--reduce reproducible"));
    }
}

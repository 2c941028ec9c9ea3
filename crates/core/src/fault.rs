//! Fault tolerance (§V of the paper).
//!
//! "Unlike for the fork-join approach where a failure of the master process
//! would be catastrophic, ExaML offers maximum state redundancy. When one
//! or more cores fail, the data will merely have to be re-distributed to
//! the remaining processes/cores such that computations can continue."
//!
//! That is exactly what happens here. Failures are only observable at
//! collective operations; the aborted collective unwinds (as a
//! [`CommFailurePanic`]) to the search driver's iteration boundary, where
//! these hooks:
//!
//! 1. acknowledge the failure ([`exa_comm::Rank::recover`]),
//! 2. recompute the data distribution over the survivors and rebuild the
//!    local engine from the (shared) alignment — the analogue of re-reading
//!    the binary alignment file,
//! 3. restore the replicated [`GlobalState`] snapshot taken at the last
//!    boundary, and retry the iteration.
//!
//! Because every rank already holds the complete search state, no state is
//! lost — only the current iteration's partial work is redone.
//!
//! The hooks themselves (`BoundaryHooks`) serve a searching rank of
//! either scheme: what every search does at a boundary — checkpoint cadence
//! and commit, preemption, injected kills — is written once over
//! `SchemeExchange`, and what needs replicas (heartbeats, scripted
//! deaths, elastic resizes and the recovery above) is `Allreduce`'s
//! implementation of that trait, at the bottom of this file.

use crate::checkpoint::{self, Checkpoint, CheckpointHeader, CheckpointPayload};
use crate::scheme::SchemeExchange;
use crate::sentinel::{DivergenceFault, FaultComponent};
use crate::{Allreduce, DecentralizedEvaluator, RunConfig, RunError, Scheme, Stop, WorldContext};
use exa_bio::patterns::CompressedAlignment;
use exa_comm::{CommCategory, Rank};
use exa_obs::{imbalance_ratio, HeartbeatRecord};
use exa_phylo::model::rates::RateModelKind;
use exa_search::evaluator::{
    CommFailurePanic, Evaluator, ExchangeEvaluator, GlobalState, SearchSnapshot,
};
use exa_search::{BoundaryInfo, KillSpec, SearchHooks};
use std::fs::OpenOptions;
use std::io::Write;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Every test fault a run injects, as one value. Like the `preempt`
/// handle it is process-local: a [`RunConfig`] serializes it as `null` and
/// deserializes it as [`Faults::none`], so no journaled or submitted job
/// can carry a fault.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Faults {
    /// Die after this many committed checkpoints — every rank, or one
    /// (`kill:N[:RANK]`; requires `checkpoint_out`).
    pub kill: Option<KillSpec>,
    /// Scripted rank deaths for §V recovery (library only).
    pub plan: FaultPlan,
    /// Flip one state bit on one rank mid-search
    /// (`diverge:RANK:COLLECTIVE:alpha|blen`; caught by `verify_replicas`).
    pub divergence: Option<DivergenceFault>,
}

/// The `--inject` grammar, as `--help` and an error message name it.
pub(crate) const INJECT_SPEC: &str = "kill:N[:RANK] or diverge:RANK:COLLECTIVE:alpha|blen";

impl Faults {
    /// No faults.
    pub fn none() -> Faults {
        Faults::default()
    }

    /// Add the fault one `--inject` spec describes (a later spec of the
    /// same kind replaces an earlier one).
    pub fn inject(&mut self, spec: &str) -> Result<(), &'static str> {
        let (kind, value) = spec.split_once(':').ok_or(INJECT_SPEC)?;
        match kind {
            "kill" => self.kill = Some(kill(value).ok_or("kill:N[:RANK]")?),
            "diverge" => {
                let fault = divergence(value).ok_or("diverge:RANK:COLLECTIVE:alpha|blen")?;
                self.divergence = Some(fault);
            }
            _ => return Err("a fault kind: kill or diverge"),
        }
        Ok(())
    }

    /// Whether a world of `world_size` ranks under `scheme` can deliver
    /// these faults: every named rank exists, and under fork-join — no
    /// replicas, and only the master runs boundary hooks — a kill targets
    /// the master and nothing diverges or dies on a script.
    pub fn validate(&self, world_size: usize, scheme: Scheme) -> Result<(), &'static str> {
        let victim = self.kill.and_then(|k| k.rank);
        if victim.is_some_and(|r| r >= world_size) {
            return Err("--inject kill:N:RANK names a rank outside the world");
        }
        if self.divergence.is_some_and(|d| d.rank >= world_size) {
            return Err("--inject diverge:RANK:… names a rank outside the world");
        }
        if self.plan.failures.iter().any(|&(r, _)| r >= world_size) {
            return Err("the fault plan kills a rank outside the world");
        }
        if scheme == Scheme::Decentralized {
            return Ok(());
        }
        if victim.is_some_and(|r| r != 0) {
            return Err(
                "fork-join kill injection targets the master (rank 0); worker ranks \
                        run no boundary hooks",
            );
        }
        if self.divergence.is_some() || !self.plan.failures.is_empty() {
            return Err("fork-join has no replicas to corrupt or to recover with");
        }
        Ok(())
    }
}

impl serde::Serialize for Faults {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl serde::Deserialize for Faults {
    fn from_value(_v: &serde::Value) -> Result<Faults, serde::DeError> {
        Ok(Faults::none())
    }
}

/// `N` or `N:RANK`.
fn kill(spec: &str) -> Option<KillSpec> {
    let (after, rank) = match spec.split_once(':') {
        Some((after, rank)) => (after, Some(rank.parse().ok()?)),
        None => (spec, None),
    };
    Some(KillSpec {
        after_checkpoints: after.parse().ok()?,
        rank,
    })
}

/// `RANK:COLLECTIVE:alpha|blen`.
fn divergence(spec: &str) -> Option<DivergenceFault> {
    let mut parts = spec.splitn(3, ':');
    Some(DivergenceFault {
        rank: parts.next()?.parse().ok()?,
        after_collectives: parts.next()?.parse().ok()?,
        component: FaultComponent::parse(parts.next()?)?,
    })
}

/// A scripted set of rank failures, for tests and examples: rank `r` dies
/// at the boundary of iteration `i`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub failures: Vec<(usize, usize)>,
}

impl FaultPlan {
    /// No failures.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Kill `rank` at iteration `iteration`.
    pub fn kill(rank: usize, iteration: usize) -> FaultPlan {
        FaultPlan {
            failures: vec![(rank, iteration)],
        }
    }

    /// Add another scripted failure.
    pub fn and_kill(mut self, rank: usize, iteration: usize) -> FaultPlan {
        self.failures.push((rank, iteration));
        self
    }

    /// Does the plan ever kill `rank`?
    pub fn kills(&self, rank: usize) -> bool {
        self.failures.iter().any(|&(r, _)| r == rank)
    }

    fn fires(&self, rank: usize, iteration: usize) -> bool {
        self.failures.contains(&(rank, iteration))
    }
}

/// Per-rank heartbeat state, active only when `health_out` is configured.
/// The file itself belongs to the run, not to a rank: the driver truncates
/// it once before the world starts (fresh runs only) and whichever rank is
/// the writer at a boundary appends.
struct HealthState {
    path: PathBuf,
    last_instant: Instant,
    last_regions: u64,
}

/// Iteration-boundary hooks of a searching rank under either scheme:
/// checkpoint cadence and commit, preemption, injected kills — and, through
/// [`SchemeExchange`], what only a replicated search adds (heartbeats,
/// scripted faults, resizes, recovery).
pub(crate) struct BoundaryHooks<'a, X> {
    rank: Rank,
    ctx: &'a WorldContext<'a>,
    /// This rank's current data assignment (kept in sync with recoveries;
    /// needed to map local PSR rates to global pattern indices).
    assignment: exa_sched::RankAssignment,
    /// Snapshot at the last iteration boundary: what a checkpoint commits
    /// and where recovery rewinds to.
    snapshot: GlobalState,
    /// Checkpoint generations committed so far. Every searching rank counts
    /// them (the cadence is deterministic) even though only the writer rank
    /// performs the write — this is what aligns an injected kill across the
    /// world.
    checkpoints_written: u64,
    /// Iteration of the last committed checkpoint (heartbeat field).
    last_checkpoint_iter: Option<u64>,
    /// Wall-clock of the last checkpoint write, writer rank only.
    last_checkpoint_ms: Option<f64>,
    /// When the last checkpoint committed (or the run started), for the
    /// `checkpoint_every_secs` time cadence. Rank-local; the per-boundary
    /// due/not-due decision goes through [`SchemeExchange::agree`].
    last_checkpoint_instant: Instant,
    health: Option<HealthState>,
    _exchange: PhantomData<X>,
}

impl<'a, X: SchemeExchange> BoundaryHooks<'a, X> {
    /// Build hooks, snapshotting the evaluator's initial state.
    pub(crate) fn new(
        rank: Rank,
        ctx: &'a WorldContext<'a>,
        assignment: exa_sched::RankAssignment,
        eval: &ExchangeEvaluator<X>,
    ) -> Self {
        let health = ctx.cfg.health_out.clone().map(|path| HealthState {
            path,
            last_instant: Instant::now(),
            last_regions: 0,
        });
        BoundaryHooks {
            rank,
            ctx,
            assignment,
            snapshot: eval.snapshot(),
            checkpoints_written: 0,
            last_checkpoint_iter: None,
            last_checkpoint_ms: None,
            last_checkpoint_instant: Instant::now(),
            health,
            _exchange: PhantomData,
        }
    }

    /// Checkpoint generations committed so far (world-level count).
    pub(crate) fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// Files belong to the run, not to a rank: whichever rank is the
    /// lowest active one at a boundary writes — the master, in a fork-join
    /// world, whose ranks never fail.
    fn is_writer(&self) -> bool {
        self.rank.active_ranks().first() == Some(&self.rank.id())
    }

    /// The per-boundary preemption / time-cadence decision. Both signals
    /// are inherently rank-local (a `PreemptSignal` flips asynchronously,
    /// wall clocks drift), so where several ranks search, acting on a local
    /// read would let them take different paths at the same boundary and
    /// deadlock the collectives: the exchange turns the local bits into the
    /// world's. Only consulted when either feature is configured, so plain
    /// runs pay nothing. Returns `(preempt, time_due)`.
    fn boundary_agreement(&self, exchange: &X) -> (bool, bool) {
        let cfg = self.ctx.cfg;
        let time_cadence = cfg
            .checkpoint_every_secs
            .filter(|_| cfg.checkpoint_out.is_some());
        if cfg.preempt.is_none() && time_cadence.is_none() {
            return (false, false);
        }
        let mut bits = 0u8;
        if cfg.preempt.as_ref().is_some_and(|p| p.is_requested()) {
            bits |= 1;
        }
        if time_cadence
            .is_some_and(|secs| self.last_checkpoint_instant.elapsed().as_secs_f64() >= secs)
        {
            bits |= 2;
        }
        let all = exchange.agree(bits).unwrap_or(0);
        (all & 1 != 0, all & 2 != 0)
    }

    /// Commit a checkpoint generation if one is due at this boundary —
    /// on the iteration cadence, or forced (time cadence / preemption).
    /// Every searching rank joins the PSR rate gather (the cadence is
    /// deterministic and `force` is agreed, so the collective stays
    /// aligned); only the writer rank writes the file.
    fn maybe_checkpoint(
        &mut self,
        eval: &mut ExchangeEvaluator<X>,
        info: &BoundaryInfo,
        force: bool,
    ) -> Result<(), Stop> {
        let cfg = self.ctx.cfg;
        let Some(dir) = &cfg.checkpoint_out else {
            return Ok(());
        };
        let every = cfg.checkpoint_every;
        let on_cadence = every > 0 && info.iteration.is_multiple_of(every);
        if !on_cadence && !force {
            return Ok(());
        }
        let Some(psr_rates) = X::gather_site_rates(eval, self.ctx.aln, &self.assignment) else {
            return Ok(());
        };
        self.checkpoints_written += 1;
        self.last_checkpoint_iter = Some(info.iteration as u64);
        self.last_checkpoint_instant = Instant::now();
        // Every searching rank marks the committed generation (identically
        // — trace event sequences stay comparable across replicas).
        exa_obs::mark(|| format!("{}{}", exa_obs::CHECKPOINT_MARK, info.iteration));
        if !self.is_writer() {
            return Ok(());
        }
        let t0 = Instant::now();
        let snapshot = SearchSnapshot {
            iteration: info.iteration,
            lnl_bits: info.lnl.to_bits(),
            spr_moves: info.spr_moves,
            state: self.snapshot.clone(),
            psr_rates,
        };
        let ckpt = Checkpoint::build(
            CheckpointHeader::new(cfg, self.ctx.aln, X::LABEL, &self.ctx.modes),
            CheckpointPayload {
                snapshot,
                bootstrap: None,
            },
        );
        if let Err(e) = checkpoint::save_generation_keeping(dir, &ckpt, cfg.checkpoint_keep) {
            // The run fails with the error instead of searching on
            // unprotected — and the peers must learn that, not wait.
            return Err(self.leave_alone(eval.exchange_mut(), RunError::Checkpoint(e)));
        }
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.last_checkpoint_ms = Some(elapsed_ms);
        crate::run::observe_checkpoint_write(X::LABEL, elapsed_ms);
        Ok(())
    }

    /// Stop the search with `error` while the peers carry on: flag the
    /// world as aborting (a peer that sees this rank gone must end its run
    /// too, not heal around it) and release them.
    fn leave_alone(&self, exchange: &mut X, error: RunError) -> Stop {
        self.ctx.aborting.store(true, Ordering::SeqCst);
        exchange.leave(true);
        Stop::Run(error)
    }

    /// Fire the injected kill once the configured number of checkpoints
    /// has been committed. Every searching rank evaluates the same
    /// deterministic condition: with no victim rank all of them die here;
    /// with a victim, that rank leaves alone and the others abort at their
    /// next collective.
    fn maybe_kill(&self, exchange: &mut X, info: &BoundaryInfo) -> Result<(), Stop> {
        let Some(kill) = self.ctx.cfg.faults.kill else {
            return Ok(());
        };
        if self.checkpoints_written < kill.after_checkpoints {
            return Ok(());
        }
        let killed = RunError::Killed {
            after_checkpoints: kill.after_checkpoints,
            iteration: info.iteration,
        };
        match kill.rank {
            None => {
                exchange.leave(false);
                Err(Stop::Run(killed))
            }
            Some(victim) if victim == self.rank.id() => Err(self.leave_alone(exchange, killed)),
            Some(_) => Ok(()),
        }
    }
}

impl<X: SchemeExchange> SearchHooks for BoundaryHooks<'_, X> {
    type Stop = Stop;

    fn at_boundary(&mut self, eval: &mut dyn Evaluator, info: &BoundaryInfo) -> Result<(), Stop> {
        let eval = typed::<X>(eval);
        self.snapshot = eval.snapshot();

        // Settle the asynchronous signals (preemption request, wall-clock
        // checkpoint cadence) before acting on either.
        let (preempt, time_due) = self.boundary_agreement(eval.exchange());

        // A preemption forces a final generation at this boundary so no
        // work is lost.
        self.maybe_checkpoint(eval, info, preempt || time_due)?;

        X::heartbeat(self, eval, info);

        if preempt {
            eval.exchange_mut().leave(false);
            exa_obs::mark(|| format!("preempt:{}", info.iteration));
            return Err(Stop::Run(RunError::Preempted {
                iteration: info.iteration,
                checkpoints: self.checkpoints_written,
            }));
        }

        // Injected kill (checkpoint/restart chaos testing), then what is
        // planned for this boundary, after its checkpoint and heartbeat
        // captured the state before it.
        self.maybe_kill(eval.exchange_mut(), info)?;
        X::planned_events(self, eval, info)
    }

    fn on_failure(&mut self, eval: &mut dyn Evaluator, _failure: &CommFailurePanic) -> bool {
        // A comm failure in an aborting world is the abort propagating (an
        // injected kill's victim, a checkpoint writer that could not
        // write): end the run instead of healing, so the restart harness
        // exercises the checkpoint path rather than §V recovery.
        !self.ctx.aborting.load(Ordering::SeqCst) && X::recover(self, typed::<X>(eval))
    }
}

/// The evaluator the driver built these hooks for.
fn typed<X: SchemeExchange>(eval: &mut dyn Evaluator) -> &mut ExchangeEvaluator<X> {
    eval.as_any_mut()
        .downcast_mut()
        .expect("boundary hooks run under the evaluator their driver built")
}

/// De-centralized: every rank searches, so every step that reads something
/// rank-local is a collective over the replicas, and the replicated state
/// is what makes heartbeats, scripted faults, elastic resizes and §V
/// recovery possible at all.
impl SchemeExchange for Allreduce {
    const LABEL: &'static str = "decentralized";

    fn connect(rank: Rank, cfg: &RunConfig) -> Allreduce {
        let mut exchange = Allreduce::new(rank);
        exchange.set_sentinel(cfg.verify_replicas, cfg.faults.divergence);
        exchange
    }

    /// This rank's slice of the gathered global rate table goes straight
    /// into its engine (elastic across any rank count, since the table is
    /// complete); every rank restores from the identical parsed payload,
    /// the in-process analogue of ExaML's parallel binary-file read; then a
    /// restart barrier so no rank races ahead into the search while others
    /// are still rebuilding.
    fn install_resume(
        eval: &mut DecentralizedEvaluator,
        snapshot: &SearchSnapshot,
        aln: &CompressedAlignment,
        assignment: &exa_sched::RankAssignment,
    ) {
        if !snapshot.psr_rates.is_empty() {
            exa_sched::apply_site_rates(eval.engine_mut(), assignment, aln, &snapshot.psr_rates);
        }
        eval.restore(&snapshot.state);
        exa_obs::mark(|| format!("resume:{}", snapshot.iteration));
        eval.exchange()
            .rank()
            .barrier(CommCategory::Control)
            .expect("restart barrier cannot proceed after a rank failure");
    }

    /// Sync #1 fires before the search's first collective: the resolved
    /// modes are part of the fingerprint, so a world whose ranks compute
    /// with different modes is refused here, before any of its sums count.
    fn before_search(eval: &mut DecentralizedEvaluator) {
        Allreduce::initial_sentinel_sync(eval);
    }

    fn sentinel_syncs(&self) -> u64 {
        Allreduce::sentinel_syncs(self)
    }

    /// Every rank contributes its bit-mask byte on an allgather and all
    /// adopt the OR.
    fn agree(&self, bits: u8) -> Option<u8> {
        let blobs = self
            .rank()
            .allgather_bytes(vec![bits], CommCategory::Control)
            .ok()?;
        Some(blobs.iter().filter_map(|b| b.first()).fold(0, |a, b| a | b))
    }

    fn gather_site_rates(
        eval: &mut DecentralizedEvaluator,
        aln: &CompressedAlignment,
        assignment: &exa_sched::RankAssignment,
    ) -> Option<Vec<Vec<u64>>> {
        if eval.rate_kind() != RateModelKind::Psr {
            return Some(Vec::new());
        }
        let local = exa_sched::capture_site_rates(eval.engine(), assignment, aln);
        let blob = serde_json::to_vec(&local).expect("PSR rate blob serializes");
        let blobs = eval
            .exchange()
            .rank()
            .allgather_bytes(blob, CommCategory::Control)
            .ok()?;
        let mut parts: Vec<(usize, Vec<usize>, Vec<u64>)> = Vec::new();
        for b in blobs.iter().filter(|b| !b.is_empty()) {
            let v: Vec<(usize, Vec<usize>, Vec<u64>)> =
                serde_json::from_slice(b).expect("PSR rate blob parses");
            parts.extend(v);
        }
        Some(exa_sched::merge_site_rates(aln, parts))
    }

    /// Replicas that leave together need no release; one that leaves alone
    /// fails its communicator so the others' next collective aborts.
    fn leave(&mut self, alone: bool) {
        if alone {
            self.rank().fail();
        }
    }

    /// Emit one heartbeat record. Every active rank joins the kernel-time
    /// allgather (the same `cfg` enables heartbeats on all of them, so the
    /// collective stays aligned); only the lowest-id active rank writes.
    fn heartbeat(
        hooks: &mut BoundaryHooks<'_, Allreduce>,
        eval: &mut DecentralizedEvaluator,
        info: &BoundaryInfo,
    ) {
        if hooks.health.is_none() {
            return;
        }
        // Exchange cumulative measured kernel time so the writer can report
        // the live (measured, not modeled) load-imbalance ratio.
        let kernel_ns = eval.engine().work().kernel_ns;
        let gathered = hooks
            .rank
            .allgather_bytes(kernel_ns.to_le_bytes().to_vec(), CommCategory::Control);
        let Ok(blobs) = gathered else {
            // A rank failed mid-heartbeat: skip this record; recovery runs
            // at the driver level and the next boundary tries again.
            return;
        };
        let per_rank: Vec<u64> = blobs
            .iter()
            .filter(|b| b.len() == 8)
            .map(|b| u64::from_le_bytes(b[..8].try_into().unwrap()))
            .collect();
        if !hooks.is_writer() {
            return;
        }
        let health = hooks.health.as_mut().expect("checked on entry");
        let stats = hooks.rank.stats();
        let now = Instant::now();
        let dt = now.duration_since(health.last_instant).as_secs_f64();
        let regions = stats.total_regions();
        let collectives_per_sec = if dt > 0.0 {
            regions.saturating_sub(health.last_regions) as f64 / dt
        } else {
            0.0
        };
        health.last_instant = now;
        health.last_regions = regions;
        let work = eval.engine().work();
        let rec = HeartbeatRecord {
            iteration: info.iteration as u64,
            lnl: info.lnl,
            spr_accepts: info.spr_moves as u64,
            collectives_per_sec,
            comm_bytes: stats.total_bytes(),
            imbalance: imbalance_ratio(&per_rank),
            sentinel_syncs: eval.exchange().sentinel_syncs(),
            divergence: "ok".to_string(),
            repeat_ratio: Some(work.repeat_ratio()),
            clv_saved: Some(work.clv_saved),
            last_checkpoint_iter: hooks.last_checkpoint_iter,
            checkpoint_write_ms: hooks.last_checkpoint_ms,
            modes: Some(hooks.ctx.modes.label_map()),
        };
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(&health.path)
            .and_then(|mut f| writeln!(f, "{}", rec.to_json_line()))
            .expect("heartbeat write failed");
    }

    /// Scripted death (fault-injection testing of §V), then the elastic-
    /// resize plan, if an entry fires at this boundary: recompute the data
    /// distribution at the new width (padded with empty assignments up to
    /// the fixed comm world) and rebuild the local engine from the shared
    /// alignment — the same redistribution mechanics as §V failure
    /// recovery, but planned, collective-free (every rank derives the
    /// identical step from the shared config) and without losing any work.
    /// PSR per-site rates are data-local and reset, exactly like recovery;
    /// the next model-optimization round re-fits them.
    fn planned_events(
        hooks: &mut BoundaryHooks<'_, Allreduce>,
        eval: &mut DecentralizedEvaluator,
        info: &BoundaryInfo,
    ) -> Result<(), Stop> {
        let cfg = hooks.ctx.cfg;
        if cfg.faults.plan.fires(hooks.rank.id(), info.iteration) {
            // The peers find this rank gone at their next collective and
            // heal without it (§V).
            hooks.rank.fail();
            return Err(Stop::Died);
        }
        let Some(&(_, width)) = cfg
            .resize_plan
            .iter()
            .find(|&&(iter, _)| iter == info.iteration)
        else {
            return Ok(());
        };
        // Slices go to the live ranks only: after a §V death the ids
        // `0..width` may name a dead rank.
        let active = hooks.rank.active_ranks();
        let assignments =
            exa_sched::distribute(hooks.ctx.aln, width.min(active.len()), cfg.strategy);
        hooks.assignment = active
            .iter()
            .position(|&r| r == hooks.rank.id())
            .and_then(|i| assignments.get(i).cloned())
            .unwrap_or_default();
        eval.replace_engine(hooks.ctx.build_engine(&hooks.assignment));
        // Stamped on every rank — trace event sequences stay comparable.
        exa_obs::mark(|| format!("resize:{}:{width}", info.iteration));
        Ok(())
    }

    /// §V recovery.
    fn recover(
        hooks: &mut BoundaryHooks<'_, Allreduce>,
        eval: &mut DecentralizedEvaluator,
    ) -> bool {
        // 1. Acknowledge and learn the surviving rank set.
        let (_failed, survivors) = hooks.rank.recover();
        let my_index = survivors
            .iter()
            .position(|&r| r == hooks.rank.id())
            .expect("a failed rank cannot recover");

        // 2. Redistribute: recompute the assignment over the survivors and
        //    rebuild the local engine from the shared alignment, under the
        //    world's modes.
        let assignments =
            exa_sched::distribute(hooks.ctx.aln, survivors.len(), hooks.ctx.cfg.strategy);
        hooks.assignment = assignments[my_index].clone();
        eval.replace_engine(hooks.ctx.build_engine(&hooks.assignment));

        // 3. Rewind to the last consistent boundary and retry.
        eval.restore(&hooks.snapshot);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injected(specs: &[&str]) -> Faults {
        let mut faults = Faults::none();
        for spec in specs {
            faults
                .inject(spec)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
        }
        faults
    }

    #[test]
    fn faults_never_leave_the_process() {
        let cfg = RunConfig::new(2).faults(injected(&["kill:1:1", "diverge:1:5:blen"]));
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains(r#""faults":null"#), "{json}");
        let back: RunConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.faults, Faults::none());
    }

    #[test]
    fn validate_refuses_faults_the_world_cannot_deliver() {
        let ok = |f: &Faults, world, scheme| f.validate(world, scheme).is_ok();
        use Scheme::{Decentralized as Dec, ForkJoin as Fj};
        assert!(ok(&Faults::none(), 1, Dec) && ok(&Faults::none(), 1, Fj));
        // Ranks must exist.
        assert!(ok(&injected(&["kill:1:3"]), 4, Dec));
        assert!(!ok(&injected(&["kill:1:4"]), 4, Dec));
        assert!(!ok(&injected(&["diverge:4:1:alpha"]), 4, Dec));
        let plan = Faults {
            plan: FaultPlan::kill(1, 1).and_kill(4, 2),
            ..Faults::none()
        };
        assert!(!ok(&plan, 4, Dec));
        // Fork-join: only the master runs boundary hooks, and nothing is
        // replicated.
        assert!(ok(&injected(&["kill:1"]), 4, Fj));
        assert!(ok(&injected(&["kill:1:0"]), 4, Fj));
        assert!(!ok(&injected(&["kill:1:1"]), 4, Fj));
        assert!(!ok(&injected(&["diverge:0:1:blen"]), 4, Fj));
        assert!(!ok(
            &Faults {
                plan: FaultPlan::kill(1, 1),
                ..Faults::none()
            },
            4,
            Fj
        ));
    }
}

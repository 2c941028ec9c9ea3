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

use crate::checkpoint::{self, Checkpoint, CheckpointHeader, CheckpointPayload};
use crate::{die_now, DecentralizedEvaluator, WorldContext};
use exa_comm::{CommCategory, Rank};
use exa_obs::{imbalance_ratio, HeartbeatRecord};
use exa_phylo::model::rates::RateModelKind;
use exa_search::evaluator::{CommFailurePanic, Evaluator, GlobalState, SearchSnapshot};
use exa_search::{BoundaryInfo, KillPanic, Modes, PreemptPanic, SearchHooks};
use serde::{Deserialize, Serialize};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// A scripted set of rank failures, for tests, examples and the fault
/// benches: rank `r` dies at the boundary of iteration `i`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// Iteration hooks for a de-centralized rank: checkpointing, heartbeats,
/// scripted faults, recovery.
pub struct DecentralizedHooks<'a> {
    rank: Rank,
    ctx: &'a WorldContext<'a>,
    /// The modes negotiated at startup: stamped into every heartbeat and
    /// checkpoint header, and kept across engine rebuilds.
    modes: Modes,
    /// This rank's current data assignment (kept in sync with recoveries;
    /// needed to map local PSR rates to global pattern indices).
    assignment: exa_sched::RankAssignment,
    /// Snapshot at the last iteration boundary (the recovery point).
    snapshot: GlobalState,
    snapshot_iteration: usize,
    snapshot_lnl: f64,
    /// Recoveries performed (observability for tests).
    pub recoveries: usize,
    /// Planned elastic resizes executed (observability for tests).
    pub resizes: usize,
    /// Checkpoint generations committed so far. Every rank counts them
    /// (the cadence is deterministic) even though only the writer rank
    /// performs the write — this is what aligns `--inject-kill` across the
    /// world.
    checkpoints_written: u64,
    /// Iteration of the last committed checkpoint (heartbeat field).
    last_checkpoint_iter: Option<u64>,
    /// Wall-clock of the last checkpoint write, writer rank only.
    last_checkpoint_ms: Option<f64>,
    /// When the last checkpoint committed (or the run started), for the
    /// `checkpoint_every_secs` time cadence. Rank-local; the per-boundary
    /// due/not-due decision is made collectively so the ranks stay aligned.
    last_checkpoint_instant: Instant,
    /// Set once an injected kill has fired anywhere in the world:
    /// `(after_checkpoints, iteration)`. Disables recovery — a killed run
    /// must abort, not heal.
    kill_event: Option<(u64, usize)>,
    health: Option<HealthState>,
}

impl<'a> DecentralizedHooks<'a> {
    /// Build hooks, snapshotting the evaluator's initial state.
    pub(crate) fn new(
        rank: Rank,
        ctx: &'a WorldContext<'a>,
        modes: Modes,
        assignment: exa_sched::RankAssignment,
        eval: &DecentralizedEvaluator,
    ) -> DecentralizedHooks<'a> {
        let health = ctx.cfg.health_out.clone().map(|path| HealthState {
            path,
            last_instant: Instant::now(),
            last_regions: 0,
        });
        DecentralizedHooks {
            rank,
            ctx,
            modes,
            assignment,
            snapshot: eval.snapshot(),
            snapshot_iteration: 0,
            snapshot_lnl: f64::NEG_INFINITY,
            recoveries: 0,
            resizes: 0,
            checkpoints_written: 0,
            last_checkpoint_iter: None,
            last_checkpoint_ms: None,
            last_checkpoint_instant: Instant::now(),
            kill_event: None,
            health,
        }
    }

    /// Checkpoint generations committed so far (world-level count).
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// The injected kill that fired, if any: `(after_checkpoints,
    /// iteration)`.
    pub fn kill_event(&self) -> Option<(u64, usize)> {
        self.kill_event
    }

    /// The per-boundary preemption / time-cadence agreement. Both signals
    /// are inherently rank-local (a `PreemptSignal` flips asynchronously,
    /// wall clocks drift), so acting on a local read would let ranks take
    /// different paths at the same boundary and deadlock the collectives.
    /// Instead every rank contributes one bit-mask byte on an allgather
    /// (bit 0 = preempt requested, bit 1 = time cadence due) and all adopt
    /// the OR — the same minimum-capability pattern as kernel negotiation.
    /// The collective only runs when either feature is configured, so plain
    /// runs pay nothing. Returns `(preempt, time_due)`.
    fn boundary_agreement(&mut self) -> (bool, bool) {
        let cfg = self.ctx.cfg;
        let preempt_armed = cfg.preempt.is_some();
        let time_armed = cfg.checkpoint_every_secs.is_some() && cfg.checkpoint_out.is_some();
        if !preempt_armed && !time_armed {
            return (false, false);
        }
        let mut bits = 0u8;
        if cfg.preempt.as_ref().is_some_and(|p| p.is_requested()) {
            bits |= 1;
        }
        if let Some(secs) = cfg.checkpoint_every_secs {
            if cfg.checkpoint_out.is_some()
                && self.last_checkpoint_instant.elapsed().as_secs_f64() >= secs
            {
                bits |= 2;
            }
        }
        let Ok(blobs) = self.rank.allgather_bytes(vec![bits], CommCategory::Control) else {
            // A rank failed mid-gather: skip both signals this boundary;
            // recovery runs at the driver level and the next boundary
            // re-agrees.
            return (false, false);
        };
        let all = blobs
            .iter()
            .filter_map(|b| b.first().copied())
            .fold(0u8, |a, b| a | b);
        (all & 1 != 0, all & 2 != 0)
    }

    /// Commit a checkpoint generation if one is due at this boundary —
    /// on the iteration cadence, or forced (time cadence / preemption).
    /// Under PSR, *every* active rank joins the rate allgather (the cadence
    /// is deterministic and `force` is collectively agreed, so the
    /// collective stays aligned); only the lowest-id active rank writes
    /// the file.
    fn maybe_checkpoint(&mut self, eval: &mut dyn Evaluator, info: &BoundaryInfo, force: bool) {
        let cfg = self.ctx.cfg;
        let Some(dir) = cfg.checkpoint_out.clone() else {
            return;
        };
        let every = cfg.checkpoint_every;
        let on_cadence = every > 0 && info.iteration.is_multiple_of(every);
        if !on_cadence && !force {
            return;
        }
        let de = eval
            .as_any_mut()
            .downcast_mut::<DecentralizedEvaluator>()
            .expect("de-centralized hooks require the de-centralized evaluator");
        let psr_rates = if cfg.rate_model == RateModelKind::Psr {
            let local = exa_sched::capture_site_rates(de.engine(), &self.assignment, self.ctx.aln);
            let blob = serde_json::to_vec(&local).expect("PSR rate blob serializes");
            let Ok(blobs) = de
                .exchange()
                .rank()
                .allgather_bytes(blob, CommCategory::Control)
            else {
                // A rank failed mid-gather: skip this generation; recovery
                // runs at the driver level and the next boundary retries.
                return;
            };
            let mut parts: Vec<(usize, Vec<usize>, Vec<u64>)> = Vec::new();
            for b in blobs.iter().filter(|b| !b.is_empty()) {
                let v: Vec<(usize, Vec<usize>, Vec<u64>)> =
                    serde_json::from_slice(b).expect("PSR rate blob parses");
                parts.extend(v);
            }
            exa_sched::merge_site_rates(self.ctx.aln, parts)
        } else {
            Vec::new()
        };
        self.checkpoints_written += 1;
        self.last_checkpoint_iter = Some(info.iteration as u64);
        self.last_checkpoint_instant = Instant::now();
        // All ranks mark the committed generation (identically — trace
        // event sequences stay comparable across ranks).
        exa_obs::mark(|| format!("{}{}", exa_obs::CHECKPOINT_MARK, info.iteration));
        if self.rank.active_ranks().first() != Some(&self.rank.id()) {
            return;
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
            CheckpointHeader::new(cfg, self.ctx.aln, "decentralized", &self.modes),
            CheckpointPayload {
                snapshot,
                bootstrap: None,
            },
        );
        checkpoint::save_generation_keeping(&dir, &ckpt, cfg.checkpoint_keep)
            .expect("checkpoint write failed");
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.last_checkpoint_ms = Some(elapsed_ms);
        crate::run::observe_checkpoint_write("decentralized", elapsed_ms);
    }

    /// Execute the elastic-resize plan at this boundary, if an entry fires:
    /// recompute the data distribution at the new width (padded with empty
    /// assignments up to the fixed comm world) and rebuild the local engine
    /// from the shared alignment — the same redistribution mechanics as §V
    /// failure recovery, but planned, collective-free (every rank derives
    /// the identical step from the shared config) and without losing any
    /// work. PSR per-site rates are data-local and reset, exactly like
    /// recovery; the next model-optimization round re-fits them.
    fn maybe_resize(&mut self, eval: &mut dyn Evaluator, info: &BoundaryInfo) {
        let cfg = self.ctx.cfg;
        let Some(&(_, width)) = cfg
            .resize_plan
            .iter()
            .find(|&&(iter, _)| iter == info.iteration)
        else {
            return;
        };
        let world = self.rank.world_size();
        let assignments = crate::padded_assignments(self.ctx.aln, width, world, cfg.strategy);
        self.assignment = assignments[self.rank.id()].clone();
        let de = eval
            .as_any_mut()
            .downcast_mut::<DecentralizedEvaluator>()
            .expect("de-centralized hooks require the de-centralized evaluator");
        de.replace_engine(self.ctx.build_engine(&self.assignment, &self.modes));
        self.resizes += 1;
        // Stamped on every rank — trace event sequences stay comparable.
        exa_obs::mark(|| format!("resize:{}:{width}", info.iteration));
    }

    /// Fire the injected kill once the configured number of checkpoints
    /// has been committed. All ranks evaluate the same deterministic
    /// condition: with no victim rank every rank dies here; with a victim,
    /// that rank fails its communicator and dies while the others record
    /// the event (so recovery is disabled) and abort at their next
    /// collective.
    fn maybe_kill(&mut self, info: &BoundaryInfo) {
        let Some(kill) = self.ctx.cfg.inject_kill else {
            return;
        };
        if self.kill_event.is_some() || self.checkpoints_written < kill.after_checkpoints {
            return;
        }
        self.kill_event = Some((kill.after_checkpoints, info.iteration));
        let payload = KillPanic {
            after_checkpoints: kill.after_checkpoints,
            iteration: info.iteration,
        };
        match kill.rank {
            None => std::panic::panic_any(payload),
            Some(victim) if victim == self.rank.id() => {
                self.rank.fail();
                std::panic::panic_any(payload);
            }
            Some(_) => {
                // Survivor of a targeted kill: the victim's failure surfaces
                // at our next collective; `on_failure` sees the kill event
                // and aborts instead of recovering.
            }
        }
    }

    /// Emit one heartbeat record. Every active rank joins the kernel-time
    /// allgather (the same `cfg` enables heartbeats on all of them, so the
    /// collective stays aligned); only the lowest-id active rank writes.
    fn heartbeat(&mut self, eval: &mut dyn Evaluator, info: &BoundaryInfo) {
        let Some(health) = self.health.as_mut() else {
            return;
        };
        let de = eval
            .as_any_mut()
            .downcast_mut::<DecentralizedEvaluator>()
            .expect("de-centralized hooks require the de-centralized evaluator");
        // Exchange cumulative measured kernel time so the writer can report
        // the live (measured, not modeled) load-imbalance ratio.
        let kernel_ns = de.engine().work().kernel_ns;
        let gathered = de
            .exchange()
            .rank()
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
        // With no master, the lowest-id active rank writes (same rule as
        // checkpoints).
        if self.rank.active_ranks().first() != Some(&self.rank.id()) {
            return;
        }
        let stats = self.rank.stats();
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
        let work = de.engine().work();
        let rec = HeartbeatRecord {
            iteration: info.iteration as u64,
            lnl: info.lnl,
            spr_accepts: info.spr_moves as u64,
            collectives_per_sec,
            comm_bytes: stats.total_bytes(),
            imbalance: imbalance_ratio(&per_rank),
            sentinel_syncs: de.exchange().sentinel_syncs(),
            divergence: "ok".to_string(),
            kernel: Some(self.modes.kernel.label().to_string()),
            repeat_ratio: Some(work.repeat_ratio()),
            clv_saved: Some(work.clv_saved),
            last_checkpoint_iter: self.last_checkpoint_iter,
            checkpoint_write_ms: self.last_checkpoint_ms,
            reduce: Some(self.modes.reduce.label().to_string()),
            threads: Some(self.modes.threads.get() as u64),
            gradient: Some(self.modes.gradient.label().to_string()),
        };
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(&health.path)
            .and_then(|mut f| writeln!(f, "{}", rec.to_json_line()))
            .expect("heartbeat write failed");
    }
}

impl SearchHooks for DecentralizedHooks<'_> {
    fn at_boundary(&mut self, eval: &mut dyn Evaluator, info: &BoundaryInfo) {
        self.snapshot = eval.snapshot();
        self.snapshot_iteration = info.iteration;
        self.snapshot_lnl = info.lnl;

        // Agree collectively on asynchronous signals (preemption request,
        // wall-clock checkpoint cadence) before acting on either.
        let (preempt, time_due) = self.boundary_agreement();

        // Checkpoint: with no master, the lowest-id active rank writes. A
        // preemption forces a final generation at this boundary so no work
        // is lost.
        self.maybe_checkpoint(eval, info, preempt || time_due);

        self.heartbeat(eval, info);

        if preempt {
            exa_obs::mark(|| format!("preempt:{}", info.iteration));
            std::panic::panic_any(PreemptPanic {
                iteration: info.iteration,
                checkpoints: self.checkpoints_written,
            });
        }

        // Injected kill (checkpoint/restart chaos testing), then scripted
        // death (fault-injection testing of §V).
        self.maybe_kill(info);
        if self
            .ctx
            .cfg
            .fault_plan
            .fires(self.rank.id(), info.iteration)
        {
            die_now(&self.rank);
        }

        // Planned elastic resize, after the boundary's checkpoint and
        // heartbeat captured the pre-resize assignment.
        self.maybe_resize(eval, info);
    }

    fn on_failure(&mut self, eval: &mut dyn Evaluator, _failure: &CommFailurePanic) -> bool {
        // A comm failure after an injected kill is the kill propagating —
        // abort instead of healing, so the restart harness exercises the
        // checkpoint path rather than §V recovery.
        if self.kill_event.is_some() {
            return false;
        }
        // 1. Acknowledge and learn the surviving rank set.
        let (_failed, survivors) = self.rank.recover();
        let my_index = survivors
            .iter()
            .position(|&r| r == self.rank.id())
            .expect("a failed rank cannot recover");

        // 2. Redistribute: recompute the assignment over the survivors and
        //    rebuild the local engine from the shared alignment. The rebuilt
        //    engine keeps the kernel backend negotiated at startup — the
        //    survivors already agreed on it, and re-negotiating here would
        //    require a collective the failed rank can no longer join.
        let assignments =
            exa_sched::distribute(self.ctx.aln, survivors.len(), self.ctx.cfg.strategy);
        self.assignment = assignments[my_index].clone();
        let de = eval
            .as_any_mut()
            .downcast_mut::<DecentralizedEvaluator>()
            .expect("de-centralized hooks require the de-centralized evaluator");
        de.replace_engine(self.ctx.build_engine(&self.assignment, &self.modes));

        // 3. Rewind to the last consistent boundary and retry.
        de.restore(&self.snapshot);
        self.recoveries += 1;
        true
    }
}

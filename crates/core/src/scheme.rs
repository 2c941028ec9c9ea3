//! One driver, two exchanges.
//!
//! The paper runs "exactly the same tree search algorithm" under both
//! parallelization schemes (§III-B); what differs is who talks to whom,
//! which is [`exa_search::exchange::Exchange`]. The world driver in
//! `lib.rs` and the boundary hooks in [`crate::fault`] are therefore written
//! once, generic over the exchange, and the handful of *driver* steps that
//! genuinely differ between the schemes are named here — once — as
//! [`SchemeExchange`]. [`Allreduce`](crate::Allreduce) implements it in
//! [`crate::fault`], next to the replica-only boundary work (heartbeats,
//! scripted faults, §V recovery); [`ToMaster`] implements it below.
//!
//! **`CommStats` neutrality.** Table I and the benchmark's `forkjoin.*`
//! counts are computed from the fork-join `CommStats`, so a step only
//! communicates where its scheme did before the drivers were merged: the
//! fork-join side runs no restart barrier, no agreement allgather and no
//! heartbeat allgather.

use crate::fault::BoundaryHooks;
use crate::{RunConfig, Stop, WorldContext};
use exa_bio::patterns::CompressedAlignment;
use exa_comm::Rank;
use exa_forkjoin::{worker, ToMaster};
use exa_phylo::engine::{Engine, WorkCounters};
use exa_search::evaluator::{Evaluator, ExchangeEvaluator, SearchSnapshot};
use exa_search::exchange::Exchange;
use exa_search::BoundaryInfo;
use std::ops::ControlFlow;

/// The driver-side steps of a run that depend on the scheme. Everything
/// else — data distribution, engine, starting tree, search, checkpoint
/// cadence and commit, kill and preemption, aggregation — is shared.
pub(crate) trait SchemeExchange: Exchange {
    /// The `scheme` of checkpoint headers and `/metrics` labels.
    const LABEL: &'static str;

    /// A rank that executes kernels on command serves here until released
    /// and breaks with its engine's work counters and CLV bytes; a rank
    /// that searches gets its engine back.
    fn serve(
        _rank: &Rank,
        engine: Engine,
        _ctx: &WorldContext<'_>,
    ) -> ControlFlow<(WorkCounters, u64), Engine> {
        ControlFlow::Continue(engine)
    }

    /// A searching rank's end of the exchange.
    fn connect(rank: Rank, cfg: &RunConfig) -> Self;

    /// Install a checkpointed resume point: the data-local PSR rates reach
    /// every engine holding a slice of them, then the replicated state.
    fn install_resume(
        eval: &mut ExchangeEvaluator<Self>,
        snapshot: &SearchSnapshot,
        aln: &CompressedAlignment,
        assignment: &exa_sched::RankAssignment,
    );

    /// Runs inside the search's unwind guard (a sentinel divergence unwinds
    /// out of it), before its first collective.
    fn before_search(_eval: &mut ExchangeEvaluator<Self>) {}

    /// Fingerprint syncs completed (0 where there are no replicas).
    fn sentinel_syncs(&self) -> u64 {
        0
    }

    /// Turn this rank's read of the asynchronous boundary signals (bit 0 =
    /// preemption requested, bit 1 = time cadence due) into the world's
    /// decision. `None`: a rank failed mid-agreement, skip both signals at
    /// this boundary.
    fn agree(&self, bits: u8) -> Option<u8>;

    /// The full `table[partition][pattern]` of PSR rate bits for a
    /// checkpoint (empty under Γ). `None`: a rank failed mid-gather, skip
    /// this generation.
    fn gather_site_rates(
        eval: &mut ExchangeEvaluator<Self>,
        aln: &CompressedAlignment,
        assignment: &exa_sched::RankAssignment,
    ) -> Option<Vec<Vec<u64>>>;

    /// This rank is about to leave the search — finished, or stopped at a
    /// boundary.
    /// `alone`: its peers are not leaving at this same point, so whoever
    /// would wait for it must be released first.
    fn leave(&mut self, alone: bool);

    /// Replica-only boundary work after the checkpoint: the heartbeat.
    fn heartbeat(
        _hooks: &mut BoundaryHooks<'_, Self>,
        _eval: &mut ExchangeEvaluator<Self>,
        _info: &BoundaryInfo,
    ) {
    }

    /// Replica-only boundary work after the kill point: scripted rank
    /// deaths (the stop returned) and planned elastic resizes.
    fn planned_events(
        _hooks: &mut BoundaryHooks<'_, Self>,
        _eval: &mut ExchangeEvaluator<Self>,
        _info: &BoundaryInfo,
    ) -> Result<(), Stop> {
        Ok(())
    }

    /// A peer failed mid-iteration: heal and ask for a retry (`true`), or
    /// let the failure end the run.
    fn recover(_hooks: &mut BoundaryHooks<'_, Self>, _eval: &mut ExchangeEvaluator<Self>) -> bool {
        false
    }
}

/// Fork-join: rank 0 is the master and owns the only search state, so its
/// local reads are authoritative and nothing is agreed on; the workers are
/// tree-agnostic and leave when the master's `Shutdown` releases them. A
/// master failure is catastrophic by design (§III-A), which is the paper's
/// argument against the scheme — there is nothing to heal with.
impl SchemeExchange for ToMaster {
    const LABEL: &'static str = "forkjoin";

    fn serve(
        rank: &Rank,
        engine: Engine,
        ctx: &WorldContext<'_>,
    ) -> ControlFlow<(WorkCounters, u64), Engine> {
        if rank.id() == 0 {
            return ControlFlow::Continue(engine);
        }
        ControlFlow::Break(worker::worker_loop(
            rank.clone(),
            engine,
            ctx.cfg.branch_mode,
            ctx.aln.n_partitions(),
            ctx.modes.reduce,
            &ctx.assignments[rank.id()],
            ctx.aln,
        ))
    }

    fn connect(rank: Rank, _cfg: &RunConfig) -> ToMaster {
        ToMaster::new(rank)
    }

    fn install_resume(
        eval: &mut ExchangeEvaluator<ToMaster>,
        snapshot: &SearchSnapshot,
        aln: &CompressedAlignment,
        assignment: &exa_sched::RankAssignment,
    ) {
        ToMaster::distribute_site_rates(eval, &snapshot.psr_rates, aln, assignment);
        eval.restore(&snapshot.state);
        exa_obs::mark(|| format!("resume:{}", snapshot.iteration));
    }

    fn agree(&self, bits: u8) -> Option<u8> {
        Some(bits)
    }

    fn gather_site_rates(
        eval: &mut ExchangeEvaluator<ToMaster>,
        aln: &CompressedAlignment,
        assignment: &exa_sched::RankAssignment,
    ) -> Option<Vec<Vec<u64>>> {
        Some(ToMaster::collect_site_rates(eval, aln, assignment))
    }

    /// Master death would strand the workers mid-broadcast: they are
    /// released before it leaves, however it leaves (idempotent).
    fn leave(&mut self, _alone: bool) {
        self.shutdown_workers();
    }
}

//! The de-centralized exchange: the search runs *replicated* on every rank;
//! the only communication is the `MPI_Allreduce`-equivalents the paper
//! inserts into the likelihood-evaluation and derivative routines (§III-B),
//! plus a 2-double reduction for PSR rate normalization. Nothing is ever
//! announced — every replica derives the identical traversal descriptor
//! and parameter updates locally, which is the whole point of the scheme.
//! What each rank contributes to those allreduces is laid out once, in
//! [`exa_search::exchange`]; this file owns only the allreduce itself and
//! the replica-divergence sentinel that rides behind it.

use crate::sentinel::{DivergenceFault, FaultComponent, Sentinel};
use exa_comm::{CommCategory, CommError, Rank};
use exa_obs::{ReplicaDivergence, StateFingerprint};
use exa_search::evaluator::{CommFailurePanic, Evaluator, ExchangeEvaluator};
use exa_search::exchange::{Contribution, Exchange};

/// Evaluator back-end for one de-centralized rank.
pub type DecentralizedEvaluator = ExchangeEvaluator<Allreduce>;

/// One rank's end of the de-centralized scheme: its communicator handle and
/// the replica-divergence sentinel (disabled unless configured). Construct
/// the evaluator with
/// `DecentralizedEvaluator::with_exchange(Allreduce::new(rank), tree, engine, …)`.
pub struct Allreduce {
    rank: Rank,
    sentinel: Sentinel,
}

/// Unwrap a collective's result, turning a rank failure into the panic
/// payload `run_search` catches at iteration boundaries.
fn comm_ok<T>(r: Result<T, CommError>) -> T {
    match r {
        Ok(v) => v,
        Err(CommError::RanksFailed(set)) => std::panic::panic_any(CommFailurePanic {
            failed_ranks: set.into_iter().collect(),
        }),
    }
}

impl Allreduce {
    pub fn new(rank: Rank) -> Allreduce {
        Allreduce {
            rank,
            sentinel: Sentinel::disabled(),
        }
    }

    /// The communicator handle.
    pub fn rank(&self) -> &Rank {
        &self.rank
    }

    /// Enable the replica-divergence sentinel: exchange and compare state
    /// fingerprints every `cadence` evaluator collectives (0 disables).
    /// `fault` optionally schedules a single-bit corruption (testing).
    pub fn set_sentinel(&mut self, cadence: u64, fault: Option<DivergenceFault>) {
        self.sentinel = Sentinel {
            cadence,
            collectives: 0,
            syncs: 0,
            fault,
        };
    }

    /// Fingerprint syncs completed so far.
    pub fn sentinel_syncs(&self) -> u64 {
        self.sentinel.syncs
    }

    /// One fingerprint sync at evaluator setup, before the search's first
    /// collective. The modes each rank's engine and evaluator report are
    /// part of the fingerprint, so a world whose ranks compute with
    /// different modes is refused at sync #1 with the sentinel's ordinary
    /// minority-report diagnostic, before any of its sums count. No-op
    /// while disabled.
    pub fn initial_sentinel_sync(eval: &mut DecentralizedEvaluator) {
        if eval.exchange().sentinel.cadence != 0 {
            Self::sync_fingerprints(eval);
        }
    }

    /// The sync body: allgather state fingerprints, compare live replicas,
    /// panic with a [`ReplicaDivergence`] on every rank when a minority
    /// disagrees.
    fn sync_fingerprints(eval: &mut DecentralizedEvaluator) {
        eval.exchange_mut().sentinel.syncs += 1;
        let fp = eval.state_fingerprint();
        let this = eval.exchange();
        let blobs = comm_ok(
            this.rank
                .allgather_bytes(fp.to_bytes().to_vec(), CommCategory::Control),
        );
        // Failed ranks contribute empty slots; compare only live replicas,
        // remembering their true rank ids.
        let mut ids = Vec::new();
        let mut fps = Vec::new();
        for (rank_id, blob) in blobs.iter().enumerate() {
            if let Some(fp) = StateFingerprint::from_bytes(blob) {
                ids.push(rank_id);
                fps.push(fp);
            }
        }
        if let Some((minority, components)) = exa_obs::check_agreement(&fps) {
            let diagnostic = ReplicaDivergence {
                collective_index: this.sentinel.collectives,
                sync_index: this.sentinel.syncs,
                minority_ranks: minority.into_iter().map(|i| ids[i]).collect(),
                components,
            };
            // Every rank computed the identical verdict from the identical
            // allgather result, so every rank panics *here*, simultaneously
            // — no rank is left parked inside a collective and the world
            // unwinds instead of deadlocking.
            std::panic::panic_any(diagnostic);
        }
    }

    /// Apply a scheduled single-bit corruption to this rank's replica.
    fn inject(eval: &mut DecentralizedEvaluator, component: FaultComponent) {
        let flip = |v: f64| f64::from_bits(v.to_bits() ^ 1);
        match component {
            FaultComponent::Alpha if !eval.alphas().is_empty() => {
                let mut a = eval.alphas();
                a[0] = flip(a[0]);
                eval.set_alphas(&a);
            }
            // Under PSR there is no α; corrupt a GTR rate instead (still
            // the ModelParams fingerprint component).
            FaultComponent::Alpha => {
                let mut r = eval.gtr_rate(0);
                r[0] = flip(r[0]);
                eval.set_gtr_rate(0, &r);
            }
            // An LSB mantissa flip preserves the magnitude, so the result
            // stays inside the optimizer's branch-length bounds.
            FaultComponent::BranchLength => {
                let old = eval.tree().edge(0).lengths[0];
                eval.tree_mut().set_length(0, 0, flip(old));
            }
        }
    }
}

impl Exchange for Allreduce {
    fn combine<'a>(&mut self, c: Contribution<'a>) -> &'a [f64] {
        comm_ok(match c.bins {
            None => self.rank.allreduce_sum(c.out, c.category),
            Some(bins) => self
                .rank
                .collective(c.category)
                .allreduce_binned(bins)
                .map(|sums| c.out.copy_from_slice(&sums)),
        });
        c.out
    }

    /// Sentinel hook. Because all replicas execute the identical collective
    /// sequence, their counters advance in lock-step and every rank reaches
    /// a sync at the same point — the fingerprint allgather is itself a
    /// collective and needs this alignment.
    fn after_collective(eval: &mut DecentralizedEvaluator) {
        let this = eval.exchange_mut();
        let sync = this.sentinel.tick();
        if let Some(f) = this.sentinel.due_fault(this.rank.id()) {
            Self::inject(eval, f.component);
        }
        if sync {
            Self::sync_fingerprints(eval);
        }
    }
}

//! Replica-divergence sentinel (run-health layer).
//!
//! The de-centralized scheme (§III-B) is correct only while every rank's
//! search replica stays **bit-identical**: ranks take identical decisions
//! because the allreduced values they branch on are identical. A replica
//! that silently diverges — a memory fault, a non-deterministic library
//! call, a miscompiled kernel — keeps contributing its (now wrong) local
//! likelihood terms to every reduction and the run completes normally with
//! a wrong tree.
//!
//! The sentinel makes this failure mode loud. Every rank counts the
//! evaluator's collectives; at a configurable cadence (`--verify-replicas
//! N`, every N-th collective) it digests its live search state into an
//! [`exa_obs::StateFingerprint`] and exchanges the 32-byte digest on one
//! extra allgather piggybacked right after the regular collective. All
//! ranks see all fingerprints, so all ranks reach the *same* verdict: on
//! any mismatch every rank panics with the identical structured
//! [`exa_obs::ReplicaDivergence`] — simultaneously, after the allgather,
//! so no rank is left parked inside a collective and the world unwinds
//! cleanly instead of deadlocking.
//!
//! [`DivergenceFault`] is the matching fault-injection hook: it flips one
//! bit of one rank's α or branch length when that rank's collective count
//! reaches a threshold, exercising the exact silent-corruption scenario
//! end to end.

/// Which state component an injected fault corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultComponent {
    /// Flip the lowest mantissa bit of partition 0's Γ shape α.
    Alpha,
    /// Flip the lowest mantissa bit of edge 0's first branch length.
    BranchLength,
}

impl FaultComponent {
    /// CLI spelling (`--inject diverge:RANK:COLLECTIVE:alpha|blen`).
    pub fn parse(s: &str) -> Option<FaultComponent> {
        match s {
            "alpha" => Some(FaultComponent::Alpha),
            "blen" => Some(FaultComponent::BranchLength),
            _ => None,
        }
    }
}

/// Scripted single-bit state corruption: on rank `rank`, flip one bit of
/// `component` when the rank's evaluator-collective count reaches
/// `after_collectives`. Mid-search, in-memory — the injected state keeps
/// flowing through subsequent reductions exactly like a real silent fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergenceFault {
    pub rank: usize,
    pub after_collectives: u64,
    pub component: FaultComponent,
}

/// Per-rank sentinel state, embedded in the de-centralized evaluator.
#[derive(Debug, Clone)]
pub(crate) struct Sentinel {
    /// Fingerprint-sync cadence in collectives; 0 disables the sentinel.
    pub cadence: u64,
    /// Evaluator collectives seen so far on this rank.
    pub collectives: u64,
    /// Fingerprint syncs completed.
    pub syncs: u64,
    /// Pending injection (taken once when it fires).
    pub fault: Option<DivergenceFault>,
}

impl Sentinel {
    pub fn disabled() -> Sentinel {
        Sentinel {
            cadence: 0,
            collectives: 0,
            syncs: 0,
            fault: None,
        }
    }

    /// Count one collective. Returns `true` when this collective is a
    /// fingerprint-sync point.
    pub fn tick(&mut self) -> bool {
        if self.cadence == 0 {
            return false;
        }
        self.collectives += 1;
        self.collectives.is_multiple_of(self.cadence)
    }

    /// Take the pending fault if it is due on `rank` at the current
    /// collective count (fires exactly once).
    pub fn due_fault(&mut self, rank: usize) -> Option<DivergenceFault> {
        match self.fault {
            Some(f) if f.rank == rank && self.collectives >= f.after_collectives => {
                self.fault.take()
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sentinel_never_syncs() {
        let mut s = Sentinel::disabled();
        for _ in 0..100 {
            assert!(!s.tick());
        }
        assert_eq!(s.collectives, 0);
    }

    #[test]
    fn tick_fires_every_cadence_collectives() {
        let mut s = Sentinel {
            cadence: 3,
            ..Sentinel::disabled()
        };
        let fired: Vec<bool> = (0..7).map(|_| s.tick()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true, false]);
        assert_eq!(s.collectives, 7);
    }

    #[test]
    fn fault_fires_once_on_its_rank_at_threshold() {
        let fault = DivergenceFault {
            rank: 2,
            after_collectives: 5,
            component: FaultComponent::Alpha,
        };
        let mut s = Sentinel {
            cadence: 1,
            fault: Some(fault),
            ..Sentinel::disabled()
        };
        // Wrong rank: never fires.
        s.collectives = 10;
        assert_eq!(s.due_fault(0), None);
        // Right rank, below threshold: not yet.
        s.collectives = 4;
        assert_eq!(s.due_fault(2), None);
        // At threshold: fires exactly once.
        s.collectives = 5;
        assert_eq!(s.due_fault(2), Some(fault));
        assert_eq!(s.due_fault(2), None);
    }

    #[test]
    fn fault_component_parses_cli_spellings() {
        assert_eq!(FaultComponent::parse("alpha"), Some(FaultComponent::Alpha));
        assert_eq!(
            FaultComponent::parse("blen"),
            Some(FaultComponent::BranchLength)
        );
        assert_eq!(FaultComponent::parse("topology"), None);
    }
}

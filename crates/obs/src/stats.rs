//! Communication accounting.
//!
//! Table I of the paper decomposes the fork-join baseline's MPI traffic into
//! four categories of parallel regions and counts the *theoretical* bytes
//! moved by each (payload size, independent of rank count). This module is
//! that bookkeeping: every collective records one *parallel region* and its
//! payload bytes under a [`CommCategory`]. It lives in `exa-obs` (the bottom
//! of the crate stack) so both the communicator and the trace aggregation
//! can use it; `exa-comm` re-exports everything here.

use serde::{Deserialize, Serialize};

/// The collective operation kinds the engine drivers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    Allreduce,
    Reduce,
    Broadcast,
    Gather,
    Allgather,
    Scatter,
    Barrier,
}

impl OpKind {
    /// All kinds, in [`CommStats`] counter order.
    pub const ALL: [OpKind; 7] = [
        OpKind::Allreduce,
        OpKind::Reduce,
        OpKind::Broadcast,
        OpKind::Gather,
        OpKind::Allgather,
        OpKind::Scatter,
        OpKind::Barrier,
    ];

    /// Lower-case name for traces and tables.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::Allreduce => "allreduce",
            OpKind::Reduce => "reduce",
            OpKind::Broadcast => "broadcast",
            OpKind::Gather => "gather",
            OpKind::Allgather => "allgather",
            OpKind::Scatter => "scatter",
            OpKind::Barrier => "barrier",
        }
    }
}

/// Table I's four traffic classes, plus `Control` for setup traffic that the
/// paper does not attribute to the likelihood kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommCategory {
    /// Newton–Raphson branch-length optimization traffic: candidate branch
    /// lengths out, derivative pairs back.
    BranchLength,
    /// Per-site / per-partition log-likelihood reductions at the virtual
    /// root.
    SiteLikelihoods,
    /// Broadcasts of changed model parameters (α, GTR rates, PSR rates).
    ModelParams,
    /// Traversal-descriptor broadcasts (fork-join only).
    TraversalDescriptor,
    /// Setup, checkpoint and recovery traffic.
    Control,
}

impl CommCategory {
    /// All categories in Table I's presentation order (Control last).
    pub const ALL: [CommCategory; 5] = [
        CommCategory::BranchLength,
        CommCategory::SiteLikelihoods,
        CommCategory::ModelParams,
        CommCategory::TraversalDescriptor,
        CommCategory::Control,
    ];

    /// Table I row label.
    pub fn label(&self) -> &'static str {
        match self {
            CommCategory::BranchLength => "branch length optimization",
            CommCategory::SiteLikelihoods => "per-site/per-partition likelihoods",
            CommCategory::ModelParams => "model parameters",
            CommCategory::TraversalDescriptor => "traversal descriptor",
            CommCategory::Control => "control/setup",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            CommCategory::BranchLength => 0,
            CommCategory::SiteLikelihoods => 1,
            CommCategory::ModelParams => 2,
            CommCategory::TraversalDescriptor => 3,
            CommCategory::Control => 4,
        }
    }
}

/// Regions and bytes accumulated under one category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoryStats {
    /// Number of parallel regions (collective operations).
    pub regions: u64,
    /// Theoretical payload bytes.
    pub bytes: u64,
}

/// Full communication statistics of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommStats {
    per_category: [CategoryStats; 5],
    /// Collective-call-site style counter per op kind (the paper's "<50 MPI
    /// calls in ExaML vs >100 in RAxML-Light" is about static call sites;
    /// we track dynamic ops per kind, which the harness reports alongside).
    per_kind: [u64; 7],
}

impl CommStats {
    /// Record one collective.
    pub fn record(&mut self, category: CommCategory, kind: OpKind, bytes: u64) {
        let c = &mut self.per_category[category.index()];
        c.regions += 1;
        c.bytes += bytes;
        self.per_kind[Self::kind_index(kind)] += 1;
    }

    fn kind_index(kind: OpKind) -> usize {
        match kind {
            OpKind::Allreduce => 0,
            OpKind::Reduce => 1,
            OpKind::Broadcast => 2,
            OpKind::Gather => 3,
            OpKind::Allgather => 4,
            OpKind::Scatter => 5,
            OpKind::Barrier => 6,
        }
    }

    /// Stats of one category.
    pub fn get(&self, category: CommCategory) -> CategoryStats {
        self.per_category[category.index()]
    }

    /// Total parallel regions across categories.
    pub fn total_regions(&self) -> u64 {
        self.per_category.iter().map(|c| c.regions).sum()
    }

    /// Total bytes across categories.
    pub fn total_bytes(&self) -> u64 {
        self.per_category.iter().map(|c| c.bytes).sum()
    }

    /// Dynamic op count of one kind.
    pub fn ops_of_kind(&self, kind: OpKind) -> u64 {
        self.per_kind[Self::kind_index(kind)]
    }

    /// Percentage of total bytes attributable to `category` (0 when no
    /// traffic at all).
    pub fn byte_share(&self, category: CommCategory) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.get(category).bytes as f64 / total as f64
    }

    /// Field-wise sum (merging independent runs).
    pub fn merge(&self, other: &CommStats) -> CommStats {
        let mut out = self.clone();
        for (a, b) in out.per_category.iter_mut().zip(&other.per_category) {
            a.regions += b.regions;
            a.bytes += b.bytes;
        }
        for (a, b) in out.per_kind.iter_mut().zip(&other.per_kind) {
            *a += b;
        }
        out
    }

    /// Field-wise delta `self - earlier` (saturating, so a reset between
    /// snapshots degrades to zeros instead of wrapping).
    pub fn diff(&self, earlier: &CommStats) -> CommStats {
        let mut out = self.clone();
        for (a, b) in out.per_category.iter_mut().zip(&earlier.per_category) {
            a.regions = a.regions.saturating_sub(b.regions);
            a.bytes = a.bytes.saturating_sub(b.bytes);
        }
        for (a, b) in out.per_kind.iter_mut().zip(&earlier.per_kind) {
            *a = a.saturating_sub(*b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = CommStats::default();
        s.record(CommCategory::BranchLength, OpKind::Allreduce, 16);
        s.record(CommCategory::BranchLength, OpKind::Allreduce, 16);
        s.record(CommCategory::TraversalDescriptor, OpKind::Broadcast, 100);
        assert_eq!(s.get(CommCategory::BranchLength).regions, 2);
        assert_eq!(s.get(CommCategory::BranchLength).bytes, 32);
        assert_eq!(s.total_regions(), 3);
        assert_eq!(s.total_bytes(), 132);
        assert_eq!(s.ops_of_kind(OpKind::Allreduce), 2);
        assert_eq!(s.ops_of_kind(OpKind::Broadcast), 1);
        assert_eq!(s.ops_of_kind(OpKind::Barrier), 0);
    }

    #[test]
    fn byte_share_sums_to_100() {
        let mut s = CommStats::default();
        s.record(CommCategory::BranchLength, OpKind::Allreduce, 30);
        s.record(CommCategory::ModelParams, OpKind::Broadcast, 70);
        let total: f64 = CommCategory::ALL.iter().map(|&c| s.byte_share(c)).sum();
        assert!((total - 100.0).abs() < 1e-12);
        assert!((s.byte_share(CommCategory::ModelParams) - 70.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_share() {
        let s = CommStats::default();
        assert_eq!(s.byte_share(CommCategory::BranchLength), 0.0);
        assert_eq!(s.total_bytes(), 0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = CommStats::default();
        a.record(CommCategory::SiteLikelihoods, OpKind::Allreduce, 8);
        let mut b = CommStats::default();
        b.record(CommCategory::SiteLikelihoods, OpKind::Allreduce, 24);
        b.record(CommCategory::Control, OpKind::Barrier, 0);
        let m = a.merge(&b);
        assert_eq!(m.get(CommCategory::SiteLikelihoods).bytes, 32);
        assert_eq!(m.total_regions(), 3);
    }

    #[test]
    fn labels_match_table_one() {
        assert_eq!(
            CommCategory::TraversalDescriptor.label(),
            "traversal descriptor"
        );
        assert_eq!(
            CommCategory::BranchLength.label(),
            "branch length optimization"
        );
    }

    #[test]
    fn diff_subtracts_per_field() {
        let mut before = CommStats::default();
        before.record(CommCategory::SiteLikelihoods, OpKind::Allreduce, 8);
        let mut after = before.clone();
        after.record(CommCategory::SiteLikelihoods, OpKind::Allreduce, 8);
        after.record(CommCategory::BranchLength, OpKind::Allreduce, 16);
        after.record(CommCategory::ModelParams, OpKind::Broadcast, 4);

        let d = after.diff(&before);
        assert_eq!(d.get(CommCategory::SiteLikelihoods).regions, 1);
        assert_eq!(d.get(CommCategory::SiteLikelihoods).bytes, 8);
        assert_eq!(d.get(CommCategory::BranchLength).bytes, 16);
        assert_eq!(d.ops_of_kind(OpKind::Allreduce), 2);
        assert_eq!(d.ops_of_kind(OpKind::Broadcast), 1);
        // Diffing against itself yields the zero stats.
        assert_eq!(after.diff(&after), CommStats::default());
    }

    #[test]
    fn diff_saturates_on_reset() {
        let mut before = CommStats::default();
        before.record(CommCategory::Control, OpKind::Barrier, 0);
        let after = CommStats::default();
        let d = after.diff(&before);
        assert_eq!(d, CommStats::default());
    }
}

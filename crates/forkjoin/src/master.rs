//! The fork-join exchange: the master owns the tree and the search state,
//! broadcasts every likelihood operation to the workers as a command +
//! traversal descriptor, and reduces results back to itself — §III-A's
//! architecture, including its communication costs. What each rank
//! contributes to those reductions is laid out once, in
//! [`exa_search::exchange`]; workers feed the same contributions into the
//! same [`ToMaster::combine`].

use crate::protocol::{decode_site_rate_capture, encode, encode_op, WorkerCmd};
use exa_bio::patterns::CompressedAlignment;
use exa_comm::{CommCategory, Rank};
use exa_phylo::model::rates::RateModelKind;
use exa_search::evaluator::{Evaluator, ExchangeEvaluator};
use exa_search::exchange::{Contribution, Exchange, Op};

/// Evaluator back-end for the fork-join master (rank 0). Workers are
/// command-driven: they simply see the commands the master's reduction and
/// gradient modes produce.
pub type ForkJoinEvaluator = ExchangeEvaluator<ToMaster>;

/// One rank's end of the fork-join scheme: broadcasts from the master,
/// reductions toward it.
pub struct ToMaster {
    rank: Rank,
    shut_down: bool,
}

impl ToMaster {
    pub fn new(rank: Rank) -> ToMaster {
        ToMaster {
            rank,
            shut_down: false,
        }
    }

    /// Broadcast encoded command bytes under the given Table I category.
    fn broadcast(&self, mut bytes: Vec<u8>, category: CommCategory) {
        assert_eq!(self.rank.id(), 0, "the fork-join master must be rank 0");
        self.rank
            .broadcast_bytes(0, &mut bytes, category)
            .expect("fork-join master cannot survive rank failure");
    }

    /// Tell the workers the run is over. Must be called after the search
    /// finishes (idempotent).
    pub fn shutdown_workers(&mut self) {
        if !self.shut_down {
            self.broadcast(encode(&WorkerCmd::Shutdown), CommCategory::Control);
            self.shut_down = true;
        }
    }

    /// Checkpoint support: gather the data-local PSR per-pattern rates
    /// from every rank (workers + the master's own slice, `assignment`)
    /// into the full `table[partition][pattern]` rate-bits table. Empty
    /// under Γ.
    pub fn collect_site_rates(
        eval: &mut ForkJoinEvaluator,
        aln: &CompressedAlignment,
        assignment: &exa_sched::RankAssignment,
    ) -> Vec<Vec<u64>> {
        if eval.rate_kind() != RateModelKind::Psr {
            return Vec::new();
        }
        let this = eval.exchange();
        this.broadcast(encode(&WorkerCmd::GatherSiteRates), CommCategory::Control);
        let own = exa_sched::capture_site_rates(eval.engine(), assignment, aln);
        let blob = crate::protocol::encode_site_rate_capture(&own);
        let blobs = this
            .rank
            .gather_bytes(0, blob, CommCategory::Control)
            .expect("fork-join master cannot survive rank failure");
        let parts = blobs
            .iter()
            .filter(|b| !b.is_empty())
            .flat_map(|b| decode_site_rate_capture(b).expect("malformed site-rate capture"));
        exa_sched::merge_site_rates(aln, parts)
    }

    /// Restart support: broadcast a full PSR rate table so every worker
    /// (and the master's own engine, over `assignment`) installs its slice,
    /// then invalidate all CLVs. No-op for an empty table (Γ checkpoints).
    pub fn distribute_site_rates(
        eval: &mut ForkJoinEvaluator,
        table: &[Vec<u64>],
        aln: &CompressedAlignment,
        assignment: &exa_sched::RankAssignment,
    ) {
        if table.is_empty() {
            return;
        }
        eval.exchange().broadcast(
            encode(&WorkerCmd::SetSiteRates(table.to_vec())),
            CommCategory::ModelParams,
        );
        exa_sched::apply_site_rates(eval.engine_mut(), assignment, aln, table);
        eval.tree_mut().invalidate_all();
    }
}

impl Exchange for ToMaster {
    /// The master computes the traversal order and parameter updates and
    /// must BROADCAST them — the traffic the de-centralized scheme
    /// eliminates. Encoded from the borrowed operation: no clone per
    /// parallel region.
    fn announce(&mut self, op: &Op<'_>) {
        let category = match op {
            Op::Evaluate(_)
            | Op::EvaluatePartitioned(_)
            | Op::PrepareDerivatives(_)
            | Op::Gradient { .. }
            | Op::OptimizeSiteRates(_) => CommCategory::TraversalDescriptor,
            Op::Derivatives(_) => CommCategory::BranchLength,
            Op::SetAlphas(_) | Op::SetGtrRate { .. } | Op::SetPsrScale(_) => {
                CommCategory::ModelParams
            }
        };
        self.broadcast(encode_op(op), category);
    }

    /// Sum toward rank 0; worker `out` slots are left untouched.
    fn combine<'a>(&mut self, c: Contribution<'a>) -> &'a [f64] {
        match c.bins {
            None => self.rank.reduce_sum(0, c.out, c.category),
            Some(bins) => self
                .rank
                .collective(c.category)
                .reduce_binned(bins)
                .map(|sums| c.out[..sums.len()].copy_from_slice(&sums)),
        }
        .expect("fork-join has no failure recovery (master is a single point of failure)");
        c.out
    }
}

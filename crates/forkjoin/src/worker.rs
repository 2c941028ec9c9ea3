//! The worker loop: §III-A's tree-agnostic kernel executor.
//!
//! "The worker processes are agnostic regarding the semantics of the tree
//! search and only execute one of the three likelihood functions […] on the
//! fraction of the data that has been assigned to them."

use crate::master::ToMaster;
use crate::protocol::{decode, encode_site_rate_capture, WorkerCmd};
use exa_bio::patterns::CompressedAlignment;
use exa_comm::{CommCategory, Rank, ReduceKind};
use exa_phylo::engine::{Engine, WorkCounters};
use exa_search::exchange::{Exchange, LocalLikelihood};
use exa_search::BranchMode;

/// Cached handle for the worker-pool command counter: one relaxed atomic
/// add per broadcast command once resolved.
fn commands_counter() -> &'static std::sync::Arc<exa_obs::metrics::Counter> {
    static HANDLE: std::sync::OnceLock<std::sync::Arc<exa_obs::metrics::Counter>> =
        std::sync::OnceLock::new();
    HANDLE.get_or_init(|| {
        exa_obs::metrics::global().counter(
            "exa_forkjoin_commands_total",
            "Master commands executed by fork-join workers, summed over workers.",
            &[],
        )
    })
}

/// Run the worker until the master broadcasts `Shutdown`: decode a command,
/// build the same contribution the master builds for it, reduce toward the
/// master. Returns the worker's kernel-work counters and CLV memory
/// footprint. The worker's data `assignment` (and the alignment) are needed
/// for the checkpoint commands, which translate local PSR rates to/from
/// global pattern indices.
pub fn worker_loop(
    rank: Rank,
    engine: Engine,
    branch_mode: BranchMode,
    n_partitions: usize,
    reduce: ReduceKind,
    assignment: &exa_sched::RankAssignment,
    aln: &CompressedAlignment,
) -> (WorkCounters, u64) {
    let mut local = LocalLikelihood::new(engine, n_partitions, branch_mode, reduce);
    let mut to_master = ToMaster::new(rank.clone());
    loop {
        let mut buf = Vec::new();
        rank.broadcast_bytes(0, &mut buf, CommCategory::TraversalDescriptor)
            .expect("fork-join has no failure recovery (master is a single point of failure)");
        let cmd = decode(&buf).expect("malformed master command");
        if exa_obs::metrics::enabled() {
            commands_counter().inc();
        }
        match cmd {
            WorkerCmd::Evaluate(d) => {
                to_master.combine(local.evaluate(&d, false));
            }
            WorkerCmd::EvaluatePartitioned(d) => {
                to_master.combine(local.evaluate(&d, true));
            }
            WorkerCmd::PrepareDerivatives(d) => local.prepare_derivatives(&d),
            WorkerCmd::Derivatives(lengths) => {
                to_master.combine(local.derivatives(&lengths));
            }
            WorkerCmd::Gradient { descriptor, plan } => {
                to_master.combine(local.gradient(&descriptor, &plan));
            }
            WorkerCmd::SetAlphas(alphas) => local.set_alphas(&alphas),
            WorkerCmd::SetGtrRate { index, values } => local.set_gtr_rate(index as usize, &values),
            WorkerCmd::OptimizeSiteRates(d) => {
                to_master.combine(local.optimize_site_rates(&d));
            }
            WorkerCmd::SetPsrScale(scale) => local.engine_mut().finalize_site_rates(scale),
            WorkerCmd::GatherSiteRates => {
                let rates = exa_sched::capture_site_rates(local.engine(), assignment, aln);
                rank.gather_bytes(0, encode_site_rate_capture(&rates), CommCategory::Control)
                    .expect("site-rate gather failed");
            }
            WorkerCmd::SetSiteRates(table) => {
                exa_sched::apply_site_rates(local.engine_mut(), assignment, aln, &table);
            }
            WorkerCmd::Shutdown => break,
        }
    }
    (local.engine().work(), local.engine().clv_bytes())
}

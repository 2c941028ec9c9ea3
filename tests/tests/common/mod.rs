//! Shared by the suites that hold `SearchResult::lnl` to the state a run
//! returned.

use exa_bio::patterns::CompressedAlignment;
use exa_bio::stats::global_frequencies;
use exa_comm::World;
use exa_search::evaluator::Evaluator;
use examl_core::{Allreduce, DecentralizedEvaluator, RunConfig, RunOutcome};

/// Log-likelihood of the state `out` returned, computed afresh at edge 0 by
/// a de-centralized world shaped like the run's (same rank count, data
/// distribution, kernel, repeats and reduction). Γ only: PSR site rates are
/// data-local and not part of the returned state.
pub fn returned_state_lnl(aln: &CompressedAlignment, cfg: &RunConfig, out: &RunOutcome) -> f64 {
    let assignments = exa_sched::distribute(aln, cfg.n_ranks, cfg.strategy);
    let freqs = global_frequencies(aln);
    let spec = exa_sched::EngineSpec::new(cfg.rate_model, out.kernel, out.site_repeats);
    let lnls = World::run(cfg.n_ranks, |rank| {
        let engine = exa_sched::build_engine(aln, &assignments[rank.id()], &freqs, &spec, None);
        let mut eval = DecentralizedEvaluator::with_exchange(
            Allreduce::new(rank),
            out.state.tree.clone(),
            engine,
            aln.n_partitions(),
            cfg.branch_mode,
        )
        .with_reduce(out.reduce);
        eval.restore(&out.state);
        eval.evaluate(0)
    });
    lnls[0]
}

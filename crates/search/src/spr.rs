//! Lazy SPR (subtree-prune-regraft) rounds — the topology moves of the
//! RAxML hill-climbing search (ref. 29 of the paper).
//!
//! "Lazy" means a candidate insertion is scored *without* optimizing branch
//! lengths (the split target branch takes half its length on each side);
//! only the accepted move gets its three affected branches Newton-optimized.
//! Every candidate evaluation is a short partial traversal — under
//! fork-join, each one is a parallel region with a descriptor broadcast,
//! which is precisely the traffic ExaML eliminates.
//!
//! Candidates are *scored* depth-first from the pruning point
//! ([`Tree::edges_within_radius_depth_first`], RAxML's `addTraverseBIG`
//! order): each branch of the radius ball is finished before the next, so
//! the virtual root moves one edge per candidate. With orientation markers
//! surviving the graft and ungraft (see `exa_phylo::tree`), a candidate
//! recomputes 2.6–2.7 CLVs on the benchmark's workloads; with markers
//! cleared and breadth-first scoring it was 3.9–5.1.
//! The *winner* is still picked in [`Tree::edges_within_radius`] order:
//! the highest score, and among bitwise-equal best scores the candidate
//! listed first there (`best_insertion`). Every score is the same bits in
//! either order, so the order changes work, never the search.

use crate::branch::optimize_branch;
use crate::evaluator::Evaluator;
use exa_phylo::tree::{EdgeId, NodeId, Tree};

/// Statistics from one SPR round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SprStats {
    /// Subtrees pruned and re-tried.
    pub prunes: usize,
    /// Candidate insertions evaluated.
    pub insertions_tried: usize,
    /// Accepted (improving) moves.
    pub accepted: usize,
    /// Log-likelihood after the round.
    pub lnl: f64,
}

/// One full SPR round: every inner node is pruned in each of its three
/// subtree directions; candidates within `radius` of the pruning point are
/// scored lazily; the best strictly-improving insertion is applied and its
/// local branches are re-optimized. Deterministic iteration order keeps all
/// de-centralized ranks in lockstep.
pub fn spr_round(
    eval: &mut dyn Evaluator,
    radius: usize,
    start_lnl: f64,
    epsilon: f64,
) -> SprStats {
    let _span = exa_obs::region(exa_obs::RegionKind::SprRound);
    let n_taxa = eval.n_taxa();
    let n_nodes = 2 * n_taxa - 2;
    let mut stats = SprStats {
        prunes: 0,
        insertions_tried: 0,
        accepted: 0,
        lnl: start_lnl,
    };

    for x in n_taxa..n_nodes {
        // Deterministic neighbor directions (sorted by node id).
        let mut subs: Vec<NodeId> = eval.tree().neighbors(x).iter().map(|&(n, _)| n).collect();
        subs.sort_unstable();
        for sub in subs {
            // The neighbor set changes as moves are applied; skip stale
            // directions.
            if eval.tree().edge_between(x, sub).is_none() {
                continue;
            }
            stats.prunes += 1;
            // Snapshot for exact rollback if the thorough re-evaluation of
            // the best lazy candidate does not actually improve.
            let saved = eval.tree().clone();
            let info = eval.tree_mut().prune(x, sub);
            let is_candidate = |tree: &Tree, e: EdgeId| {
                let ed = tree.edge(e);
                ed.a != x && ed.b != x && e != info.free_edge
            };
            let tree = eval.tree();
            let candidates: Vec<EdgeId> = tree
                .edges_within_radius(info.merged_edge, radius)
                .into_iter()
                .filter(|&e| is_candidate(tree, e))
                .collect();
            let schedule: Vec<EdgeId> = tree
                .edges_within_radius_depth_first(info.merged_edge, radius)
                .into_iter()
                .filter(|&e| is_candidate(tree, e))
                .collect();
            debug_assert_eq!(schedule.len(), candidates.len());

            // Lazy pass: score candidate insertions without optimizing any
            // branch lengths, depth-first; rank them breadth-first.
            let mut scores = vec![f64::NAN; tree.n_edges()];
            for target in schedule {
                let g = eval.tree_mut().graft(&info, target);
                // Score at the fresh attachment edge (partial traversal).
                scores[target] = eval.evaluate(g.target_edge);
                stats.insertions_tried += 1;
                eval.tree_mut().ungraft(&g, &info);
            }
            let best = best_insertion(&candidates, &scores);

            // Thorough pass: apply the lazily-best insertion, Newton-optimize
            // the three branches around it, and keep the move only if it
            // strictly improves on the current tree.
            match best {
                Some((_, target)) => {
                    let g = eval.tree_mut().graft(&info, target);
                    let mut local_edges = vec![g.target_edge, g.new_edge];
                    if let Some(e) = eval.tree().edge_between(x, info.sub) {
                        local_edges.push(e);
                    }
                    for e in local_edges {
                        optimize_branch(eval, e);
                    }
                    let new_lnl = eval.evaluate(g.target_edge);
                    if new_lnl > stats.lnl + epsilon {
                        stats.lnl = new_lnl;
                        stats.accepted += 1;
                    } else {
                        *eval.tree_mut() = saved;
                        eval.tree_mut().invalidate_all();
                    }
                }
                None => {
                    eval.tree_mut().restore_prune(&info);
                }
            }
        }
    }
    // Leave the evaluator with a consistent likelihood for the caller.
    stats.lnl = eval.evaluate(0);
    stats
}

/// The lazy pass's winner among `candidates` (in
/// [`Tree::edges_within_radius`] order), with `scores` indexed by edge id:
/// the highest score, and among bitwise-equal best scores the candidate
/// earliest in `candidates` — whatever order they were scored in.
fn best_insertion(candidates: &[EdgeId], scores: &[f64]) -> Option<(f64, EdgeId)> {
    let mut best: Option<(f64, EdgeId)> = None;
    for &target in candidates {
        let lnl = scores[target];
        if best.is_none_or(|(b, _)| lnl > b) {
            best = Some((lnl, target));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::smooth_all;
    use crate::evaluator::{BranchMode, SequentialEvaluator};
    use exa_bio::partition::PartitionScheme;
    use exa_bio::patterns::CompressedAlignment;
    use exa_phylo::engine::{Engine, PartitionSlice};
    use exa_phylo::model::rates::RateModelKind;
    use exa_phylo::model::GtrModel;

    use exa_phylo::tree::bipartitions::rf_distance;
    use exa_phylo::tree::Tree;
    use exa_simgen::{random_tree_with_lengths, simulate, SimModel, SimRates};

    fn simulated_eval_from(seed: u64, start: Option<Tree>) -> (SequentialEvaluator, Tree) {
        let true_tree = random_tree_with_lengths(10, 1, 0.05, 0.3, seed);
        let scheme = PartitionScheme::unpartitioned(600);
        let model = SimModel {
            gtr: GtrModel::jukes_cantor(),
            rates: SimRates::Uniform,
        };
        let aln = simulate(&true_tree, &scheme, &[model], seed);
        let comp = CompressedAlignment::build(&aln, &scheme);
        let slices = vec![PartitionSlice::from_compressed(0, &comp.partitions[0])];
        let engine = Engine::new(10, slices, RateModelKind::Gamma, 1.0);
        let start = start.unwrap_or_else(|| Tree::random(10, 1, seed + 1000));
        (
            SequentialEvaluator::new(start, engine, 1, BranchMode::Joint),
            true_tree,
        )
    }

    fn simulated_eval(seed: u64) -> (SequentialEvaluator, Tree) {
        simulated_eval_from(seed, None)
    }

    #[test]
    fn spr_round_improves_likelihood() {
        let (mut e, _) = simulated_eval(3);
        smooth_all(&mut e, 1);
        let before = e.evaluate(0);
        let stats = spr_round(&mut e, 3, before, 0.01);
        assert!(stats.prunes > 0);
        assert!(stats.insertions_tried > stats.prunes);
        assert!(stats.lnl >= before, "{before} -> {}", stats.lnl);
        e.tree().check_invariants().unwrap();
    }

    #[test]
    fn spr_moves_toward_true_topology() {
        let (mut e, true_tree) = simulated_eval(7);
        smooth_all(&mut e, 2);
        let rf_before = rf_distance(e.tree(), &true_tree);
        let mut lnl = e.evaluate(0);
        for _ in 0..4 {
            let stats = spr_round(&mut e, 4, lnl, 0.01);
            smooth_all(&mut e, 1);
            lnl = e.evaluate(0);
            if stats.accepted == 0 {
                break;
            }
        }
        let rf_after = rf_distance(e.tree(), &true_tree);
        assert!(
            rf_after < rf_before,
            "search should approach the generating topology: {rf_before} -> {rf_after}"
        );
    }

    #[test]
    fn round_never_regresses_from_optimum() {
        // Start AT the generating tree with optimized branches: the round
        // must not make the likelihood worse (improving-only acceptance).
        let true_tree = simulated_eval(11).1;
        let (mut e, _) = simulated_eval_from(11, Some(true_tree));
        smooth_all(&mut e, 3);
        let before = e.evaluate(0);
        let stats = spr_round(&mut e, 3, before, 0.01);
        assert!(
            stats.lnl >= before - 1e-6,
            "round must not regress: {before} -> {}",
            stats.lnl
        );
        e.tree().check_invariants().unwrap();
    }

    #[test]
    fn among_equal_best_scores_the_earliest_breadth_first_wins() {
        let mut scores = vec![f64::NAN; 10];
        for (e, lnl) in [(2, -10.0), (5, -7.5), (7, -7.5), (9, -8.0)] {
            scores[e] = lnl;
        }
        // Breadth-first order lists 7 before 5: 7 wins the tie, whichever
        // of the two was scored first.
        assert_eq!(best_insertion(&[9, 7, 2, 5], &scores), Some((-7.5, 7)));
        assert_eq!(best_insertion(&[5, 9, 2, 7], &scores), Some((-7.5, 5)));
        // A strictly higher later score still wins.
        scores[2] = -7.0;
        assert_eq!(best_insertion(&[9, 7, 2, 5], &scores), Some((-7.0, 2)));
        assert_eq!(best_insertion(&[], &scores), None);
    }

    #[test]
    fn tree_invariants_hold_after_many_rounds() {
        let (mut e, _) = simulated_eval(19);
        let mut lnl = e.evaluate(0);
        for _ in 0..3 {
            let s = spr_round(&mut e, 5, lnl, 0.0);
            lnl = s.lnl;
            e.tree().check_invariants().unwrap();
        }
    }
}

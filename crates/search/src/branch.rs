//! Newton–Raphson branch-length optimization.
//!
//! Each iteration evaluates `(dlnL/dt, d²lnL/dt²)` at the candidate length
//! from the prepared sumtable and takes a clamped Newton step; when the
//! curvature has the wrong sign the step falls back to a doubling/halving
//! move in the uphill direction (RAxML's safeguard). Under per-partition
//! mode (`-M`) every partition's length on the edge is iterated in lockstep
//! with a converged mask — each iteration is **one** parallel region
//! carrying `2p` doubles, which is exactly the message growth the paper
//! measures in Table I / Fig. 4(b).
//!
//! # Smoothing
//!
//! A smoothing pass ([`smooth_all`]) is the paper's `coreDerivative` loop
//! and RAxML's `smoothTree`: it walks the edges in depth-first order and
//! runs [`optimize_branch`] on each, so every edge is optimized against the
//! lengths its neighbours have *now* (Gauss–Seidel) and a pass does not
//! lose likelihood (`tests/smoothing.rs`). Stepping all `2n-3` edges at once
//! from one all-edge gradient (Jacobi) does not converge on strongly coupled
//! neighbours, which is why [`Evaluator::full_gradient`] is an instrument
//! here, not a driver.

use crate::evaluator::{BranchMode, Evaluator};
use exa_phylo::tree::{EdgeId, BL_MAX, BL_MIN};

/// Tolerance on branch-length convergence (RAxML's `zmin`-style epsilon).
const BL_TOL: f64 = 1e-7;
/// Maximum Newton iterations per edge.
const MAX_NEWTON: usize = 32;

/// One clamped Newton step (RAxML's safeguarded update): a proper Newton
/// move under negative curvature, otherwise doubling/halving uphill. A
/// Newton move shortens the branch by at most a factor of four (RAxML's
/// `z <= 0.25 * zprev + 0.75`): a step that overshoots the optimum onto
/// `BL_MIN` lands where the next step is below `BL_TOL`, and would be
/// reported converged hundreds of lnL units down. The clamp means a length
/// already pinned at `BL_MIN`/`BL_MAX` that the fallback pushes further out
/// of range reprojects onto the bound and registers as converged in one
/// step — both pinned by regression tests below.
fn newton_step(old: f64, d1: f64, d2: f64) -> f64 {
    if d2 < 0.0 {
        (old - d1 / d2).clamp(BL_MIN.max(old / 4.0), BL_MAX)
    } else if d1 > 0.0 {
        (old * 2.0).clamp(BL_MIN, BL_MAX)
    } else {
        (old / 2.0).clamp(BL_MIN, BL_MAX)
    }
}

/// The per-slot convergence test shared by every Newton loop here.
fn step_converged(old: f64, new: f64) -> bool {
    (new - old).abs() < BL_TOL * (1.0 + old.abs())
}

/// Optimize the branch length(s) of `edge` in place: one sumtable, then
/// Newton iterations on it, one small allreduce each. Returns the number of
/// Newton iterations spent (= derivative parallel regions triggered).
pub fn optimize_branch(eval: &mut dyn Evaluator, edge: EdgeId) -> usize {
    let arity = match eval.branch_mode() {
        BranchMode::Joint => 1,
        BranchMode::PerPartition => eval.n_partitions(),
    };
    let mut t: Vec<f64> = (0..arity)
        .map(|p| eval.tree().edge(edge).length(p))
        .collect();
    let mut converged = vec![false; arity];
    let mut iterations = 0;

    eval.prepare_derivatives(edge);
    for _ in 0..MAX_NEWTON {
        iterations += 1;
        let (d1, d2) = {
            let _span = exa_obs::region(exa_obs::RegionKind::NrIteration);
            eval.derivatives(&t)
        };
        let mut any_moved = false;
        for p in 0..arity {
            if converged[p] {
                continue;
            }
            let old = t[p];
            let new = newton_step(old, d1[p], d2[p]);
            if step_converged(old, new) {
                converged[p] = true;
            } else {
                any_moved = true;
            }
            t[p] = new;
        }
        if !any_moved {
            break;
        }
    }

    eval.tree_mut().set_lengths(edge, &t);
    iterations
}

/// Edges in depth-first order from the first inner node: consecutive edges
/// are topologically adjacent, keeping the partial traversals between
/// successive branch optimizations short (the 4–5 node descriptors of
/// §III-B).
pub fn dfs_edge_order(eval: &dyn Evaluator) -> Vec<EdgeId> {
    let tree = eval.tree();
    let mut order = Vec::with_capacity(tree.n_edges());
    let mut seen_edge = vec![false; tree.n_edges()];
    let mut seen_node = vec![false; tree.n_nodes()];
    let start = tree.n_taxa();
    let mut stack = vec![start];
    seen_node[start] = true;
    while let Some(v) = stack.pop() {
        for &(w, e) in tree.neighbors(v) {
            if !seen_edge[e] {
                seen_edge[e] = true;
                order.push(e);
            }
            if !seen_node[w] {
                seen_node[w] = true;
                stack.push(w);
            }
        }
    }
    debug_assert_eq!(order.len(), tree.n_edges());
    order
}

/// `passes` full smoothing passes: each walks [`dfs_edge_order`] and
/// optimizes one edge at a time. Returns the total Newton iterations, which
/// is also the number of collectives spent (one per iteration).
pub fn smooth_all(eval: &mut dyn Evaluator, passes: usize) -> usize {
    let mut total = 0;
    for _ in 0..passes {
        for e in dfs_edge_order(eval) {
            total += optimize_branch(eval, e);
        }
    }
    if exa_obs::metrics::enabled() {
        exa_obs::metrics::global()
            .counter(
                "exa_blo_collectives_total",
                "Collectives spent inside branch-length smoothing passes.",
                &[],
            )
            .add(total as u64);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SequentialEvaluator;
    use exa_bio::alignment::Alignment;
    use exa_bio::partition::PartitionScheme;
    use exa_bio::patterns::CompressedAlignment;
    use exa_phylo::engine::{Engine, PartitionSlice};
    use exa_phylo::model::rates::RateModelKind;
    use exa_phylo::tree::Tree;

    fn make_eval(mode: BranchMode) -> SequentialEvaluator {
        let rows = [
            ("t0", "ACGTACGTACGTACGTAAAATTTT"),
            ("t1", "ACGTACGAACGTACGTAAACTTTA"),
            ("t2", "TCGAACGTACGAACGTAAAGTTAA"),
            ("t3", "TCGAACGAACGTACGAAAATTAAT"),
            ("t4", "TCGATCGAACGTACGAATATTCAT"),
            ("t5", "GCGATCGAACGAACGAATATGCAT"),
        ];
        let aln = Alignment::from_ascii(&rows).unwrap();
        let scheme = PartitionScheme::uniform_chunks(2, 12);
        let comp = CompressedAlignment::build(&aln, &scheme);
        let slices: Vec<PartitionSlice> = comp
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| PartitionSlice::from_compressed(i, p))
            .collect();
        let engine = Engine::new(6, slices, RateModelKind::Gamma, 1.0);
        let blens = match mode {
            BranchMode::Joint => 1,
            BranchMode::PerPartition => 2,
        };
        let tree = Tree::random(6, blens, 5);
        SequentialEvaluator::new(tree, engine, 2, mode)
    }

    #[test]
    fn single_branch_optimization_improves_likelihood() {
        let mut e = make_eval(BranchMode::Joint);
        // Deliberately bad starting length.
        e.tree_mut().set_length(0, 0, 3.0);
        let before = e.evaluate(0);
        let iters = optimize_branch(&mut e, 0);
        let after = e.evaluate(0);
        assert!(iters > 0);
        assert!(after > before, "{before} -> {after}");
    }

    #[test]
    fn optimized_branch_has_zero_derivative() {
        let mut e = make_eval(BranchMode::Joint);
        optimize_branch(&mut e, 2);
        e.prepare_derivatives(2);
        let t = e.tree().edge(2).length(0);
        let (d1, _) = e.derivatives(&[t]);
        // Either an interior optimum (derivative ~ 0) or pinned at a bound.
        let at_bound = t <= BL_MIN * 1.01 || t >= BL_MAX * 0.99;
        assert!(d1[0].abs() < 1e-3 || at_bound, "d1 = {} at t = {t}", d1[0]);
    }

    #[test]
    fn smoothing_improves_monotonically() {
        let mut e = make_eval(BranchMode::Joint);
        let l0 = e.evaluate(0);
        smooth_all(&mut e, 1);
        let l1 = e.evaluate(0);
        smooth_all(&mut e, 1);
        let l2 = e.evaluate(0);
        assert!(l1 >= l0 - 1e-9, "{l0} -> {l1}");
        assert!(l2 >= l1 - 1e-9, "{l1} -> {l2}");
        // Second pass changes little (near convergence).
        assert!(l2 - l1 <= (l1 - l0).abs() + 1.0);
    }

    #[test]
    fn per_partition_mode_optimizes_independent_lengths() {
        let mut e = make_eval(BranchMode::PerPartition);
        smooth_all(&mut e, 2);
        // At least one edge should end with clearly different lengths for
        // the two partitions (they evolve under different data).
        let tree = e.tree();
        let distinct = tree
            .edge_ids()
            .any(|ed| (tree.edge(ed).lengths[0] - tree.edge(ed).lengths[1]).abs() > 1e-4);
        assert!(distinct, "per-partition lengths should diverge");
    }

    #[test]
    fn per_partition_beats_joint_in_likelihood() {
        // More parameters must fit at least as well (same data, nested
        // models).
        let mut joint = make_eval(BranchMode::Joint);
        smooth_all(&mut joint, 3);
        let lj = joint.evaluate(0);

        let mut per = make_eval(BranchMode::PerPartition);
        smooth_all(&mut per, 3);
        let lp = per.evaluate(0);
        assert!(lp >= lj - 0.5, "per-partition {lp} vs joint {lj}");
    }

    #[test]
    fn dfs_order_visits_every_edge_once() {
        let e = make_eval(BranchMode::Joint);
        let order = dfs_edge_order(&e);
        let mut seen = std::collections::HashSet::new();
        for ed in &order {
            assert!(seen.insert(*ed));
        }
        assert_eq!(order.len(), e.tree().n_edges());
    }

    /// Regression: a length pinned at `BL_MAX` whose curvature safeguard
    /// says "double" must reproject onto the bound and count as converged
    /// on that step — not burn all `MAX_NEWTON` iterations ramming the
    /// clamp.
    #[test]
    fn doubling_at_upper_bound_converges_in_one_step() {
        let new = newton_step(BL_MAX, 5.0, 3.0); // uphill, wrong-sign d2
        assert_eq!(new, BL_MAX);
        assert!(step_converged(BL_MAX, new));
    }

    /// Regression: from 0.13 a Newton step of −100 used to land on `BL_MIN`,
    /// where the way back is `BL_MIN`-sized steps that pass for converged.
    #[test]
    fn newton_step_shortens_by_at_most_a_factor_of_four() {
        assert_eq!(newton_step(0.13, -1000.0, -10.0), 0.13 / 4.0);
        assert_eq!(newton_step(0.13, -0.1, -10.0), 0.13 - 0.01);
        assert_eq!(newton_step(2.0 * BL_MIN, -1000.0, -10.0), BL_MIN);
    }

    /// Regression: the mirror case — halving at `BL_MIN` (downhill, positive
    /// curvature) reprojects onto the lower bound in one step.
    #[test]
    fn halving_at_lower_bound_converges_in_one_step() {
        let new = newton_step(BL_MIN, -5.0, 3.0);
        assert_eq!(new, BL_MIN);
        assert!(step_converged(BL_MIN, new));
    }

    /// Smoothing never calls `full_gradient`, so the gradient mode cannot
    /// change the lengths it lands on.
    #[test]
    fn smoothing_is_bitwise_invariant_to_gradient_mode() {
        use exa_phylo::GradientMode;
        let mut off = make_eval(BranchMode::Joint);
        let mut on = make_eval(BranchMode::Joint).with_gradient(GradientMode::On);
        let i_off = smooth_all(&mut off, 2);
        let i_on = smooth_all(&mut on, 2);
        assert_eq!(i_off, i_on, "iteration counts must match");
        let (t_off, t_on) = (off.tree(), on.tree());
        for e in 0..t_off.n_edges() {
            assert_eq!(
                t_off.edge(e).length(0).to_bits(),
                t_on.edge(e).length(0).to_bits(),
                "edge {e} diverged between gradient modes"
            );
        }
        let l_off = off.evaluate(0);
        let l_on = on.evaluate(0);
        assert_eq!(l_off.to_bits(), l_on.to_bits());
    }
}

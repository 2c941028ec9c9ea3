//! What a smoothing pass owes the search: it never loses likelihood, and
//! repeated passes leave every free branch length at its optimum. The
//! optimum is read off `full_gradient` — the all-edge sweep as the measuring
//! instrument, independent of the per-edge Newton loop under test. (Stepping
//! every edge at once from that gradient lost 194 lnL units in the first
//! pass after this fixture's SPR round.)

use exa_phylo::engine::{Engine, PartitionSlice};
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::{Tree, BL_MAX, BL_MIN};
use exa_search::branch::smooth_all;
use exa_search::evaluator::{BranchMode, Evaluator, SequentialEvaluator};
use exa_search::spr::spr_round;
use exa_simgen::workloads;

const N_TAXA: usize = 16;
const N_PARTITIONS: usize = 2;

fn fixture(kind: RateModelKind, mode: BranchMode) -> SequentialEvaluator {
    let w = workloads::partitioned(N_TAXA, N_PARTITIONS, 400, 5);
    let slices: Vec<PartitionSlice> = w
        .compressed
        .partitions
        .iter()
        .enumerate()
        .map(|(i, p)| PartitionSlice::from_compressed(i, p))
        .collect();
    let engine = Engine::new(N_TAXA, slices, kind, 1.0);
    let blens = match mode {
        BranchMode::Joint => 1,
        BranchMode::PerPartition => N_PARTITIONS,
    };
    let mut eval =
        SequentialEvaluator::new(Tree::random(N_TAXA, blens, 23), engine, N_PARTITIONS, mode);
    // Under PSR, smooth against fitted per-site rates, not the all-ones start.
    eval.optimize_site_rates();
    eval
}

fn assert_pass_keeps_likelihood(eval: &mut SequentialEvaluator, what: &str) {
    let before = eval.evaluate(0);
    smooth_all(eval, 1);
    let after = eval.evaluate(0);
    assert!(
        after >= before - 1e-7 * before.abs(),
        "{what}: one smoothing pass lost likelihood, {before} -> {after}"
    );
}

fn assert_lengths_are_optimal(eval: &mut SequentialEvaluator, what: &str) {
    // Gauss–Seidel converges linearly, a factor of two to three a pass.
    smooth_all(eval, 16);
    let grad = eval.full_gradient();
    for e in 0..eval.tree().n_edges() {
        for (slot, (&d1, &d2)) in grad.d1[e].iter().zip(&grad.d2[e]).enumerate() {
            let t = eval.tree().edge(e).length(slot);
            if t <= BL_MIN * 1.01 || t >= BL_MAX * 0.99 {
                continue;
            }
            assert!(
                d2 < 0.0 && (d1 / d2).abs() <= 1e-3 * (1.0 + t),
                "{what}: edge {e} slot {slot} at t = {t} still wants a Newton step \
                 (d1 = {d1}, d2 = {d2})"
            );
        }
    }
}

#[test]
fn smoothing_never_loses_likelihood_and_reaches_the_optimum() {
    for (label, kind, mode) in [
        ("gamma-joint", RateModelKind::Gamma, BranchMode::Joint),
        ("gamma-M", RateModelKind::Gamma, BranchMode::PerPartition),
        ("psr-joint", RateModelKind::Psr, BranchMode::Joint),
    ] {
        let mut eval = fixture(kind, mode);
        let state = format!("{label}, random start");
        assert_pass_keeps_likelihood(&mut eval, &state);
        assert_lengths_are_optimal(&mut eval, &state);

        // An SPR round re-optimizes only the three edges around each
        // accepted move; the rest of the tree is what smoothing is for.
        let lnl = eval.evaluate(0);
        let stats = spr_round(&mut eval, 5, lnl, 0.01);
        assert!(stats.accepted > 0, "{label}: the fixture must move");
        let state = format!("{label}, after an SPR round");
        assert_pass_keeps_likelihood(&mut eval, &state);
        assert_lengths_are_optimal(&mut eval, &state);
    }
}

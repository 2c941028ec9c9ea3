//! CLV reuse in the lazy SPR pass, at the search level.
//!
//! `spr_round` scores its candidates depth-first and relies on orientation
//! markers surviving the graft/ungraft of every candidate. Neither may
//! change the search: a round run through an evaluator that forgets every
//! CLV before each evaluation must report the same statistics, the same
//! lnL bits and the same tree, edge lengths bitwise. And the reuse must pay:
//! DESIGN §5 item 4's "descriptors average only 4–5 nodes" is pinned here as
//! kernel dispatches per scored insertion.

use exa_bio::partition::PartitionScheme;
use exa_bio::patterns::CompressedAlignment;
use exa_phylo::engine::{Engine, KernelKind, PartitionSlice};
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::model::GtrModel;
use exa_phylo::tree::{EdgeId, Tree};
use exa_phylo::SiteRepeats;
use exa_search::branch::smooth_all;
use exa_search::evaluator::{BranchMode, Evaluator, GlobalState, SequentialEvaluator};
use exa_search::spr::spr_round;
use exa_simgen::{random_tree_with_lengths, simulate, SimModel, SimRates};

/// A [`SequentialEvaluator`] that invalidates every CLV before each
/// evaluation, so every score comes from a full traversal.
struct Forgetful(SequentialEvaluator);

impl Evaluator for Forgetful {
    fn n_taxa(&self) -> usize {
        self.0.n_taxa()
    }
    fn n_partitions(&self) -> usize {
        self.0.n_partitions()
    }
    fn branch_mode(&self) -> BranchMode {
        self.0.branch_mode()
    }
    fn rate_kind(&self) -> RateModelKind {
        self.0.rate_kind()
    }
    fn tree(&self) -> &Tree {
        self.0.tree()
    }
    fn tree_mut(&mut self) -> &mut Tree {
        self.0.tree_mut()
    }
    fn evaluate(&mut self, edge: EdgeId) -> f64 {
        self.0.tree_mut().invalidate_all();
        self.0.evaluate(edge)
    }
    fn evaluate_partitioned(&mut self, edge: EdgeId) -> f64 {
        self.0.tree_mut().invalidate_all();
        self.0.evaluate_partitioned(edge)
    }
    fn last_per_partition(&self) -> &[f64] {
        self.0.last_per_partition()
    }
    fn prepare_derivatives(&mut self, edge: EdgeId) {
        self.0.tree_mut().invalidate_all();
        self.0.prepare_derivatives(edge)
    }
    fn derivatives(&mut self, lengths: &[f64]) -> (Vec<f64>, Vec<f64>) {
        self.0.derivatives(lengths)
    }
    fn alphas(&self) -> Vec<f64> {
        self.0.alphas()
    }
    fn set_alphas(&mut self, alphas: &[f64]) {
        self.0.set_alphas(alphas)
    }
    fn gtr_rate(&self, rate_index: usize) -> Vec<f64> {
        self.0.gtr_rate(rate_index)
    }
    fn set_gtr_rate(&mut self, rate_index: usize, values: &[f64]) {
        self.0.set_gtr_rate(rate_index, values)
    }
    fn optimize_site_rates(&mut self) {
        self.0.optimize_site_rates()
    }
    fn snapshot(&self) -> GlobalState {
        self.0.snapshot()
    }
    fn restore(&mut self, state: &GlobalState) {
        self.0.restore(state)
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A sequential evaluator over simulated data from a random tree, started
/// from another random tree with smoothed branches.
fn evaluator(
    n_taxa: usize,
    sites: usize,
    kind: RateModelKind,
    repeats: SiteRepeats,
    seed: u64,
) -> SequentialEvaluator {
    let true_tree = random_tree_with_lengths(n_taxa, 1, 0.02, 0.2, seed);
    let scheme = PartitionScheme::unpartitioned(sites);
    let model = SimModel {
        gtr: GtrModel::jukes_cantor(),
        rates: SimRates::Gamma { alpha: 0.8 },
    };
    let aln = simulate(&true_tree, &scheme, &[model], seed);
    let comp = CompressedAlignment::build(&aln, &scheme);
    let slices = vec![PartitionSlice::from_compressed(0, &comp.partitions[0])];
    let engine = Engine::with_config(n_taxa, slices, kind, 1.0, KernelKind::Scalar, repeats);
    let start = Tree::random(n_taxa, 1, seed + 1000);
    let mut e = SequentialEvaluator::new(start, engine, 1, BranchMode::Joint);
    e.optimize_site_rates();
    smooth_all(&mut e, 1);
    e
}

fn edges(t: &Tree) -> Vec<(usize, usize, Vec<u64>)> {
    t.edge_ids()
        .map(|e| {
            let ed = t.edge(e);
            let bits = ed.lengths.iter().map(|l| l.to_bits()).collect();
            (ed.a, ed.b, bits)
        })
        .collect()
}

#[test]
fn a_round_that_reuses_clvs_equals_one_that_recomputes_them() {
    for kind in [RateModelKind::Gamma, RateModelKind::Psr] {
        let mut reusing = evaluator(14, 300, kind, SiteRepeats::On, 41);
        let mut forgetful = Forgetful(evaluator(14, 300, kind, SiteRepeats::On, 41));
        let mut lnl = reusing.evaluate(0);
        assert_eq!(lnl.to_bits(), forgetful.evaluate(0).to_bits());
        let mut accepted = 0;
        for round in 0..2 {
            let a = spr_round(&mut reusing, 4, lnl, 0.01);
            let b = spr_round(&mut forgetful, 4, lnl, 0.01);
            let what = format!("{kind:?} round {round}");
            assert_eq!(
                (a.prunes, a.insertions_tried, a.accepted),
                (b.prunes, b.insertions_tried, b.accepted),
                "{what}: stats"
            );
            assert_eq!(a.lnl.to_bits(), b.lnl.to_bits(), "{what}: lnL");
            assert_eq!(
                edges(reusing.tree()),
                edges(forgetful.tree()),
                "{what}: tree"
            );
            accepted += a.accepted;
            lnl = a.lnl;
        }
        assert!(accepted > 0, "{kind:?}: no move accepted, nothing compared");
        // The reusing side did reuse.
        let (r, f) = (reusing.engine().work(), forgetful.0.engine().work());
        assert!(
            2 * r.clv_updates < f.clv_updates,
            "{kind:?}: {} vs {} CLV entries",
            r.clv_updates,
            f.clv_updates
        );
    }
}

/// Kernel dispatches of one round per scored insertion on the shape of the
/// benchmark's `tall_psr` (40 taxa, few sites, PSR, radius 5), one
/// partition and repeats off, so a dispatch is one CLV or one kernel call.
/// A scored insertion costs one `evaluate` dispatch plus the CLVs its
/// partial descriptor recomputes; the thorough pass and the full traversal
/// after a rejected move add the rest. With breadth-first scoring and
/// markers cleared by every graft and ungraft this read 7.34; depth-first
/// with surviving markers it reads 5.11.
#[test]
fn a_scored_insertion_costs_at_most_six_dispatches() {
    let mut e = evaluator(40, 120, RateModelKind::Psr, SiteRepeats::Off, 20130520);
    let lnl = e.evaluate(0);
    let before = e.engine().work().dispatches;
    let stats = spr_round(&mut e, 5, lnl, 0.01);
    let per_insertion =
        (e.engine().work().dispatches - before) as f64 / stats.insertions_tried as f64;
    println!(
        "{} insertions, {per_insertion:.2} dispatches per insertion",
        stats.insertions_tried
    );
    assert!(stats.insertions_tried > 1000, "{stats:?}");
    assert!(
        per_insertion < 6.0,
        "{per_insertion:.2} dispatches per insertion"
    );
}

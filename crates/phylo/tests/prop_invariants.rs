//! Property-based invariants of the likelihood substrate: tree surgery
//! safety, model-math identities, and the pulley principle over random
//! inputs.

// Matrix identities below are written with explicit row/column indices.
#![allow(clippy::needless_range_loop)]

use exa_phylo::model::pmatrix::prob_matrix;
use exa_phylo::model::GtrModel;
use exa_phylo::numerics::gamma::discrete_gamma_rates;
use exa_phylo::tree::traversal::TraversalDescriptor;
use exa_phylo::tree::{EdgeId, GraftInfo, NodeId, PruneInfo, Tree};
use proptest::prelude::*;

/// A subtree as its edges (endpoints sorted) with their length bits,
/// sorted.
type Signature = Vec<(NodeId, NodeId, Vec<u64>)>;

/// The subtree CLV(`v` → `toward`) summarizes.
fn subtree_signature(t: &Tree, v: NodeId, toward: NodeId) -> Signature {
    let mut out = Vec::new();
    let mut stack = vec![(v, toward)];
    while let Some((node, up)) = stack.pop() {
        for &(w, e) in t.neighbors(node) {
            if w != up {
                let bits = t.edge(e).lengths.iter().map(|l| l.to_bits()).collect();
                out.push((node.min(w), node.max(w), bits));
                stack.push((w, node));
            }
        }
    }
    out.sort();
    out
}

/// A tree-only oracle for orientation markers: a marker is set only by a
/// descriptor entry, and whatever surgery happens afterwards, a surviving
/// marker must still describe the subtree its CLV was computed over.
struct MarkerOracle {
    /// Per node, the subtree signature of the CLV the last descriptor
    /// entry for it computed.
    set: Vec<Option<Signature>>,
}

impl MarkerOracle {
    fn new(t: &Tree) -> MarkerOracle {
        MarkerOracle {
            set: vec![None; t.n_nodes()],
        }
    }

    fn record(&mut self, t: &Tree, d: &TraversalDescriptor) {
        for entry in &d.entries {
            let toward = t
                .orientation_of(entry.parent)
                .expect("a descriptor entry sets a marker");
            self.set[entry.parent] = Some(subtree_signature(t, entry.parent, toward));
        }
    }

    fn check(&self, t: &Tree) -> Result<(), TestCaseError> {
        for v in t.n_taxa()..t.n_nodes() {
            if let Some(u) = t.orientation_of(v) {
                prop_assert!(
                    t.edge_between(v, u).is_some(),
                    "node {} marker names non-neighbour {}",
                    v,
                    u
                );
                prop_assert_eq!(
                    Some(subtree_signature(t, v, u)),
                    self.set[v].clone(),
                    "node {} marker toward {} outlived its subtree",
                    v,
                    u
                );
            }
        }
        Ok(())
    }
}

/// Candidate insertion edges of a pruned tree, as the lazy SPR pass lists
/// them.
fn candidates(t: &Tree, info: &PruneInfo) -> Vec<EdgeId> {
    t.edges_within_radius(info.merged_edge, 4)
        .into_iter()
        .filter(|&e| {
            let ed = t.edge(e);
            ed.a != info.x && ed.b != info.x && e != info.free_edge
        })
        .collect()
}

prop_compose! {
    fn arb_gtr()(rates in prop::collection::vec(0.05f64..20.0, 6),
                 freqs in prop::collection::vec(0.05f64..1.0, 4)) -> GtrModel {
        GtrModel::new(
            [rates[0], rates[1], rates[2], rates[3], rates[4], rates[5]],
            [freqs[0], freqs[1], freqs[2], freqs[3]],
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gtr_q_matrix_is_proper_generator(model in arb_gtr()) {
        let q = model.q_matrix();
        for i in 0..4 {
            let rowsum: f64 = q[i].iter().sum();
            prop_assert!(rowsum.abs() < 1e-10, "row {} sums to {}", i, rowsum);
            prop_assert!(q[i][i] < 0.0);
            for j in 0..4 {
                if i != j {
                    prop_assert!(q[i][j] >= 0.0);
                }
            }
        }
        // Detailed balance (time reversibility).
        for i in 0..4 {
            for j in 0..4 {
                let lhs = model.freqs()[i] * q[i][j];
                let rhs = model.freqs()[j] * q[j][i];
                prop_assert!((lhs - rhs).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn p_matrices_are_stochastic(model in arb_gtr(), t in 0.0f64..5.0, r in 0.01f64..10.0) {
        let p = prob_matrix(&model, t, r);
        for row in &p {
            let s: f64 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-8, "row sum {}", s);
            for &x in row {
                prop_assert!((-1e-12..=1.0 + 1e-9).contains(&x));
            }
        }
    }

    #[test]
    fn chapman_kolmogorov_holds(model in arb_gtr(), s in 0.001f64..1.0, t in 0.001f64..1.0) {
        let ps = prob_matrix(&model, s, 1.0);
        let pt = prob_matrix(&model, t, 1.0);
        let pst = prob_matrix(&model, s + t, 1.0);
        for i in 0..4 {
            for j in 0..4 {
                let mut prod = 0.0;
                for k in 0..4 {
                    prod += ps[i][k] * pt[k][j];
                }
                prop_assert!((prod - pst[i][j]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn discrete_gamma_always_mean_one(alpha in 0.021f64..99.0, k in 1usize..12) {
        let rates = discrete_gamma_rates(alpha, k);
        let mean: f64 = rates.iter().sum::<f64>() / k as f64;
        prop_assert!((mean - 1.0).abs() < 1e-8, "alpha={} k={} mean={}", alpha, k, mean);
        for &r in &rates {
            prop_assert!(r > 0.0 && r.is_finite());
        }
    }

    #[test]
    fn random_trees_satisfy_invariants(n in 3usize..40, blens in 1usize..4, seed in any::<u64>()) {
        let t = Tree::random(n, blens, seed);
        prop_assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn newick_roundtrip_preserves_topology(n in 4usize..20, seed in any::<u64>()) {
        use exa_phylo::tree::bipartitions::rf_distance;
        let t = Tree::random(n, 1, seed);
        let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let text = t.to_newick(&names);
        let back = Tree::from_newick(&text, &names, 1).unwrap();
        prop_assert_eq!(rf_distance(&t, &back), 0);
    }

    #[test]
    fn spr_sequences_preserve_invariants(
        n in 5usize..16,
        blens in 1usize..3,
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..8, any::<u32>(), any::<u32>()), 1..40),
    ) {
        let mut t = Tree::random(n, blens, seed);
        let mut oracle = MarkerOracle::new(&t);
        // The live surgery: nothing, a prune, or a prune plus a graft.
        let mut pruned: Option<PruneInfo> = None;
        let mut grafted: Option<GraftInfo> = None;
        for (op, a, b) in ops {
            let (a, b) = (a as usize, b as usize);
            match (op, &pruned, &grafted) {
                // A descriptor at an edge of the main component records the
                // subtree of every marker it sets.
                (0 | 1, _, _) => {
                    let root = match &pruned {
                        Some(info) if grafted.is_none() => {
                            let live = t.edges_within_radius(info.merged_edge, usize::MAX);
                            if a % 3 == 0 || live.is_empty() { info.merged_edge } else { live[a % live.len()] }
                        }
                        _ => a % t.n_edges(),
                    };
                    let d = t.traversal_descriptor(root);
                    oracle.record(&t, &d);
                }
                (2, _, _) if pruned.is_none() || grafted.is_some() => {
                    let e = a % t.n_edges();
                    t.set_length(e, b % blens, 0.01 + (b % 97) as f64 * 0.013);
                }
                (3 | 4, None, _) => {
                    let x = n + a % t.n_inner();
                    let sub = t.neighbors(x)[b % 3].0;
                    pruned = Some(t.prune(x, sub));
                }
                (3 | 4, Some(info), None) => {
                    let cands = candidates(&t, info);
                    if cands.is_empty() || op == 4 && a % 4 == 0 {
                        t.restore_prune(info);
                        pruned = None;
                    } else {
                        grafted = Some(t.graft(info, cands[a % cands.len()]));
                    }
                }
                (5 | 6, Some(info), Some(g)) => {
                    t.ungraft(g, info);
                    grafted = None;
                }
                // Accept the graft.
                (7, Some(_), Some(_)) => {
                    pruned = None;
                    grafted = None;
                }
                _ => {}
            }
            if pruned.is_none() || grafted.is_some() {
                prop_assert!(t.check_invariants().is_ok(), "{:?}", t.check_invariants());
            }
            oracle.check(&t)?;
        }
        if let (Some(info), None) = (&pruned, &grafted) {
            t.restore_prune(info);
        }
        prop_assert!(t.check_invariants().is_ok(), "{:?}", t.check_invariants());
        oracle.check(&t)?;
    }

    #[test]
    fn prune_restore_is_always_identity(n in 5usize..16, seed in any::<u64>(), which in any::<u32>()) {
        let t0 = Tree::random(n, 1, seed);
        let mut t = t0.clone();
        let x = n + (which as usize % t.n_inner());
        let sub = t.neighbors(x)[which as usize % 3].0;
        let info = t.prune(x, sub);
        t.restore_prune(&info);
        prop_assert!(t.check_invariants().is_ok());
        use exa_phylo::tree::bipartitions::rf_distance;
        prop_assert_eq!(rf_distance(&t0, &t), 0);
        // Branch lengths restored exactly.
        for e in 0..t.n_edges() {
            prop_assert_eq!(&t.edge(e).lengths, &t0.edge(e).lengths);
        }
    }
}

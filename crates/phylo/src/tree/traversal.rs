//! Traversal descriptors.
//!
//! A traversal descriptor lists, in post-order, the inner nodes whose
//! conditional likelihood vectors must be (re)computed so that the
//! likelihood can be evaluated at a chosen *virtual root* edge. Under the
//! fork-join scheme the master broadcasts this structure to every worker for
//! essentially every parallel region — the paper's Table I shows those
//! broadcasts account for 30–97% of all MPI traffic. Under the de-centralized
//! scheme each rank computes the descriptor locally from its replicated tree
//! and nothing is broadcast.

use super::{EdgeId, NodeId, Tree};
use crate::numerics::same_bits;
use serde::{Deserialize, Serialize};

/// One CLV recomputation: `parent`'s CLV (oriented toward the virtual root)
/// is combined from children `left` and `right` through the transition
/// matrices of the connecting branches.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct TraversalEntry {
    pub parent: NodeId,
    pub left: NodeId,
    pub right: NodeId,
    /// Branch lengths parent–left: 1 entry (joint) or one per partition.
    pub left_lengths: Vec<f64>,
    /// Branch lengths parent–right.
    pub right_lengths: Vec<f64>,
}

/// A full descriptor: the recomputation list plus the virtual-root edge.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct TraversalDescriptor {
    pub entries: Vec<TraversalEntry>,
    /// Virtual root endpoints.
    pub root_a: NodeId,
    pub root_b: NodeId,
    /// Branch lengths of the virtual-root edge.
    pub root_lengths: Vec<f64>,
}

// `Clone` by hand so that `clone_from` reuses the length vectors: the
// engine keeps its last full descriptor and overwrites it in place.
impl Clone for TraversalEntry {
    fn clone(&self) -> Self {
        TraversalEntry {
            parent: self.parent,
            left: self.left,
            right: self.right,
            left_lengths: self.left_lengths.clone(),
            right_lengths: self.right_lengths.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.parent = source.parent;
        self.left = source.left;
        self.right = source.right;
        self.left_lengths.clone_from(&source.left_lengths);
        self.right_lengths.clone_from(&source.right_lengths);
    }
}

impl Clone for TraversalDescriptor {
    fn clone(&self) -> Self {
        TraversalDescriptor {
            entries: self.entries.clone(),
            root_a: self.root_a,
            root_b: self.root_b,
            root_lengths: self.root_lengths.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
        self.root_a = source.root_a;
        self.root_b = source.root_b;
        self.root_lengths.clone_from(&source.root_lengths);
    }
}

impl TraversalEntry {
    /// Theoretical wire size in bytes when the descriptor is broadcast under
    /// fork-join: three 4-byte node ids plus the 8-byte branch lengths.
    /// (This is the hardware-independent byte-counting convention of the
    /// paper's Table I.)
    pub fn wire_bytes(&self) -> u64 {
        3 * 4 + 8 * (self.left_lengths.len() + self.right_lengths.len()) as u64
    }
}

impl TraversalDescriptor {
    /// Total theoretical broadcast size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        let entries: u64 = self.entries.iter().map(TraversalEntry::wire_bytes).sum();
        // Root record: two ids + lengths + the entry count.
        entries + 2 * 4 + 8 * self.root_lengths.len() as u64 + 4
    }

    /// Number of CLV recomputations this descriptor requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when every required CLV is already valid.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bitwise equality: the same node ids and the same bits in every
    /// branch length, the root edge's included.
    pub fn same_bits(&self, other: &TraversalDescriptor) -> bool {
        self.root_a == other.root_a
            && self.root_b == other.root_b
            && same_bits(&self.root_lengths, &other.root_lengths)
            && self.entries.len() == other.entries.len()
            && self.entries.iter().zip(&other.entries).all(|(a, b)| {
                (a.parent, a.left, a.right) == (b.parent, b.left, b.right)
                    && same_bits(&a.left_lengths, &b.left_lengths)
                    && same_bits(&a.right_lengths, &b.right_lengths)
            })
    }
}

/// One side feeding an "outside" CLV computation in a gradient sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradSource {
    /// The neighbor node this side descends through.
    pub node: NodeId,
    /// Branch lengths parent–node (1 entry = joint, else per partition).
    pub lengths: Vec<f64>,
    /// `Some(e)`: read the outside CLV the sweep previously materialized for
    /// edge `e` (the parent's own up-edge; always an earlier step). `None`:
    /// read the node's inward side — tip codes or its root-oriented cached
    /// CLV.
    pub from_outside: Option<EdgeId>,
}

/// One pre-order step of a gradient sweep: materialize the CLV of `parent`
/// looking toward `child` (everything on the far side of `edge`), combined
/// from the two non-`child` neighbors of `parent`, then take the branch
/// derivative of `edge` from that outside CLV and `child`'s inward side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradStep {
    /// The edge (`parent`–`child`) this step handles.
    pub edge: EdgeId,
    pub parent: NodeId,
    pub child: NodeId,
    /// Branch lengths of `edge` — the point the derivative is taken at.
    pub lengths: Vec<f64>,
    /// True when `edge.a == child`. The per-edge derivative path roots the
    /// sumtable at `(edge.a, edge.b)` and side order is observable in the
    /// bits, so the sweep must put the child's inward CLV on the `a` side
    /// whenever the stored edge record does.
    pub swap_sides: bool,
    /// Left source — smaller node id first, the same deterministic child
    /// order `collect_entries` uses, so the outside CLV is bitwise identical
    /// to the CLV a per-edge traversal would have computed.
    pub left: GradSource,
    pub right: GradSource,
}

/// A full-tree gradient sweep plan rooted at the virtual-root edge the
/// inward CLVs are currently oriented toward. Like a
/// [`TraversalDescriptor`], the plan is pure node ids and branch lengths, so
/// tree-less fork-join workers can execute it from the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientPlan {
    /// The virtual-root edge (derivative taken directly from the two inward
    /// sides, exactly like the per-edge path's sumtable at that edge).
    pub root_edge: EdgeId,
    pub root_a: NodeId,
    pub root_b: NodeId,
    pub root_lengths: Vec<f64>,
    /// Total number of edges in the tree (= gradient vector length).
    pub n_edges: usize,
    /// Every non-root edge exactly once, parents before children.
    pub steps: Vec<GradStep>,
}

impl GradientPlan {
    /// Theoretical wire size in bytes when the plan is broadcast under
    /// fork-join (same byte-counting convention as
    /// [`TraversalDescriptor::wire_bytes`]).
    pub fn wire_bytes(&self) -> u64 {
        let steps: u64 = self
            .steps
            .iter()
            .map(|s| {
                // edge + parent + child + 2×(node + from_outside) ids, plus
                // the three length vectors.
                7 * 4 + 8 * (s.lengths.len() + s.left.lengths.len() + s.right.lengths.len()) as u64
            })
            .sum();
        steps + 3 * 4 + 8 * self.root_lengths.len() as u64 + 4
    }
}

impl Tree {
    /// Compute the descriptor that makes the likelihood evaluable at edge
    /// `root`. Marks the affected CLVs as valid (the engine is expected to
    /// execute the descriptor before the next one is computed — both the
    /// fork-join master and each de-centralized rank do exactly that).
    pub fn traversal_descriptor(&mut self, root: EdgeId) -> TraversalDescriptor {
        let (a, b) = {
            let e = self.edge(root);
            (e.a, e.b)
        };
        let mut entries = Vec::new();
        self.collect_entries(a, b, &mut entries);
        self.collect_entries(b, a, &mut entries);
        TraversalDescriptor {
            entries,
            root_a: a,
            root_b: b,
            root_lengths: self.edge(root).lengths.clone(),
        }
    }

    /// Ensure CLV(`v` → `toward`) will be valid, appending recomputations in
    /// post-order.
    fn collect_entries(&mut self, v: NodeId, toward: NodeId, out: &mut Vec<TraversalEntry>) {
        if self.is_tip(v) {
            return;
        }
        if self.orientation_of(v) == Some(toward) {
            return;
        }
        let mut children = self
            .neighbors(v)
            .iter()
            .filter(|&&(n, _)| n != toward)
            .copied()
            .collect::<Vec<_>>();
        debug_assert_eq!(children.len(), 2, "inner node must have exactly 2 children");
        // Deterministic child order (smaller node id first) so every rank
        // builds the identical descriptor.
        children.sort_by_key(|&(n, _)| n);
        let (left, le) = children[0];
        let (right, re) = children[1];
        self.collect_entries(left, v, out);
        self.collect_entries(right, v, out);
        out.push(TraversalEntry {
            parent: v,
            left,
            right,
            left_lengths: self.edge(le).lengths.clone(),
            right_lengths: self.edge(re).lengths.clone(),
        });
        self.set_orientation(v, toward);
    }

    /// Descriptor for a **full** re-traversal (all CLVs recomputed), used
    /// after model-parameter changes.
    pub fn full_traversal_descriptor(&mut self, root: EdgeId) -> TraversalDescriptor {
        self.invalidate_all();
        self.traversal_descriptor(root)
    }

    /// Build the pre-order sweep plan for a full-tree branch gradient rooted
    /// at edge `root`. Pure read: the caller must already have executed
    /// [`Tree::traversal_descriptor`] at the same edge so every inward CLV
    /// is valid and oriented toward `root`.
    pub fn gradient_plan(&self, root: EdgeId) -> GradientPlan {
        let (root_a, root_b) = {
            let e = self.edge(root);
            (e.a, e.b)
        };
        let mut steps = Vec::with_capacity(self.n_edges().saturating_sub(1));
        // (parent, up neighbor, parent's up-edge — None at a root endpoint,
        // where the up side is the other endpoint's inward CLV).
        let mut stack: Vec<(NodeId, NodeId, Option<EdgeId>)> = Vec::new();
        if !self.is_tip(root_b) {
            stack.push((root_b, root_a, None));
        }
        if !self.is_tip(root_a) {
            stack.push((root_a, root_b, None));
        }
        while let Some((parent, up, up_edge)) = stack.pop() {
            let mut children: Vec<(NodeId, EdgeId)> = self
                .neighbors(parent)
                .iter()
                .filter(|&&(n, _)| n != up)
                .copied()
                .collect();
            debug_assert_eq!(children.len(), 2, "inner node must have 2 children");
            children.sort_by_key(|&(n, _)| n);
            let up_lengths = match up_edge {
                Some(e) => self.edge(e).lengths.clone(),
                None => self.edge(root).lengths.clone(),
            };
            for (idx, &(child, edge)) in children.iter().enumerate() {
                let (sib, sib_edge) = children[1 - idx];
                let up_src = GradSource {
                    node: up,
                    lengths: up_lengths.clone(),
                    from_outside: up_edge,
                };
                let sib_src = GradSource {
                    node: sib,
                    lengths: self.edge(sib_edge).lengths.clone(),
                    from_outside: None,
                };
                let (left, right) = if up < sib {
                    (up_src, sib_src)
                } else {
                    (sib_src, up_src)
                };
                steps.push(GradStep {
                    edge,
                    parent,
                    child,
                    lengths: self.edge(edge).lengths.clone(),
                    swap_sides: self.edge(edge).a == child,
                    left,
                    right,
                });
                if !self.is_tip(child) {
                    stack.push((child, parent, Some(edge)));
                }
            }
        }
        GradientPlan {
            root_edge: root,
            root_a,
            root_b,
            root_lengths: self.edge(root).lengths.clone(),
            n_edges: self.n_edges(),
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::Tree;

    #[test]
    fn full_traversal_covers_all_inner_nodes() {
        let mut t = Tree::random(10, 1, 1);
        let d = t.full_traversal_descriptor(0);
        assert_eq!(d.entries.len(), t.n_inner());
        // Every inner node appears exactly once as parent.
        let mut seen = std::collections::HashSet::new();
        for e in &d.entries {
            assert!(seen.insert(e.parent), "duplicate parent {}", e.parent);
            assert!(!t.is_tip(e.parent));
        }
    }

    #[test]
    fn descriptor_is_post_order() {
        let mut t = Tree::random(12, 1, 2);
        let d = t.full_traversal_descriptor(3);
        // A child inner node must be computed before its parent.
        let mut pos = std::collections::HashMap::new();
        for (i, e) in d.entries.iter().enumerate() {
            pos.insert(e.parent, i);
        }
        for (i, e) in d.entries.iter().enumerate() {
            for c in [e.left, e.right] {
                if let Some(&ci) = pos.get(&c) {
                    assert!(ci < i, "child {c} computed after parent {}", e.parent);
                }
            }
        }
    }

    #[test]
    fn second_traversal_at_same_root_is_empty() {
        let mut t = Tree::random(10, 1, 1);
        let _ = t.full_traversal_descriptor(0);
        let d2 = t.traversal_descriptor(0);
        assert!(
            d2.is_empty(),
            "CLVs were valid, descriptor should be empty: {d2:?}"
        );
    }

    #[test]
    fn moving_root_to_adjacent_edge_is_cheap() {
        let mut t = Tree::random(30, 1, 5);
        let _ = t.full_traversal_descriptor(0);
        // Re-rooting at a neighboring edge should recompute only the few
        // nodes whose orientation flips — the paper's 4–5 node average.
        let adjacent = t.edges_within_radius(0, 1)[0];
        let d = t.traversal_descriptor(adjacent);
        assert!(
            d.len() <= 3,
            "adjacent re-root should touch at most a few nodes, got {}",
            d.len()
        );
    }

    #[test]
    fn branch_change_triggers_partial_traversal() {
        let mut t = Tree::random(20, 1, 7);
        let root = 0;
        let _ = t.full_traversal_descriptor(root);
        // Change a branch far from the root edge: only nodes on the path
        // from that branch to the root need recomputation.
        let far = t.n_edges() - 1;
        t.set_length(far, 0, 0.5);
        let d = t.traversal_descriptor(root);
        assert!(!d.is_empty());
        assert!(
            d.len() < t.n_inner(),
            "partial traversal expected, got full ({})",
            d.len()
        );
    }

    #[test]
    fn wire_bytes_scale_with_partitions() {
        let mut t1 = Tree::random(10, 1, 1);
        let mut tp = Tree::random(10, 10, 1);
        let d1 = t1.full_traversal_descriptor(0);
        let dp = tp.full_traversal_descriptor(0);
        assert_eq!(d1.len(), dp.len());
        // Per-partition branch lengths inflate the descriptor ~10x in its
        // branch-length payload — the -M effect from §IV-D.
        assert!(
            dp.wire_bytes() > 5 * d1.wire_bytes(),
            "{} vs {}",
            dp.wire_bytes(),
            d1.wire_bytes()
        );
    }

    #[test]
    fn deterministic_across_clones() {
        let t0 = Tree::random(15, 1, 3);
        let mut a = t0.clone();
        let mut b = t0;
        let da = a.full_traversal_descriptor(2);
        let db = b.full_traversal_descriptor(2);
        assert_eq!(da, db);
    }

    #[test]
    fn gradient_plan_covers_every_nonroot_edge_once() {
        for seed in [1u64, 5, 9] {
            let t = Tree::random(14, 1, seed);
            for root in [0usize, 3, t.n_edges() - 1] {
                let plan = t.gradient_plan(root);
                assert_eq!(plan.n_edges, t.n_edges());
                assert_eq!(plan.steps.len(), t.n_edges() - 1);
                let mut seen = std::collections::HashSet::new();
                for s in &plan.steps {
                    assert_ne!(s.edge, root, "root edge must not appear as a step");
                    assert!(seen.insert(s.edge), "edge {} appears twice", s.edge);
                    let e = t.edge(s.edge);
                    assert!(
                        (e.a == s.parent && e.b == s.child) || (e.a == s.child && e.b == s.parent)
                    );
                    assert_eq!(s.swap_sides, e.a == s.child);
                }
            }
        }
    }

    #[test]
    fn gradient_plan_dependencies_resolve_in_order() {
        let t = Tree::random(20, 1, 7);
        let plan = t.gradient_plan(4);
        let mut done = std::collections::HashSet::new();
        for s in &plan.steps {
            for src in [&s.left, &s.right] {
                if let Some(dep) = src.from_outside {
                    assert!(
                        done.contains(&dep),
                        "step for edge {} reads outside CLV of edge {dep} before it exists",
                        s.edge
                    );
                } else {
                    // Inward sides come straight from the root-oriented CLV
                    // set (or a tip) — never from the root edge itself.
                    assert!(src.node < t.n_nodes());
                }
            }
            done.insert(s.edge);
        }
    }

    #[test]
    fn gradient_plan_sides_sorted_like_collect_entries() {
        let t = Tree::random(16, 1, 11);
        let plan = t.gradient_plan(0);
        for s in &plan.steps {
            assert!(
                s.left.node < s.right.node,
                "sources must keep the smaller-node-id-first child order"
            );
            // The two sources plus the child are exactly the parent's
            // neighborhood.
            let mut nbrs: Vec<_> = t.neighbors(s.parent).iter().map(|&(n, _)| n).collect();
            nbrs.sort_unstable();
            let mut got = vec![s.left.node, s.right.node, s.child];
            got.sort_unstable();
            assert_eq!(nbrs, got);
        }
    }

    #[test]
    fn gradient_plan_per_partition_lengths_ride_along() {
        let t = Tree::random(8, 3, 2);
        let plan = t.gradient_plan(1);
        assert_eq!(plan.root_lengths.len(), 3);
        for s in &plan.steps {
            assert_eq!(s.lengths.len(), 3);
            assert_eq!(s.lengths, t.edge(s.edge).lengths);
            assert_eq!(s.left.lengths.len(), 3);
            assert_eq!(s.right.lengths.len(), 3);
        }
        assert!(plan.wire_bytes() > 0);
    }
}

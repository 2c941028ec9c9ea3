//! Unrooted binary phylogenetic trees.
//!
//! Node ids `0..n_taxa` are tips (taxon indices); ids `n_taxa..2·n_taxa-2`
//! are inner nodes (each of degree 3). There are `2·n_taxa-3` edges; edge ids
//! are stable slots that SPR moves reuse, so conditional-likelihood buffers
//! indexed by node never need to grow. P-matrices are not kept per edge: the
//! kernels rebuild them on every call, because on the benchmark's
//! `tall_psr` search a per-edge slot would be current for only 42.5 % of
//! calls.
//!
//! The tree also tracks **CLV orientation validity**: for every inner node
//! `v`, `orientation[v] = Some(u)` records that the engine's CLV for `v`
//! currently summarizes the subtree seen from `v` when looking *away* from
//! neighbor `u`. Topology and branch-length mutations invalidate exactly the
//! CLVs whose subtree contains a changed edge (see [`Tree::invalidate_for_edge`]),
//! which is what keeps traversal descriptors short — the paper notes
//! descriptors average only 4–5 nodes (§III-B).
//!
//! Markers **survive surgery**. [`Tree::prune`], [`Tree::graft`],
//! [`Tree::ungraft`] and [`Tree::restore_prune`] each swap one neighbour of
//! an endpoint for another through the same edge slot (a graft of `x` into
//! `y`–`z` gives `y` the neighbour `x` where it had `z`). A marker naming
//! the swapped-out neighbour is re-pointed at the new one: the CLV behind it
//! covers exactly the same subtree before and after, because a CLV never
//! holds the length of the edge its marker names — the parent's `newview`
//! applies that one. Every other marker of a rewired node is cleared, so no
//! marker ever names a node that is not a current neighbour
//! ([`Tree::check_invariants`] rejects one that does). This is what lets a
//! lazy SPR pass score a candidate with 2.6–2.7 recomputed CLVs instead of
//! 4–5 (DESIGN.md §5 item 4).

pub mod bipartitions;
pub mod newick;
pub mod render;
pub mod traversal;

use rand_like::SplitMix64;
use serde::{Deserialize, Serialize};

/// Node identifier (tip: `< n_taxa`; inner: `>= n_taxa`).
pub type NodeId = usize;
/// Edge slot identifier, stable across SPR moves.
pub type EdgeId = usize;

/// Tag bits [`Tree::invalidate_for_edge`] sets in an orientation slot while
/// it walks (node ids never reach them): `WALKED` on the first visit, and
/// `STALE` when the marker did not name the first hop toward the edge.
const WALKED: NodeId = 1 << (NodeId::BITS - 1);
const STALE: NodeId = 1 << (NodeId::BITS - 2);

/// Default branch length for freshly created edges (RAxML's default).
pub const DEFAULT_BRANCH_LENGTH: f64 = 0.1;
/// Branch length bounds applied during optimization.
pub const BL_MIN: f64 = 1e-8;
pub const BL_MAX: f64 = 10.0;

/// One edge: endpoints plus its branch length(s) — one length under joint
/// branch-length estimation, one per partition under the paper's `-M`
/// per-partition mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    pub a: NodeId,
    pub b: NodeId,
    pub lengths: Vec<f64>,
}

impl Edge {
    /// The endpoint that is not `v`.
    pub fn other(&self, v: NodeId) -> NodeId {
        if self.a == v {
            self.b
        } else {
            debug_assert_eq!(self.b, v);
            self.a
        }
    }

    /// The branch length used by partition `part`.
    pub fn length(&self, part: usize) -> f64 {
        if self.lengths.len() == 1 {
            self.lengths[0]
        } else {
            self.lengths[part]
        }
    }
}

/// Record returned by [`Tree::prune`] holding everything needed to undo the
/// prune or to graft the pruned subtree elsewhere.
#[derive(Debug, Clone)]
pub struct PruneInfo {
    /// The pruned inner node (still attached to its subtree).
    pub x: NodeId,
    /// The neighbor of `x` on the subtree side (stays connected).
    pub sub: NodeId,
    /// The two former neighbors of `x`, now joined directly.
    pub q: NodeId,
    pub r: NodeId,
    /// Edge id now connecting `q`–`r` (reuses the old `x`–`q` slot).
    pub merged_edge: EdgeId,
    /// Freed edge slot (the old `x`–`r` edge), reused by the next graft.
    pub free_edge: EdgeId,
    /// Original branch lengths, for exact restoration.
    pub len_xq: Vec<f64>,
    pub len_xr: Vec<f64>,
}

/// Record returned by [`Tree::graft`] for undoing the graft.
#[derive(Debug, Clone)]
pub struct GraftInfo {
    /// The edge that was split (now connects `y`–`x`).
    pub target_edge: EdgeId,
    /// The new edge `x`–`z` (reuses the prune's freed slot).
    pub new_edge: EdgeId,
    /// The split edge's original endpoints and lengths.
    pub y: NodeId,
    pub z: NodeId,
    pub orig_len: Vec<f64>,
}

/// An unrooted binary tree over `n_taxa` tips.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tree {
    n_taxa: usize,
    /// Branch lengths per edge: 1 (joint) or `n_partitions` (per-partition).
    blen_count: usize,
    /// Adjacency: `(neighbor, edge id)` per node. Tips have 1 entry, inner
    /// nodes 3.
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    edges: Vec<Edge>,
    /// CLV validity per inner node (indexed `v - n_taxa`).
    orientation: Vec<Option<NodeId>>,
}

impl Tree {
    /// Total number of nodes (`2·n_taxa - 2`).
    pub fn n_nodes(&self) -> usize {
        2 * self.n_taxa - 2
    }

    /// Number of tips.
    pub fn n_taxa(&self) -> usize {
        self.n_taxa
    }

    /// Number of edges (`2·n_taxa - 3`).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of inner nodes (`n_taxa - 2`).
    pub fn n_inner(&self) -> usize {
        self.n_taxa - 2
    }

    /// Number of branch lengths per edge (1 = joint, else per-partition).
    pub fn blen_count(&self) -> usize {
        self.blen_count
    }

    /// Is `v` a tip?
    pub fn is_tip(&self, v: NodeId) -> bool {
        v < self.n_taxa
    }

    /// Inner-node index of `v` (panics on tips).
    pub fn inner_index(&self, v: NodeId) -> usize {
        debug_assert!(!self.is_tip(v));
        v - self.n_taxa
    }

    /// Neighbors of `v` as `(node, edge)` pairs.
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[v]
    }

    /// The edge record of `e`.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e]
    }

    /// Edge connecting `a` and `b`, if they are adjacent.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.adj[a].iter().find(|&&(n, _)| n == b).map(|&(_, e)| e)
    }

    /// All edge ids (0..n_edges — every slot is always in use).
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        0..self.edges.len()
    }

    /// Build a star-resolved random topology by stepwise random attachment,
    /// deterministic in `seed`. All branch lengths start at
    /// [`DEFAULT_BRANCH_LENGTH`].
    ///
    /// # Panics
    /// Panics if `n_taxa < 3` or `blen_count == 0`.
    pub fn random(n_taxa: usize, blen_count: usize, seed: u64) -> Tree {
        assert!(n_taxa >= 3, "need at least 3 taxa, got {n_taxa}");
        assert!(blen_count >= 1);
        let mut rng = SplitMix64::new(seed);
        let mut t = Tree::initial_triplet(n_taxa, blen_count);
        for taxon in 3..n_taxa {
            let e = (rng.next() % t.edges.len() as u64) as EdgeId;
            t.attach_tip(taxon, e);
        }
        t
    }

    /// The 3-taxon starting tree: tips 0,1,2 joined at inner node `n_taxa`.
    fn initial_triplet(n_taxa: usize, blen_count: usize) -> Tree {
        Tree::triplet(n_taxa, blen_count, [0, 1, 2])
    }

    /// A partial tree over three chosen tips joined at inner node `n_taxa`,
    /// with capacity for all `n_taxa` tips; the rest are attached later via
    /// [`Tree::attach_tip`] (stepwise-addition constructions).
    ///
    /// # Panics
    /// Panics if the three tips are not distinct valid taxon ids.
    pub fn triplet(n_taxa: usize, blen_count: usize, tips: [NodeId; 3]) -> Tree {
        assert!(n_taxa >= 3 && blen_count >= 1);
        assert!(
            tips[0] != tips[1] && tips[1] != tips[2] && tips[0] != tips[2],
            "triplet tips must be distinct"
        );
        let n_nodes = 2 * n_taxa - 2;
        let mut t = Tree {
            n_taxa,
            blen_count,
            adj: vec![Vec::new(); n_nodes],
            edges: Vec::with_capacity(2 * n_taxa - 3),
            orientation: vec![None; n_taxa - 2],
        };
        let center = n_taxa;
        for &tip in &tips {
            assert!(tip < n_taxa, "triplet member {tip} is not a tip");
            let e = t.edges.len();
            t.edges.push(Edge {
                a: tip,
                b: center,
                lengths: vec![DEFAULT_BRANCH_LENGTH; blen_count],
            });
            t.adj[tip].push((center, e));
            t.adj[center].push((tip, e));
        }
        t
    }

    /// Attach tip `taxon` (not yet in the tree) into edge `e`, creating the
    /// next unused inner node. Used by stepwise-addition constructions.
    pub fn attach_tip(&mut self, taxon: NodeId, e: EdgeId) -> NodeId {
        debug_assert!(
            self.is_tip(taxon) && self.adj[taxon].is_empty(),
            "taxon already attached"
        );
        // The next unused inner node: 3 tips use 1 inner; tip k uses inner k-2.
        let used_inner = self.adj[self.n_taxa..]
            .iter()
            .filter(|a| !a.is_empty())
            .count();
        let x = self.n_taxa + used_inner;
        debug_assert!(self.adj[x].is_empty(), "inner node {x} already in use");

        let Edge { a, b, lengths } = self.edges[e].clone();
        // Split e = (a,b) into (a,x) [reusing slot e] and (x,b) [new slot],
        // then hang the new tip off x.
        let half: Vec<f64> = lengths.iter().map(|l| (l / 2.0).max(BL_MIN)).collect();
        self.edges[e] = Edge {
            a,
            b: x,
            lengths: half.clone(),
        };
        self.adj[a].iter_mut().for_each(|p| {
            if p.1 == e {
                p.0 = x;
            }
        });
        self.remove_adj(b, e);
        let e2 = self.edges.len();
        self.edges.push(Edge {
            a: x,
            b,
            lengths: half,
        });
        self.adj[b].push((x, e2));
        let e3 = self.edges.len();
        self.edges.push(Edge {
            a: taxon,
            b: x,
            lengths: vec![DEFAULT_BRANCH_LENGTH; self.blen_count],
        });
        self.adj[taxon].push((x, e3));
        self.adj[x].push((a, e));
        self.adj[x].push((b, e2));
        self.adj[x].push((taxon, e3));
        self.invalidate_all();
        x
    }

    fn remove_adj(&mut self, at: NodeId, edge: EdgeId) {
        let pos = self.adj[at]
            .iter()
            .position(|&(_, e)| e == edge)
            .expect("adjacency entry missing");
        self.adj[at].swap_remove(pos);
    }

    /// Set branch length(s) of edge `e` for partition `part` (or all
    /// partitions when the tree uses joint lengths), then invalidate
    /// dependent CLVs.
    pub fn set_length(&mut self, e: EdgeId, part: usize, value: f64) {
        let v = value.clamp(BL_MIN, BL_MAX);
        if self.blen_count == 1 {
            self.edges[e].lengths[0] = v;
        } else {
            self.edges[e].lengths[part] = v;
        }
        self.invalidate_for_edge(e);
    }

    /// Set all branch lengths of edge `e` at once (length `blen_count`).
    pub fn set_lengths(&mut self, e: EdgeId, values: &[f64]) {
        assert_eq!(values.len(), self.blen_count);
        for (slot, &v) in self.edges[e].lengths.iter_mut().zip(values) {
            *slot = v.clamp(BL_MIN, BL_MAX);
        }
        self.invalidate_for_edge(e);
    }

    /// Mark every inner CLV invalid (model change, fresh tree, restart).
    pub fn invalidate_all(&mut self) {
        for o in self.orientation.iter_mut() {
            *o = None;
        }
    }

    /// CLV orientation bookkeeping — see module docs. Invalidate every inner
    /// CLV whose summarized subtree contains edge `e`: a marker survives only
    /// if it names the first node on the path from its node toward `e` (for
    /// an endpoint, the other endpoint). Markers in a component `e` does not
    /// belong to (a pruned subtree) are cleared.
    ///
    /// Allocation-free and stackless: each side of `e` is walked as an Euler
    /// tour (a node entered from neighbour `w` is left to the neighbour after
    /// `w` in its adjacency list, cyclically), which returns to where it
    /// started without a stack. The first visit to an inner node tags its
    /// orientation slot [`WALKED`], plus [`STALE`] when the marker does not
    /// name the node the walk came from; a final pass over the slots keeps
    /// the tagged markers that are not stale and clears the rest.
    pub fn invalidate_for_edge(&mut self, e: EdgeId) {
        let (a, b) = (self.edges[e].a, self.edges[e].b);
        self.walk_away_from(a, b);
        self.walk_away_from(b, a);
        self.keep_walked();
    }

    /// [`Tree::invalidate_for_edge`] for every edge at inner node `x` at
    /// once (the first hop toward any of them is the first hop toward `x`),
    /// clearing `x`'s own marker: one walk where two calls would make two.
    fn invalidate_around(&mut self, x: NodeId) {
        for i in 0..self.adj[x].len() {
            let w = self.adj[x][i].0;
            self.walk_away_from(w, x);
        }
        self.keep_walked();
    }

    /// The final pass of [`Tree::invalidate_for_edge`]: untag the walked
    /// markers that are not stale, clear every other.
    fn keep_walked(&mut self) {
        for o in self.orientation.iter_mut() {
            *o = match *o {
                Some(tag) if tag & (WALKED | STALE) == WALKED => Some(tag & !WALKED),
                _ => None,
            };
        }
    }

    /// Tag every inner node on `root`'s side of its edge to `parent` (see
    /// [`Tree::invalidate_for_edge`]).
    fn walk_away_from(&mut self, root: NodeId, parent: NodeId) {
        let (mut v, mut from) = (root, parent);
        loop {
            if self.is_tip(v) {
                if v == root {
                    return;
                }
                (v, from) = (from, v);
                continue;
            }
            let idx = self.inner_index(v);
            match self.orientation[idx] {
                Some(tag) if tag & WALKED != 0 => {}
                // First visit: `from` is the first hop toward the edge.
                marker if marker == Some(from) => self.orientation[idx] = Some(from | WALKED),
                _ => self.orientation[idx] = Some(WALKED | STALE),
            }
            let adj = &self.adj[v];
            let at = adj
                .iter()
                .position(|&(n, _)| n == from)
                .expect("the walk enters through an edge");
            let next = adj[(at + 1) % adj.len()].0;
            if v == root && next == parent {
                return;
            }
            (v, from) = (next, v);
        }
    }

    /// Current CLV orientation of inner node `v`.
    pub fn orientation_of(&self, v: NodeId) -> Option<NodeId> {
        self.orientation[self.inner_index(v)]
    }

    /// Record that the engine is about to make CLV(`v` → `toward`) valid.
    pub(crate) fn set_orientation(&mut self, v: NodeId, toward: NodeId) {
        let idx = self.inner_index(v);
        self.orientation[idx] = Some(toward);
    }

    /// Orientation markers name the neighbor a CLV points at by node id.
    /// When a node's adjacency is rewired, an old marker can collide with a
    /// *new* neighbor of the same id (e.g. a pruned node re-grafted next to
    /// a node that still remembers pointing at it) and would pass for
    /// valid. Every topology operation therefore clears the markers of all
    /// nodes whose adjacency it touches — except a marker naming the
    /// neighbour the operation swapped out through the same edge slot,
    /// which [`Tree::repoint_orientation`] moves to the new neighbour.
    fn clear_orientation(&mut self, v: NodeId) {
        if !self.is_tip(v) {
            let idx = self.inner_index(v);
            self.orientation[idx] = None;
        }
    }

    /// `v`'s edge slot that led to `old` now leads to `new`: a marker naming
    /// `old` is re-pointed at `new` (the CLV covers the same subtree — see
    /// the module docs); any other marker of `v` is cleared. Called right
    /// after rewiring; an invalidation after it keeps the re-pointed marker,
    /// which names the first hop toward the changed edges.
    fn repoint_orientation(&mut self, v: NodeId, old: NodeId, new: NodeId) {
        if !self.is_tip(v) {
            let idx = self.inner_index(v);
            let o = &mut self.orientation[idx];
            *o = if *o == Some(old) { Some(new) } else { None };
        }
    }

    /// Prune the subtree hanging off inner node `x` on its `sub` side:
    /// `x`'s other two neighbors `q`, `r` are joined directly (their branch
    /// lengths add), and `x`+subtree dangle free.
    ///
    /// # Panics
    /// Panics if `x` is a tip or `sub` is not a neighbor of `x`.
    pub fn prune(&mut self, x: NodeId, sub: NodeId) -> PruneInfo {
        assert!(!self.is_tip(x), "cannot prune at tip {x}");
        let nbrs: Vec<(NodeId, EdgeId)> = self.adj[x].clone();
        assert!(
            nbrs.iter().any(|&(n, _)| n == sub),
            "{sub} is not a neighbor of {x}"
        );
        let mut others = nbrs.iter().filter(|&&(n, _)| n != sub);
        let (q, eq) = *others.next().expect("inner node must have 3 neighbors");
        let (r, er) = *others.next().expect("inner node must have 3 neighbors");

        let len_xq = self.edges[eq].lengths.clone();
        let len_xr = self.edges[er].lengths.clone();

        // Invalidate CLVs that depended on the region before rewiring.
        self.invalidate_around(x);

        // Merge: slot eq becomes q–r with summed lengths; slot er is freed.
        let merged: Vec<f64> = len_xq
            .iter()
            .zip(&len_xr)
            .map(|(a, b)| (a + b).clamp(BL_MIN, BL_MAX))
            .collect();
        self.edges[eq] = Edge {
            a: q,
            b: r,
            lengths: merged,
        };
        // Rewire adjacency: q keeps edge eq but neighbor becomes r; r's
        // entry for er is rewritten to (q, eq); x loses q and r.
        for p in self.adj[q].iter_mut() {
            if p.1 == eq {
                p.0 = r;
            }
        }
        for p in self.adj[r].iter_mut() {
            if p.1 == er {
                *p = (q, eq);
            }
        }
        self.remove_adj(x, eq);
        self.remove_adj(x, er);
        // q's and r's slots that led to x now lead to each other; x's
        // marker is cleared (see clear_orientation).
        self.repoint_orientation(q, x, r);
        self.repoint_orientation(r, x, q);
        self.clear_orientation(x);

        PruneInfo {
            x,
            sub,
            q,
            r,
            merged_edge: eq,
            free_edge: er,
            len_xq,
            len_xr,
        }
    }

    /// Graft the pruned subtree (from `info`) into `target` = (y,z): the
    /// target splits into (y,x) [slot kept] and (x,z) [freed slot reused],
    /// each taking half the target's length.
    ///
    /// # Panics
    /// Panics if `target` is the pruned subtree's own attachment edge.
    pub fn graft(&mut self, info: &PruneInfo, target: EdgeId) -> GraftInfo {
        let x = info.x;
        let Edge {
            a: y,
            b: z,
            lengths: orig,
        } = self.edges[target].clone();
        assert!(y != x && z != x, "cannot graft into the subtree's own edge");
        debug_assert!(
            {
                // The target must lie in the main component, not in the
                // dangling subtree (reachable from x while detached).
                let mut seen = vec![false; self.n_nodes()];
                let mut stack = vec![x];
                seen[x] = true;
                while let Some(v) = stack.pop() {
                    for &(w, _) in &self.adj[v] {
                        if !seen[w] {
                            seen[w] = true;
                            stack.push(w);
                        }
                    }
                }
                !seen[y] && !seen[z]
            },
            "graft target {target} lies inside the pruned subtree"
        );
        let half: Vec<f64> = orig.iter().map(|l| (l / 2.0).max(BL_MIN)).collect();

        self.edges[target] = Edge {
            a: y,
            b: x,
            lengths: half.clone(),
        };
        for p in self.adj[y].iter_mut() {
            if p.1 == target {
                p.0 = x;
            }
        }
        // z: entry for `target` is replaced with the new edge.
        let ez = info.free_edge;
        for p in self.adj[z].iter_mut() {
            if p.1 == target {
                *p = (x, ez);
            }
        }
        self.edges[ez] = Edge {
            a: x,
            b: z,
            lengths: half,
        };
        self.adj[x].push((y, target));
        self.adj[x].push((z, ez));
        self.repoint_orientation(y, z, x);
        self.repoint_orientation(z, y, x);
        self.clear_orientation(x);
        self.invalidate_around(x);

        GraftInfo {
            target_edge: target,
            new_edge: ez,
            y,
            z,
            orig_len: orig,
        }
    }

    /// Undo a graft: detach `info.x` again, restoring the split edge.
    /// Afterwards the tree is back in the pruned state.
    pub fn ungraft(&mut self, g: &GraftInfo, p: &PruneInfo) {
        let x = p.x;
        self.invalidate_around(x);
        // Restore target edge y–z with original lengths.
        self.edges[g.target_edge] = Edge {
            a: g.y,
            b: g.z,
            lengths: g.orig_len.clone(),
        };
        for q in self.adj[g.y].iter_mut() {
            if q.1 == g.target_edge {
                q.0 = g.z;
            }
        }
        for q in self.adj[g.z].iter_mut() {
            if q.1 == g.new_edge {
                *q = (g.y, g.target_edge);
            }
        }
        self.remove_adj(x, g.target_edge);
        self.remove_adj(x, g.new_edge);
        self.repoint_orientation(g.y, x, g.z);
        self.repoint_orientation(g.z, x, g.y);
        self.clear_orientation(x);
    }

    /// Re-insert a pruned subtree at its original location with its original
    /// branch lengths, exactly undoing [`Tree::prune`].
    pub fn restore_prune(&mut self, p: &PruneInfo) {
        let x = p.x;
        self.invalidate_for_edge(p.merged_edge);
        // merged_edge currently q–r; split back into q–x (same slot) and
        // x–r (freed slot), with the exact original lengths.
        self.edges[p.merged_edge] = Edge {
            a: p.q,
            b: x,
            lengths: p.len_xq.clone(),
        };
        for e in self.adj[p.q].iter_mut() {
            if e.1 == p.merged_edge {
                e.0 = x;
            }
        }
        for e in self.adj[p.r].iter_mut() {
            if e.1 == p.merged_edge {
                *e = (x, p.free_edge);
            }
        }
        self.edges[p.free_edge] = Edge {
            a: x,
            b: p.r,
            lengths: p.len_xr.clone(),
        };
        self.adj[x].push((p.q, p.merged_edge));
        self.adj[x].push((p.r, p.free_edge));
        self.repoint_orientation(p.q, p.r, x);
        self.repoint_orientation(p.r, p.q, x);
        self.clear_orientation(x);
        self.invalidate_around(x);
    }

    /// Edges within `radius` hops of edge `start` (breadth-first over the
    /// line graph), excluding `start` itself. Used to enumerate SPR
    /// insertion candidates.
    pub fn edges_within_radius(&self, start: EdgeId, radius: usize) -> Vec<EdgeId> {
        let mut dist: Vec<Option<usize>> = vec![None; self.edges.len()];
        dist[start] = Some(0);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        let mut out = Vec::new();
        while let Some(e) = queue.pop_front() {
            let d = dist[e].unwrap();
            if d == radius {
                continue;
            }
            for v in [self.edges[e].a, self.edges[e].b] {
                for &(_, e2) in &self.adj[v] {
                    if dist[e2].is_none() {
                        dist[e2] = Some(d + 1);
                        out.push(e2);
                        queue.push_back(e2);
                    }
                }
            }
        }
        out
    }

    /// The edges of [`Tree::edges_within_radius`] (the same set), in
    /// depth-first pre-order from `start`: every edge on `start.a`'s side
    /// before any on `start.b`'s, and each branch finished before the next
    /// begins, children in adjacency order. Scoring SPR candidates in this
    /// order moves the virtual root one edge at a time, so consecutive
    /// candidates share nearly all of their CLVs.
    pub fn edges_within_radius_depth_first(&self, start: EdgeId, radius: usize) -> Vec<EdgeId> {
        let mut out = Vec::new();
        // (edge, its endpoint away from `start`, its distance from `start`)
        let mut stack: Vec<(EdgeId, NodeId, usize)> = Vec::new();
        let push_beyond = |stack: &mut Vec<_>, v: NodeId, via: EdgeId, d: usize| {
            if d <= radius {
                let branches = self.adj[v].iter().rev().filter(|&&(_, e)| e != via);
                stack.extend(branches.map(|&(w, e)| (e, w, d)));
            }
        };
        push_beyond(&mut stack, self.edges[start].b, start, 1);
        push_beyond(&mut stack, self.edges[start].a, start, 1);
        while let Some((e, far, d)) = stack.pop() {
            out.push(e);
            push_beyond(&mut stack, far, e, d + 1);
        }
        out
    }

    /// Verify all structural invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.n_taxa;
        if self.edges.len() != 2 * n - 3 {
            return Err(format!(
                "expected {} edges, found {}",
                2 * n - 3,
                self.edges.len()
            ));
        }
        for v in 0..self.n_nodes() {
            let deg = self.adj[v].len();
            let expect = if self.is_tip(v) { 1 } else { 3 };
            if deg != expect {
                return Err(format!("node {v} has degree {deg}, expected {expect}"));
            }
            for &(w, e) in &self.adj[v] {
                let edge = &self.edges[e];
                if !((edge.a == v && edge.b == w) || (edge.a == w && edge.b == v)) {
                    return Err(format!("adjacency ({v},{w}) disagrees with edge {e:?}"));
                }
                if !self.adj[w].iter().any(|&(u, e2)| u == v && e2 == e) {
                    return Err(format!("asymmetric adjacency between {v} and {w}"));
                }
            }
        }
        // Connectivity.
        let mut seen = vec![false; self.n_nodes()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 0;
        while let Some(v) = stack.pop() {
            count += 1;
            for &(w, _) in &self.adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        if count != self.n_nodes() {
            return Err(format!(
                "tree not connected: reached {count} of {}",
                self.n_nodes()
            ));
        }
        // A marker naming a non-neighbour could collide with a future
        // neighbour of that id (see `clear_orientation`).
        for v in n..self.n_nodes() {
            if let Some(u) = self.orientation_of(v) {
                if self.edge_between(v, u).is_none() {
                    return Err(format!("node {v} has a marker naming non-neighbour {u}"));
                }
            }
        }
        for e in &self.edges {
            if e.lengths.len() != self.blen_count {
                return Err("edge with wrong branch-length arity".into());
            }
            for &l in &e.lengths {
                if !(BL_MIN..=BL_MAX).contains(&l) {
                    return Err(format!("branch length {l} out of bounds"));
                }
            }
        }
        Ok(())
    }
}

/// A tiny deterministic RNG (SplitMix64) so tree construction does not pull
/// the `rand` crate into the engine's dependency set.
mod rand_like {
    pub struct SplitMix64 {
        state: u64,
    }

    impl SplitMix64 {
        pub fn new(seed: u64) -> SplitMix64 {
            SplitMix64 { state: seed }
        }

        pub fn next(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_tree_valid_for_various_sizes() {
        for n in [3usize, 4, 5, 8, 16, 52] {
            let t = Tree::random(n, 1, 42);
            t.check_invariants().unwrap();
            assert_eq!(t.n_edges(), 2 * n - 3);
            assert_eq!(t.n_inner(), n - 2);
        }
    }

    #[test]
    fn random_tree_deterministic_in_seed() {
        let a = Tree::random(20, 1, 7);
        let b = Tree::random(20, 1, 7);
        let c = Tree::random(20, 1, 8);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn per_partition_branch_lengths() {
        let t = Tree::random(6, 5, 1);
        t.check_invariants().unwrap();
        for e in 0..t.n_edges() {
            assert_eq!(t.edge(e).lengths.len(), 5);
            assert_eq!(t.edge(e).length(3), t.edge(e).lengths[3]);
        }
    }

    #[test]
    fn set_length_clamps() {
        let mut t = Tree::random(5, 1, 1);
        t.set_length(0, 0, 1e9);
        assert_eq!(t.edge(0).length(0), BL_MAX);
        t.set_length(0, 0, 0.0);
        assert_eq!(t.edge(0).length(0), BL_MIN);
    }

    #[test]
    fn prune_then_restore_is_identity() {
        let mut t = Tree::random(10, 1, 3);
        let before = t.clone();
        // Pick an inner node and a neighbor to treat as subtree side.
        let x = t.n_taxa();
        let sub = t.neighbors(x)[0].0;
        let info = t.prune(x, sub);
        // During prune state: x has degree 1 toward sub.
        assert_eq!(t.neighbors(x).len(), 1);
        t.restore_prune(&info);
        t.check_invariants().unwrap();
        // Topology and lengths identical (adjacency order may differ).
        for e in 0..t.n_edges() {
            let (ea, eb) = (t.edge(e).a.min(t.edge(e).b), t.edge(e).a.max(t.edge(e).b));
            let (ba, bb) = (
                before.edge(e).a.min(before.edge(e).b),
                before.edge(e).a.max(before.edge(e).b),
            );
            assert_eq!((ea, eb), (ba, bb), "edge {e}");
            assert_eq!(t.edge(e).lengths, before.edge(e).lengths, "edge {e}");
        }
    }

    #[test]
    fn graft_then_ungraft_returns_to_pruned_state() {
        let mut t = Tree::random(10, 1, 5);
        let x = t.n_taxa() + 2;
        let sub = t.neighbors(x)[1].0;
        let info = t.prune(x, sub);
        // Graft into the main component: BFS from the merged edge can never
        // reach the dangling subtree.
        let candidates = t.edges_within_radius(info.merged_edge, usize::MAX);
        let target = *candidates
            .iter()
            .find(|&&e| {
                let ed = t.edge(e);
                ed.a != x && ed.b != x && e != info.free_edge
            })
            .unwrap();
        let g = t.graft(&info, target);
        t.check_invariants().unwrap();
        t.ungraft(&g, &info);
        t.restore_prune(&info);
        t.check_invariants().unwrap();
    }

    #[test]
    fn spr_move_changes_topology() {
        let mut t = Tree::random(12, 1, 9);
        let before = t.clone();
        let x = t.n_taxa() + 1;
        let sub = t.neighbors(x)[0].0;
        let info = t.prune(x, sub);
        let candidates = t.edges_within_radius(info.merged_edge, 3);
        let target = *candidates
            .iter()
            .find(|&&e| {
                let ed = t.edge(e);
                ed.a != x && ed.b != x && e != info.free_edge
            })
            .unwrap();
        t.graft(&info, target);
        t.check_invariants().unwrap();
        let rf = bipartitions::rf_distance(&before, &t);
        assert!(rf > 0, "SPR should alter the topology");
    }

    #[test]
    fn edges_within_radius_bounded() {
        let t = Tree::random(30, 1, 11);
        let r1 = t.edges_within_radius(0, 1);
        let r3 = t.edges_within_radius(0, 3);
        assert!(r1.len() <= r3.len());
        assert!(!r3.contains(&0));
        // Radius 1 from an edge touches at most 4 other edges.
        assert!(r1.len() <= 4, "{r1:?}");
    }

    /// The first hop from every node toward edge `e` by breadth-first
    /// search (`None` outside `e`'s component).
    fn hops_toward(t: &Tree, e: EdgeId) -> Vec<Option<NodeId>> {
        let (a, b) = (t.edge(e).a, t.edge(e).b);
        let mut hop: Vec<Option<NodeId>> = vec![None; t.n_nodes()];
        hop[a] = Some(b);
        hop[b] = Some(a);
        let mut queue = std::collections::VecDeque::from([a, b]);
        while let Some(v) = queue.pop_front() {
            for &(w, _) in t.neighbors(v) {
                if hop[w].is_none() && !(v == a && w == b) && !(v == b && w == a) {
                    hop[w] = Some(v);
                    queue.push_back(w);
                }
            }
        }
        hop
    }

    #[test]
    fn invalidation_keeps_exactly_the_markers_pointing_at_the_edge() {
        let mut rng = SplitMix64::new(5);
        for (n, seed) in [(4usize, 1u64), (8, 2), (13, 3), (40, 4)] {
            let mut t = Tree::random(n, 1, seed);
            for round in 0..40 {
                // A pruned tree has a component the edge does not reach.
                let pruned = (round % 3 == 0).then(|| {
                    let x = n + (rng.next() as usize % t.n_inner());
                    let sub = t.neighbors(x)[rng.next() as usize % 3].0;
                    t.prune(x, sub)
                });
                for v in n..t.n_nodes() {
                    let k = rng.next() as usize % (t.neighbors(v).len() + 1);
                    t.orientation[v - n] = t.neighbors(v).get(k).map(|&(u, _)| u);
                }
                let e = match &pruned {
                    Some(info) => info.merged_edge,
                    None => rng.next() as usize % t.n_edges(),
                };
                let hop = hops_toward(&t, e);
                let before: Vec<_> = (n..t.n_nodes()).map(|v| t.orientation_of(v)).collect();
                if pruned.is_none() {
                    // Around an inner node = on two of its edges.
                    let x = n + (rng.next() as usize % t.n_inner());
                    let (mut one, mut two) = (t.clone(), t.clone());
                    one.invalidate_around(x);
                    two.invalidate_for_edge(t.neighbors(x)[0].1);
                    two.invalidate_for_edge(t.neighbors(x)[2].1);
                    assert_eq!(
                        one.orientation, two.orientation,
                        "n {n} round {round} around {x}"
                    );
                }
                t.invalidate_for_edge(e);
                for v in n..t.n_nodes() {
                    let kept = before[v - n].filter(|&u| Some(u) == hop[v]);
                    assert_eq!(t.orientation_of(v), kept, "n {n} round {round} node {v}");
                }
                if let Some(info) = pruned {
                    t.restore_prune(&info);
                }
            }
        }
    }

    #[test]
    fn invalidation_after_length_change() {
        let mut t = Tree::random(8, 1, 2);
        // Pretend all CLVs valid, oriented arbitrarily toward neighbor 0.
        for v in t.n_taxa()..t.n_nodes() {
            let toward = t.neighbors(v)[0].0;
            t.set_orientation(v, toward);
        }
        let e = 0;
        t.set_length(e, 0, 0.2);
        // Every surviving orientation must be the unique first hop from its
        // node toward edge e (recomputed here independently via BFS).
        let (a, b) = (t.edge(e).a, t.edge(e).b);
        let mut hop: Vec<Option<NodeId>> = vec![None; t.n_nodes()];
        hop[a] = Some(b);
        hop[b] = Some(a);
        let mut queue = std::collections::VecDeque::from([a, b]);
        while let Some(v) = queue.pop_front() {
            for &(w, _) in t.neighbors(v) {
                if hop[w].is_none() && !(v == a && w == b) && !(v == b && w == a) {
                    hop[w] = Some(v);
                    queue.push_back(w);
                }
            }
        }
        for v in t.n_taxa()..t.n_nodes() {
            if let Some(u) = t.orientation_of(v) {
                assert_eq!(Some(u), hop[v], "node {v} kept a stale CLV");
            }
        }
    }

    #[test]
    fn invalidate_keeps_clvs_pointing_at_edge() {
        // Chain-like check on a known small tree: 4 taxa, 2 inner nodes.
        // inner nodes 4 and 5; edge between them is the internal edge.
        let mut t = Tree::random(4, 1, 1);
        t.check_invariants().unwrap();
        let (i1, i2) = (4, 5);
        let internal = t
            .edge_between(i1, i2)
            .expect("inner nodes adjacent in 4-taxon tree");
        t.set_orientation(i1, i2);
        t.set_orientation(i2, i1);
        // Changing the internal edge keeps both (they point at it).
        t.set_length(internal, 0, 0.3);
        assert_eq!(t.orientation_of(i1), Some(i2));
        assert_eq!(t.orientation_of(i2), Some(i1));
        // Changing a pendant edge at i1 invalidates i1 (its subtree contains
        // that edge? i1 points toward i2, so its subtree is on the far side
        // of i2... the pendant at i1 IS in i2's summarized subtree).
        let pendant_at_i1 = t
            .neighbors(i1)
            .iter()
            .find(|&&(n, _)| t.is_tip(n))
            .map(|&(_, e)| e)
            .unwrap();
        t.set_length(pendant_at_i1, 0, 0.2);
        // CLV(i1 → i2) summarizes i1's side which contains the pendant: stale.
        assert_eq!(t.orientation_of(i1), None);
        // CLV(i2 → i1) summarizes i2's far side, not containing it: valid.
        assert_eq!(t.orientation_of(i2), Some(i1));
    }

    #[test]
    fn depth_first_radius_is_the_breadth_first_set_one_branch_at_a_time() {
        for (n, seed) in [(5usize, 1u64), (12, 4), (30, 11), (41, 2)] {
            let t = Tree::random(n, 1, seed);
            for start in [0, t.n_edges() / 2, t.n_edges() - 1] {
                for radius in [0usize, 1, 2, 5, usize::MAX] {
                    let mut bfs = t.edges_within_radius(start, radius);
                    let dfs = t.edges_within_radius_depth_first(start, radius);
                    let mut same = dfs.clone();
                    bfs.sort_unstable();
                    same.sort_unstable();
                    assert_eq!(bfs, same, "n {n} start {start} radius {radius}");
                    // Pre-order: an edge's parent (the adjacent edge one
                    // hop nearer `start`) comes before it, with only edges
                    // deeper than the parent in between.
                    let dist = |e: EdgeId| {
                        (1..)
                            .find(|&r| t.edges_within_radius(start, r).contains(&e))
                            .unwrap()
                    };
                    for (i, &e) in dfs.iter().enumerate() {
                        let d = dist(e);
                        if d == 1 {
                            continue;
                        }
                        let j = dfs[..i]
                            .iter()
                            .rposition(|&p| {
                                let (pe, ce) = (t.edge(p), t.edge(e));
                                dist(p) == d - 1
                                    && [pe.a, pe.b].iter().any(|&v| v == ce.a || v == ce.b)
                            })
                            .expect("parent edge scored first");
                        assert!(dfs[j + 1..i].iter().all(|&m| dist(m) >= d));
                    }
                }
            }
        }
    }

    #[test]
    fn markers_follow_the_swapped_slot_through_surgery() {
        let mut t = Tree::random(16, 1, 9);
        let n = t.n_taxa();
        // An inner node with two inner neighbours besides `sub`.
        let (x, sub) = (n..t.n_nodes())
            .find_map(|x| {
                let nb = t.neighbors(x);
                let inner = |v: NodeId| !t.is_tip(v);
                (0..3).find_map(|i| {
                    let others = (0..3).filter(|&j| j != i).all(|j| inner(nb[j].0));
                    others.then_some((x, nb[i].0))
                })
            })
            .unwrap();
        let (q, r) = {
            let mut others = t.neighbors(x).iter().map(|&(v, _)| v).filter(|&v| v != sub);
            (others.next().unwrap(), others.next().unwrap())
        };
        t.set_orientation(q, x);
        t.set_orientation(r, x);
        let info = t.prune(x, sub);
        assert_eq!((info.q, info.r), (q, r));
        assert_eq!(
            (t.orientation_of(q), t.orientation_of(r)),
            (Some(r), Some(q))
        );

        // A target edge between two inner nodes of the main component.
        let target = t
            .edges_within_radius(info.merged_edge, usize::MAX)
            .into_iter()
            .find(|&e| !t.is_tip(t.edge(e).a) && !t.is_tip(t.edge(e).b))
            .unwrap();
        let (y, z) = (t.edge(target).a, t.edge(target).b);
        t.set_orientation(y, z);
        t.set_orientation(z, y);
        let g = t.graft(&info, target);
        assert_eq!(
            (t.orientation_of(y), t.orientation_of(z)),
            (Some(x), Some(x))
        );
        assert_eq!(t.orientation_of(x), None);
        t.check_invariants().unwrap();
        t.ungraft(&g, &info);
        assert_eq!(
            (t.orientation_of(y), t.orientation_of(z)),
            (Some(z), Some(y))
        );

        // A marker naming any other neighbour covers the split edge: cleared.
        let w = t
            .neighbors(y)
            .iter()
            .map(|&(v, _)| v)
            .find(|&v| v != z)
            .unwrap();
        t.set_orientation(y, w);
        let g = t.graft(&info, target);
        assert_eq!((t.orientation_of(y), t.orientation_of(z)), (None, Some(x)));
        t.ungraft(&g, &info);
        assert_eq!((t.orientation_of(y), t.orientation_of(z)), (None, Some(y)));

        t.set_orientation(q, r);
        t.set_orientation(r, q);
        t.restore_prune(&info);
        assert_eq!(
            (t.orientation_of(q), t.orientation_of(r)),
            (Some(x), Some(x))
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn check_invariants_catches_corruption() {
        let mut t = Tree::random(5, 1, 1);
        t.edges[0].lengths[0] = 99.0; // out of bounds
        assert!(t.check_invariants().is_err());
    }
}

//! Subtree-repeat CLV compression for `newview`.
//!
//! Per inner node the engine keeps the node's [`RepeatClasses`] (built
//! bottom-up from the two children's class ids, see [`exa_bio::repeats`]).
//! `newview` then runs only over class *representatives* and stores the
//! node's CLV and scaling counts by class: row `j` holds class `j`, whose
//! representative is `representatives[j]` (classes are numbered by first
//! occurrence). Every reader reaches pattern `i` at row `class_of[i]`, so
//! duplicates are never written and a traversal touches one row per class.
//! Because a per-pattern `newview` column depends only on that pattern's
//! child columns (no cross-pattern accumulation), every row holds exactly
//! the bits a full computation would have produced at any of its class's
//! patterns — repeats on/off changes wall-clock, never bits.
//!
//! A node whose CLV was last written uncompressed (compression off, or an
//! entry that fell back) is read through the identity list instead:
//! [`NodeRepeats::rows`] answers only while the table describes the rows.
//!
//! # Caching and invalidation
//!
//! A node's table is keyed by `(left child, right child, left stamp,
//! right stamp, rate epoch)`. Stamps are per-node rebuild counters (tips are
//! constant, stamp 0), so any topology change below a node cascades exactly
//! to the tables that depend on it — and those nodes' CLVs are invalid for
//! the same reason, so the rebuild rides along with the `newview` the
//! traversal descriptor already demands. Model-parameter changes (α, GTR
//! rates, branch lengths) do **not** touch the tables: classes depend only
//! on induced tip patterns. The one exception is PSR: the per-pattern rate
//! category is part of the class key (patterns in different categories use
//! different P-matrices), so re-quantizing site rates bumps the partition's
//! `repeat_epoch` and invalidates every table.
//!
//! # Uniformity across ranks
//!
//! The setting must be uniform across ranks for the same reason as the
//! kernel backend: results agree bitwise either way, but the replica
//! sentinel fingerprints the configuration (and heartbeat work counters
//! would silently diverge). Every rank resolves the run's one
//! [`RepeatsChoice`], exactly like `KernelChoice`.

use super::PartitionState;
use crate::model::rates::RateHeterogeneity;
use crate::tree::traversal::TraversalEntry;
use exa_bio::repeats::{pair_classes_into, ClassSource, RepeatClasses, TIP_CLASS_COUNT};
use serde::{Deserialize, Serialize};

/// Whether an engine compresses repeated subtree patterns in `newview`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SiteRepeats {
    On,
    Off,
}

impl SiteRepeats {
    /// Stable lowercase label (CLI values, trace/health stamps).
    pub fn label(&self) -> &'static str {
        match self {
            SiteRepeats::On => "on",
            SiteRepeats::Off => "off",
        }
    }
}

impl std::fmt::Display for SiteRepeats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A site-repeats policy, as requested on the command line or in a run's
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepeatsChoice {
    /// Force compression on.
    On,
    /// Force compression off.
    Off,
    /// Compression on: it is pure software.
    Auto,
}

impl RepeatsChoice {
    /// Parse a CLI value (`on`, `off`, `auto`).
    pub fn parse(s: &str) -> Option<RepeatsChoice> {
        match s {
            "on" => Some(RepeatsChoice::On),
            "off" => Some(RepeatsChoice::Off),
            "auto" => Some(RepeatsChoice::Auto),
            _ => None,
        }
    }

    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            RepeatsChoice::On => "on",
            RepeatsChoice::Off => "off",
            RepeatsChoice::Auto => "auto",
        }
    }

    /// Resolve this policy (`auto` is on).
    pub fn resolve_local(self) -> SiteRepeats {
        match self {
            RepeatsChoice::On => SiteRepeats::On,
            RepeatsChoice::Off => SiteRepeats::Off,
            RepeatsChoice::Auto => SiteRepeats::On,
        }
    }
}

impl std::fmt::Display for RepeatsChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cache key of one node's repeat table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BuildKey {
    left: usize,
    right: usize,
    left_stamp: u64,
    right_stamp: u64,
    epoch: u64,
}

/// One inner node's repeat table plus its cache bookkeeping.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeRepeats {
    pub classes: RepeatClasses,
    /// Monotone rebuild counter; parents key on it, so a rebuild here
    /// cascades rebuilds exactly to the tables (and CLVs) above.
    stamp: u64,
    /// `Some` exactly while the node's CLV was last written by class: set
    /// by every compressed `newview` of the node, cleared by a fallback.
    built: Option<BuildKey>,
}

impl NodeRepeats {
    /// The row map of the node's CLV (`class_of`), while its last `newview`
    /// wrote it by class; `None` when it wrote one row per pattern.
    pub(crate) fn rows(&self) -> Option<&[u32]> {
        self.built.map(|_| self.classes.class_of.as_slice())
    }
}

/// Reusable builder scratch shared by all nodes of a partition.
#[derive(Debug, Clone, Default)]
pub(crate) struct RepeatScratch {
    /// Intermediate classes for the PSR two-round build.
    tmp: RepeatClasses,
    /// Dense pair-dedup table.
    table: Vec<u32>,
    /// The identity list `0..n_patterns`: the pattern list of an
    /// uncompressed `newview` and the row map of every CLV written one row
    /// per pattern (gradient-sweep outside CLVs included). Filled by every
    /// `newview` entry — a CLV is read only after one wrote it — and never
    /// at construction.
    pub ident: Vec<u32>,
}

/// Ensure `scratch.ident` holds `0..n_patterns`.
pub(crate) fn fill_identity(ident: &mut Vec<u32>, n_patterns: usize) {
    if ident.len() != n_patterns {
        ident.clear();
        ident.extend(0..n_patterns as u32);
    }
}

fn source<'a>(
    tips: &'a [Vec<u8>],
    repeats: &'a [NodeRepeats],
    n_taxa: usize,
    node: usize,
) -> (ClassSource<'a>, usize) {
    if node < n_taxa {
        (ClassSource::Tips(&tips[node]), TIP_CLASS_COUNT)
    } else {
        let r = &repeats[node - n_taxa].classes;
        (ClassSource::Inner(&r.class_of), r.n_classes())
    }
}

/// Bring the parent node's repeat table up to date for this traversal
/// entry. Returns `true` when the table is usable for compression (cached
/// or freshly rebuilt); `false` when compression is disabled or a child's
/// table is unavailable (the entry then runs uncompressed).
pub(crate) fn refresh_entry(
    part: &mut PartitionState,
    n_taxa: usize,
    entry: &TraversalEntry,
) -> bool {
    if part.repeats.is_empty() {
        return false;
    }
    let parent_idx = entry.parent - n_taxa;
    // A child's table contributes (node, stamp); inner children must have
    // been built — post-order descriptors guarantee that except after a
    // partial invalidation, where we fall back to an uncompressed entry.
    let child_stamp = |repeats: &[NodeRepeats], node: usize| -> Option<u64> {
        if node < n_taxa {
            Some(0)
        } else {
            let nr = &repeats[node - n_taxa];
            nr.built.map(|_| nr.stamp)
        }
    };
    let (Some(ls), Some(rs)) = (
        child_stamp(&part.repeats, entry.left),
        child_stamp(&part.repeats, entry.right),
    ) else {
        part.repeats[parent_idx].built = None;
        return false;
    };
    let key = BuildKey {
        left: entry.left,
        right: entry.right,
        left_stamp: ls,
        right_stamp: rs,
        epoch: part.repeat_epoch,
    };
    if part.repeats[parent_idx].built == Some(key) {
        return true;
    }

    let mut node = std::mem::take(&mut part.repeats[parent_idx]);
    {
        let (l, nl) = source(&part.data.tips, &part.repeats, n_taxa, entry.left);
        let (r, nr) = source(&part.data.tips, &part.repeats, n_taxa, entry.right);
        match &part.rates {
            // Under PSR each pattern uses its own category's P-matrix, so
            // the category joins the class key (second pairing round).
            RateHeterogeneity::Psr {
                pattern_cat,
                category_rates,
            } if category_rates.len() > 1 => {
                let scratch = &mut part.repeat_scratch;
                pair_classes_into(l, nl, r, nr, &mut scratch.tmp, &mut scratch.table);
                pair_classes_into(
                    ClassSource::Inner(&scratch.tmp.class_of),
                    scratch.tmp.n_classes(),
                    ClassSource::Inner(pattern_cat),
                    category_rates.len(),
                    &mut node.classes,
                    &mut scratch.table,
                );
            }
            _ => {
                pair_classes_into(
                    l,
                    nl,
                    r,
                    nr,
                    &mut node.classes,
                    &mut part.repeat_scratch.table,
                );
            }
        }
    }
    node.stamp += 1;
    node.built = Some(key);
    part.repeats[parent_idx] = node;
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip_through_choice_parse() {
        for setting in [SiteRepeats::On, SiteRepeats::Off] {
            let choice = RepeatsChoice::parse(setting.label()).unwrap();
            assert_eq!(choice.resolve_local(), setting);
        }
        assert_eq!(RepeatsChoice::parse("auto"), Some(RepeatsChoice::Auto));
        assert_eq!(RepeatsChoice::parse("maybe"), None);
    }

    #[test]
    fn auto_resolves_on() {
        assert_eq!(RepeatsChoice::Auto.resolve_local(), SiteRepeats::On);
    }

    #[test]
    fn fill_identity_is_idempotent_and_resizes() {
        let mut ident = Vec::new();
        fill_identity(&mut ident, 4);
        assert_eq!(ident, vec![0, 1, 2, 3]);
        fill_identity(&mut ident, 4);
        assert_eq!(ident, vec![0, 1, 2, 3]);
        fill_identity(&mut ident, 2);
        assert_eq!(ident, vec![0, 1]);
    }

    /// The row layout itself: after every step of a random search-like
    /// walk, every inner node of a repeats-on engine holds at row
    /// `rows[i]` exactly the CLV block and scaling count a repeats-off
    /// engine holds at pattern `i`, bit for bit.
    mod rows {
        use crate::engine::backend::{root_side, RootSide};
        use crate::engine::{Engine, KernelKind, PartitionSlice, SiteRepeats};
        use crate::model::rates::RateModelKind;
        use crate::tree::traversal::{TraversalDescriptor, TraversalEntry};
        use crate::tree::Tree;
        use proptest::prelude::*;
        use std::sync::Arc;

        /// A deterministic xorshift stream, uniform-ish in `0..n`.
        struct Rng(u64);

        impl Rng {
            fn below(&mut self, n: usize) -> usize {
                self.0 ^= self.0 << 13;
                self.0 ^= self.0 >> 7;
                self.0 ^= self.0 << 17;
                (self.0 % n as u64) as usize
            }
        }

        /// Repeat-rich tip codes: every site is one of `n_distinct` base
        /// columns (unambiguous codes, `N` and `R`) with one point mutation,
        /// so sub-columns repeat under most inner nodes.
        fn slice(n_taxa: usize, n_patterns: usize, n_distinct: usize, seed: u64) -> PartitionSlice {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let codes = [1u8, 2, 4, 8, 0xf, 0b0101];
            let cols: Vec<Vec<u8>> = (0..n_distinct)
                .map(|_| (0..n_taxa).map(|_| codes[rng.below(6)]).collect())
                .collect();
            let mut tips: Vec<Vec<u8>> = vec![Vec::with_capacity(n_patterns); n_taxa];
            for _ in 0..n_patterns {
                let col = &cols[rng.below(n_distinct)];
                let mutated = rng.below(n_taxa);
                let code = 1 << rng.below(4);
                for (t, tip) in tips.iter_mut().enumerate() {
                    tip.push(if t == mutated { code } else { col[t] });
                }
            }
            let weights = (0..n_patterns).map(|_| (1 + rng.below(3)) as f64).collect();
            PartitionSlice {
                name: "rows".into(),
                global_index: 0,
                tips: Arc::new(tips),
                weights: Arc::new(weights),
                freqs: [0.3, 0.2, 0.25, 0.25],
            }
        }

        /// A repeats-on and a repeats-off engine over one slice.
        fn pair(s: PartitionSlice, kind: RateModelKind, kernel: KernelKind) -> (Engine, Engine) {
            let n_taxa = s.tips.len();
            let build =
                |repeats| Engine::with_config(n_taxa, vec![s.clone()], kind, 0.7, kernel, repeats);
            (build(SiteRepeats::On), build(SiteRepeats::Off))
        }

        /// Every inner node's row `rows[i]` on `on` against pattern `i` on
        /// `off`, bit for bit; returns how many nodes read by class with
        /// fewer classes than patterns, and the largest scaling count seen.
        fn assert_rows_match(on: &Engine, off: &Engine, what: &str) -> (usize, u32) {
            let (p_on, p_off) = (&on.parts[0], &off.parts[0]);
            let (n_taxa, n_patterns) = (on.n_taxa, p_on.data.n_patterns());
            let cats = p_on.rates.clv_categories();
            let (mut compressed, mut max_scale) = (0, 0);
            for node in n_taxa..n_taxa + p_on.clv.len() {
                let (side, full) = (
                    root_side(p_on, n_taxa, node),
                    root_side(p_off, n_taxa, node),
                );
                let (RootSide::Inner { rows, .. }, RootSide::Inner { rows: ident, .. }) =
                    (&side, &full)
                else {
                    unreachable!("inner nodes have CLVs");
                };
                let classes = &p_on.repeats[node - n_taxa].classes;
                if p_on.repeats[node - n_taxa].rows().is_some() && classes.n_classes() < n_patterns
                {
                    compressed += 1;
                }
                for i in 0..n_patterns {
                    let row = rows[i];
                    assert_eq!(
                        ident[i] as usize, i,
                        "{what}: repeats off reads row = pattern"
                    );
                    for c in 0..cats {
                        let (a, b) = (side.state_slice(i, c, cats), full.state_slice(i, c, cats));
                        assert!(
                            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                            "{what}: node {node} pattern {i} (row {row}) category {c}: {a:?} vs {b:?}"
                        );
                    }
                    let (sa, sb) = (side.scale_of(i), full.scale_of(i));
                    assert_eq!(sa, sb, "{what}: node {node} pattern {i} (row {row}) scale");
                    max_scale = max_scale.max(sb);
                }
            }
            (compressed, max_scale)
        }

        /// Execute `d` on both engines, then compare lnL and every row.
        fn step(
            on: &mut Engine,
            off: &mut Engine,
            d: &TraversalDescriptor,
            what: &str,
        ) -> (usize, u32) {
            on.execute(d);
            off.execute(d);
            let (a, b) = (on.evaluate(d), off.evaluate(d));
            assert_eq!(
                a[0].to_bits(),
                b[0].to_bits(),
                "{what}: lnL {} vs {}",
                a[0],
                b[0]
            );
            assert_rows_match(on, off, what)
        }

        /// A random walk of SPR moves, branch-length edits, re-rootings and
        /// model steps (Γ shape and GTR rate, or a PSR rate round), each
        /// followed by the lazy partial descriptor a search would run.
        /// Returns the most compressed nodes and the largest scaling count
        /// seen after any step.
        #[allow(clippy::too_many_arguments)]
        fn walk(
            kernel: KernelKind,
            kind: RateModelKind,
            n_taxa: usize,
            n_patterns: usize,
            n_distinct: usize,
            seed: u64,
            scale: f64,
            n_steps: usize,
        ) -> (usize, u32) {
            let (mut on, mut off) = pair(slice(n_taxa, n_patterns, n_distinct, seed), kind, kernel);
            let mut tree = Tree::random(n_taxa, 1, seed);
            for e in 0..tree.n_edges() {
                let l = tree.edge(e).length(0);
                tree.set_length(e, 0, l * scale);
            }
            let mut rng = Rng(seed.wrapping_mul(31).wrapping_add(7) | 1);
            let mut root = 0;
            let (mut compressed, mut max_scale) = (0, 0);
            for n in 0..=n_steps {
                let op = if n == 0 { 0 } else { 1 + rng.below(4) };
                match op {
                    0 => {}
                    1 => {
                        let x = n_taxa + rng.below(tree.n_inner());
                        let sub = tree.neighbors(x)[rng.below(3)].0;
                        let info = tree.prune(x, sub);
                        let cands: Vec<usize> = tree
                            .edges_within_radius(info.merged_edge, 3)
                            .into_iter()
                            .filter(|&e| {
                                let ed = tree.edge(e);
                                ed.a != x && ed.b != x && e != info.free_edge
                            })
                            .collect();
                        if cands.is_empty() {
                            tree.restore_prune(&info);
                            root = info.merged_edge;
                        } else {
                            root = tree.graft(&info, cands[rng.below(cands.len())]).target_edge;
                        }
                    }
                    2 => {
                        let e = rng.below(tree.n_edges());
                        tree.set_length(e, 0, scale * (0.01 + rng.below(50) as f64 * 0.02));
                    }
                    3 => root = rng.below(tree.n_edges()),
                    _ => {
                        if kind == RateModelKind::Psr {
                            let d = tree.full_traversal_descriptor(root);
                            for engine in [&mut on, &mut off] {
                                let (num, den) = engine.optimize_site_rates(&d);
                                engine.finalize_site_rates(den / num);
                            }
                        } else {
                            let alpha = 0.2 + rng.below(20) as f64 * 0.1;
                            let rate = 0.5 + rng.below(10) as f64 * 0.3;
                            let index = rng.below(5);
                            for engine in [&mut on, &mut off] {
                                engine.set_alpha(0, alpha);
                                engine.set_gtr_rate(0, index, rate);
                            }
                        }
                        tree.invalidate_all();
                    }
                }
                let d = tree.traversal_descriptor(root);
                let what = format!("{kernel:?} {kind:?} seed {seed} step {n} (op {op})");
                let (c, s) = step(&mut on, &mut off, &d, &what);
                compressed = compressed.max(c);
                max_scale = max_scale.max(s);
            }
            (compressed, max_scale)
        }

        const KERNELS: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Simd];

        #[test]
        fn rows_match_columns_under_gamma_and_psr() {
            for kernel in KERNELS {
                for kind in [RateModelKind::Gamma, RateModelKind::Psr] {
                    let (compressed, _) = walk(kernel, kind, 9, 80, 5, 17, 1.0, 40);
                    assert!(compressed > 0, "{kernel:?} {kind:?}: no node read by class");
                }
            }
        }

        #[test]
        fn rows_match_columns_in_the_rescaling_regime() {
            // 256 taxa on saturated branches: scaling counts differ between
            // patterns, and a row's count must be its class's.
            for kernel in KERNELS {
                let (compressed, max_scale) =
                    walk(kernel, RateModelKind::Gamma, 256, 40, 6, 99, 20.0, 8);
                assert!(compressed > 0, "{kernel:?}: no node read by class");
                assert!(max_scale > 0, "{kernel:?}: rescaling never fired");
            }
        }

        /// Hand-made entries (the engine is tree-agnostic): inner nodes
        /// `A`, `B` alternate down a 150-step caterpillar so scaling counts
        /// vary by pattern; `C` is first written by class over
        /// `(A, tip 4)`, then `A` is rebuilt, then `C` is rewritten over
        /// `(A, D)` with `D` never computed — a child without a table, so
        /// that write falls back to one row per pattern and `C`'s old class
        /// map no longer describes its rows.
        #[test]
        fn a_fallback_write_is_read_one_row_per_pattern() {
            let n_taxa = 8;
            let (a, b, c, d) = (n_taxa, n_taxa + 1, n_taxa + 2, n_taxa + 3);
            let entry = |parent, left, right| TraversalEntry {
                parent,
                left,
                right,
                left_lengths: vec![1.5],
                right_lengths: vec![2.0],
            };
            let run = |entries: Vec<TraversalEntry>| TraversalDescriptor {
                entries,
                root_a: 0,
                root_b: a,
                root_lengths: vec![0.5],
            };
            for kernel in KERNELS {
                let (mut on, mut off) =
                    pair(slice(n_taxa, 120, 4, 5), RateModelKind::Gamma, kernel);
                let mut chain = vec![entry(a, 0, 1)];
                for k in 0..150 {
                    let (from, to) = if k % 2 == 0 { (a, b) } else { (b, a) };
                    chain.push(entry(to, from, 2 + k % 6));
                }
                chain.push(entry(c, a, 4));
                step(&mut on, &mut off, &run(chain), "caterpillar");
                assert!(on.parts[0].repeats[c - n_taxa].rows().is_some());
                step(
                    &mut on,
                    &mut off,
                    &run(vec![entry(b, a, 3), entry(a, b, 6)]),
                    "rebuild A",
                );
                let (_, max_scale) =
                    step(&mut on, &mut off, &run(vec![entry(c, a, d)]), "fallback");
                assert!(on.parts[0].repeats[c - n_taxa].rows().is_none());
                assert!(max_scale > 0, "{kernel:?}: rescaling never fired");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn rows_match_columns_on_random_walks(
                n_taxa in 5usize..12,
                n_distinct in 1usize..8,
                seed in any::<u64>(),
                scale in 0.2f64..4.0,
                psr in any::<bool>(),
            ) {
                let kind = if psr { RateModelKind::Psr } else { RateModelKind::Gamma };
                for kernel in KERNELS {
                    walk(kernel, kind, n_taxa, 48, n_distinct, seed, scale, 12);
                }
            }
        }
    }
}

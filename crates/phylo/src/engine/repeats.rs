//! Subtree-repeat CLV compression for `newview`.
//!
//! Per inner node the engine keeps the node's [`RepeatClasses`] (built
//! bottom-up from the two children's class ids, see [`exa_bio::repeats`]).
//! `newview` then runs only over class *representatives*; the
//! representative's CLV column and scaling count are copied into every
//! duplicate slot. Because a per-pattern `newview` column depends only on
//! that pattern's child columns (no cross-pattern accumulation), the copies
//! are bitwise identical to what a full computation would have produced —
//! repeats on/off changes wall-clock, never bits.
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
use exa_bio::dna::NUM_STATES;
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
    built: Option<BuildKey>,
}

/// Reusable builder scratch shared by all nodes of a partition.
#[derive(Debug, Clone, Default)]
pub(crate) struct RepeatScratch {
    /// Intermediate classes for the PSR two-round build.
    tmp: RepeatClasses,
    /// Dense pair-dedup table.
    table: Vec<u32>,
    /// Identity pattern list used when compression is off or unavailable.
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

/// Copy each representative's CLV block (`cats × 4` doubles) and scaling
/// count into its duplicates' slots. Representatives precede duplicates, so
/// every source block is final by the time it is copied.
pub(crate) fn scatter_entry(
    classes: &RepeatClasses,
    cats: usize,
    clv: &mut [f64],
    scale: &mut [u32],
) {
    if !classes.is_compressing() {
        return;
    }
    let block = cats * NUM_STATES;
    for (i, &cls) in classes.class_of.iter().enumerate() {
        let rep = classes.representatives[cls as usize] as usize;
        if rep != i {
            clv.copy_within(rep * block..(rep + 1) * block, i * block);
            scale[i] = scale[rep];
        }
    }
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
    fn scatter_copies_representative_blocks_and_scales() {
        let classes = RepeatClasses {
            class_of: vec![0, 1, 0, 1],
            representatives: vec![0, 1],
        };
        let cats = 2;
        let block = cats * NUM_STATES;
        let mut clv: Vec<f64> = (0..2 * block).map(|x| x as f64).collect();
        clv.resize(4 * block, -1.0); // duplicate slots hold garbage
        let mut scale = vec![3u32, 7, 99, 99];
        scatter_entry(&classes, cats, &mut clv, &mut scale);
        assert_eq!(clv[2 * block..3 * block], clv[..block]);
        assert_eq!(clv[3 * block..4 * block], clv[block..2 * block]);
        assert_eq!(scale, vec![3, 7, 3, 7]);
    }

    #[test]
    fn scatter_is_noop_without_repeats() {
        let classes = RepeatClasses {
            class_of: vec![0, 1],
            representatives: vec![0, 1],
        };
        let mut clv = vec![1.0; 2 * NUM_STATES];
        let mut scale = vec![5u32, 6];
        scatter_entry(&classes, 1, &mut clv, &mut scale);
        assert_eq!(scale, vec![5, 6]);
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
}

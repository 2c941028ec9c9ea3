//! Subtree-repeat classes over compressed patterns (Kobert et al.'s
//! bottom-up identifiers).
//!
//! Pattern compression ([`crate::patterns`]) collapses columns that are
//! identical over *all* taxa. But during a tree traversal far more
//! redundancy is visible: two patterns whose tip states agree on the taxa
//! under one subtree induce bitwise-identical conditional likelihood
//! columns at that subtree's root, even if they differ elsewhere in the
//! alignment. This module computes, per inner node, a *repeat class* for
//! every pattern such that two patterns share a class iff they induce the
//! same tip-state vector under that node — incrementally, from the two
//! children's class ids, in O(patterns) per node:
//!
//! * at a tip, a pattern's class is its 4-bit ambiguity code (≤ 16 classes),
//! * at an inner node, the pair `(left class, right class)` is deduplicated
//!   into a dense id via a bounded lookup table.
//!
//! The likelihood engine then computes `newview` only for each class's
//! *representative* (the first pattern of the class) and copies the
//! representative's CLV column into the duplicate slots.

use serde::{Deserialize, Serialize};

/// Number of distinct tip classes: the 4-bit ambiguity codes.
pub const TIP_CLASS_COUNT: usize = 16;

/// Repeat classes of one node: a dense class id per pattern plus the first
/// pattern index of each class ("representative", in increasing pattern
/// order — so a representative always precedes its duplicates).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepeatClasses {
    /// `class_of[pattern]` — dense ids `0..n_classes()`.
    pub class_of: Vec<u32>,
    /// `representatives[class]` — the first pattern carrying that class.
    pub representatives: Vec<u32>,
}

impl RepeatClasses {
    /// Number of patterns classified.
    pub fn n_patterns(&self) -> usize {
        self.class_of.len()
    }

    /// Number of distinct classes.
    pub fn n_classes(&self) -> usize {
        self.representatives.len()
    }

    /// Whether any pattern is a duplicate of an earlier one.
    pub fn is_compressing(&self) -> bool {
        self.n_classes() < self.n_patterns()
    }

    /// Reset to the identity classification (every pattern its own class).
    pub fn set_identity(&mut self, n_patterns: usize) {
        self.class_of.clear();
        self.representatives.clear();
        self.class_of.extend(0..n_patterns as u32);
        self.representatives.extend(0..n_patterns as u32);
    }
}

/// One child's per-pattern class stream: raw tip codes (class = code,
/// ≤ [`TIP_CLASS_COUNT`] classes) or a previously computed inner table.
#[derive(Debug, Clone, Copy)]
pub enum ClassSource<'a> {
    Tips(&'a [u8]),
    Inner(&'a [u32]),
}

impl ClassSource<'_> {
    /// Number of patterns in the stream.
    pub fn len(&self) -> usize {
        match self {
            ClassSource::Tips(codes) => codes.len(),
            ClassSource::Inner(ids) => ids.len(),
        }
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn class(&self, i: usize) -> u32 {
        match self {
            ClassSource::Tips(codes) => (codes[i] & 0xf) as u32,
            ClassSource::Inner(ids) => ids[i],
        }
    }
}

/// Lookup-table budget per node, in entries: the dense pair table is only
/// used while `n_left · n_right` stays within `max(4·patterns, 65536)`.
/// Beyond that the node is classified as identity (no repeats) — the class
/// product only explodes when nearly every pattern is unique under the
/// subtree anyway, so capping costs (almost) no compression and bounds
/// memory exactly as RAxML's site-repeats implementation does.
fn table_budget(n_patterns: usize) -> u64 {
    (4 * n_patterns as u64).max(1 << 16)
}

/// Deduplicate the per-pattern pair `(left class, right class)` into dense
/// ids, reusing `out`'s and `table`'s allocations. `n_left`/`n_right` bound
/// the children's class ids (tips: [`TIP_CLASS_COUNT`]).
///
/// Representatives come out in increasing pattern order because patterns
/// are scanned in order and a class is created at its first occurrence.
pub fn pair_classes_into(
    left: ClassSource,
    n_left: usize,
    right: ClassSource,
    n_right: usize,
    out: &mut RepeatClasses,
    table: &mut Vec<u32>,
) {
    let n = left.len();
    assert_eq!(n, right.len(), "children classify different pattern counts");
    let span = n_left as u64 * n_right as u64;
    if span > table_budget(n) {
        out.set_identity(n);
        return;
    }
    out.class_of.clear();
    out.representatives.clear();
    table.clear();
    table.resize(span as usize, u32::MAX);
    for i in 0..n {
        let key = left.class(i) as usize * n_right + right.class(i) as usize;
        let mut cls = table[key];
        if cls == u32::MAX {
            cls = out.representatives.len() as u32;
            table[key] = cls;
            out.representatives.push(i as u32);
        }
        out.class_of.push(cls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionScheme;
    use crate::patterns::CompressedAlignment;
    use crate::Alignment;

    fn classes(left: ClassSource, nl: usize, right: ClassSource, nr: usize) -> RepeatClasses {
        let mut out = RepeatClasses::default();
        let mut table = Vec::new();
        pair_classes_into(left, nl, right, nr, &mut out, &mut table);
        out
    }

    #[test]
    fn cherry_classes_follow_tip_pairs() {
        // Patterns:      0    1    2    3    4
        let a: Vec<u8> = vec![1, 2, 1, 1, 2];
        let b: Vec<u8> = vec![4, 4, 4, 8, 4];
        let c = classes(
            ClassSource::Tips(&a),
            TIP_CLASS_COUNT,
            ClassSource::Tips(&b),
            TIP_CLASS_COUNT,
        );
        // (1,4) (2,4) (1,4) (1,8) (2,4) → classes 0 1 0 2 1.
        assert_eq!(c.class_of, vec![0, 1, 0, 2, 1]);
        assert_eq!(c.representatives, vec![0, 1, 3]);
        assert!(c.is_compressing());
    }

    #[test]
    fn representatives_always_precede_duplicates() {
        let l: Vec<u32> = vec![3, 0, 3, 1, 0, 3];
        let r: Vec<u32> = vec![1, 1, 1, 0, 1, 1];
        let c = classes(ClassSource::Inner(&l), 4, ClassSource::Inner(&r), 2);
        for (i, &cls) in c.class_of.iter().enumerate() {
            assert!(c.representatives[cls as usize] as usize <= i);
        }
        // First occurrences exactly.
        assert_eq!(c.representatives, vec![0, 1, 3]);
    }

    #[test]
    fn identity_when_no_repeats() {
        let l: Vec<u32> = (0..8).collect();
        let r: Vec<u32> = vec![0; 8];
        let c = classes(ClassSource::Inner(&l), 8, ClassSource::Inner(&r), 1);
        assert_eq!(c.n_classes(), 8);
        assert!(!c.is_compressing());
    }

    #[test]
    fn oversized_class_product_degrades_to_identity() {
        let n = 4;
        let l: Vec<u32> = (0..n as u32).collect();
        let r: Vec<u32> = vec![0; n];
        // Claimed class counts far beyond the table budget.
        let c = classes(
            ClassSource::Inner(&l),
            1 << 20,
            ClassSource::Inner(&r),
            1 << 20,
        );
        assert_eq!(c.class_of, vec![0, 1, 2, 3]);
        assert_eq!(c.representatives, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_input_yields_empty_classes() {
        let c = classes(
            ClassSource::Tips(&[]),
            TIP_CLASS_COUNT,
            ClassSource::Tips(&[]),
            TIP_CLASS_COUNT,
        );
        assert_eq!(c.n_patterns(), 0);
        assert_eq!(c.n_classes(), 0);
    }

    /// Bottom-up over a real compressed partition: classes at a node must
    /// coincide exactly with the induced tip-state vectors under that node.
    #[test]
    fn bottom_up_classes_match_induced_subtree_patterns() {
        // 4 taxa; the subtree {t1, t2} sees repeated (A, C) columns that the
        // full-alignment compression cannot merge.
        let a = Alignment::from_ascii(&[
            ("t1", "AAGAA"),
            ("t2", "CCTCC"),
            ("t3", "ACGTA"),
            ("t4", "TTGCA"),
        ])
        .unwrap();
        let comp = CompressedAlignment::build(&a, &PartitionScheme::unpartitioned(5));
        let p = &comp.partitions[0];
        assert_eq!(p.n_patterns(), 5); // all columns distinct overall

        let cherry = classes(
            ClassSource::Tips(&p.tips[0]),
            TIP_CLASS_COUNT,
            ClassSource::Tips(&p.tips[1]),
            TIP_CLASS_COUNT,
        );
        // Induced patterns under {t1,t2}: (A,C) (A,C) (G,T) (A,C) (A,C).
        assert_eq!(cherry.n_classes(), 2);
        assert_eq!(cherry.class_of, vec![0, 0, 1, 0, 0]);

        // One level up, joining tip t3: (A,C,A) (A,C,C) (G,T,G) (A,C,T) (A,C,A).
        let upper = classes(
            ClassSource::Inner(&cherry.class_of),
            cherry.n_classes(),
            ClassSource::Tips(&p.tips[2]),
            TIP_CLASS_COUNT,
        );
        assert_eq!(upper.class_of, vec![0, 1, 2, 3, 0]);
    }
}

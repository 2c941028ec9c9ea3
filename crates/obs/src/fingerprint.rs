//! Replica state fingerprints and the divergence diagnostic.
//!
//! The de-centralized scheme is correct only while every rank's search
//! replica stays **bit-identical**. A diverged replica fails silently: its
//! local likelihood contributions keep flowing into the allreduces and the
//! run produces a wrong tree with no error. The sentinel makes divergence
//! loud: each rank hashes its live search state into a [`StateFingerprint`]
//! (one 64-bit digest per [`Component`]), the fingerprints are exchanged on
//! an allgather piggybacked at a configurable collective cadence, and any
//! disagreement aborts the run with a [`ReplicaDivergence`] naming the
//! minority ranks and the differing component(s).
//!
//! The hash is FNV-1a 64 — the same function `exa-bio`'s binary format uses
//! for its header checksums (it re-exports [`fnv1a`] from here, so there is
//! exactly one implementation in the workspace). FNV-1a is not
//! collision-resistant against an adversary, but divergence is a *defect*,
//! not an attack: a single flipped mantissa bit changes the digest with
//! probability ~1 − 2⁻⁶⁴.

use serde::{Deserialize, Serialize};
use std::fmt;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot FNV-1a 64 over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Streaming FNV-1a 64 hasher, for digesting structured state without
/// materializing an intermediate buffer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Hash the exact bit pattern (`to_bits`), so bit-identical replicas
    /// hash identically and a single flipped mantissa bit does not.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// The independently-hashed parts of a rank's live search state. Hashing
/// them separately (rather than one combined digest) lets the diagnostic
/// say *what* diverged, which localizes the defect: a lone α mismatch
/// points at model optimization, a topology mismatch at the SPR machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Component {
    /// α shape parameters and GTR exchangeabilities, all partitions.
    ModelParams,
    /// Every edge's per-partition branch lengths.
    BranchLengths,
    /// Tree shape: edge endpoint pairs, no lengths.
    Topology,
    /// The rank's last locally-accumulated log likelihood(s).
    LnlAccumulator,
    /// Digest of the modes a rank computes with: kernel backend, site
    /// repeats, reduce mode, thread count and gradient route (the search
    /// crate's `Modes::fingerprint`). Every rank resolves the run's one
    /// configuration, so a mismatch means a rank computes with something
    /// the run did not configure. Mixed backends do not numerically diverge
    /// the replicated state (both produce bitwise identical results by
    /// contract), but a mix still violates the uniform-backend requirement
    /// — after a fault-driven redistribution the surviving ranks must be
    /// interchangeable — so the sentinel treats it as divergence in its own
    /// right.
    KernelBackend,
}

impl Component {
    pub const ALL: [Component; 5] = [
        Component::ModelParams,
        Component::BranchLengths,
        Component::Topology,
        Component::LnlAccumulator,
        Component::KernelBackend,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            Component::ModelParams => "model parameters",
            Component::BranchLengths => "branch lengths",
            Component::Topology => "topology",
            Component::LnlAccumulator => "lnL accumulator",
            Component::KernelBackend => "kernel backend",
        }
    }

    fn index(self) -> usize {
        match self {
            Component::ModelParams => 0,
            Component::BranchLengths => 1,
            Component::Topology => 2,
            Component::LnlAccumulator => 3,
            Component::KernelBackend => 4,
        }
    }
}

/// A rank's state digest: one FNV-1a 64 per [`Component`], in
/// [`Component::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StateFingerprint {
    pub components: [u64; 5],
}

impl StateFingerprint {
    /// Wire size of [`StateFingerprint::to_bytes`].
    pub const BYTES: usize = 40;

    pub fn get(&self, c: Component) -> u64 {
        self.components[c.index()]
    }

    /// Little-endian wire encoding, [`Component::ALL`] order.
    pub fn to_bytes(&self) -> [u8; Self::BYTES] {
        let mut out = [0u8; Self::BYTES];
        for (chunk, v) in out.chunks_exact_mut(8).zip(self.components) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Inverse of [`StateFingerprint::to_bytes`]; `None` on a size
    /// mismatch (a corrupt or foreign payload).
    pub fn from_bytes(bytes: &[u8]) -> Option<StateFingerprint> {
        if bytes.len() != Self::BYTES {
            return None;
        }
        let mut components = [0u64; 5];
        for (v, chunk) in components.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        Some(StateFingerprint { components })
    }

    /// Components whose digests differ between `self` and `other`, in
    /// [`Component::ALL`] order.
    pub fn differing(&self, other: &StateFingerprint) -> Vec<Component> {
        Component::ALL
            .into_iter()
            .filter(|c| self.get(*c) != other.get(*c))
            .collect()
    }
}

/// Compare all ranks' fingerprints. `None` means unanimous agreement;
/// otherwise the minority rank set and the union of differing components
/// (relative to the majority fingerprint).
///
/// The majority is the largest group of identical fingerprints; on a tie,
/// the group containing the lowest rank (divergence of half the ranks is
/// already unattributable — the tiebreak just keeps the report stable).
pub fn check_agreement(fingerprints: &[StateFingerprint]) -> Option<(Vec<usize>, Vec<Component>)> {
    // Groups of (fingerprint, member ranks), insertion-ordered — so the
    // first group always contains the lowest rank.
    let mut groups: Vec<(StateFingerprint, Vec<usize>)> = Vec::new();
    for (rank, fp) in fingerprints.iter().enumerate() {
        match groups.iter_mut().find(|(g, _)| g == fp) {
            Some((_, members)) => members.push(rank),
            None => groups.push((*fp, vec![rank])),
        }
    }
    if groups.len() <= 1 {
        return None;
    }
    let majority_len = groups.iter().map(|(_, m)| m.len()).max().unwrap();
    // First (lowest-rank) group of maximal size wins ties.
    let majority = groups
        .iter()
        .find(|(_, m)| m.len() == majority_len)
        .unwrap()
        .0;
    let minority: Vec<usize> = fingerprints
        .iter()
        .enumerate()
        .filter(|(_, fp)| **fp != majority)
        .map(|(rank, _)| rank)
        .collect();
    let mut components: Vec<Component> = Component::ALL
        .into_iter()
        .filter(|c| {
            minority
                .iter()
                .any(|&r| fingerprints[r].get(*c) != majority.get(*c))
        })
        .collect();
    components.dedup();
    Some((minority, components))
}

/// The structured abort diagnostic of a tripped sentinel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaDivergence {
    /// Global collective count (per rank) at which the divergent sync ran —
    /// i.e. the first collective whose piggybacked fingerprints disagreed.
    pub collective_index: u64,
    /// Ordinal of the fingerprint sync that tripped (1-based).
    pub sync_index: u64,
    /// Ranks whose fingerprints disagree with the majority, ascending.
    pub minority_ranks: Vec<usize>,
    /// State components that differ, in [`Component::ALL`] order.
    pub components: Vec<Component>,
}

impl fmt::Display for ReplicaDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ranks: Vec<String> = self.minority_ranks.iter().map(|r| r.to_string()).collect();
        let comps: Vec<&str> = self.components.iter().map(|c| c.label()).collect();
        write!(
            f,
            "replica divergence at collective #{} (fingerprint sync #{}): \
             rank(s) {{{}}} disagree with the majority in {}",
            self.collective_index,
            self.sync_index,
            ranks.join(", "),
            if comps.is_empty() {
                "an unknown component".to_string()
            } else {
                comps.join(", ")
            }
        )
    }
}

impl std::error::Error for ReplicaDivergence {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_hasher_matches_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));

        let mut a = Fnv1a::new();
        a.write_u64(0x0102_0304_0506_0708);
        assert_eq!(a.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));

        let mut b = Fnv1a::new();
        b.write_f64(1.5);
        let mut c = Fnv1a::new();
        c.write_u64(1.5f64.to_bits());
        assert_eq!(b.finish(), c.finish());
    }

    #[test]
    fn write_f64_distinguishes_single_bit_flips() {
        let x = 0.731_f64;
        let y = f64::from_bits(x.to_bits() ^ 1);
        let mut a = Fnv1a::new();
        a.write_f64(x);
        let mut b = Fnv1a::new();
        b.write_f64(y);
        assert_ne!(a.finish(), b.finish());
    }

    fn fp(m: u64, b: u64, t: u64, l: u64) -> StateFingerprint {
        StateFingerprint {
            components: [m, b, t, l, 0],
        }
    }

    #[test]
    fn fingerprint_bytes_roundtrip() {
        let mut f = fp(1, u64::MAX, 0xdead_beef, 42);
        f.components[4] = 0x4b42; // kernel-backend digest
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), StateFingerprint::BYTES);
        assert_eq!(StateFingerprint::from_bytes(&bytes), Some(f));
        assert_eq!(StateFingerprint::from_bytes(&bytes[..39]), None);
        assert_eq!(f.get(Component::BranchLengths), u64::MAX);
        assert_eq!(f.get(Component::KernelBackend), 0x4b42);
    }

    #[test]
    fn differing_lists_changed_components_in_order() {
        let a = fp(1, 2, 3, 4);
        let b = fp(1, 9, 3, 8);
        assert_eq!(
            a.differing(&b),
            vec![Component::BranchLengths, Component::LnlAccumulator]
        );
        assert!(a.differing(&a).is_empty());
    }

    #[test]
    fn agreement_is_none_when_unanimous() {
        let f = fp(1, 2, 3, 4);
        assert_eq!(check_agreement(&[f, f, f, f]), None);
        assert_eq!(check_agreement(&[f]), None);
        assert_eq!(check_agreement(&[]), None);
    }

    #[test]
    fn single_deviant_rank_is_the_minority() {
        let good = fp(1, 2, 3, 4);
        let bad = fp(9, 2, 3, 7);
        let (minority, comps) = check_agreement(&[good, bad, good, good]).unwrap();
        assert_eq!(minority, vec![1]);
        assert_eq!(
            comps,
            vec![Component::ModelParams, Component::LnlAccumulator]
        );
    }

    #[test]
    fn lone_kernel_backend_mismatch_is_divergence() {
        let simd = fp(1, 2, 3, 4);
        let mut scalar = simd;
        scalar.components[4] = 0x5ca1a5;
        let (minority, comps) = check_agreement(&[simd, simd, scalar]).unwrap();
        assert_eq!(minority, vec![2]);
        assert_eq!(comps, vec![Component::KernelBackend]);
    }

    #[test]
    fn tie_resolves_to_lowest_rank_group() {
        let a = fp(1, 1, 1, 1);
        let b = fp(2, 1, 1, 1);
        let (minority, comps) = check_agreement(&[a, a, b, b]).unwrap();
        assert_eq!(minority, vec![2, 3]);
        assert_eq!(comps, vec![Component::ModelParams]);
    }

    #[test]
    fn divergence_display_names_rank_and_component() {
        let d = ReplicaDivergence {
            collective_index: 1234,
            sync_index: 19,
            minority_ranks: vec![3],
            components: vec![Component::ModelParams],
        };
        let text = d.to_string();
        assert!(text.contains("collective #1234"), "{text}");
        assert!(text.contains("sync #19"), "{text}");
        assert!(text.contains("{3}"), "{text}");
        assert!(text.contains("model parameters"), "{text}");
    }

    #[test]
    fn divergence_roundtrips_through_json() {
        let d = ReplicaDivergence {
            collective_index: 7,
            sync_index: 1,
            minority_ranks: vec![0, 2],
            components: vec![Component::Topology],
        };
        let text = serde_json::to_string(&d).unwrap();
        let back: ReplicaDivergence = serde_json::from_str(&text).unwrap();
        assert_eq!(d, back);
    }
}

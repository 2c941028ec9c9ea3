//! Scalar-vs-SIMD backend agreement.
//!
//! The SIMD backend is designed to be *bitwise identical* to the scalar
//! backend (no FMA, scalar association orders — see the backend module
//! docs), which is stronger than the ≤1-ulp-per-site contract these tests
//! assert. The bitwise tests pin the stronger property on every kernel; the
//! proptest phrases the public contract (per-site log-likelihoods within
//! 1 ulp on random trees and models) so a future backend that only meets
//! the weaker guarantee shows up as a deliberate test change, not silence.

use exa_bio::alignment::Alignment;
use exa_bio::partition::PartitionScheme;
use exa_bio::patterns::CompressedAlignment;
use exa_phylo::engine::{Engine, KernelKind, PartitionSlice, SiteRepeats};
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::Tree;
use proptest::prelude::*;

/// Deterministic pseudo-random alignment over `n` taxa and `len` sites.
fn random_alignment(n: usize, len: usize, seed: u64) -> Alignment {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
    let rows: Vec<String> = (0..n)
        .map(|_| {
            (0..len)
                .map(|_| match next() % 20 {
                    0..=4 => 'A',
                    5..=9 => 'C',
                    10..=13 => 'G',
                    14..=17 => 'T',
                    18 => 'N',
                    _ => 'R',
                })
                .collect()
        })
        .collect();
    let named: Vec<(&str, &str)> = names
        .iter()
        .map(String::as_str)
        .zip(rows.iter().map(String::as_str))
        .collect();
    Alignment::from_ascii(&named).unwrap()
}

/// Both subtree-repeat settings: `newview` over representative lists, and
/// over identity lists.
const REPEATS: [SiteRepeats; 2] = [SiteRepeats::On, SiteRepeats::Off];

fn engine_with(
    aln: &Alignment,
    kind: RateModelKind,
    kernel: KernelKind,
    alpha: f64,
    repeats: SiteRepeats,
) -> Engine {
    let comp = CompressedAlignment::build(aln, &PartitionScheme::unpartitioned(aln.n_sites()));
    let slices = vec![PartitionSlice::from_compressed(0, &comp.partitions[0])];
    Engine::with_config(aln.n_taxa(), slices, kind, alpha, kernel, repeats)
}

/// [`assert_backends_agree_with`] under both subtree-repeat settings.
fn assert_backends_agree(
    n_taxa: usize,
    sites: usize,
    seed: u64,
    kind: RateModelKind,
    stretch: f64,
) {
    for repeats in REPEATS {
        assert_backends_agree_with(n_taxa, sites, seed, kind, stretch, repeats);
    }
}

/// Drive both backends through the full kernel surface (newview over a full
/// traversal, evaluate, sumtable + derivatives at several branch lengths,
/// then a partial traversal after a branch change) on a random tree whose
/// branch lengths are multiplied by `stretch`, and assert bitwise agreement
/// at every observable output.
fn assert_backends_agree_with(
    n_taxa: usize,
    sites: usize,
    seed: u64,
    kind: RateModelKind,
    stretch: f64,
    repeats: SiteRepeats,
) {
    let aln = random_alignment(n_taxa, sites, seed);
    let mut tree = Tree::random(n_taxa, 1, seed);
    for e in 0..tree.n_edges() {
        tree.set_length(e, 0, tree.edge(e).length(0) * stretch);
    }
    let mut scalar = engine_with(&aln, kind, KernelKind::Scalar, 0.7, repeats);
    let mut simd = engine_with(&aln, kind, KernelKind::Simd, 0.7, repeats);
    assert_eq!(scalar.kernel_kind(), KernelKind::Scalar);
    assert_eq!(simd.kernel_kind(), KernelKind::Simd);

    let d = tree.full_traversal_descriptor(0);
    scalar.execute(&d);
    simd.execute(&d);
    let lnl_scalar = scalar.evaluate(&d);
    let lnl_simd = simd.evaluate(&d);
    for (a, b) in lnl_scalar.iter().zip(&lnl_simd) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "evaluate: {a} vs {b} (seed {seed}, repeats {repeats})"
        );
    }

    scalar.prepare_derivatives(&d);
    simd.prepare_derivatives(&d);
    for t in [1e-6, 0.05, 0.3, 1.5] {
        let (s1, s2) = scalar.derivatives(&[t]);
        let (v1, v2) = simd.derivatives(&[t]);
        assert_eq!(
            s1[0].to_bits(),
            v1[0].to_bits(),
            "d1 at t={t} (seed {seed}, repeats {repeats})"
        );
        assert_eq!(
            s2[0].to_bits(),
            v2[0].to_bits(),
            "d2 at t={t} (seed {seed}, repeats {repeats})"
        );
    }

    // A branch change plus partial traversal exercises the tip/inner child
    // mix differently from the initial full traversal.
    let e = tree.n_edges() / 2;
    tree.set_length(e, 0, 0.71);
    let partial = tree.traversal_descriptor(0);
    scalar.execute(&partial);
    simd.execute(&partial);
    let a = scalar.evaluate(&partial)[0];
    let b = simd.evaluate(&partial)[0];
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "partial evaluate (seed {seed}, repeats {repeats})"
    );

    if kind == RateModelKind::Psr {
        // The first round starts from one category at rate 1; the later
        // ones run the grid passes over several categories.
        for round in 0..3 {
            let d2 = tree.full_traversal_descriptor(0);
            let (na, da) = scalar.optimize_site_rates(&d2);
            let (nb, db) = simd.optimize_site_rates(&d2);
            let case = format!("round {round}, seed {seed}, repeats {repeats}");
            assert_eq!(na.to_bits(), nb.to_bits(), "psr numerator ({case})");
            assert_eq!(da.to_bits(), db.to_bits(), "psr denominator ({case})");
            scalar.finalize_site_rates(da / na);
            simd.finalize_site_rates(db / nb);
            let rates = scalar.model_state(0).1;
            assert!(
                rates.same_bits(&simd.model_state(0).1),
                "psr rates ({case})"
            );
            if round > 0 {
                assert!(
                    rates.distinct_rates().len() > 1,
                    "one PSR category after round {round} ({case})"
                );
            }
            tree.invalidate_all();
            let d3 = tree.full_traversal_descriptor(0);
            scalar.execute(&d3);
            simd.execute(&d3);
            let a = scalar.evaluate(&d3)[0];
            let b = simd.evaluate(&d3)[0];
            assert_eq!(a.to_bits(), b.to_bits(), "post-PSR evaluate ({case})");
        }
    }
}

#[test]
fn backends_agree_bitwise_under_gamma() {
    for seed in [1u64, 7, 42, 1234] {
        assert_backends_agree(8, 120, seed, RateModelKind::Gamma, 1.0);
    }
    // 256 taxa on saturated branches force CLV rescaling on both paths (40
    // taxa never reach 2⁻²⁵⁶: a tip costs a CLV entry ≈ 1.5–2 bits). The
    // scale counts are crate-private: the in-crate tests of this regime
    // (`avx2_loops_match_scalar_bitwise_while_rescaling`,
    // `rows_match_columns_in_the_rescaling_regime`) assert that they fire.
    assert_backends_agree(256, 40, 99, RateModelKind::Gamma, 20.0);
}

#[test]
fn backends_agree_bitwise_under_psr() {
    for seed in [3u64, 11, 77] {
        assert_backends_agree(7, 90, seed, RateModelKind::Psr, 1.0);
    }
    // The rescaling regime of the Γ case, through the PSR grid passes.
    assert_backends_agree(256, 40, 99, RateModelKind::Psr, 20.0);
}

/// Distance in units-in-the-last-place between two finite doubles.
fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    if a.signum() != b.signum() {
        return u64::MAX;
    }
    (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The public contract: per-site log-likelihoods from the two backends
    /// agree within 1 ulp on random trees and models. Sites are isolated by
    /// building single-pattern engines, so this really is per-site (not a
    /// cancellation-prone total).
    #[test]
    fn per_site_lnl_within_one_ulp(
        seed in 1u64..5000,
        alpha in 0.1f64..5.0,
        ag_rate in 0.2f64..8.0,
        scale in 0.2f64..3.0,
    ) {
        let n_taxa = 6;
        let aln = random_alignment(n_taxa, 30, seed);
        let comp = CompressedAlignment::build(&aln, &PartitionScheme::unpartitioned(aln.n_sites()));
        let part = &comp.partitions[0];
        let mut tree = Tree::random(n_taxa, 1, seed);
        for e in 0..tree.n_edges() {
            let l = tree.edge(e).length(0);
            tree.set_length(e, 0, l * scale);
        }
        for (i, repeats) in (0..part.n_patterns()).flat_map(|i| REPEATS.map(|r| (i, r))) {
            let single = part.select_patterns(&[i]);
            let slice = PartitionSlice::from_compressed(0, &single);
            let mut scalar = Engine::with_config(
                n_taxa, vec![slice.clone()], RateModelKind::Gamma, alpha, KernelKind::Scalar,
                repeats,
            );
            let mut simd = Engine::with_config(
                n_taxa, vec![slice], RateModelKind::Gamma, alpha, KernelKind::Simd, repeats,
            );
            scalar.set_gtr_rate(0, 1, ag_rate);
            simd.set_gtr_rate(0, 1, ag_rate);
            let d = tree.full_traversal_descriptor(0);
            scalar.execute(&d);
            simd.execute(&d);
            let a = scalar.evaluate(&d)[0];
            let b = simd.evaluate(&d)[0];
            prop_assert!(
                ulp_distance(a, b) <= 1,
                "site {} (seed {}, repeats {}): {} vs {} ({} ulps)",
                i, seed, repeats, a, b, ulp_distance(a, b)
            );
        }
    }
}

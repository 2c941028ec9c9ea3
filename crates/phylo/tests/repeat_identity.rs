//! Subtree-repeat compression must be bitwise invisible.
//!
//! Compression changes *which* CLV columns `newview` computes (class
//! representatives only; duplicates are filled by copying), but never the
//! arithmetic or its association order — so every observable output
//! (`evaluate`, `derivatives`, PSR rate sums) must be bit-identical with
//! compression on and off, on both kernel backends, across SPR topology
//! changes and in the deep-tree regime where CLV rescaling fires. The
//! engines here are built through [`Engine::with_config`] with the setting
//! forced explicitly.

use exa_bio::alignment::Alignment;
use exa_bio::partition::PartitionScheme;
use exa_bio::patterns::CompressedAlignment;
use exa_phylo::engine::{Engine, KernelKind, PartitionSlice};
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::Tree;
use exa_phylo::SiteRepeats;
use proptest::prelude::*;

/// Deterministic repeat-rich alignment: every site is one of `n_distinct`
/// base columns with a single point mutation. Exact whole-column duplicates
/// would be folded away by pattern compression before the engine ever sees
/// them; near-duplicates survive it as distinct patterns whose *sub*-columns
/// repeat under most inner nodes — the workload the subtree-repeat layer
/// exists for. Base columns include ambiguity codes to exercise the full
/// 16-way tip-class space.
fn repeat_rich_alignment(n_taxa: usize, len: usize, n_distinct: usize, seed: u64) -> Alignment {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let cols: Vec<Vec<char>> = (0..n_distinct)
        .map(|_| {
            (0..n_taxa)
                .map(|_| match next() % 14 {
                    0..=2 => 'A',
                    3..=5 => 'C',
                    6..=8 => 'G',
                    9..=11 => 'T',
                    12 => 'N',
                    _ => 'R',
                })
                .collect()
        })
        .collect();
    let pick: Vec<usize> = (0..len).map(|_| (next() as usize) % n_distinct).collect();
    let mut grid: Vec<Vec<char>> = (0..n_taxa)
        .map(|t| pick.iter().map(|&p| cols[p][t]).collect())
        .collect();
    #[allow(clippy::needless_range_loop)] // `s` indexes a row picked per site
    for s in 0..len {
        let t = (next() as usize) % n_taxa;
        grid[t][s] = match next() % 4 {
            0 => 'A',
            1 => 'C',
            2 => 'G',
            _ => 'T',
        };
    }
    let names: Vec<String> = (0..n_taxa).map(|i| format!("t{i}")).collect();
    let rows: Vec<String> = grid.into_iter().map(|r| r.into_iter().collect()).collect();
    let named: Vec<(&str, &str)> = names
        .iter()
        .map(String::as_str)
        .zip(rows.iter().map(String::as_str))
        .collect();
    Alignment::from_ascii(&named).unwrap()
}

/// Build a compressed/uncompressed engine pair over the same single slice.
fn engine_pair(aln: &Alignment, kind: RateModelKind, kernel: KernelKind) -> (Engine, Engine) {
    let comp = CompressedAlignment::build(aln, &PartitionScheme::unpartitioned(aln.n_sites()));
    let slice = PartitionSlice::from_compressed(0, &comp.partitions[0]);
    let on = Engine::with_config(
        aln.n_taxa(),
        vec![slice.clone()],
        kind,
        0.7,
        kernel,
        SiteRepeats::On,
    );
    let off = Engine::with_config(
        aln.n_taxa(),
        vec![slice],
        kind,
        0.7,
        kernel,
        SiteRepeats::Off,
    );
    (on, off)
}

fn assert_bits_equal(a: &[f64], b: &[f64], what: &str, seed: u64) {
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y} (seed {seed})");
    }
}

/// Drive the pair through the full kernel surface — newview over a full
/// traversal, evaluate, derivatives at rescaling-prone branch lengths, a
/// sequence of SPR moves (graft where possible, restore otherwise), and a
/// PSR rate round when applicable — asserting bitwise agreement at every
/// observable output, then check the work accounting balances.
#[allow(clippy::too_many_arguments)]
fn assert_on_off_identical(
    kernel: KernelKind,
    kind: RateModelKind,
    n_taxa: usize,
    len: usize,
    n_distinct: usize,
    seed: u64,
    scale: f64,
    moves: &[(u32, u32, u32)],
) {
    let aln = repeat_rich_alignment(n_taxa, len, n_distinct, seed);
    let (mut on, mut off) = engine_pair(&aln, kind, kernel);
    let mut tree = Tree::random(n_taxa, 1, seed);
    for e in 0..tree.n_edges() {
        let l = tree.edge(e).length(0);
        tree.set_length(e, 0, l * scale);
    }

    let d = tree.full_traversal_descriptor(0);
    on.execute(&d);
    off.execute(&d);
    assert_bits_equal(&on.evaluate(&d), &off.evaluate(&d), "evaluate", seed);

    on.prepare_derivatives(&d);
    off.prepare_derivatives(&d);
    for t in [1e-6, 0.05, 0.3, 1.5] {
        let (a1, a2) = on.derivatives(&[t]);
        let (b1, b2) = off.derivatives(&[t]);
        assert_bits_equal(&a1, &b1, "d1", seed);
        assert_bits_equal(&a2, &b2, "d2", seed);
    }

    // SPR moves rebuild repeat classes incrementally (child-stamp cache
    // misses) — every post-surgery likelihood must still match bitwise.
    for &(xr, sr, tr) in moves {
        let x = n_taxa + (xr as usize % tree.n_inner());
        let subs: Vec<usize> = tree.neighbors(x).iter().map(|&(v, _)| v).collect();
        let sub = subs[sr as usize % subs.len()];
        let info = tree.prune(x, sub);
        let cands: Vec<usize> = tree
            .edges_within_radius(info.merged_edge, 4)
            .into_iter()
            .filter(|&e| {
                let ed = tree.edge(e);
                ed.a != x && ed.b != x && e != info.free_edge
            })
            .collect();
        if cands.is_empty() {
            tree.restore_prune(&info);
        } else {
            tree.graft(&info, cands[tr as usize % cands.len()]);
        }
        tree.invalidate_all();
        let d = tree.full_traversal_descriptor(0);
        on.execute(&d);
        off.execute(&d);
        assert_bits_equal(
            &on.evaluate(&d),
            &off.evaluate(&d),
            "post-SPR evaluate",
            seed,
        );
    }

    if kind == RateModelKind::Psr {
        let d = tree.full_traversal_descriptor(0);
        let (na, da) = on.optimize_site_rates(&d);
        let (nb, db) = off.optimize_site_rates(&d);
        assert_eq!(na.to_bits(), nb.to_bits(), "psr numerator (seed {seed})");
        assert_eq!(da.to_bits(), db.to_bits(), "psr denominator (seed {seed})");
        on.finalize_site_rates(da / na);
        off.finalize_site_rates(db / nb);
        tree.invalidate_all();
        let d = tree.full_traversal_descriptor(0);
        on.execute(&d);
        off.execute(&d);
        assert_bits_equal(
            &on.evaluate(&d),
            &off.evaluate(&d),
            "post-PSR evaluate",
            seed,
        );
    }

    // Work accounting: both engines executed identical descriptors, so
    // computed + copied columns on the compressed side must equal the
    // uncompressed side's total, and only the compressed side saves.
    let (won, woff) = (on.work(), off.work());
    assert_eq!(woff.clv_saved, 0, "seed {seed}");
    assert_eq!(
        won.clv_updates + won.clv_saved,
        woff.clv_updates,
        "seed {seed}"
    );
    assert!(
        won.clv_saved > 0,
        "a {n_distinct}-column alignment over {len} sites must compress (seed {seed})"
    );
}

#[test]
fn on_off_identical_in_the_rescaling_regime() {
    // 256 taxa on saturated branches force CLV rescaling on interior nodes
    // (the regime of the in-crate `rows_match_columns_in_the_rescaling_regime`,
    // which asserts that counts fire): a row's scale count must be its
    // class's.
    for kernel in [KernelKind::Scalar, KernelKind::Simd] {
        assert_on_off_identical(
            kernel,
            RateModelKind::Gamma,
            256,
            60,
            6,
            99,
            20.0,
            &[(5, 1, 2)],
        );
    }
}

#[test]
fn on_off_identical_under_psr_rate_rounds() {
    // PSR folds per-site rate categories into the repeat classes (second
    // pairing round) and bumps the class epoch on finalize; both must stay
    // bitwise invisible.
    for kernel in [KernelKind::Scalar, KernelKind::Simd] {
        assert_on_off_identical(kernel, RateModelKind::Psr, 9, 80, 5, 17, 1.0, &[(2, 0, 1)]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline property: on random repeat-rich alignments, random
    /// trees, random branch scalings and random SPR sequences, compression
    /// is bitwise invisible on BOTH backends.
    #[test]
    fn compression_is_bitwise_invisible(
        n_taxa in 5usize..10,
        n_distinct in 1usize..8,
        seed in any::<u64>(),
        scale in 0.2f64..4.0,
        moves in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 1..5),
    ) {
        for kernel in [KernelKind::Scalar, KernelKind::Simd] {
            assert_on_off_identical(
                kernel, RateModelKind::Gamma, n_taxa, 72, n_distinct, seed, scale, &moves,
            );
        }
    }
}

//! Batching and intra-rank threading must be bitwise invisible.
//!
//! The batched runner changes *who* executes a partition's kernels (which
//! pool thread, under which batch's shared scratch) but never the
//! arithmetic or its association order: results land in indexed
//! per-partition slots and every cross-partition reduction happens
//! serially in local order. So every observable output — evaluate,
//! derivatives, term sinks, PSR rate sums, work totals — must be
//! bit-identical between the default layout (singleton batches, one
//! thread) and any packed/threaded layout, on both kernel backends.

use exa_bio::alignment::Alignment;
use exa_bio::partition::PartitionScheme;
use exa_bio::patterns::CompressedAlignment;
use exa_phylo::engine::{Engine, KernelKind, PartitionSlice};
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::Tree;
use exa_phylo::SiteRepeats;

/// Deterministic multi-partition alignment with uneven partition lengths.
fn alignment(n_taxa: usize, lengths: &[usize], seed: u64) -> (Alignment, PartitionScheme) {
    let len: usize = lengths.iter().sum();
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let rows: Vec<String> = (0..n_taxa)
        .map(|_| {
            (0..len)
                .map(|_| match next() % 5 {
                    0 => 'A',
                    1 => 'C',
                    2 => 'G',
                    3 => 'T',
                    _ => 'N',
                })
                .collect()
        })
        .collect();
    let names: Vec<String> = (0..n_taxa).map(|i| format!("t{i}")).collect();
    let named: Vec<(&str, &str)> = names
        .iter()
        .map(String::as_str)
        .zip(rows.iter().map(String::as_str))
        .collect();
    (
        Alignment::from_ascii(&named).unwrap(),
        PartitionScheme::from_lengths(lengths.iter().copied()),
    )
}

fn build(
    aln: &Alignment,
    scheme: &PartitionScheme,
    kind: RateModelKind,
    kernel: KernelKind,
    threads: usize,
    batches: Option<Vec<std::ops::Range<usize>>>,
) -> Engine {
    let comp = CompressedAlignment::build(aln, scheme);
    let slices: Vec<PartitionSlice> = comp
        .partitions
        .iter()
        .enumerate()
        .map(|(g, p)| PartitionSlice::from_compressed(g, p))
        .collect();
    let mut e = Engine::with_config(aln.n_taxa(), slices, kind, 0.7, kernel, SiteRepeats::On);
    e.set_threads(threads);
    if let Some(b) = batches {
        e.set_batches(b);
    }
    e
}

fn assert_bits_equal(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
    }
}

/// Drive a reference engine (serial, singleton batches) and a
/// packed/threaded engine through the full kernel surface and assert
/// bitwise agreement everywhere.
fn assert_layouts_identical(
    kernel: KernelKind,
    kind: RateModelKind,
    threads: usize,
    batches: Vec<std::ops::Range<usize>>,
) {
    let n_taxa = 8;
    let (aln, scheme) = alignment(n_taxa, &[23, 7, 41, 13, 29, 11, 17], 42);
    let (n_parts, n_batches) = (scheme.len() as u64, batches.len() as u64);
    let mut reference = build(&aln, &scheme, kind, kernel, 1, None);
    let mut packed = build(&aln, &scheme, kind, kernel, threads, Some(batches));

    let mut tree = Tree::random(n_taxa, 1, 7);
    let d = tree.full_traversal_descriptor(0);
    // Backend entries per batch, counted as the calls below are made: one
    // per descriptor entry for `execute`, one for every other kernel call.
    let mut entries = d.entries.len() as u64;
    reference.execute(&d);
    packed.execute(&d);
    assert_bits_equal(&reference.evaluate(&d), &packed.evaluate(&d), "evaluate");
    entries += 1;

    // Term sinks must observe the same partitions in the same order with
    // the same bits.
    let mut terms_ref: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut terms_packed: Vec<(usize, Vec<f64>)> = Vec::new();
    let a = reference.evaluate_with_terms(&d, &mut |l, t| terms_ref.push((l, t.to_vec())));
    let b = packed.evaluate_with_terms(&d, &mut |l, t| terms_packed.push((l, t.to_vec())));
    assert_bits_equal(&a, &b, "evaluate_with_terms");
    assert_eq!(terms_ref.len(), terms_packed.len());
    for ((la, ta), (lb, tb)) in terms_ref.iter().zip(&terms_packed) {
        assert_eq!(la, lb, "sink order");
        assert_bits_equal(ta, tb, "evaluate terms");
    }
    entries += 1;

    reference.prepare_derivatives(&d);
    packed.prepare_derivatives(&d);
    entries += 1;
    for t in [1e-6, 0.05, 0.3, 1.5] {
        let (a1, a2) = reference.derivatives(&[t]);
        let (b1, b2) = packed.derivatives(&[t]);
        assert_bits_equal(&a1, &b1, "d1");
        assert_bits_equal(&a2, &b2, "d2");
        entries += 1;
    }
    let mut dref: Vec<(usize, Vec<f64>, Vec<f64>)> = Vec::new();
    let mut dpacked: Vec<(usize, Vec<f64>, Vec<f64>)> = Vec::new();
    let (a1, a2) = reference.derivatives_with_terms(&[0.11], &mut |l, t1, t2| {
        dref.push((l, t1.to_vec(), t2.to_vec()))
    });
    let (b1, b2) = packed.derivatives_with_terms(&[0.11], &mut |l, t1, t2| {
        dpacked.push((l, t1.to_vec(), t2.to_vec()))
    });
    assert_bits_equal(&a1, &b1, "d1 terms variant");
    assert_bits_equal(&a2, &b2, "d2 terms variant");
    for ((la, x1, x2), (lb, y1, y2)) in dref.iter().zip(&dpacked) {
        assert_eq!(la, lb, "deriv sink order");
        assert_bits_equal(x1, y1, "d1 terms");
        assert_bits_equal(x2, y2, "d2 terms");
    }
    entries += 1;

    if kind == RateModelKind::Psr {
        let (na, da) = reference.optimize_site_rates(&d);
        let (nb, db) = packed.optimize_site_rates(&d);
        assert_eq!(na.to_bits(), nb.to_bits(), "psr numerator");
        assert_eq!(da.to_bits(), db.to_bits(), "psr denominator");
        reference.finalize_site_rates(da / na);
        packed.finalize_site_rates(db / nb);
        entries += 1;
    }

    // A topology change on top (CLV orientation churn).
    tree.invalidate_all();
    let d = tree.full_traversal_descriptor(1 % tree.n_edges());
    reference.execute(&d);
    packed.execute(&d);
    assert_bits_equal(
        &reference.evaluate(&d),
        &packed.evaluate(&d),
        "post-invalidate evaluate",
    );
    entries += d.entries.len() as u64 + 1;

    // Work accounting: identical pattern-category totals; only the dispatch
    // count differs (that is the point of packing): one dispatch per batch
    // per backend entry, where the unpacked layout has one batch per
    // partition.
    let (wr, wp) = (reference.work(), packed.work());
    assert_eq!(wr.clv_updates, wp.clv_updates);
    assert_eq!(wr.clv_saved, wp.clv_saved);
    assert_eq!(wr.eval_patterns, wp.eval_patterns);
    assert_eq!(wr.deriv_patterns, wp.deriv_patterns);
    assert_eq!(wr.site_rate_patterns, wp.site_rate_patterns);
    assert_eq!(wr.dispatches, n_parts * entries, "unpacked dispatches");
    assert_eq!(wp.dispatches, n_batches * entries, "packed dispatches");
}

#[test]
#[allow(clippy::single_range_in_vec_init)] // batch lists really are Vec<Range>
fn packed_threaded_layouts_are_bitwise_invisible() {
    let layouts: &[(usize, &[std::ops::Range<usize>])] = &[
        (1, &[0..7]),                                     // one giant batch, serial
        (2, &[0..3, 3..5, 5..7]),                         // uneven packing, 2 threads
        (8, &[0..1, 1..2, 2..3, 3..4, 4..5, 5..6, 6..7]), // singletons, 8 threads
        (8, &[0..4, 4..7]),                               // fewer batches than threads
    ];
    for kernel in [KernelKind::Scalar, KernelKind::Simd] {
        for (threads, batches) in layouts {
            assert_layouts_identical(kernel, RateModelKind::Gamma, *threads, batches.to_vec());
        }
    }
}

#[test]
fn packed_threaded_layouts_are_bitwise_invisible_under_psr() {
    for kernel in [KernelKind::Scalar, KernelKind::Simd] {
        assert_layouts_identical(kernel, RateModelKind::Psr, 8, vec![0..2, 2..7]);
    }
}

#[test]
#[allow(clippy::single_range_in_vec_init)] // batch lists really are Vec<Range>
fn set_batches_rejects_non_covers() {
    let (aln, scheme) = alignment(6, &[11, 13, 9], 3);
    let comp = CompressedAlignment::build(&aln, &scheme);
    let slices: Vec<PartitionSlice> = comp
        .partitions
        .iter()
        .enumerate()
        .map(|(g, p)| PartitionSlice::from_compressed(g, p))
        .collect();
    let mk = || {
        Engine::with_config(
            6,
            slices.clone(),
            RateModelKind::Gamma,
            0.7,
            KernelKind::Scalar,
            SiteRepeats::Off,
        )
    };
    for bad in [
        vec![0..1, 2..3], // gap
        vec![0..2],       // short cover
        vec![0..2, 1..3], // overlap
        vec![1..3, 0..1], // permuted
        vec![0..0, 0..3], // empty batch
    ] {
        let mut e = mk();
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.set_batches(bad.clone())))
                .is_err(),
            "{bad:?} must be rejected"
        );
    }
    let mut e = mk();
    e.set_batches(vec![0..2, 2..3]); // valid cover accepted
    assert_eq!(e.batch_count(), 2);
}

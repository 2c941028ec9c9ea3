//! `Engine::refresh` must be bitwise invisible.
//!
//! `refresh` skips a partition's `newview` when the descriptor is bitwise
//! the last full one, no partial descriptor ran since, and the partition's
//! model bits have not changed. A reference engine that recomputes every
//! descriptor with `Engine::execute` is driven through the same random
//! interleaving of model edits (changed and unchanged), PSR re-estimation,
//! branch-length edits, partial descriptors, repeated full descriptors and
//! full descriptors at another root; after every step each partition's
//! log-likelihood must carry the same bits on both. The second test pins
//! what the skip saves, in `WorkCounters`.

use exa_bio::alignment::Alignment;
use exa_bio::partition::PartitionScheme;
use exa_bio::patterns::CompressedAlignment;
use exa_phylo::engine::{Engine, KernelKind, PartitionSlice};
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::traversal::TraversalDescriptor;
use exa_phylo::tree::Tree;
use exa_phylo::SiteRepeats;

/// A deterministic xorshift stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    /// Uniform-ish in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Deterministic multi-partition alignment with some ambiguity codes.
fn alignment(n_taxa: usize, lengths: &[usize], seed: u64) -> (Alignment, PartitionScheme) {
    let len: usize = lengths.iter().sum();
    let mut rng = Rng::new(seed);
    let rows: Vec<String> = (0..n_taxa)
        .map(|_| {
            (0..len)
                .map(|_| ['A', 'C', 'G', 'T', 'N', 'A', 'G'][rng.below(7)])
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

fn slices(aln: &Alignment, scheme: &PartitionScheme) -> Vec<PartitionSlice> {
    let comp = CompressedAlignment::build(aln, scheme);
    comp.partitions
        .iter()
        .enumerate()
        .map(|(g, p)| PartitionSlice::from_compressed(g, p))
        .collect()
}

/// One engine layout of the matrix the property runs over.
#[derive(Debug, Clone, Copy)]
struct Layout {
    kernel: KernelKind,
    repeats: SiteRepeats,
    threads: usize,
    packed: bool,
}

fn build(aln: &Alignment, scheme: &PartitionScheme, kind: RateModelKind, l: Layout) -> Engine {
    let mut e = Engine::with_config(
        aln.n_taxa(),
        slices(aln, scheme),
        kind,
        0.7,
        l.kernel,
        l.repeats,
    );
    e.set_threads(l.threads);
    if l.packed {
        let n = e.n_partitions();
        e.set_batches(vec![0..n / 2, n / 2..n]);
    }
    e
}

fn assert_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: partition {i}: {x} vs {y}"
        );
    }
}

/// Drive `reference` (always `execute`) and `memo` (always `refresh`)
/// through `steps` random operations and compare every partition's lnL.
fn run_interleaving(kind: RateModelKind, l: Layout, seed: u64, steps: usize) {
    let n_taxa = 9;
    let lengths = [31, 12, 24, 17];
    let (aln, scheme) = alignment(n_taxa, &lengths, seed);
    let n_parts = lengths.len();
    // Γ runs on joint branch lengths, PSR on per-partition ones, so both
    // length layouts reach the descriptor comparison.
    let blen_count = if kind == RateModelKind::Gamma {
        1
    } else {
        n_parts
    };
    let mut reference = build(&aln, &scheme, kind, l);
    let mut memo = build(&aln, &scheme, kind, l);
    let mut tree = Tree::random(n_taxa, blen_count, seed ^ 0x5a5a);
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(7));
    let mut pick = |n: usize| rng.below(n);
    let mut root = 0;
    let d = tree.full_traversal_descriptor(root);
    reference.execute(&d);
    memo.refresh(&d);
    for step in 0..steps {
        let what = pick(11);
        let p = pick(n_parts);
        match what {
            // A GTR rate: unchanged (the bits it holds) or moved.
            0 | 1 => {
                let i = pick(5);
                let v = if what == 0 {
                    reference.gtr_rates(p)[i]
                } else {
                    0.2 + pick(40) as f64 * 0.17
                };
                reference.set_gtr_rate(p, i, v);
                memo.set_gtr_rate(p, i, v);
                tree.invalidate_all();
            }
            // Γ shape, unchanged or moved (PSR: the site-rate round).
            2 | 3 if kind == RateModelKind::Gamma => {
                let a = if what == 2 {
                    reference.alpha(p).unwrap()
                } else {
                    0.1 + pick(30) as f64 * 0.13
                };
                reference.set_alpha(p, a);
                memo.set_alpha(p, a);
                tree.invalidate_all();
            }
            2 | 3 => {
                let full = tree.full_traversal_descriptor(root);
                reference.execute(&full);
                memo.refresh(&full);
                let (na, da) = reference.optimize_site_rates(&full);
                let (nb, db) = memo.optimize_site_rates(&full);
                assert_eq!(na.to_bits(), nb.to_bits(), "step {step}: PSR numerator");
                assert_eq!(da.to_bits(), db.to_bits(), "step {step}: PSR denominator");
                reference.finalize_site_rates(da / na);
                memo.finalize_site_rates(db / nb);
                tree.invalidate_all();
            }
            // A whole model state: the one held, or another partition's.
            4 => {
                let q = if pick(2) == 0 { p } else { pick(n_parts) };
                let (model, rates) = reference.model_state(q);
                if kind == RateModelKind::Psr && q != p {
                    // PSR states are per-pattern: only the model travels.
                    let (_, own) = reference.model_state(p);
                    reference.set_model_state(p, model.clone(), own.clone());
                    memo.set_model_state(p, model, own);
                } else {
                    reference.set_model_state(p, model.clone(), rates.clone());
                    memo.set_model_state(p, model, rates);
                }
                tree.invalidate_all();
            }
            // A branch-length edit (sometimes to the value it has), seen
            // by a partial descriptor or straight by a full one.
            5 => {
                let e = pick(tree.n_edges());
                let v = if pick(3) == 0 {
                    tree.edge(e).length(p)
                } else {
                    0.01 + pick(50) as f64 * 0.02
                };
                tree.set_length(e, p, v);
                if pick(2) == 0 {
                    tree.invalidate_all();
                }
            }
            // A full descriptor at another root.
            6 => {
                root = pick(tree.n_edges());
                tree.invalidate_all();
            }
            // A partial descriptor between two bitwise-equal full ones: it
            // re-orients CLVs the second full one must not trust.
            7 => {
                let full = tree.full_traversal_descriptor(root);
                reference.execute(&full);
                memo.refresh(&full);
                let partial = tree.traversal_descriptor(pick(tree.n_edges()));
                reference.execute(&partial);
                memo.refresh(&partial);
                tree.invalidate_all();
            }
            // A partial descriptor: move the virtual root.
            8 => root = pick(tree.n_edges()),
            // The same full descriptor twice.
            _ => {
                tree.invalidate_all();
                let full = tree.full_traversal_descriptor(root);
                reference.execute(&full);
                memo.refresh(&full);
                tree.invalidate_all();
            }
        }
        let d = tree.traversal_descriptor(root);
        reference.execute(&d);
        memo.refresh(&d);
        assert_bits(
            &reference.evaluate(&d),
            &memo.evaluate(&d),
            &format!("{kind:?} {l:?} seed {seed} step {step} (op {what})"),
        );
    }
    // The skip must have fired, or this test proves nothing.
    let (wr, wm) = (reference.work(), memo.work());
    assert!(
        wm.clv_updates < wr.clv_updates,
        "{kind:?} {l:?}: nothing skipped"
    );
    assert_eq!(
        wr.dispatches, wm.dispatches,
        "dispatches keep counting batches"
    );
}

#[test]
fn refresh_is_bitwise_execute_under_random_interleavings() {
    for kernel in [KernelKind::Scalar, KernelKind::Simd] {
        for repeats in [SiteRepeats::On, SiteRepeats::Off] {
            for threads in [1, 2] {
                for packed in [false, true] {
                    let l = Layout {
                        kernel,
                        repeats,
                        threads,
                        packed,
                    };
                    for (i, kind) in [RateModelKind::Gamma, RateModelKind::Psr]
                        .into_iter()
                        .enumerate()
                    {
                        run_interleaving(kind, l, 11 + i as u64, 60);
                    }
                }
            }
        }
    }
}

/// `clv_updates` a fresh engine over partition `p` alone spends on `d`.
fn updates_of(aln: &Alignment, scheme: &PartitionScheme, p: usize, d: &TraversalDescriptor) -> u64 {
    let mut one = Engine::with_config(
        aln.n_taxa(),
        vec![slices(aln, scheme).swap_remove(p)],
        RateModelKind::Gamma,
        0.7,
        KernelKind::Scalar,
        SiteRepeats::On,
    );
    one.execute(d);
    one.work().clv_updates
}

#[test]
fn refresh_recomputes_exactly_the_partitions_whose_model_moved() {
    let n_taxa = 10;
    let (aln, scheme) = alignment(n_taxa, &[40, 25, 33], 5);
    let mut e = Engine::with_config(
        n_taxa,
        slices(&aln, &scheme),
        RateModelKind::Gamma,
        0.7,
        KernelKind::Scalar,
        SiteRepeats::On,
    );
    let mut tree = Tree::random(n_taxa, 1, 3);
    let d = tree.full_traversal_descriptor(0);
    let per_part: Vec<u64> = (0..3).map(|p| updates_of(&aln, &scheme, p, &d)).collect();
    let dispatches = 3 * d.entries.len() as u64;
    let cost = |e: &mut Engine, d| {
        e.reset_work();
        e.refresh(d);
        let w = e.work();
        assert_eq!(w.dispatches, dispatches, "dispatch count");
        w.clv_updates
    };

    assert_eq!(
        cost(&mut e, &d),
        per_part.iter().sum::<u64>(),
        "first traversal"
    );
    // Nothing changed: the remembered descriptor costs nothing.
    assert_eq!(cost(&mut e, &d), 0, "unchanged");
    // Setters handed the bits a partition holds leave it clean.
    let held = e.gtr_rates(2)[3];
    e.set_gtr_rate(2, 3, held);
    let alpha = e.alpha(0).unwrap();
    e.set_alpha(0, alpha);
    let (model, rates) = e.model_state(1);
    e.set_model_state(1, model, rates);
    assert_eq!(cost(&mut e, &d), 0, "unchanged bits");
    // One partition's rate moved: exactly that partition runs.
    e.set_gtr_rate(1, 0, 2.5);
    assert_eq!(cost(&mut e, &d), per_part[1], "partition 1 moved");
    e.set_alpha(2, 0.3);
    e.set_alpha(0, 1.9);
    assert_eq!(
        cost(&mut e, &d),
        per_part[0] + per_part[2],
        "partitions 0, 2"
    );
    // A partial descriptor in between: the same full one runs all three.
    let all = per_part.iter().sum::<u64>();
    let partial = tree.traversal_descriptor(5);
    assert!(!partial.is_empty() && partial.entries.len() < n_taxa - 2);
    e.refresh(&partial);
    let again = tree.full_traversal_descriptor(0);
    assert!(again.same_bits(&d));
    assert_eq!(cost(&mut e, &again), all, "after a partial descriptor");
    // An empty descriptor writes nothing and keeps the memo.
    e.refresh(&tree.traversal_descriptor(0));
    assert_eq!(cost(&mut e, &d), 0, "after an empty descriptor");
    // `execute` never skips.
    e.reset_work();
    e.execute(&d);
    assert_eq!(e.work().clv_updates, all, "execute recomputes");
}

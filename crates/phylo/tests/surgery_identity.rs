//! CLV reuse across tree surgery must be bitwise invisible.
//!
//! `prune`, `graft`, `ungraft` and `restore_prune` keep the orientation
//! marker of an endpoint whose edge slot they re-point (a graft of `x` into
//! `y`–`z` turns `y → z` into `y → x`), so the next partial descriptor
//! reuses that CLV instead of recomputing it. An engine fed only those
//! partial descriptors, rooted at the fresh attachment edge as a lazy SPR
//! pass roots them, is driven through random surgery and branch-length
//! edits; after every step each partition's log-likelihood must carry the
//! same bits as a reference engine that recomputes every CLV from a full
//! descriptor of an `invalidate_all()` clone of the tree.

use exa_bio::alignment::Alignment;
use exa_bio::partition::PartitionScheme;
use exa_bio::patterns::CompressedAlignment;
use exa_phylo::engine::{Engine, KernelKind, PartitionSlice};
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::{EdgeId, GraftInfo, PruneInfo, Tree};
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

/// Deterministic two-partition alignment with some ambiguity codes and
/// repeated columns (so site repeats have something to find).
fn alignment(n_taxa: usize, lengths: &[usize], seed: u64) -> (Alignment, PartitionScheme) {
    let len: usize = lengths.iter().sum();
    let mut rng = Rng::new(seed);
    let rows: Vec<String> = (0..n_taxa)
        .map(|t| {
            (0..len)
                .map(|c| {
                    if c % 5 == 0 && t % 3 == 0 {
                        'A'
                    } else {
                        ['A', 'C', 'G', 'T', 'N', 'A', 'G'][rng.below(7)]
                    }
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
    repeats: SiteRepeats,
) -> Engine {
    let comp = CompressedAlignment::build(aln, scheme);
    let slices = comp
        .partitions
        .iter()
        .enumerate()
        .map(|(g, p)| PartitionSlice::from_compressed(g, p))
        .collect();
    let mut e = Engine::with_config(aln.n_taxa(), slices, kind, 0.7, kernel, repeats);
    e.set_gtr_rate(0, 1, 2.5);
    e.set_gtr_rate(1, 3, 0.4);
    e
}

/// Where the surgery stands.
enum State {
    Whole,
    Pruned(PruneInfo),
    Grafted(PruneInfo, GraftInfo),
}

/// Candidate insertion edges of a pruned tree, as the lazy SPR pass lists
/// them.
fn candidates(tree: &Tree, info: &PruneInfo) -> Vec<EdgeId> {
    tree.edges_within_radius(info.merged_edge, 3)
        .into_iter()
        .filter(|&e| {
            let ed = tree.edge(e);
            ed.a != info.x && ed.b != info.x && e != info.free_edge
        })
        .collect()
}

fn lengths(tree: &Tree, e: EdgeId, pick: &mut impl FnMut(usize) -> usize) -> Vec<f64> {
    (0..tree.blen_count())
        .map(|p| {
            if pick(3) == 0 {
                tree.edge(e).length(p)
            } else {
                0.01 + pick(50) as f64 * 0.02
            }
        })
        .collect()
}

fn run(
    kind: RateModelKind,
    kernel: KernelKind,
    repeats: SiteRepeats,
    per_partition: bool,
    seed: u64,
) {
    let n_taxa = 11;
    let part_lengths = [43, 29];
    let (aln, scheme) = alignment(n_taxa, &part_lengths, seed);
    let blen_count = if per_partition { part_lengths.len() } else { 1 };
    let mut lazy = build(&aln, &scheme, kind, kernel, repeats);
    let mut reference = build(&aln, &scheme, kind, kernel, repeats);
    let mut tree = Tree::random(n_taxa, blen_count, seed ^ 0x5a5a);
    let label =
        format!("{kind:?} {kernel:?} {repeats:?} per-partition {per_partition} seed {seed}");

    if kind == RateModelKind::Psr {
        // Per-pattern rates that are not all 1, identical on both engines.
        let full = tree.full_traversal_descriptor(0);
        for engine in [&mut lazy, &mut reference] {
            engine.execute(&full);
            let (num, den) = engine.optimize_site_rates(&full);
            engine.finalize_site_rates(den / num);
        }
        tree.invalidate_all();
    }

    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(7));
    let mut pick = |n: usize| rng.below(n);
    let mut state = State::Whole;
    let mut root = 0;
    let mut grafts = 0;
    for step in 0..160 {
        let what = pick(5);
        state = match state {
            State::Whole => match what {
                0 | 1 => {
                    let x = n_taxa + pick(tree.n_inner());
                    let sub = tree.neighbors(x)[pick(3)].0;
                    let info = tree.prune(x, sub);
                    root = info.merged_edge;
                    State::Pruned(info)
                }
                2 | 3 => {
                    let e = pick(tree.n_edges());
                    let l = lengths(&tree, e, &mut pick);
                    tree.set_lengths(e, &l);
                    State::Whole
                }
                _ => {
                    root = pick(tree.n_edges());
                    State::Whole
                }
            },
            State::Pruned(info) => {
                let cands = candidates(&tree, &info);
                match what {
                    0..=2 if !cands.is_empty() => {
                        let g = tree.graft(&info, cands[pick(cands.len())]);
                        grafts += 1;
                        root = g.target_edge;
                        State::Grafted(info, g)
                    }
                    3 if !cands.is_empty() => {
                        let e = cands[pick(cands.len())];
                        let l = lengths(&tree, e, &mut pick);
                        tree.set_lengths(e, &l);
                        State::Pruned(info)
                    }
                    _ => {
                        tree.restore_prune(&info);
                        root = info.merged_edge;
                        State::Whole
                    }
                }
            }
            State::Grafted(info, g) => match what {
                0 | 1 => {
                    tree.ungraft(&g, &info);
                    root = info.merged_edge;
                    State::Pruned(info)
                }
                2 => {
                    let around = tree.edge_between(info.x, info.sub).unwrap();
                    let e = [g.target_edge, g.new_edge, around][pick(3)];
                    let l = lengths(&tree, e, &mut pick);
                    tree.set_lengths(e, &l);
                    State::Grafted(info, g)
                }
                3 => {
                    root = pick(tree.n_edges());
                    State::Grafted(info, g)
                }
                // Accept the move.
                _ => State::Whole,
            },
        };
        if let State::Whole = state {
            tree.check_invariants()
                .unwrap_or_else(|e| panic!("{label} step {step}: {e}"));
        }
        let d = tree.traversal_descriptor(root);
        lazy.execute(&d);
        let mut fresh = tree.clone();
        fresh.invalidate_all();
        let full = fresh.traversal_descriptor(root);
        reference.execute(&full);
        let (a, b) = (lazy.evaluate(&d), reference.evaluate(&full));
        for (p, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label} step {step} (op {what}): partition {p}: {x} vs {y}"
            );
        }
    }
    // The reuse must have fired, or this test proves nothing.
    assert!(grafts >= 10, "{label}: only {grafts} grafts");
    assert!(
        2 * lazy.work().clv_updates < reference.work().clv_updates,
        "{label}: {} of {} CLV entries recomputed",
        lazy.work().clv_updates,
        reference.work().clv_updates
    );
}

#[test]
fn clv_reuse_after_surgery_is_bitwise_invisible() {
    let mut seed = 3;
    for kind in [RateModelKind::Gamma, RateModelKind::Psr] {
        for kernel in [KernelKind::Scalar, KernelKind::Simd] {
            for repeats in [SiteRepeats::On, SiteRepeats::Off] {
                for per_partition in [false, true] {
                    run(kind, kernel, repeats, per_partition, seed);
                    seed += 1;
                }
            }
        }
    }
}

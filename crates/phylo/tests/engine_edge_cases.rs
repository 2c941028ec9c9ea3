//! Engine edge cases: zero-partition engines, scaling counter behaviour,
//! PSR quantization through the engine API, and memory accounting — each on
//! every kernel backend with site-repeat compression on and off.

use exa_bio::alignment::Alignment;
use exa_bio::partition::PartitionScheme;
use exa_bio::patterns::CompressedAlignment;
use exa_phylo::engine::{Engine, KernelKind, PartitionSlice, SiteRepeats};
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::Tree;

/// A kernel backend and a site-repeats setting.
type Backend = (KernelKind, SiteRepeats);

/// Each test runs once per entry.
const BACKENDS: [Backend; 4] = [
    (KernelKind::Scalar, SiteRepeats::On),
    (KernelKind::Scalar, SiteRepeats::Off),
    (KernelKind::Simd, SiteRepeats::On),
    (KernelKind::Simd, SiteRepeats::Off),
];

fn engine(
    n_taxa: usize,
    slices: Vec<PartitionSlice>,
    kind: RateModelKind,
    alpha: f64,
    (kernel, repeats): Backend,
) -> Engine {
    Engine::with_config(n_taxa, slices, kind, alpha, kernel, repeats)
}

fn slices_from(aln: &Alignment, parts: usize) -> Vec<PartitionSlice> {
    let scheme = if parts == 1 {
        PartitionScheme::unpartitioned(aln.n_sites())
    } else {
        PartitionScheme::uniform_chunks(parts, aln.n_sites() / parts)
    };
    let comp = CompressedAlignment::build(aln, &scheme);
    comp.partitions
        .iter()
        .enumerate()
        .map(|(i, p)| PartitionSlice::from_compressed(i, p))
        .collect()
}

fn small_alignment(n_taxa: usize, sites: usize, seed: u64) -> Alignment {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let rows: Vec<(String, String)> = (0..n_taxa)
        .map(|i| {
            let seq: String = (0..sites)
                .map(|_| ['A', 'C', 'G', 'T'][(next() % 4) as usize])
                .collect();
            (format!("t{i}"), seq)
        })
        .collect();
    let refs: Vec<(&str, &str)> = rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    Alignment::from_ascii(&refs).unwrap()
}

#[test]
fn empty_engine_keeps_configured_kind() {
    // A rank holding zero partitions must still report the configured rate
    // model so its collective call sequence matches loaded ranks.
    for b in BACKENDS {
        let e = engine(5, Vec::new(), RateModelKind::Psr, 1.0, b);
        assert_eq!(e.rate_kind(), RateModelKind::Psr);
        assert_eq!(e.n_partitions(), 0);
        assert_eq!(e.total_patterns(), 0);
        assert_eq!(e.clv_bytes(), 0);

        let g = engine(5, Vec::new(), RateModelKind::Gamma, 1.0, b);
        assert_eq!(g.rate_kind(), RateModelKind::Gamma);
    }
}

#[test]
fn empty_engine_executes_descriptors_harmlessly() {
    for b in BACKENDS {
        let mut e = engine(6, Vec::new(), RateModelKind::Gamma, 1.0, b);
        let mut tree = Tree::random(6, 1, 1);
        let d = tree.full_traversal_descriptor(0);
        e.execute(&d);
        let lnls = e.evaluate(&d);
        assert!(lnls.is_empty());
        e.prepare_derivatives(&d);
        let (d1, d2) = e.derivatives(&[0.1]);
        assert!(d1.is_empty() && d2.is_empty());
        let (num, den) = e.optimize_site_rates(&d);
        assert_eq!((num, den), (0.0, 0.0));
    }
}

#[test]
fn scaling_counters_activate_on_deep_trees() {
    // 60 taxa with long branches forces CLV rescaling; the per-pattern
    // likelihood must remain finite and negative.
    for b in BACKENDS {
        let aln = small_alignment(60, 20, 7);
        let mut e = engine(60, slices_from(&aln, 1), RateModelKind::Gamma, 0.4, b);
        let mut tree = Tree::random(60, 1, 7);
        for edge in 0..tree.n_edges() {
            tree.set_length(edge, 0, 3.0);
        }
        let d = tree.full_traversal_descriptor(0);
        e.execute(&d);
        let lnl = e.evaluate(&d)[0];
        assert!(lnl.is_finite() && lnl < 0.0, "{lnl}");
        // Without scaling, 58+ inner nodes × branch length 3 would underflow
        // f64 (each pattern multiplies ~e^-3-ish factors 60 times per state
        // path); finite output implies the counters fired.
    }
}

#[test]
fn psr_rates_quantize_to_bounded_categories() {
    for b in BACKENDS {
        let aln = small_alignment(8, 300, 9);
        let mut e = engine(8, slices_from(&aln, 1), RateModelKind::Psr, 1.0, b);
        let mut tree = Tree::random(8, 1, 9);
        let d = tree.full_traversal_descriptor(0);
        e.execute(&d);
        let (num, den) = e.optimize_site_rates(&d);
        assert!(num > 0.0 && den > 0.0);
        e.finalize_site_rates(den / num);
        let (_, rates) = e.model_state(0);
        let distinct = rates.distinct_rates();
        assert!(distinct.len() <= exa_phylo::model::rates::PSR_MAX_CATEGORIES);
        assert!(
            distinct.len() > 1,
            "300 random sites should span multiple rate categories"
        );
    }
}

#[test]
fn clv_bytes_track_rate_model() {
    for b in BACKENDS {
        let aln = small_alignment(10, 200, 3);
        let g = engine(10, slices_from(&aln, 1), RateModelKind::Gamma, 1.0, b);
        let p = engine(10, slices_from(&aln, 1), RateModelKind::Psr, 1.0, b);
        // Γ CLVs are 4x PSR CLVs; totals include scalers/sumtable so the ratio
        // lands a bit below 4.
        let ratio = g.clv_bytes() as f64 / p.clv_bytes() as f64;
        assert!(ratio > 3.0 && ratio <= 4.0, "ratio {ratio}");
    }
}

#[test]
fn work_counters_scale_with_category_count() {
    for b in BACKENDS {
        let aln = small_alignment(8, 100, 5);
        let mut tree_g = Tree::random(8, 1, 5);
        let mut tree_p = tree_g.clone();

        let mut g = engine(8, slices_from(&aln, 1), RateModelKind::Gamma, 1.0, b);
        let dg = tree_g.full_traversal_descriptor(0);
        g.execute(&dg);

        let mut p = engine(8, slices_from(&aln, 1), RateModelKind::Psr, 1.0, b);
        let dp = tree_p.full_traversal_descriptor(0);
        p.execute(&dp);

        assert_eq!(
            g.work().clv_updates,
            4 * p.work().clv_updates,
            "Γ does 4 rate categories of CLV work per pattern"
        );
    }
}

#[test]
fn model_state_roundtrip_preserves_likelihood() {
    for b in BACKENDS {
        let aln = small_alignment(7, 120, 11);
        let mut e = engine(7, slices_from(&aln, 2), RateModelKind::Gamma, 0.8, b);
        let mut tree = Tree::random(7, 1, 11);
        e.set_gtr_rate(0, 1, 3.5);
        e.set_alpha(1, 0.33);
        let d = tree.full_traversal_descriptor(0);
        e.execute(&d);
        let before = e.evaluate(&d);

        // Export, perturb, re-import, verify.
        let saved: Vec<_> = (0..2).map(|i| e.model_state(i)).collect();
        e.set_alpha(1, 2.0);
        e.set_gtr_rate(0, 0, 9.0);
        for (i, (m, r)) in saved.into_iter().enumerate() {
            e.set_model_state(i, m, r);
        }
        let d2 = tree.full_traversal_descriptor(0);
        e.execute(&d2);
        let after = e.evaluate(&d2);
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-12, "{b} vs {a}");
        }
    }
}

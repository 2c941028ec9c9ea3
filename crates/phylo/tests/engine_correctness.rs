//! Engine correctness against an independent brute-force likelihood
//! implementation, plus the structural invariants parallel execution relies
//! on (root-invariance, partial-traversal equivalence, additivity of
//! pattern-split likelihoods). Every test holds on each kernel backend with
//! site-repeat compression on and off.

// The brute-force reference implementation uses explicit site/state indices.
#![allow(clippy::needless_range_loop)]

use exa_bio::alignment::Alignment;
use exa_bio::dna::NUM_STATES;
use exa_bio::partition::PartitionScheme;
use exa_bio::patterns::CompressedAlignment;
use exa_phylo::engine::{Engine, KernelKind, PartitionSlice, SiteRepeats};
use exa_phylo::model::pmatrix::prob_matrix;
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::model::GtrModel;
use exa_phylo::tree::{NodeId, Tree};

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
    (kernel, repeats): Backend,
) -> Engine {
    Engine::with_config(n_taxa, slices, kind, 1.0, kernel, repeats)
}

fn build_engine(aln: &Alignment, kind: RateModelKind, b: Backend) -> Engine {
    let comp = CompressedAlignment::build(aln, &PartitionScheme::unpartitioned(aln.n_sites()));
    let slices = vec![PartitionSlice::from_compressed(0, &comp.partitions[0])];
    engine(aln.n_taxa(), slices, kind, b)
}

/// Brute-force per-partition log-likelihood: direct Felsenstein recursion
/// over the tree, integrating categories, no scaling (small trees only).
fn brute_force_lnl(
    tree: &Tree,
    tips: &[Vec<u8>],
    weights: &[f64],
    model: &GtrModel,
    cat_rates_of_pattern: &dyn Fn(usize) -> Vec<(f64, f64)>, // (rate, weight)
) -> f64 {
    let root_edge = 0;
    let (a, b) = (tree.edge(root_edge).a, tree.edge(root_edge).b);
    let t_root = tree.edge(root_edge).length(0);
    let n_patterns = weights.len();
    let mut lnl = 0.0;
    for i in 0..n_patterns {
        let mut site = 0.0;
        for (rate, w) in cat_rates_of_pattern(i) {
            let xa = conditional(tree, tips, model, a, b, i, rate);
            let xb = conditional(tree, tips, model, b, a, i, rate);
            let p = prob_matrix(model, t_root, rate);
            let freqs = model.freqs();
            let mut acc = 0.0;
            for s in 0..NUM_STATES {
                let mut pb = 0.0;
                for t in 0..NUM_STATES {
                    pb += p[s][t] * xb[t];
                }
                acc += freqs[s] * xa[s] * pb;
            }
            site += w * acc;
        }
        lnl += weights[i] * site.ln();
    }
    lnl
}

fn conditional(
    tree: &Tree,
    tips: &[Vec<u8>],
    model: &GtrModel,
    v: NodeId,
    parent: NodeId,
    pattern: usize,
    rate: f64,
) -> [f64; NUM_STATES] {
    if tree.is_tip(v) {
        let code = tips[v][pattern] as usize & 0xf;
        let mut out = [0.0; NUM_STATES];
        for (s, o) in out.iter_mut().enumerate() {
            if code & (1 << s) != 0 {
                *o = 1.0;
            }
        }
        return out;
    }
    let mut out = [1.0; NUM_STATES];
    for &(c, e) in tree.neighbors(v) {
        if c == parent {
            continue;
        }
        let child = conditional(tree, tips, model, c, v, pattern, rate);
        let p = prob_matrix(model, tree.edge(e).length(0), rate);
        for (s, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for t in 0..NUM_STATES {
                acc += p[s][t] * child[t];
            }
            *o *= acc;
        }
    }
    out
}

fn tips_and_weights(aln: &Alignment) -> (Vec<Vec<u8>>, Vec<f64>) {
    let comp = CompressedAlignment::build(aln, &PartitionScheme::unpartitioned(aln.n_sites()));
    let p = &comp.partitions[0];
    (
        p.tips.clone(),
        p.weights.iter().map(|&w| w as f64).collect(),
    )
}

#[test]
fn gamma_likelihood_matches_brute_force() {
    for b in BACKENDS {
        for seed in [1u64, 2, 3] {
            let aln = random_alignment(6, 40, seed);
            let mut tree = Tree::random(6, 1, seed);
            let mut engine = build_engine(&aln, RateModelKind::Gamma, b);
            engine.set_alpha(0, 0.7);

            let d = tree.full_traversal_descriptor(0);
            engine.execute(&d);
            let lnl = engine.evaluate(&d)[0];

            let (tips, weights) = tips_and_weights(&aln);
            let model = GtrModel::new([1.0; 6], engine.freqs(0));
            let gamma_rates = exa_phylo::numerics::gamma::discrete_gamma_rates(0.7, 4);
            let cats: Vec<(f64, f64)> = gamma_rates.iter().map(|&r| (r, 0.25)).collect();
            let reference = brute_force_lnl(&tree, &tips, &weights, &model, &|_| cats.clone());
            assert!(
                (lnl - reference).abs() < 1e-8,
                "seed {seed}: engine {lnl} vs brute force {reference}"
            );
        }
    }
}

#[test]
fn psr_likelihood_matches_brute_force() {
    for b in BACKENDS {
        let aln = random_alignment(5, 30, 11);
        let mut tree = Tree::random(5, 1, 4);
        let mut engine = build_engine(&aln, RateModelKind::Psr, b);

        let d = tree.full_traversal_descriptor(0);
        engine.execute(&d);
        let lnl = engine.evaluate(&d)[0];

        let (tips, weights) = tips_and_weights(&aln);
        let model = GtrModel::new([1.0; 6], engine.freqs(0));
        // Fresh PSR: all rates 1.
        let reference = brute_force_lnl(&tree, &tips, &weights, &model, &|_| vec![(1.0, 1.0)]);
        assert!(
            (lnl - reference).abs() < 1e-8,
            "engine {lnl} vs brute force {reference}"
        );
    }
}

#[test]
fn gtr_rates_affect_likelihood_consistently() {
    for b in BACKENDS {
        let aln = random_alignment(5, 30, 21);
        let mut tree = Tree::random(5, 1, 2);
        let mut engine = build_engine(&aln, RateModelKind::Gamma, b);
        engine.set_alpha(0, 1.2);
        engine.set_gtr_rate(0, 1, 4.0); // transition-heavy AG rate
        tree.invalidate_all();

        let d = tree.full_traversal_descriptor(0);
        engine.execute(&d);
        let lnl = engine.evaluate(&d)[0];

        let (tips, weights) = tips_and_weights(&aln);
        let mut rates = [1.0f64; 6];
        rates[1] = 4.0;
        let model = GtrModel::new(rates, engine.freqs(0));
        let gamma_rates = exa_phylo::numerics::gamma::discrete_gamma_rates(1.2, 4);
        let cats: Vec<(f64, f64)> = gamma_rates.iter().map(|&r| (r, 0.25)).collect();
        let reference = brute_force_lnl(&tree, &tips, &weights, &model, &|_| cats.clone());
        assert!(
            (lnl - reference).abs() < 1e-8,
            "engine {lnl} vs brute force {reference}"
        );
    }
}

#[test]
fn likelihood_invariant_under_root_choice() {
    // Felsenstein's pulley principle: the likelihood must not depend on
    // which edge hosts the virtual root.
    for b in BACKENDS {
        let aln = random_alignment(8, 60, 5);
        let mut tree = Tree::random(8, 1, 9);
        let mut engine = build_engine(&aln, RateModelKind::Gamma, b);
        engine.set_alpha(0, 0.5);

        let d0 = tree.full_traversal_descriptor(0);
        engine.execute(&d0);
        let reference = engine.evaluate(&d0)[0];
        for e in 1..tree.n_edges() {
            let d = tree.traversal_descriptor(e);
            engine.execute(&d);
            let lnl = engine.evaluate(&d)[0];
            assert!(
                (lnl - reference).abs() < 1e-7,
                "edge {e}: {lnl} vs {reference} (diff {})",
                (lnl - reference).abs()
            );
        }
    }
}

#[test]
fn partial_traversal_equals_full_traversal() {
    for b in BACKENDS {
        let aln = random_alignment(10, 50, 6);
        let mut tree = Tree::random(10, 1, 6);
        let mut engine = build_engine(&aln, RateModelKind::Gamma, b);

        // Full traversal once, then change one distant branch and do a partial.
        let d = tree.full_traversal_descriptor(0);
        engine.execute(&d);
        let _ = engine.evaluate(&d);

        let far = tree.n_edges() - 1;
        tree.set_length(far, 0, 0.37);
        let partial = tree.traversal_descriptor(0);
        assert!(
            partial.len() < tree.n_inner(),
            "expected a partial traversal"
        );
        engine.execute(&partial);
        let lnl_partial = engine.evaluate(&partial)[0];

        // Reference: full recomputation from scratch.
        let mut tree2 = tree.clone();
        let mut engine2 = build_engine(&aln, RateModelKind::Gamma, b);
        let d2 = tree2.full_traversal_descriptor(0);
        engine2.execute(&d2);
        let lnl_full = engine2.evaluate(&d2)[0];

        assert!(
            (lnl_partial - lnl_full).abs() < 1e-9,
            "partial {lnl_partial} vs full {lnl_full}"
        );
    }
}

#[test]
fn derivatives_match_finite_differences() {
    for b in BACKENDS {
        let aln = random_alignment(7, 40, 8);
        let mut tree = Tree::random(7, 1, 8);
        let mut engine = build_engine(&aln, RateModelKind::Gamma, b);
        engine.set_alpha(0, 0.9);

        let root = 2;
        let mut d = tree.full_traversal_descriptor(root);
        engine.execute(&d);
        engine.prepare_derivatives(&d);

        let t0 = 0.23;
        let (d1, d2) = engine.derivatives(&[t0]);

        // Finite differences via evaluate with hand-edited root lengths (CLVs
        // are independent of the root-edge length).
        let h = 1e-6;
        let lnl_at =
            |t: f64,
             eng: &mut Engine,
             desc: &mut exa_phylo::tree::traversal::TraversalDescriptor| {
                desc.root_lengths = vec![t];
                eng.evaluate(desc)[0]
            };
        let lp = lnl_at(t0 + h, &mut engine, &mut d);
        let lm = lnl_at(t0 - h, &mut engine, &mut d);
        let l0 = lnl_at(t0, &mut engine, &mut d);
        let fd1 = (lp - lm) / (2.0 * h);
        let fd2 = (lp - 2.0 * l0 + lm) / (h * h);

        assert!(
            (d1[0] - fd1).abs() < 1e-4 * (1.0 + fd1.abs()),
            "d1 {} vs fd {fd1}",
            d1[0]
        );
        assert!(
            (d2[0] - fd2).abs() < 1e-2 * (1.0 + fd2.abs()),
            "d2 {} vs fd {fd2}",
            d2[0]
        );
    }
}

#[test]
fn derivative_zero_at_optimum() {
    // Newton-Raphson target: at the ML branch length the first derivative
    // crosses zero and the second is negative.
    for b in BACKENDS {
        let aln = random_alignment(6, 80, 13);
        let mut tree = Tree::random(6, 1, 13);
        let mut engine = build_engine(&aln, RateModelKind::Gamma, b);

        let root = 1;
        let d = tree.full_traversal_descriptor(root);
        engine.execute(&d);
        engine.prepare_derivatives(&d);

        // Newton iteration to convergence.
        let mut t = 0.1;
        for _ in 0..50 {
            let (d1, d2) = engine.derivatives(&[t]);
            if d2[0] >= 0.0 {
                break;
            }
            let step = d1[0] / d2[0];
            t = (t - step).clamp(1e-8, 10.0);
            if step.abs() < 1e-12 {
                break;
            }
        }
        let (d1, d2) = engine.derivatives(&[t]);
        assert!(d1[0].abs() < 1e-6, "derivative at optimum: {}", d1[0]);
        assert!(
            d2[0] < 0.0,
            "second derivative at optimum must be negative: {}",
            d2[0]
        );
    }
}

#[test]
fn pattern_split_likelihoods_are_additive() {
    // The parallel-correctness invariant: distributing patterns across
    // engines and summing their local log-likelihoods must reproduce the
    // single-engine value exactly (up to summation order).
    for b in BACKENDS {
        let aln = random_alignment(9, 100, 17);
        let comp = CompressedAlignment::build(&aln, &PartitionScheme::unpartitioned(aln.n_sites()));
        let part = &comp.partitions[0];
        let n = part.n_patterns();

        let mut tree = Tree::random(9, 1, 17);
        let d = tree.full_traversal_descriptor(0);

        // Full engine. Use fixed uniform frequencies so every split engine has
        // the identical model (empirical frequencies would differ per subset).
        let full_slice = PartitionSlice::from_compressed(0, part);
        let mut full = engine(9, vec![full_slice], RateModelKind::Gamma, b);
        let model = GtrModel::new([1.0; 6], [0.25; 4]);
        let (_, rh) = full.model_state(0);
        full.set_model_state(0, model.clone(), rh);
        full.execute(&d);
        let lnl_full = full.evaluate(&d)[0];

        // Split engines: cyclic distribution over 3 "ranks".
        let mut total = 0.0;
        for rank in 0..3 {
            let indices: Vec<usize> = (0..n).filter(|i| i % 3 == rank).collect();
            if indices.is_empty() {
                continue;
            }
            let sub = part.select_patterns(&indices);
            let slice = PartitionSlice::from_compressed(0, &sub);
            let mut eng = engine(9, vec![slice], RateModelKind::Gamma, b);
            let (_, rh) = eng.model_state(0);
            eng.set_model_state(0, model.clone(), rh);
            eng.execute(&d);
            total += eng.evaluate(&d)[0];
        }
        assert!(
            (total - lnl_full).abs() < 1e-8,
            "split sum {total} vs full {lnl_full}"
        );
    }
}

#[test]
fn scaling_keeps_likelihood_finite_on_larger_trees() {
    // 40 taxa with long branches would underflow without CLV rescaling.
    for b in BACKENDS {
        let aln = random_alignment(40, 30, 23);
        let mut tree = Tree::random(40, 1, 23);
        for e in 0..tree.n_edges() {
            tree.set_length(e, 0, 2.0);
        }
        let mut engine = build_engine(&aln, RateModelKind::Gamma, b);
        engine.set_alpha(0, 0.3);
        let d = tree.full_traversal_descriptor(0);
        engine.execute(&d);
        let lnl = engine.evaluate(&d)[0];
        assert!(lnl.is_finite(), "likelihood must stay finite: {lnl}");
        assert!(lnl < 0.0);

        // And stays root-invariant in the scaled regime.
        let d2 = tree.traversal_descriptor(tree.n_edges() / 2);
        engine.execute(&d2);
        let lnl2 = engine.evaluate(&d2)[0];
        assert!((lnl - lnl2).abs() < 1e-6, "{lnl} vs {lnl2}");
    }
}

#[test]
fn work_counters_accumulate() {
    for b in BACKENDS {
        let aln = random_alignment(6, 30, 3);
        let mut tree = Tree::random(6, 1, 3);
        let mut engine = build_engine(&aln, RateModelKind::Gamma, b);
        assert_eq!(engine.work().total(), 0);
        let d = tree.full_traversal_descriptor(0);
        engine.execute(&d);
        let after_exec = engine.work();
        assert!(after_exec.clv_updates > 0);
        let _ = engine.evaluate(&d);
        assert!(engine.work().eval_patterns > 0);
        engine.reset_work();
        assert_eq!(engine.work().total(), 0);
        // The sumtable build is kernel time too: it is part of the heartbeat's
        // measured per-rank load.
        assert_eq!(engine.work().kernel_ns, 0);
        engine.prepare_derivatives(&d);
        assert!(engine.work().kernel_ns > 0);
    }
}

#[test]
fn psr_site_rate_optimization_improves_likelihood() {
    for b in BACKENDS {
        let aln = random_alignment(6, 60, 31);
        let mut tree = Tree::random(6, 1, 31);
        let mut engine = build_engine(&aln, RateModelKind::Psr, b);

        let d = tree.full_traversal_descriptor(0);
        engine.execute(&d);
        let before = engine.evaluate(&d)[0];

        let (num, den) = engine.optimize_site_rates(&d);
        assert!(den > 0.0);
        engine.finalize_site_rates(den / num);
        tree.invalidate_all();
        let d2 = tree.full_traversal_descriptor(0);
        engine.execute(&d2);
        let after = engine.evaluate(&d2)[0];
        // Normalization can trade some of the gain away, but the optimized
        // rates should not be materially worse and usually improve.
        assert!(
            after >= before - 1e-6,
            "site-rate optimization regressed: {before} -> {after}"
        );
    }
}

#[test]
fn per_partition_branch_lengths_select_correct_slot() {
    // Two partitions, per-partition lengths: partition 1's likelihood must
    // react only to its own branch-length slot.
    for b in BACKENDS {
        let aln = random_alignment(5, 40, 41);
        let scheme = PartitionScheme::uniform_chunks(2, 20);
        let comp = CompressedAlignment::build(&aln, &scheme);
        let slices: Vec<PartitionSlice> = comp
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| PartitionSlice::from_compressed(i, p))
            .collect();
        let mut engine = engine(5, slices, RateModelKind::Gamma, b);
        let mut tree = Tree::random(5, 2, 41);

        let d = tree.full_traversal_descriptor(0);
        engine.execute(&d);
        let base = engine.evaluate(&d);

        // Change edge 3's length for partition 0 only.
        let e = 3;
        let mut lengths = tree.edge(e).lengths.clone();
        lengths[0] = 0.456;
        tree.set_lengths(e, &lengths);
        let d2 = tree.traversal_descriptor(0);
        engine.execute(&d2);
        let changed = engine.evaluate(&d2);

        assert!(
            (changed[1] - base[1]).abs() < 1e-10,
            "partition 1 must be unaffected"
        );
        assert!(
            (changed[0] - base[0]).abs() > 1e-10,
            "partition 0 must react"
        );
    }
}

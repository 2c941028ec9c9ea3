//! Property-based tests for the binned superaccumulator behind
//! `--reduce reproducible`: the sum of a multiset of addends must not
//! depend on the order they arrive in, on how they are partitioned across
//! accumulators (ranks), or on how many accumulators there are — and the
//! rendered f64 must stay within 1 ULP of the conventional left-to-right
//! sum on well-conditioned inputs.

use exa_comm::{BinnedSum, CommCategory, World};
use proptest::prelude::*;

/// splitmix64 — a tiny deterministic generator for shuffles, so the tests
/// do not depend on the vendored `rand` surface.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffled(xs: &[f64], seed: u64) -> Vec<f64> {
    let mut out = xs.to_vec();
    let mut state = seed;
    for i in (1..out.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

fn binned_total(xs: &[f64]) -> f64 {
    let mut acc = BinnedSum::new();
    acc.add_slice(xs);
    acc.render()
}

fn ulp_distance(a: f64, b: f64) -> u64 {
    // Monotone integer mapping of finite doubles: negatives mirror below
    // zero, so distance across the sign boundary is still meaningful.
    fn key(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN ^ bits
        } else {
            bits
        }
    }
    key(a).abs_diff(key(b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn permutation_invariant(
        xs in prop::collection::vec(-1e30f64..1e30, 1..64),
        seed in any::<u64>(),
    ) {
        let reference = binned_total(&xs);
        let permuted = binned_total(&shuffled(&xs, seed));
        prop_assert_eq!(reference.to_bits(), permuted.to_bits());
    }

    #[test]
    fn partition_invariant(
        xs in prop::collection::vec(-1e30f64..1e30, 1..64),
        cuts in any::<u64>(),
        parts in 1usize..9,
    ) {
        // Deal the addends into `parts` accumulators pseudo-randomly —
        // this is exactly what changing the rank count does — then merge
        // in order. The render must match the single-accumulator sum
        // bit for bit.
        let reference = binned_total(&xs);
        let mut bins = vec![BinnedSum::new(); parts];
        let mut state = cuts;
        for &x in &xs {
            bins[(splitmix(&mut state) % parts as u64) as usize].add(x);
        }
        let mut merged = BinnedSum::new();
        for b in &bins {
            merged.merge(b);
        }
        prop_assert_eq!(reference.to_bits(), merged.render().to_bits());
    }

    #[test]
    fn extremes_accumulate_like_f64(
        xs in prop::collection::vec(
            prop::sample::select(vec![
                0.0f64, -0.0, 1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN,
                f64::MIN_POSITIVE, 5e-324, f64::MAX,
            ]),
            1..16,
        ),
    ) {
        // NaN and opposing infinities must poison the render the way an
        // IEEE sum would: NaN stays NaN, a lone infinity keeps its sign.
        let total = binned_total(&xs);
        let has_nan = xs.iter().any(|x| x.is_nan());
        let pos_inf = xs.contains(&f64::INFINITY);
        let neg_inf = xs.contains(&f64::NEG_INFINITY);
        if has_nan || (pos_inf && neg_inf) {
            prop_assert!(total.is_nan());
        } else if pos_inf {
            prop_assert_eq!(total, f64::INFINITY);
        } else if neg_inf {
            prop_assert_eq!(total, f64::NEG_INFINITY);
        } else {
            // Finite inputs may still overflow the format (several
            // f64::MAX addends); the render then correctly rounds to an
            // infinity, never to NaN.
            prop_assert!(!total.is_nan());
        }
    }

    #[test]
    fn exact_on_integer_sums(
        xs in prop::collection::vec(-1_000_000i64..1_000_000, 1..256),
    ) {
        // Integer-valued addends with an exactly representable total: the
        // conventional sum is exact, so the faithful render must agree to
        // the bit — a stronger form of the ≤1 ULP contract.
        let fast: f64 = xs.iter().map(|&v| v as f64).sum();
        let reproducible = binned_total(&xs.iter().map(|&v| v as f64).collect::<Vec<_>>());
        prop_assert_eq!(fast.to_bits(), reproducible.to_bits());
    }

    #[test]
    fn within_one_ulp_of_fast_when_well_conditioned(
        xs in prop::collection::vec(0.5f64..2.0, 1..8),
    ) {
        // Few same-sign, same-magnitude addends: the left-to-right sum is
        // itself nearly exact, so the correctly-rounded render can sit at
        // most 1 ULP away (per-step rounding of at most 6 additions stays
        // inside half an ULP of the result here in practice).
        let mut fast = xs[0];
        for &x in &xs[1..] {
            fast += x;
        }
        let reproducible = binned_total(&xs);
        prop_assert!(
            ulp_distance(fast, reproducible) <= 1,
            "fast {fast:e} vs reproducible {reproducible:e}"
        );
    }

    #[test]
    fn reproducible_allreduce_invariant_to_rank_count(
        xs in prop::collection::vec(-1e12f64..1e12, 1..48),
        rank_counts in prop::collection::vec(1usize..7, 2..4),
    ) {
        // The end-to-end property the run relies on: splitting the same
        // site vector across different world sizes and reducing the
        // superaccumulators with `allreduce_binned` yields the same bits
        // everywhere.
        let mut renders = Vec::new();
        for &ranks in &rank_counts {
            let results = World::run(ranks, |rank| {
                // Contiguous block split, like the site distribution.
                let chunk = xs.len().div_ceil(ranks);
                let lo = (rank.id() * chunk).min(xs.len());
                let hi = ((rank.id() + 1) * chunk).min(xs.len());
                let mut bin = BinnedSum::new();
                bin.add_slice(&xs[lo..hi]);
                let out = rank
                    .collective(CommCategory::SiteLikelihoods)
                    .allreduce_binned(vec![bin])
                    .unwrap();
                out[0].to_bits()
            });
            for &r in &results {
                prop_assert_eq!(r, results[0], "ranks disagree within one world");
            }
            renders.push(results[0]);
        }
        for &r in &renders {
            prop_assert_eq!(r, renders[0], "render depends on rank count");
        }
    }
}

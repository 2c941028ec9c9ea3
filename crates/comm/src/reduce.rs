//! Reproducible (rank-count-invariant) summation — the `reproducible`
//! [`ReduceKind`] behind [`crate::Rank::allreduce_sum`].
//!
//! The paper's §III-B requirement is that every rank sees *bit-identical*
//! reduced likelihoods. The fast path guarantees this only because the
//! communicator sums contributions in fixed rank order at a fixed rank
//! count: re-running the same alignment on a different number of ranks
//! regroups the per-pattern terms and shifts the result by a few ULPs,
//! which silently changes the search trajectory. Following Stelz, Hübner
//! & Stamatakis ("Bit-Reproducible Phylogenetic Tree Inference under
//! Varying Core-Counts via Reproducible Parallel Reduction Operators"),
//! [`BinnedSum`] removes the order dependence entirely: each addend is
//! decomposed into fixed-position integer bins (a superaccumulator), bins
//! add exactly in any order or grouping, and a single deterministic render
//! turns the merged bins back into an `f64`. The rendered sum depends only
//! on the *multiset* of addends — not on how they were split across ranks.
//!
//! Representation: the full magnitude range of finite `f64` values
//! (2^-1074 … 2^1023) is covered by [`N_LIMBS`] signed 64-bit limbs in a
//! 32-bit radix. An addend's 53-bit significand lands in at most three
//! adjacent limbs; each limb keeps ~31 bits of carry headroom, so ~2^31
//! deposits (or limb-wise merges) are exact before any overflow could
//! occur — far beyond any realistic pattern count × rank count. Non-finite
//! addends are tracked as sticky flags and rendered with IEEE semantics
//! (`+inf` + `-inf` = NaN).

use serde::{Deserialize, Serialize};

/// Number of 32-bit-radix limbs covering exponents 2^-1074 … 2^1023 for a
/// 53-bit significand (64 value limbs + headroom for deposit spill and
/// render carries).
pub const N_LIMBS: usize = 68;

const RADIX_BITS: u32 = 32;
const RADIX: i64 = 1 << RADIX_BITS;
const RADIX_MASK: u128 = (RADIX as u128) - 1;
/// Exponent of the least significant limb bit (subnormal ULP).
const E_MIN: i32 = -1074;

/// Error-free extraction fast path (`add_slice`): first split constant,
/// 1.5·2^39 — `fl(x + C1)` has ulp 2^-13 for every |x| < 2^20, so
/// `(x + C1) - C1` is x rounded to a multiple of 2^-13 with an exactly
/// representable residual.
const EXTRACT_C1: f64 = 1.5 * (1u64 << 39) as f64;
/// Second split constant, 1.5·2^-5 — `fl(r1 + C2)` has ulp 2^-57 for
/// every |r1| ≤ 2^-14.
const EXTRACT_C2: f64 = 1.5 / 32.0;
/// Fast-path magnitude range: |x| ∈ [2^-20, 2^20) keeps ulp(x) ≥ 2^-72,
/// so the level-3 residual lane stays an exact multiple of 2^-72.
const EXTRACT_LO: f64 = 1.0 / (1u64 << 20) as f64;
const EXTRACT_HI: f64 = (1u64 << 20) as f64;
/// Flush cadence: ≤ 64 addends per lane keeps every level comfortably
/// inside its 53-bit exact-capacity window (2^26 of 2^40, 2^-8 of 2^-4,
/// 2^-52 of 2^-19).
const EXTRACT_BLOCK: usize = 256;

/// An order- and grouping-invariant f64 accumulator (superaccumulator).
///
/// `add` the local terms, `merge` accumulators from other ranks (exact,
/// commutative, associative), then `render` — every rank holding the same
/// addend multiset renders the identical bit pattern.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinnedSum {
    limbs: [i64; N_LIMBS],
    nan: bool,
    pos_inf: bool,
    neg_inf: bool,
}

impl Default for BinnedSum {
    fn default() -> Self {
        Self::new()
    }
}

impl BinnedSum {
    /// The zero accumulator.
    pub fn new() -> Self {
        BinnedSum {
            limbs: [0; N_LIMBS],
            nan: false,
            pos_inf: false,
            neg_inf: false,
        }
    }

    /// Deposit one addend (exact for finite values; non-finite values set
    /// sticky flags).
    #[inline]
    pub fn add(&mut self, x: f64) {
        let bits = x.to_bits();
        let be = ((bits >> 52) & 0x7ff) as i32;
        let frac = bits & ((1u64 << 52) - 1);
        if be == 0x7ff {
            if frac != 0 {
                self.nan = true;
            } else if bits >> 63 == 0 {
                self.pos_inf = true;
            } else {
                self.neg_inf = true;
            }
            return;
        }
        let mant = if be == 0 { frac } else { frac | (1u64 << 52) };
        if mant == 0 {
            return; // ±0.0 contributes nothing
        }
        // x = ±mant · 2^e with e = exponent of the significand's LSB
        // (subnormals share E_MIN; the +1 folds both cases branch-free).
        let e = be + i32::from(be == 0) - 1075;
        let pos = (e - E_MIN) as u32; // bit offset of mant's LSB in the accumulator
        let limb = (pos / RADIX_BITS) as usize;
        let wide = (mant as u128) << (pos % RADIX_BITS);
        // Arithmetic-shift sign mask: `(p ^ s) - s` negates each piece when
        // the addend is negative. Piecewise negation is total negation here
        // because the limbs are independent signed values.
        let s = (bits as i64) >> 63;
        let dst = &mut self.limbs[limb..limb + 3];
        dst[0] += ((wide & RADIX_MASK) as i64 ^ s) - s;
        dst[1] += (((wide >> RADIX_BITS) & RADIX_MASK) as i64 ^ s) - s;
        dst[2] += (((wide >> (2 * RADIX_BITS)) & RADIX_MASK) as i64 ^ s) - s;
    }

    /// Deposit a slice of addends.
    ///
    /// Semantically identical to `add` in a loop — the represented integer,
    /// and therefore the render, cannot differ — but runs at the speed of a
    /// plain f64 sum. Mid-magnitude addends (2^-20 ≤ |x| < 2^20, where the
    /// per-pattern log-likelihood, derivative and rate terms live) take an
    /// error-free extraction fast path in the ReproBLAS / Zhu–Hayes style:
    /// two Fast2Sum rounds split x *exactly* into `s1 + s2 + r2` at fixed
    /// granularities (`s1` a multiple of 2^-13, `s2` of 2^-57, `r2` of
    /// ulp(x) ≥ 2^-72), each level accumulates into plain f64 lanes — exact
    /// because a lane sums ≤ 64 multiples of its granularity well inside 53
    /// bits — and the lane totals are deposited through [`BinnedSum::add`]
    /// once per 256-element block. The split constants keep every
    /// intermediate in a single binade, so no step rounds; out-of-range,
    /// zero and non-finite addends fall back to the element-wise deposit.
    ///
    /// On x86-64 with AVX2 the same extraction runs four lanes wide in
    /// hardware (runtime-detected, like the phylo SIMD backend); the
    /// portable body below is the fallback and the reference semantics.
    #[inline]
    pub fn add_slice(&mut self, xs: &[f64]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified.
            unsafe { self.add_slice_avx2(xs) };
            return;
        }
        self.add_slice_portable(xs);
    }

    #[inline]
    fn add_slice_portable(&mut self, xs: &[f64]) {
        for block in xs.chunks(EXTRACT_BLOCK) {
            let mut a1 = [0.0f64; 4];
            let mut a2 = [0.0f64; 4];
            let mut a3 = [0.0f64; 4];
            let mut quads = block.chunks_exact(4);
            for quad in &mut quads {
                let q: [f64; 4] = quad.try_into().unwrap();
                let mut ok = true;
                for &x in &q {
                    let ax = x.abs();
                    ok &= (EXTRACT_LO..EXTRACT_HI).contains(&ax);
                }
                if ok {
                    // Straight-line four-lane body: auto-vectorizes, and
                    // the three accumulator chains per lane keep the FP
                    // latency off the critical path.
                    for (k, &x) in q.iter().enumerate() {
                        let s1 = (x + EXTRACT_C1) - EXTRACT_C1;
                        let r1 = x - s1;
                        let s2 = (r1 + EXTRACT_C2) - EXTRACT_C2;
                        let r2 = r1 - s2;
                        a1[k] += s1;
                        a2[k] += s2;
                        a3[k] += r2;
                    }
                } else {
                    for &x in &q {
                        self.add(x);
                    }
                }
            }
            for &x in quads.remainder() {
                self.add(x);
            }
            for k in 0..4 {
                self.add(a1[k]);
                self.add(a2[k]);
                self.add(a3[k]);
            }
        }
    }

    /// The hardware extraction: identical split arithmetic to
    /// [`BinnedSum::add_slice_portable`], four lanes per vector. IEEE adds
    /// and subs are lane-wise identical to scalar, so the lane totals — and
    /// therefore the deposits — match the portable path bit for bit.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn add_slice_avx2(&mut self, xs: &[f64]) {
        use std::arch::x86_64::*;
        unsafe {
            let c1 = _mm256_set1_pd(EXTRACT_C1);
            let c2 = _mm256_set1_pd(EXTRACT_C2);
            let lo = _mm256_set1_pd(EXTRACT_LO);
            let hi = _mm256_set1_pd(EXTRACT_HI);
            let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffff));
            for block in xs.chunks(EXTRACT_BLOCK) {
                let mut a1 = _mm256_setzero_pd();
                let mut a2 = _mm256_setzero_pd();
                let mut a3 = _mm256_setzero_pd();
                let mut quads = block.chunks_exact(4);
                for quad in &mut quads {
                    let v = _mm256_loadu_pd(quad.as_ptr());
                    let ax = _mm256_and_pd(v, abs_mask);
                    let in_range = _mm256_and_pd(
                        _mm256_cmp_pd::<_CMP_GE_OQ>(ax, lo),
                        _mm256_cmp_pd::<_CMP_LT_OQ>(ax, hi),
                    );
                    if _mm256_movemask_pd(in_range) == 0b1111 {
                        let s1 = _mm256_sub_pd(_mm256_add_pd(v, c1), c1);
                        let r1 = _mm256_sub_pd(v, s1);
                        let s2 = _mm256_sub_pd(_mm256_add_pd(r1, c2), c2);
                        let r2 = _mm256_sub_pd(r1, s2);
                        a1 = _mm256_add_pd(a1, s1);
                        a2 = _mm256_add_pd(a2, s2);
                        a3 = _mm256_add_pd(a3, r2);
                    } else {
                        for &x in quad {
                            self.add(x);
                        }
                    }
                }
                for &x in quads.remainder() {
                    self.add(x);
                }
                let mut lanes = [0.0f64; 4];
                for acc in [a1, a2, a3] {
                    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
                    for &l in &lanes {
                        self.add(l);
                    }
                }
            }
        }
    }

    /// Exact limb-wise merge of another accumulator (commutative and
    /// associative — the reduction operator the communicator applies).
    pub fn merge(&mut self, other: &BinnedSum) {
        for (a, b) in self.limbs.iter_mut().zip(other.limbs.iter()) {
            *a += b;
        }
        self.nan |= other.nan;
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
    }

    /// Deterministic render to `f64`: a pure function of the accumulated
    /// bins, identical on every rank holding the same merged state.
    pub fn render(&self) -> f64 {
        if self.nan || (self.pos_inf && self.neg_inf) {
            return f64::NAN;
        }
        if self.pos_inf {
            return f64::INFINITY;
        }
        if self.neg_inf {
            return f64::NEG_INFINITY;
        }
        // Carry-propagate into canonical form: limbs 0..N-1 in [0, RADIX),
        // sign folded into the top limb.
        let mut limbs = self.limbs;
        for i in 0..N_LIMBS - 1 {
            let rem = limbs[i].rem_euclid(RADIX);
            let carry = (limbs[i] - rem) >> RADIX_BITS;
            limbs[i] = rem;
            limbs[i + 1] += carry;
        }
        let negative = limbs[N_LIMBS - 1] < 0;
        if negative {
            // Negate the exact integer and re-canonicalize the magnitude.
            for l in limbs.iter_mut() {
                *l = -*l;
            }
            for i in 0..N_LIMBS - 1 {
                let rem = limbs[i].rem_euclid(RADIX);
                let carry = (limbs[i] - rem) >> RADIX_BITS;
                limbs[i] = rem;
                limbs[i + 1] += carry;
            }
        }
        let Some(h) = limbs.iter().rposition(|&l| l != 0) else {
            return 0.0;
        };
        // A 96-bit window below the highest non-zero limb captures ≥ 64
        // significant bits — lower limbs sit ≥ 43 bits under the f64
        // precision and cannot move a faithful rounding by more than 1 ULP.
        let lo = h.saturating_sub(2);
        let w = ((limbs[lo + 2] as u128) << (2 * RADIX_BITS))
            | ((limbs[lo + 1] as u128) << RADIX_BITS)
            | (limbs[lo] as u128);
        let scale = E_MIN + (lo as i32) * RADIX_BITS as i32;
        let mag = (w as f64) * exp2i(scale);
        if negative {
            -mag
        } else {
            mag
        }
    }

    /// True when no finite or non-finite contribution was deposited.
    pub fn is_zero(&self) -> bool {
        !self.nan && !self.pos_inf && !self.neg_inf && self.limbs.iter().all(|&l| l == 0)
    }
}

/// Exact power of two (2^k) for k in the representable range; ±inf/0 beyond.
fn exp2i(k: i32) -> f64 {
    if k >= -1022 {
        // Normal range: build the bit pattern directly.
        if k > 1023 {
            return f64::INFINITY;
        }
        f64::from_bits(((k + 1023) as u64) << 52)
    } else if k >= -1074 {
        // Subnormal powers of two are exact single-bit patterns.
        f64::from_bits(1u64 << (k + 1074))
    } else {
        0.0
    }
}

/// The reduction scheme a world computes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReduceKind {
    /// Fixed-rank-order f64 summation: bit-identical across ranks of one
    /// world, but the bits depend on the rank count.
    Fast,
    /// Binned superaccumulator summation: bit-identical across ranks *and*
    /// across rank counts (the elastic-resize prerequisite).
    Reproducible,
}

impl ReduceKind {
    /// Stable label (fingerprints, health JSON, checkpoint header).
    pub fn label(self) -> &'static str {
        match self {
            ReduceKind::Fast => "fast",
            ReduceKind::Reproducible => "reproducible",
        }
    }
}

impl std::fmt::Display for ReduceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The operator's requested reduction mode (`--reduce`), resolved to the
/// [`ReduceKind`] every rank computes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReduceChoice {
    /// Force the fast fixed-order sum.
    Fast,
    /// Force the binned reproducible sum.
    Reproducible,
    /// Reproducible: the best this build offers.
    Auto,
}

impl ReduceChoice {
    /// Parse a `--reduce` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fast" => Some(ReduceChoice::Fast),
            "reproducible" => Some(ReduceChoice::Reproducible),
            "auto" => Some(ReduceChoice::Auto),
            _ => None,
        }
    }

    /// Stable label for display.
    pub fn label(self) -> &'static str {
        match self {
            ReduceChoice::Fast => "fast",
            ReduceChoice::Reproducible => "reproducible",
            ReduceChoice::Auto => "auto",
        }
    }

    /// Resolve the choice: an explicit choice is itself, `Auto` is
    /// reproducible.
    pub fn resolve_local(self) -> ReduceKind {
        match self {
            ReduceChoice::Fast => ReduceKind::Fast,
            ReduceChoice::Reproducible | ReduceChoice::Auto => ReduceKind::Reproducible,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binned(xs: &[f64]) -> f64 {
        let mut b = BinnedSum::new();
        b.add_slice(xs);
        b.render()
    }

    #[test]
    fn renders_single_values_exactly() {
        for &x in &[
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -123.456e300,
            5e-324,
            -5e-324,
            2.2250738585072014e-308, // smallest normal
            f64::MAX,
            f64::MIN,
            1.5e-310, // subnormal with multiple bits
        ] {
            assert_eq!(binned(&[x]).to_bits(), (x + 0.0).to_bits(), "x = {x:e}");
        }
    }

    #[test]
    fn exact_small_sums_match_ieee() {
        assert_eq!(binned(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(binned(&[1.5, -0.25]), 1.25);
        assert_eq!(binned(&[1e300, -1e300]), 0.0);
    }

    #[test]
    fn grouping_invariance() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.7371).sin() * 10f64.powi((i % 37) - 18))
            .collect();
        let whole = binned(&xs).to_bits();
        // Any partition into contiguous chunks, merged in any order, must
        // render the identical bits.
        for chunk in [1usize, 3, 7, 100, 999] {
            let mut parts: Vec<BinnedSum> = xs
                .chunks(chunk)
                .map(|c| {
                    let mut b = BinnedSum::new();
                    b.add_slice(c);
                    b
                })
                .collect();
            parts.reverse(); // merge in a different order
            let mut acc = BinnedSum::new();
            for p in &parts {
                acc.merge(p);
            }
            assert_eq!(acc.render().to_bits(), whole, "chunk = {chunk}");
        }
    }

    #[test]
    fn permutation_invariance() {
        let xs: Vec<f64> = (0..500)
            .map(|i| ((i * 2654435761u64 % 1000) as f64 - 500.0) * 1e-3)
            .collect();
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(binned(&xs).to_bits(), binned(&rev).to_bits());
    }

    #[test]
    fn close_to_sequential_sum_on_well_conditioned_input() {
        let xs: Vec<f64> = (0..10_000).map(|i| -((i % 89) as f64) - 0.5).collect();
        let seq: f64 = xs.iter().sum();
        let bin = binned(&xs);
        let ulps = (seq.to_bits() as i64 - bin.to_bits() as i64).abs();
        assert!(
            ulps <= 1,
            "binned {bin:e} vs sequential {seq:e}: {ulps} ulps"
        );
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        // 1e16 + 1 - 1e16 loses the 1 in plain f64 order; bins keep it.
        assert_eq!(binned(&[1e16, 1.0, -1e16]), 1.0);
        assert_eq!([1e16, 1.0, -1e16].iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn nonfinite_semantics() {
        assert!(binned(&[f64::NAN, 1.0]).is_nan());
        assert_eq!(binned(&[f64::INFINITY, -1e308]), f64::INFINITY);
        assert_eq!(binned(&[f64::NEG_INFINITY, 1e308]), f64::NEG_INFINITY);
        assert!(binned(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
    }

    #[test]
    fn negative_totals_render_correctly() {
        let xs = [-1.25e-3, -7.5, 2.0];
        let exact: f64 = -1.25e-3 - 7.5 + 2.0;
        let bin = binned(&xs);
        let ulps = (exact.to_bits() as i64)
            .wrapping_sub(bin.to_bits() as i64)
            .abs();
        assert!(ulps <= 1, "{bin:e} vs {exact:e}");
    }

    #[test]
    fn many_deposits_no_overflow() {
        let mut b = BinnedSum::new();
        for _ in 0..1_000_000 {
            b.add(1.0 + 2f64.powi(-40));
        }
        let got = b.render();
        let want = 1_000_000.0 * (1.0 + 2f64.powi(-40));
        assert!((got - want).abs() / want < 1e-15, "{got} vs {want}");
    }

    #[test]
    fn extraction_matches_elementwise_deposits() {
        // Mixed in-range / out-of-range / zero / subnormal / huge addends:
        // the slice fast path (portable and, where detected, AVX2) must
        // represent exactly the integer the element-wise deposits do.
        let xs: Vec<f64> = (0..4096)
            .map(|i| match i % 11 {
                0 => 1e30,
                1 => -3e-22,
                2 => 0.0,
                3 => 5e-324,
                4 => -1e18,
                _ => -((i % 977) as f64).mul_add(1e-4, 2.0),
            })
            .collect();
        let mut elementwise = BinnedSum::new();
        for &x in &xs {
            elementwise.add(x);
        }
        let want = elementwise.render().to_bits();
        let mut portable = BinnedSum::new();
        portable.add_slice_portable(&xs);
        assert_eq!(portable.render().to_bits(), want);
        let mut dispatched = BinnedSum::new();
        dispatched.add_slice(&xs);
        assert_eq!(dispatched.render().to_bits(), want);
    }

    #[test]
    fn serde_roundtrip() {
        let mut b = BinnedSum::new();
        b.add_slice(&[1.0, -0.3, 5e-300]);
        let json = serde_json::to_string(&b).unwrap();
        let back: BinnedSum = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.render().to_bits(), b.render().to_bits());
    }

    #[test]
    fn reduce_choice_parses_and_resolves() {
        assert_eq!(ReduceChoice::parse("fast"), Some(ReduceChoice::Fast));
        assert_eq!(
            ReduceChoice::parse("reproducible"),
            Some(ReduceChoice::Reproducible)
        );
        assert_eq!(ReduceChoice::parse("auto"), Some(ReduceChoice::Auto));
        assert_eq!(ReduceChoice::parse("bogus"), None);
        assert_eq!(ReduceChoice::Fast.resolve_local(), ReduceKind::Fast);
        for choice in [ReduceChoice::Reproducible, ReduceChoice::Auto] {
            assert_eq!(choice.resolve_local(), ReduceKind::Reproducible);
        }
    }
}

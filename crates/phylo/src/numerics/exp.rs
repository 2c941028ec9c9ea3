//! One `exp` for every transition matrix, independent of the host's libm.
//!
//! `P(t) = V · diag(e^{λ_k r t}) · V⁻¹` needs four exponentials per matrix,
//! and a PSR partition needs a matrix per rate category on every branch, so
//! the transition set-up spends most of its time here. `f64::exp` calls the
//! platform libm: its bits are whatever that library ships, and it runs one
//! value at a time. This `exp` is written twice — [`exp`] (scalar lanes)
//! and [`avx2::exp4`] (four AVX2 lanes) — with the same IEEE operations in
//! the same order and no FMA, so the two forms return the same bits on
//! every input and every host:
//!
//! 1. **Cody–Waite reduction.** `k = round(x·log₂e)` by the 1.5·2⁵² shifter
//!    (ties to even, plain add/subtract), then
//!    `r = (x − k·ln2_hi) − k·ln2_lo`, `|r| ≤ ln2/2`; `ln2_hi` has 21
//!    trailing zero bits, so `k·ln2_hi` is exact for every `|k| ≤ 1076`.
//! 2. **Polynomial.** `e^r = 1 + (r + r²·q(r))`, `q` the degree-11 Taylor
//!    tail `Σ r^i/(i+2)!` evaluated by Estrin (pairs, then `r²`, `r⁴`,
//!    `r⁸`): degree 13 in all, truncation below 10⁻¹⁷, and the leading 1
//!    added last.
//! 3. **Two-step scaling.** `y · 2^k₁ · 2^k₂` with `k₁ = round(k/2)`,
//!    `k₂ = k − k₁`: both factors are normal for every `k` that can occur,
//!    so the product is exact down to the subnormal range, where it rounds
//!    once, and `2^1024` needs no special case.
//!
//! An input below [`EXP_MIN_X`] returns `+0`, one above [`EXP_MAX_X`]
//! returns `+∞` (both infinities included), and NaN stays NaN. On every
//! other input whose result is normal the error is within 2 ULP of
//! `f64::exp` (within 1 ULP of the true value); `exp(±0)` is exactly 1.
//! [`crate::numerics::gamma`] keeps `f64::exp`: it sets up the rates, not
//! the matrices, and runs a few times per model change.

/// The least `x` whose exponential is not zero: `e^x` for every smaller
/// `x` rounds to `+0`.
pub const EXP_MIN_X: f64 = -745.133_219_101_941_1;
/// The greatest `x` whose exponential is finite.
pub const EXP_MAX_X: f64 = 709.782_712_893_384;

const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// `1.5·2⁵²`: adding it rounds any `|v| < 2⁵¹` to an integer, which the
/// low bits of the sum then hold.
const SHIFTER: f64 = 6_755_399_441_055_744.0;
/// `SHIFTER + 1023`: adding it to an integer `k` leaves `k`'s biased
/// exponent in the low bits.
const BIASED_SHIFTER: f64 = SHIFTER + 1023.0;
/// `ln 2 = LN2_HI + LN2_LO`, `LN2_HI` with 21 trailing zero bits
/// (fdlibm's split).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `1/n!` for `n = 2..=13`.
const C: [f64; 12] = [
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// `2^k` for an integer-valued `k` in `[-1022, 1023]`, from its biased
/// exponent.
#[inline(always)]
fn pow2(k: f64) -> f64 {
    f64::from_bits(
        (k + BIASED_SHIFTER)
            .to_bits()
            .wrapping_sub(SHIFTER.to_bits())
            << 52,
    )
}

/// `e^x`, scalar lanes: bitwise equal to [`avx2::exp4`] on every input
/// (module doc).
#[inline]
pub fn exp(x: f64) -> f64 {
    let k = (x * LOG2_E + SHIFTER) - SHIFTER;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let b0 = (C[0] + C[1] * r) + (C[2] + C[3] * r) * r2;
    let b1 = (C[4] + C[5] * r) + (C[6] + C[7] * r) * r2;
    let b2 = (C[8] + C[9] * r) + (C[10] + C[11] * r) * r2;
    let q = (b0 + b1 * r4) + b2 * r8;
    let y = 1.0 + (r + r2 * q);
    let k1 = (k * 0.5 + SHIFTER) - SHIFTER;
    let k2 = k - k1;
    let e = y * pow2(k1) * pow2(k2);
    if x < EXP_MIN_X {
        0.0
    } else if x > EXP_MAX_X {
        f64::INFINITY
    } else {
        e
    }
}

/// `e^x` for every element, in place: the AVX2 lanes where the host has
/// them (std caches the detection, so they are chosen once per process),
/// the scalar lanes elsewhere and on a tail of fewer than four — the same
/// bits either way.
pub fn exp_in_place(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected.
        unsafe { avx2::exp_in_place(xs) };
        return;
    }
    for x in xs {
        *x = exp(*x);
    }
}

/// The AVX2 lanes. Callers must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{BIASED_SHIFTER, C, EXP_MAX_X, EXP_MIN_X, LN2_HI, LN2_LO, LOG2_E, SHIFTER};
    use std::arch::x86_64::*;

    /// [`super::pow2`] on four lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn pow2(k: __m256d) -> __m256d {
        let biased = _mm256_castpd_si256(_mm256_add_pd(k, _mm256_set1_pd(BIASED_SHIFTER)));
        let shifter = _mm256_set1_epi64x(SHIFTER.to_bits() as i64);
        _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_sub_epi64(biased, shifter)))
    }

    /// `c0 + c1·r`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn pair(c0: f64, c1: f64, r: __m256d) -> __m256d {
        _mm256_add_pd(_mm256_set1_pd(c0), _mm256_mul_pd(_mm256_set1_pd(c1), r))
    }

    /// `a + b·m`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_mul(a: __m256d, b: __m256d, m: __m256d) -> __m256d {
        _mm256_add_pd(a, _mm256_mul_pd(b, m))
    }

    /// [`super::exp_in_place`] on an AVX2 host.
    #[target_feature(enable = "avx2")]
    pub(crate) fn exp_in_place(xs: &mut [f64]) {
        let mut quads = xs.chunks_exact_mut(4);
        for q in &mut quads {
            // SAFETY: `q` is 4 contiguous f64: one unaligned 256-bit load
            // and store.
            unsafe { _mm256_storeu_pd(q.as_mut_ptr(), exp4(_mm256_loadu_pd(q.as_ptr()))) };
        }
        for x in quads.into_remainder() {
            *x = super::exp(*x);
        }
    }

    /// `e^x` on four lanes: [`super::exp`]'s operations in its order.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn exp4(x: __m256d) -> __m256d {
        let shifter = _mm256_set1_pd(SHIFTER);
        let k = _mm256_sub_pd(
            _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(LOG2_E)), shifter),
            shifter,
        );
        let r = _mm256_sub_pd(
            _mm256_sub_pd(x, _mm256_mul_pd(k, _mm256_set1_pd(LN2_HI))),
            _mm256_mul_pd(k, _mm256_set1_pd(LN2_LO)),
        );
        let r2 = _mm256_mul_pd(r, r);
        let r4 = _mm256_mul_pd(r2, r2);
        let r8 = _mm256_mul_pd(r4, r4);
        let b0 = add_mul(pair(C[0], C[1], r), pair(C[2], C[3], r), r2);
        let b1 = add_mul(pair(C[4], C[5], r), pair(C[6], C[7], r), r2);
        let b2 = add_mul(pair(C[8], C[9], r), pair(C[10], C[11], r), r2);
        let q = add_mul(add_mul(b0, b1, r4), b2, r8);
        let y = _mm256_add_pd(_mm256_set1_pd(1.0), add_mul(r, r2, q));
        let k1 = _mm256_sub_pd(
            _mm256_add_pd(_mm256_mul_pd(k, _mm256_set1_pd(0.5)), shifter),
            shifter,
        );
        let k2 = _mm256_sub_pd(k, k1);
        let e = _mm256_mul_pd(_mm256_mul_pd(y, pow2(k1)), pow2(k2));
        // Ordered, non-signalling compares: false on NaN, which keeps `e`.
        let under = _mm256_cmp_pd::<_CMP_LT_OQ>(x, _mm256_set1_pd(EXP_MIN_X));
        let over = _mm256_cmp_pd::<_CMP_GT_OQ>(x, _mm256_set1_pd(EXP_MAX_X));
        let e = _mm256_blendv_pd(e, _mm256_setzero_pd(), under);
        _mm256_blendv_pd(e, _mm256_set1_pd(f64::INFINITY), over)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The distance in representable doubles between two finite values of
    /// the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// `n` inputs over `[-746, 1]` from a fixed LCG, plus the edges:
    /// both zeros, the underflow and overflow thresholds ± 1 ULP, both
    /// infinities, NaN, and the ends of the subnormal range.
    fn inputs(n: usize) -> Vec<f64> {
        let mut xs = vec![
            0.0,
            -0.0,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            1.0,
            -746.0,
            -708.396_418_532_264_1,
            -744.44,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
        ];
        for edge in [EXP_MIN_X, EXP_MAX_X] {
            xs.extend([edge.next_down(), edge, edge.next_up()]);
        }
        let mut s = 0x2545_f491_4f6c_dd1du64;
        while xs.len() < n {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let u = (s >> 11) as f64 / (1u64 << 53) as f64;
            // Every other input on a log scale over [1e-20, 746], where the
            // exponents of transition matrices live.
            xs.push(if s & 1 == 0 {
                -746.0 + 747.0 * u
            } else {
                -(10f64.powf(-20.0 + 22.87 * u))
            });
        }
        xs
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn scalar_lanes_equal_avx2_lanes_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let xs = inputs(1 << 20);
        let mut got = xs.clone();
        // SAFETY: AVX2 was detected above.
        unsafe { avx2::exp_in_place(&mut got) };
        for (&x, g) in xs.iter().zip(got) {
            assert_eq!(
                g.to_bits(),
                exp(x).to_bits(),
                "x {x:e}: avx2 {g:e}, scalar {:e}",
                exp(x)
            );
        }
    }

    #[test]
    fn within_two_ulp_of_libm_where_the_result_is_normal() {
        let mut worst = (0, 0.0);
        for x in inputs(1 << 20) {
            let want = x.exp();
            if !want.is_normal() {
                continue;
            }
            let d = ulps(exp(x), want);
            if d > worst.0 {
                worst = (d, x);
            }
        }
        assert!(worst.0 <= 2, "{} ULP at x = {:e}", worst.0, worst.1);
    }

    #[test]
    fn edges() {
        assert_eq!(exp(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f64.to_bits());
        assert!(exp(f64::NAN).is_nan());
        for x in [EXP_MIN_X.next_down(), -746.0, -1e300, f64::NEG_INFINITY] {
            assert_eq!(exp(x).to_bits(), 0.0f64.to_bits(), "x {x:e}");
        }
        assert!(exp(EXP_MIN_X) > 0.0);
        assert!(exp(EXP_MAX_X).is_finite());
        for x in [EXP_MAX_X.next_up(), 1e300, f64::INFINITY] {
            assert_eq!(exp(x), f64::INFINITY, "x {x:e}");
        }
    }
}

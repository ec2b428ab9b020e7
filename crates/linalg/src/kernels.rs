//! Level-1 kernels: dot products, norms, scaling.
//!
//! These are the `sdot`-style routines the paper contrasts against blocked
//! matrix multiply. Every accumulating kernel uses four independent
//! accumulators so four FMA chains stay in flight; a single-accumulator loop
//! serializes on the FMA latency and runs several times slower.
//!
//! The numeric layer is `f64`. [`dot`] and [`dist2_sq`] run on the
//! process-wide SIMD kernel set
//! ([`crate::simd::active`]) — AVX2+FMA or NEON when available — whose
//! results are bit-identical to the scalar bodies below (see the contract in
//! [`crate::simd`]). So every caller in the workspace (LEMP's LENGTH/INCR
//! scans, MAXIMUS's new-vector walk, FEXIPRO's partial products, the naive GEMM
//! reference) picks up the dispatched kernels without code changes.

use crate::simd;
use std::ops::Add;

/// The float widths a portable body is written once for: the exact `f64`
/// path and the `f32` screen tier (this module's dot, the scalar GEMM tile).
/// A private bound, not a numeric abstraction — each width's public surface
/// is its own.
pub(crate) trait FmaFloat: Copy + Default + Add<Output = Self> {
    /// `self · a + b` with one rounding.
    fn mul_add(self, a: Self, b: Self) -> Self;
}

impl FmaFloat for f64 {
    #[inline(always)]
    fn mul_add(self, a: f64, b: f64) -> f64 {
        f64::mul_add(self, a, b)
    }
}

impl FmaFloat for f32 {
    #[inline(always)]
    fn mul_add(self, a: f32, b: f32) -> f32 {
        f32::mul_add(self, a, b)
    }
}

/// Dot product `xᵀy` with unrolled independent accumulators, on the
/// dispatched kernel set.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    simd::active().dot(x, y)
}

/// The portable four-accumulator dot body: the scalar kernel set's `f64`
/// entry, and the `f32` screen tier's point dot.
#[inline]
fn dot_scalar<T: FmaFloat>(x: &[T], y: &[T]) -> T {
    let mut acc0 = T::default();
    let mut acc1 = T::default();
    let mut acc2 = T::default();
    let mut acc3 = T::default();
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact(4);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        acc0 = xs[0].mul_add(ys[0], acc0);
        acc1 = xs[1].mul_add(ys[1], acc1);
        acc2 = xs[2].mul_add(ys[2], acc2);
        acc3 = xs[3].mul_add(ys[3], acc3);
    }
    let mut tail = T::default();
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        tail = a.mul_add(b, tail);
    }
    ((acc0 + acc1) + (acc2 + acc3)) + tail
}

/// Dot product with the **GEMM micro-kernel's per-element reduction**: one
/// accumulator, sequential fused multiply-add over the shared dimension.
///
/// Every blocked-GEMM entry point in this crate accumulates each output
/// element `C[i][j]` sequentially over `k` (a single FMA chain per
/// element, across panel boundaries), so this kernel reproduces any
/// `gemm_nt*` output bit-for-bit for the same row pair — under every
/// kernel set, since the SIMD tiles keep the same per-element chain. The
/// default [`dot`] does not: its four independent accumulator lanes
/// combine in a different order and can differ in the last ulp.
///
/// Use this where a single recomputed score must agree bit-for-bit with
/// GEMM-produced scores (the oracle; the rescore that finishes every
/// approximate scan runs four such chains at once,
/// [`crate::simd::Kernel::dot_seq4`]).
/// The single chain serializes on the FMA latency, so it is several times
/// slower than [`dot`] on long vectors — keep it off bulk scan paths.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot_gemm_ordered(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot_gemm_ordered: length mismatch");
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y) {
        acc = a.mul_add(*b, acc);
    }
    acc
}

/// Monomorphic scalar entries for the [`crate::simd::Kernel`] vtable.
pub(crate) fn dot_scalar_f64(x: &[f64], y: &[f64]) -> f64 {
    dot_scalar(x, y)
}

/// Scalar body of [`crate::simd::Kernel::dot_seq4`]. On targets without
/// baseline FMA the `mul_add`s go through libm's (hardware-backed,
/// correctly rounded) `fma`, so results stay bit-identical to the SIMD
/// kernel sets — only slower, which is the scalar set's usual deal.
pub(crate) fn dot_seq4_scalar_f64(x: &[f64], ys: [&[f64]; 4]) -> [f64; 4] {
    let [y0, y1, y2, y3] = ys;
    let mut acc = [0.0f64; 4];
    for (j, &u) in x.iter().enumerate() {
        acc[0] = u.mul_add(y0[j], acc[0]);
        acc[1] = u.mul_add(y1[j], acc[1]);
        acc[2] = u.mul_add(y2[j], acc[2]);
        acc[3] = u.mul_add(y3[j], acc[3]);
    }
    acc
}

/// Scalar body of [`crate::simd::Kernel::dot_seq16`]: sixteen chains, one
/// per row, each the sequential order of [`dot_seq4_scalar_f64`]'s.
pub(crate) fn dot_seq16_scalar_f64(x: &[f64], ys: [&[f64]; 16]) -> [f64; 16] {
    let mut acc = [0.0f64; 16];
    for (j, &u) in x.iter().enumerate() {
        for (a, y) in acc.iter_mut().zip(ys) {
            *a = u.mul_add(y[j], *a);
        }
    }
    acc
}

/// Scalar body of [`crate::simd::Kernel::dist2_sq`]: four FMA chains in
/// flight, matching [`dot`]'s accumulator layout (a single-accumulator loop
/// serializes on FMA latency).
pub(crate) fn dist2_sq_scalar_f64(x: &[f64], y: &[f64]) -> f64 {
    let mut acc0 = 0.0f64;
    let mut acc1 = 0.0f64;
    let mut acc2 = 0.0f64;
    let mut acc3 = 0.0f64;
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact(4);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        let d0 = xs[0] - ys[0];
        let d1 = xs[1] - ys[1];
        let d2 = xs[2] - ys[2];
        let d3 = xs[3] - ys[3];
        acc0 = d0.mul_add(d0, acc0);
        acc1 = d1.mul_add(d1, acc1);
        acc2 = d2.mul_add(d2, acc2);
        acc3 = d3.mul_add(d3, acc3);
    }
    let mut tail = 0.0f64;
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        let d = a - b;
        tail = d.mul_add(d, tail);
    }
    ((acc0 + acc1) + (acc2 + acc3)) + tail
}

/// Scalar body of [`crate::simd::Kernel::dot_i8`]: widening i8×i8→i32
/// multiply-accumulate. Integer addition is associative, so every kernel
/// set (and any unrolling the autovectorizer applies here) produces the
/// identical `i32` — the i8 screen's bit-identity needs no envelope term
/// for accumulation order. Overflow-free for `x.len() ≤ I8_DOT_MAX_LEN`
/// (see [`crate::quant::I8_DOT_MAX_LEN`]), which the safe vtable wrapper
/// asserts.
pub(crate) fn dot_scalar_i8(x: &[i8], y: &[i8]) -> i32 {
    let mut acc0 = 0i32;
    let mut acc1 = 0i32;
    let mut acc2 = 0i32;
    let mut acc3 = 0i32;
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact(4);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        acc0 += xs[0] as i32 * ys[0] as i32;
        acc1 += xs[1] as i32 * ys[1] as i32;
        acc2 += xs[2] as i32 * ys[2] as i32;
        acc3 += xs[3] as i32 * ys[3] as i32;
    }
    let mut tail = 0i32;
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        tail += a as i32 * b as i32;
    }
    acc0 + acc1 + acc2 + acc3 + tail
}

/// Machine epsilon of the f32 *rounding* step: `2⁻²⁴` (half the ulp of 1.0).
const EPS_ROUND_F32: f64 = 5.960_464_477_539_063e-8;

/// Conservative absolute error envelope of a single-precision screen score.
///
/// Let `s = uᵀi` be the exact double-precision score of user `u` and item
/// `i`, and `ŝ` the value any f32 screen kernel (the f32 GEMM tile of any
/// kernel set, or the tier's point dot) produces from the *rounded*
/// operands `fl₃₂(u)`, `fl₃₂(i)`. Then
///
/// ```text
/// |ŝ − s| ≤ f32_screen_envelope(f, ‖u‖, ‖i‖)
/// ```
///
/// for every accumulation order the kernels use. Derivation (standard
/// rounding-error analysis, e.g. Higham, *Accuracy and Stability of
/// Numerical Algorithms*, ch. 3, with `ε = 2⁻²⁴`):
///
/// * rounding each operand contributes at most `2ε + ε²` relative error per
///   product term;
/// * multiplying and summing `f` terms in *any* association order, with or
///   without FMA fusion, contributes at most `γ_f = f·ε/(1 − f·ε)` relative
///   error per term;
/// * bounding `Σ|u_j·i_j| ≤ ‖u‖·‖i‖` (Cauchy–Schwarz) turns the per-term
///   relative bound into the absolute bound `(f + 2)·ε·(1 + o(1))·‖u‖·‖i‖`.
///
/// The returned envelope is `(2f + 8)·ε·1.0001·‖u‖·‖i‖ — more than double
/// the derived bound — plus an absolute term `(f + 4)·2⁻¹²⁶` covering the
/// region where intermediate f32 values go subnormal and the relative model
/// breaks down. The slack also absorbs the (f64, correctly rounded)
/// evaluation of the envelope itself and of the cached norms. Widening a
/// screen bound by this envelope therefore never excludes a true top-k
/// member; the trade is a slightly larger rescore set.
#[inline]
pub fn f32_screen_envelope(f: usize, unorm: f64, inorm: f64) -> f64 {
    let (rel, abs) = f32_screen_envelope_parts(f);
    rel * unorm * inorm + abs
}

/// The `(relative, absolute)` coefficients of [`f32_screen_envelope`]:
/// `envelope = rel·‖u‖·‖i‖ + abs`. Exposed so a scan loop can hoist
/// `rel·‖u‖` out of its per-item envelope evaluation; the envelope's ≥2×
/// slack covers the rounding difference between the factored and direct
/// evaluations.
#[inline]
pub fn f32_screen_envelope_parts(f: usize) -> (f64, f64) {
    let f = f as f64;
    (
        (2.0 * f + 8.0) * EPS_ROUND_F32 * 1.0001,
        (f + 4.0) * (f32::MIN_POSITIVE as f64),
    )
}

/// The `(relative, absolute)` coefficients of the **reassociation
/// envelope**: an f64 score accumulated over `f` terms in any order — the
/// four-lane [`dot`] under any kernel set, the inverted index's postings
/// accumulator — differs from [`dot_gemm_ordered`]'s chain by at most
/// `rel·‖u‖·‖i‖ + abs`.
///
/// Both sums carry at most `γ_f ≈ f·2⁻⁵³` relative error against the exact
/// sum per unit of `Σ|u_j·i_j| ≤ ‖u‖·‖i‖` (Higham ch. 3), so `2γ_f`
/// separates them; `rel` doubles that again and pads the rounding of the
/// computed norms and of the envelope itself, in the conservative style of
/// [`f32_screen_envelope_parts`]. `abs` covers products and sums that go
/// subnormal in either order. The norms are the computed [`norm2`]s of rows
/// that are not tiny: a row whose largest factor sits far below `2⁻⁵¹¹`
/// computes a norm that underflowed while its dots stay normal, and no
/// envelope built on that norm bounds anything.
#[inline]
pub fn reassoc_envelope_parts(f: usize) -> (f64, f64) {
    let f = f as f64;
    (
        (4.0 * f + 16.0) * f64::EPSILON * 1.0001,
        (f + 8.0) * f64::MIN_POSITIVE,
    )
}

/// Upper bound on the *relative* error of [`suffix_norms`]'s sum of `n`
/// squares against the exact sum `Σ x_j²`.
///
/// The carry squares then adds, one rounding each: a computed suffix differs
/// from the exact value by at most `γ_n = n·ε/(1−n·ε)` relative (`ε = 2⁻⁵³`;
/// the squares are non-negative, so the term-wise bound is also the sum-wise
/// bound). The bound returned is `2γ_n`, so it also covers a correctly
/// rounded reference of the exact sum. Pruning bounds built on suffix norms
/// stay conservative as long as they are inflated by at least this much —
/// LEMP's `BOUND_EPS = 1e-10` dominates it for every feasible factor count
/// (`2γ_n < 1e-10` up to n ≈ 2.2×10⁵), which the bound tests in `mips-lemp`
/// assert rather than assume.
#[inline]
pub fn sumsq_reassoc_bound(n: usize) -> f64 {
    let ne = n as f64 * f64::EPSILON * 0.5;
    2.0 * ne / (1.0 - ne)
}

/// Squared Euclidean norm `‖x‖²`.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Euclidean norm `‖x‖`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    norm2_sq(x).sqrt()
}

/// Euclidean norm of a finite `x`, computed as `m·‖x/m‖` with
/// `m = max|x_j|` so that no square overflows on the way: `+∞` only when
/// the norm itself is past the f64 range. For range checks on untrusted
/// vectors (one division per element), not for scan loops.
pub fn scaled_norm2(x: &[f64]) -> f64 {
    let m = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if m == 0.0 {
        return 0.0;
    }
    m * x.iter().map(|v| (v / m) * (v / m)).sum::<f64>().sqrt()
}

/// Squared Euclidean distance `‖x − y‖²` with unrolled independent
/// accumulators, on the dispatched kernel set.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dist2_sq(x: &[f64], y: &[f64]) -> f64 {
    simd::active().dist2_sq(x, y)
}

/// `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// Normalizes `x` to unit Euclidean length and returns the original norm.
///
/// A zero vector is left untouched and `0` is returned; callers (e.g. the
/// MAXIMUS query path) treat zero-norm users as "any answer is maximal".
#[inline]
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// The cosine of the angle between `x` and `y`, clamped to `[-1, 1]`: dot
/// products of (nearly) parallel vectors can round a few ulps past ±1.
///
/// Returns `0` when either vector has zero norm (orthogonal by convention),
/// and `-1` when the ratio is NaN (overflowed norms), so [`angle`] reports
/// the widest angle, π, rather than a NaN a cone bound would skip.
#[inline]
#[allow(clippy::manual_clamp)] // `clamp` would keep the NaN
pub fn cosine(x: &[f64], y: &[f64]) -> f64 {
    let nx = norm2(x);
    let ny = norm2(y);
    if nx == 0.0 || ny == 0.0 {
        return 0.0;
    }
    (dot(x, y) / (nx * ny)).max(-1.0).min(1.0)
}

/// The angle in radians between `x` and `y` (`acos` of [`cosine`], whose
/// clamp keeps the angle math in the MAXIMUS bound well defined).
#[inline]
pub fn angle(x: &[f64], y: &[f64]) -> f64 {
    cosine(x, y).acos()
}

/// Suffix norms: `out[j] = ‖x[j..]‖` for every `j`, plus `out[len] = 0`.
///
/// Both LEMP's incremental pruning and FEXIPRO's partial inner products need
/// the norm of the *remaining* coordinates at a checkpoint; computing the
/// running sum backwards gives all of them in one pass. The carry squares,
/// then adds (`acc += x[j]·x[j]`, never fused): the squares are independent
/// of the carry, so the chain is one add per element rather than one FMA,
/// and being one portable body it writes the same bits under every kernel
/// set and on every architecture. Its rounding against the exact sum is
/// bounded by [`sumsq_reassoc_bound`], which the pruning bounds' inflation
/// dominates.
pub fn suffix_norms(x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; x.len() + 1];
    let mut acc = 0.0f64;
    for (o, &v) in out[..x.len()].iter_mut().zip(x).rev() {
        acc += v * v;
        *o = acc;
    }
    for v in &mut out {
        *v = v.sqrt();
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::simd::tests::round_f32;

    /// A portable `f32` point dot, the reference the screen-envelope tests
    /// hold an f32 accumulation to. Its order is one of the orders
    /// [`f32_screen_envelope`] covers.
    pub(crate) fn dot_scalar_f32(x: &[f32], y: &[f32]) -> f32 {
        dot_scalar(x, y)
    }

    #[test]
    fn scaled_norm_survives_what_the_plain_norm_overflows() {
        assert_eq!(scaled_norm2(&[]), 0.0);
        assert_eq!(scaled_norm2(&[0.0, -0.0]), 0.0);
        assert_eq!(scaled_norm2(&[3.0, -4.0]), 5.0);
        // Squares past f64::MAX: the plain norm is +∞, the scaled one is not.
        let big = [3e200, 4e200];
        assert_eq!(norm2(&big), f64::INFINITY);
        assert!((scaled_norm2(&big) / 5e200 - 1.0).abs() < 1e-15);
        // A norm genuinely past the range is +∞, never NaN.
        assert_eq!(scaled_norm2(&[f64::MAX, f64::MAX]), f64::INFINITY);
        // Squares below the subnormal range: not flushed to zero.
        assert!((scaled_norm2(&[3e-200, 4e-200]) / 5e-200 - 1.0).abs() < 1e-15);
    }

    #[test]
    fn dot_matches_naive_all_lengths() {
        // Cover the unrolled body plus every remainder size.
        for len in 0..24usize {
            let x: Vec<f64> = (0..len).map(|i| (i as f64) * 0.5 - 2.0).collect();
            let y: Vec<f64> = (0..len).map(|i| 1.0 - (i as f64) * 0.25).collect();
            let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!(
                (dot(&x, &y) - naive).abs() < 1e-10,
                "len {len}: {} vs {naive}",
                dot(&x, &y)
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[1.0_f64], &[1.0, 2.0]);
    }

    #[test]
    fn norms_and_distances() {
        let x = [3.0_f64, 4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-12);
        assert!((norm2_sq(&x) - 25.0).abs() < 1e-12);
        let y = [0.0_f64, 0.0];
        assert!((dist2_sq(&x, &y) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn scale_multiplies_in_place() {
        let mut y = [12.0_f64, 24.0, 36.0];
        scale(0.5, &mut y);
        assert_eq!(y, [6.0, 12.0, 18.0]);
    }

    #[test]
    fn normalize_unit_length_and_zero_vector() {
        let mut x = [3.0_f64, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-12);
        assert!((norm2(&x) - 1.0).abs() < 1e-12);

        let mut z = [0.0_f64, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, [0.0, 0.0]);
    }

    #[test]
    fn cosine_and_angle_known_values() {
        let x = [1.0_f64, 0.0];
        let y = [0.0_f64, 1.0];
        assert!(cosine(&x, &y).abs() < 1e-12);
        assert!((angle(&x, &y) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((cosine(&x, &x) - 1.0).abs() < 1e-12);
        assert_eq!(angle(&x, &x), 0.0);
        let z = [0.0_f64, 0.0];
        assert_eq!(cosine(&x, &z), 0.0);
    }

    #[test]
    fn cosine_never_escapes_unit_interval() {
        // Nearly parallel vectors whose raw cosine exceeds 1 by rounding.
        let x = [1e8_f64, 1.0, 1e-8];
        let c = cosine(&x, &x);
        assert!((-1.0..=1.0).contains(&c));
        assert_eq!(angle(&x, &x), 0.0);
    }

    #[test]
    fn suffix_norms_match_direct_computation() {
        let x = [1.0_f64, -2.0, 2.0, 0.5];
        let s = suffix_norms(&x);
        assert_eq!(s.len(), 5);
        for j in 0..=4 {
            let direct = norm2(&x[j..]);
            assert!((s[j] - direct).abs() < 1e-12, "j={j}");
        }
        assert_eq!(s[4], 0.0);
    }

    #[test]
    fn angle_tolerates_cosines_rounded_past_one() {
        // Parallel and anti-parallel pairs: where the raw cosine
        // `dot/(‖x‖·‖y‖)` rounds past ±1 the angle is still exactly 0 (or
        // π), never NaN. Pairs must round past each end, or the test
        // proves nothing.
        let (mut over, mut under) = (0, 0);
        for seed in 0..200u64 {
            let x = crate::simd::tests::pseudo(3 + (seed % 29) as usize, seed);
            for scale in [3.0, -0.7] {
                let y: Vec<f64> = x.iter().map(|v| scale * v).collect();
                let raw = dot(&x, &y) / (norm2(&x) * norm2(&y));
                let got = angle(&x, &y);
                assert!(!got.is_nan(), "seed {seed} scale {scale}");
                if raw > 1.0 {
                    over += 1;
                    assert_eq!(got, 0.0, "seed {seed}");
                } else if raw < -1.0 {
                    under += 1;
                    assert_eq!(got, std::f64::consts::PI, "seed {seed}");
                }
            }
        }
        assert!(over > 0 && under > 0, "{over} over 1, {under} under -1");
    }

    #[test]
    fn suffix_norms_are_the_square_then_add_carry_within_the_bound_of_the_exact_sum() {
        // Ragged lengths (every n mod 4), operands m·2⁻²⁶ with integer m so
        // the exact sums of squares are integers times 2⁻⁵² — summed in
        // i128, rounded once into the reference.
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 36) as i64 - (1 << 27)
        };
        let unit = (-26f64).exp2();
        for len in [0usize, 1, 2, 3, 4, 5, 6, 7, 50, 51, 130, 1000, 1003] {
            let m: Vec<i64> = (0..len).map(|_| next()).collect();
            let x: Vec<f64> = m.iter().map(|&v| v as f64 * unit).collect();
            let got = suffix_norms(&x);
            assert_eq!(got.len(), len + 1);
            let (mut carry, mut exact) = (0.0f64, 0i128);
            for j in (0..=len).rev() {
                if j < len {
                    carry += x[j] * x[j];
                    exact += i128::from(m[j]) * i128::from(m[j]);
                }
                assert_eq!(got[j].to_bits(), carry.sqrt().to_bits(), "len {len} j {j}");
                let reference = exact as f64 * unit * unit;
                let bound = sumsq_reassoc_bound(len - j) * reference;
                assert!((carry - reference).abs() <= bound, "len {len} j {j}");
            }
        }
        // Shape sanity: monotone in n, tiny at realistic factor counts, and
        // dominated by LEMP's 1e-10 inflation far beyond any model width.
        assert!(sumsq_reassoc_bound(64) < sumsq_reassoc_bound(4096));
        assert!(sumsq_reassoc_bound(4096) < 1e-12);
        assert!(sumsq_reassoc_bound(100_000) < 1e-10);
    }

    #[test]
    fn dot_f32_within_screen_envelope_of_exact_f64() {
        // The f32 point dot promises tolerance, not bit-identity: it must
        // land inside the screen envelope around the exact (f64) product
        // of the rounded operands' originals, at every remainder length.
        use crate::simd::tests::pseudo;
        for len in [0usize, 1, 3, 7, 8, 16, 31, 64, 257] {
            let (x64, y64) = (pseudo(len, 61), pseudo(len, 67));
            let exact = dot(&x64, &y64);
            let env = f32_screen_envelope(len, norm2(&x64), norm2(&y64));
            let got = f64::from(dot_scalar_f32(&round_f32(&x64), &round_f32(&y64)));
            assert!(
                (got - exact).abs() <= env,
                "len {len}: |{got} - {exact}| > {env}"
            );
        }
    }

    #[test]
    fn screen_envelope_is_conservative_on_adversarial_dots() {
        // Near-cancelling vectors maximize the relative damage of f32
        // rounding; the envelope must still contain the exact score.
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for f in [1usize, 8, 50, 200, 1024] {
            for trial in 0..20 {
                let x: Vec<f64> = (0..f).map(|_| next()).collect();
                // Half the trials use a near-negated copy so the exact dot
                // nearly cancels while the norms stay O(√f).
                let y: Vec<f64> = if trial % 2 == 0 {
                    (0..f).map(|_| next()).collect()
                } else {
                    x.iter().map(|&v| -v + next() * 1e-4).collect()
                };
                let (x32, y32) = (round_f32(&x), round_f32(&y));
                let exact = dot_gemm_ordered(&x, &y);
                let approx = f64::from(dot_scalar_f32(&x32, &y32));
                let env = f32_screen_envelope(f, norm2(&x), norm2(&y));
                assert!(
                    (approx - exact).abs() <= env,
                    "f {f} trial {trial}: |{approx} - {exact}| > {env}"
                );
            }
        }
        // Degenerate inputs: zero norms still produce a usable (positive)
        // envelope via the absolute subnormal term.
        assert!(f32_screen_envelope(16, 0.0, 0.0) > 0.0);
    }

    #[test]
    fn reassoc_envelope_is_conservative_on_adversarial_dots() {
        // The four-lane dot under every kernel set against the chain, on
        // rows that stress each term of the envelope: ordinary values,
        // near-cancellation (the exact dot nearly vanishes while the norms
        // stay O(√n)), ±1e8, 1e-30, and subnormals met by ordinary values
        // and by ±1e8 — at every length remainder mod 4.
        use crate::simd::Kernel;
        let mut kernels = vec![Kernel::scalar()];
        kernels.extend(Kernel::avx2());
        kernels.extend(Kernel::neon());
        let mut state = 0xE_4E10_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let scales = [1.0, 1e8, 1e-30, 1e-310];
        for n in (0..=13).chain([50, 257, 1024]) {
            for (sx, sy) in scales.iter().flat_map(|&x| scales.map(|y| (x, y))) {
                // Each pairing of scales, and for equal scales a
                // near-negated copy too: the dot nearly cancels.
                for cancel in [false, sx == sy] {
                    let x: Vec<f64> = (0..n).map(|_| next() * sx).collect();
                    let y: Vec<f64> = if cancel {
                        x.iter().map(|&v| -v + next() * sx * 1e-6).collect()
                    } else {
                        (0..n).map(|_| next() * sy).collect()
                    };
                    let chain = dot_gemm_ordered(&x, &y);
                    let (rel, abs) = reassoc_envelope_parts(n);
                    let env = rel * norm2(&x) * norm2(&y) + abs;
                    for kern in &kernels {
                        let got = kern.dot(&x, &y);
                        assert!(
                            (got - chain).abs() <= env,
                            "{} n {n} scales {sx:e} {sy:e}: |{got:e} - {chain:e}| > {env:e}",
                            kern.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dot_gemm_ordered_reproduces_gemm_elements_bit_for_bit() {
        use crate::{gemm_nt, Matrix};
        // Random operands, so every rounding of the chain matters — at
        // widths past the f64 depth block (KC = 256) too, where a depth
        // split must continue each element's chain, not restart it.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for (m, n, f) in [
            (23, 37, 11),
            (5, 300, 50),
            (3, 7, 1),
            (4, 9, 257),
            (8, 16, 258),
            (8, 16, 300),
            (8, 16, 513),
            (8, 16, 700),
        ] {
            let a = Matrix::<f64>::from_fn(m, f, |_, _| next());
            let b = Matrix::<f64>::from_fn(n, f, |_, _| next());
            let big = gemm_nt(&a, &b);
            for u in 0..m {
                for i in 0..n {
                    assert_eq!(
                        dot_gemm_ordered(a.row(u), b.row(i)).to_bits(),
                        big.get(u, i).to_bits(),
                        "({m},{n},{f}) element ({u},{i})"
                    );
                }
            }
            // The pipelined four-chain slot is the same chain.
            let rows = [b.row(0), b.row(1), b.row(2), b.row(3)];
            let quad = simd::active().dot_seq4(a.row(0), rows);
            for (i, q) in quad.iter().enumerate() {
                assert_eq!(q.to_bits(), big.get(0, i).to_bits(), "f {f} lane {i}");
            }
        }
    }
}

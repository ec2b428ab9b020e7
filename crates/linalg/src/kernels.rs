//! Level-1 kernels: dot products, norms, scaling.
//!
//! These are the `sdot`-style routines the paper contrasts against blocked
//! matrix multiply. Every accumulating kernel uses four independent
//! accumulators so four FMA chains stay in flight; a single-accumulator loop
//! serializes on the FMA latency and runs several times slower.
//!
//! Double-precision inputs are routed through the process-wide SIMD kernel
//! set ([`crate::simd::active`]) — AVX2+FMA or NEON when available — whose
//! results are bit-identical to the scalar bodies below (see the contract in
//! [`crate::simd`]). Other scalar types take the portable path. This makes
//! every `f64` caller in the workspace (LEMP's LENGTH/INCR scans, MAXIMUS's
//! list walks, FEXIPRO's partial products, the naive GEMM reference) pick up
//! the dispatched kernels without code changes.

use crate::scalar::Scalar;
use crate::simd;

/// Dot product `xᵀy` with unrolled independent accumulators
/// (SIMD-dispatched for `f64`).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    if let (Some(xf), Some(yf)) = (simd::as_f64(x), simd::as_f64(y)) {
        return T::from_f64(simd::active().dot(xf, yf));
    }
    if let (Some(xf), Some(yf)) = (simd::as_f32(x), simd::as_f32(y)) {
        return T::from_f64(simd::active().dot_f32(xf, yf) as f64);
    }
    dot_scalar(x, y)
}

/// The portable dot product body (the scalar kernel-set entry).
#[inline]
fn dot_scalar<T: Scalar>(x: &[T], y: &[T]) -> T {
    let mut acc0 = T::ZERO;
    let mut acc1 = T::ZERO;
    let mut acc2 = T::ZERO;
    let mut acc3 = T::ZERO;
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact(4);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        acc0 = xs[0].mul_add(ys[0], acc0);
        acc1 = xs[1].mul_add(ys[1], acc1);
        acc2 = xs[2].mul_add(ys[2], acc2);
        acc3 = xs[3].mul_add(ys[3], acc3);
    }
    let mut tail = T::ZERO;
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
/// GEMM-produced scores (e.g. canonicalizing an index's reported top-k
/// values). The single chain serializes on the FMA latency, so it is
/// several times slower than [`dot`] on long vectors — keep it off bulk
/// scan paths.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot_gemm_ordered<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot_gemm_ordered: length mismatch");
    let mut acc = T::ZERO;
    for (a, b) in x.iter().zip(y) {
        acc = a.mul_add(*b, acc);
    }
    acc
}

/// Four GEMM-ordered dot products `xᵀy_i` at once (SIMD-dispatched for
/// `f64` so the fused multiply-adds stay hardware instructions): each
/// product is one sequential FMA chain — [`dot_gemm_ordered`]'s reduction
/// — and the four independent chains pipeline, so a bulk canonicalizing
/// pass is throughput-bound instead of FMA-latency-bound.
///
/// # Panics
/// Panics if any `y` length differs from `x`'s.
#[inline]
pub fn dot_gemm_ordered_x4(x: &[f64], ys: [&[f64]; 4]) -> [f64; 4] {
    simd::active().dot_seq4(x, ys)
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

pub(crate) fn dist2_sq_scalar_f64(x: &[f64], y: &[f64]) -> f64 {
    dist2_sq_scalar(x, y)
}

pub(crate) fn suffix_sumsq_scalar_f64(x: &[f64], out: &mut [f64]) {
    suffix_sumsq_scalar(x, out)
}

/// Monomorphic `f32` scalar entries for the [`crate::simd::Kernel`] vtable
/// (the screen-path kernels; tolerance contract, see [`crate::simd`]).
pub(crate) fn dot_scalar_f32(x: &[f32], y: &[f32]) -> f32 {
    dot_scalar(x, y)
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
/// `i`, and `ŝ` the value any [`crate::simd::Kernel::dot_f32`] kernel
/// produces from the *rounded* operands `fl₃₂(u)`, `fl₃₂(i)`. Then
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

/// Upper bound on the *relative* disagreement between any two summation
/// orders of `n` squared terms in f64 — the actual bound behind the
/// suffix-sumsq "epsilon-covered exception" of [`crate::simd`].
///
/// Each computed suffix `Σ x_j²` (serial FMA chain or block-re-associated
/// vector scan) differs from the exact value by at most `γ_n = n·ε/(1−n·ε)`
/// relative (`ε = 2⁻⁵³`; the squares are non-negative, so the term-wise
/// bound is also the sum-wise bound). Two different orders therefore differ
/// from *each other* by at most `2γ_n` relative. Pruning bounds built on
/// suffix norms stay conservative as long as they are inflated by at least
/// this much — LEMP's `BOUND_EPS = 1e-10` dominates it for every feasible
/// factor count (`2γ_n < 1e-10` up to n ≈ 2.2×10⁵), which the bound tests
/// in `mips-lemp` assert rather than assume.
#[inline]
pub fn sumsq_reassoc_bound(n: usize) -> f64 {
    let ne = n as f64 * f64::EPSILON * 0.5;
    2.0 * ne / (1.0 - ne)
}

/// Squared Euclidean norm `‖x‖²`.
#[inline]
pub fn norm2_sq<T: Scalar>(x: &[T]) -> T {
    dot(x, x)
}

/// Euclidean norm `‖x‖`.
#[inline]
pub fn norm2<T: Scalar>(x: &[T]) -> T {
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
/// accumulators (SIMD-dispatched for `f64`).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dist2_sq<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dist2_sq: length mismatch");
    if let (Some(xf), Some(yf)) = (simd::as_f64(x), simd::as_f64(y)) {
        return T::from_f64(simd::active().dist2_sq(xf, yf));
    }
    dist2_sq_scalar(x, y)
}

/// Portable `dist2_sq` body: four FMA chains in flight, matching [`dot`]'s
/// accumulator layout (a single-accumulator loop serializes on FMA latency).
#[inline]
fn dist2_sq_scalar<T: Scalar>(x: &[T], y: &[T]) -> T {
    let mut acc0 = T::ZERO;
    let mut acc1 = T::ZERO;
    let mut acc2 = T::ZERO;
    let mut acc3 = T::ZERO;
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
    let mut tail = T::ZERO;
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        let d = a - b;
        tail = d.mul_add(d, tail);
    }
    ((acc0 + acc1) + (acc2 + acc3)) + tail
}

/// `x *= alpha`.
#[inline]
pub fn scale<T: Scalar>(alpha: T, x: &mut [T]) {
    for v in x {
        *v *= alpha;
    }
}

/// Normalizes `x` to unit Euclidean length and returns the original norm.
///
/// A zero vector is left untouched and `0` is returned; callers (e.g. the
/// MAXIMUS query path) treat zero-norm users as "any answer is maximal".
#[inline]
pub fn normalize<T: Scalar>(x: &mut [T]) -> T {
    let n = norm2(x);
    if n > T::ZERO {
        let inv = T::ONE / n;
        scale(inv, x);
    }
    n
}

/// The cosine of the angle between `x` and `y`, clamped to `[-1, 1]`.
///
/// Returns `0` when either vector has zero norm (orthogonal by convention).
#[inline]
pub fn cosine<T: Scalar>(x: &[T], y: &[T]) -> T {
    let nx = norm2(x);
    let ny = norm2(y);
    if nx == T::ZERO || ny == T::ZERO {
        return T::ZERO;
    }
    let c = dot(x, y) / (nx * ny);
    c.max_val(-T::ONE).min_val(T::ONE)
}

/// The angle in radians between `x` and `y` (`acos` of [`cosine`]).
#[inline]
pub fn angle<T: Scalar>(x: &[T], y: &[T]) -> T {
    cosine(x, y).acos_clamped()
}

/// Suffix norms: `out[j] = ‖x[j..]‖` for every `j`, plus `out[len] = 0`.
///
/// Both LEMP's incremental pruning and FEXIPRO's partial inner products need
/// the norm of the *remaining* coordinates at a checkpoint; computing the
/// running sum backwards gives all of them in one pass. For `f64` the
/// sum-of-squares scan dispatches to the active SIMD kernel; its block
/// re-association is covered by the bound-inflation epsilon at every
/// pruning call site (see [`crate::simd`]).
pub fn suffix_norms<T: Scalar>(x: &[T]) -> Vec<T> {
    let mut out = vec![T::ZERO; x.len() + 1];
    if let (Some(xf), Some(of)) = (simd::as_f64(x), simd::as_f64_mut(&mut out)) {
        simd::active().suffix_sumsq(xf, of);
        for v in &mut out {
            *v = v.sqrt();
        }
        return out;
    }
    suffix_sumsq_scalar(x, &mut out);
    for v in &mut out {
        *v = v.sqrt();
    }
    out
}

/// Portable suffix sum-of-squares body: one backward FMA carry chain.
#[inline]
fn suffix_sumsq_scalar<T: Scalar>(x: &[T], out: &mut [T]) {
    debug_assert_eq!(out.len(), x.len() + 1);
    out[x.len()] = T::ZERO;
    let mut acc = T::ZERO;
    for j in (0..x.len()).rev() {
        acc = x[j].mul_add(x[j], acc);
        out[j] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miri-targeted: drives every TypeId-guarded slice reinterpretation
    /// in `simd/mod.rs` directly — the match arms (`T == f64`/`f32`), the
    /// `None` arms, and writes through the `_mut` casts — so the Miri CI
    /// leg checks the pointer casts under strict provenance even though
    /// it cannot execute the vector intrinsics behind them.
    #[test]
    fn typeid_guarded_reinterprets_round_trip_under_miri() {
        let xs64 = [1.0f64, -2.0, 3.5];
        let got = simd::as_f64(&xs64).expect("T == f64 must reinterpret");
        assert_eq!(got, &xs64[..]);
        assert!(simd::as_f32(&xs64).is_none(), "f64 is not f32");

        let xs32 = [0.5f32, -4.0];
        let got = simd::as_f32(&xs32).expect("T == f32 must reinterpret");
        assert_eq!(got, &xs32[..]);
        assert!(simd::as_f64(&xs32).is_none(), "f32 is not f64");

        let mut ys64 = [0.0f64; 4];
        simd::as_f64_mut(&mut ys64).expect("mutable f64 cast")[2] = 9.0;
        assert_eq!(ys64[2], 9.0);
        let mut ys32 = [0.0f32; 4];
        assert!(simd::as_f64_mut(&mut ys32).is_none());
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
    fn f32_kernels_work() {
        let x = [1.0_f32, 2.0, 3.0, 4.0, 5.0];
        let y = [5.0_f32, 4.0, 3.0, 2.0, 1.0];
        assert!((dot(&x, &y) - 35.0).abs() < 1e-5);
        assert!((norm2(&[3.0_f32, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn sumsq_reassoc_bound_dominates_observed_kernel_disagreement() {
        // The documented bound must cover the real deviation between the
        // serial scalar scan and the block-re-associated SIMD scan (and
        // leave room — it is a worst-case bound, not a fit).
        let kernels = [
            crate::simd::Kernel::scalar(),
            crate::simd::Kernel::best(), // scalar again on plain hosts; fine
        ];
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 6.0 - 3.0
        };
        for len in [1usize, 4, 17, 128, 1000] {
            let x: Vec<f64> = (0..len).map(|_| next()).collect();
            let mut reference = vec![0.0; len + 1];
            kernels[0].suffix_sumsq(&x, &mut reference);
            let mut other = vec![0.0; len + 1];
            kernels[1].suffix_sumsq(&x, &mut other);
            for j in 0..len {
                let bound = sumsq_reassoc_bound(len - j) * reference[j].abs();
                assert!(
                    (reference[j] - other[j]).abs() <= bound.max(f64::MIN_POSITIVE),
                    "len {len} j {j}"
                );
            }
        }
        // Shape sanity: monotone in n, tiny at realistic factor counts, and
        // dominated by LEMP's 1e-10 inflation far beyond any model width.
        assert!(sumsq_reassoc_bound(64) < sumsq_reassoc_bound(4096));
        assert!(sumsq_reassoc_bound(4096) < 1e-12);
        assert!(sumsq_reassoc_bound(100_000) < 1e-10);
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
                let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
                let y32: Vec<f32> = y.iter().map(|&v| v as f32).collect();
                let exact: f64 = dot_gemm_ordered(&x, &y);
                let approx = crate::simd::active().dot_f32(&x32, &y32) as f64;
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
            // The pipelined x4 form is the same chain.
            let quad = dot_gemm_ordered_x4(a.row(0), [b.row(0), b.row(1), b.row(2), b.row(3)]);
            for (i, q) in quad.iter().enumerate() {
                assert_eq!(q.to_bits(), big.get(0, i).to_bits(), "f {f} lane {i}");
            }
        }
    }
}

//! AVX2 + FMA micro-kernels (x86-64, 256-bit, four f64 lanes).
//!
//! Each public item is a *safe* wrapper whose soundness rests on the
//! constructor contract in [`super`]: these wrappers are only ever reachable
//! through a [`super::Kernel`] built by `Kernel::avx2()`, which verified
//! `avx2` and `fma` via `is_x86_feature_detected!`. The inner `unsafe fn`s
//! carry `#[target_feature]` and do nothing unsafe beyond in-bounds pointer
//! addressing derived from slice lengths (trip counts are computed from
//! `len / lanes`, tails handled by scalar remainder loops).
//!
//! The accumulation orders deliberately mirror the scalar kernels so results
//! are bit-identical — see the bit-identity contract in [`super`].

use super::filter::{hit_f32, hit_i8, lo_f32, lo_i8, max_keep};
use super::{check_groups, check_tile, F32Offer, I8Offer, PeakOp};
use core::arch::x86_64::*;

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: reachable only via a Kernel constructed after feature
    // detection; the inner kernel reads in bounds only.
    unsafe { dot_inner(x, y) }
}

// SAFETY contract: the caller must guarantee AVX2+FMA are available
// (upheld by constructing the `Kernel` only after feature detection)
// and pass slices satisfying the safe wrapper's length invariants —
// every pointer read and write below is in bounds exactly when they
// hold.
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_inner(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let chunks = n / 4;
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    // One vector accumulator: lane l sums x[4i+l]·y[4i+l], exactly the four
    // independent scalar accumulators of `kernels::dot`.
    let mut acc = _mm256_setzero_pd();
    for i in 0..chunks {
        let xv = _mm256_loadu_pd(xp.add(4 * i));
        let yv = _mm256_loadu_pd(yp.add(4 * i));
        acc = _mm256_fmadd_pd(xv, yv, acc);
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut tail = 0.0f64;
    for j in 4 * chunks..n {
        tail = (*xp.add(j)).mul_add(*yp.add(j), tail);
    }
    // Same combine tree as the scalar kernel: ((l0+l1)+(l2+l3)) + tail.
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn dot_seq4(x: &[f64], ys: [&[f64]; 4]) -> [f64; 4] {
    // SAFETY: as for `dot`.
    unsafe { dot_seq4_inner(x, ys) }
}

/// Four sequential-chain (GEMM-ordered) dots. The body is the scalar
/// kernel's, written out here so that under `target_feature(fma)` every
/// `mul_add` lowers to an inline `vfmadd` instead of the baseline
/// target's libm call — same bits, hardware speed.
// SAFETY contract: the caller must guarantee AVX2+FMA are available
// (upheld by constructing the `Kernel` only after feature detection)
// and pass slices satisfying the safe wrapper's length invariants —
// every pointer read and write below is in bounds exactly when they
// hold.
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_seq4_inner(x: &[f64], ys: [&[f64]; 4]) -> [f64; 4] {
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

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn dist2_sq(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: as for `dot`.
    unsafe { dist2_sq_inner(x, y) }
}

// SAFETY contract: the caller must guarantee AVX2+FMA are available
// (upheld by constructing the `Kernel` only after feature detection)
// and pass slices satisfying the safe wrapper's length invariants —
// every pointer read and write below is in bounds exactly when they
// hold.
#[target_feature(enable = "avx2,fma")]
unsafe fn dist2_sq_inner(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let chunks = n / 4;
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let mut acc = _mm256_setzero_pd();
    for i in 0..chunks {
        let d = _mm256_sub_pd(
            _mm256_loadu_pd(xp.add(4 * i)),
            _mm256_loadu_pd(yp.add(4 * i)),
        );
        acc = _mm256_fmadd_pd(d, d, acc);
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut tail = 0.0f64;
    for j in 4 * chunks..n {
        let d = *xp.add(j) - *yp.add(j);
        tail = d.mul_add(d, tail);
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn dot_i8(x: &[i8], y: &[i8]) -> i32 {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: as for `dot`.
    unsafe { dot_i8_inner(x, y) }
}

/// Int8 widening dot: each 32-byte block is sign-extended to i16 halves
/// (`vpmovsxbw`) and folded by `vpmaddwd` into eight i32 lanes — 32
/// products per two madds. The remainder is peeled vector-first: one
/// 16-element sub-chunk (full 128-bit load, one madd) and one 8-element
/// sub-chunk (`vmovq` zero-extends the upper half, whose lanes then
/// contribute exact zero products), leaving at most 7 scalar elements —
/// this matters at recommender widths like f = 50, where a 32-wide loop
/// alone would push 18 of 50 coordinates through the scalar tail.
/// Per-lane worst case at the documented length cap
/// (`quant::I8_DOT_MAX_LEN`) is `(f/16 + 2)·2·127² < 2³¹`, so the i32
/// lanes cannot overflow; every add is an exact integer add, making the
/// result bit-identical to the scalar kernel under every input.
// SAFETY contract: the caller must guarantee AVX2 is available (upheld by
// constructing the `Kernel` only after feature detection) and pass slices
// satisfying the safe wrapper's length invariants — every pointer read
// below is in bounds exactly when they hold (each sub-chunk load is
// guarded by `i + width <= n`).
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_inner(x: &[i8], y: &[i8]) -> i32 {
    let n = x.len();
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0usize;
    while i + 32 <= n {
        let xv = _mm256_loadu_si256(xp.add(i) as *const __m256i);
        let yv = _mm256_loadu_si256(yp.add(i) as *const __m256i);
        let xlo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(xv));
        let xhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(xv, 1));
        let ylo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(yv));
        let yhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(yv, 1));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xlo, ylo));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xhi, yhi));
        i += 32;
    }
    if i + 16 <= n {
        let xv = _mm256_cvtepi8_epi16(_mm_loadu_si128(xp.add(i) as *const __m128i));
        let yv = _mm256_cvtepi8_epi16(_mm_loadu_si128(yp.add(i) as *const __m128i));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, yv));
        i += 16;
    }
    if i + 8 <= n {
        let xv = _mm256_cvtepi8_epi16(_mm_loadl_epi64(xp.add(i) as *const __m128i));
        let yv = _mm256_cvtepi8_epi16(_mm_loadl_epi64(yp.add(i) as *const __m128i));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, yv));
        i += 8;
    }
    let mut sum = hsum_epi32(acc);
    while i < n {
        sum += *xp.add(i) as i32 * *yp.add(i) as i32;
        i += 1;
    }
    sum
}

/// Horizontal i32 sum of the eight lanes — fold the halves, then two
/// pairwise hadds. Exact: integer addition commutes and associates.
// SAFETY contract: AVX2 available, per the kernel constructor contract.
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi32(v: __m256i) -> i32 {
    let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    let s = _mm_hadd_epi32(s, s);
    let s = _mm_hadd_epi32(s, s);
    _mm_cvtsi128_si32(s)
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn tile_f64(a_panel: &[f64], b_panel: &[f64], c: &mut [f64], ldc: usize, acc: bool) {
    check_tile(a_panel, b_panel, c, ldc, 4, 8, 1);
    // SAFETY: reachable only via a Kernel constructed after feature
    // detection; `check_tile` established the bounds the body reads and
    // writes within.
    unsafe { tile_f64_inner(a_panel, b_panel, c.as_mut_ptr(), ldc, acc) }
}

/// The `4×8` register tile: 8 vector accumulators (4 rows × 2 vectors of 4
/// columns), two B loads and four A broadcasts per depth step, 8 independent
/// FMAs in flight. Each `(i, j)` lane is a single sequential FMA chain over
/// the packed depth — started at zero, or at the C element when
/// accumulating, so a depth split continues the chain — bit-identical to the
/// scalar tile. The accumulators never leave registers between the first
/// load and the final store to C.
// SAFETY contract: the caller must guarantee AVX2+FMA are available
// (upheld by constructing the `Kernel` only after feature detection),
// that `a.len() / 4 == b.len() / 8`, and that `c` is valid for reads and
// writes of 8 elements at each of the offsets `0, ldc, 2·ldc, 3·ldc`.
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_f64_inner(a: &[f64], b: &[f64], c: *mut f64, ldc: usize, accumulate: bool) {
    let depth = a.len() / 4;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let (c0, c1, c2, c3) = (c, c.add(ldc), c.add(2 * ldc), c.add(3 * ldc));

    let zero = _mm256_setzero_pd();
    let (mut c00, mut c01, mut c10, mut c11) = (zero, zero, zero, zero);
    let (mut c20, mut c21, mut c30, mut c31) = (zero, zero, zero, zero);
    if accumulate {
        c00 = _mm256_loadu_pd(c0);
        c01 = _mm256_loadu_pd(c0.add(4));
        c10 = _mm256_loadu_pd(c1);
        c11 = _mm256_loadu_pd(c1.add(4));
        c20 = _mm256_loadu_pd(c2);
        c21 = _mm256_loadu_pd(c2.add(4));
        c30 = _mm256_loadu_pd(c3);
        c31 = _mm256_loadu_pd(c3.add(4));
    }

    for p in 0..depth {
        let b0 = _mm256_loadu_pd(bp.add(p * 8));
        let b1 = _mm256_loadu_pd(bp.add(p * 8 + 4));
        let arow = ap.add(p * 4);
        let a0 = _mm256_broadcast_sd(&*arow);
        c00 = _mm256_fmadd_pd(a0, b0, c00);
        c01 = _mm256_fmadd_pd(a0, b1, c01);
        let a1 = _mm256_broadcast_sd(&*arow.add(1));
        c10 = _mm256_fmadd_pd(a1, b0, c10);
        c11 = _mm256_fmadd_pd(a1, b1, c11);
        let a2 = _mm256_broadcast_sd(&*arow.add(2));
        c20 = _mm256_fmadd_pd(a2, b0, c20);
        c21 = _mm256_fmadd_pd(a2, b1, c21);
        let a3 = _mm256_broadcast_sd(&*arow.add(3));
        c30 = _mm256_fmadd_pd(a3, b0, c30);
        c31 = _mm256_fmadd_pd(a3, b1, c31);
    }

    _mm256_storeu_pd(c0, c00);
    _mm256_storeu_pd(c0.add(4), c01);
    _mm256_storeu_pd(c1, c10);
    _mm256_storeu_pd(c1.add(4), c11);
    _mm256_storeu_pd(c2, c20);
    _mm256_storeu_pd(c2.add(4), c21);
    _mm256_storeu_pd(c3, c30);
    _mm256_storeu_pd(c3.add(4), c31);
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn tile_f32(a_panel: &[f32], b_panel: &[f32], c: &mut [f32], ldc: usize, acc: bool) {
    check_tile(a_panel, b_panel, c, ldc, 4, 16, 1);
    // SAFETY: as for `tile_f64`.
    unsafe { tile_f32_inner(a_panel, b_panel, c.as_mut_ptr(), ldc, acc) }
}

/// The f32 `4×16` register tile: 8 vector accumulators (4 rows × 2 vectors
/// of 8 columns) — eight independent chains cover the FMA latency on both
/// ports, where a 4×8 tile's four ran at half rate. Two B loads and four A
/// broadcasts per depth step.
// SAFETY contract: the caller must guarantee AVX2+FMA are available
// (upheld by constructing the `Kernel` only after feature detection),
// that `a.len() / 4 == b.len() / 16`, and that `c` is valid for reads and
// writes of 16 elements at each of the offsets `0, ldc, 2·ldc, 3·ldc`.
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_f32_inner(a: &[f32], b: &[f32], c: *mut f32, ldc: usize, accumulate: bool) {
    let depth = a.len() / 4;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let (c0, c1, c2, c3) = (c, c.add(ldc), c.add(2 * ldc), c.add(3 * ldc));

    let zero = _mm256_setzero_ps();
    let (mut c00, mut c01, mut c10, mut c11) = (zero, zero, zero, zero);
    let (mut c20, mut c21, mut c30, mut c31) = (zero, zero, zero, zero);
    if accumulate {
        c00 = _mm256_loadu_ps(c0);
        c01 = _mm256_loadu_ps(c0.add(8));
        c10 = _mm256_loadu_ps(c1);
        c11 = _mm256_loadu_ps(c1.add(8));
        c20 = _mm256_loadu_ps(c2);
        c21 = _mm256_loadu_ps(c2.add(8));
        c30 = _mm256_loadu_ps(c3);
        c31 = _mm256_loadu_ps(c3.add(8));
    }

    for p in 0..depth {
        let b0 = _mm256_loadu_ps(bp.add(p * 16));
        let b1 = _mm256_loadu_ps(bp.add(p * 16 + 8));
        let arow = ap.add(p * 4);
        let a0 = _mm256_broadcast_ss(&*arow);
        c00 = _mm256_fmadd_ps(a0, b0, c00);
        c01 = _mm256_fmadd_ps(a0, b1, c01);
        let a1 = _mm256_broadcast_ss(&*arow.add(1));
        c10 = _mm256_fmadd_ps(a1, b0, c10);
        c11 = _mm256_fmadd_ps(a1, b1, c11);
        let a2 = _mm256_broadcast_ss(&*arow.add(2));
        c20 = _mm256_fmadd_ps(a2, b0, c20);
        c21 = _mm256_fmadd_ps(a2, b1, c21);
        let a3 = _mm256_broadcast_ss(&*arow.add(3));
        c30 = _mm256_fmadd_ps(a3, b0, c30);
        c31 = _mm256_fmadd_ps(a3, b1, c31);
    }

    _mm256_storeu_ps(c0, c00);
    _mm256_storeu_ps(c0.add(8), c01);
    _mm256_storeu_ps(c1, c10);
    _mm256_storeu_ps(c1.add(8), c11);
    _mm256_storeu_ps(c2, c20);
    _mm256_storeu_ps(c2.add(8), c21);
    _mm256_storeu_ps(c3, c30);
    _mm256_storeu_ps(c3.add(8), c31);
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn tile_i8(a_panel: &[i16], b_panel: &[i16], c: &mut [i32], ldc: usize, acc: bool) {
    check_tile(a_panel, b_panel, c, ldc, 4, 16, 2);
    // SAFETY: as for `tile_f64`.
    unsafe { tile_i8_inner(a_panel, b_panel, c.as_mut_ptr(), ldc, acc) }
}

/// The int8 `4×16` register tile over `i16`-pair panels. Per depth pair the
/// B panel holds `(b_j[2p], b_j[2p+1])` for 16 columns — two 256-bit loads —
/// and the A panel one such pair per row, broadcast as a 32-bit lane;
/// `vpmaddwd` forms `a[2p]·b_j[2p] + a[2p+1]·b_j[2p+1]` exactly in `i32`
/// (codes are sign-extended `i8`, so a pair sum is at most `2·128²`) and
/// `vpaddd` accumulates it: 8 accumulators, 16 multiply-adds per
/// instruction. Integer adds associate, so the tile equals the scalar one —
/// and `dot_i8` on every pair — under any depth blocking; `i32` cannot
/// overflow for depths up to `quant::I8_DOT_MAX_LEN`.
// SAFETY contract: the caller must guarantee AVX2 is available (upheld by
// constructing the `Kernel` only after feature detection), that
// `a.len() / 4 == b.len() / 16` with `a.len()` a multiple of 8, and that
// `c` is valid for reads and writes of 16 elements at each of the offsets
// `0, ldc, 2·ldc, 3·ldc`. The 32-bit reads of A pairs are unaligned reads
// inside `a`.
#[target_feature(enable = "avx2")]
unsafe fn tile_i8_inner(a: &[i16], b: &[i16], c: *mut i32, ldc: usize, accumulate: bool) {
    let pairs = a.len() / 8;
    let ap = a.as_ptr() as *const i32;
    let bp = b.as_ptr() as *const __m256i;
    let rows = [c, c.add(ldc), c.add(2 * ldc), c.add(3 * ldc)];

    let mut acc = [[_mm256_setzero_si256(); 2]; 4];
    if accumulate {
        for (row, &cp) in acc.iter_mut().zip(&rows) {
            row[0] = _mm256_loadu_si256(cp as *const __m256i);
            row[1] = _mm256_loadu_si256(cp.add(8) as *const __m256i);
        }
    }

    for p in 0..pairs {
        let b0 = _mm256_loadu_si256(bp.add(2 * p));
        let b1 = _mm256_loadu_si256(bp.add(2 * p + 1));
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = _mm256_set1_epi32(ap.add(4 * p + i).read_unaligned());
            row[0] = _mm256_add_epi32(row[0], _mm256_madd_epi16(ai, b0));
            row[1] = _mm256_add_epi32(row[1], _mm256_madd_epi16(ai, b1));
        }
    }

    for (row, &cp) in acc.iter().zip(&rows) {
        _mm256_storeu_si256(cp as *mut __m256i, row[0]);
        _mm256_storeu_si256(cp.add(8) as *mut __m256i, row[1]);
    }
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn next_hit_f64(scores: &[f64], from: usize, threshold: f64) -> usize {
    assert!(from <= scores.len());
    // SAFETY: as for `dot`; `from` is in range.
    unsafe { next_hit_f64_inner(scores, from, threshold) }
}

/// Four lanes per compare: `!(s < t)` (`NLT_UQ`, true for NaN like the
/// scalar twin's negated `<`), movemask, first set bit.
// SAFETY contract: the caller must guarantee AVX2 is available (upheld by
// constructing the `Kernel` only after feature detection) and
// `from <= scores.len()` — every load below is guarded by `j + 4 <= n`.
#[target_feature(enable = "avx2")]
unsafe fn next_hit_f64_inner(scores: &[f64], from: usize, threshold: f64) -> usize {
    let n = scores.len();
    let sp = scores.as_ptr();
    let t = _mm256_set1_pd(threshold);
    let mut j = from;
    while j + 4 <= n {
        let hit = _mm256_cmp_pd::<_CMP_NLT_UQ>(_mm256_loadu_pd(sp.add(j)), t);
        let mask = _mm256_movemask_pd(hit);
        if mask != 0 {
            return j + mask.trailing_zeros() as usize;
        }
        j += 4;
    }
    super::filter::next_hit_f64(scores, j, threshold)
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn next_hit_f32(
    scores: &[f32],
    item_norms: &[f64],
    user: F32Offer,
    from: usize,
    threshold: f64,
) -> usize {
    assert!(from <= scores.len() && item_norms.len() == scores.len());
    // SAFETY: as for `dot`; the slices are equally long and `from` in range.
    unsafe { next_hit_f32_inner(scores, item_norms, user, from, threshold) }
}

/// The f32 offer expression on four lanes, operation for operation the
/// scalar twin's (`filter::hit_f32`): widen, one FMA for the envelope, one
/// add for `hi`, then `hi + s·0` so a non-finite score compares as NaN.
// SAFETY contract: the caller must guarantee AVX2+FMA are available
// (upheld by constructing the `Kernel` only after feature detection),
// `item_norms.len() == scores.len()` and `from <= scores.len()` — every
// load below is guarded by `j + 4 <= n`.
#[target_feature(enable = "avx2,fma")]
unsafe fn next_hit_f32_inner(
    scores: &[f32],
    item_norms: &[f64],
    user: F32Offer,
    from: usize,
    threshold: f64,
) -> usize {
    let n = scores.len();
    let (sp, np) = (scores.as_ptr(), item_norms.as_ptr());
    let t = _mm256_set1_pd(threshold);
    let rel = _mm256_set1_pd(user.rel_u);
    let abs = _mm256_set1_pd(user.env_abs);
    let zero = _mm256_setzero_pd();
    let mut j = from;
    while j + 4 <= n {
        let s = _mm256_cvtps_pd(_mm_loadu_ps(sp.add(j)));
        let env = _mm256_fmadd_pd(rel, _mm256_loadu_pd(np.add(j)), abs);
        let hi = _mm256_add_pd(s, env);
        let checked = _mm256_add_pd(hi, _mm256_mul_pd(s, zero));
        let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_NLT_UQ>(checked, t));
        if mask != 0 {
            return j + mask.trailing_zeros() as usize;
        }
        j += 4;
    }
    while j < n && !hit_f32(*sp.add(j), *np.add(j), user, threshold) {
        j += 1;
    }
    j
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn next_hit_i8(
    dots: &[i32],
    item_inv_scales: &[f64],
    item_l1: &[f64],
    user: I8Offer,
    from: usize,
    threshold: f64,
) -> usize {
    assert!(
        from <= dots.len() && item_inv_scales.len() == dots.len() && item_l1.len() == dots.len()
    );
    // SAFETY: as for `dot`; the slices are equally long and `from` in range.
    unsafe { next_hit_i8_inner(dots, item_inv_scales, item_l1, user, from, threshold) }
}

/// The int8 offer expression on four lanes, operation for operation the
/// scalar twin's (`filter::hit_i8`): the explicit multiply and add
/// intrinsics are never contracted into FMAs.
// SAFETY contract: the caller must guarantee AVX2 is available (upheld by
// constructing the `Kernel` only after feature detection), the three
// slices equally long and `from <= dots.len()` — every load below is
// guarded by `j + 4 <= n`.
#[target_feature(enable = "avx2")]
unsafe fn next_hit_i8_inner(
    dots: &[i32],
    item_inv_scales: &[f64],
    item_l1: &[f64],
    user: I8Offer,
    from: usize,
    threshold: f64,
) -> usize {
    let n = dots.len();
    let (dp, ip, lp) = (dots.as_ptr(), item_inv_scales.as_ptr(), item_l1.as_ptr());
    let t = _mm256_set1_pd(threshold);
    let inv_su = _mm256_set1_pd(user.inv_su);
    let env_a = _mm256_set1_pd(user.env.0);
    let env_b = _mm256_set1_pd(user.env.1);
    let mut j = from;
    while j + 4 <= n {
        let d = _mm256_cvtepi32_pd(_mm_loadu_si128(dp.add(j) as *const __m128i));
        let inv_si = _mm256_loadu_pd(ip.add(j));
        let score = _mm256_mul_pd(d, _mm256_mul_pd(inv_su, inv_si));
        let env = _mm256_add_pd(
            _mm256_mul_pd(env_a, inv_si),
            _mm256_mul_pd(env_b, _mm256_loadu_pd(lp.add(j))),
        );
        let hit = _mm256_cmp_pd::<_CMP_NLT_UQ>(_mm256_add_pd(score, env), t);
        let mask = _mm256_movemask_pd(hit);
        if mask != 0 {
            return j + mask.trailing_zeros() as usize;
        }
        j += 4;
    }
    while j < n && !hit_i8(*dp.add(j), *ip.add(j), *lp.add(j), user, threshold) {
        j += 1;
    }
    j
}

/// Largest of four lanes that are never NaN (the accumulators start at
/// `−∞` and `vmaxpd(x, acc)` keeps `acc` when `x` is NaN).
// SAFETY contract: AVX2 available, per the kernel constructor contract.
#[target_feature(enable = "avx2")]
unsafe fn hmax_pd(v: __m256d) -> f64 {
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), v);
    lanes.iter().fold(f64::NEG_INFINITY, |m, &x| max_keep(x, m))
}

/// The frame of the three group-maxima bodies, around their lane
/// expressions: `$lanes` is the four lanes at `$j` as a vector, `$lane` the
/// scalar twin's lane `$t`. Per group, four `vmaxpd(lanes, acc)` chains over
/// sixteen lanes at a time (so the compares overlap instead of waiting on
/// one accumulator), one chain over the remaining whole vectors, the
/// scalar twin's rule on the tail, then `+ 0.0` (`filter::group_max`).
/// A maximum does not depend on reduction order once NaN lanes are skipped
/// and a zero result is made `+0`, so this agrees with the sequential scalar
/// fold bit for bit. Every vector load sits behind `$j + 4 <= end`.
macro_rules! group_max_frame {
    ($n:expr, $group:expr, $out:expr, |$j:ident| $lanes:expr, |$t:ident| $lane:expr) => {
        for (g, slot) in $out.iter_mut().enumerate() {
            let end = ((g + 1) * $group).min($n);
            let mut $j = g * $group;
            let mut acc = [_mm256_set1_pd(f64::NEG_INFINITY); 4];
            while $j + 16 <= end {
                for chain in &mut acc {
                    *chain = _mm256_max_pd($lanes, *chain);
                    $j += 4;
                }
            }
            while $j + 4 <= end {
                acc[0] = _mm256_max_pd($lanes, acc[0]);
                $j += 4;
            }
            let both = _mm256_max_pd(_mm256_max_pd(acc[0], acc[1]), _mm256_max_pd(acc[2], acc[3]));
            let mut m = hmax_pd(both);
            for $t in $j..end {
                m = max_keep($lane, m);
            }
            *slot = m + 0.0;
        }
    };
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn group_max_f64(scores: &[f64], group: usize, out: &mut [f64]) {
    check_groups(scores.len(), group, out);
    // SAFETY: as for `dot`; every group lies inside `scores`.
    unsafe { group_max_f64_inner(scores, group, out) }
}

/// Per group, the largest score (`group_max_frame!`).
// SAFETY contract: the caller must guarantee AVX2 is available (upheld by
// constructing the `Kernel` only after feature detection) and
// `out.len() <= scores.len().div_ceil(group)` — every load below is
// guarded by `j + 4 <= end <= scores.len()`.
#[target_feature(enable = "avx2")]
unsafe fn group_max_f64_inner(scores: &[f64], group: usize, out: &mut [f64]) {
    let sp = scores.as_ptr();
    group_max_frame!(
        scores.len(),
        group,
        out,
        |j| _mm256_loadu_pd(sp.add(j)),
        |t| *sp.add(t)
    );
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn group_max_f32(
    scores: &[f32],
    item_norms: &[f64],
    user: F32Offer,
    group: usize,
    out: &mut [f64],
) {
    assert_eq!(item_norms.len(), scores.len());
    check_groups(scores.len(), group, out);
    // SAFETY: as for `dot`; the slices are equally long and every group
    // lies inside them.
    unsafe { group_max_f32_inner(scores, item_norms, user, group, out) }
}

/// Per group, the largest f32 lower bound, operation for operation the
/// scalar twin's (`filter::lo_f32`): widen, one FMA for the envelope,
/// subtract, then `+ s·0` so a non-finite score is NaN and skipped.
// SAFETY contract: the caller must guarantee AVX2+FMA are available
// (upheld by constructing the `Kernel` only after feature detection),
// `item_norms.len() == scores.len()` and
// `out.len() <= scores.len().div_ceil(group)` — every load below is
// guarded by `j + 4 <= end <= scores.len()`.
#[target_feature(enable = "avx2,fma")]
unsafe fn group_max_f32_inner(
    scores: &[f32],
    item_norms: &[f64],
    user: F32Offer,
    group: usize,
    out: &mut [f64],
) {
    let (sp, np) = (scores.as_ptr(), item_norms.as_ptr());
    let rel = _mm256_set1_pd(user.rel_u);
    let abs = _mm256_set1_pd(user.env_abs);
    let zero = _mm256_setzero_pd();
    group_max_frame!(
        scores.len(),
        group,
        out,
        |j| {
            let s = _mm256_cvtps_pd(_mm_loadu_ps(sp.add(j)));
            let env = _mm256_fmadd_pd(rel, _mm256_loadu_pd(np.add(j)), abs);
            _mm256_add_pd(_mm256_sub_pd(s, env), _mm256_mul_pd(s, zero))
        },
        |t| lo_f32(*sp.add(t), *np.add(t), user)
    );
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn group_max_i8(
    dots: &[i32],
    item_inv_scales: &[f64],
    item_l1: &[f64],
    user: I8Offer,
    group: usize,
    out: &mut [f64],
) {
    assert!(item_inv_scales.len() == dots.len() && item_l1.len() == dots.len());
    check_groups(dots.len(), group, out);
    // SAFETY: as for `dot`; the slices are equally long and every group
    // lies inside them.
    unsafe { group_max_i8_inner(dots, item_inv_scales, item_l1, user, group, out) }
}

/// Per group, the largest int8 lower bound, operation for operation the
/// scalar twin's (`filter::lo_i8`): explicit multiplies, adds and the
/// subtract, never contracted into FMAs.
// SAFETY contract: the caller must guarantee AVX2 is available (upheld by
// constructing the `Kernel` only after feature detection), the three
// slices equally long and `out.len() <= dots.len().div_ceil(group)` —
// every load below is guarded by `j + 4 <= end <= dots.len()`.
#[target_feature(enable = "avx2")]
unsafe fn group_max_i8_inner(
    dots: &[i32],
    item_inv_scales: &[f64],
    item_l1: &[f64],
    user: I8Offer,
    group: usize,
    out: &mut [f64],
) {
    let (dp, ip, lp) = (dots.as_ptr(), item_inv_scales.as_ptr(), item_l1.as_ptr());
    let inv_su = _mm256_set1_pd(user.inv_su);
    let env_a = _mm256_set1_pd(user.env.0);
    let env_b = _mm256_set1_pd(user.env.1);
    group_max_frame!(
        dots.len(),
        group,
        out,
        |j| {
            let d = _mm256_cvtepi32_pd(_mm_loadu_si128(dp.add(j) as *const __m128i));
            let inv_si = _mm256_loadu_pd(ip.add(j));
            let score = _mm256_mul_pd(d, _mm256_mul_pd(inv_su, inv_si));
            let env = _mm256_add_pd(
                _mm256_mul_pd(env_a, inv_si),
                _mm256_mul_pd(env_b, _mm256_loadu_pd(lp.add(j))),
            );
            _mm256_sub_pd(score, env)
        },
        |t| lo_i8(*dp.add(t), *ip.add(t), *lp.add(t), user)
    );
}

/// Safe wrapper; see module docs for the soundness argument.
pub(super) fn peak(op: PeakOp, rounds: u64) -> f64 {
    // SAFETY: reachable only via a Kernel constructed after feature
    // detection; the probes touch no memory.
    unsafe {
        match op {
            PeakOp::FmaF64 => peak_f64(rounds),
            PeakOp::FmaF32 => peak_f32(rounds),
            PeakOp::MaddI16 => peak_i16(rounds),
        }
    }
}

// SAFETY contract: AVX2+FMA available, per the kernel constructor contract.
#[target_feature(enable = "avx2,fma")]
unsafe fn peak_f64(rounds: u64) -> f64 {
    let a = _mm256_set1_pd(std::hint::black_box(0.999_999));
    let b = _mm256_set1_pd(std::hint::black_box(1e-6));
    let mut acc = [_mm256_set1_pd(1.0); super::PEAK_CHAINS as usize];
    for _ in 0..rounds {
        for v in &mut acc {
            *v = _mm256_fmadd_pd(*v, a, b);
        }
    }
    let mut sum = _mm256_setzero_pd();
    for v in acc {
        sum = _mm256_add_pd(sum, v);
    }
    _mm256_cvtsd_f64(sum)
}

// SAFETY contract: AVX2+FMA available, per the kernel constructor contract.
#[target_feature(enable = "avx2,fma")]
unsafe fn peak_f32(rounds: u64) -> f64 {
    let a = _mm256_set1_ps(std::hint::black_box(0.999));
    let b = _mm256_set1_ps(std::hint::black_box(1e-3));
    let mut acc = [_mm256_set1_ps(1.0); super::PEAK_CHAINS as usize];
    for _ in 0..rounds {
        for v in &mut acc {
            *v = _mm256_fmadd_ps(*v, a, b);
        }
    }
    let mut sum = _mm256_setzero_ps();
    for v in acc {
        sum = _mm256_add_ps(sum, v);
    }
    _mm256_cvtss_f32(sum) as f64
}

// SAFETY contract: AVX2 available, per the kernel constructor contract.
#[target_feature(enable = "avx2")]
unsafe fn peak_i16(rounds: u64) -> f64 {
    let a = _mm256_set1_epi16(std::hint::black_box(3));
    let mut acc = [_mm256_set1_epi16(1); super::PEAK_CHAINS as usize];
    for _ in 0..rounds {
        // Each multiply-add feeds on its own chain, so none is hoisted; the
        // values wrap and mean nothing. The tile's `vpaddd` accumulate is
        // left out: it issues on a port `vpmaddwd` cannot use, so the
        // multiply-add is the resource the tile is bound by.
        for v in &mut acc {
            *v = _mm256_madd_epi16(*v, a);
        }
    }
    let mut sum = _mm256_setzero_si256();
    for v in acc {
        sum = _mm256_add_epi32(sum, v);
    }
    hsum_epi32(sum) as f64
}

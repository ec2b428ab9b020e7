//! NEON micro-kernels (aarch64, 128-bit, two f64 lanes).
//!
//! NEON with double-precision FMA is a baseline aarch64 feature, so no
//! runtime detection is needed; the `unsafe` here is only the intrinsic
//! calls themselves, with the same in-bounds addressing discipline as the
//! AVX2 kernels (see [`super`] for the full safety contract).
//!
//! Two 2-lane accumulators stand in for AVX2's one 4-lane accumulator:
//! lanes `(0,1)` of the first and `(0,1)` of the second map onto scalar
//! accumulators `0..4`, and the combine tree matches the scalar kernels, so
//! the bit-identity contract of [`super`] holds here too.

use super::{check_tile, PeakOp};
use core::arch::aarch64::*;

/// Safe wrapper; soundness per the module-level contract.
pub(super) fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: NEON is baseline on aarch64; reads are in bounds.
    unsafe { dot_inner(x, y) }
}

// SAFETY contract: NEON is baseline on aarch64, so the caller's only
// obligation is the safe wrapper's length invariant — every pointer
// read and write below is in bounds exactly when it holds.
#[target_feature(enable = "neon")]
unsafe fn dot_inner(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let chunks = n / 4;
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    for i in 0..chunks {
        acc01 = vfmaq_f64(acc01, vld1q_f64(xp.add(4 * i)), vld1q_f64(yp.add(4 * i)));
        acc23 = vfmaq_f64(
            acc23,
            vld1q_f64(xp.add(4 * i + 2)),
            vld1q_f64(yp.add(4 * i + 2)),
        );
    }
    let mut tail = 0.0f64;
    for j in 4 * chunks..n {
        tail = (*xp.add(j)).mul_add(*yp.add(j), tail);
    }
    ((vgetq_lane_f64(acc01, 0) + vgetq_lane_f64(acc01, 1))
        + (vgetq_lane_f64(acc23, 0) + vgetq_lane_f64(acc23, 1)))
        + tail
}

/// Safe wrapper; soundness per the module-level contract.
pub(super) fn dist2_sq(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: as for `dot`.
    unsafe { dist2_sq_inner(x, y) }
}

// SAFETY contract: NEON is baseline on aarch64, so the caller's only
// obligation is the safe wrapper's length invariant — every pointer
// read and write below is in bounds exactly when it holds.
#[target_feature(enable = "neon")]
unsafe fn dist2_sq_inner(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let chunks = n / 4;
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    for i in 0..chunks {
        let d01 = vsubq_f64(vld1q_f64(xp.add(4 * i)), vld1q_f64(yp.add(4 * i)));
        let d23 = vsubq_f64(vld1q_f64(xp.add(4 * i + 2)), vld1q_f64(yp.add(4 * i + 2)));
        acc01 = vfmaq_f64(acc01, d01, d01);
        acc23 = vfmaq_f64(acc23, d23, d23);
    }
    let mut tail = 0.0f64;
    for j in 4 * chunks..n {
        let d = *xp.add(j) - *yp.add(j);
        tail = d.mul_add(d, tail);
    }
    ((vgetq_lane_f64(acc01, 0) + vgetq_lane_f64(acc01, 1))
        + (vgetq_lane_f64(acc23, 0) + vgetq_lane_f64(acc23, 1)))
        + tail
}

/// Safe wrapper; soundness per the module-level contract.
pub(super) fn dot_i8(x: &[i8], y: &[i8]) -> i32 {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: as for `dot`.
    unsafe { dot_i8_inner(x, y) }
}

/// Int8 widening dot: 16 codes per step via `smull` (i8×i8→i16, exact —
/// products are ≤ 127² and fit i16) and `sadalp` (pairwise add-accumulate
/// into i32 lanes). Every add happens in i32 after exact i16 products, so
/// the result is bit-identical to the scalar kernel; the per-lane bound at
/// the documented length cap (`quant::I8_DOT_MAX_LEN`) stays far inside
/// `i32`.
// SAFETY contract: NEON is baseline on aarch64, so the caller's only
// obligation is the safe wrapper's length invariant — every pointer
// read below is in bounds exactly when it holds.
#[target_feature(enable = "neon")]
unsafe fn dot_i8_inner(x: &[i8], y: &[i8]) -> i32 {
    let n = x.len();
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let mut acc = vdupq_n_s32(0);
    let mut i = 0usize;
    while i + 16 <= n {
        let xv = vld1q_s8(xp.add(i));
        let yv = vld1q_s8(yp.add(i));
        let lo = vmull_s8(vget_low_s8(xv), vget_low_s8(yv));
        let hi = vmull_s8(vget_high_s8(xv), vget_high_s8(yv));
        acc = vpadalq_s16(acc, lo);
        acc = vpadalq_s16(acc, hi);
        i += 16;
    }
    // 8-element sub-chunk (64-bit load) keeps the scalar tail under 8.
    if i + 8 <= n {
        acc = vpadalq_s16(acc, vmull_s8(vld1_s8(xp.add(i)), vld1_s8(yp.add(i))));
        i += 8;
    }
    let mut sum = vaddvq_s32(acc);
    while i < n {
        sum += *xp.add(i) as i32 * *yp.add(i) as i32;
        i += 1;
    }
    sum
}

/// Safe wrapper; soundness per the module-level contract.
pub(super) fn tile_f64(a_panel: &[f64], b_panel: &[f64], c: &mut [f64], ldc: usize, acc: bool) {
    check_tile(a_panel, b_panel, c, ldc, 4, 8, 1);
    // SAFETY: NEON is baseline on aarch64; `check_tile` established the
    // bounds the body reads and writes within.
    unsafe { tile_f64_inner(a_panel, b_panel, c.as_mut_ptr(), ldc, acc) }
}

/// The `4×8` tile as 16 two-lane accumulators; each `(i, j)` lane is one
/// sequential FMA chain over the packed depth — started at zero, or at the
/// C element when accumulating — matching the scalar tile. Stored straight
/// to C.
// SAFETY contract: NEON is baseline on aarch64; the caller must guarantee
// `a.len() / 4 == b.len() / 8` and that `c` is valid for reads and writes
// of 8 elements at each of the offsets `0, ldc, 2·ldc, 3·ldc`.
#[target_feature(enable = "neon")]
unsafe fn tile_f64_inner(a: &[f64], b: &[f64], c: *mut f64, ldc: usize, accumulate: bool) {
    let depth = a.len() / 4;
    let ap = a.as_ptr();
    let bp = b.as_ptr();

    let mut acc: [[float64x2_t; 4]; 4] = [[vdupq_n_f64(0.0); 4]; 4];
    if accumulate {
        for (i, row) in acc.iter_mut().enumerate() {
            for (q, v) in row.iter_mut().enumerate() {
                *v = vld1q_f64(c.add(i * ldc + 2 * q));
            }
        }
    }

    for p in 0..depth {
        let b0 = vld1q_f64(bp.add(p * 8));
        let b1 = vld1q_f64(bp.add(p * 8 + 2));
        let b2 = vld1q_f64(bp.add(p * 8 + 4));
        let b3 = vld1q_f64(bp.add(p * 8 + 6));
        let arow = ap.add(p * 4);
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = vdupq_n_f64(*arow.add(i));
            row[0] = vfmaq_f64(row[0], ai, b0);
            row[1] = vfmaq_f64(row[1], ai, b1);
            row[2] = vfmaq_f64(row[2], ai, b2);
            row[3] = vfmaq_f64(row[3], ai, b3);
        }
    }

    for (i, row) in acc.iter().enumerate() {
        for (q, v) in row.iter().enumerate() {
            vst1q_f64(c.add(i * ldc + 2 * q), *v);
        }
    }
}

/// Safe wrapper; soundness per the module-level contract.
pub(super) fn tile_f32(a_panel: &[f32], b_panel: &[f32], c: &mut [f32], ldc: usize, acc: bool) {
    check_tile(a_panel, b_panel, c, ldc, 4, 16, 1);
    // SAFETY: as for `tile_f64`.
    unsafe { tile_f32_inner(a_panel, b_panel, c.as_mut_ptr(), ldc, acc) }
}

/// The f32 `4×16` tile as sixteen 4-lane accumulators (4 rows × 4 quads).
// SAFETY contract: NEON is baseline on aarch64; the caller must guarantee
// `a.len() / 4 == b.len() / 16` and that `c` is valid for reads and
// writes of 16 elements at each of the offsets `0, ldc, 2·ldc, 3·ldc`.
#[target_feature(enable = "neon")]
unsafe fn tile_f32_inner(a: &[f32], b: &[f32], c: *mut f32, ldc: usize, accumulate: bool) {
    let depth = a.len() / 4;
    let ap = a.as_ptr();
    let bp = b.as_ptr();

    let mut acc: [[float32x4_t; 4]; 4] = [[vdupq_n_f32(0.0); 4]; 4];
    if accumulate {
        for (i, row) in acc.iter_mut().enumerate() {
            for (q, v) in row.iter_mut().enumerate() {
                *v = vld1q_f32(c.add(i * ldc + 4 * q));
            }
        }
    }

    for p in 0..depth {
        let b0 = vld1q_f32(bp.add(p * 16));
        let b1 = vld1q_f32(bp.add(p * 16 + 4));
        let b2 = vld1q_f32(bp.add(p * 16 + 8));
        let b3 = vld1q_f32(bp.add(p * 16 + 12));
        let arow = ap.add(p * 4);
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = vdupq_n_f32(*arow.add(i));
            row[0] = vfmaq_f32(row[0], ai, b0);
            row[1] = vfmaq_f32(row[1], ai, b1);
            row[2] = vfmaq_f32(row[2], ai, b2);
            row[3] = vfmaq_f32(row[3], ai, b3);
        }
    }

    for (i, row) in acc.iter().enumerate() {
        for (q, v) in row.iter().enumerate() {
            vst1q_f32(c.add(i * ldc + 4 * q), *v);
        }
    }
}

/// Safe wrapper; soundness per the module-level contract. The integer probe
/// is the portable one, like the int8 tile it stands beside.
pub(super) fn peak(op: PeakOp, rounds: u64) -> f64 {
    match op {
        // SAFETY: NEON is baseline on aarch64; the probes touch no memory.
        PeakOp::FmaF64 => unsafe { peak_f64(rounds) },
        // SAFETY: as above.
        PeakOp::FmaF32 => unsafe { peak_f32(rounds) },
        PeakOp::MaddI16 => super::filter::peak(op, rounds),
    }
}

// SAFETY contract: NEON is baseline on aarch64; no memory is touched.
#[target_feature(enable = "neon")]
unsafe fn peak_f64(rounds: u64) -> f64 {
    let a = vdupq_n_f64(std::hint::black_box(0.999_999));
    let b = vdupq_n_f64(std::hint::black_box(1e-6));
    let mut acc = [vdupq_n_f64(1.0); super::PEAK_CHAINS as usize];
    for _ in 0..rounds {
        for v in &mut acc {
            *v = vfmaq_f64(b, *v, a);
        }
    }
    let mut sum = vdupq_n_f64(0.0);
    for v in acc {
        sum = vaddq_f64(sum, v);
    }
    vaddvq_f64(sum)
}

// SAFETY contract: NEON is baseline on aarch64; no memory is touched.
#[target_feature(enable = "neon")]
unsafe fn peak_f32(rounds: u64) -> f64 {
    let a = vdupq_n_f32(std::hint::black_box(0.999));
    let b = vdupq_n_f32(std::hint::black_box(1e-3));
    let mut acc = [vdupq_n_f32(1.0); super::PEAK_CHAINS as usize];
    for _ in 0..rounds {
        for v in &mut acc {
            *v = vfmaq_f32(b, *v, a);
        }
    }
    let mut sum = vdupq_n_f32(0.0);
    for v in acc {
        sum = vaddq_f32(sum, v);
    }
    vaddvq_f32(sum) as f64
}

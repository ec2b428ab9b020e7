//! Portable bodies of the threshold filters, the group-maxima slots and the
//! peak probe: the scalar [`super::Kernel`]'s slots, and the lane-arithmetic
//! reference the AVX2 bodies reproduce. Safe code — it lives here to sit
//! beside its twins.
//!
//! Each `next_hit_*` returns the first index `j ≥ from` whose lane is
//! flagged, or the slice length when none is. Each `group_max_*` writes, for
//! each of the first `out.len()` runs of `group` lanes, the largest lane
//! value that is not NaN (`−∞` when there is none), plus `0.0` so a zero
//! maximum is `+0` whichever zero the reduction met first.

use super::{F32Offer, I8Offer, PeakOp, PEAK_CHAINS};

/// `!(hi < t)` — the scalar spelling of the vector compare `NLT_UQ`: true
/// when `hi` reaches `t`, and also when it is NaN (an ordered `>=` would
/// drop that lane before the caller's own rule could see it).
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
pub(super) fn not_below(hi: f64, t: f64) -> bool {
    !(hi < t)
}

pub(super) fn next_hit_f64(scores: &[f64], from: usize, threshold: f64) -> usize {
    let hit = scores[from..].iter().position(|&s| not_below(s, threshold));
    hit.map_or(scores.len(), |j| from + j)
}

/// One lane of the f32 screen filter. `s·0` is `±0` for a finite score and
/// NaN otherwise, so adding it leaves a finite lane's comparison unchanged
/// and turns a non-finite one into a hit.
#[inline(always)]
pub(super) fn hit_f32(s32: f32, item_norm: f64, user: F32Offer, threshold: f64) -> bool {
    let s = s32 as f64;
    let hi = s + user.envelope(item_norm);
    not_below(hi + s * 0.0, threshold)
}

pub(super) fn next_hit_f32(
    scores: &[f32],
    item_norms: &[f64],
    user: F32Offer,
    from: usize,
    threshold: f64,
) -> usize {
    let mut lanes = scores[from..].iter().zip(&item_norms[from..]);
    let hit = lanes.position(|(&s, &norm)| hit_f32(s, norm, user, threshold));
    hit.map_or(scores.len(), |j| from + j)
}

/// One lane of the int8 screen filter.
#[inline(always)]
pub(super) fn hit_i8(d: i32, inv_si: f64, l1: f64, user: I8Offer, threshold: f64) -> bool {
    not_below(user.score(d, inv_si) + user.envelope(inv_si, l1), threshold)
}

pub(super) fn next_hit_i8(
    dots: &[i32],
    item_inv_scales: &[f64],
    item_l1: &[f64],
    user: I8Offer,
    from: usize,
    threshold: f64,
) -> usize {
    let mut lanes = dots[from..]
        .iter()
        .zip(&item_inv_scales[from..])
        .zip(&item_l1[from..]);
    let hit = lanes.position(|((&d, &inv_si), &l1)| hit_i8(d, inv_si, l1, user, threshold));
    hit.map_or(dots.len(), |j| from + j)
}

/// The maximum both group-maxima bodies reduce with: `a` when it is
/// greater, else `b` — `vmaxpd(a, b)`'s rule, so a NaN `a` leaves `b`.
#[inline(always)]
pub(super) fn max_keep(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// The shared frame of the portable group-maxima slots over `len` lanes.
#[inline(always)]
fn group_max(len: usize, group: usize, out: &mut [f64], lane: impl Fn(usize) -> f64) {
    for (g, slot) in out.iter_mut().enumerate() {
        let lanes = g * group..((g + 1) * group).min(len);
        *slot = lanes.fold(f64::NEG_INFINITY, |m, j| max_keep(lane(j), m)) + 0.0;
    }
}

pub(super) fn group_max_f64(scores: &[f64], group: usize, out: &mut [f64]) {
    group_max(scores.len(), group, out, |j| scores[j]);
}

/// One lane's f32 lower bound `ŝ − envelope`, in the operations of the
/// screen's offer rule. Adding `ŝ·0` turns a non-finite score — which
/// carries no bound — into NaN, so it contributes no maximum.
#[inline(always)]
pub(super) fn lo_f32(s32: f32, item_norm: f64, user: F32Offer) -> f64 {
    let s = s32 as f64;
    (s - user.envelope(item_norm)) + s * 0.0
}

pub(super) fn group_max_f32(
    scores: &[f32],
    item_norms: &[f64],
    user: F32Offer,
    group: usize,
    out: &mut [f64],
) {
    group_max(scores.len(), group, out, |j| {
        lo_f32(scores[j], item_norms[j], user)
    });
}

/// One lane's int8 lower bound `ŝ − envelope`.
#[inline(always)]
pub(super) fn lo_i8(d: i32, inv_si: f64, l1: f64, user: I8Offer) -> f64 {
    user.score(d, inv_si) - user.envelope(inv_si, l1)
}

pub(super) fn group_max_i8(
    dots: &[i32],
    item_inv_scales: &[f64],
    item_l1: &[f64],
    user: I8Offer,
    group: usize,
    out: &mut [f64],
) {
    group_max(dots.len(), group, out, |j| {
        lo_i8(dots[j], item_inv_scales[j], item_l1[j], user)
    });
}

/// The scalar peak probe: [`PEAK_CHAINS`] independent one-element chains.
/// The multiplier is just under one so the float chains neither overflow
/// nor denormalize; the integer chains wrap.
pub(super) fn peak(op: PeakOp, rounds: u64) -> f64 {
    const N: usize = PEAK_CHAINS as usize;
    match op {
        PeakOp::FmaF64 => {
            let mut acc = [1.0f64; N];
            let (a, b) = (
                std::hint::black_box(0.999_999f64),
                std::hint::black_box(1e-6f64),
            );
            for _ in 0..rounds {
                for v in &mut acc {
                    *v = v.mul_add(a, b);
                }
            }
            acc.iter().sum()
        }
        PeakOp::FmaF32 => {
            let mut acc = [1.0f32; N];
            let (a, b) = (
                std::hint::black_box(0.999f32),
                std::hint::black_box(1e-3f32),
            );
            for _ in 0..rounds {
                for v in &mut acc {
                    *v = v.mul_add(a, b);
                }
            }
            acc.iter().sum::<f32>() as f64
        }
        PeakOp::MaddI16 => {
            let mut acc = [0i32; N];
            let (a, b) = (std::hint::black_box(3i32), std::hint::black_box(5i32));
            for _ in 0..rounds {
                for v in &mut acc {
                    *v = v.wrapping_mul(a).wrapping_add(b);
                }
            }
            acc.iter().fold(0i32, |s, &v| s.wrapping_add(v)) as f64
        }
    }
}

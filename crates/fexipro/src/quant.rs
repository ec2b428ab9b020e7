//! The integer ("I") stage: quantized upper bounds on inner products.
//!
//! Each vector `x` is mapped to the integer vector `q(x)[j] = ⌈|x_j|·s⌉`
//! with a scale `s` chosen so values fit in the configured bit width. Since
//! every quantized magnitude over-estimates the scaled true magnitude,
//!
//! `Σ q(u)_j q(i)_j / (s_u s_i) ≥ Σ |u_j||i_j| ≥ |u·i| ≥ u·i`
//!
//! — a one-sided bound that is valid for *any* threshold sign, computed
//! entirely in integer arithmetic.
//!
//! The top level is `2^bits − 1`; rounding in `|x|·s` can carry the ceiling
//! one past it, so a code is at most `2^bits` and [`Code`] (`u16`) holds
//! every width up to [`MAX_BITS`].

use crate::config::INT_BITS;
use mips_linalg::Matrix;

/// One quantized magnitude.
pub type Code = u16;

/// The widest quantization whose codes (at most `2^bits`) fit a [`Code`].
pub const MAX_BITS: u32 = Code::BITS - 1;

const _: () = assert!(
    INT_BITS <= MAX_BITS,
    "INT_BITS codes must fit the Code type"
);

/// Quantized items plus their scale.
#[derive(Debug, Clone)]
pub struct QuantizedItems {
    /// `⌈|t_ij|·scale⌉` per item, row-major (`n × f`).
    pub q: Vec<Code>,
    /// Number of coordinates per item.
    pub f: usize,
    /// The shared scale `s_i`.
    pub scale: f64,
}

/// Quantizes all item rows with a shared scale derived from the global
/// maximum absolute coordinate.
///
/// All-zero matrices get `scale = 1` (all quantized values are zero and the
/// bound is exactly 0, which is still an upper bound on |u·i| = 0).
///
/// # Panics
/// Panics if `bits` exceeds [`MAX_BITS`].
pub fn quantize_items(items: &Matrix<f64>, bits: u32) -> QuantizedItems {
    let max_abs = items.as_slice().iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    let scale = scale_for(max_abs, bits);
    QuantizedItems {
        q: items.as_slice().iter().map(|&v| code(v, scale)).collect(),
        f: items.cols(),
        scale,
    }
}

/// Quantizes a single user vector with its own scale.
///
/// # Panics
/// Panics if `bits` exceeds [`MAX_BITS`].
pub fn quantize_user(user: &[f64], bits: u32) -> (Vec<Code>, f64) {
    let mut codes = Vec::new();
    let scale = quantize_user_into(user, bits, &mut codes);
    (codes, scale)
}

/// [`quantize_user`] into the caller's `codes` (cleared first), returning
/// the scale: a query reuses one buffer across its users.
///
/// # Panics
/// Panics if `bits` exceeds [`MAX_BITS`].
pub fn quantize_user_into(user: &[f64], bits: u32, codes: &mut Vec<Code>) -> f64 {
    let max_abs = user.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    let scale = scale_for(max_abs, bits);
    codes.clear();
    codes.extend(user.iter().map(|&v| code(v, scale)));
    scale
}

/// `⌈|v|·scale⌉`: at most `2^bits` for the `scale` of a block holding `v`.
fn code(v: f64, scale: f64) -> Code {
    (v.abs() * scale).ceil() as Code
}

/// Integer dot product of a quantized user against item row `r`, divided by
/// the scales: an upper bound on `|u·i|`. Each product is at most `2^30`,
/// so it is exact in `u32` and the `u64` sum is exact for any realistic `f`.
#[inline]
pub fn int_upper_bound(qu: &[Code], user_scale: f64, items: &QuantizedItems, r: usize) -> f64 {
    let row = &items.q[r * items.f..(r + 1) * items.f];
    debug_assert_eq!(qu.len(), items.f);
    let mut acc: u64 = 0;
    for (&a, &b) in qu.iter().zip(row) {
        acc += u64::from(u32::from(a) * u32::from(b));
    }
    acc as f64 / (user_scale * items.scale)
}

/// Scale mapping the largest magnitude to the top of the bit range.
///
/// Delegates to the shared [`mips_linalg::quant::scale_for`] policy so the
/// FEXIPRO integer stage and the engine's int8 screen tier quantize with the
/// same degenerate-input handling (all-zero blocks get scale 1). A subnormal
/// `max_abs` drives the shared policy's ratio to +∞ — the int8 tier gates on
/// that and falls back to f64, but FEXIPRO has no fallback path, so the
/// scale clamps to 1 here: quantized magnitudes `⌈|x|⌉` (0 or 1) still
/// over-estimate the (tiny) true magnitudes, keeping the bound valid, where
/// an infinite scale would saturate every nonzero code at `Code::MAX`.
fn scale_for(max_abs: f64, bits: u32) -> f64 {
    assert!(
        bits <= MAX_BITS,
        "{bits}-bit codes do not fit the Code type"
    );
    let scale = mips_linalg::quant::scale_for(max_abs, ((1u64 << bits) - 1) as f64);
    if scale.is_finite() {
        scale
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_linalg::kernels::dot;

    fn random_matrix(n: usize, f: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed | 1;
        Matrix::from_fn(n, f, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 6.0 - 3.0
        })
    }

    #[test]
    fn bound_dominates_absolute_dot() {
        let items = random_matrix(50, 9, 3);
        let users = random_matrix(6, 9, 4);
        let qi = quantize_items(&items, 12);
        for u in 0..users.rows() {
            let (qu, su) = quantize_user(users.row(u), 12);
            for r in 0..items.rows() {
                let truth = dot(users.row(u), items.row(r));
                let bound = int_upper_bound(&qu, su, &qi, r);
                assert!(
                    bound >= truth.abs() - 1e-12,
                    "u={u} r={r}: bound {bound} < |{truth}|"
                );
            }
        }
    }

    #[test]
    fn more_bits_give_tighter_bounds() {
        let items = random_matrix(30, 8, 9);
        let user_m = random_matrix(1, 8, 10);
        let user = user_m.row(0);
        let mut prev_total = f64::INFINITY;
        for bits in [4u32, 8, 12, MAX_BITS] {
            let qi = quantize_items(&items, bits);
            let (qu, su) = quantize_user(user, bits);
            let total: f64 = (0..30).map(|r| int_upper_bound(&qu, su, &qi, r)).sum();
            assert!(
                total <= prev_total + 1e-9,
                "bits={bits}: {total} > {prev_total}"
            );
            prev_total = total;
        }
        // At the widest codes the bound should be close to Σ|u_j||i_j|.
        let qi = quantize_items(&items, MAX_BITS);
        let (qu, su) = quantize_user(user, MAX_BITS);
        for r in 0..5 {
            let abs_sum: f64 = user
                .iter()
                .zip(items.row(r))
                .map(|(a, b)| (a * b).abs())
                .sum();
            let bound = int_upper_bound(&qu, su, &qi, r);
            assert!((bound - abs_sum) / (1.0 + abs_sum) < 0.01);
        }
    }

    #[test]
    fn zero_vectors_quantize_cleanly() {
        let items = Matrix::<f64>::zeros(3, 4);
        let qi = quantize_items(&items, 12);
        assert_eq!(qi.scale, 1.0);
        let (qu, su) = quantize_user(&[0.0; 4], 12);
        assert_eq!(int_upper_bound(&qu, su, &qi, 1), 0.0);
    }

    /// [`int_upper_bound`] with every code widened to `u64` first.
    fn u64_reference(qu: &[Code], user_scale: f64, items: &QuantizedItems, r: usize) -> f64 {
        let row = &items.q[r * items.f..(r + 1) * items.f];
        let acc: u64 = qu
            .iter()
            .zip(row)
            .map(|(&a, &b)| u64::from(a) * u64::from(b))
            .sum();
        acc as f64 / (user_scale * items.scale)
    }

    #[test]
    fn subnormal_vectors_clamp_scale_and_keep_the_bound_valid() {
        // A subnormal max_abs drives the shared scale policy to +∞; the
        // FEXIPRO wrapper must clamp to 1 so codes stay 0 or 1 instead of
        // saturating, while the bound stays one-sided.
        let items = Matrix::from_fn(3, 4, |r, c| ((r + c) as f64 + 1.0) * 1.0e-320);
        let qi = quantize_items(&items, INT_BITS);
        assert_eq!(qi.scale, 1.0);
        assert!(qi.q.iter().all(|&q| q <= 1));
        let user = vec![2.0e-320; 4];
        let (qu, su) = quantize_user(&user, INT_BITS);
        assert_eq!(su, 1.0);
        for r in 0..3 {
            let truth = dot(&user, items.row(r));
            let bound = int_upper_bound(&qu, su, &qi, r);
            assert!(bound.is_finite());
            assert!(bound >= truth.abs());
            assert_eq!(bound.to_bits(), u64_reference(&qu, su, &qi, r).to_bits());
        }
    }

    #[test]
    fn codes_at_the_ceiling_match_a_u64_reference() {
        // The top level 2^12 − 1 = 4095 is hit exactly by a magnitude of 1;
        // for some magnitudes `m·(4095/m)` rounds above 4095 and the
        // ceiling carries the code to 4096. At f = 600 the sum of products
        // (≈ 600·2^24) is past `u32::MAX`, so it must accumulate in u64.
        let carried = (1..10_000)
            .map(|i| 1.0 + i as f64 * 1e-4)
            .find(|&m: &f64| (m * (4095.0 / m)).ceil() > 4095.0)
            .expect("some magnitude rounds past the top level");
        let f = 600;
        for (magnitude, top) in [(1.0, 4095), (carried, 4096)] {
            let items = Matrix::from_fn(2, f, |r, _| magnitude / (r + 1) as f64);
            let qi = quantize_items(&items, INT_BITS);
            let (qu, su) = quantize_user(&vec![-magnitude; f], INT_BITS);
            assert_eq!(qi.q.iter().max(), Some(&top), "magnitude {magnitude}");
            assert!(qu.iter().all(|&q| q == top), "magnitude {magnitude}");
            for r in 0..2 {
                let bound = int_upper_bound(&qu, su, &qi, r);
                assert_eq!(bound.to_bits(), u64_reference(&qu, su, &qi, r).to_bits());
                assert!(bound >= dot(&vec![magnitude; f], items.row(r)));
            }
        }
    }
}

//! The offline analytical cost rates (§IV-A, "Offline Performance
//! Profiling for BMM").
//!
//! Dense matrix multiply is compute-bound, so its runtime is well predicted
//! by `FLOPs / sustained FLOP rate`. The paper derives the rate from CPU
//! datasheets \[14\]; lacking a datasheet for arbitrary hosts, we *measure*
//! the sustained rate with a short calibration — same model, same
//! limitation: it predicts only the multiply stage, not the data-dependent
//! top-k selection, which is why OPTIMUS's production path uses online
//! sampling instead (the paper reports the min-heap stage at ≥ 9.5 % of
//! runtime for its largest models).
//!
//! Each rate is a property of the host and of the SIMD kernel set
//! [`mips_linalg::simd::active`] selected, which is fixed for the process
//! lifetime. So each is measured at most once per process, on first use,
//! and then read as a constant by every engine, epoch and shard.
//!
//! * [`tier_flops_per_second`] — every numeric tier's dense scan kernel
//!   (f64, f32, int8), timed the way the scan is served: the packed GEMM
//!   driver streaming score blocks off a B side packed once
//!   ([`gemm_nt_stream_blocks`]). The ratio of two tiers' rates bounds what
//!   a screen variant can gain over its f64 base.
//! * [`sparse_updates_per_second`] — the sparse inverted index's postings
//!   walk, whose gathered accumulator updates sit far below the dense rate.

use crate::sync::OnceLock;
use mips_linalg::{
    gemm_flops, gemm_nt_stream_blocks, GemmElem, GemmScratch, PackedPanels, RowBlock,
};
use mips_topk::ScreenTier;
use std::hint::black_box;
use std::time::Instant;

/// Every dense calibration multiplies `DIM × DIM × DIM`: large enough to
/// exercise the blocked kernel, small enough to finish in milliseconds.
const DIM: usize = 256;

/// Seconds of the fastest of three runs of `work`, after one warm-up: a
/// rate is kept for the process lifetime, so one preempted run must not
/// become the rate.
fn fastest_of_three(mut work: impl FnMut()) -> f64 {
    work();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        work();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best.max(1e-9)
}

/// Seconds for the packed GEMM to multiply `DIM³` in element type `T`
/// against prepacked B panels, as the BMM scan does. `elem` makes the
/// operands from small integers (`[-6, 6]`: exact in every tier).
fn time_gemm<T: GemmElem>(elem: impl Fn(i8) -> T) -> f64 {
    let operand = |mul: usize, modulus: usize| -> Vec<T> {
        let centred = |p: usize| (p * mul % modulus) as i32 - (modulus / 2) as i32;
        (0..DIM * DIM)
            .map(|p| elem(i8::try_from(centred(p)).expect("small moduli centre within i8")))
            .collect()
    };
    let (a, b) = (operand(31, 13), operand(17, 11));
    let a = RowBlock::new(&a, DIM, DIM);
    let b = PackedPanels::pack(RowBlock::new(&b, DIM, DIM));
    let mut scratch = GemmScratch::new();
    fastest_of_three(|| {
        gemm_nt_stream_blocks(a, (&b).into(), &mut scratch, |block, _, _| {
            black_box(block);
        })
    })
}

/// The sustained FLOP rate of `tier`'s dense scan kernel on this host —
/// the f64 GEMM (`None`) or a screen tier's — timed on a `256³` multiply
/// through the packed driver the first time it is asked for and a process
/// constant from then on. Every tier has a rate, which is what lets the
/// planner bound a variant before building it.
pub fn tier_flops_per_second(tier: Option<ScreenTier>) -> f64 {
    static RATES: [OnceLock<f64>; 1 + ScreenTier::ALL.len()] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    *RATES[tier.map_or(0, |t| 1 + t.index())].get_or_init(|| {
        let seconds = match tier {
            None => time_gemm(|v| f64::from(v) * 0.1),
            Some(ScreenTier::F32) => time_gemm(|v| (f64::from(v) * 0.1) as f32),
            Some(ScreenTier::I8) => time_gemm(|v: i8| v),
        };
        gemm_flops(DIM, DIM, DIM) / seconds
    })
}

/// The sustained rate of the sparse inverted index's accumulation loop, in
/// postings updates per second — the postings analog of
/// [`tier_flops_per_second`], measured once per process.
///
/// A postings walk is one fused multiply-add per stored nonzero, but
/// through an index indirection into a scattered accumulator. Calibration
/// times a synthetic term-at-a-time walk with that access pattern: 2¹⁸
/// postings scattered over a 4096-slot accumulator (big enough to defeat
/// the store buffer, small enough to finish in milliseconds). Like the
/// dense rate it covers only the accumulation stage — candidate selection
/// and the exact rescore are data-dependent and left to online sampling.
pub fn sparse_updates_per_second() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        const POSTINGS: usize = 1 << 18;
        const SLOTS: usize = 4096;
        let items: Vec<u32> = (0..POSTINGS)
            .map(|p| ((p * 2654435761) % SLOTS) as u32)
            .collect();
        let values: Vec<f64> = (0..POSTINGS)
            .map(|p| ((p * 31 + 7) % 13) as f64 * 0.1)
            .collect();
        let mut acc = vec![0.0f64; SLOTS];
        let elapsed = fastest_of_three(|| {
            let q = 0.37f64;
            for (&i, &v) in items.iter().zip(&values) {
                let slot = &mut acc[i as usize];
                *slot = q.mul_add(v, *slot);
            }
        });
        // Keep the accumulator alive so the walk cannot be optimized out.
        black_box(acc[0]);
        POSTINGS as f64 / elapsed
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_linalg::{gemm_nt_into, Matrix};

    #[test]
    fn calibration_yields_plausible_rate() {
        // Anything from an emulator to a vector monster, in every tier.
        for tier in std::iter::once(None).chain(ScreenTier::ALL.map(Some)) {
            let rate = tier_flops_per_second(tier);
            assert!(rate > 1e6 && rate < 1e13, "{tier:?}: {rate}");
        }
        // One FMA per update: anywhere from an emulator to a wide core.
        let sparse = sparse_updates_per_second();
        assert!(sparse > 1e5 && sparse < 1e12, "{sparse}");
    }

    #[test]
    fn calibrated_prediction_matches_measurement_on_multiply_stage() {
        // The paper reports ~5 % accuracy for MKL on a fixed testbed; on a
        // shared VM we assert the right order of magnitude (within 4×),
        // which is all OPTIMUS's coarse-grained decision needs.
        let (m, n, k) = (300, 400, 64);
        let a = Matrix::<f64>::from_fn(m, k, |r, c| ((r + c) % 7) as f64 * 0.3);
        let b = Matrix::<f64>::from_fn(n, k, |r, c| ((r * 3 + c) % 5) as f64 * 0.2);
        let mut out = vec![0.0; m * n];
        // Warmup + best-of-three to tame scheduler noise.
        gemm_nt_into((&a).into(), (&b).into(), &mut out);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            gemm_nt_into((&a).into(), (&b).into(), &mut out);
            best = best.min(t.elapsed().as_secs_f64());
        }
        let predicted = gemm_flops(m, n, k) / tier_flops_per_second(None);
        let ratio = predicted / best;
        assert!(
            (0.25..=4.0).contains(&ratio),
            "predicted {predicted}s vs measured {best}s (ratio {ratio})"
        );
    }
}

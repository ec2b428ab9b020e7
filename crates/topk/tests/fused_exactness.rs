//! Property suite: the fused SIMD GEMM→top-k path must be **bit-identical**
//! to the unfused scalar reference — scores and tie-broken id order — and
//! the forced-scalar fallback must run the same suite unchanged.
//!
//! Two layers of comparison:
//!
//! 1. `naive + rows_topk` reference on *exactly representable* inputs
//!    (values quantized to multiples of 1/8 with magnitude ≤ 2): every
//!    product and partial sum is exact in f64, so any accumulation order —
//!    four-lane dot chains, packed micro-kernel chains, SIMD lanes — must
//!    produce the same bits. Quantization also makes score ties frequent,
//!    exercising the deterministic smaller-id tie-break across the fused
//!    threshold shortcut.
//! 2. SIMD-vs-scalar on *unconstrained* random inputs: the dispatched
//!    kernels promise bit-identity with the scalar kernel set (see
//!    `mips_linalg::simd`), so the two fused runs must agree bitwise even
//!    where the naive reference (different accumulation order) legitimately
//!    differs in the last ulp.
//!
//! Shapes deliberately avoid the tile sizes: m, n not multiples of MR=4 /
//! NR=8, f not a multiple of 4, plus k ∈ {0, 1, n} edges and tiny custom
//! block sizes that force partial tiles everywhere.
//!
//! A third layer pins the **threshold floor** a row gets while its heap is
//! filling (k-th largest of ≈ 2k group maxima of the block, on blocks at
//! least 4k wide): shapes where it engages — one block and several, tied
//! corpora whose floor is a tied score, mapped ids whose smaller-id tie
//! arrives after the floor is set, preloaded heaps, ±∞ scores — against a
//! naive sort that shares no code with the filter, the floor or the heap.

use mips_linalg::simd::Kernel;
use mips_linalg::{BlockSizes, CacheConfig, GemmScratch, Matrix};
use mips_topk::fused::{gemm_nt_topk, gemm_nt_topk_with, stream_topk_into_heaps_with};
use mips_topk::{rows_topk, ColumnIds, TopKHeap, TopKList};
use proptest::prelude::*;

fn quantized_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    // Multiples of 1/8 in [-2, 2]: products are multiples of 1/64 with
    // magnitude ≤ 4; sums of ≤ 1000 of them stay exactly representable.
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 40) % 33) as f64 * 0.125 - 2.0
    })
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

/// `rows × cols` values from only `distinct` different rows: every score of
/// a user ties with those of the other copies of an item row.
fn tied_matrix(rows: usize, cols: usize, distinct: usize, seed: u64) -> Matrix<f64> {
    let base = quantized_matrix(distinct, cols, seed);
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, c| {
        if c == 0 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        base.get((state >> 40) as usize % distinct, c)
    })
}

/// The naive reference: each row's `(score, id)` pairs — the exact naive
/// GEMM's scores under `ids`, plus `preload` — sorted best first (higher
/// score, then smaller id) and cut to `k`. It shares no code with the
/// filter, the floor or the heap.
fn naive_reference(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    k: usize,
    ids: &[u32],
    preload: &[(f64, u32)],
) -> Vec<TopKList> {
    let scores = mips_linalg::naive_gemm_nt(a, b);
    scores
        .iter_rows()
        .map(|row| {
            let mut pairs: Vec<(f64, u32)> = row.iter().copied().zip(ids.iter().copied()).collect();
            pairs.extend_from_slice(preload);
            pairs.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
            pairs.truncate(k);
            TopKList {
                items: pairs.iter().map(|p| p.1).collect(),
                scores: pairs.iter().map(|p| p.0).collect(),
            }
        })
        .collect()
}

/// The fused stream into heaps preloaded with `preload`, columns named by
/// `ids` (mapped), under `kern` and `blocks`.
fn streamed(
    kern: &Kernel,
    blocks: &BlockSizes,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    k: usize,
    ids: &[u32],
    preload: &[(f64, u32)],
) -> Vec<TopKList> {
    let mut heaps = vec![TopKHeap::new(k); a.rows()];
    for heap in &mut heaps {
        for &(score, id) in preload {
            heap.push(score, id);
        }
    }
    stream_topk_into_heaps_with(
        kern,
        blocks,
        a.into(),
        b.into(),
        &mut heaps,
        ColumnIds::Mapped(ids),
        &mut GemmScratch::new(),
    );
    heaps.into_iter().map(TopKHeap::into_sorted).collect()
}

/// Bitwise equality of whole result sets (ids and score bits).
fn assert_bit_identical(got: &[TopKList], want: &[TopKList], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: row count");
    for (u, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.items, w.items, "{label}: ids for row {u}");
        assert_eq!(
            g.scores.len(),
            w.scores.len(),
            "{label}: score count for row {u}"
        );
        for (a, b) in g.scores.iter().zip(&w.scores) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: score bits for row {u}: {a:e} vs {b:e}"
            );
        }
    }
}

/// Every kernel set this host can run; scalar is always present, so the
/// whole suite doubles as the forced-scalar-fallback run.
fn kernels_under_test() -> Vec<Kernel> {
    let mut ks = vec![Kernel::scalar()];
    ks.extend(Kernel::avx2());
    ks.extend(Kernel::neon());
    ks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact-arithmetic inputs: fused top-k under every kernel must be
    /// bit-identical to the naive-GEMM + rows_topk reference, for odd
    /// shapes and k covering {0, 1, n} plus interior values.
    #[test]
    fn fused_bit_identical_to_naive_reference(m in 1usize..14,
                                              n in 1usize..40,
                                              f in 1usize..23,
                                              seed in 0u64..1000) {
        // Steer away from tile-friendly shapes: the +1s break multiples of
        // MR/NR/4 half the time, and the strategy ranges cover the rest.
        let a = quantized_matrix(m, f, seed.wrapping_mul(3) + 1);
        let b = quantized_matrix(n, f, seed.wrapping_mul(7) + 2);
        let scores = mips_linalg::naive_gemm_nt(&a, &b);
        let blocks = BlockSizes::for_scalar::<f64>(&CacheConfig::default());
        for k in [0usize, 1, n / 2, n] {
            let want = rows_topk(scores.as_slice(), m, n, k);
            for kern in kernels_under_test() {
                let mut scratch = GemmScratch::new();
                let got = gemm_nt_topk_with(
                    &kern, &blocks, (&a).into(), (&b).into(), k, &mut scratch,
                );
                assert_bit_identical(&got, &want,
                    &format!("{} m={m} n={n} f={f} k={k}", kern.name()));
            }
        }
    }

    /// Unconstrained inputs: the SIMD fused path must match the
    /// forced-scalar fused path bit for bit (the dispatch contract), on
    /// shapes that force partial tiles via tiny custom block sizes.
    #[test]
    fn simd_fused_bit_identical_to_forced_scalar(m in 1usize..11,
                                                 n in 1usize..60,
                                                 f in 1usize..40,
                                                 k in 0usize..12,
                                                 seed in 0u64..1000) {
        let a = random_matrix(m, f, seed + 11);
        let b = random_matrix(n, f, seed + 23);
        // Tiny blocks: many partial MR/NR tiles and several KC passes.
        let blocks = BlockSizes { mc: 4, kc: 5, nc: 16 };
        let mut scratch = GemmScratch::new();
        let want = gemm_nt_topk_with(
            &Kernel::scalar(), &blocks, (&a).into(), (&b).into(), k, &mut scratch,
        );
        for kern in kernels_under_test() {
            let got = gemm_nt_topk_with(
                &kern, &blocks, (&a).into(), (&b).into(), k, &mut scratch,
            );
            assert_bit_identical(&got, &want,
                &format!("{} vs scalar m={m} n={n} f={f} k={k}", kern.name()));
        }
    }

    /// Shapes where the floor engages (n ≥ 4k on blocks of random width):
    /// the fused stream under every kernel equals the naive sort, on
    /// quantized and on heavily tied corpora, with columns in a shuffled
    /// id order.
    #[test]
    fn primed_streams_match_the_naive_sort(m in 1usize..6,
                                           k in 1usize..9,
                                           extra in 0usize..90,
                                           f in 1usize..7,
                                           nc in 1usize..6,
                                           distinct in 1usize..4,
                                           seed in 0u64..1000) {
        let n = 4 * k + extra;
        let a = quantized_matrix(m, f, seed + 3);
        let b = if seed % 2 == 0 {
            quantized_matrix(n, f, seed + 4)
        } else {
            tied_matrix(n, f, distinct, seed + 4)
        };
        // A rotation reversed: column order is never id order.
        let ids: Vec<u32> = (0..n).map(|j| (n - 1 - (j + seed as usize) % n) as u32).collect();
        let blocks = BlockSizes { mc: 4, kc: 5, nc: 8 * nc };
        let want = naive_reference(&a, &b, k, &ids, &[]);
        for kern in kernels_under_test() {
            let got = streamed(&kern, &blocks, &a, &b, k, &ids, &[]);
            assert_bit_identical(&got, &want,
                &format!("{} m={m} n={n} f={f} k={k} nc={}", kern.name(), blocks.nc));
        }
    }

    /// The default-dispatch entry (whatever `MIPS_KERNEL`/detection chose)
    /// agrees with the explicit scalar run on quantized ties.
    #[test]
    fn active_dispatch_matches_scalar_on_ties(m in 1usize..8,
                                              n in 2usize..30,
                                              f in 1usize..9,
                                              k in 1usize..10,
                                              seed in 0u64..500) {
        let a = quantized_matrix(m, f, seed + 5);
        let b = quantized_matrix(n, f, seed + 9);
        let mut scratch = GemmScratch::new();
        let got = gemm_nt_topk((&a).into(), (&b).into(), k, &mut scratch);
        let blocks = BlockSizes::for_scalar::<f64>(&CacheConfig::default());
        let want = gemm_nt_topk_with(
            &Kernel::scalar(), &blocks, (&a).into(), (&b).into(), k, &mut scratch,
        );
        assert_bit_identical(&got, &want, "active vs scalar");
    }
}

/// Deterministic (non-property) spot checks of the exact k edges on shapes
/// that sit just off every tile boundary — kept outside proptest so they
/// always run even with `PROPTEST_CASES=0`.
#[test]
fn odd_shape_k_edges_all_kernels() {
    let blocks = BlockSizes::for_scalar::<f64>(&CacheConfig::default());
    for &(m, n, f) in &[
        (1usize, 1usize, 1usize),
        (5, 9, 3),
        (7, 17, 6),
        (13, 33, 50),
    ] {
        let a = quantized_matrix(m, f, 77);
        let b = quantized_matrix(n, f, 99);
        let scores = mips_linalg::naive_gemm_nt(&a, &b);
        for k in [0usize, 1, n, n + 5] {
            let want = rows_topk(scores.as_slice(), m, n, k);
            for kern in kernels_under_test() {
                let mut scratch = GemmScratch::new();
                let got =
                    gemm_nt_topk_with(&kern, &blocks, (&a).into(), (&b).into(), k, &mut scratch);
                assert_bit_identical(&got, &want, &format!("{} {m}x{n}x{f} k={k}", kern.name()));
            }
        }
    }
}

/// The floor's edges on one block and on several: `k` at the priming
/// boundary of the block width (`w/4` primes, `w/4 + 1` does not), past the
/// catalog, tied corpora whose floor is a tied score, ids in reverse
/// column order (a smaller-id tie arrives after the floor is set), and
/// heaps preloaded the way MAXIMUS preloads them — under every kernel set.
#[test]
fn floor_edges_match_the_naive_sort_under_every_kernel() {
    let whole = BlockSizes::for_scalar::<f64>(&CacheConfig::default());
    let tiny = BlockSizes {
        mc: 4,
        kc: 5,
        nc: 24,
    };
    for (blocks, one_block) in [(whole, true), (tiny, false)] {
        for &(m, n, f) in &[(5usize, 97usize, 6usize), (3, 200, 3)] {
            let width = if one_block { n } else { blocks.nc };
            let a = quantized_matrix(m, f, 31);
            let corpora = [quantized_matrix(n, f, 37), tied_matrix(n, f, 3, 41)];
            let orders = [
                (0..n as u32).collect::<Vec<u32>>(),
                (0..n as u32).rev().collect(),
            ];
            // Preloads tie with column scores (same 1/64 grid) and carry
            // ids past the catalog, as MAXIMUS's walk entries do.
            let preloads: [&[(f64, u32)]; 2] = [&[], &[(0.5, 5000), (0.0, 5001), (-1.25, 5002)]];
            for b in &corpora {
                for ids in &orders {
                    for preload in preloads {
                        for k in [0, 1, width / 4, width / 4 + 1, n, n + 3] {
                            let want = naive_reference(&a, b, k, ids, preload);
                            for kern in kernels_under_test() {
                                let got = streamed(&kern, &blocks, &a, b, k, ids, preload);
                                assert_bit_identical(
                                    &got,
                                    &want,
                                    &format!(
                                        "{} {m}x{n}x{f} nc={} k={k} preload={}",
                                        kern.name(),
                                        blocks.nc,
                                        preload.len()
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// ±∞ scores: a user with a 1e300 factor against items with ±1e300 in the
/// same factor (and zeros there otherwise) scores +∞, −∞ or an exact
/// quantized value — never NaN. Infinite maxima make infinite floors; the
/// heaps must still hold the reference's top-k, smaller ids first among
/// the tied infinities.
#[test]
fn infinite_scores_prime_like_the_naive_sort() {
    let (m, n, f) = (4usize, 120usize, 5usize);
    let mut a = quantized_matrix(m, f, 51);
    let mut b = quantized_matrix(n, f, 53);
    for r in 0..m {
        a.set(r, 0, if r % 2 == 0 { 1e300 } else { 0.0 });
    }
    for r in 0..n {
        b.set(r, 0, [1e300, -1e300, 0.0, 0.0, 0.0][r % 5]);
    }
    let ids: Vec<u32> = (0..n as u32).rev().collect();
    let blocks = BlockSizes {
        mc: 4,
        kc: 3,
        nc: 40,
    };
    for k in [1usize, 5, 10, 23, 24, 25, 30, n] {
        let want = naive_reference(&a, &b, k, &ids, &[]);
        for kern in kernels_under_test() {
            for blocks in [
                blocks,
                BlockSizes::for_scalar::<f64>(&CacheConfig::default()),
            ] {
                let got = streamed(&kern, &blocks, &a, &b, k, &ids, &[]);
                assert_bit_identical(&got, &want, &format!("{} k={k}", kern.name()));
            }
        }
        // The select over a materialized row runs the same rule.
        let scores = mips_linalg::naive_gemm_nt(&a, &b);
        let plain = naive_reference(&a, &b, k, &(0..n as u32).collect::<Vec<_>>(), &[]);
        assert_bit_identical(
            &rows_topk(scores.as_slice(), m, n, k),
            &plain,
            &format!("rows_topk k={k}"),
        );
    }
}

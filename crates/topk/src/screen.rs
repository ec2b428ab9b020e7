//! Mixed-precision screen-then-rescore: a low-precision scan, exact f64
//! top-k.
//!
//! The fused f64 path ([`crate::fused`]) already keeps score panels
//! cache-resident; a **screen tier** ([`ScreenTier`]) shrinks the bytes the
//! scan streams — f32 halves them and doubles the SIMD lanes, int8 cuts them
//! 8× and swaps the FMA pipes for the wider integer multiply-add pipes — at
//! the price of a second (tiny) pass:
//!
//! 1. **Screen** — score every (user, item) pair in the tier's arithmetic
//!    and widen the screen score `ŝ` into `[ŝ − env, ŝ + env]`, where `env`
//!    bounds the tier's total error against the exact score `s` (so `s` is
//!    always inside the interval). A per-user bound heap retains the `k`
//!    largest *lower* bounds; any column whose *upper* bound reaches that
//!    heap's threshold is collected as a candidate.
//! 2. **Rescore** — recompute each surviving candidate's score in f64 with
//!    the GEMM per-element reduction ([`mips_linalg::simd::Kernel::dot_seq4`])
//!    and offer it to the caller's heap.
//!
//! Both tiers run the same frame — the packed GEMM driver
//! ([`mips_linalg::gemm_nt_stream_blocks`]) streams one `MC × NC` block of
//! screen scores at a time, off catalog panels packed once per model when
//! the caller has them, and each row of the block goes through the tier's
//! threshold filter and, for the lanes it flags, the offer rule. A tier is
//! a pack format, a register tile and an **offer expression**:
//!
//! * **f32** multiplies `A₃₂·B₃₂ᵀ`; `env = f32_screen_envelope(f, ‖u‖, ‖i‖)`
//!   bounds the rounding error of the single-precision path
//!   ([`mips_linalg::f32_screen_envelope`]). A score that overflowed to a
//!   non-finite value carries no bound; the filter flags it and the column
//!   is kept unconditionally.
//! * **int8** multiplies the symmetric int8 codes
//!   ([`mips_linalg::quant::quantize_row_i8`]) into exact `i32` dots `D`
//!   and reconstructs `ŝ = D·(1/s_u)·(1/s_i)`; `env = a_u·(1/s_i) + b_u·‖i‖₁`
//!   is the per-pair quantization envelope of
//!   [`mips_linalg::i8_screen_envelope_parts`]. The integer dot is exact
//!   under every accumulation order (guarded by
//!   [`mips_linalg::I8_DOT_MAX_LEN`]), so every kernel set screens with
//!   bit-identical scores and collects the identical candidate set — the
//!   envelope covers quantization only, not kernel-dependent rounding.
//!
//! Everything around the pass — shape checks, bound-heap seeding, the offer
//! rule, the survivor filter, the rescore — exists once and is shared.
//!
//! ## Why no true top-k member can be lost
//!
//! Let `L̂` be the final threshold of a user's bound heap. Each of its `k`
//! retained entries is a lower bound of some column's exact score, so at
//! least `k` columns have exact score `≥ L̂` — hence the true k-th exact
//! score is `≥ L̂`. Every true top-k column `c` has exact score
//! `s_c ≥ kth ≥ L̂`, and its upper bound `ŝ_c + env ≥ s_c ≥ L̂`, so `c` was
//! collected (thresholds only grow during the scan, so the test it faced
//! was no stricter than `L̂`) and survives the final `hi ≥ L̂` filter. Ties
//! (`s_c` equal to the k-th score, decided by the smaller-id rule) are
//! safe for the same reason: the comparison uses `≥`, never `>`.
//!
//! Entries already present in the caller's heaps are treated as exact
//! scores from a previous phase: they seed the bound heap (an exact score
//! is its own lower bound), so the screen is exactly as selective as the
//! f64 path would have been with the same preloaded state.
//!
//! Because every reported score comes from the f64 rescore — with the same
//! reduction order as the pure-f64 GEMM path — a screened scan's results
//! are **bit-identical** to f64-direct: same scores, same ids, same
//! tie-breaks. The `precision_identity` suites in `mips-core` assert this
//! end to end.
//!
//! ## Point screens
//!
//! Index walks (MAXIMUS's list walk, LEMP's bucket scans) visit one item at
//! a time and only need a yes/no: *can this item still reach the heap
//! threshold?* [`ItemMirror`] holds a gathered item block in a tier's
//! storage and [`UserScreen`] one user's side of it;
//! [`UserScreen::upper_bound`] returns the envelope-widened screen score,
//! and the walk skips the exact dot when even that sits below its
//! threshold.

use crate::fused::ColumnIds;
use crate::heap::TopKHeap;
use mips_linalg::kernels::dot;
use mips_linalg::simd::{self, F32Offer, I8Offer, Kernel};
use mips_linalg::{
    dot_i8, gemm_nt_stream_blocks_with, quantize_row_i8, BlockSizes, GemmB, GemmElem, GemmScratch,
    Matrix, PackedPanels, RowBlock, I8_DOT_MAX_LEN,
};
use std::ops::Range;

/// A numeric tier the scan phase can screen in before the exact f64
/// rescore. Everything above this module takes the tier as a value or
/// loops [`ScreenTier::ALL`]; only the two screen passes, [`ItemMirror`]
/// and [`UserScreen`] branch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScreenTier {
    /// Single precision with a rounding envelope.
    F32,
    /// Symmetric per-row int8 codes with a quantization envelope.
    I8,
}

impl ScreenTier {
    /// Every tier, in the order planners compete them and metrics render
    /// them.
    pub const ALL: [ScreenTier; 2] = [ScreenTier::F32, ScreenTier::I8];

    /// Stable short name (`"f32"`, `"i8"`): the `/metrics` lane names.
    pub const fn name(self) -> &'static str {
        match self {
            ScreenTier::F32 => "f32",
            ScreenTier::I8 => "i8",
        }
    }

    /// What a screened variant appends to its base's display name and
    /// backend key (`"+f32"`, `"+i8"`).
    pub const fn suffix(self) -> &'static str {
        match self {
            ScreenTier::F32 => "+f32",
            ScreenTier::I8 => "+i8",
        }
    }

    /// Position in [`ScreenTier::ALL`], for per-tier arrays.
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// The borrowed user side of a block screen, row-aligned with the f64 user
/// block; the variant selects the tier. Borrowed straight from
/// `mips_data::Mirror32` / `mips_data::MirrorI8`, or from a caller's
/// gathered copy of their rows.
#[derive(Debug, Clone, Copy)]
pub enum ScreenUsers<'a> {
    /// The f32 tier.
    F32 {
        /// The rounded user rows.
        rows: RowBlock<'a, f32>,
        /// **Exact** (f64) Euclidean norm of each original row — the
        /// envelope is only valid against the true vectors.
        norms: &'a [f64],
    },
    /// The int8 tier. Every scale and L1 norm must be finite (the mirror's
    /// usability flag is the caller's precondition).
    I8 {
        /// Row-major int8 codes, `rows × f`.
        codes: &'a [i8],
        /// Per-row quantization scale `s_u` (codes = round(value · s_u)).
        scales: &'a [f64],
        /// Per-row exact (f64) L1 norm of the *original* row.
        l1: &'a [f64],
    },
}

impl<'a> ScreenUsers<'a> {
    /// The sub-block of rows `range` — how a caller walks one borrowed
    /// user side in batches.
    pub fn rows(self, range: Range<usize>) -> ScreenUsers<'a> {
        match self {
            ScreenUsers::F32 { rows, norms } => {
                let f = rows.cols();
                ScreenUsers::F32 {
                    rows: RowBlock::new(
                        &rows.as_slice()[range.start * f..range.end * f],
                        range.len(),
                        f,
                    ),
                    norms: &norms[range],
                }
            }
            ScreenUsers::I8 { codes, scales, l1 } => {
                let f = codes.len().checked_div(scales.len()).unwrap_or(0);
                ScreenUsers::I8 {
                    codes: &codes[range.start * f..range.end * f],
                    scales: &scales[range.clone()],
                    l1: &l1[range],
                }
            }
        }
    }
}

/// The borrowed item side of a block screen, row-aligned with the f64 item
/// block; the variant selects the tier. Borrowed straight from
/// `mips_data::Mirror32` / `mips_data::MirrorI8`. `panels`, when present,
/// are the same rows packed once for the GEMM driver (the mirrors cache
/// them per model); the block screen then packs nothing on the item side.
#[derive(Debug, Clone, Copy)]
pub enum ScreenItems<'a> {
    /// The f32 tier.
    F32 {
        /// The rounded item rows.
        rows: RowBlock<'a, f32>,
        /// `rows`, prepacked.
        panels: Option<&'a PackedPanels<f32>>,
        /// **Exact** (f64) Euclidean norm of each original row — the
        /// envelope is only valid against the true vectors.
        norms: &'a [f64],
    },
    /// The int8 tier. Every inverse scale and L1 norm must be finite (the
    /// mirror's usability flag is the caller's precondition).
    I8 {
        /// Row-major int8 codes, `rows × f`.
        codes: &'a [i8],
        /// `codes`, prepacked.
        panels: Option<&'a PackedPanels<i8>>,
        /// Per-row inverse quantization scale `1/s_i` — every screened
        /// score and envelope multiplies by it; the forward scale is never
        /// needed at scan time.
        inv_scales: &'a [f64],
        /// Per-row exact (f64) L1 norm of the *original* row.
        l1: &'a [f64],
    },
}

/// Reusable buffers for [`screen_topk_into_heaps_with`]: the per-user bound
/// heaps and candidate lists, plus each pass's GEMM scratch. Own one per
/// query loop / worker thread, like [`GemmScratch`].
#[derive(Debug, Default)]
pub struct ScreenScratch {
    gemm32: GemmScratch<f32>,
    gemm_i8: GemmScratch<i8>,
    bound_heaps: Vec<TopKHeap>,
    candidates: Vec<Vec<(u32, f64)>>,
}

impl ScreenScratch {
    /// Empty scratch; buffers are sized lazily on first use.
    pub fn new() -> ScreenScratch {
        ScreenScratch::default()
    }
}

/// Counters describing how selective one screen pass was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Scores screened in the tier's arithmetic (`rows × cols`).
    pub screened: u64,
    /// Candidates surviving to the exact rescore.
    pub rescored: u64,
}

fn column_id(ids: ColumnIds<'_>, col: usize) -> u32 {
    match ids {
        ColumnIds::Offset(off) => off + col as u32,
        ColumnIds::Mapped(map) => map[col],
    }
}

/// One user's side of the shared frame while a pass streams scores at it:
/// the bound heap, the candidate list, and the heap threshold cached
/// between pushes. For every lane its tier's filter flags at that
/// threshold, a pass calls [`RowOffers::offer`] (finite score) or
/// [`RowOffers::keep`] (no score).
struct RowOffers<'a> {
    ids: ColumnIds<'a>,
    bounds: &'a mut TopKHeap,
    candidates: &'a mut Vec<(u32, f64)>,
    threshold: f64,
}

impl<'a> RowOffers<'a> {
    fn new(
        ids: ColumnIds<'a>,
        bounds: &'a mut TopKHeap,
        candidates: &'a mut Vec<(u32, f64)>,
    ) -> RowOffers<'a> {
        let threshold = bounds.threshold();
        RowOffers {
            ids,
            bounds,
            candidates,
            threshold,
        }
    }

    /// The offer rule for a **finite** screen score: collect `col` when its
    /// upper bound `score + env` reaches the threshold, and raise the
    /// threshold with its lower bound.
    fn offer(&mut self, col: usize, score: f64, env: f64) {
        let hi = score + env;
        if hi >= self.threshold {
            self.candidates.push((col as u32, hi));
            self.bounds.push(score - env, column_id(self.ids, col));
            self.threshold = self.bounds.threshold();
        }
    }

    /// The offer rule for a column whose screen score is not finite (an
    /// f32 product overflowed): no score, no bound — keep the column
    /// unconditionally (k = 0 heaps have threshold +∞ and correctly collect
    /// nothing).
    fn keep(&mut self, col: usize) {
        if self.threshold < f64::INFINITY {
            self.candidates.push((col as u32, f64::INFINITY));
        }
    }
}

/// Screens `A·Bᵀ` in the tier of `users`/`items` and streams exact f64
/// rescored survivors into caller-owned heaps — same contract and output as
/// [`crate::fused::stream_topk_into_heaps`], different execution.
///
/// `users` and `items` must mirror `a64` and `b64` row for row, in the same
/// tier.
///
/// # Panics
/// Panics if `heaps.len() != a.rows()`, if either side disagrees with its
/// f64 block on shape or with the other side on tier, or if a mapped id
/// slice is shorter than `b.rows()`.
pub fn screen_topk_into_heaps(
    a64: RowBlock<'_, f64>,
    b64: RowBlock<'_, f64>,
    users: ScreenUsers<'_>,
    items: ScreenItems<'_>,
    heaps: &mut [TopKHeap],
    ids: ColumnIds<'_>,
    scratch: &mut ScreenScratch,
) -> ScreenStats {
    screen_topk_into_heaps_with(
        simd::active(),
        None,
        a64,
        b64,
        users,
        items,
        heaps,
        ids,
        scratch,
    )
}

/// [`screen_topk_into_heaps`] with explicit kernel set and blocking
/// parameters (`None`: the tier's default) — the forced-scalar test entry.
#[allow(clippy::too_many_arguments)]
pub fn screen_topk_into_heaps_with(
    kern: &Kernel,
    blocks: Option<&BlockSizes>,
    a64: RowBlock<'_, f64>,
    b64: RowBlock<'_, f64>,
    users: ScreenUsers<'_>,
    items: ScreenItems<'_>,
    heaps: &mut [TopKHeap],
    ids: ColumnIds<'_>,
    scratch: &mut ScreenScratch,
) -> ScreenStats {
    let (m, n, f) = (a64.rows(), b64.rows(), a64.cols());
    assert_eq!(heaps.len(), m, "screen_topk: one heap per query row");
    match users {
        ScreenUsers::F32 { rows, norms } => {
            assert_eq!(rows.rows(), m, "screen_topk: mirror row count mismatch");
            assert_eq!(rows.cols(), f, "screen_topk: mirror width mismatch");
            assert_eq!(norms.len(), m, "screen_topk: one norm per query row");
        }
        ScreenUsers::I8 { codes, scales, l1 } => {
            assert_eq!(codes.len(), m * f, "screen_topk: user code shape");
            assert_eq!(scales.len(), m, "screen_topk: one scale per query");
            assert_eq!(l1.len(), m, "screen_topk: one L1 per query");
        }
    }
    match items {
        ScreenItems::F32 { rows, norms, .. } => {
            assert_eq!(rows.rows(), n, "screen_topk: mirror item count mismatch");
            assert_eq!(rows.cols(), f, "screen_topk: mirror width mismatch");
            assert_eq!(norms.len(), n, "screen_topk: one norm per item row");
        }
        ScreenItems::I8 {
            codes,
            inv_scales,
            l1,
            ..
        } => {
            assert_eq!(codes.len(), n * f, "screen_topk: item code shape");
            assert_eq!(
                inv_scales.len(),
                n,
                "screen_topk: one inverse scale per item"
            );
            assert_eq!(l1.len(), n, "screen_topk: one L1 per item");
        }
    }
    if let ColumnIds::Mapped(map) = ids {
        assert!(
            map.len() >= n,
            "screen_topk: id map shorter than item count"
        );
    }

    // Per-row bound heaps: capacity k, seeded with the caller's existing
    // (exact) entries — see the module docs.
    let ScreenScratch {
        gemm32,
        gemm_i8,
        bound_heaps,
        candidates,
    } = scratch;
    bound_heaps.resize_with(m, || TopKHeap::new(0));
    candidates.resize_with(m, Vec::new);
    for ((heap, bounds), list) in heaps.iter().zip(&mut *bound_heaps).zip(&mut *candidates) {
        bounds.reset(heap.capacity());
        for e in heap.entries() {
            bounds.push(e.score, e.id);
        }
        list.clear();
    }

    // Screen pass: the tier's multiply, block by block; each row of a block
    // goes through the tier's filter, flagged lanes through the offer rule.
    match (users, items) {
        (
            ScreenUsers::F32 {
                rows: a32,
                norms: a_norms,
            },
            ScreenItems::F32 {
                rows: b32,
                panels,
                norms: b_norms,
            },
        ) => {
            let b = panels.map_or(GemmB::Rows(b32), GemmB::Packed);
            let blocks = blocks.unwrap_or(&f32::BLOCKS);
            gemm_nt_stream_blocks_with(kern, a32, b, blocks, gemm32, |block, rows, cols| {
                let norms = &b_norms[cols.clone()];
                for (scores, i) in block.chunks_exact(cols.len()).zip(rows) {
                    let mut row = RowOffers::new(ids, &mut bound_heaps[i], &mut candidates[i]);
                    let user = F32Offer::for_user(f, a_norms[i]);
                    let mut from = 0;
                    while let Some(j) = kern.next_hit_f32(scores, norms, user, from, row.threshold)
                    {
                        let (col, s32) = (cols.start + j, scores[j]);
                        if s32.is_finite() {
                            row.offer(col, s32 as f64, user.envelope(norms[j]));
                        } else {
                            row.keep(col);
                        }
                        from = j + 1;
                    }
                }
            });
        }
        (
            ScreenUsers::I8 {
                codes: a_codes,
                scales,
                l1: a_l1,
            },
            ScreenItems::I8 {
                codes: b_codes,
                panels,
                inv_scales,
                l1: b_l1,
            },
        ) => {
            let a = RowBlock::new(a_codes, m, f);
            let b = panels.map_or(GemmB::Rows(RowBlock::new(b_codes, n, f)), GemmB::Packed);
            let blocks = blocks.unwrap_or(&i8::BLOCKS);
            gemm_nt_stream_blocks_with(kern, a, b, blocks, gemm_i8, |block, rows, cols| {
                let (inv_si, l1) = (&inv_scales[cols.clone()], &b_l1[cols.clone()]);
                for (dots, i) in block.chunks_exact(cols.len()).zip(rows) {
                    let mut row = RowOffers::new(ids, &mut bound_heaps[i], &mut candidates[i]);
                    let user = I8Offer::for_user(f, scales[i], a_l1[i]);
                    let mut from = 0;
                    while let Some(j) =
                        kern.next_hit_i8(dots, inv_si, l1, user, from, row.threshold)
                    {
                        let score = user.score(dots[j], inv_si[j]);
                        row.offer(cols.start + j, score, user.envelope(inv_si[j], l1[j]));
                        from = j + 1;
                    }
                }
            });
        }
        _ => panic!("screen_topk: user and item sides are of different tiers"),
    }

    // Rescore pass: exact f64, GEMM per-element reduction, groups of four
    // so the sequential chains pipeline.
    let mut rescored = 0u64;
    for (i, heap) in heaps.iter_mut().enumerate() {
        let final_threshold = bound_heaps[i].threshold();
        let survivors = candidates[i]
            .iter()
            .filter(|&&(_, hi)| hi >= final_threshold);
        let urow = a64.row(i);
        let mut group = [0usize; 4];
        let mut filled = 0usize;
        let flush = |cols: &[usize], heap: &mut TopKHeap| {
            let pad = cols[cols.len() - 1];
            let pick = |q: usize| b64.row(*cols.get(q).unwrap_or(&pad));
            let scores = kern.dot_seq4(urow, [pick(0), pick(1), pick(2), pick(3)]);
            for (q, &col) in cols.iter().enumerate() {
                heap.push(scores[q], column_id(ids, col));
            }
        };
        for &(col, _) in survivors {
            group[filled] = col as usize;
            filled += 1;
            rescored += 1;
            if filled == 4 {
                flush(&group, heap);
                filled = 0;
            }
        }
        if filled > 0 {
            flush(&group[..filled], heap);
        }
    }

    ScreenStats {
        screened: (m * n) as u64,
        rescored,
    }
}

/// A gathered item block in one tier's storage — the item side of a
/// [`UserScreen`], row-aligned with the f64 block it was built from (a
/// MAXIMUS cluster list, a LEMP bucket).
#[derive(Debug, Clone)]
pub struct ItemMirror {
    rows: MirrorRows,
}

#[derive(Debug, Clone)]
enum MirrorRows {
    F32(Matrix<f32>),
    I8 {
        /// Row-major codes, `n × f`.
        codes: Vec<i8>,
        /// `1 / s_i` per row.
        inv_scales: Vec<f64>,
        /// Exact L1 norm per row.
        l1: Vec<f64>,
    },
}

impl ItemMirror {
    /// Mirrors `items` in `tier`. `None` when the tier cannot represent
    /// the block: int8 quantization degenerates (a row's scale or L1 norm
    /// is non-finite — subnormal magnitudes) or the factor count exceeds
    /// the integer kernels' overflow cap ([`I8_DOT_MAX_LEN`]). The f32
    /// mirror always builds; a row that overflowed the f32 range screens
    /// to a non-finite score, which never prunes.
    pub fn build(items: &Matrix<f64>, tier: ScreenTier) -> Option<ItemMirror> {
        let rows = match tier {
            ScreenTier::F32 => MirrorRows::F32(items.cast()),
            ScreenTier::I8 => {
                let (n, f) = (items.rows(), items.cols());
                if f > I8_DOT_MAX_LEN {
                    return None;
                }
                let mut codes = vec![0i8; n * f];
                let mut inv_scales = Vec::with_capacity(n);
                let mut l1 = Vec::with_capacity(n);
                for (r, row) in items.iter_rows().enumerate() {
                    let (scale, row_l1) = quantize_row_i8(row, &mut codes[r * f..(r + 1) * f]);
                    if !(scale.is_finite() && row_l1.is_finite()) {
                        return None;
                    }
                    inv_scales.push(1.0 / scale);
                    l1.push(row_l1);
                }
                MirrorRows::I8 {
                    codes,
                    inv_scales,
                    l1,
                }
            }
        };
        Some(ItemMirror { rows })
    }

    /// Mirrors rows `ids` of a catalog that is already mirrored: gathers
    /// them, in the order given, out of `items` (the item side of a
    /// model-shared mirror). Each row's scale, norm and codes travel with
    /// it, so nothing is rounded or quantized a second time and the result
    /// equals [`ItemMirror::build`] over the same rows of the f64 catalog.
    ///
    /// # Panics
    /// Panics if an id is out of range for `items`.
    pub fn gather(items: ScreenItems<'_>, ids: &[u32]) -> ItemMirror {
        let pick = |values: &[f64]| ids.iter().map(|&i| values[i as usize]).collect();
        let rows = match items {
            ScreenItems::F32 { rows, .. } => {
                let mut data = Vec::with_capacity(ids.len() * rows.cols());
                for &i in ids {
                    data.extend_from_slice(rows.row(i as usize));
                }
                let gathered = Matrix::from_vec(ids.len(), rows.cols(), data);
                MirrorRows::F32(gathered.expect("rows × cols values"))
            }
            ScreenItems::I8 {
                codes,
                inv_scales,
                l1,
                ..
            } => {
                let f = codes.len().checked_div(inv_scales.len()).unwrap_or(0);
                let mut gathered = Vec::with_capacity(ids.len() * f);
                for &i in ids {
                    gathered.extend_from_slice(&codes[i as usize * f..(i as usize + 1) * f]);
                }
                MirrorRows::I8 {
                    codes: gathered,
                    inv_scales: pick(inv_scales),
                    l1: pick(l1),
                }
            }
        };
        ItemMirror { rows }
    }

    /// The tier this mirror stores.
    pub fn tier(&self) -> ScreenTier {
        match self.rows {
            MirrorRows::F32(_) => ScreenTier::F32,
            MirrorRows::I8 { .. } => ScreenTier::I8,
        }
    }
}

/// One user's side of a point screen: the user row in a tier's storage
/// plus the envelope coefficients that depend only on the user.
#[derive(Debug, Clone)]
pub struct UserScreen {
    side: UserSide,
}

#[derive(Debug, Clone)]
enum UserSide {
    F32 { row: Vec<f32>, offer: F32Offer },
    I8 { codes: Vec<i8>, offer: I8Offer },
}

impl UserScreen {
    /// Prepares `user` (with exact norm `norm`) for screening in `tier`.
    /// `None` when the user row has no usable representation — int8
    /// quantization degenerates (non-finite scale or L1); the caller then
    /// walks unscreened: still exact, just unaccelerated.
    pub fn arm(user: &[f64], norm: f64, tier: ScreenTier) -> Option<UserScreen> {
        let side = match tier {
            ScreenTier::F32 => UserSide::F32 {
                row: user.iter().map(|&v| v as f32).collect(),
                offer: F32Offer::for_user(user.len(), norm),
            },
            ScreenTier::I8 => {
                let mut codes = vec![0i8; user.len()];
                let (su, ul1) = quantize_row_i8(user, &mut codes);
                if !(su.is_finite() && ul1.is_finite()) {
                    return None;
                }
                let offer = I8Offer::for_user(user.len(), su, ul1);
                UserSide::I8 { codes, offer }
            }
        };
        Some(UserScreen { side })
    }

    /// An upper bound on the exact score of this user against row `row` of
    /// `items` (whose exact Euclidean norm is `item_norm`): the screen
    /// score widened by the tier's envelope. When it sits strictly below a
    /// full heap's threshold the exact score does too, so the exact dot
    /// *and* its guaranteed-rejected push can be skipped with the heap
    /// trajectory — and therefore the results — bit-identical.
    ///
    /// `+∞` (never prunes) when the f32 screen score overflowed, or when
    /// `items` stores a different tier than this user was armed for.
    #[inline]
    pub fn upper_bound(&self, items: &ItemMirror, row: usize, item_norm: f64) -> f64 {
        match (&self.side, &items.rows) {
            (UserSide::F32 { row: user32, offer }, MirrorRows::F32(items32)) => {
                let s32 = dot(user32.as_slice(), items32.row(row)) as f64;
                if s32.is_finite() {
                    s32 + offer.envelope(item_norm)
                } else {
                    f64::INFINITY
                }
            }
            (
                UserSide::I8 {
                    codes: ucodes,
                    offer,
                },
                MirrorRows::I8 {
                    codes,
                    inv_scales,
                    l1,
                },
            ) => {
                let f = ucodes.len();
                let d = dot_i8(ucodes, &codes[row * f..(row + 1) * f]);
                offer.score(d, inv_scales[row]) + offer.envelope(inv_scales[row], l1[row])
            }
            _ => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{gemm_nt_topk, stream_topk_into_heaps};
    use crate::list::TopKList;
    use mips_linalg::kernels::norm2;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn row_norms(m: &Matrix<f64>) -> Vec<f64> {
        m.iter_rows().map(norm2).collect()
    }

    /// One matrix in a tier's storage, viewable as either side of a block
    /// screen.
    struct Mirrored {
        mirror: ItemMirror,
        norms: Vec<f64>,
        /// Forward int8 scales (the user side wants `s`, the mirror keeps
        /// `1/s`).
        scales: Vec<f64>,
    }

    fn mirrored(m: &Matrix<f64>, tier: ScreenTier) -> Mirrored {
        let mirror = ItemMirror::build(m, tier).expect("test matrices mirror usably");
        assert_eq!(mirror.tier(), tier);
        let mut codes = vec![0i8; m.cols()];
        Mirrored {
            mirror,
            norms: row_norms(m),
            scales: m
                .iter_rows()
                .map(|row| quantize_row_i8(row, &mut codes).0)
                .collect(),
        }
    }

    impl Mirrored {
        fn users(&self) -> ScreenUsers<'_> {
            match &self.mirror.rows {
                MirrorRows::F32(rows) => ScreenUsers::F32 {
                    rows: rows.into(),
                    norms: &self.norms,
                },
                MirrorRows::I8 { codes, l1, .. } => ScreenUsers::I8 {
                    codes,
                    scales: &self.scales,
                    l1,
                },
            }
        }

        fn items(&self) -> ScreenItems<'_> {
            match &self.mirror.rows {
                MirrorRows::F32(rows) => ScreenItems::F32 {
                    rows: rows.into(),
                    panels: None,
                    norms: &self.norms,
                },
                MirrorRows::I8 {
                    codes,
                    inv_scales,
                    l1,
                } => ScreenItems::I8 {
                    codes,
                    panels: None,
                    inv_scales,
                    l1,
                },
            }
        }
    }

    fn screen_into(
        tier: ScreenTier,
        a: &Matrix<f64>,
        b: &Matrix<f64>,
        heaps: &mut [TopKHeap],
        ids: ColumnIds<'_>,
    ) -> ScreenStats {
        screen_topk_into_heaps(
            a.into(),
            b.into(),
            mirrored(a, tier).users(),
            mirrored(b, tier).items(),
            heaps,
            ids,
            &mut ScreenScratch::new(),
        )
    }

    fn screen_all(
        tier: ScreenTier,
        a: &Matrix<f64>,
        b: &Matrix<f64>,
        k: usize,
        ids: ColumnIds<'_>,
    ) -> (Vec<TopKHeap>, ScreenStats) {
        let mut heaps: Vec<TopKHeap> = (0..a.rows()).map(|_| TopKHeap::new(k)).collect();
        let stats = screen_into(tier, a, b, &mut heaps, ids);
        (heaps, stats)
    }

    fn assert_bit_identical(
        tier: ScreenTier,
        heaps: Vec<TopKHeap>,
        a: &Matrix<f64>,
        b: &Matrix<f64>,
        k: usize,
    ) {
        let want = gemm_nt_topk(a.into(), b.into(), k, &mut GemmScratch::new());
        assert_eq!(heaps.len(), want.len());
        for (heap, w) in heaps.into_iter().zip(&want) {
            let g = heap.into_sorted();
            assert_eq!(g.items, w.items, "{tier:?} k={k}");
            for (gs, ws) in g.scores.iter().zip(&w.scores) {
                assert_eq!(gs.to_bits(), ws.to_bits(), "{tier:?} k={k}");
            }
        }
    }

    #[test]
    fn tier_names_and_indices_follow_all() {
        for (i, tier) in ScreenTier::ALL.into_iter().enumerate() {
            assert_eq!(tier.index(), i);
            assert_eq!(tier.suffix(), format!("+{}", tier.name()));
        }
    }

    #[test]
    fn screen_is_bit_identical_to_f64_direct() {
        for tier in ScreenTier::ALL {
            for &(m, n, f, k) in &[
                (1usize, 1usize, 1usize, 1usize),
                (3, 17, 7, 4),
                (9, 50, 12, 5),
                (33, 70, 31, 10),
                (5, 301, 6, 3),       // ragged against every tile shape
                (5, 4096 + 13, 6, 3), // crosses an NC panel boundary in both tiers
                (70, 40, 51, 3),      // more than one MC block; odd depth pads an int8 pair
            ] {
                let a = random_matrix(m, f, 100 + m as u64);
                let b = random_matrix(n, f, 200 + n as u64);
                let (heaps, stats) = screen_all(tier, &a, &b, k, ColumnIds::Offset(0));
                let kept = heaps.iter().map(|h| h.len() as u64).max().unwrap_or(0);
                assert_bit_identical(tier, heaps, &a, &b, k);
                assert_eq!(stats.screened, (m * n) as u64);
                assert!(stats.rescored >= kept);
                // The screen must actually save exact dots once the
                // catalog dwarfs k.
                if n >= 300 {
                    assert!(stats.rescored < stats.screened / 2, "{tier:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn adversarial_magnitudes_and_near_ties_stay_exact() {
        // Items that differ by less than any plausible screen resolution:
        // the screen cannot tell them apart, so it must rescore enough of
        // them for the exact comparison (and the id tie-break) to decide.
        let f = 24usize;
        let mut a = random_matrix(3, f, 5);
        // Amplify so absolute score gaps sit near the f32 ulp.
        for v in a.as_mut_slice() {
            *v *= 100.0;
        }
        let base = random_matrix(1, f, 7);
        let n = 40usize;
        // Tiny per-row perturbation, far below f32 resolution at this
        // magnitude; several rows are exact duplicates (r / 4).
        let near_ties = Matrix::from_fn(n, f, |r, c| base.get(0, c) + ((r / 4) as f64) * 1e-13);
        // One item with a huge outlier coordinate: its other int8 codes
        // collapse toward zero, maximizing quantization error (coarse
        // codes, wide envelopes, heavy rescoring).
        let mut outlier = near_ties.clone();
        outlier.set(n - 1, 0, 1e6);
        for tier in ScreenTier::ALL {
            for b in [&near_ties, &outlier] {
                let (heaps, _) = screen_all(tier, &a, b, 5, ColumnIds::Offset(0));
                assert_bit_identical(tier, heaps, &a, b, 5);
            }
        }
    }

    #[test]
    fn all_zero_rows_screen_cleanly() {
        // Zero users and zero items quantize to scale 1 / all-zero codes
        // (and round to exact zeros); every bound degenerates to exactly 0
        // and the rescore still reproduces the f64 ordering (ids break the
        // ties).
        let a = Matrix::<f64>::zeros(2, 6);
        let mut b = random_matrix(9, 6, 3);
        for c in 0..6 {
            b.set(4, c, 0.0);
        }
        for tier in ScreenTier::ALL {
            let (heaps, _) = screen_all(tier, &a, &b, 3, ColumnIds::Offset(0));
            assert_bit_identical(tier, heaps, &a, &b, 3);
        }
    }

    #[test]
    fn preloaded_heaps_match_the_f64_path_with_the_same_preload() {
        let a = random_matrix(2, 9, 31);
        let b = random_matrix(25, 9, 32);
        let preload = [(2.5f64, 900u32), (0.1, 901), (-3.0, 902)];
        for tier in ScreenTier::ALL {
            let mut screened: Vec<TopKHeap> = (0..2).map(|_| TopKHeap::new(4)).collect();
            let mut direct: Vec<TopKHeap> = (0..2).map(|_| TopKHeap::new(4)).collect();
            for heap in screened.iter_mut().chain(direct.iter_mut()) {
                for &(s, id) in &preload {
                    heap.push(s, id);
                }
            }
            screen_into(tier, &a, &b, &mut screened, ColumnIds::Offset(0));
            stream_topk_into_heaps(
                (&a).into(),
                (&b).into(),
                &mut direct,
                ColumnIds::Offset(0),
                &mut GemmScratch::new(),
            );
            for (s, d) in screened.into_iter().zip(direct) {
                let (s, d) = (s.into_sorted(), d.into_sorted());
                assert_eq!(s.items, d.items, "{tier:?}");
                for (gs, ws) in s.scores.iter().zip(&d.scores) {
                    assert_eq!(gs.to_bits(), ws.to_bits(), "{tier:?}");
                }
            }
        }
    }

    #[test]
    fn mapped_ids_and_k_edges() {
        let a = random_matrix(2, 5, 7);
        let b = random_matrix(4, 5, 8);
        let map = [40u32, 30, 20, 10];
        let plain = gemm_nt_topk((&a).into(), (&b).into(), 2, &mut GemmScratch::new());
        for tier in ScreenTier::ALL {
            let (heaps, _) = screen_all(tier, &a, &b, 2, ColumnIds::Mapped(&map));
            for (heap, want) in heaps.into_iter().zip(&plain) {
                let got = heap.into_sorted();
                let translated: Vec<u32> = want.items.iter().map(|&j| map[j as usize]).collect();
                assert_eq!(got.items, translated);
                assert_eq!(got.scores, want.scores);
            }

            // k = 0 collects nothing and rescores nothing.
            let (heaps, stats) = screen_all(tier, &a, &b, 0, ColumnIds::Offset(0));
            assert!(heaps.iter().all(TopKHeap::is_empty));
            assert_eq!(stats.rescored, 0);

            // k ≥ n keeps everything.
            let (heaps, stats) = screen_all(tier, &a, &b, 10, ColumnIds::Offset(0));
            assert!(heaps.iter().all(|h| h.len() == 4));
            assert_eq!(stats.rescored, 8);
        }
    }

    #[test]
    fn i8_candidate_sets_are_identical_across_kernel_sets() {
        // Stronger than the f32 screen can promise: the integer screen
        // scores are kernel-invariant, so even the *intermediate* candidate
        // counts agree between the dispatched and scalar kernels.
        let a = random_matrix(4, 19, 41);
        let b = random_matrix(60, 19, 42);
        let (users, items) = (mirrored(&a, ScreenTier::I8), mirrored(&b, ScreenTier::I8));
        let mut kernels = vec![Kernel::scalar()];
        kernels.extend(Kernel::avx2());
        kernels.extend(Kernel::neon());
        let mut counts = Vec::new();
        for kern in &kernels {
            let mut heaps: Vec<TopKHeap> = (0..4).map(|_| TopKHeap::new(6)).collect();
            let stats = screen_topk_into_heaps_with(
                kern,
                None,
                (&a).into(),
                (&b).into(),
                users.users(),
                items.items(),
                &mut heaps,
                ColumnIds::Offset(0),
                &mut ScreenScratch::new(),
            );
            counts.push(stats.rescored);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn prepacked_item_panels_screen_like_the_rows_under_tiny_blocks_too() {
        // Same candidates, same survivors, same heaps — whether the item
        // side arrives as rows or as panels packed once, and however the
        // multiply is blocked (tiny blocks force partial tiles, several
        // depth passes and several row blocks per panel).
        let a = random_matrix(11, 23, 51);
        let b = random_matrix(75, 23, 52);
        let tiny = BlockSizes {
            mc: 8,
            kc: 6,
            nc: 32,
        };
        for tier in ScreenTier::ALL {
            let (users, items) = (mirrored(&a, tier), mirrored(&b, tier));
            let (panels32, panels8);
            let packed = match items.items() {
                ScreenItems::F32 { rows, norms, .. } => {
                    panels32 = PackedPanels::pack(rows);
                    ScreenItems::F32 {
                        rows,
                        panels: Some(&panels32),
                        norms,
                    }
                }
                ScreenItems::I8 {
                    codes,
                    inv_scales,
                    l1,
                    ..
                } => {
                    panels8 = PackedPanels::pack(RowBlock::new(codes, 75, 23));
                    ScreenItems::I8 {
                        codes,
                        panels: Some(&panels8),
                        inv_scales,
                        l1,
                    }
                }
            };
            let run = |items: ScreenItems<'_>, blocks: Option<&BlockSizes>| {
                let mut heaps: Vec<TopKHeap> = (0..11).map(|_| TopKHeap::new(5)).collect();
                let stats = screen_topk_into_heaps_with(
                    simd::active(),
                    blocks,
                    (&a).into(),
                    (&b).into(),
                    users.users(),
                    items,
                    &mut heaps,
                    ColumnIds::Offset(0),
                    &mut ScreenScratch::new(),
                );
                let lists: Vec<TopKList> = heaps.into_iter().map(TopKHeap::into_sorted).collect();
                (stats, lists)
            };
            let want = run(items.items(), None);
            assert_eq!(run(packed, None), want, "{tier:?} prepacked");
            assert_eq!(
                run(items.items(), Some(&tiny)).1,
                want.1,
                "{tier:?} tiny blocks"
            );
            let direct = gemm_nt_topk((&a).into(), (&b).into(), 5, &mut GemmScratch::new());
            assert_eq!(want.1, direct, "{tier:?} vs f64-direct");
        }
    }

    #[test]
    fn non_finite_f32_scores_are_kept_and_rescored_under_every_kernel() {
        // Magnitudes whose f32 products overflow: the screen sees +∞, −∞
        // and NaN (∞ − ∞) scores, which carry no bound — the filter must
        // flag those lanes and the frame keep them, under the SIMD and the
        // scalar filter alike, with tying scores and mapped ids in play.
        let f = 6usize;
        let a = Matrix::from_fn(4, f, |r, c| [1.0e20, -1.0e20, 3.0, -2.0][(r + c) % 4]);
        let b = Matrix::from_fn(37, f, |r, c| match r % 5 {
            0 => [1.0e20, 1.0e20, -1.0e20][c % 3],
            1 => 1.0e19,
            _ => ((r * 7 + c * 3) % 5) as f64 - 2.0,
        });
        let map: Vec<u32> = (0..37u32).rev().collect();
        let (users, items) = (mirrored(&a, ScreenTier::F32), mirrored(&b, ScreenTier::F32));
        let mut kernels = vec![Kernel::scalar()];
        kernels.extend(Kernel::avx2());
        kernels.extend(Kernel::neon());
        for k in [0usize, 1, 6, 37] {
            let mut want: Vec<TopKHeap> = (0..4).map(|_| TopKHeap::new(k)).collect();
            stream_topk_into_heaps(
                (&a).into(),
                (&b).into(),
                &mut want,
                ColumnIds::Mapped(&map),
                &mut GemmScratch::new(),
            );
            let want: Vec<TopKList> = want.into_iter().map(TopKHeap::into_sorted).collect();
            for kern in &kernels {
                let mut heaps: Vec<TopKHeap> = (0..4).map(|_| TopKHeap::new(k)).collect();
                let stats = screen_topk_into_heaps_with(
                    kern,
                    None,
                    (&a).into(),
                    (&b).into(),
                    users.users(),
                    items.items(),
                    &mut heaps,
                    ColumnIds::Mapped(&map),
                    &mut ScreenScratch::new(),
                );
                let got: Vec<TopKList> = heaps.into_iter().map(TopKHeap::into_sorted).collect();
                assert_eq!(got, want, "{} k={k}", kern.name());
                // Overflowed columns cannot be pruned once there is a heap
                // to fill.
                assert!(k == 0 || stats.rescored >= 4 * 8, "{} k={k}", kern.name());
                assert!(k > 0 || stats.rescored == 0);
            }
        }
    }

    #[test]
    fn a_recycled_scratch_screens_like_a_fresh_one() {
        // The bound heaps and candidate lists are reset, not reallocated,
        // between batches — at a different k and row count each time.
        let a = random_matrix(6, 9, 61);
        let b = random_matrix(50, 9, 62);
        for tier in ScreenTier::ALL {
            let (users, items) = (mirrored(&a, tier), mirrored(&b, tier));
            let mut scratch = ScreenScratch::new();
            for (rows, k) in [(6usize, 4usize), (2, 9), (5, 0), (6, 1)] {
                let mut heaps: Vec<TopKHeap> = (0..rows).map(|_| TopKHeap::new(k)).collect();
                screen_topk_into_heaps(
                    a.row_block(0, rows),
                    (&b).into(),
                    users.users().rows(0..rows),
                    items.items(),
                    &mut heaps,
                    ColumnIds::Offset(0),
                    &mut scratch,
                );
                let want = gemm_nt_topk(
                    a.row_block(0, rows),
                    (&b).into(),
                    k,
                    &mut GemmScratch::new(),
                );
                let got: Vec<TopKList> = heaps.into_iter().map(TopKHeap::into_sorted).collect();
                assert_eq!(got, want, "{tier:?} rows {rows} k {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one heap per query row")]
    fn rejects_mismatched_heap_count() {
        let a = random_matrix(3, 4, 1);
        let b = random_matrix(2, 4, 2);
        screen_into(
            ScreenTier::F32,
            &a,
            &b,
            &mut vec![TopKHeap::new(1); 2],
            ColumnIds::Offset(0),
        );
    }

    #[test]
    #[should_panic(expected = "one norm per item row")]
    fn rejects_short_norms() {
        let a = random_matrix(1, 4, 1);
        let b = random_matrix(3, 4, 2);
        let b32: Matrix<f32> = b.cast();
        screen_topk_into_heaps(
            (&a).into(),
            (&b).into(),
            mirrored(&a, ScreenTier::F32).users(),
            ScreenItems::F32 {
                rows: (&b32).into(),
                panels: None,
                norms: &[1.0],
            },
            &mut [TopKHeap::new(1)],
            ColumnIds::Offset(0),
            &mut ScreenScratch::new(),
        );
    }

    #[test]
    #[should_panic(expected = "one inverse scale per item")]
    fn rejects_short_inverse_scales() {
        let a = random_matrix(1, 4, 1);
        let b = random_matrix(3, 4, 2);
        screen_topk_into_heaps(
            (&a).into(),
            (&b).into(),
            mirrored(&a, ScreenTier::I8).users(),
            ScreenItems::I8 {
                codes: &[0; 12],
                panels: None,
                inv_scales: &[1.0; 2],
                l1: &[1.0; 3],
            },
            &mut [TopKHeap::new(1)],
            ColumnIds::Offset(0),
            &mut ScreenScratch::new(),
        );
    }

    #[test]
    #[should_panic(expected = "different tiers")]
    fn rejects_sides_of_different_tiers() {
        let a = random_matrix(2, 4, 1);
        let b = random_matrix(3, 4, 2);
        screen_topk_into_heaps(
            (&a).into(),
            (&b).into(),
            mirrored(&a, ScreenTier::F32).users(),
            mirrored(&b, ScreenTier::I8).items(),
            &mut [TopKHeap::new(1), TopKHeap::new(1)],
            ColumnIds::Offset(0),
            &mut ScreenScratch::new(),
        );
    }

    #[test]
    fn user_sub_blocks_screen_like_the_rows_they_cover() {
        let a = random_matrix(7, 9, 5);
        let b = random_matrix(40, 9, 6);
        for tier in ScreenTier::ALL {
            let (users, items) = (mirrored(&a, tier), mirrored(&b, tier));
            let mut heaps: Vec<TopKHeap> = (0..3).map(|_| TopKHeap::new(4)).collect();
            screen_topk_into_heaps(
                a.row_block(2, 5),
                (&b).into(),
                users.users().rows(2..5),
                items.items(),
                &mut heaps,
                ColumnIds::Offset(0),
                &mut ScreenScratch::new(),
            );
            let want = gemm_nt_topk(a.row_block(2, 5), (&b).into(), 4, &mut GemmScratch::new());
            for (heap, w) in heaps.into_iter().zip(&want) {
                assert_eq!(&heap.into_sorted(), w, "{tier:?}");
            }
        }
    }

    #[test]
    fn item_mirrors_store_the_shared_rounding_and_quantization_policy() {
        let items = Matrix::from_rows(&[
            vec![3.0, 4.0],
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![6.0, 8.0],
            vec![0.0, 0.0],
        ])
        .unwrap();
        let Some(ItemMirror {
            rows: MirrorRows::F32(rows32),
        }) = ItemMirror::build(&items, ScreenTier::F32)
        else {
            panic!("f32 mirror always builds");
        };
        assert_eq!((rows32.rows(), rows32.cols()), (5, 2));
        for r in 0..5 {
            for c in 0..2 {
                assert_eq!(rows32.get(r, c), items.get(r, c) as f32);
            }
        }
        let Some(ItemMirror {
            rows:
                MirrorRows::I8 {
                    codes,
                    inv_scales,
                    l1,
                },
        }) = ItemMirror::build(&items, ScreenTier::I8)
        else {
            panic!("finite rows quantize usably");
        };
        assert_eq!(codes.len(), 10);
        for (r, row) in items.iter_rows().enumerate() {
            let max_abs = row.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
            let scale = mips_linalg::scale_for(max_abs, mips_linalg::I8_QUANT_LEVEL);
            assert!((inv_scales[r] - 1.0 / scale).abs() <= f64::EPSILON * inv_scales[r].abs());
            for (c, &v) in row.iter().enumerate() {
                let want = (v * scale).round().clamp(-127.0, 127.0) as i8;
                assert_eq!(codes[r * 2 + c], want, "row {r} col {c}");
            }
            assert_eq!(l1[r], row.iter().map(|v| v.abs()).sum::<f64>());
        }
    }

    #[test]
    fn gathered_mirrors_equal_mirrors_built_over_the_gathered_rows() {
        let catalog = random_matrix(30, 11, 21);
        let ids = [7u32, 0, 29, 7, 13];
        let picked = catalog.gather_rows(&ids.map(|i| i as usize));
        let norms = row_norms(&picked);
        let user = random_matrix(1, 11, 22);
        for tier in ScreenTier::ALL {
            let gathered = ItemMirror::gather(mirrored(&catalog, tier).items(), &ids);
            let built = ItemMirror::build(&picked, tier).unwrap();
            assert_eq!(gathered.tier(), tier);
            let screen = UserScreen::arm(user.row(0), norm2(user.row(0)), tier).unwrap();
            for (r, &norm) in norms.iter().enumerate() {
                assert_eq!(
                    screen.upper_bound(&gathered, r, norm).to_bits(),
                    screen.upper_bound(&built, r, norm).to_bits(),
                    "{tier:?} row {r}"
                );
            }
        }
    }

    #[test]
    fn i8_mirror_and_user_refuse_subnormal_rows() {
        let items = Matrix::from_rows(&[vec![1.0e-320, 0.0], vec![1.0, 2.0]]).unwrap();
        assert!(ItemMirror::build(&items, ScreenTier::I8).is_none());
        assert!(ItemMirror::build(&items, ScreenTier::F32).is_some());
        let user = [1.0e-320; 6];
        assert!(UserScreen::arm(&user, norm2(&user), ScreenTier::I8).is_none());
        assert!(UserScreen::arm(&user, norm2(&user), ScreenTier::F32).is_some());
    }

    #[test]
    fn point_screen_upper_bounds_dominate_the_exact_scores() {
        let items = random_matrix(80, 12, 3);
        let users = random_matrix(5, 12, 4);
        let norms = row_norms(&items);
        for tier in ScreenTier::ALL {
            let mirror = ItemMirror::build(&items, tier).unwrap();
            let other = ScreenTier::ALL[(tier.index() + 1) % ScreenTier::ALL.len()];
            let mismatched = ItemMirror::build(&items, other).unwrap();
            let mut tightest = f64::INFINITY;
            for user in users.iter_rows() {
                let screen = UserScreen::arm(user, norm2(user), tier).unwrap();
                for (r, item) in items.iter_rows().enumerate() {
                    let exact = dot(user, item);
                    let ub = screen.upper_bound(&mirror, r, norms[r]);
                    assert!(ub >= exact, "{tier:?} row {r}: {ub} < {exact}");
                    tightest = tightest.min(ub - exact);
                    // A mirror of another tier carries no bound.
                    assert_eq!(screen.upper_bound(&mismatched, r, norms[r]), f64::INFINITY);
                }
            }
            assert!(tightest.is_finite(), "{tier:?} never produced a bound");
        }
        // An f32-overflowed item row screens to +∞ instead of pruning.
        let huge = Matrix::from_rows(&[vec![1.0e300, 1.0]]).unwrap();
        let mirror = ItemMirror::build(&huge, ScreenTier::F32).unwrap();
        let screen = UserScreen::arm(&[1.0, 1.0], 2f64.sqrt(), ScreenTier::F32).unwrap();
        assert_eq!(screen.upper_bound(&mirror, 0, 1.0e300), f64::INFINITY);
    }
}

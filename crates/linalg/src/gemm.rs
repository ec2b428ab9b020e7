//! Blocked matrix multiply: the "BMM" in the paper — and the one scan
//! engine of every numeric tier.
//!
//! Computes `C = A·Bᵀ` for row-major `A (m×k)` and `B (n×k)` — exactly the
//! MIPS rating computation `R = U·Iᵀ` — using the Goto/BLIS decomposition:
//!
//! 1. the **NC loop** slices B into column panels, packed over the whole
//!    depth — per call, or **once per model** ([`PackedPanels`]),
//! 2. the **MC loop** takes a block of A's rows against the panel,
//! 3. the **KC loop** slices the shared dimension so the packed A block and
//!    one B micro-panel fit their caches,
//! 4. the **macro-kernel** walks `MR × NR` register tiles,
//! 5. the **micro-kernel** ([`Tile`]) runs the depth with all `MR × NR`
//!    accumulators held in registers and stores them straight into C.
//!
//! Packing rewrites both operands into tile-interleaved layout so the
//! micro-kernel reads purely sequential memory. This is the "advanced data
//! layout and blocking to maximize cache utilization" (§II-B) that gives
//! brute force its constant-factor edge over index traversal.
//!
//! The driver is generic over [`GemmElem`]: `f64` (the exact path), `f32`
//! and `i8` (the screen tiers of `mips-topk`) differ only in pack format
//! and tile. A depth pass after the first loads the C tile as its initial
//! accumulators, so for `f64` every output element is **one** sequential
//! FMA chain over the depth whatever the blocking — what
//! [`crate::kernels::dot_gemm_ordered`] reproduces — and for `i8` the
//! `i32` sums are exact.
//!
//! [`naive_gemm_nt`] is the same computation as a double loop of `dot` calls
//! — the paper's "naïve inner products" strawman — kept as the reference
//! the packed driver is tested against.

use crate::blocking::{BlockSizes, CacheConfig};
use crate::kernels::{dot, FmaFloat};
use crate::matrix::{Matrix, RowBlock};
use crate::simd::{self, Kernel};
use std::fmt::Debug;
use std::ops::Range;

/// Number of floating-point operations in one `m × n × k` multiply.
///
/// Used by OPTIMUS's analytical (offline) BMM cost model, §IV-A.
#[inline]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// A micro-kernel slot: `C ← [C +] Aᵖ·Bᵖᵀ` for one `MR × NR` register tile
/// over the packed depth. `c[i·ldc + j]` is tile element `(i, j)`; the
/// accumulators start in registers — zeroed, or loaded from `c` when
/// `accumulate` — and are stored straight back to `c`.
///
/// Every slot checks its own slice lengths (`(MR − 1)·ldc + NR ≤ c.len()`,
/// panels of equal depth), so the pointer is safe to call with anything.
pub type Tile<P, C> = fn(a_panel: &[P], b_panel: &[P], c: &mut [C], ldc: usize, accumulate: bool);

/// An element type of the packed driver: the three things a numeric tier
/// brings to the multiply — its **pack format** ([`GemmElem::Panel`],
/// [`GemmElem::KGROUP`]), its **register tile** ([`GemmElem::MR`] ×
/// [`GemmElem::NR`], [`GemmElem::tile`]) and the accumulator it produces.
///
/// * `f64` — 4×8 tile; each `C` element is one sequential FMA chain over
///   the depth, whatever the blocking (the bit-identity contract of
///   [`crate::simd`]).
/// * `f32` — 4×16 tile (tolerance contract).
/// * `i8` — codes widen to `i16` and pack in depth **pairs**, so one
///   `vpmaddwd` multiplies a broadcast pair of A by sixteen packed B values
///   into eight exact `i32` sums; 4×16 tile, exact `i32` output under every
///   kernel and blocking (depth ≤ [`crate::quant::I8_DOT_MAX_LEN`]).
pub trait GemmElem: Copy + Debug + Send + Sync + 'static {
    /// The element packed panels hold.
    type Panel: Copy + Default + Debug + Send + Sync + 'static;
    /// The element of `C`.
    type Acc: Copy + Default + Debug + Send + Sync + 'static;
    /// Tile height (rows of A per register tile).
    const MR: usize;
    /// Tile width (rows of B / columns of C per register tile).
    const NR: usize;
    /// Consecutive depth steps stored together per row in a packed panel
    /// (odd depths are zero-padded to a whole group).
    const KGROUP: usize;
    /// Blocking for the default cache geometry — what every entry point
    /// without an explicit [`BlockSizes`] uses, evaluated at compile time.
    const BLOCKS: BlockSizes = BlockSizes::for_tile(
        &CacheConfig::PAPER,
        std::mem::size_of::<Self::Panel>(),
        Self::MR,
        Self::NR,
    );
    /// One element in its packed form.
    fn to_panel(self) -> Self::Panel;
    /// This type's slot in `kern` — resolved once per multiply, not per tile.
    fn tile(kern: &Kernel) -> Tile<Self::Panel, Self::Acc>;
}

impl GemmElem for f64 {
    type Panel = f64;
    type Acc = f64;
    const MR: usize = 4;
    const NR: usize = 8;
    const KGROUP: usize = 1;
    #[inline(always)]
    fn to_panel(self) -> f64 {
        self
    }
    fn tile(kern: &Kernel) -> Tile<f64, f64> {
        kern.tile_f64()
    }
}

impl GemmElem for f32 {
    type Panel = f32;
    type Acc = f32;
    const MR: usize = 4;
    const NR: usize = 16;
    const KGROUP: usize = 1;
    #[inline(always)]
    fn to_panel(self) -> f32 {
        self
    }
    fn tile(kern: &Kernel) -> Tile<f32, f32> {
        kern.tile_f32()
    }
}

impl GemmElem for i8 {
    type Panel = i16;
    type Acc = i32;
    const MR: usize = 4;
    const NR: usize = 16;
    const KGROUP: usize = 2;
    #[inline(always)]
    fn to_panel(self) -> i16 {
        i16::from(self)
    }
    fn tile(kern: &Kernel) -> Tile<i16, i32> {
        kern.tile_i8()
    }
}

/// The largest `MR × NR` of any [`GemmElem`]: the stack buffer an edge tile
/// is computed into before its valid corner is copied out.
const MAX_TILE: usize = 64;

/// `depth` rounded up to whole packed groups of `T`.
fn padded_depth<T: GemmElem>(depth: usize) -> usize {
    depth.div_ceil(T::KGROUP) * T::KGROUP
}

/// Packs rows `row(0)..row(nrows)`, depth window `pc..pc + kcb`, into
/// `width`-interleaved panels at the start of `out`: panel `q` holds rows
/// `q·width..`, and within it depth group `d` of row `r` sits at
/// `(d·width + r)·KGROUP`. Missing rows of the last panel and the missing
/// half of an odd last pair are zero. Returns the packed length.
///
/// # Panics
/// Panics unless `width` is 4, 8 or 16 (every `MR` and `NR`).
fn pack_block<'a, T: GemmElem>(
    row: impl Fn(usize) -> &'a [T],
    nrows: usize,
    pc: usize,
    kcb: usize,
    width: usize,
    out: &mut [T::Panel],
) -> usize {
    match width {
        4 => pack_panels::<T, 4>(row, nrows, pc, kcb, out),
        8 => pack_panels::<T, 8>(row, nrows, pc, kcb, out),
        16 => pack_panels::<T, 16>(row, nrows, pc, kcb, out),
        _ => panic!("pack_block: no panel {width} rows wide"),
    }
}

/// [`pack_block`] at width `W`. A whole panel is written in order, one
/// depth group of its `W` rows after another, so the stores run
/// sequentially while the rows are read as `W` streams. Kept out of line:
/// inlined into the driver, it cost serve-burst's one-user screened calls
/// about 2 % of their throughput (72.0–72.2 k against 73.4–73.7 k
/// answers/s, medians of 4 seeds each, a 2-vCPU x86-64 guest).
#[inline(never)]
fn pack_panels<'a, T: GemmElem, const W: usize>(
    row: impl Fn(usize) -> &'a [T],
    nrows: usize,
    pc: usize,
    kcb: usize,
    out: &mut [T::Panel],
) -> usize {
    let g = T::KGROUP;
    let whole = kcb / g;
    let panel_len = padded_depth::<T>(kcb) * W;
    let len = nrows.div_ceil(W) * panel_len;
    let out = &mut out[..len];
    for (q, panel) in out.chunks_exact_mut(panel_len).enumerate() {
        let live = W.min(nrows - q * W);
        if live < W || whole * g < kcb {
            panel.fill(T::Panel::default());
        }
        // A whole panel's whole groups: `W` fixed-length streams.
        let from = if live == W {
            let src: [&[T]; W] = std::array::from_fn(|r| &row(q * W + r)[pc..pc + whole * g]);
            for d in 0..whole {
                let step = &mut panel[d * W * g..(d + 1) * W * g];
                for r in 0..W {
                    for e in 0..g {
                        step[r * g + e] = src[r][d * g + e].to_panel();
                    }
                }
            }
            whole
        } else {
            0
        };
        // The rest, row by row: every row of the ragged last panel, or the
        // half pair an odd depth leaves.
        if from * g < kcb {
            for r in 0..live {
                let src = &row(q * W + r)[pc + from * g..pc + kcb];
                for (d, group) in src.chunks(g).enumerate() {
                    let at = ((from + d) * W + r) * g;
                    for (slot, &v) in panel[at..at + g].iter_mut().zip(group) {
                        *slot = v.to_panel();
                    }
                }
            }
        }
    }
    len
}

/// Length of the full-depth packing of `rows × depth` under depth blocks of
/// `kc` (every block but the last is `kc` deep and `kc` is a whole number
/// of groups, so only the last block pads).
fn packed_len<T: GemmElem>(rows: usize, depth: usize, kc: usize) -> usize {
    let full = depth / kc * kc;
    rows.div_ceil(T::NR) * T::NR * (full + padded_depth::<T>(depth - full))
}

/// Packs rows `row(0)..row(nrows)`, each `depth` wide, over the **whole**
/// depth, one [`pack_block`] per `kc` depth block, into `out` (resized to
/// fit).
fn pack_full_depth<'a, T: GemmElem>(
    row: impl Fn(usize) -> &'a [T],
    nrows: usize,
    depth: usize,
    kc: usize,
    out: &mut Vec<T::Panel>,
) {
    out.resize(packed_len::<T>(nrows, depth, kc), T::Panel::default());
    let mut at = 0;
    for pc in (0..depth).step_by(kc) {
        at += pack_block(&row, nrows, pc, kc.min(depth - pc), T::NR, &mut out[at..]);
    }
}

/// A catalog side packed **once**: every row of a B operand in the
/// driver's `NR`-interleaved panel format over the whole depth, so a
/// multiply against it packs nothing on the B side. Build one per model
/// (`mips_data` caches them beside the mirrors) and pass it wherever a
/// [`GemmB`] is taken; results are bit-identical to passing the rows.
#[derive(Debug, Clone)]
pub struct PackedPanels<T: GemmElem> {
    data: Vec<T::Panel>,
    rows: usize,
    depth: usize,
    kc: usize,
}

impl<T: GemmElem> PackedPanels<T> {
    /// Packs every row of `b` under the default blocking's depth block.
    pub fn pack(b: RowBlock<'_, T>) -> PackedPanels<T> {
        PackedPanels::pack_rows(|r| b.row(r), b.rows(), b.cols())
    }

    /// Packs rows `ids` of `b`, in that order: the panels [`PackedPanels::pack`]
    /// makes of their gathered copy, read straight from `b` without one.
    ///
    /// # Panics
    /// Panics if an id is out of range.
    pub fn gather(b: RowBlock<'_, T>, ids: &[u32]) -> PackedPanels<T> {
        assert!(
            ids.iter().all(|&id| (id as usize) < b.rows()),
            "PackedPanels::gather: id out of range"
        );
        PackedPanels::pack_rows(|r| b.row(ids[r] as usize), ids.len(), b.cols())
    }

    fn pack_rows<'a>(row: impl Fn(usize) -> &'a [T], rows: usize, depth: usize) -> Self {
        let kc = T::BLOCKS.kc;
        let mut data = Vec::new();
        pack_full_depth(row, rows, depth, kc, &mut data);
        PackedPanels {
            data,
            rows,
            depth,
            kc,
        }
    }

    /// Rows of the packed operand.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Width (shared dimension) of the packed operand.
    pub fn cols(&self) -> usize {
        self.depth
    }

    /// Heap bytes the panels hold: their buffer's capacity.
    pub fn resident_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<T::Panel>()
    }

    /// Rows `range` of the packed operand, borrowed: a multiply against
    /// the view reads these panels and packs nothing.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or does not start on a panel
    /// boundary (a multiple of [`GemmElem::NR`]).
    pub fn slice(&self, range: Range<usize>) -> PanelView<'_, T> {
        PanelView::from(self).slice(range)
    }
}

/// A run of consecutive rows of [`PackedPanels`], starting on a panel
/// boundary: how a caller multiplies one stretch of a packed operand (a
/// MAXIMUS list part) without repacking it. The last panel may hold
/// rows past the view; the driver computes them into its edge buffer and
/// never hands them out.
#[derive(Debug, Clone, Copy)]
pub struct PanelView<'a, T: GemmElem> {
    panels: &'a PackedPanels<T>,
    /// First packed row of the view, a multiple of `NR`.
    start: usize,
    rows: usize,
}

impl<'a, T: GemmElem> PanelView<'a, T> {
    /// Rows of the view.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Width (shared dimension) of the packed operand.
    pub fn cols(&self) -> usize {
        self.panels.depth
    }

    /// Rows `range` of this view.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or does not start on a panel
    /// boundary (a multiple of [`GemmElem::NR`]).
    pub fn slice(self, range: Range<usize>) -> PanelView<'a, T> {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "panel view out of range"
        );
        assert_eq!(range.start % T::NR, 0, "panel view off a panel boundary");
        PanelView {
            panels: self.panels,
            start: self.start + range.start,
            rows: range.len(),
        }
    }
}

impl<'a, T: GemmElem> From<&'a PackedPanels<T>> for PanelView<'a, T> {
    fn from(panels: &'a PackedPanels<T>) -> Self {
        PanelView {
            panels,
            start: 0,
            rows: panels.rows,
        }
    }
}

/// The B side of a multiply: borrowed rows or rows picked by id, packed
/// per call, or panels packed once ([`PackedPanels`], or a run of their
/// rows).
#[derive(Debug, Clone, Copy)]
pub enum GemmB<'a, T: GemmElem> {
    /// Row-major rows (the explicit-blocking test entries, one-off
    /// multiplies).
    Rows(RowBlock<'a, T>),
    /// Rows `ids` of a row block, in that order: row `j` of B is
    /// `rows.row(ids[j])`. Each `NC` column panel is packed straight from
    /// the picked rows into the multiply's scratch, so no gathered copy and
    /// no panel outlives the call; the scores are those of multiplying
    /// [`PackedPanels::gather`] of the same ids.
    Gathered(RowBlock<'a, T>, &'a [u32]),
    /// Prepacked panels. Their depth block overrides the caller's `kc`.
    Packed(PanelView<'a, T>),
}

impl<T: GemmElem> GemmB<'_, T> {
    /// Rows of B (columns of C).
    pub fn rows(&self) -> usize {
        match self {
            GemmB::Rows(b) => b.rows(),
            GemmB::Gathered(_, ids) => ids.len(),
            GemmB::Packed(p) => p.rows,
        }
    }

    /// Width of B (the shared dimension).
    pub fn cols(&self) -> usize {
        match self {
            GemmB::Rows(b) | GemmB::Gathered(b, _) => b.cols(),
            GemmB::Packed(p) => p.cols(),
        }
    }
}

impl<'a, T: GemmElem> From<RowBlock<'a, T>> for GemmB<'a, T> {
    fn from(rows: RowBlock<'a, T>) -> Self {
        GemmB::Rows(rows)
    }
}

impl<'a, T: GemmElem> From<&'a Matrix<T>> for GemmB<'a, T> {
    fn from(m: &'a Matrix<T>) -> Self {
        GemmB::Rows(m.into())
    }
}

impl<'a, T: GemmElem> From<&'a PackedPanels<T>> for GemmB<'a, T> {
    fn from(panels: &'a PackedPanels<T>) -> Self {
        GemmB::Packed(panels.into())
    }
}

impl<'a, T: GemmElem> From<PanelView<'a, T>> for GemmB<'a, T> {
    fn from(view: PanelView<'a, T>) -> Self {
        GemmB::Packed(view)
    }
}

/// `C = A·Bᵀ` into a freshly allocated matrix.
///
/// # Panics
/// Panics if `a.cols() != b.cols()`.
pub fn gemm_nt(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    gemm_nt_into(a.into(), b.into(), c.as_mut_slice());
    c
}

/// `C = A·Bᵀ` into a caller-provided row-major buffer of length `m·n`.
///
/// Both operands are zero-copy row views, which lets a caller multiply
/// user batches and per-cluster user blocks without copying. `c` is fully overwritten.
///
/// # Panics
/// Panics if the operand widths differ or `c` has the wrong length.
pub fn gemm_nt_into<T: GemmElem>(a: RowBlock<'_, T>, b: RowBlock<'_, T>, c: &mut [T::Acc]) {
    gemm_nt_blocked(a, b, c, &T::BLOCKS)
}

/// `C = A·Bᵀ` with explicit blocking parameters (exposed for the blocking
/// ablation bench; [`gemm_nt_into`] uses [`GemmElem::BLOCKS`]).
pub fn gemm_nt_blocked<T: GemmElem>(
    a: RowBlock<'_, T>,
    b: RowBlock<'_, T>,
    c: &mut [T::Acc],
    blocks: &BlockSizes,
) {
    gemm_nt_blocked_with(simd::active(), a, b, c, blocks)
}

/// [`gemm_nt_blocked`] with an explicit micro-kernel set (exposed so tests
/// and benches can force the scalar fallback regardless of `MIPS_KERNEL`).
pub fn gemm_nt_blocked_with<T: GemmElem>(
    kern: &Kernel,
    a: RowBlock<'_, T>,
    b: RowBlock<'_, T>,
    c: &mut [T::Acc],
    blocks: &BlockSizes,
) {
    let n = b.rows();
    assert_eq!(
        c.len(),
        a.rows() * n,
        "gemm_nt: output buffer length mismatch"
    );
    // One-off multiply: per-call packing buffers; tiles store into `c`,
    // which has no rows past the last block's.
    let mut scratch = GemmScratch::<T>::new();
    let GemmScratch { pack_a, pack_b, .. } = &mut scratch;
    for_each_block(
        kern,
        blocks,
        a,
        b.into(),
        pack_a,
        pack_b,
        |rows, cols, fill| fill(&mut c[rows.start * n + cols.start..], n, false),
    );
}

/// Reusable buffers for the packed driver: the two packed operand panels
/// plus the one resident score block of the streaming path, and the
/// per-row group maxima a block consumer may need
/// ([`GemmScratch::with_maxima`]).
///
/// Owning one of these per query loop (or per worker thread) removes every
/// per-block allocation from the serve path; the buffers grow to the
/// high-water mark of the shapes they see and are reused thereafter.
#[derive(Debug, Clone)]
pub struct GemmScratch<T: GemmElem> {
    pack_a: Vec<T::Panel>,
    pack_b: Vec<T::Panel>,
    block: Vec<T::Acc>,
    maxima: Vec<f64>,
}

impl<T: GemmElem> Default for GemmScratch<T> {
    fn default() -> Self {
        GemmScratch::new()
    }
}

impl<T: GemmElem> GemmScratch<T> {
    /// Empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        GemmScratch {
            pack_a: Vec::new(),
            pack_b: Vec::new(),
            block: Vec::new(),
            maxima: Vec::new(),
        }
    }

    /// Runs `body` with this scratch and, beside it, the scratch's group
    /// maxima buffer — how a block consumer of the streaming driver (the
    /// top-k passes' threshold floor in `mips-topk`) gets reusable memory
    /// while the driver holds the scratch.
    pub fn with_maxima<R>(&mut self, body: impl FnOnce(&mut Self, &mut Vec<f64>) -> R) -> R {
        let mut maxima = std::mem::take(&mut self.maxima);
        let out = body(self, &mut maxima);
        self.maxima = maxima;
        out
    }
}

/// Block-streaming `C = A·Bᵀ`: instead of materializing the full `m × n`
/// score buffer, hands each finished `MC × NC` block of scores to
/// `consumer` before computing the next one.
///
/// `consumer` receives the block (row-major, row stride = its width) and
/// the row and column ranges of `C` it covers. Only one block of scores is
/// ever resident (≤ `MC·NC` elements — about a megabyte), so the fused
/// GEMM→top-k path (`mips-topk::gemm_nt_topk`) and the screen passes do
/// their selection on cache-warm scores and the `batch × n` round-trip
/// through memory disappears — the §II-B memory-traffic argument applied to
/// our own serving loop.
///
/// # Panics
/// Panics if the operand widths differ.
pub fn gemm_nt_stream_blocks<T: GemmElem>(
    a: RowBlock<'_, T>,
    b: GemmB<'_, T>,
    scratch: &mut GemmScratch<T>,
    consumer: impl FnMut(&[T::Acc], Range<usize>, Range<usize>),
) {
    gemm_nt_stream_blocks_with(simd::active(), a, b, &T::BLOCKS, scratch, consumer)
}

/// [`gemm_nt_stream_blocks`] with explicit kernel set and blocking
/// parameters (the forced-scalar test entry).
pub fn gemm_nt_stream_blocks_with<T: GemmElem>(
    kern: &Kernel,
    a: RowBlock<'_, T>,
    b: GemmB<'_, T>,
    blocks: &BlockSizes,
    scratch: &mut GemmScratch<T>,
    mut consumer: impl FnMut(&[T::Acc], Range<usize>, Range<usize>),
) {
    let GemmScratch {
        pack_a,
        pack_b,
        block,
        ..
    } = scratch;
    for_each_block(kern, blocks, a, b, pack_a, pack_b, |rows, cols, fill| {
        // Whole `MR` rows, so a tile short of rows but full in columns
        // stores straight into the block instead of through the edge
        // buffer; the consumer sees only the real rows. Stale values from
        // the previous block are fully overwritten by the first
        // (non-accumulating) depth pass.
        let len = rows.len() * cols.len();
        block.resize(
            rows.len().div_ceil(T::MR) * T::MR * cols.len(),
            T::Acc::default(),
        );
        fill(block, cols.len(), true);
        consumer(&block[..len], rows, cols);
    });
}

/// Block-streaming `C = A·Bᵀ` for B = rows `ids` of `b`, every element
/// scored as its own chain straight from the rows ([`Kernel::dot_seq16`],
/// sixteen columns at a time): nothing is packed. The consumer sees the
/// blocks [`gemm_nt_stream_blocks_with`] hands out over
/// [`GemmB::Gathered`]`(b, ids)`, with the same bits — the tile's
/// per-element order is this one sequential chain.
///
/// Each row of A costs a chain per column instead of a share of a register
/// tile, so this pays only for a few rows of A, where packing B would cost
/// more than multiplying it. The sixteen rows of B a group reads stay in L1
/// while every row of the block scores against them.
///
/// # Panics
/// Panics if the operand widths differ or an id is out of range.
pub fn chain_nt_stream_blocks_with(
    kern: &Kernel,
    a: RowBlock<'_, f64>,
    b: RowBlock<'_, f64>,
    ids: &[u32],
    blocks: &BlockSizes,
    scratch: &mut GemmScratch<f64>,
    mut consumer: impl FnMut(&[f64], Range<usize>, Range<usize>),
) {
    const LANES: usize = 16;
    const AHEAD: usize = 2;
    let (m, n) = (a.rows(), ids.len());
    assert_eq!(a.cols(), b.cols(), "gemm_nt: inner dimension mismatch");
    assert!(
        ids.iter().all(|&id| (id as usize) < b.rows()),
        "gemm_nt: gathered id out of range"
    );
    let mc = blocks.mc.max(f64::MR);
    let nc = (blocks.nc / f64::NR).max(1) * f64::NR;
    let block = &mut scratch.block;
    for jc in (0..n).step_by(nc) {
        let cols = &ids[jc..n.min(jc + nc)];
        for ic in (0..m).step_by(mc) {
            let rows = ic..m.min(ic + mc);
            block.resize(rows.len() * cols.len(), 0.0);
            for (q, group) in cols.chunks(LANES).enumerate() {
                // Rows read by id defeat the hardware's stream prefetch at
                // each row start: ask for those of the group `AHEAD` on.
                let ahead = cols.iter().skip((q + AHEAD) * LANES).take(LANES);
                ahead.for_each(|&id| simd::prefetch(b.row(id as usize)));
                // A short last group repeats its last row; those lanes are
                // dropped.
                let last = group.len() - 1;
                let ys = std::array::from_fn(|l| b.row(group[l.min(last)] as usize));
                let at = q * LANES..q * LANES + group.len();
                for (r, out) in rows.clone().zip(block.chunks_exact_mut(cols.len())) {
                    let scores = kern.dot_seq16(a.row(r), ys);
                    out[at.clone()].copy_from_slice(&scores[..group.len()]);
                }
            }
            consumer(block, rows, jc..jc + cols.len());
        }
    }
}

/// The blocked driver. Walks C in `NC`-wide column panels and `MC`-tall
/// blocks within them; for each block calls `visit(rows, cols, fill)`, and
/// `fill(out, ldc, whole_rows)` computes the block — **all** depth passes —
/// into `out` (`out[0]` is its top-left element, rows `ldc` apart;
/// `whole_rows` when `out` has room for the block's rows rounded up to
/// whole `MR` tiles). Shared by the in-place and streaming entries, which
/// differ only in where `out` lives.
///
/// B is packed once per column panel over the whole depth — from its rows,
/// or from the rows its ids pick — or not at all, when prepacked; A once
/// per block and depth pass.
fn for_each_block<T: GemmElem>(
    kern: &Kernel,
    blocks: &BlockSizes,
    a: RowBlock<'_, T>,
    b: GemmB<'_, T>,
    pack_a: &mut Vec<T::Panel>,
    pack_b: &mut Vec<T::Panel>,
    mut visit: impl FnMut(Range<usize>, Range<usize>, &mut dyn FnMut(&mut [T::Acc], usize, bool)),
) {
    let (m, n, k) = (a.rows(), b.rows(), a.cols());
    assert_eq!(k, b.cols(), "gemm_nt: inner dimension mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let tile = T::tile(kern);
    let mc = blocks.mc.max(T::MR);
    // Column panels start on a tile boundary so a prepacked B is
    // addressable by panel; depth blocks hold whole packed groups.
    let nc = (blocks.nc / T::NR).max(1) * T::NR;
    let kc = match b {
        GemmB::Rows(_) | GemmB::Gathered(..) => padded_depth::<T>(blocks.kc.max(1)),
        GemmB::Packed(p) => p.panels.kc,
    };
    if let GemmB::Gathered(rows, ids) = b {
        assert!(
            ids.iter().all(|&id| (id as usize) < rows.rows()),
            "gemm_nt: gathered id out of range"
        );
    }
    // Sized to this multiply, not to the blocking: a one-user lookup packs
    // one tile row of A, not `MC` of them.
    let a_rows = mc.min(m).div_ceil(T::MR) * T::MR;
    pack_a.resize(a_rows * padded_depth::<T>(kc.min(k)), T::Panel::default());

    for jc in (0..n).step_by(nc) {
        let ncb = nc.min(n - jc);
        // `panels` holds `row_panels` `NR`-panels packed over the whole
        // depth; this column panel starts at panel `first_panel` of them.
        let (panels, first_panel, row_panels): (&[T::Panel], usize, usize) = match b {
            GemmB::Rows(rows) => {
                pack_full_depth(|r| rows.row(jc + r), ncb, k, kc, pack_b);
                (pack_b, 0, ncb.div_ceil(T::NR))
            }
            GemmB::Gathered(rows, ids) => {
                let ids = &ids[jc..jc + ncb];
                pack_full_depth(|r| rows.row(ids[r] as usize), ncb, k, kc, pack_b);
                (pack_b, 0, ncb.div_ceil(T::NR))
            }
            GemmB::Packed(p) => (
                &p.panels.data,
                (p.start + jc) / T::NR,
                p.panels.rows.div_ceil(T::NR),
            ),
        };
        for ic in (0..m).step_by(mc) {
            let mcb = mc.min(m - ic);
            visit(ic..ic + mcb, jc..jc + ncb, &mut |out, ldc, whole_rows| {
                if k == 0 {
                    for row in out.chunks_mut(ldc).take(mcb) {
                        row[..ncb].fill(T::Acc::default());
                    }
                }
                for pc in (0..k).step_by(kc) {
                    let depth = padded_depth::<T>(kc.min(k - pc));
                    pack_block(|r| a.row(ic + r), mcb, pc, kc.min(k - pc), T::MR, pack_a);
                    // Depth block `pc / kc` starts after `pc` full steps of
                    // every row panel; within it, panel `q` is `depth·NR` long.
                    let at = (pc * row_panels + first_panel * depth) * T::NR;
                    macro_kernel::<T>(
                        tile,
                        pack_a,
                        &panels[at..],
                        out,
                        ldc,
                        mcb,
                        ncb,
                        depth,
                        pc > 0,
                        whole_rows,
                    );
                }
            });
        }
    }
}

/// Walks the `MR × NR` register tiles of one `mcb × ncb` block of C. Full
/// tiles are stored by the micro-kernel straight into `c`, and so are tiles
/// short of rows but full in columns when `whole_rows` says `c` has room for
/// their padding rows (which then hold scratch values). Any other edge tile
/// is computed into a stack buffer and its valid corner copied out. The B
/// micro-panel is the outer loop, so it stays in L1 while the (small) packed
/// A block sweeps past it.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<T: GemmElem>(
    tile: Tile<T::Panel, T::Acc>,
    pack_a: &[T::Panel],
    pack_b: &[T::Panel],
    c: &mut [T::Acc],
    ldc: usize,
    mcb: usize,
    ncb: usize,
    depth: usize,
    accumulate: bool,
    whole_rows: bool,
) {
    let (mr, nr) = (T::MR, T::NR);
    for (qb, b_panel) in pack_b
        .chunks_exact(depth * nr)
        .take(ncb.div_ceil(nr))
        .enumerate()
    {
        let cols = nr.min(ncb - qb * nr);
        for (qa, a_panel) in pack_a
            .chunks_exact(depth * mr)
            .take(mcb.div_ceil(mr))
            .enumerate()
        {
            let rows = mr.min(mcb - qa * mr);
            let at = qa * mr * ldc + qb * nr;
            if cols == nr && (rows == mr || whole_rows) {
                tile(a_panel, b_panel, &mut c[at..], ldc, accumulate);
                continue;
            }
            let mut edge = [T::Acc::default(); MAX_TILE];
            for i in 0..rows {
                if accumulate {
                    edge[i * nr..i * nr + cols].copy_from_slice(&c[at + i * ldc..][..cols]);
                }
            }
            tile(a_panel, b_panel, &mut edge[..mr * nr], nr, accumulate);
            for i in 0..rows {
                c[at + i * ldc..][..cols].copy_from_slice(&edge[i * nr..i * nr + cols]);
            }
        }
    }
}

/// The portable register micro-kernel behind the scalar [`Kernel`]'s float
/// slots (and the bit-identity reference for the f64 SIMD tiles): each
/// `(i, j)` accumulator is one sequential fused-multiply-add chain over the
/// packed depth.
#[inline(always)]
fn tile_portable<T: FmaFloat, const MR: usize, const NR: usize>(
    a_panel: &[T],
    b_panel: &[T],
    c: &mut [T],
    ldc: usize,
    accumulate: bool,
) {
    simd::check_tile(a_panel, b_panel, c, ldc, MR, NR, 1);
    let mut acc = [[T::default(); NR]; MR];
    if accumulate {
        for (i, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&c[i * ldc..i * ldc + NR]);
        }
    }
    for (ap, bp) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        // Fixed-size views let the compiler drop all bounds checks.
        let ap: &[T; MR] = ap.try_into().expect("packed A panel is MR-aligned");
        let bp: &[T; NR] = bp.try_into().expect("packed B panel is NR-aligned");
        for i in 0..MR {
            for j in 0..NR {
                acc[i][j] = ap[i].mul_add(bp[j], acc[i][j]);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        c[i * ldc..i * ldc + NR].copy_from_slice(row);
    }
}

/// Scalar `f64` slot of the [`Kernel`] vtable (the guaranteed fallback and
/// bit-identity reference).
pub(crate) fn tile_scalar_f64(a: &[f64], b: &[f64], c: &mut [f64], ldc: usize, accumulate: bool) {
    tile_portable::<f64, { <f64 as GemmElem>::MR }, { <f64 as GemmElem>::NR }>(
        a, b, c, ldc, accumulate,
    )
}

/// Scalar `f32` slot (the screen-path fallback; tolerance contract, see
/// [`crate::simd`]).
pub(crate) fn tile_scalar_f32(a: &[f32], b: &[f32], c: &mut [f32], ldc: usize, accumulate: bool) {
    tile_portable::<f32, { <f32 as GemmElem>::MR }, { <f32 as GemmElem>::NR }>(
        a, b, c, ldc, accumulate,
    )
}

/// Scalar int8 slot, and the NEON set's too: per packed pair,
/// `c[i][j] += a[i][0]·b[j][0] + a[i][1]·b[j][1]` in `i32` — the exact sum
/// `vpmaddwd` + `vpaddd` produce, in any order.
pub(crate) fn tile_scalar_i8(a: &[i16], b: &[i16], c: &mut [i32], ldc: usize, accumulate: bool) {
    const MR: usize = <i8 as GemmElem>::MR;
    const NR: usize = <i8 as GemmElem>::NR;
    simd::check_tile(a, b, c, ldc, MR, NR, 2);
    let mut acc = [[0i32; NR]; MR];
    if accumulate {
        for (i, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&c[i * ldc..i * ldc + NR]);
        }
    }
    for (ap, bp) in a.chunks_exact(2 * MR).zip(b.chunks_exact(2 * NR)) {
        for i in 0..MR {
            let (a0, a1) = (i32::from(ap[2 * i]), i32::from(ap[2 * i + 1]));
            for j in 0..NR {
                acc[i][j] += a0 * i32::from(bp[2 * j]) + a1 * i32::from(bp[2 * j + 1]);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        c[i * ldc..i * ldc + NR].copy_from_slice(row);
    }
}

/// Reference `C = A·Bᵀ` as a double loop over [`dot`] — the paper's
/// "naïve inner products" brute force. Quadratically cache-unfriendly for
/// large `B`; kept as the correctness reference.
pub fn naive_gemm_nt(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    assert_eq!(a.cols(), b.cols(), "naive_gemm_nt: dimension mismatch");
    let mut c = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        let ai = a.row(i);
        let crow = c.row_mut(i);
        for (j, slot) in crow.iter_mut().enumerate() {
            *slot = dot(ai, b.row(j));
        }
    }
    c
}

/// Standard product `C = A·B` for row-major operands, implemented by
/// transposing `B` once and dispatching to the blocked `A·Bᵀ` kernel.
///
/// Only used on small matrices (e.g. applying an `f × f` SVD basis), where
/// the transpose copy is negligible.
pub fn matmul_nn(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    assert_eq!(a.cols(), b.rows(), "matmul_nn: dimension mismatch");
    let bt = b.transpose();
    gemm_nt(a, &bt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::tests::round_f32;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        // Small deterministic LCG; avoids pulling rand into the crate deps.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn assert_close(a: &Matrix<f64>, b: &Matrix<f64>, tol: f64) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                let (x, y) = (a.get(r, c), b.get(r, c));
                assert!(
                    (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                    "mismatch at ({r},{c}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn gemm_matches_naive_on_awkward_shapes() {
        // Shapes chosen to hit every edge: partial MR/NR tiles, k smaller and
        // larger than KC, single rows/cols.
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 16),
            (5, 9, 3),
            (17, 23, 31),
            (64, 64, 64),
            (33, 70, 129),
            (2, 100, 1),
            (100, 2, 200),
        ] {
            let a = random_matrix(m, k, 42 + m as u64);
            let b = random_matrix(n, k, 999 + n as u64);
            let fast = gemm_nt(&a, &b);
            let slow = naive_gemm_nt(&a, &b);
            assert_close(&fast, &slow, 1e-11 * k as f64);
        }
    }

    #[test]
    fn gemm_deep_k_crosses_multiple_kc_blocks() {
        // KC for f64 defaults to 256; k = 700 forces three depth passes and
        // exercises the accumulate path.
        let a = random_matrix(9, 700, 7);
        let b = random_matrix(13, 700, 8);
        assert_close(&gemm_nt(&a, &b), &naive_gemm_nt(&a, &b), 1e-9);
    }

    #[test]
    fn gemm_with_custom_tiny_blocks_still_correct() {
        let a = random_matrix(10, 20, 1);
        let b = random_matrix(12, 20, 2);
        let mut c = Matrix::zeros(10, 12);
        let blocks = BlockSizes {
            mc: 4,
            kc: 3,
            nc: 8,
        };
        gemm_nt_blocked((&a).into(), (&b).into(), c.as_mut_slice(), &blocks);
        assert_close(&c, &naive_gemm_nt(&a, &b), 1e-11);
    }

    #[test]
    fn gemm_empty_dimensions() {
        let a = Matrix::<f64>::zeros(0, 5);
        let b = Matrix::<f64>::zeros(3, 5);
        let c = gemm_nt(&a, &b);
        assert_eq!(c.rows(), 0);
        assert_eq!(c.cols(), 3);

        // k == 0: result is all zeros, and a dirty output buffer is cleared.
        let a = Matrix::<f64>::zeros(2, 0);
        let b = Matrix::<f64>::zeros(3, 0);
        let mut buf = vec![7.0; 6];
        gemm_nt_into((&a).into(), (&b).into(), &mut buf);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_rejects_mismatched_widths() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 4);
        let _ = gemm_nt(&a, &b);
    }

    #[test]
    #[should_panic(expected = "output buffer length mismatch")]
    fn gemm_rejects_bad_output_buffer() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 3);
        let mut c = vec![0.0; 3];
        gemm_nt_into((&a).into(), (&b).into(), &mut c);
    }

    #[test]
    fn gemm_on_row_blocks_matches_full() {
        let a = random_matrix(20, 15, 3);
        let b = random_matrix(10, 15, 4);
        let full = gemm_nt(&a, &b);
        let mut c = vec![0.0; 5 * 10];
        gemm_nt_into(a.row_block(5, 10), (&b).into(), &mut c);
        for i in 0..5 {
            for j in 0..10 {
                assert!((c[i * 10 + j] - full.get(5 + i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matmul_nn_matches_manual() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul_nn(&a, &b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert!((c.get(0, 0) - 58.0).abs() < 1e-12);
        assert!((c.get(0, 1) - 64.0).abs() < 1e-12);
        assert!((c.get(1, 0) - 139.0).abs() < 1e-12);
        assert!((c.get(1, 1) - 154.0).abs() < 1e-12);
    }

    /// `m` rounded to f32.
    fn rounded(m: &Matrix<f64>) -> Matrix<f32> {
        Matrix::from_vec(m.rows(), m.cols(), round_f32(m.as_slice())).unwrap()
    }

    #[test]
    fn gemm_f32_matches_naive() {
        let a = rounded(&random_matrix(19, 37, 11));
        let b = rounded(&random_matrix(21, 37, 12));
        let mut fast = vec![0.0f32; 19 * 21];
        gemm_nt_into((&a).into(), (&b).into(), &mut fast);
        for r in 0..19 {
            for c in 0..21 {
                let slow = crate::kernels::tests::dot_scalar_f32(a.row(r), b.row(c));
                assert!((fast[r * 21 + c] - slow).abs() < 1e-3);
            }
        }
    }

    /// `rows × cols` int8 codes cycling through the extremes.
    fn codes(rows: usize, cols: usize, salt: usize) -> Vec<i8> {
        (0..rows * cols)
            .map(|p| [127i8, -127, 0, 1, -1, 64, -33, -128][(p * 5 + salt + p / 7) % 8])
            .collect()
    }

    /// The three entry styles of one multiply — in place, streamed over
    /// rows, streamed over prepacked panels — must agree element for
    /// element (bit for bit: `Acc` equality on finite values), under any
    /// blocking.
    fn all_entries_agree<T: GemmElem>(a: RowBlock<'_, T>, b: RowBlock<'_, T>, blocks: &BlockSizes)
    where
        T::Acc: PartialEq,
    {
        let (m, n) = (a.rows(), b.rows());
        let mut want = vec![T::Acc::default(); m * n];
        gemm_nt_into(a, b, &mut want);
        for kern in [Kernel::scalar(), *simd::active()] {
            let mut blocked = vec![T::Acc::default(); m * n];
            gemm_nt_blocked_with(&kern, a, b, &mut blocked, blocks);
            assert!(blocked == want, "{} in place, {blocks:?}", kern.name());
            let panels = PackedPanels::pack(b);
            for side in [GemmB::Rows(b), (&panels).into()] {
                let mut streamed = vec![T::Acc::default(); m * n];
                let mut seen = 0usize;
                let mut scratch = GemmScratch::new();
                gemm_nt_stream_blocks_with(
                    &kern,
                    a,
                    side,
                    blocks,
                    &mut scratch,
                    |block, rows, cols| {
                        assert_eq!(block.len(), rows.len() * cols.len());
                        assert!(rows.len() <= blocks.mc.max(T::MR), "block taller than MC");
                        for (r, scores) in rows.zip(block.chunks_exact(cols.len())) {
                            streamed[r * n + cols.start..r * n + cols.end].copy_from_slice(scores);
                        }
                        seen += block.len();
                    },
                );
                assert_eq!(seen, m * n, "every element streamed exactly once");
                assert!(streamed == want, "{} streamed {side:?}", kern.name());
            }
        }
    }

    #[test]
    fn prepacked_streamed_and_in_place_agree_bit_for_bit_on_ragged_shapes() {
        let tiny = BlockSizes {
            mc: 6,
            kc: 4,
            nc: 16,
        };
        // Miri interprets every multiply-add: one ragged shape and the two
        // interesting depths exercise the same pack and addressing code.
        // Streamed blocks short of `MR` rows store their full-width tiles
        // straight into the block's padding rows; depths past the default
        // `kc` reload those rows on every later pass.
        let shapes: &[(usize, usize)] = if cfg!(miri) {
            &[(5, 33)]
        } else {
            &[(1, 1), (1, 40), (2, 40), (3, 17), (5, 33), (7, 40), (9, 70)]
        };
        let depths: &[usize] = if cfg!(miri) {
            &[0, 51]
        } else {
            &[0, 1, 3, 49, 50, 51, 301, 600]
        };
        for &(m, n) in shapes {
            for &f in depths {
                let a64 = random_matrix(m, f, 5 + m as u64);
                let b64 = random_matrix(n, f, 9 + n as u64);
                let (a32, b32) = (rounded(&a64), rounded(&b64));
                let (a8, b8) = (codes(m, f, 1), codes(n, f, 4));
                for blocks in [&f64::BLOCKS, &tiny] {
                    all_entries_agree::<f64>((&a64).into(), (&b64).into(), blocks);
                    all_entries_agree::<f32>((&a32).into(), (&b32).into(), blocks);
                    all_entries_agree::<i8>(
                        RowBlock::new(&a8, m, f),
                        RowBlock::new(&b8, n, f),
                        blocks,
                    );
                }
            }
        }
    }

    /// Every panel-aligned slice of packed panels multiplies like the rows
    /// it covers, packed per call — element for element, whatever its end.
    fn slices_agree<T: GemmElem>(a: RowBlock<'_, T>, b: RowBlock<'_, T>, blocks: &BlockSizes)
    where
        T::Acc: PartialEq,
    {
        let (m, n, f) = (a.rows(), b.rows(), b.cols());
        let panels = PackedPanels::pack(b);
        for start in (0..=n).step_by(T::NR) {
            for end in [start, start + 1, start + T::NR + 3, n] {
                let end = end.min(n);
                let rows = RowBlock::new(&b.as_slice()[start * f..end * f], end - start, f);
                let mut want = vec![T::Acc::default(); m * rows.rows()];
                gemm_nt_blocked_with(simd::active(), a, rows, &mut want, blocks);
                let mut got = vec![T::Acc::default(); m * rows.rows()];
                let view = panels.slice(start..end);
                let mut scratch = GemmScratch::new();
                let width = rows.rows();
                gemm_nt_stream_blocks_with(
                    simd::active(),
                    a,
                    view.into(),
                    blocks,
                    &mut scratch,
                    |block, rows, cols| {
                        for (r, scores) in rows.zip(block.chunks_exact(cols.len())) {
                            got[r * width + cols.start..r * width + cols.end]
                                .copy_from_slice(scores);
                        }
                    },
                );
                assert!(got == want, "rows {start}..{end} of {n}, {blocks:?}");
            }
        }
    }

    #[test]
    fn panel_slices_multiply_like_the_rows_they_cover() {
        let tiny = BlockSizes {
            mc: 6,
            kc: 4,
            nc: 16,
        };
        for &(m, n, f) in &[(3usize, 40usize, 3usize), (5, 70, 51)] {
            let a64 = random_matrix(m, f, 3 + n as u64);
            let b64 = random_matrix(n, f, 7 + n as u64);
            let (a8, b8) = (codes(m, f, 3), codes(n, f, 5));
            for blocks in [&f64::BLOCKS, &tiny] {
                slices_agree::<f64>((&a64).into(), (&b64).into(), blocks);
                slices_agree::<i8>(RowBlock::new(&a8, m, f), RowBlock::new(&b8, n, f), blocks);
            }
        }
    }

    /// Streams `a·bᵀ` through `drive` into a fresh `m × n` matrix,
    /// checking that every element is handed out once.
    fn streamed<T: GemmElem>(
        m: usize,
        n: usize,
        drive: impl FnOnce(&mut dyn FnMut(&[T::Acc], Range<usize>, Range<usize>)),
    ) -> Vec<T::Acc> {
        let mut out = vec![T::Acc::default(); m * n];
        let mut seen = 0;
        drive(&mut |block, rows, cols| {
            assert_eq!(block.len(), rows.len() * cols.len());
            for (r, scores) in rows.zip(block.chunks_exact(cols.len())) {
                out[r * n + cols.start..r * n + cols.end].copy_from_slice(scores);
            }
            seen += block.len();
        });
        assert_eq!(seen, m * n, "every element streamed exactly once");
        out
    }

    /// Rows `ids` of `b` as B, gathered per call and packed into panels
    /// once by [`PackedPanels::gather`], stream the same elements under
    /// `kern`; returns them.
    fn gathered_like_packed<T: GemmElem>(
        kern: &Kernel,
        a: RowBlock<'_, T>,
        b: RowBlock<'_, T>,
        ids: &[u32],
        blocks: &BlockSizes,
    ) -> Vec<T::Acc>
    where
        T::Acc: PartialEq,
    {
        let (m, n) = (a.rows(), ids.len());
        let panels = PackedPanels::gather(b, ids);
        let mut scratch = GemmScratch::new();
        let mut stream = |side: GemmB<'_, T>| {
            streamed::<T>(m, n, |consumer| {
                gemm_nt_stream_blocks_with(kern, a, side, blocks, &mut scratch, consumer)
            })
        };
        let want = stream((&panels).into());
        let got = stream(GemmB::Gathered(b, ids));
        assert!(got == want, "{} {ids:?}, {blocks:?}", kern.name());
        want
    }

    #[test]
    fn gathered_rows_multiply_like_their_packed_panels_and_chains() {
        // Ragged id counts (none, fewer than a tile or a chain group, past
        // a column panel), ids out of order and repeated, depths past the
        // default `KC`, user rows past a tiny `MC`, under the scalar and
        // the dispatched kernels; f64 also through the chains, bit for bit.
        let tiny = BlockSizes {
            mc: 6,
            kc: 4,
            nc: 16,
        };
        let n = 70;
        let shuffled: Vec<u32> = (0..n as u32).map(|i| (i * 29 + 11) % n as u32).collect();
        let id_sets: [Vec<u32>; 5] = [
            Vec::new(),
            vec![5],
            vec![69, 3, 3, 40, 12, 0, 7],
            shuffled[..33].to_vec(),
            shuffled.iter().chain(&shuffled[..9]).copied().collect(),
        ];
        let depths: &[usize] = if cfg!(miri) {
            &[3]
        } else {
            &[0, 1, 3, 50, 51, 300, 513]
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &f in depths {
            for &m in &[1usize, 3, 9] {
                let a64 = random_matrix(m, f, 31 + m as u64);
                let b64 = random_matrix(n, f, 37);
                let (a32, b32) = (rounded(&a64), rounded(&b64));
                let (a8, b8) = (codes(m, f, 2), codes(n, f, 7));
                let (a8, b8) = (RowBlock::new(&a8, m, f), RowBlock::new(&b8, n, f));
                let (a, b) = ((&a64).into(), (&b64).into());
                for kern in [Kernel::scalar(), *simd::active()] {
                    for blocks in [&f64::BLOCKS, &tiny] {
                        for ids in &id_sets {
                            let want = gathered_like_packed::<f64>(&kern, a, b, ids, blocks);
                            let mut scratch = GemmScratch::new();
                            let chained = streamed::<f64>(m, ids.len(), |consumer| {
                                chain_nt_stream_blocks_with(
                                    &kern,
                                    a,
                                    b,
                                    ids,
                                    blocks,
                                    &mut scratch,
                                    consumer,
                                )
                            });
                            assert_eq!(bits(&chained), bits(&want), "{} {ids:?}", kern.name());
                            gathered_like_packed::<f32>(
                                &kern,
                                (&a32).into(),
                                (&b32).into(),
                                ids,
                                blocks,
                            );
                            gathered_like_packed::<i8>(&kern, a8, b8, ids, blocks);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "gathered id out of range")]
    fn gathered_ids_stay_in_range() {
        let (a, b) = (random_matrix(2, 3, 1), random_matrix(4, 3, 2));
        let mut scratch = GemmScratch::new();
        let ids = [1, 4];
        gemm_nt_stream_blocks(
            (&a).into(),
            GemmB::Gathered((&b).into(), &ids),
            &mut scratch,
            |_, _, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "off a panel boundary")]
    fn panel_slices_start_on_a_panel_boundary() {
        let b = random_matrix(20, 4, 1);
        let _ = PackedPanels::pack((&b).into()).slice(3..20);
    }

    #[test]
    fn int8_gemm_equals_dot_i8_on_every_pair() {
        // Ragged shapes and odd depths (the last pair zero-padded), the
        // largest sums the tier produces, and one pair at the length cap.
        let cap = crate::quant::I8_DOT_MAX_LEN;
        for &(m, n, f) in &[
            (5usize, 19usize, 0usize),
            (5, 19, 1),
            (6, 35, 49),
            (7, 33, 51),
        ] {
            let (a, b) = (codes(m, f, 2), codes(n, f, 6));
            let mut c = vec![0i32; m * n];
            gemm_nt_into(RowBlock::new(&a, m, f), RowBlock::new(&b, n, f), &mut c);
            for i in 0..m {
                for j in 0..n {
                    let want = crate::quant::dot_i8(&a[i * f..(i + 1) * f], &b[j * f..(j + 1) * f]);
                    assert_eq!(c[i * n + j], want, "({m},{n},{f}) element ({i},{j})");
                }
            }
        }
        for (f, a_code, b_code) in [
            (4096usize, 127i8, -127i8),
            (4096, -127, -127),
            (cap, 127, 127),
        ] {
            let (a, b) = (vec![a_code; f], vec![b_code; f]);
            let mut c = [0i32];
            gemm_nt_into(RowBlock::new(&a, 1, f), RowBlock::new(&b, 1, f), &mut c);
            assert_eq!(c[0], crate::quant::dot_i8(&a, &b), "f {f}");
            assert_eq!(c[0], f as i32 * i32::from(a_code) * i32::from(b_code));
        }
    }

    #[test]
    fn f32_gemm_on_ragged_shapes_stays_inside_the_screen_envelope() {
        for &(m, n, f) in &[(5usize, 19usize, 49usize), (6, 35, 50), (7, 33, 51)] {
            let a64 = random_matrix(m, f, 21);
            let b64 = random_matrix(n, f, 22);
            let mut c = vec![0.0f32; m * n];
            gemm_nt_into((&rounded(&a64)).into(), (&rounded(&b64)).into(), &mut c);
            for i in 0..m {
                for j in 0..n {
                    let (u, v) = (a64.row(i), b64.row(j));
                    let env = crate::f32_screen_envelope(f, crate::norm2(u), crate::norm2(v));
                    assert!(
                        (f64::from(c[i * n + j]) - dot(u, v)).abs() <= env,
                        "({i},{j}) f {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn flops_counts_multiply_adds() {
        assert_eq!(gemm_flops(10, 20, 30), 2.0 * 10.0 * 20.0 * 30.0);
    }
}

//! Top-K selection for exact MIPS.
//!
//! Every solver in the repository ends the same way the paper's C++
//! implementations do: ratings stream into a bounded min-heap whose root is
//! the *worst retained* rating — the pruning threshold that LEMP, FEXIPRO and
//! MAXIMUS compare their upper bounds against. This crate provides that heap
//! plus batched row-wise selection over dense score matrices.
//!
//! Determinism: ties are broken toward the smaller item id everywhere, so
//! independent solvers produce byte-identical results and cross-solver tests
//! can compare exactly.
//!
//! [`canonical`] holds the contract those results meet: [`exact_topk`], the
//! oracle every backend is refereed against, and [`Shortlist`], the one
//! screen-then-rescore every approximate score goes through — the screen
//! tiers', the sparse accumulator's and the four-lane `dot` of the index
//! scans — so that a scan returns the oracle's answer.
//!
//! [`fused`] additionally provides the fused GEMM→top-k path: score panels
//! stream out of the blocked multiply straight into the heaps, so the dense
//! `batch × n` score buffer of the two-stage pipeline never exists.
//!
//! [`screen`] is the mixed-precision variant of that path: the scan runs in
//! a lower-precision [`ScreenTier`] (f32 panels with a rounding envelope, or
//! exact integer dots over symmetric int8 codes with a quantization
//! envelope), and only the surviving candidates are rescored in f64 —
//! bit-identical output at a half (f32) or an eighth (int8) of the scan
//! bandwidth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admit;
pub mod canonical;
pub mod fused;
pub mod heap;
pub mod list;
pub mod screen;
pub mod select;

pub use canonical::{exact_topk, Shortlist};
pub use fused::{
    chain_topk_into_heaps, gemm_nt_topk, gemm_nt_topk_with, stream_topk_into_heaps, ColumnIds,
};
pub use heap::TopKHeap;
pub use list::TopKList;
pub use screen::{
    screen_parts_topk_into_heaps, screen_parts_topk_into_heaps_with, ScreenScratch, ScreenStats,
    ScreenTier,
};
pub use select::{row_topk, rows_topk};

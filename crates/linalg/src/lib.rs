//! Dense BLAS-like linear algebra kernels for exact maximum inner product search.
//!
//! This crate is the hardware-efficiency substrate of the repository: it plays
//! the role that Intel MKL / OpenBLAS play in the paper *"To Index or Not to
//! Index: Optimizing Exact Maximum Inner Product Search"* (Abuzaid et al.,
//! ICDE 2019). The paper's central observation is that a cache-blocked,
//! register-tiled dense matrix multiply ("blocked matrix multiply", BMM) beats
//! state-of-the-art MIPS indexes on many inputs purely through hardware
//! efficiency. Everything in this crate exists to make that brute-force path
//! genuinely fast:
//!
//! * [`Matrix`] — a dense row-major matrix (the model's `f64`, or any
//!   element type a tier stores).
//! * [`gemm`] — a Goto/BLIS-style packed, cache-blocked `C = A·Bᵀ` kernel with
//!   an unrolled register micro-kernel, a panel-streaming driver for fused
//!   GEMM→top-k consumers, plus naive references for testing.
//! * [`kernels`] — level-1 routines (dot, norms, scaling) with unrolled
//!   accumulators.
//! * [`simd`] — runtime-dispatched AVX2+FMA / NEON micro-kernels behind a
//!   safe [`simd::Kernel`] vtable, with the scalar code as the guaranteed
//!   fallback (`MIPS_KERNEL=scalar` forces it). The `f64` kernels above
//!   route through the active set automatically.
//! * [`tier`] — a numeric screen tier's data format ([`ScreenElem`]) and the
//!   one row store every screen consumer shares ([`TierRows`]).
//! * [`blocking`] — cache-geometry-aware tile-size selection, shared with the
//!   OPTIMUS optimizer (which sizes its sampling runs to occupy the L2 cache).
//! * [`eig`] / [`svd`] — a cyclic Jacobi symmetric eigensolver and the item
//!   SVD transform required by the FEXIPRO baseline.
//!
//! The row-major `A·Bᵀ` orientation is deliberate: in MIPS both the user and
//! item matrices store one vector per row, so `U·Iᵀ` walks contiguous memory
//! on both sides.

// `unsafe` is denied crate-wide and re-allowed *only* inside `simd`, whose
// module docs carry the safety contract for every intrinsic kernel.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod eig;
pub mod error;
pub mod gemm;
pub mod kernels;
pub mod matrix;
pub mod quant;
pub mod simd;
pub mod svd;
pub mod tier;

pub use blocking::{BlockSizes, CacheConfig};
pub use error::LinalgError;
pub use gemm::{
    chain_nt_stream_blocks_with, gemm_flops, gemm_nt, gemm_nt_blocked, gemm_nt_blocked_with,
    gemm_nt_into, gemm_nt_stream_blocks, gemm_nt_stream_blocks_with, matmul_nn, naive_gemm_nt,
    GemmB, GemmElem, GemmScratch, PackedPanels, PanelView,
};
pub use kernels::{
    dot, f32_screen_envelope, f32_screen_envelope_parts, norm2, norm2_sq, normalize,
    reassoc_envelope_parts, scale, scaled_norm2, sumsq_reassoc_bound,
};
pub use matrix::{Matrix, RowBlock};
pub use quant::{
    dot_i8, i8_screen_envelope_parts, quantize_row_i8, scale_for, I8_DOT_MAX_LEN, I8_QUANT_LEVEL,
};
pub use simd::Kernel;
pub use tier::{ScreenElem, ScreenTier, TierRows, TierView};

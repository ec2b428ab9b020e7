//! Runtime-dispatched SIMD micro-kernels for the double-precision hot path.
//!
//! The paper's hardware-efficiency argument (§II-B) assumes the brute-force
//! kernels actually reach the machine's FMA throughput. Portable scalar Rust
//! compiled for the baseline `x86-64` target cannot: `f64::mul_add` lowers to
//! a libm call and the autovectorizer never emits YMM FMAs. This module
//! closes that gap with explicit `unsafe` intrinsic kernels selected **once**
//! per process:
//!
//! * `avx2-fma` — 256-bit AVX2 + FMA kernels (the `avx2` module), chosen when
//!   `is_x86_feature_detected!` confirms both features at startup;
//! * `neon` — 128-bit NEON kernels (the `neon` module) on `aarch64` (NEON and
//!   double-precision FMA are baseline features there);
//! * `scalar` — the crate's portable kernels, the guaranteed fallback on
//!   every other target and the reference the SIMD paths are tested against.
//!
//! Selection happens on the first call to [`active`] and is cached for the
//! process lifetime. Set `MIPS_KERNEL=scalar` in the environment to force the
//! portable path (e.g. to measure the SIMD speedup, or to rule the SIMD
//! kernels out when debugging); an unknown or unsupported name falls back to
//! `scalar` rather than faulting. [`Kernel::name`] reports what is actually
//! running.
//!
//! ## Bit-identity contract
//!
//! Every SIMD kernel reproduces the scalar kernel's floating-point result
//! **bit for bit**, not merely within tolerance. This is possible because the
//! scalar kernels already use independent accumulators: a vector register's
//! lanes are mapped one-to-one onto the scalar code's accumulators, every
//! multiply-add uses the (single-rounding) FMA in both paths, and the final
//! reduction uses the same combine tree. Concretely:
//!
//! * [`Kernel::dot`] — lane `l` of the one vector accumulator sums elements
//!   `x[4i+l]·y[4i+l]`, exactly the scalar `dot`'s four accumulators; the
//!   reduction is `((l0+l1)+(l2+l3)) + tail` in both.
//! * [`Kernel::dist2_sq`] — same mapping over `(x-y)²`.
//! * [`Kernel::tile_f64`] — each `(i, j)` accumulator of the `4×8` GEMM
//!   register tile is one vector lane fed by a single sequential FMA chain
//!   over the packed depth, identical to the scalar tile's loop. The tile
//!   stores to C directly; on a later depth pass it *loads* the C tile as
//!   its initial accumulators, so the chain continues across depth blocks
//!   instead of restarting (a restarted chain plus a final add rounds
//!   differently).
//! * [`Kernel::dot_seq4`] — four scalar sequential FMA chains (the GEMM
//!   per-element order, one chain per item); the arch kernels only ensure
//!   the `mul_add`s compile to inline hardware FMA, and every path's `fma`
//!   is correctly rounded, so all kernel sets agree bit for bit — with each
//!   other *and* with the matching `tile_f64` output element.
//! * [`Kernel::dot_seq16`] — the same with sixteen chains, four rows to a
//!   vector lane set on AVX2, so the latency of one chain's FMAs is covered
//!   by the others. It scores the passes that skip packing (a few users
//!   against rows read by id) with the tile's own per-element order.
//! * [`Kernel::next_hit_f64`], [`Kernel::next_hit_f32`],
//!   [`Kernel::next_hit_i8`] — the threshold filters of the fused select
//!   and the two screen passes. Each lane's upper bound is evaluated in the
//!   same f64 operations, in the same order, as the scalar twin
//!   (`simd/filter.rs`): explicit multiplies and adds that are never
//!   contracted, one FMA where the scalar rule has one. So every kernel set
//!   flags the **same lanes** — a lane is flagged when its bound is not
//!   below the threshold (`!(hi < t)`: a NaN is flagged too), and in the
//!   f32 filter also when the score itself is not finite. The filters only
//!   pre-filter: callers re-apply their exact scalar rule to each flagged
//!   lane, which is why a stale (lower) threshold is harmless and why
//!   candidate sets, survivor counts and results are identical under every
//!   kernel.
//! * [`Kernel::group_max_f64`], [`Kernel::group_max_f32`],
//!   [`Kernel::group_max_i8`] — the group maxima a filling heap's floor is
//!   selected from. Each lane's value is the score (f64) or the lower bound
//!   `ŝ − envelope` in the same operations as the filters' `hi` (f32: widen,
//!   one FMA, subtract, then `+ ŝ·0` so a non-finite score is NaN; int8:
//!   explicit multiplies and adds, never contracted). A group's maximum
//!   skips NaN lanes (`vmaxpd(lane, acc)` keeps `acc`, the scalar
//!   `if lane > acc` likewise), is `−∞` when nothing is left, and gets
//!   `+ 0.0` so a zero maximum is `+0`. A maximum of the non-NaN lanes does
//!   not depend on the order it is reduced in except for the sign of a
//!   zero, so the AVX2 bodies' four accumulator chains and the scalar
//!   fold write the **same bits**, and every kernel set primes the same
//!   floor.
//!
//! The contract has no exception: every slot above writes the same bits
//! under every kernel set. (LEMP's and FEXIPRO's suffix norms are not a
//! slot: [`crate::kernels::suffix_norms`] is one portable square-then-add
//! carry, so it gives the same bits on every architecture.)
//!
//! ## Single-precision screen kernels
//!
//! The f32 slots — [`Kernel::tile_f32`] (a `4×16` tile, eight
//! accumulators), [`Kernel::next_hit_f32`] and [`Kernel::group_max_f32`] —
//! serve the mixed-precision *screen* path: scan in f32, keep every
//! candidate whose widened bound could still reach the top-k, then rescore
//! survivors in f64. The filters and group maxima evaluate their bounds in
//! f64 and sit inside the bit-identity contract (above). The tile is
//! deliberately **outside** it: a kernel set may accumulate its f32 lanes
//! in any order. That is sound because no f32 value is ever reported:
//! every consumer wraps the result in the error envelope of
//! [`crate::f32_screen_envelope`], which bounds *any* accumulation order,
//! and final scores always come from the exact f64 path.
//!
//! The `fused_exactness` property suite in `mips-topk` exercises both
//! contracts: bit-identical top-k (scores *and* tie-broken id order) between
//! the fused SIMD path and the scalar reference, across shapes that are
//! deliberately not multiples of the tile sizes.
//!
//! ## Int8 screen kernels
//!
//! The int8 entries serve the quantized screen tier beneath the f32 one:
//! item rows are stored as symmetric int8 codes with per-row scales
//! ([`crate::TierRows`] of `i8`). [`Kernel::tile_i8`] is the block scan's tile —
//! codes widened to `i16` and packed in depth pairs, so one `vpmaddwd`
//! multiplies a broadcast pair of A against sixteen packed B values (the
//! scalar and NEON sets run the portable twin) — and [`Kernel::dot_i8`]
//! the single-pair dot of the point screens (`pmaddwd` on AVX2,
//! `smull`+`sadalp` on NEON). The widening i8×i8→i32 accumulation is
//! **exact** under every association order (`f ≤
//! `[`crate::quant::I8_DOT_MAX_LEN`] keeps the worst case inside `i32`).
//! Because integer addition is associative, these kernels sit *inside* the
//! bit-identity contract — every set returns the identical `i32`, tile and
//! dot alike — so the i8 screen's envelope
//! ([`crate::quant::i8_screen_envelope_parts`]) only has to cover
//! quantization error, not accumulation order.
//!
//! ## Safety contract
//!
//! This module is the only place in the crate allowed to use `unsafe`
//! (the crate is `deny(unsafe_code)`; this module opts back in). The
//! obligations are local and uniform:
//!
//! * Arch-specific functions are `unsafe fn` + `#[target_feature]`. Their
//!   only precondition is that the CPU supports the enabled features; they
//!   perform no raw-pointer arithmetic beyond in-bounds slice addressing,
//!   which each kernel guards with explicit length math (`chunks`/`len`
//!   derived trip counts, remainder loops for tails).
//! * The safe wrappers stored in a [`Kernel`] may only be constructed by
//!   [`Kernel::avx2`] / [`Kernel::neon`], which return `None` unless the
//!   features were detected (or the target guarantees them). The wrappers
//!   are only ever reachable through a `Kernel` value, which is therefore a
//!   proof that its function pointers are safe to call on this machine.
//!   The GEMM tile slots are handed out *as* pointers ([`Kernel::tile_f64`]
//!   and its siblings, so the driver dispatches once per multiply); those
//!   wrappers check every slice bound their bodies rely on with `assert!`
//!   themselves — a C tile that does not fit its slice is a panic, never
//!   an out-of-bounds store.
//!
//! The discipline is mechanically enforced: `mips-lint` (CI's lint job)
//! rejects any `unsafe` outside this directory, and rejects any `unsafe`
//! here that is not annotated — every `unsafe { .. }` call site carries a
//! `// SAFETY:` argument naming the invariant it relies on, and every
//! `unsafe fn` carries a `// SAFETY contract:` stating what its callers
//! must uphold. A new unsafe block without its argument fails CI, not
//! review.

#![allow(unsafe_code)]

use crate::gemm::Tile;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;
mod filter;
#[cfg(target_arch = "aarch64")]
mod neon;

/// Independent accumulator chains a [`Kernel::peak`] round keeps in flight
/// — enough to cover a 4–6 cycle multiply-add latency on two issue ports,
/// few enough to stay in sixteen vector registers.
pub const PEAK_CHAINS: u64 = 12;

/// A dispatch table of double-precision micro-kernels.
///
/// All fields are plain `fn` pointers: the arch-specific `unsafe` functions
/// are wrapped in safe shims whose soundness is guaranteed by construction
/// (see the module-level safety contract). Obtain one via [`active`] (the
/// process-wide selection) or [`Kernel::scalar`] (the portable reference).
#[derive(Clone, Copy)]
pub struct Kernel {
    name: &'static str,
    dot: fn(&[f64], &[f64]) -> f64,
    dot_seq4: fn(&[f64], [&[f64]; 4]) -> [f64; 4],
    dot_seq16: fn(&[f64], [&[f64]; 16]) -> [f64; 16],
    dist2_sq: fn(&[f64], &[f64]) -> f64,
    tile_f64: Tile<f64, f64>,
    tile_f32: Tile<f32, f32>,
    dot_i8: fn(&[i8], &[i8]) -> i32,
    tile_i8: Tile<i16, i32>,
    next_hit_f64: fn(&[f64], usize, f64) -> usize,
    next_hit_f32: NextHitF32,
    next_hit_i8: NextHitI8,
    group_max_f64: fn(&[f64], usize, &mut [f64]),
    group_max_f32: GroupMaxF32,
    group_max_i8: GroupMaxI8,
    peak: fn(PeakOp, u64) -> f64,
}

/// Filter slots: `(scores, per-item terms.., user terms, from, threshold)`
/// to the first flagged index at or after `from`, or the length.
type NextHitF32 = fn(&[f32], &[f64], F32Offer, usize, f64) -> usize;
type NextHitI8 = fn(&[i32], &[f64], &[f64], I8Offer, usize, f64) -> usize;

/// Group-maxima slots: `(scores, per-item terms.., user terms, group, out)`
/// writing one maximum per `group`-wide run of lanes into `out`.
type GroupMaxF32 = fn(&[f32], &[f64], F32Offer, usize, &mut [f64]);
type GroupMaxI8 = fn(&[i32], &[f64], &[f64], I8Offer, usize, &mut [f64]);

/// One user's side of the f32 screen's **offer expression**: column `j`
/// with screen score `ŝ` and exact item norm `‖i‖` has upper bound
/// `hi = ŝ + envelope(‖i‖)`, the envelope one fused multiply-add. The block
/// screen, the point screens and [`Kernel::next_hit_f32`] all evaluate it
/// through these methods, so they cannot drift apart.
#[derive(Debug, Clone, Copy)]
pub struct F32Offer {
    /// `rel · ‖u‖` of [`crate::f32_screen_envelope_parts`].
    rel_u: f64,
    /// The envelope's absolute term.
    env_abs: f64,
}

impl F32Offer {
    /// The offer terms of a user with exact norm `user_norm` over `f`
    /// factors.
    pub fn for_user(f: usize, user_norm: f64) -> F32Offer {
        let (rel, env_abs) = crate::f32_screen_envelope_parts(f);
        F32Offer {
            rel_u: rel * user_norm,
            env_abs,
        }
    }

    /// `|ŝ − s| ≤ envelope(‖i‖)` for this user against an item of exact
    /// norm `item_norm`.
    #[inline(always)]
    pub fn envelope(&self, item_norm: f64) -> f64 {
        self.rel_u.mul_add(item_norm, self.env_abs)
    }
}

/// One user's side of the int8 screen's **offer expression**: column `j`
/// with integer dot `D`, inverse item scale `1/s_i` and item L1 norm
/// `‖i‖₁` has upper bound `hi = score(D, 1/s_i) + envelope(1/s_i, ‖i‖₁)`.
/// Shared like [`F32Offer`].
#[derive(Debug, Clone, Copy)]
pub struct I8Offer {
    /// `1 / s_u`.
    inv_su: f64,
    /// `(a_u, b_u)` of [`crate::quant::i8_screen_envelope_parts`].
    env: (f64, f64),
}

impl I8Offer {
    /// The offer terms of a user quantized with scale `user_scale` whose
    /// exact L1 norm is `user_l1`, over `f` factors.
    pub fn for_user(f: usize, user_scale: f64, user_l1: f64) -> I8Offer {
        I8Offer {
            inv_su: 1.0 / user_scale,
            env: crate::i8_screen_envelope_parts(f, user_scale, user_l1),
        }
    }

    /// The screen score `ŝ = D·((1/s_u)·(1/s_i))` — the reconstruction
    /// order the envelope's slack was derived (and is tested) against in
    /// [`crate::quant`]; always finite.
    #[inline(always)]
    pub fn score(&self, dot: i32, item_inv_scale: f64) -> f64 {
        dot as f64 * (self.inv_su * item_inv_scale)
    }

    /// `|ŝ − s| ≤ envelope(1/s_i, ‖i‖₁)` for this user against that item.
    #[inline(always)]
    pub fn envelope(&self, item_inv_scale: f64, item_l1: f64) -> f64 {
        self.env.0 * item_inv_scale + self.env.1 * item_l1
    }
}

/// What a [`Kernel::peak`] probe issues: the instruction a register tile
/// of that element type is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeakOp {
    /// Double-precision fused multiply-add.
    FmaF64,
    /// Single-precision fused multiply-add.
    FmaF32,
    /// The int8 tile's `i16`-pair multiply-add (`vpmaddwd`: two products
    /// and their sum per `i32` lane).
    MaddI16,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("name", &self.name).finish()
    }
}

impl Kernel {
    /// The kernel's identity: `"avx2-fma"`, `"neon"`, or `"scalar"`.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Dot product `xᵀy`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[inline]
    pub fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot: length mismatch");
        (self.dot)(x, y)
    }

    /// Four dot products `xᵀy_i` computed with the **GEMM per-element
    /// reduction**: each product is one sequential fused-multiply-add
    /// chain (bit-identical to the matching `gemm_nt*` output element),
    /// and the four independent chains pipeline so the pass is
    /// throughput-bound rather than FMA-latency-bound.
    ///
    /// # Panics
    /// Panics if any length differs from `x`'s.
    #[inline]
    pub fn dot_seq4(&self, x: &[f64], ys: [&[f64]; 4]) -> [f64; 4] {
        for y in &ys {
            assert_eq!(x.len(), y.len(), "dot_seq4: length mismatch");
        }
        (self.dot_seq4)(x, ys)
    }

    /// Sixteen dot products `xᵀy_i`, each one sequential fused-multiply-add
    /// chain like [`Kernel::dot_seq4`]'s: lane `i` has the bits of
    /// `dot_seq4`'s lane for the same row, and of the matching `gemm_nt*`
    /// output element. One chain waits on its own FMA's latency, so rows
    /// read by id score fastest with many chains in flight: over one user
    /// and 5 200 shuffled rows of f = 50, sixteen took 7 ns per row against
    /// 9–11 ns for eight (a 2-vCPU AVX2 guest).
    ///
    /// # Panics
    /// Panics if any length differs from `x`'s.
    #[inline]
    pub fn dot_seq16(&self, x: &[f64], ys: [&[f64]; 16]) -> [f64; 16] {
        for y in &ys {
            assert_eq!(x.len(), y.len(), "dot_seq16: length mismatch");
        }
        (self.dot_seq16)(x, ys)
    }

    /// Squared Euclidean distance `‖x − y‖²`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[inline]
    pub fn dist2_sq(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dist2_sq: length mismatch");
        (self.dist2_sq)(x, y)
    }

    /// The `f64` GEMM register tile (4×8): the [`Tile`] slot the packed
    /// driver resolves once per multiply. Bit-identical across kernel sets.
    #[inline]
    pub fn tile_f64(&self) -> Tile<f64, f64> {
        self.tile_f64
    }

    /// The `f32` GEMM register tile (4×16; screen path — tolerance, not
    /// bit-identity, see the module docs).
    #[inline]
    pub fn tile_f32(&self) -> Tile<f32, f32> {
        self.tile_f32
    }

    /// Int8 dot product `xᵀy` for the quantized screen path, accumulated
    /// exactly in `i32`. Integer addition is associative, so — unlike the
    /// f32 screen kernels — every kernel set returns the **identical**
    /// integer; the i8 screen's envelope only has to cover quantization,
    /// not accumulation order.
    ///
    /// # Panics
    /// Panics if the lengths differ or exceed
    /// [`crate::quant::I8_DOT_MAX_LEN`] (the i32-overflow guard).
    #[inline]
    pub fn dot_i8(&self, x: &[i8], y: &[i8]) -> i32 {
        assert_eq!(x.len(), y.len(), "dot_i8: length mismatch");
        assert!(
            x.len() <= crate::quant::I8_DOT_MAX_LEN,
            "dot_i8: length exceeds the i32-overflow cap"
        );
        (self.dot_i8)(x, y)
    }

    /// The int8 GEMM register tile (4×16 over `i16`-pair panels, exact
    /// `i32` output — identical under every kernel set).
    #[inline]
    pub fn tile_i8(&self) -> Tile<i16, i32> {
        self.tile_i8
    }

    /// The threshold filter of the fused f64 select: the first index
    /// `j ≥ from` whose score is **not below** `threshold` (`!(s < t)`, so
    /// a NaN is flagged too and reaches the caller's own rule), or `None`.
    ///
    /// This and the two screen filters below only *pre*-filter: the caller
    /// re-applies its exact scalar rule to every flagged lane with its
    /// current threshold. A filter may therefore run on a stale (lower)
    /// threshold — it flags a superset — and every kernel set flags the
    /// same lanes, because each lane's `hi` is evaluated in the same f64
    /// operations, in the same order, as the scalar twin.
    ///
    /// # Panics
    /// Panics if `from > scores.len()`.
    #[inline]
    pub fn next_hit_f64(&self, scores: &[f64], from: usize, threshold: f64) -> Option<usize> {
        assert!(from <= scores.len(), "next_hit_f64: start out of range");
        let j = (self.next_hit_f64)(scores, from, threshold);
        (j < scores.len()).then_some(j)
    }

    /// The f32 screen's filter: the first `j ≥ from` whose upper bound
    /// ([`F32Offer`]) is not below `threshold` **or whose score is not
    /// finite** (an overflowed product carries no bound and must be kept).
    ///
    /// # Panics
    /// Panics if `item_norms` is not as long as `scores` or `from` is out
    /// of range.
    #[inline]
    pub fn next_hit_f32(
        &self,
        scores: &[f32],
        item_norms: &[f64],
        user: F32Offer,
        from: usize,
        threshold: f64,
    ) -> Option<usize> {
        assert_eq!(
            scores.len(),
            item_norms.len(),
            "next_hit_f32: one norm per score"
        );
        assert!(from <= scores.len(), "next_hit_f32: start out of range");
        let j = (self.next_hit_f32)(scores, item_norms, user, from, threshold);
        (j < scores.len()).then_some(j)
    }

    /// The int8 screen's filter: the first `j ≥ from` whose upper bound
    /// ([`I8Offer`]) is not below `threshold`.
    ///
    /// # Panics
    /// Panics if the per-item slices are not as long as `dots` or `from` is
    /// out of range.
    #[inline]
    pub fn next_hit_i8(
        &self,
        dots: &[i32],
        item_inv_scales: &[f64],
        item_l1: &[f64],
        user: I8Offer,
        from: usize,
        threshold: f64,
    ) -> Option<usize> {
        assert_eq!(
            dots.len(),
            item_inv_scales.len(),
            "next_hit_i8: one scale per dot"
        );
        assert_eq!(
            dots.len(),
            item_l1.len(),
            "next_hit_i8: one L1 norm per dot"
        );
        assert!(from <= dots.len(), "next_hit_i8: start out of range");
        let j = (self.next_hit_i8)(dots, item_inv_scales, item_l1, user, from, threshold);
        (j < dots.len()).then_some(j)
    }

    /// The fused select's floor slot: splits `scores` into runs of `group`
    /// lanes from index 0 (the last one may be shorter) and writes the
    /// largest score of each of the first `out.len()` runs to `out` — NaN
    /// lanes skipped, `−∞` for a run without any other, a zero maximum
    /// written as `+0`. The caller's floor is the k-th largest of these
    /// maxima: k real scores of distinct columns. Every kernel set writes
    /// the same bits (see the module docs).
    ///
    /// # Panics
    /// Panics if `group` is 0 or `out` has more slots than `scores` has
    /// runs.
    #[inline]
    pub fn group_max_f64(&self, scores: &[f64], group: usize, out: &mut [f64]) {
        check_groups(scores.len(), group, out);
        (self.group_max_f64)(scores, group, out)
    }

    /// [`Kernel::group_max_f64`] over the f32 screen's per-lane **lower
    /// bounds** `ŝ − envelope` ([`F32Offer`], the offer rule's operations);
    /// a lane whose score is not finite carries no bound and contributes
    /// no maximum.
    ///
    /// # Panics
    /// As [`Kernel::group_max_f64`], or if `item_norms` is not as long as
    /// `scores`.
    #[inline]
    pub fn group_max_f32(
        &self,
        scores: &[f32],
        item_norms: &[f64],
        user: F32Offer,
        group: usize,
        out: &mut [f64],
    ) {
        assert_eq!(
            scores.len(),
            item_norms.len(),
            "group_max_f32: one norm per score"
        );
        check_groups(scores.len(), group, out);
        (self.group_max_f32)(scores, item_norms, user, group, out)
    }

    /// [`Kernel::group_max_f64`] over the int8 screen's per-lane lower
    /// bounds `ŝ − envelope` ([`I8Offer`]).
    ///
    /// # Panics
    /// As [`Kernel::group_max_f64`], or if the per-item slices are not as
    /// long as `dots`.
    #[inline]
    pub fn group_max_i8(
        &self,
        dots: &[i32],
        item_inv_scales: &[f64],
        item_l1: &[f64],
        user: I8Offer,
        group: usize,
        out: &mut [f64],
    ) {
        assert!(
            item_inv_scales.len() == dots.len() && item_l1.len() == dots.len(),
            "group_max_i8: one scale and one L1 norm per dot"
        );
        check_groups(dots.len(), group, out);
        (self.group_max_i8)(dots, item_inv_scales, item_l1, user, group, out)
    }

    /// A register-only throughput probe: issues `rounds` rounds of
    /// [`PEAK_CHAINS`] independent `op` instructions (no loads, no stores)
    /// and returns a checksum that keeps them alive. One instruction is a
    /// full vector under a SIMD set and one element under `scalar` —
    /// [`Kernel::peak_ops_per_round`] converts rounds to arithmetic
    /// operations. `examples/kernel_rates.rs` times this beside the tiles:
    /// the measured peak a GFLOP/s or GOP/s figure is judged against.
    pub fn peak(&self, op: PeakOp, rounds: u64) -> f64 {
        (self.peak)(op, rounds)
    }

    /// Arithmetic operations (a multiply-add counts two) one round of
    /// [`Kernel::peak`] performs under this kernel set.
    pub fn peak_ops_per_round(&self, op: PeakOp) -> u64 {
        let lanes = match (self.name, op) {
            ("scalar", _) => 1,
            ("neon", PeakOp::FmaF64) => 2,
            ("neon", PeakOp::FmaF32) => 4,
            // The portable probe stands in for NEON's integer one.
            ("neon", PeakOp::MaddI16) => 1,
            (_, PeakOp::FmaF64) => 4,
            (_, PeakOp::FmaF32) => 8,
            (_, PeakOp::MaddI16) => 16,
        };
        2 * lanes * PEAK_CHAINS
    }

    /// The portable scalar kernel set (the guaranteed fallback and the
    /// reference for the bit-identity contract).
    pub fn scalar() -> Kernel {
        Kernel {
            name: "scalar",
            dot: crate::kernels::dot_scalar_f64,
            dot_seq4: crate::kernels::dot_seq4_scalar_f64,
            dot_seq16: crate::kernels::dot_seq16_scalar_f64,
            dist2_sq: crate::kernels::dist2_sq_scalar_f64,
            tile_f64: crate::gemm::tile_scalar_f64,
            tile_f32: crate::gemm::tile_scalar_f32,
            dot_i8: crate::kernels::dot_scalar_i8,
            tile_i8: crate::gemm::tile_scalar_i8,
            next_hit_f64: filter::next_hit_f64,
            next_hit_f32: filter::next_hit_f32,
            next_hit_i8: filter::next_hit_i8,
            group_max_f64: filter::group_max_f64,
            group_max_f32: filter::group_max_f32,
            group_max_i8: filter::group_max_i8,
            peak: filter::peak,
        }
    }

    /// The AVX2+FMA kernel set, or `None` if the CPU lacks either feature
    /// (always `None` off x86-64).
    pub fn avx2() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return Some(Kernel {
                    name: "avx2-fma",
                    dot: avx2::dot,
                    dot_seq4: avx2::dot_seq4,
                    dot_seq16: avx2::dot_seq16,
                    dist2_sq: avx2::dist2_sq,
                    tile_f64: avx2::tile_f64,
                    tile_f32: avx2::tile_f32,
                    dot_i8: avx2::dot_i8,
                    tile_i8: avx2::tile_i8,
                    next_hit_f64: avx2::next_hit_f64,
                    next_hit_f32: avx2::next_hit_f32,
                    next_hit_i8: avx2::next_hit_i8,
                    group_max_f64: avx2::group_max_f64,
                    group_max_f32: avx2::group_max_f32,
                    group_max_i8: avx2::group_max_i8,
                    peak: avx2::peak,
                });
            }
            None
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            None
        }
    }

    /// The NEON kernel set, or `None` off `aarch64` (where NEON with
    /// double-precision FMA is a baseline feature, so detection is static).
    pub fn neon() -> Option<Kernel> {
        #[cfg(target_arch = "aarch64")]
        {
            Some(Kernel {
                name: "neon",
                dot: neon::dot,
                // aarch64 guarantees scalar FMA, so the portable body
                // already compiles to fused hardware madds.
                dot_seq4: crate::kernels::dot_seq4_scalar_f64,
                dot_seq16: crate::kernels::dot_seq16_scalar_f64,
                dist2_sq: neon::dist2_sq,
                tile_f64: neon::tile_f64,
                tile_f32: neon::tile_f32,
                dot_i8: neon::dot_i8,
                // No NEON bodies for the int8 tile, the filters and the
                // group maxima: the portable ones are exact, and aarch64's
                // baseline FMA makes their `mul_add`s hardware instructions.
                tile_i8: crate::gemm::tile_scalar_i8,
                next_hit_f64: filter::next_hit_f64,
                next_hit_f32: filter::next_hit_f32,
                next_hit_i8: filter::next_hit_i8,
                group_max_f64: filter::group_max_f64,
                group_max_f32: filter::group_max_f32,
                group_max_i8: filter::group_max_i8,
                peak: neon::peak,
            })
        }
        #[cfg(not(target_arch = "aarch64"))]
        {
            None
        }
    }

    /// Resolves a kernel by name (`"scalar"`, `"avx2"`, `"avx2-fma"`,
    /// `"neon"`), returning `None` for unknown names or kernels this CPU
    /// cannot run. This is the `MIPS_KERNEL` lookup, exposed for tests.
    pub fn by_name(name: &str) -> Option<Kernel> {
        match name {
            "scalar" => Some(Kernel::scalar()),
            "avx2" | "avx2-fma" => Kernel::avx2(),
            "neon" => Kernel::neon(),
            _ => None,
        }
    }

    /// The best kernel this CPU supports, ignoring the environment override.
    pub fn best() -> Kernel {
        Kernel::avx2()
            .or_else(Kernel::neon)
            .unwrap_or_else(Kernel::scalar)
    }
}

/// Asks the cache for the start of `row` ahead of its reads: a prefetch
/// of its first two 64-byte lines on x86-64, nothing elsewhere. The
/// hardware's stream prefetch then follows the row; a hint changes no
/// result.
#[inline(always)]
pub(crate) fn prefetch(row: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    for line in row.chunks(8).take(2) {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch reads no value the program sees and never
        // faults, and the address is in `row` besides.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// Checks a tile call's slices: both panels describe the same depth (in
/// whole `group`-element steps) and an `mr × nr` tile with row stride
/// `ldc` fits in `c`. These are the bounds every pointer access of the
/// SIMD tile bodies relies on, so they are `assert!`s, not debug ones.
#[inline(always)]
pub(crate) fn check_tile<P, C>(
    a: &[P],
    b: &[P],
    c: &[C],
    ldc: usize,
    mr: usize,
    nr: usize,
    group: usize,
) {
    assert!(
        a.len() % (mr * group) == 0 && b.len() % (nr * group) == 0 && a.len() / mr == b.len() / nr,
        "tile: panel depth mismatch"
    );
    assert!((mr - 1) * ldc + nr <= c.len(), "tile: C tile out of bounds");
}

/// Checks a group-maxima call: a non-empty group and at most one output
/// slot per `group`-wide run of `len` lanes.
#[inline(always)]
fn check_groups(len: usize, group: usize, out: &[f64]) {
    assert!(group > 0, "group maxima: empty group");
    assert!(
        out.len() <= len.div_ceil(group),
        "group maxima: more outputs than groups"
    );
}

/// The process-wide active kernel, selected on first use and cached.
///
/// Honors `MIPS_KERNEL` (see the module docs); otherwise picks the best
/// supported set. The selection is intentionally immutable for the process
/// lifetime so mixed-kernel results can never be produced within one run.
pub fn active() -> &'static Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    ACTIVE.get_or_init(|| match std::env::var("MIPS_KERNEL") {
        // A set-but-empty variable (e.g. a CI matrix leg exporting
        // `MIPS_KERNEL: ''`) means "no override", not "force scalar".
        Ok(name) if !name.trim().is_empty() => {
            Kernel::by_name(name.trim()).unwrap_or_else(Kernel::scalar)
        }
        _ => Kernel::best(),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn pseudo(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            })
            .collect()
    }

    /// Every kernel this host can run, always including scalar.
    fn all_kernels() -> Vec<Kernel> {
        let mut ks = vec![Kernel::scalar()];
        ks.extend(Kernel::avx2());
        ks.extend(Kernel::neon());
        ks
    }

    #[test]
    fn by_name_resolves_scalar_everywhere() {
        assert_eq!(Kernel::by_name("scalar").unwrap().name(), "scalar");
        assert!(Kernel::by_name("no-such-kernel").is_none());
    }

    #[test]
    fn active_is_one_of_the_known_kernels() {
        let name = active().name();
        assert!(
            ["scalar", "avx2-fma", "neon"].contains(&name),
            "unexpected kernel {name}"
        );
    }

    #[test]
    fn best_never_panics_and_is_named() {
        assert!(!Kernel::best().name().is_empty());
    }

    #[test]
    fn dot_bit_identical_across_kernels() {
        for len in [0usize, 1, 3, 4, 7, 8, 31, 50, 128, 257] {
            let x = pseudo(len, 11);
            let y = pseudo(len, 13);
            let want = Kernel::scalar().dot(&x, &y);
            for k in all_kernels() {
                let got = k.dot(&x, &y);
                assert!(
                    got.to_bits() == want.to_bits(),
                    "{}: len {len}: {got:e} vs scalar {want:e}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn dot_seq4_bit_identical_across_kernels_and_to_gemm_order() {
        for len in [0usize, 1, 3, 8, 31, 50, 257] {
            let x = pseudo(len, 11);
            let ys: Vec<Vec<f64>> = (0..4).map(|i| pseudo(len, 43 + i)).collect();
            let refs = [&ys[0][..], &ys[1][..], &ys[2][..], &ys[3][..]];
            let want = Kernel::scalar().dot_seq4(&x, refs);
            for k in all_kernels() {
                let got = k.dot_seq4(&x, refs);
                for lane in 0..4 {
                    assert_eq!(
                        got[lane].to_bits(),
                        want[lane].to_bits(),
                        "{} lane {lane} len {len}",
                        k.name()
                    );
                }
            }
            // Each lane is exactly the sequential (GEMM-ordered) chain.
            for lane in 0..4 {
                let mut acc = 0.0f64;
                for (a, b) in x.iter().zip(&ys[lane]) {
                    acc = a.mul_add(*b, acc);
                }
                assert_eq!(want[lane].to_bits(), acc.to_bits(), "lane {lane} len {len}");
            }
        }
    }

    #[test]
    fn dot_seq16_bit_identical_across_kernels_and_to_dot_seq4() {
        // Odd and even lengths: the AVX2 body takes depth steps in pairs
        // and ends an odd length with one.
        for len in [0usize, 1, 2, 3, 8, 31, 50, 257] {
            let x = pseudo(len, 17);
            let ys: Vec<Vec<f64>> = (0..16).map(|i| pseudo(len, 61 + i)).collect();
            let refs: [&[f64]; 16] = std::array::from_fn(|i| &ys[i][..]);
            let want = Kernel::scalar().dot_seq16(&x, refs);
            for k in all_kernels() {
                let got = k.dot_seq16(&x, refs);
                for lane in 0..16 {
                    assert_eq!(
                        got[lane].to_bits(),
                        want[lane].to_bits(),
                        "{} lane {lane} len {len}",
                        k.name()
                    );
                }
                // Lane for lane, the four-chain slot's bits.
                for quad in 0..4 {
                    let four = k.dot_seq4(&x, std::array::from_fn(|i| refs[4 * quad + i]));
                    for lane in 0..4 {
                        assert_eq!(
                            got[4 * quad + lane].to_bits(),
                            four[lane].to_bits(),
                            "{} lane {} len {len}",
                            k.name(),
                            4 * quad + lane
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dot_seq16: length mismatch")]
    fn dot_seq16_rejects_a_short_row() {
        let (x, y, short) = (pseudo(5, 1), pseudo(5, 2), pseudo(4, 3));
        let mut ys: [&[f64]; 16] = [&y; 16];
        ys[13] = &short;
        let _ = active().dot_seq16(&x, ys);
    }

    #[test]
    fn dist2_bit_identical_across_kernels() {
        for len in [0usize, 1, 5, 16, 33, 50, 100] {
            let x = pseudo(len, 21);
            let y = pseudo(len, 23);
            let want = Kernel::scalar().dist2_sq(&x, &y);
            for k in all_kernels() {
                assert_eq!(k.dist2_sq(&x, &y).to_bits(), want.to_bits(), "{}", k.name());
            }
        }
    }

    /// Runs `T`'s tile slot of `kern` on `depth` packed steps into a C
    /// window of row stride `ldc`, preloaded with `fill`.
    fn run_tile<T: crate::GemmElem>(
        kern: &Kernel,
        a: &[T::Panel],
        b: &[T::Panel],
        ldc: usize,
        fill: T::Acc,
        accumulate: bool,
    ) -> Vec<T::Acc> {
        let mut c = vec![fill; (T::MR - 1) * ldc + T::NR + 3];
        T::tile(kern)(a, b, &mut c, ldc, accumulate);
        c
    }

    #[test]
    fn tile_f64_bit_identical_across_kernels_and_store_direct() {
        let (mr, nr) = (<f64 as crate::GemmElem>::MR, <f64 as crate::GemmElem>::NR);
        for depth in [0usize, 1, 2, 7, 49, 50, 51, 256] {
            let a = pseudo(depth * mr, 41);
            let b = pseudo(depth * nr, 43);
            for (ldc, accumulate) in [(nr, false), (nr, true), (nr + 5, false), (nr + 5, true)] {
                let want = run_tile::<f64>(&Kernel::scalar(), &a, &b, ldc, 0.25, accumulate);
                for (i, row) in want.chunks(ldc).enumerate().take(mr) {
                    for (j, &got) in row.iter().enumerate() {
                        if j >= nr {
                            // The gap between tile rows is never written.
                            assert_eq!(got, 0.25, "depth {depth} ldc {ldc} ({i},{j})");
                            continue;
                        }
                        // One sequential chain per element, started at the
                        // preloaded C value only when accumulating.
                        let mut chain = if accumulate { 0.25 } else { 0.0 };
                        for p in 0..depth {
                            chain = a[p * mr + i].mul_add(b[p * nr + j], chain);
                        }
                        assert_eq!(got.to_bits(), chain.to_bits(), "depth {depth} ({i},{j})");
                    }
                }
                for k in all_kernels() {
                    let got = run_tile::<f64>(&k, &a, &b, ldc, 0.25, accumulate);
                    let same = got
                        .iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits());
                    assert!(
                        same,
                        "{} depth {depth} ldc {ldc} acc {accumulate}",
                        k.name()
                    );
                }
            }
        }
    }

    #[test]
    fn tile_i8_identical_across_kernels_including_extreme_codes() {
        let (mr, nr) = (<i8 as crate::GemmElem>::MR, <i8 as crate::GemmElem>::NR);
        for pairs in [0usize, 1, 2, 25, 26, 2048] {
            // Sign-extended codes, the extremes ±127 (and −128) included.
            let code =
                |p: usize, salt: usize| [127i16, -127, -128, 0, 1, -1, 64, -33][(p * 5 + salt) % 8];
            let a: Vec<i16> = (0..pairs * 2 * mr).map(|p| code(p, 3)).collect();
            let mut b: Vec<i16> = (0..pairs * 2 * nr).map(|p| code(p, 6)).collect();
            if pairs == 2048 {
                // All-±127 at f = 4096: the largest sums the tier produces.
                b.iter_mut().for_each(|v| *v = 127);
            }
            for (ldc, accumulate) in [(nr, false), (nr + 3, true)] {
                let want = run_tile::<i8>(&Kernel::scalar(), &a, &b, ldc, -7, accumulate);
                for (i, row) in want.chunks(ldc).enumerate().take(mr) {
                    for (j, &got) in row.iter().take(nr).enumerate() {
                        let dot: i32 = (0..2 * pairs)
                            .map(|p| {
                                let (pair, half) = (p / 2, p % 2);
                                i32::from(a[(pair * mr + i) * 2 + half])
                                    * i32::from(b[(pair * nr + j) * 2 + half])
                            })
                            .sum();
                        assert_eq!(
                            got,
                            dot - if accumulate { 7 } else { 0 },
                            "pairs {pairs} ({i},{j})"
                        );
                    }
                }
                for k in all_kernels() {
                    let got = run_tile::<i8>(&k, &a, &b, ldc, -7, accumulate);
                    assert_eq!(got, want, "{} pairs {pairs} ldc {ldc}", k.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "C tile out of bounds")]
    fn tiles_reject_a_c_window_that_is_too_small() {
        let (a, b) = (pseudo(8, 1), pseudo(16, 2));
        let mut c = vec![0.0f64; 3 * 8 + 7];
        active().tile_f64()(&a, &b, &mut c, 8, false);
    }

    #[test]
    #[should_panic(expected = "panel depth mismatch")]
    fn tiles_reject_panels_of_different_depth() {
        let (a, b) = (pseudo(8, 1), pseudo(24, 2));
        let mut c = vec![0.0f64; 32];
        active().tile_f64()(&a, &b, &mut c, 8, false);
    }

    /// `x` rounded to f32 — the crate's one test-side demotion, so no
    /// other test file needs an `as f32` of its own.
    pub(crate) fn round_f32(x: &[f64]) -> Vec<f32> {
        x.iter().map(|&v| v as f32).collect()
    }

    fn pseudo32(len: usize, seed: u64) -> Vec<f32> {
        round_f32(&pseudo(len, seed))
    }

    #[test]
    fn dot_i8_bit_identical_across_kernels() {
        // Integer accumulation is exact, so the i8 kernels sit inside the
        // bit-identity contract under every kernel set — including shapes
        // that are not multiples of the 16/32-byte vector widths, and the
        // extreme codes ±127.
        for len in [0usize, 1, 3, 15, 16, 17, 31, 32, 33, 50, 127, 257] {
            let x: Vec<i8> = (0..len)
                .map(|j| [127i8, -127, 0, 1, -1, 64, -33][(j * 5 + 3) % 7])
                .collect();
            let y: Vec<i8> = (0..len)
                .map(|j| [-127i8, 127, 5, -5, 0, -90, 17][(j * 11 + 1) % 7])
                .collect();
            let want = Kernel::scalar().dot_i8(&x, &y);
            // The scalar reference agrees with a plain widening loop.
            let naive: i32 = x.iter().zip(&y).map(|(&a, &b)| a as i32 * b as i32).sum();
            assert_eq!(want, naive, "len {len}");
            for k in all_kernels() {
                assert_eq!(k.dot_i8(&x, &y), want, "{} len {len}", k.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflow cap")]
    fn dot_i8_rejects_lengths_past_the_overflow_cap() {
        let too_long = vec![1i8; crate::quant::I8_DOT_MAX_LEN + 1];
        let _ = Kernel::scalar().dot_i8(&too_long, &too_long);
    }

    #[test]
    fn tile_f32_matches_scalar_within_tolerance() {
        let (mr, nr) = (<f32 as crate::GemmElem>::MR, <f32 as crate::GemmElem>::NR);
        for depth in [0usize, 1, 2, 7, 49, 50, 51, 256] {
            let a = pseudo32(depth * mr, 81);
            let b = pseudo32(depth * nr, 83);
            for (ldc, accumulate) in [(nr, false), (nr + 1, true)] {
                let want = run_tile::<f32>(&Kernel::scalar(), &a, &b, ldc, 0.25, accumulate);
                for k in all_kernels() {
                    let got = run_tile::<f32>(&k, &a, &b, ldc, 0.25, accumulate);
                    for (at, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            (g - w).abs() <= 1e-3 * (1.0 + w.abs()),
                            "{} depth {depth} ldc {ldc} at {at}: {g} vs {w}",
                            k.name()
                        );
                    }
                }
            }
        }
    }

    /// Walks a filter to exhaustion at a fixed threshold.
    fn all_hits(mut next: impl FnMut(usize) -> Option<usize>) -> Vec<usize> {
        let mut hits = Vec::new();
        let mut from = 0;
        while let Some(j) = next(from) {
            hits.push(j);
            from = j + 1;
        }
        hits
    }

    #[test]
    fn filters_flag_exactly_the_scalar_rule_lanes_under_every_kernel() {
        // Lengths around the 4-lane groups; thresholds that sit exactly on
        // a lane's `hi` (the `>=` tie), at both infinities (k = 0 heaps
        // and unfilled ones), and in between.
        for len in [0usize, 1, 3, 4, 5, 8, 13, 64, 67] {
            let scores = pseudo(len, 91);
            let norms: Vec<f64> = pseudo(len, 93).iter().map(|v| v.abs() + 0.5).collect();
            let l1: Vec<f64> = pseudo(len, 95)
                .iter()
                .map(|v| 3.0 * v.abs() + 1.0)
                .collect();
            let inv: Vec<f64> = pseudo(len, 97)
                .iter()
                .map(|v| 0.01 * (v.abs() + 0.1))
                .collect();
            let dots: Vec<i32> = scores.iter().map(|v| (v * 40_000.0) as i32).collect();
            let mut s32 = pseudo32(len, 99);
            for (j, v) in s32.iter_mut().enumerate() {
                match j % 11 {
                    3 => *v = f32::NAN,
                    5 => *v = f32::INFINITY,
                    7 => *v = f32::NEG_INFINITY,
                    _ => {}
                }
            }
            let mut s64 = scores.clone();
            if len > 2 {
                s64[2] = f64::NAN;
            }
            let f32u = F32Offer {
                rel_u: 3.0e-7,
                env_abs: 1.0e-30,
            };
            let i8u = I8Offer {
                inv_su: 0.02,
                env: (1.5, 0.004),
            };
            let hi32 = |j: usize| s32[j] as f64 + f32u.rel_u.mul_add(norms[j], f32u.env_abs);
            let hi8 = |j: usize| {
                dots[j] as f64 * (i8u.inv_su * inv[j]) + (i8u.env.0 * inv[j] + i8u.env.1 * l1[j])
            };
            let mut thresholds = vec![f64::NEG_INFINITY, f64::INFINITY, 0.0, 0.5, -1.0];
            if len > 1 {
                thresholds.extend([scores[1], hi32(1), hi8(1)]);
            }
            for &t in &thresholds {
                let want64: Vec<usize> = (0..len)
                    .filter(|&j| s64[j] >= t || s64[j].is_nan())
                    .collect();
                let want32: Vec<usize> = (0..len)
                    .filter(|&j| !s32[j].is_finite() || hi32(j) >= t)
                    .collect();
                let want8: Vec<usize> = (0..len).filter(|&j| hi8(j) >= t).collect();
                for k in all_kernels() {
                    let got = all_hits(|from| k.next_hit_f64(&s64, from, t));
                    assert_eq!(got, want64, "{} f64 len {len} t {t}", k.name());
                    let got = all_hits(|from| k.next_hit_f32(&s32, &norms, f32u, from, t));
                    assert_eq!(got, want32, "{} f32 len {len} t {t}", k.name());
                    let got = all_hits(|from| k.next_hit_i8(&dots, &inv, &l1, i8u, from, t));
                    assert_eq!(got, want8, "{} i8 len {len} t {t}", k.name());
                }
            }
        }
    }

    #[test]
    fn group_maxima_agree_bit_for_bit_under_every_kernel() {
        // Ragged lengths and groups (dividing the length or not, runs that
        // end in a partial vector), whole and prefix output ranges; NaN,
        // ±∞ and signed-zero lanes, and f32 accumulators that are not
        // finite — which carry no bound and must contribute no maximum.
        for len in [0usize, 1, 3, 4, 5, 15, 16, 17, 33, 64, 67, 130] {
            let mut s64 = pseudo(len, 101);
            for (j, v) in s64.iter_mut().enumerate() {
                match j % 13 {
                    2 => *v = f64::NAN,
                    5 => *v = f64::INFINITY,
                    7 => *v = f64::NEG_INFINITY,
                    9 => *v = -0.0,
                    11 => *v = 0.0,
                    _ => {}
                }
            }
            let mut s32 = pseudo32(len, 103);
            for (j, v) in s32.iter_mut().enumerate() {
                match j % 7 {
                    1 => *v = f32::NAN,
                    3 => *v = f32::INFINITY,
                    4 => *v = f32::NEG_INFINITY,
                    _ => {}
                }
            }
            let norms: Vec<f64> = pseudo(len, 105).iter().map(|v| v.abs() + 0.5).collect();
            let l1: Vec<f64> = pseudo(len, 107).iter().map(|v| 3.0 * v.abs()).collect();
            let inv: Vec<f64> = pseudo(len, 109)
                .iter()
                .map(|v| 0.01 * (v.abs() + 0.1))
                .collect();
            let dots: Vec<i32> = pseudo(len, 111)
                .iter()
                .map(|v| (v * 40_000.0) as i32)
                .collect();
            let f32u = F32Offer {
                rel_u: 3.0e-7,
                env_abs: 1.0e-30,
            };
            let i8u = I8Offer {
                inv_su: 0.02,
                env: (1.5, 0.004),
            };
            // The lanes, spelled out independently of `filter.rs`.
            let lo32 = |j: usize| {
                let s = s32[j] as f64;
                let lo = s - f32u.rel_u.mul_add(norms[j], f32u.env_abs);
                if s.is_finite() {
                    lo
                } else {
                    f64::NAN
                }
            };
            let lo8 = |j: usize| {
                dots[j] as f64 * (i8u.inv_su * inv[j]) - (i8u.env.0 * inv[j] + i8u.env.1 * l1[j])
            };
            for group in [1usize, 3, 4, 5, 8, 16, 17, 21, 64] {
                let runs = len.div_ceil(group);
                for count in [runs, runs / 2] {
                    let want = |lane: &dyn Fn(usize) -> f64| -> Vec<u64> {
                        (0..count)
                            .map(|g| {
                                let lanes = g * group..((g + 1) * group).min(len);
                                let m = lanes
                                    .map(lane)
                                    .filter(|v| !v.is_nan())
                                    .fold(f64::NEG_INFINITY, f64::max);
                                (m + 0.0).to_bits()
                            })
                            .collect()
                    };
                    let (want64, want32, want8) = (want(&|j| s64[j]), want(&lo32), want(&lo8));
                    for k in all_kernels() {
                        let label = format!("{} len {len} group {group} count {count}", k.name());
                        let mut out = vec![f64::NAN; count];
                        let bits =
                            |out: &[f64]| out.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        k.group_max_f64(&s64, group, &mut out);
                        assert_eq!(bits(&out), want64, "f64 {label}");
                        k.group_max_f32(&s32, &norms, f32u, group, &mut out);
                        assert_eq!(bits(&out), want32, "f32 {label}");
                        k.group_max_i8(&dots, &inv, &l1, i8u, group, &mut out);
                        assert_eq!(bits(&out), want8, "i8 {label}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "more outputs than groups")]
    fn group_maxima_reject_more_outputs_than_groups() {
        Kernel::scalar().group_max_f64(&[1.0; 9], 4, &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn group_maxima_reject_an_empty_group() {
        active().group_max_f64(&[1.0; 9], 0, &mut []);
    }

    #[test]
    fn peak_probes_run_and_report_their_work() {
        for k in all_kernels() {
            for op in [PeakOp::FmaF64, PeakOp::FmaF32, PeakOp::MaddI16] {
                assert!(k.peak(op, 100).is_finite(), "{} {op:?}", k.name());
                assert!(k.peak_ops_per_round(op) >= 2 * PEAK_CHAINS);
            }
        }
    }
}

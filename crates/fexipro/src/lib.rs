//! A Rust port of FEXIPRO, the exact MIPS index of Li et al. (SIGMOD 2017
//! \[21\]) — the second state-of-the-art baseline in the paper's evaluation.
//!
//! FEXIPRO is a *point-query* index (one user at a time; it does not batch
//! users, which is why the paper's OPTIMUS can apply its incremental t-test
//! to it, §IV-A). Items are scanned in descending-norm order and run through
//! a cascade of pruning filters before a verification dot:
//!
//! * **S — SVD transform** ([`transform`]): an orthogonal change of basis
//!   from the item matrix's SVD reorders coordinates by energy, so a partial
//!   inner product over the first `h` coordinates plus a Cauchy–Schwarz
//!   suffix bound is tight.
//! * **I — integer quantization** ([`quant`]): scaled ceil-rounded integer
//!   vectors whose integer dot product upper-bounds the magnitude of the
//!   real one, replacing floating-point multiplies with cheap integer ops.
//! * **R — reduction** ([`transform::Reduction`]): appends one coordinate to
//!   equalize item norms (the MIPS→cosine embedding of Bachrach et al.),
//!   giving a norm-independent angular bound. As in the paper's
//!   measurements, the extra filter's overhead can exceed its benefit —
//!   FEXIPRO-SIR is often no faster than FEXIPRO-SI.
//!
//! The paper benchmarks the presets [`FexiproConfig::si`] (SVD + integer)
//! and [`FexiproConfig::sir`] (all three), and those are the only two
//! configurations: S and I always run, at a fixed 90 % energy checkpoint
//! and 12-bit quantization, and R is the one switch. The serving engine
//! serves both by name only: neither won a plan-census cell by over 1.1×.
//! An SVD that fails (an item Gram matrix past the f64 range) leaves the
//! identity basis, so S still bounds, just less tightly.
//!
//! The index holds item-side state only. A query derives the user's
//! transform (one mat-vec against the stored basis), codes and envelope
//! into a caller-owned [`FexiproScratch`], so it serves any vector, and its
//! resident bytes ([`FexiproIndex::resident_bytes`]) do not grow with the
//! model's users.
//!
//! Like our LEMP port, all pruning bounds are inflated by a relative epsilon
//! and survivors are verified against the *original* vectors — rows of the
//! caller's item matrix, read by id — with the four-lane `dot`. Each verified score is offered to the workspace's one
//! screen-then-rescore, [`mips_topk::Shortlist`], whose chain rescore makes
//! the answer bit-identical to the oracle, [`mips_topk::exact_topk`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod index;
pub mod quant;
pub mod transform;

pub use config::FexiproConfig;
pub use index::{FexiproIndex, FexiproScratch, FexiproStats};

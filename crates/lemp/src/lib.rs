//! A Rust port of LEMP, the exact MIPS index of Teflioudi et al.
//! (SIGMOD 2015 \[34\], TODS 2016 \[33\]) — one of the two state-of-the-art
//! baselines the paper evaluates OPTIMUS/MAXIMUS against.
//!
//! LEMP's divide-and-conquer strategy (§II-C of the paper):
//!
//! 1. **Bucketing** — items are sorted by vector norm, descending, and
//!    partitioned into buckets of roughly equal magnitude. For a user whose
//!    current top-k threshold is `t`, any bucket whose largest norm `b₁`
//!    satisfies `‖u‖·b₁ < t` can be skipped — and because buckets descend in
//!    norm, the whole scan stops there.
//! 2. **Per-bucket retrieval** — inside a bucket the problem becomes a small
//!    cosine-similarity search. LEMP chooses among retrieval algorithms per
//!    bucket by *testing each on a sample of users*: here LENGTH
//!    (norm-bound scanning) and INCR (partial inner products bounded by
//!    Cauchy–Schwarz on the coordinate suffix), the combination the paper
//!    benchmarks as LEMP-LI.
//! 3. **Verification** — candidates that survive pruning are scored with a
//!    full inner product against the *original* item vector and offered to
//!    the workspace's one screen-then-rescore, [`mips_topk::Shortlist`],
//!    whose chain rescore makes the answer bit-identical to the oracle,
//!    [`mips_topk::exact_topk`].
//!
//! The sample-driven tuner is deliberately retained: the paper's Fig. 7
//! shows that LEMP's runtime estimates have high variance precisely because
//! two user samples can select different per-bucket strategies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod config;
pub mod index;
pub mod scan;
pub mod tuner;

pub use config::LempConfig;
pub use index::{LempIndex, QueryStats};
pub use scan::RetrievalAlgo;

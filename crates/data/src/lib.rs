//! Matrix-factorization models and synthetic dataset stand-ins.
//!
//! The paper evaluates MIPS solvers on factor matrices from 23 reference
//! models over four datasets (Netflix Prize, Yahoo Music KDD, Yahoo Music R2,
//! GloVe-Twitter; Table I). Those raw datasets are proprietary or multi-GB
//! downloads, but MIPS solver behaviour depends only on the *distribution of
//! the factor vectors*, so this crate provides:
//!
//! * [`model`] — the [`model::MfModel`] type every solver consumes,
//! * [`synth`] — generators with the four knobs that decide which solver wins
//!   (user clusteredness, item-norm skew, spectral decay, shape),
//! * [`catalog`] — one scaled stand-in per paper model
//!   (`Netflix-DSGD f=50`, `KDD-REF f=51`, …),
//! * [`sparse`] — the sparse vector type, sparsity statistics and sparse
//!   catalog generators for the inverted-index backend,
//! * [`stats`] — the dataset statistics `examples/paper.rs` prints for
//!   `table1`.
//!
//! The factors arrive trained: this crate generates stand-ins for them and
//! validates them, it does not fit them. Everything is deterministic given a
//! seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod model;
pub mod sparse;
pub mod stats;
pub mod synth;

pub use catalog::{reference_models, ModelSpec};
pub use model::{
    is_tiny_row, MfModel, Mirror, Mirror32, MirrorElem, MirrorI8, MirrorSlots, ModelError,
};
pub use sparse::{synth_sparse_model, SparseError, SparseSynthConfig, SparseVec, SparsityStats};
pub use stats::DatasetStats;
pub use synth::{synth_model, SynthConfig};

//! # optimus-maximus
//!
//! A from-scratch Rust implementation of *"To Index or Not to Index:
//! Optimizing Exact Maximum Inner Product Search"* (Abuzaid, Sethi, Bailis,
//! Zaharia — ICDE 2019), including every system the paper builds on:
//!
//! | Piece | What it is | Crate |
//! |---|---|---|
//! | Engine | request/response serving facade with pluggable backends | [`core::engine`] |
//! | BMM | hardware-efficient brute force (blocked GEMM + fused top-k): the one-cluster MAXIMUS walk | [`MaximusIndex::brute_force`](core::maximus::MaximusIndex::brute_force) |
//! | MAXIMUS | the paper's clustered, bound-sorted exact index | [`core::maximus`] |
//! | OPTIMUS | the online sample-based optimizer, now the engine's planner | [`core::optimus`] |
//! | LEMP | baseline index of Teflioudi et al. (SIGMOD'15) | [`lemp`] |
//! | FEXIPRO | baseline index of Li et al. (SIGMOD'17) | [`fexipro`] |
//! | substrates | BLAS-like kernels, k-means, top-k heaps, synthetic MF models | [`linalg`], [`clustering`], [`topk`], [`data`] |
//! | front door | std-only HTTP/1.1 serving layer: deadlines, admission control, hot swap (feature `net`, on by default) | `net` |
//!
//! ## Quickstart
//!
//! Assemble an [`Engine`](core::engine::Engine) from a model and a set of
//! backends, then serve [`QueryRequest`](core::engine::QueryRequest)s. The
//! first request at each `k` runs the OPTIMUS planner and caches the
//! winning backend; later requests reuse the decision.
//!
//! ```
//! use optimus_maximus::prelude::*;
//! use std::sync::Arc;
//!
//! // A small synthetic matrix-factorization model (users × f, items × f).
//! let model = Arc::new(synth_model(&SynthConfig {
//!     num_users: 200,
//!     num_items: 500,
//!     num_factors: 16,
//!     ..SynthConfig::default()
//! }));
//!
//! // Engine = model + registered backends (+ serving options).
//! let engine = EngineBuilder::new()
//!     .model(Arc::clone(&model))
//!     .with_default_backends()
//!     .build()?;
//!
//! // Top-5 for everyone; the planner picks the backend.
//! let all = engine.execute(&QueryRequest::top_k(5))?;
//! assert_eq!(all.results.len(), 200);
//! assert_eq!(all.results[0].len(), 5);
//!
//! // Top-3 for two specific users, excluding an already-rated item.
//! let response = engine.execute(
//!     &QueryRequest::top_k(3)
//!         .users(vec![7, 42])
//!         .exclude(ExclusionSet::from_pairs([(7usize, 10u32)])),
//! )?;
//! assert!(!response.results[0].items.contains(&10));
//!
//! // Malformed requests are typed errors, never panics.
//! assert!(engine.execute(&QueryRequest::top_k(0)).is_err());
//! # Ok::<(), MipsError>(())
//! ```
//!
//! The `examples/` directory walks through the engine and planner
//! (`quickstart`), a word-embedding similarity search over new query
//! vectors, and an optimizer tour across contrasting workloads;
//! `examples/paper.rs` regenerates every table and figure of the paper's
//! evaluation through the same engine and planner that serve, and
//! `benchmark/` is the repo's one end-to-end benchmark (see
//! `benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mips_clustering as clustering;
pub use mips_core as core;
pub use mips_data as data;
pub use mips_fexipro as fexipro;
pub use mips_lemp as lemp;
pub use mips_linalg as linalg;
#[cfg(feature = "net")]
pub use mips_net as net;
pub use mips_sparse as sparse;
pub use mips_topk as topk;

/// The most common imports, bundled.
pub mod prelude {
    pub use mips_core::engine::{
        BackendRegistry, BmmFactory, Engine, EngineBuilder, EngineOptions, ExclusionSet,
        FexiproFactory, FnFactory, LempFactory, MaximusFactory, MipsError, PreparedPlan,
        QueryRequest, QueryResponse, QueryVector, SolverFactory, SparseFactory, UserSelection,
        VectorQueryRequest,
    };
    pub use mips_core::maximus::{MaximusConfig, MaximusIndex};
    pub use mips_core::optimus::{Optimus, OptimusConfig};
    pub use mips_core::serve::{
        LatencySnapshot, MipsServer, ResponseHandle, ServeOptions, ServerBuilder, ServerMetrics,
        ShardMetrics,
    };
    pub use mips_core::solver::MipsSolver;
    pub use mips_core::verify::check_all_topk;
    pub use mips_core::{FexiproSolver, LempSolver, SparseSolver};
    pub use mips_data::catalog::{reference_models, ModelSpec};
    pub use mips_data::sparse::{SparseVec, SparsityStats};
    pub use mips_data::synth::{synth_model, SynthConfig};
    pub use mips_data::{MfModel, ModelError};
    pub use mips_fexipro::FexiproConfig;
    pub use mips_lemp::LempConfig;
    #[cfg(feature = "net")]
    pub use mips_net::{HttpServer, HttpServerBuilder, NetMetrics};
    pub use mips_sparse::InvertedIndex;
    pub use mips_topk::TopKList;
}

//! Exact maximum inner product search behind a request/response serving
//! engine: blocked matrix multiply, the MAXIMUS index, and the OPTIMUS
//! online optimizer as the engine's query planner.
//!
//! This crate implements the two contributions of *"To Index or Not to
//! Index: Optimizing Exact Maximum Inner Product Search"* (Abuzaid et al.,
//! ICDE 2019) and packages them — together with the LEMP and FEXIPRO
//! baseline ports — behind one fallible, pluggable facade:
//!
//! * [`engine`] — **the primary public API.** An
//!   [`EngineBuilder`] assembles a model with a set
//!   of registered backends; [`QueryRequest`] /
//!   [`QueryResponse`] express per-request `k`,
//!   user ranges or explicit id lists, and per-user item exclusions;
//!   every entry point returns `Result<_, MipsError>` instead of
//!   panicking; and [`PreparedPlan`] caches the
//!   planner's choice so repeated requests never re-sample.
//! * [`maximus`] — the paper's index (§III): k-means user clusters, a
//!   per-cluster sorted item list under the Koenigstein angular bound, and
//!   work-shared blocked multiplies down each list. With one cluster it is
//!   the hardware-efficient brute force (§II-B,
//!   [`MaximusIndex::brute_force`]): blocked matrix multiply with fused
//!   top-k over the norm-sorted catalog, in cache-sized user batches.
//! * [`optimus`] — the paper's optimizer (§IV): times candidates on a
//!   small user sample sized to occupy the L2 cache, optionally stops
//!   early with an incremental t-test, and picks the estimated winner.
//!   The engine invokes it through [`Optimus::choose`](optimus::Optimus::choose)
//!   as its query planner — a staged race that builds an index only while
//!   it can still win.
//! * [`solver`] — the [`solver::MipsSolver`] trait every backend
//!   implements.
//! * [`parallel`] — user-partitioned multi-core serving (Fig. 6). New code
//!   reaches it by setting [`engine::EngineOptions::threads`]; the free
//!   functions remain for direct solver access.
//! * [`serve`] — the concurrent serving runtime: a [`MipsServer`] fronts
//!   an engine with a persistent worker pool behind a bounded submission
//!   queue, dynamic micro-batching of small same-`(epoch, k)` requests,
//!   large requests cut into one piece per worker, and latency/throughput
//!   metrics.
//! * [`verify`] — a semantic exactness checker used throughout the test
//!   suite.
//!
//! ## Serving in five lines
//!
//! ```
//! use mips_core::engine::{EngineBuilder, QueryRequest};
//! use mips_data::synth::{synth_model, SynthConfig};
//! use std::sync::Arc;
//!
//! let model = Arc::new(synth_model(&SynthConfig {
//!     num_users: 80, num_items: 100, num_factors: 8,
//!     ..SynthConfig::default()
//! }));
//! let engine = EngineBuilder::new().model(model).with_default_backends().build()?;
//! let top5 = engine.execute(&QueryRequest::top_k(5))?;
//! assert_eq!(top5.results.len(), 80);
//! # Ok::<(), mips_core::engine::MipsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapters;
pub mod engine;
pub mod maximus;
#[cfg(mips_model_check)]
#[doc(hidden)]
pub mod model_support;
pub mod optimus;
pub mod parallel;
pub mod precision;
pub mod serve;
pub mod solver;
pub mod sync;
pub mod verify;

pub use adapters::{FexiproSolver, LempSolver, SparseSolver};
pub use engine::{
    BackendRegistry, Engine, EngineBuilder, EngineOptions, ExclusionSet, MipsError, PreparedPlan,
    QueryRequest, QueryResponse, SolverFactory, UserSelection,
};
pub use maximus::{MaximusConfig, MaximusIndex};
pub use optimus::{Optimus, OptimusConfig};
pub use precision::Precision;
pub use serve::{
    LatencySnapshot, MipsServer, ResponseHandle, ServeOptions, ServerBuilder, ServerMetrics,
    ShardMetrics,
};
pub use solver::MipsSolver;

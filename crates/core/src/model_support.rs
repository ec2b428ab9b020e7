//! Model-check surface: the concurrency-protocol internals, exported for
//! the `model_check` test suite only.
//!
//! This module exists **only** under `--cfg mips_model_check` and is
//! `#[doc(hidden)]` — it is not API. The model suite drives the epoch
//! cache, the bounded queue, the micro-batcher, and the pending-response
//! protocol directly (with toy items where the production item would need
//! a real engine), so the protocols are explored exhaustively without
//! building models. Everything here is a plain re-export of the internal
//! items plus a few accessor functions for counter fields the tests
//! assert on.

pub use crate::engine::epoch::{get_or_build, ArcCell, CacheCell};
pub use crate::serve::batcher::collect_batch;
pub use crate::serve::metrics::ServerCounters;
pub use crate::serve::queue::{BoundedQueue, QueueItem};
pub use crate::serve::split::Pending;
pub use mips_topk::TopKList;

use crate::sync::atomic::Ordering;

/// Requests the server-wide counters have rolled up as completed.
pub fn server_completed(counters: &ServerCounters) -> u64 {
    counters.completed.load(Ordering::Relaxed)
}

/// Requests the server-wide counters have rolled up as failed.
pub fn server_failed(counters: &ServerCounters) -> u64 {
    counters.failed.load(Ordering::Relaxed)
}

/// End-to-end latency samples the server-wide histogram has recorded.
pub fn server_latency_count(counters: &ServerCounters) -> u64 {
    counters.latency.snapshot().count
}

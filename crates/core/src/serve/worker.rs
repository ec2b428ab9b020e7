//! The persistent worker pool.
//!
//! Workers loop on the shared submission queue: pop one sub-request,
//! optionally grow it into a micro-batch, execute it, and scatter results.
//! Any worker serves any user: the pool stays fully utilized under skewed
//! traffic, and the pieces of a request too large for one batch are
//! drained by every idle worker at once.
//!
//! Workers hold no per-epoch state: each sub-request carries the model
//! epoch it was admitted on, so after a
//! [`swap_model`](crate::engine::Engine::swap_model) old-epoch work drains
//! on the old epoch while new-epoch work runs on the new one, without
//! restarting anything.
//!
//! A panicking backend (a custom factory or solver) must not wedge callers
//! blocked on a [`super::ResponseHandle`], so each batch executes under
//! `catch_unwind`: affected requests complete with
//! [`MipsError::WorkerPanicked`] and the worker survives to serve the next
//! item.

use super::batcher::{collect_batch, execute_batch};
use super::ServerShared;
use crate::engine::MipsError;
use crate::sync::Arc;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The body of one worker thread.
pub(crate) fn run_worker(shared: Arc<ServerShared>) {
    while let Some(first) = shared.queue.pop() {
        let max_batch = shared.config.max_batch;
        let batch = if first.batchable(max_batch) {
            collect_batch(&shared.queue, first, max_batch)
        } else {
            vec![first]
        };
        // Keep handles to every affected pending so a panic mid-execution
        // can still complete them with an error. `fail` on an
        // already-finished pending is a no-op, so blanket-failing after a
        // panic only touches the requests the panic actually cut short.
        let pendings: Vec<_> = batch.iter().map(|s| Arc::clone(&s.pending)).collect();
        let executed = catch_unwind(AssertUnwindSafe(|| {
            execute_batch(&shared.engine, &shared.counters, batch)
        }));
        if let Err(payload) = executed {
            let message = panic_message(payload.as_ref());
            for pending in pendings {
                pending.fail(MipsError::WorkerPanicked {
                    message: message.clone(),
                });
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "backend panicked".to_string()
    }
}

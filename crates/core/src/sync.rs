//! The crate's single doorway to synchronization primitives.
//!
//! Every module in `mips-core` imports `Mutex`/`RwLock`/`Condvar`/
//! atomics/`thread` through this facade instead of `std::sync` /
//! `std::thread` directly (`mips-lint` enforces it). In a normal build
//! the facade is nothing but `pub use std::...` re-exports — zero
//! runtime cost, identical types. Under `--cfg mips_model_check`
//! (`RUSTFLAGS="--cfg mips_model_check"`) the lock, condvar, atomic,
//! and spawn/join types come from the vendored `loom` shim instead:
//! every operation becomes a yield point of a deterministic scheduler
//! that exhaustively explores interleavings, which is what the
//! `model_check` test suite runs under.
//!
//! Deliberately **always std**, in both cfgs:
//!
//! * [`Arc`]/`Weak` — refcount bumps are uninstrumented; epoch-lifetime
//!   suites observe refcounts through `Arc::strong_count`/`Weak`
//!   directly, which stay exact because the model serializes threads.
//! * [`OnceLock`] — used for process-wide lazy statics (kernel
//!   dispatch, shared empty maps) whose state intentionally outlives a
//!   single model execution.
//! * [`PoisonError`]/[`LockResult`] — the loom shim reuses the std
//!   error type, so `unwrap_or_else(PoisonError::into_inner)` call
//!   sites compile unchanged under both cfgs.
//! * [`Barrier`] and [`thread::scope`]/[`thread::sleep`]/
//!   [`thread::available_parallelism`] — used by the data-parallel scan
//!   path and unit tests only; scoped threads are outside the model
//!   (model suites drive the serve/epoch protocols, which don't use
//!   them).

#[cfg(not(mips_model_check))]
mod imp {
    pub use std::sync::{
        Arc, Barrier, Condvar, LockResult, Mutex, MutexGuard, OnceLock, PoisonError, RwLock,
        RwLockReadGuard, RwLockWriteGuard, Weak,
    };

    /// Atomic types and memory orderings (std in normal builds).
    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }

    /// Thread spawn/join and scoped threads (std in normal builds).
    pub mod thread {
        pub use std::thread::{
            available_parallelism, scope, sleep, spawn, yield_now, Builder, JoinHandle, Scope,
            ScopedJoinHandle,
        };
    }
}

#[cfg(mips_model_check)]
mod imp {
    pub use loom::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
    pub use std::sync::{Arc, Barrier, LockResult, OnceLock, PoisonError, Weak};

    /// Atomic types and memory orderings (loom-instrumented).
    pub mod atomic {
        pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }

    /// Thread spawn/join (loom-instrumented); scoped threads and
    /// timing remain std and are not modeled.
    pub mod thread {
        pub use loom::thread::{spawn, yield_now, Builder, JoinHandle};
        pub use std::thread::{available_parallelism, scope, sleep, Scope, ScopedJoinHandle};
    }
}

pub use imp::*;

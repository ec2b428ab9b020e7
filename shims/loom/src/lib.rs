//! Offline stand-in for the `loom` crate: a deterministic concurrency
//! model checker.
//!
//! The build environment has no network access, so this workspace vendors
//! a minimal, std-only model checker in the spirit of `loom 0.7`. It is
//! consumed through the `mips-core` `sync` facade: under
//! `--cfg mips_model_check` the facade re-exports the instrumented
//! `Mutex`/`RwLock`/`Condvar`/atomics/`thread` types from this crate
//! instead of `std`, and concurrency tests wrap their bodies in
//! [`model`].
//!
//! # How it works
//!
//! [`model`] runs the closure repeatedly, once per *schedule*. Each run
//! spawns real OS threads, but a cooperative scheduler lets exactly one
//! run at a time: every instrumented operation (lock, unlock, atomic
//! access, notify, spawn, join) is a *yield point* where the scheduler
//! picks which thread continues. The sequence of picks is explored
//! exhaustively, depth-first, under a *preemption bound* (CHESS-style:
//! only schedules with at most `preemption_bound` involuntary context
//! switches are visited, which is where the overwhelming majority of
//! concurrency bugs live). A failed assertion, panic, or deadlock aborts
//! the run and reports the exact decision sequence — the *trace seed* —
//! which replays the same interleaving deterministically via [`replay`]
//! or the `MIPS_MODEL_REPLAY` environment variable.
//!
//! There is no model of time: a condvar waiter wakes only by
//! notification, and a state where no thread is runnable is reported as a
//! deadlock.
//!
//! # Model limitations
//!
//! * Atomics are modeled as **sequentially consistent** regardless of the
//!   `Ordering` argument. Relaxed/acquire/release reorderings are *not*
//!   explored; the checker proves interleaving-level correctness, while
//!   the ThreadSanitizer CI leg covers the memory-model axis.
//! * `Condvar::notify_one` deterministically wakes the lowest-id waiter
//!   rather than branching over all waiters.
//! * All shared state must be created **inside** the closure passed to
//!   [`model`]; state captured from outside leaks between schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod scheduler;

pub mod sync;
pub mod thread;

pub use model::{explore, model, model_with, replay, Config, Failure, Report};

//! Epoch-versioned engine state: the mechanism behind hot model swap.
//!
//! Everything derived from a model — built solver indexes, cached
//! [`PreparedPlan`]s — lives inside one [`ModelEpoch`]. The engine holds the
//! current epoch behind an [`ArcCell`] and replaces the whole epoch
//! atomically on [`swap_model`](super::Engine::swap_model): a request
//! snapshots the epoch `Arc` once on entry and runs against that snapshot
//! end to end, so it can never observe a half-swapped mixture of old model
//! and new caches. Old epochs are reclaimed by reference counting — the
//! last in-flight request holding the snapshot drops it, which frees the
//! model, every built index, and every cached plan of that epoch.

use super::lock_recovering;
use super::plan::PreparedPlan;
use crate::optimus::TrafficClass;
use crate::solver::MipsSolver;
use crate::sync::{Arc, Mutex, PoisonError, RwLock};
use mips_data::MfModel;
use mips_topk::ScreenTier;
use std::collections::HashMap;

/// One lazily-filled cache slot. The outer map lock is held only long
/// enough to fetch the cell; expensive work (index construction, planning)
/// happens **outside** any lock and is installed through
/// [`get_or_build`] — compare-and-swap semantics, not hold-the-lock-while-
/// building.
pub type CacheCell<T> = Arc<Mutex<Option<T>>>;

/// Returns the cached value of `cell`, or builds one and installs it.
///
/// The build runs outside the cell lock: a slow first-touch build (a
/// MAXIMUS index over millions of users, a long OPTIMUS sampling run)
/// never convoys other first-touch builders behind a held mutex —
/// each racer builds concurrently, the first to finish installs, and a
/// loser discards its redundant value and adopts the installed one, so
/// every caller still observes a single canonical instance. The loser's
/// work is wasted only in the rare first-touch race, which is the price of
/// never serializing construction; steady state is a lock-free-in-spirit
/// read (one mutex acquisition, no contention).
pub fn get_or_build<T: Clone, E>(
    cell: &CacheCell<T>,
    build: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    if let Some(value) = lock_recovering(cell).as_ref() {
        return Ok(value.clone());
    }
    let built = build()?;
    let mut slot = lock_recovering(cell);
    Ok(slot.get_or_insert(built).clone())
}

/// A solver's identity inside one epoch: its registry key and screen tier
/// (`None`: the plain f64 build). Typed, so a backend registered under a
/// key that *looks* like another backend's screen variant (`"bmm+f32"`) can
/// never share its cell.
pub(crate) type SolverKey = (String, Option<ScreenTier>);

/// A plan's identity inside one epoch: the `k` it serves and the class of
/// the calls it serves ([`TrafficClass`]: one user or a few per call, or
/// many).
pub(crate) type PlanKey = (usize, TrafficClass);

/// A keyed map of lazily-filled cache cells (one tier of an epoch's
/// derived state).
pub(crate) type CacheTier<K, T> = Mutex<HashMap<K, CacheCell<T>>>;

/// One model generation and every piece of state derived from it.
///
/// Epoch ids are assigned by the engine, strictly increasing, never reused;
/// `id` therefore identifies a model generation across the whole serving
/// stack (responses, metrics, the micro-batcher's coalescing key).
///
/// Derived state comes in two cache tiers — built `solvers` and
/// per-[`PlanKey`] `plans`, shared by every worker — both epoch-scoped and
/// reclaimed together by refcount when the last in-flight request drops
/// the epoch.
pub(crate) struct ModelEpoch {
    /// The strictly increasing generation number (the builder starts at 0).
    pub(crate) id: u64,
    /// The model this epoch serves.
    pub(crate) model: Arc<MfModel>,
    /// Built solvers — derived from `model`, so the cache lives and dies
    /// with the epoch — keyed by `(registry key, screen tier)`: `None` tier
    /// is the plain f64 build. A cached `None` value records that the
    /// backend has no variant in that tier.
    pub(crate) solvers: CacheTier<SolverKey, Option<Arc<dyn MipsSolver>>>,
    /// Cached planning decisions per `k` and traffic class — likewise
    /// epoch-scoped, because a plan pins the model and solver it was
    /// sampled on. The point and bulk plans at one `k` share every solver
    /// both races built.
    pub(crate) plans: CacheTier<PlanKey, Arc<PreparedPlan>>,
}

impl ModelEpoch {
    /// A fresh epoch with empty caches.
    pub(crate) fn new(id: u64, model: Arc<MfModel>) -> ModelEpoch {
        ModelEpoch {
            id,
            model,
            solvers: Mutex::new(HashMap::new()),
            plans: Mutex::new(HashMap::new()),
        }
    }
}

/// A hand-rolled `arc_swap`-style cell: an `Arc<T>` slot with atomic
/// replacement, built on `std` only.
///
/// A truly lock-free pointer swap needs deferred reclamation (hazard
/// pointers or epoch GC) that `std` does not provide, so this cell uses an
/// `RwLock` whose critical sections are a single refcount bump: readers
/// clone the `Arc` under the read lock, writers replace it under the write
/// lock. Readers never block each other, and a writer (one per model swap)
/// holds the lock for nanoseconds — the cost model of `arc_swap`, minus
/// the unsafe code.
pub struct ArcCell<T> {
    inner: RwLock<Arc<T>>,
}

impl<T> ArcCell<T> {
    /// A cell holding `value`.
    pub fn new(value: Arc<T>) -> ArcCell<T> {
        ArcCell {
            inner: RwLock::new(value),
        }
    }

    /// Snapshots the current value (cheap: one refcount bump).
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.inner.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically replaces the value with `replace(current)`, returning the
    /// newly installed `Arc`. The closure runs under the write lock, so
    /// read-modify-write updates (e.g. "next epoch id = current + 1") are
    /// race-free even with concurrent swappers.
    pub fn swap_with(&self, replace: impl FnOnce(&Arc<T>) -> Arc<T>) -> Arc<T> {
        let mut slot = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let next = replace(&slot);
        *slot = Arc::clone(&next);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn load_returns_the_installed_value_and_swap_is_read_modify_write() {
        let cell = ArcCell::new(Arc::new(1u64));
        assert_eq!(*cell.load(), 1);
        let installed = cell.swap_with(|old| Arc::new(**old + 1));
        assert_eq!(*installed, 2);
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn concurrent_swaps_never_lose_an_increment() {
        let cell = Arc::new(ArcCell::new(Arc::new(0u64)));
        let max_seen = AtomicU64::new(0);
        crate::sync::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                let max_seen = &max_seen;
                scope.spawn(move || {
                    for _ in 0..100 {
                        let v = cell.swap_with(|old| Arc::new(**old + 1));
                        max_seen.fetch_max(*v, Ordering::Relaxed);
                    }
                });
            }
        });
        // 400 swaps, each +1 under the write lock: no lost updates.
        assert_eq!(*cell.load(), 400);
        assert_eq!(max_seen.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn get_or_build_installs_first_winner_and_losers_adopt_it() {
        use crate::sync::Barrier;
        let cell: CacheCell<Arc<u64>> = CacheCell::default();
        let built = AtomicU64::new(0);
        let barrier = Barrier::new(4);
        let results: Vec<Arc<u64>> = crate::sync::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let cell = &cell;
                    let built = &built;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        get_or_build(cell, || {
                            built.fetch_add(1, Ordering::SeqCst);
                            Ok::<_, ()>(Arc::new(i as u64))
                        })
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Racers may each have built (no convoy — that is the point), but
        // everyone ends up holding the single installed instance.
        assert!(built.load(Ordering::SeqCst) >= 1);
        for value in &results {
            assert!(Arc::ptr_eq(value, &results[0]), "all adopt the winner");
        }
        // Later callers hit the cache without building.
        let before = built.load(Ordering::SeqCst);
        let again = get_or_build(&cell, || Ok::<_, ()>(Arc::new(99))).unwrap();
        assert!(Arc::ptr_eq(&again, &results[0]));
        assert_eq!(built.load(Ordering::SeqCst), before);
    }

    #[test]
    fn get_or_build_errors_leave_the_cell_empty_for_retry() {
        let cell: CacheCell<u32> = CacheCell::default();
        assert_eq!(
            get_or_build(&cell, || Err::<u32, &str>("boom")),
            Err("boom")
        );
        assert_eq!(get_or_build(&cell, || Ok::<_, &str>(7)), Ok(7));
        assert_eq!(get_or_build(&cell, || Err::<u32, &str>("late")), Ok(7));
    }

    #[test]
    fn old_snapshots_stay_alive_until_their_last_holder_drops() {
        let cell = ArcCell::new(Arc::new(String::from("old")));
        let snapshot = cell.load();
        cell.swap_with(|_| Arc::new(String::from("new")));
        // The swap did not invalidate the in-flight snapshot...
        assert_eq!(*snapshot, "old");
        assert_eq!(*cell.load(), "new");
        // ...and dropping the snapshot releases the last reference.
        let weak = Arc::downgrade(&snapshot);
        drop(snapshot);
        assert!(weak.upgrade().is_none());
    }
}

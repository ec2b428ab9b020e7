//! Instrumented drop-in replacements for `std::sync` primitives.
//!
//! Every acquire, release, and notify is a scheduler yield point. Data is
//! stored behind uncontended `std` primitives (the model-level ownership
//! flags plus the single-active-thread discipline guarantee they are
//! never blocked on), so this module needs no `unsafe`.
//!
//! Lock results are always `Ok`: the model never poisons — any panic
//! aborts the whole execution and is reported as a model failure instead.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{
    LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock, RwLock as StdRwLock,
    RwLockReadGuard as StdRwLockReadGuard, RwLockWriteGuard as StdRwLockWriteGuard,
};

use crate::scheduler::{Blocked, Scheduler};

pub mod atomic;

/// A mutual-exclusion primitive checked by the model scheduler.
pub struct Mutex<T> {
    id: OnceLock<u64>,
    /// Model-level ownership flag; `data` is locked only by the model
    /// owner, so the std mutex below is never contended.
    held: StdMutex<bool>,
    data: StdMutex<T>,
}

/// RAII guard for [`Mutex`]; releasing is a scheduler yield point.
pub struct MutexGuard<'a, T> {
    data: Option<StdMutexGuard<'a, T>>,
    lock: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new model-checked mutex.
    pub const fn new(t: T) -> Self {
        Mutex {
            id: OnceLock::new(),
            held: StdMutex::new(false),
            data: StdMutex::new(t),
        }
    }

    fn id(&self, sched: &Scheduler) -> u64 {
        *self.id.get_or_init(|| sched.resource_id())
    }

    /// Acquires the mutex, yielding to the scheduler before the attempt
    /// and blocking (in the model) while another task holds it.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let (sched, me) = Scheduler::current();
        let id = self.id(&sched);
        sched.switch(me, Blocked::Ready);
        loop {
            {
                let mut held = self.held.lock().unwrap_or_else(|e| e.into_inner());
                if !*held {
                    *held = true;
                    break;
                }
            }
            sched.switch(me, Blocked::Mutex(id));
        }
        Ok(MutexGuard {
            data: Some(self.data.lock().unwrap_or_else(|e| e.into_inner())),
            lock: self,
        })
    }

    /// Consumes the mutex, returning the underlying data.
    pub fn into_inner(self) -> LockResult<T> {
        Ok(self.data.into_inner().unwrap_or_else(|e| e.into_inner()))
    }

    fn release(&self) {
        *self.held.lock().unwrap_or_else(|e| e.into_inner()) = false;
        if let Some((sched, me)) = Scheduler::try_current() {
            let id = self.id(&sched);
            sched.unblock_where(|b| b == Blocked::Mutex(id));
            sched.yield_point(me);
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data.as_ref().expect("guard data taken")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data.as_mut().expect("guard data taken")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.data.take());
        self.lock.release();
    }
}

/// A condition variable checked by the model scheduler.
///
/// Releasing the mutex and parking happen atomically with respect to
/// scheduling, exactly like the std contract, so a notify between the
/// two cannot be lost *by the model itself* — lost wakeups the checker
/// reports are real protocol bugs.
pub struct Condvar {
    id: OnceLock<u64>,
}

impl Condvar {
    /// Creates a new model-checked condition variable.
    pub const fn new() -> Self {
        Condvar {
            id: OnceLock::new(),
        }
    }

    fn id(&self, sched: &Scheduler) -> u64 {
        *self.id.get_or_init(|| sched.resource_id())
    }

    /// Parks the calling task until notified, releasing the mutex while
    /// parked and reacquiring it before returning.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let (sched, me) = Scheduler::current();
        let cv = self.id(&sched);
        let lock = guard.lock;
        let mid = lock.id(&sched);
        // Dismantle the guard by hand: drop the data guard, defuse the
        // RAII release (we release + park atomically below instead).
        let mut guard = guard;
        drop(guard.data.take());
        std::mem::forget(guard);
        // Release the mutex and park in one scheduler step: no other
        // task can run between the two, so no notify slips through.
        *lock.held.lock().unwrap_or_else(|e| e.into_inner()) = false;
        sched.unblock_where(|b| b == Blocked::Mutex(mid));
        sched.switch(me, Blocked::Condvar(cv));
        // Reacquire.
        loop {
            {
                let mut held = lock.held.lock().unwrap_or_else(|e| e.into_inner());
                if !*held {
                    *held = true;
                    break;
                }
            }
            sched.switch(me, Blocked::Mutex(mid));
        }
        Ok(MutexGuard {
            data: Some(lock.data.lock().unwrap_or_else(|e| e.into_inner())),
            lock,
        })
    }

    /// Wakes every task parked on this condvar (they still race to
    /// reacquire the mutex, like std).
    pub fn notify_all(&self) {
        let (sched, me) = Scheduler::current();
        let cv = self.id(&sched);
        sched.unblock_where(|b| b == Blocked::Condvar(cv));
        sched.switch(me, Blocked::Ready);
    }

    /// Wakes the lowest-id task parked on this condvar (deterministic
    /// approximation of the std "at least one" contract).
    pub fn notify_one(&self) {
        let (sched, me) = Scheduler::current();
        let cv = self.id(&sched);
        sched.unblock_first(|b| b == Blocked::Condvar(cv));
        sched.switch(me, Blocked::Ready);
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

/// Model-level reader/writer accounting for [`RwLock`].
#[derive(Default)]
struct RwState {
    readers: usize,
    writer: bool,
}

/// A reader-writer lock checked by the model scheduler.
pub struct RwLock<T> {
    id: OnceLock<u64>,
    rw: StdMutex<RwState>,
    data: StdRwLock<T>,
}

/// RAII shared-access guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T> {
    data: Option<StdRwLockReadGuard<'a, T>>,
    lock: &'a RwLock<T>,
}

/// RAII exclusive-access guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T> {
    data: Option<StdRwLockWriteGuard<'a, T>>,
    lock: &'a RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new model-checked reader-writer lock.
    pub const fn new(t: T) -> Self {
        RwLock {
            id: OnceLock::new(),
            rw: StdMutex::new(RwState {
                readers: 0,
                writer: false,
            }),
            data: StdRwLock::new(t),
        }
    }

    fn id(&self, sched: &Scheduler) -> u64 {
        *self.id.get_or_init(|| sched.resource_id())
    }

    /// Acquires shared access.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        let (sched, me) = Scheduler::current();
        let id = self.id(&sched);
        sched.switch(me, Blocked::Ready);
        loop {
            {
                let mut rw = self.rw.lock().unwrap_or_else(|e| e.into_inner());
                if !rw.writer {
                    rw.readers += 1;
                    break;
                }
            }
            sched.switch(me, Blocked::RwRead(id));
        }
        Ok(RwLockReadGuard {
            data: Some(self.data.read().unwrap_or_else(|e| e.into_inner())),
            lock: self,
        })
    }

    /// Acquires exclusive access.
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        let (sched, me) = Scheduler::current();
        let id = self.id(&sched);
        sched.switch(me, Blocked::Ready);
        loop {
            {
                let mut rw = self.rw.lock().unwrap_or_else(|e| e.into_inner());
                if !rw.writer && rw.readers == 0 {
                    rw.writer = true;
                    break;
                }
            }
            sched.switch(me, Blocked::RwWrite(id));
        }
        Ok(RwLockWriteGuard {
            data: Some(self.data.write().unwrap_or_else(|e| e.into_inner())),
            lock: self,
        })
    }

    /// Consumes the lock, returning the underlying data.
    pub fn into_inner(self) -> LockResult<T> {
        Ok(self.data.into_inner().unwrap_or_else(|e| e.into_inner()))
    }

    fn release_read(&self) {
        let now_free = {
            let mut rw = self.rw.lock().unwrap_or_else(|e| e.into_inner());
            rw.readers -= 1;
            rw.readers == 0
        };
        if let Some((sched, me)) = Scheduler::try_current() {
            let id = self.id(&sched);
            if now_free {
                sched.unblock_where(|b| b == Blocked::RwWrite(id));
            }
            sched.yield_point(me);
        }
    }

    fn release_write(&self) {
        self.rw.lock().unwrap_or_else(|e| e.into_inner()).writer = false;
        if let Some((sched, me)) = Scheduler::try_current() {
            let id = self.id(&sched);
            sched.unblock_where(|b| b == Blocked::RwRead(id) || b == Blocked::RwWrite(id));
            sched.yield_point(me);
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data.as_ref().expect("guard data taken")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.data.take());
        self.lock.release_read();
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data.as_ref().expect("guard data taken")
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data.as_mut().expect("guard data taken")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.data.take());
        self.lock.release_write();
    }
}

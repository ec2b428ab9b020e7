//! The cooperative deterministic scheduler behind [`crate::model`].
//!
//! Every execution spawns real OS threads, but exactly one is ever
//! *active*: all others are parked on the scheduler's condvar. An active
//! thread runs until it reaches a yield point (`switch`), where the
//! scheduler records a decision — which runnable thread continues — and
//! transfers the activity token. Forcing a recorded decision sequence
//! (the *script*) replays an interleaving exactly.

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};

pub(crate) type TaskId = usize;

/// Why a task is not currently runnable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Blocked {
    /// Runnable (or currently active).
    Ready,
    /// Waiting for the mutex with this resource id to be released.
    Mutex(u64),
    /// Waiting for shared access to the rwlock with this resource id.
    RwRead(u64),
    /// Waiting for exclusive access to the rwlock with this resource id.
    RwWrite(u64),
    /// Parked on the condvar with this resource id.
    Condvar(u64),
    /// Waiting for another task to finish.
    Join(TaskId),
    /// Finished (normally or by unwinding).
    Done,
}

struct Task {
    blocked: Blocked,
    name: String,
}

/// One recorded branch point: `options` tasks were runnable, the one at
/// index `chosen` (task id `task`) ran. Single-option points are not
/// recorded — they carry no information.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Decision {
    pub(crate) chosen: u32,
    pub(crate) options: u32,
    pub(crate) task: TaskId,
}

struct State {
    tasks: Vec<Task>,
    active: Option<TaskId>,
    decisions: Vec<Decision>,
    /// Forced choices for the leading branch points of this execution.
    script: Vec<u32>,
    step: usize,
    preemptions: u32,
    preemption_bound: u32,
    failure: Option<String>,
    /// When set, every task unwinds with the [`Abort`] payload and no
    /// further scheduling happens; the execution is being torn down.
    abort: bool,
    next_resource: u64,
    os_threads: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct Scheduler {
    state: Mutex<State>,
    cv: Condvar,
}

/// Panic payload used to unwind model threads during teardown.
struct Abort;

fn abort_unwind() -> ! {
    panic::panic_any(Abort)
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Scheduler>, TaskId)>> = const { RefCell::new(None) };
    static IN_MODEL: Cell<bool> = const { Cell::new(false) };
}

/// Suppress default panic output from inside model threads: seeded-bug
/// suites and teardown unwinds panic on purpose, hundreds of times.
fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if IN_MODEL.with(Cell::get) {
                return;
            }
            default(info);
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Scheduler {
    pub(crate) fn new(preemption_bound: u32, script: Vec<u32>) -> Arc<Self> {
        Arc::new(Scheduler {
            state: Mutex::new(State {
                tasks: Vec::new(),
                active: None,
                decisions: Vec::new(),
                script,
                step: 0,
                preemptions: 0,
                preemption_bound,
                failure: None,
                abort: false,
                next_resource: 0,
                os_threads: Vec::new(),
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The scheduler and task id of the calling model thread.
    pub(crate) fn current() -> (Arc<Scheduler>, TaskId) {
        Self::try_current().expect("loom sync primitive used outside loom::model")
    }

    /// Like [`Scheduler::current`], but `None` outside a model run.
    pub(crate) fn try_current() -> Option<(Arc<Scheduler>, TaskId)> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// A fresh id for a mutex/rwlock/condvar. Ids are assigned lazily at
    /// first use; execution order is deterministic, so ids are too.
    pub(crate) fn resource_id(&self) -> u64 {
        let mut st = self.lock();
        st.next_resource += 1;
        st.next_resource
    }

    /// Yield point: record the calling task entering `blocked`, pick the
    /// next task to run, and return once the caller is scheduled again.
    /// Unwinds with [`Abort`] if the execution is being torn down — unless
    /// the calling thread is already unwinding (a panic mid-`Drop` would
    /// abort the process), in which case it returns immediately and the
    /// original unwind continues.
    pub(crate) fn switch(&self, me: TaskId, blocked: Blocked) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            if std::thread::panicking() {
                return;
            }
            abort_unwind();
        }
        st.tasks[me].blocked = blocked;
        self.schedule_next(&mut st, Some(me));
        if st.tasks[me].blocked == Blocked::Done {
            return;
        }
        while !(st.active == Some(me) && st.tasks[me].blocked == Blocked::Ready) {
            if st.abort {
                drop(st);
                if std::thread::panicking() {
                    return;
                }
                abort_unwind();
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Yield point used from `Drop` impls (lock releases). Identical to
    /// `switch(me, Ready)`; kept separate for intent — the
    /// `thread::panicking()` escape in [`Scheduler::switch`] is what makes
    /// this safe during unwinds.
    pub(crate) fn yield_point(&self, me: TaskId) {
        self.switch(me, Blocked::Ready);
    }

    /// Flip every non-finished task whose blocked state satisfies `pred`
    /// back to runnable. Does not transfer control.
    pub(crate) fn unblock_where(&self, pred: impl Fn(Blocked) -> bool) {
        let mut st = self.lock();
        for t in st.tasks.iter_mut() {
            if t.blocked != Blocked::Done && t.blocked != Blocked::Ready && pred(t.blocked) {
                t.blocked = Blocked::Ready;
            }
        }
    }

    /// Flip the lowest-id task matching `pred` back to runnable
    /// (deterministic `notify_one`).
    pub(crate) fn unblock_first(&self, pred: impl Fn(Blocked) -> bool) {
        let mut st = self.lock();
        for t in st.tasks.iter_mut() {
            if t.blocked != Blocked::Done && t.blocked != Blocked::Ready && pred(t.blocked) {
                t.blocked = Blocked::Ready;
                return;
            }
        }
    }

    /// Whether `task` has finished.
    pub(crate) fn is_done(&self, task: TaskId) -> bool {
        self.lock().tasks[task].blocked == Blocked::Done
    }

    /// Record a failure (first one wins) and begin teardown.
    fn fail(st: &mut State, message: String) {
        if st.failure.is_none() {
            st.failure = Some(message);
        }
        st.abort = true;
    }

    /// Pick the next task to run and hand it the activity token. Called
    /// with the state lock held, from a task yielding (`from = Some`) or
    /// finishing (`from = None`).
    fn schedule_next(&self, st: &mut MutexGuard<'_, State>, from: Option<TaskId>) {
        let mut options: Vec<TaskId> = (0..st.tasks.len())
            .filter(|&i| st.tasks[i].blocked == Blocked::Ready)
            .collect();
        if options.is_empty() {
            if st.tasks.iter().all(|t| t.blocked == Blocked::Done) {
                // Execution complete; wake `run`, which waits for it.
                st.active = None;
                self.cv.notify_all();
                return;
            }
            let report = Self::deadlock_report(st);
            Self::fail(st, report);
            self.cv.notify_all();
            return;
        }
        // The yielding task, if still runnable, goes first: choice 0
        // means "continue without preempting".
        if let Some(me) = from {
            if let Some(pos) = options.iter().position(|&t| t == me) {
                options.remove(pos);
                options.insert(0, me);
                if st.preemptions >= st.preemption_bound {
                    options.truncate(1);
                }
            }
        }
        let idx = if options.len() == 1 {
            0
        } else {
            let forced = if st.step < st.script.len() {
                (st.script[st.step] as usize).min(options.len() - 1)
            } else {
                0
            };
            st.decisions.push(Decision {
                chosen: forced as u32,
                options: options.len() as u32,
                task: options[forced],
            });
            st.step += 1;
            forced
        };
        let next = options[idx];
        if let Some(me) = from {
            if next != me && st.tasks[me].blocked == Blocked::Ready {
                st.preemptions += 1;
            }
        }
        st.active = Some(next);
        self.cv.notify_all();
    }

    fn deadlock_report(st: &State) -> String {
        let mut lines = vec!["deadlock: no thread can make progress".to_string()];
        for t in st.tasks.iter() {
            if t.blocked != Blocked::Done {
                lines.push(format!("  thread '{}' blocked on {:?}", t.name, t.blocked));
            }
        }
        lines.join("\n")
    }

    /// Register a new task and spawn its OS thread. The task becomes
    /// schedulable at the spawner's next yield point.
    pub(crate) fn spawn_task(
        self: &Arc<Self>,
        name: String,
        f: Box<dyn FnOnce() + Send>,
    ) -> TaskId {
        install_quiet_panic_hook();
        let id;
        let name = {
            let mut st = self.lock();
            if st.abort {
                drop(st);
                abort_unwind();
            }
            id = st.tasks.len();
            assert!(id < 16, "loom model: too many threads (max 16)");
            let name = if name.is_empty() {
                format!("t{id}")
            } else {
                name
            };
            st.tasks.push(Task {
                blocked: Blocked::Ready,
                name: name.clone(),
            });
            name
        };
        let sched = Arc::clone(self);
        let os = std::thread::Builder::new()
            .name(format!("loom-{name}"))
            .spawn(move || {
                IN_MODEL.with(|f| f.set(true));
                CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&sched), id)));
                // Park until scheduled for the first time.
                let run = {
                    let mut st = sched.lock();
                    loop {
                        if st.abort {
                            break false;
                        }
                        if st.active == Some(id) && st.tasks[id].blocked == Blocked::Ready {
                            break true;
                        }
                        st = sched.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                };
                if run {
                    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                        if payload.downcast_ref::<Abort>().is_none() {
                            let msg = panic_message(payload.as_ref());
                            let mut st = sched.lock();
                            let message =
                                format!("thread '{}' panicked: {}", st.tasks[id].name, msg);
                            Self::fail(&mut st, message);
                        }
                    }
                }
                sched.finish(id);
            })
            .expect("spawn loom model thread");
        self.lock().os_threads.push(os);
        id
    }

    /// Mark `id` finished, wake its joiners, and pass the token on.
    fn finish(self: &Arc<Self>, id: TaskId) {
        let mut st = self.lock();
        st.tasks[id].blocked = Blocked::Done;
        for t in st.tasks.iter_mut() {
            if t.blocked == Blocked::Join(id) {
                t.blocked = Blocked::Ready;
            }
        }
        if st.abort {
            self.cv.notify_all();
            return;
        }
        self.schedule_next(&mut st, None);
    }

    /// Run one execution to completion: spawn the root task, hand it the
    /// token, wait for every task to finish, reap the OS threads, and
    /// return the recorded branch decisions plus any failure.
    pub(crate) fn run(
        self: &Arc<Self>,
        root: Box<dyn FnOnce() + Send>,
    ) -> (Vec<Decision>, Option<String>) {
        let root_id = self.spawn_task("main".to_string(), root);
        {
            let mut st = self.lock();
            st.active = Some(root_id);
            self.cv.notify_all();
        }
        let (decisions, failure, os) = {
            let mut st = self.lock();
            while !st.tasks.iter().all(|t| t.blocked == Blocked::Done) {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            (
                std::mem::take(&mut st.decisions),
                st.failure.take(),
                std::mem::take(&mut st.os_threads),
            )
        };
        for h in os {
            let _ = h.join();
        }
        (decisions, failure)
    }
}

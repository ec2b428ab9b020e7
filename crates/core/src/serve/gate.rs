//! The wake gate between a thread that sleeps on something other than a
//! condvar and the threads whose completions it must not miss.

use crate::sync::atomic::{AtomicBool, Ordering};

/// How a thread that sleeps on something other than a condvar (the front
/// door's event loop blocks in a readiness wait over its sockets) learns
/// of completions without the completers paying a wake-up syscall while it
/// is awake.
///
/// One flag, two roles:
///
/// * the **sleeper** announces that it is about to sleep, re-checks every
///   source of work it has, and only then sleeps
///   ([`WakeGate::sleep_unless`]);
/// * a **completer** first publishes its completion, then takes the flag,
///   and wakes the sleeper only if the flag was set ([`WakeGate::wake`]).
///
/// A completion that lands before the announcement is seen by the
/// re-check; one that lands after it finds the flag set and wakes. The
/// re-check is what closes the window between the two — without it a
/// completion between the sleeper's last look and its announcement is
/// lost (`model_check` explores both the protocol and that seeded bug).
/// While the sleeper is awake the flag is clear, so a completer's whole
/// cost is one atomic swap.
///
/// Ordering: both sides touch the flag with a read-modify-write, so they
/// are ordered in its modification order whichever comes first. If the
/// completer's swap comes first, the sleeper's swap reads from it and
/// thereby acquires everything the completer published before it — the
/// re-check sees the completion. If the sleeper's comes first, the
/// completer's swap returns `true` and it wakes.
#[derive(Debug, Default)]
pub struct WakeGate {
    /// Set while the sleeper is asleep or about to be and nobody has taken
    /// on waking it yet.
    asleep: AtomicBool,
}

impl WakeGate {
    /// A gate whose sleeper is awake.
    pub fn new() -> WakeGate {
        WakeGate::default()
    }

    /// Sleeper side: announces the sleep, then runs `sleep` unless `ready`
    /// — evaluated *after* the announcement — reports work that is already
    /// there. `sleep` must return once the wake-up a completer issues
    /// through [`WakeGate::wake`] has arrived (and may return earlier or
    /// for other reasons). Returns what `sleep` returned, `None` when it
    /// was skipped.
    pub fn sleep_unless<R>(
        &self,
        ready: impl FnOnce() -> bool,
        sleep: impl FnOnce() -> R,
    ) -> Option<R> {
        self.asleep.swap(true, Ordering::SeqCst);
        let slept = if ready() { None } else { Some(sleep()) };
        self.asleep.store(false, Ordering::SeqCst);
        slept
    }

    /// Completer side, called after the completion is published: runs
    /// `wake` if the sleeper announced itself and no other completer has
    /// taken on waking it. Returns whether it did.
    pub fn wake(&self, wake: impl FnOnce()) -> bool {
        let asleep = self.asleep.swap(false, Ordering::SeqCst);
        if asleep {
            wake();
        }
        asleep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_sleeping_gate_is_woken_and_only_once() {
        let gate = WakeGate::new();
        assert!(!gate.wake(|| panic!("nobody sleeps")));
        // Work already there: the sleep is skipped and the flag withdrawn.
        assert_eq!(gate.sleep_unless(|| true, || 1), None);
        assert!(!gate.wake(|| panic!("the announcement was withdrawn")));
        // Two completions during one sleep cost one wake-up.
        let woken = gate.sleep_unless(
            || false,
            || {
                let first = gate.wake(|| {});
                let second = gate.wake(|| panic!("already woken"));
                (first, second)
            },
        );
        assert_eq!(woken, Some((true, false)));
    }
}

//! The event loop's one blocking call: a readiness wait over its sockets,
//! and the socket pair other threads wake it through.
//!
//! Everything platform-specific in this crate lives here. On unix the wait
//! is `poll(2)` — the crate's single `unsafe` block — and the wake pair a
//! `UnixStream` pair. Elsewhere the same function degrades to a bounded
//! sleep that reports every descriptor ready for what it asked (the
//! nonblocking calls that follow sort out what really is), and the wake
//! pair is a loopback TCP connection; the loop above is the same code
//! either way.

use core::ffi::{c_int, c_short};
use std::io;
use std::time::Duration;

/// `POLLIN`: data (or EOF, or a pending accept) can be read.
pub(crate) const READABLE: c_short = 0x001;
/// `POLLOUT`: a write would make progress.
pub(crate) const WRITABLE: c_short = 0x004;
/// `POLLERR | POLLHUP | POLLNVAL`: reported whether asked for or not.
const FAILED: c_short = 0x008 | 0x010 | 0x020;

/// The longest the fallback sleeps before every descriptor is retried.
const FALLBACK_SLEEP: Duration = Duration::from_millis(1);

/// Anything with a descriptor `poll(2)` can watch.
#[cfg(unix)]
pub(crate) use std::os::fd::AsRawFd as Source;
/// Off unix nothing is watched (the fallback retries everything).
#[cfg(not(unix))]
pub(crate) trait Source {}
#[cfg(not(unix))]
impl<T> Source for T {}

/// One watched descriptor; layout of C's `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `source` for `events` (`READABLE | WRITABLE`, or `0` to
    /// learn of failures only). The entry borrows nothing: it must be
    /// rebuilt, not kept, across a close of `source`.
    pub(crate) fn new(source: &impl Source, events: c_short) -> PollFd {
        #[cfg(unix)]
        let fd = source.as_raw_fd();
        #[cfg(not(unix))]
        let fd = {
            let _ = source;
            0
        };
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    pub(crate) fn readable(&self) -> bool {
        self.revents & READABLE != 0
    }

    #[cfg(test)]
    pub(crate) fn writable(&self) -> bool {
        self.revents & WRITABLE != 0
    }

    /// Error, hang-up (both directions gone) or a descriptor that is not
    /// open.
    pub(crate) fn failed(&self) -> bool {
        self.revents & FAILED != 0
    }
}

#[cfg(unix)]
mod sys {
    use super::PollFd;
    use core::ffi::c_int;

    /// `nfds_t`.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub(super) type Nfds = core::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub(super) type Nfds = core::ffi::c_uint;

    extern "C" {
        pub(super) fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }
}

/// Blocks until a watched descriptor is ready, `timeout` passes (`None` =
/// no deadline), or a signal interrupts; fills each entry's readiness.
/// Never fails: when the wait itself cannot be made, it sleeps briefly
/// and reports every entry ready for what it asked, so the caller's
/// nonblocking calls still make progress.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    #[cfg(unix)]
    {
        // Whole milliseconds, rounded up: waking a fraction early would
        // find the deadline not yet due and spin on a zero timeout.
        let millis = timeout.map_or(-1, |t| {
            let ceil = t.as_nanos().div_ceil(1_000_000);
            c_int::try_from(ceil).unwrap_or(c_int::MAX)
        });
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `PollFd`s — three integer fields laid out as `struct pollfd` —
        // so the pointer is valid for reads and writes of `fds.len()`
        // entries for the whole call, and that is the length passed.
        // `poll` writes only the `revents` field of those entries and
        // retains no pointer after it returns. A descriptor that was closed
        // or reused meanwhile is reported (`POLLNVAL`) or watched — never
        // memory-unsafe.
        let ready = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::Nfds, millis) };
        if ready >= 0 || io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
            return;
        }
    }
    std::thread::sleep(timeout.map_or(FALLBACK_SLEEP, |t| t.min(FALLBACK_SLEEP)));
    for fd in fds.iter_mut() {
        fd.revents = fd.events;
    }
}

/// One end of the wake pair.
#[cfg(unix)]
pub(crate) type WakeStream = std::os::unix::net::UnixStream;
#[cfg(not(unix))]
pub(crate) type WakeStream = std::net::TcpStream;

/// A connected, nonblocking socket pair `(write end, read end)`: a byte
/// written to the first makes the second readable, which is how a thread
/// outside the loop ends its [`wait`].
pub(crate) fn wake_pair() -> io::Result<(WakeStream, WakeStream)> {
    #[cfg(unix)]
    let (tx, rx) = WakeStream::pair()?;
    #[cfg(not(unix))]
    let (tx, rx) = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let tx = WakeStream::connect(listener.local_addr()?)?;
        let local = tx.local_addr()?;
        loop {
            let (rx, peer) = listener.accept()?;
            if peer == local {
                break (tx, rx);
            }
        }
    };
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::Instant;

    #[test]
    fn a_quiet_pair_times_out_and_a_written_byte_wakes() {
        let (mut tx, mut rx) = wake_pair().unwrap();
        let mut fds = [PollFd::new(&rx, READABLE)];
        let started = Instant::now();
        wait(&mut fds, Some(Duration::from_millis(30)));
        assert!(!fds[0].readable() && !fds[0].failed());
        assert!(started.elapsed() >= Duration::from_millis(30));

        assert_eq!(tx.write(&[1]).unwrap(), 1);
        let started = Instant::now();
        wait(&mut fds, None);
        assert!(fds[0].readable());
        assert!(started.elapsed() < Duration::from_secs(5));
        let mut byte = [0u8; 8];
        assert_eq!(rx.read(&mut byte).unwrap(), 1);
        // Drained and nonblocking: the next read would block.
        assert_eq!(
            rx.read(&mut byte).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
    }

    #[test]
    fn write_interest_and_hang_up_are_reported() {
        let (tx, rx) = wake_pair().unwrap();
        let mut fds = [PollFd::new(&tx, WRITABLE)];
        wait(&mut fds, Some(Duration::from_secs(5)));
        assert!(fds[0].writable());
        // No interest at all still learns that the peer is gone.
        drop(rx);
        let mut fds = [PollFd::new(&tx, 0)];
        wait(&mut fds, Some(Duration::from_secs(5)));
        assert!(fds[0].failed());
    }
}

//! Per-connection state machine: nonblocking reads, pipelined dispatch,
//! in-order response writing, and the deadline bookkeeping.
//!
//! A connection owns a read buffer (bytes not yet parsed), a FIFO of
//! in-flight requests (each either already rendered or waiting on the
//! [`Mailbox`] a serving worker fills), and an output buffer of response
//! bytes awaiting the socket. Responses always leave in request order —
//! HTTP/1.1 pipelining semantics — while the underlying queries run
//! concurrently on the serving runtime.
//!
//! The connection never waits and never polls: the event loop calls
//! [`Conn::on_readable`] when the socket has bytes, [`Conn::advance`] after
//! anything may have changed, and sleeps until [`Conn::interest`] is
//! satisfied, a mailbox is filled, or [`Conn::next_deadline`] comes due.
//!
//! Deadlines:
//!
//! * **read**: a partially received request must complete within
//!   `read_timeout` of the last byte, else `408` and close;
//! * **write**: a response the peer will not drain times out after
//!   `write_timeout` without progress, closing the connection;
//! * **idle**: a keep-alive connection with nothing buffered or in flight
//!   closes silently after `idle_timeout` without traffic.
//!
//! The epoch pinning that makes hot swaps graceful lives below this
//! layer: every admitted query is served end to end on the model epoch
//! current at submission, so a connection's in-flight work finishes on
//! its pinned epoch while new requests (on this or any connection) see
//! the new one.

use crate::http::{self, Limits, Parse};
use crate::json;
use crate::metrics::NetCounters;
use crate::poll::{READABLE, WRITABLE};
use core::ffi::c_short;
use mips_core::engine::{MipsError, QueryResponse};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Most requests a single connection may have in flight; beyond this the
/// connection stops reading until responses drain (pipelining
/// backpressure).
pub(crate) const MAX_PIPELINE: usize = 64;

/// The `Retry-After` seconds on every overload answer, the `429` of a full
/// submission queue and the `503` of a full connection table alike: the
/// runtime never holds work back on purpose, so the header's one-second
/// resolution is the earliest useful retry.
pub(crate) const RETRY_AFTER: &str = "1";

/// The per-connection deadline configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadlines {
    pub(crate) read: Duration,
    pub(crate) write: Duration,
    pub(crate) idle: Duration,
}

/// A response as it goes on the wire: the status (for the counters) and
/// the complete bytes, head and body.
pub(crate) type Rendered = (u16, Vec<u8>);

/// Renders one response — head and JSON body — as it goes on the wire.
fn rendered(status: u16, body: &str, keep_alive: bool, extra: &[(&str, String)]) -> Rendered {
    (
        status,
        http::write_response(status, body.as_bytes(), keep_alive, extra),
    )
}

/// Where the worker that finishes an admitted query leaves its rendered
/// response for the connection to send. Filled exactly once, from the
/// serving pool; read by the event loop.
pub(crate) type Mailbox = OnceLock<Rendered>;

/// What the router decided for one parsed request.
pub(crate) enum Dispatched {
    /// The response is already known (metrics, errors, admin calls).
    Immediate {
        status: u16,
        body: String,
        extra: Vec<(&'static str, String)>,
    },
    /// The request was admitted onto the serving runtime; the response
    /// appears in the mailbox when a worker finishes it.
    Query(Arc<Mailbox>),
}

/// The routing hook the event loop injects into each connection.
pub(crate) trait Dispatch {
    fn dispatch(&self, request: &http::Request) -> Dispatched;
}

/// One in-flight request slot, in wire order.
enum Slot {
    Ready(Rendered),
    Waiting(Arc<Mailbox>),
}

impl Slot {
    fn rendered(&self) -> Option<&Rendered> {
        match self {
            Slot::Ready(rendered) => Some(rendered),
            Slot::Waiting(mailbox) => mailbox.get(),
        }
    }
}

/// One accepted connection.
pub(crate) struct Conn {
    stream: TcpStream,
    counters: Arc<NetCounters>,
    /// Received, not-yet-parsed bytes.
    buf: Vec<u8>,
    /// Rendered response bytes awaiting the socket.
    out: Vec<u8>,
    out_pos: usize,
    inflight: VecDeque<Slot>,
    /// Instant of the last byte read (arms the read and idle deadlines).
    last_read: Instant,
    /// Instant of the last write progress, or of `out` last going from
    /// empty to pending (arms the write and idle deadlines).
    last_write: Instant,
    /// Whether the last parse attempt left a partial request in `buf`.
    reading_partial: bool,
    /// Whether the interim `100 Continue` was already sent for the
    /// currently arriving request.
    sent_continue: bool,
    /// No more reads/parses; flush `out`, settle `inflight`, then close.
    closing: bool,
    closed: bool,
}

impl Conn {
    pub(crate) fn new(
        stream: TcpStream,
        counters: Arc<NetCounters>,
        now: Instant,
    ) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            counters,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            inflight: VecDeque::new(),
            last_read: now,
            last_write: now,
            reading_partial: false,
            sent_continue: false,
            closing: false,
            closed: false,
        })
    }

    /// A connection refused at the door: born with a prebuilt `503` and no
    /// read path, it exists only to deliver the shed notice.
    pub(crate) fn shed(
        stream: TcpStream,
        counters: Arc<NetCounters>,
        now: Instant,
    ) -> std::io::Result<Conn> {
        let mut conn = Conn::new(stream, counters, now)?;
        let body = json::encode_error(503, "connection limit reached; retry shortly");
        let extra = [("Retry-After", RETRY_AFTER.to_string())];
        conn.inflight
            .push_back(Slot::Ready(rendered(503, &body, false, &extra)));
        conn.closing = true;
        Ok(conn)
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    fn unflushed(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Quiescent for drain purposes: nothing in flight, nothing buffered
    /// to write.
    pub(crate) fn drained(&self) -> bool {
        self.inflight.is_empty() && !self.unflushed()
    }

    /// Whether the connection would read and parse more requests right
    /// now. With `draining` set no new requests are taken — in-flight work
    /// settles and flushes, nothing else.
    pub(crate) fn wants_read(&self, draining: bool) -> bool {
        !draining && !self.closing && !self.closed && self.inflight.len() < MAX_PIPELINE
    }

    /// The readiness the event loop should wait for on this socket.
    pub(crate) fn interest(&self, draining: bool) -> c_short {
        let mut events = 0;
        if self.wants_read(draining) {
            events |= READABLE;
        }
        if self.unflushed() {
            events |= WRITABLE;
        }
        events
    }

    /// Whether the response that must leave next is rendered — work
    /// [`Conn::advance`] can do without the socket becoming ready.
    pub(crate) fn front_ready(&self) -> bool {
        self.inflight
            .front()
            .is_some_and(|slot| slot.rendered().is_some())
    }

    /// The earliest instant a deadline of this connection comes due (and
    /// [`Conn::advance`] must run), if any is armed.
    pub(crate) fn next_deadline(&self, deadlines: &Deadlines) -> Option<Instant> {
        if self.closed {
            return None;
        }
        let write = self.unflushed().then(|| self.last_write + deadlines.write);
        let read = (!self.closing && self.reading_partial).then(|| self.last_read + deadlines.read);
        let idle = (!self.closing && !self.reading_partial && self.drained())
            .then(|| self.last_read.max(self.last_write) + deadlines.idle);
        [write, read, idle].into_iter().flatten().min()
    }

    /// Does everything that needs no new bytes from the peer: applies the
    /// deadlines, moves rendered responses (front of the FIFO only — wire
    /// order) into the output buffer, writes what the socket takes, and
    /// closes a finished connection.
    pub(crate) fn advance(&mut self, deadlines: &Deadlines, now: Instant) {
        if self.closed {
            return;
        }
        if !self.closing && self.reading_partial && now >= self.last_read + deadlines.read {
            self.counters.add(&self.counters.timeouts, 1);
            self.refuse(408, "request not completed within the read deadline");
        }
        self.settle_inflight(now);
        self.flush(now);
        if self.closed {
            return;
        }
        if self.unflushed() {
            if now >= self.last_write + deadlines.write {
                self.counters.add(&self.counters.timeouts, 1);
                self.closed = true;
            }
        } else if self.inflight.is_empty() {
            let idle_since = self.last_read.max(self.last_write);
            self.closed =
                self.closing || (!self.reading_partial && now >= idle_since + deadlines.idle);
        }
    }

    /// The peer is gone (reset, or both directions shut) while nothing was
    /// being read from it: whatever is in flight has nobody to go to.
    pub(crate) fn abort(&mut self) {
        self.closed = true;
    }

    fn settle_inflight(&mut self, now: Instant) {
        while let Some((status, bytes)) = self.inflight.front().and_then(Slot::rendered) {
            if self.out_pos >= self.out.len() {
                // Pending output (re)appears: the write deadline counts
                // from here.
                self.last_write = now;
            }
            self.out.extend_from_slice(bytes);
            self.counters.count_response(*status);
            self.inflight.pop_front();
        }
    }

    /// Writes pending output until the socket stops taking it.
    fn flush(&mut self, now: Instant) {
        while self.unflushed() {
            match self
                .stream
                .write(self.out.get(self.out_pos..).unwrap_or_default())
            {
                Ok(0) => {
                    self.closed = true;
                    return;
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.last_write = now;
                    self.counters.add(&self.counters.bytes_written, n as u64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    return;
                }
            }
        }
        self.out.clear();
        self.out_pos = 0;
    }

    /// The socket reported bytes (or EOF, or an error) while the
    /// connection [wants to read](Conn::wants_read): reads what is there
    /// and parses as many pipelined requests as the buffer holds.
    pub(crate) fn on_readable(&mut self, router: &dyn Dispatch, limits: &Limits, now: Instant) {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => {
                // Peer finished sending. A partial request can never
                // complete; pipelined responses still flush before close.
                if !self.buf.is_empty() {
                    self.counters.add(&self.counters.parse_errors, 1);
                    self.refuse(400, "connection closed mid-request");
                }
                self.closing = true;
            }
            Ok(n) => {
                self.buf
                    .extend_from_slice(chunk.get(..n).unwrap_or_default());
                self.last_read = now;
                self.counters.add(&self.counters.bytes_read, n as u64);
                self.parse_available(router, limits, now);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => self.closed = true,
        }
    }

    /// Parses every complete request currently buffered (up to the
    /// pipeline cap), dispatching each.
    fn parse_available(&mut self, router: &dyn Dispatch, limits: &Limits, now: Instant) {
        while !self.closing && self.inflight.len() < MAX_PIPELINE {
            if self.buf.is_empty() {
                self.reading_partial = false;
                break;
            }
            match http::parse_request(&self.buf, limits) {
                Parse::Incomplete { expects_continue } => {
                    self.reading_partial = true;
                    if expects_continue && !self.sent_continue {
                        if !self.unflushed() {
                            self.last_write = now;
                        }
                        self.out.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                        self.sent_continue = true;
                    }
                    break;
                }
                Parse::Bad(err) => {
                    self.counters.add(&self.counters.parse_errors, 1);
                    self.refuse(err.status, &err.message);
                    break;
                }
                Parse::Ready(request) => {
                    self.reading_partial = false;
                    self.sent_continue = false;
                    self.buf.drain(..request.consumed);
                    self.counters.add(&self.counters.http_requests, 1);
                    self.inflight.push_back(match router.dispatch(&request) {
                        Dispatched::Immediate {
                            status,
                            body,
                            extra,
                        } => Slot::Ready(rendered(status, &body, request.keep_alive, &extra)),
                        Dispatched::Query(mailbox) => Slot::Waiting(mailbox),
                    });
                    if !request.keep_alive {
                        // An explicit close: read nothing further; the
                        // connection drains its in-flight work and closes
                        // once this response flushes.
                        self.closing = true;
                        break;
                    }
                }
            }
        }
    }

    /// Queues a terminal error response (in wire order, after everything
    /// already in flight) and stops reading.
    fn refuse(&mut self, status: u16, message: &str) {
        let body = json::encode_error(status, message);
        self.inflight
            .push_back(Slot::Ready(rendered(status, &body, false, &[])));
        self.closing = true;
    }
}

/// Renders a settled query outcome for the wire: 200 with the response
/// body, or the error's canonical HTTP status with a JSON error body. Runs
/// on the serving worker that finished the query.
pub(crate) fn render_query_outcome(
    outcome: Result<QueryResponse, MipsError>,
    keep_alive: bool,
) -> Rendered {
    let (status, body) = match outcome {
        Ok(response) => (200, json::encode_response(&response)),
        Err(error) => {
            let status = error.http_status();
            (status, json::encode_error(status, &error.to_string()))
        }
    };
    rendered(status, &body, keep_alive, &[])
}

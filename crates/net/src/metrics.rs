//! Connection-level counters, folded into the `/metrics` rollup.

use mips_core::serve::JsonWriter;
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters shared by the accept loop and every connection.
#[derive(Default)]
pub(crate) struct NetCounters {
    pub(crate) accepted: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) closed: AtomicU64,
    pub(crate) http_requests: AtomicU64,
    pub(crate) responses_2xx: AtomicU64,
    pub(crate) responses_4xx: AtomicU64,
    pub(crate) responses_5xx: AtomicU64,
    pub(crate) rejected_overload: AtomicU64,
    pub(crate) parse_errors: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) bytes_read: AtomicU64,
    pub(crate) bytes_written: AtomicU64,
    pub(crate) admin_swaps: AtomicU64,
    pub(crate) loop_wakeups: AtomicU64,
    pub(crate) completion_wakes: AtomicU64,
}

impl NetCounters {
    pub(crate) fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Tallies a sent response into its status class.
    pub(crate) fn count_response(&self, status: u16) {
        match status {
            200..=299 => self.add(&self.responses_2xx, 1),
            400..=499 => self.add(&self.responses_4xx, 1),
            500..=599 => self.add(&self.responses_5xx, 1),
            _ => {}
        }
    }

    pub(crate) fn snapshot(&self) -> NetMetrics {
        NetMetrics {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            http_requests: self.http_requests.load(Ordering::Relaxed),
            responses_2xx: self.responses_2xx.load(Ordering::Relaxed),
            responses_4xx: self.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: self.responses_5xx.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            parse_errors: self.parse_errors.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            admin_swaps: self.admin_swaps.load(Ordering::Relaxed),
            loop_wakeups: self.loop_wakeups.load(Ordering::Relaxed),
            completion_wakes: self.completion_wakes.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of the front door's connection-level counters,
/// returned by [`HttpServer::metrics`](crate::HttpServer::metrics) and
/// embedded in the `GET /metrics` body alongside the
/// [`ServerMetrics`](mips_core::serve::ServerMetrics) rollup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Connections accepted (shed ones included).
    pub accepted: u64,
    /// Connections refused with `503` because `max_connections` was
    /// reached.
    pub shed: u64,
    /// Connections fully closed.
    pub closed: u64,
    /// Complete HTTP requests parsed off the wire.
    pub http_requests: u64,
    /// Responses sent with a 2xx status.
    pub responses_2xx: u64,
    /// Responses sent with a 4xx status.
    pub responses_4xx: u64,
    /// Responses sent with a 5xx status.
    pub responses_5xx: u64,
    /// Queries bounced by backpressure (`429 Too Many Requests`).
    pub rejected_overload: u64,
    /// Requests refused for framing/syntax errors (the connection closes).
    pub parse_errors: u64,
    /// Connections condemned by a read or write deadline.
    pub timeouts: u64,
    /// Payload bytes read off sockets.
    pub bytes_read: u64,
    /// Payload bytes written to sockets.
    pub bytes_written: u64,
    /// Successful `POST /admin/swap` calls.
    pub admin_swaps: u64,
    /// Times the event loop returned from its readiness wait (a socket
    /// became ready, a deadline came due, or another thread woke it). An
    /// idle or waiting server adds none; a loop that polls would add
    /// thousands a second.
    pub loop_wakeups: u64,
    /// Bytes written to the loop's wake socket: completions (and the
    /// shutdown request) that found the loop asleep. Completions landing
    /// while it is awake cost no wake-up and are not counted.
    pub completion_wakes: u64,
}

impl NetMetrics {
    /// Renders the counters as one compact JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// [`NetMetrics::to_json`], but composing into an existing writer.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.field_u64("accepted", self.accepted);
        w.field_u64("shed", self.shed);
        w.field_u64("closed", self.closed);
        w.field_u64("http_requests", self.http_requests);
        w.field_u64("responses_2xx", self.responses_2xx);
        w.field_u64("responses_4xx", self.responses_4xx);
        w.field_u64("responses_5xx", self.responses_5xx);
        w.field_u64("rejected_overload", self.rejected_overload);
        w.field_u64("parse_errors", self.parse_errors);
        w.field_u64("timeouts", self.timeouts);
        w.field_u64("bytes_read", self.bytes_read);
        w.field_u64("bytes_written", self.bytes_written);
        w.field_u64("admin_swaps", self.admin_swaps);
        w.field_u64("loop_wakeups", self.loop_wakeups);
        w.field_u64("completion_wakes", self.completion_wakes);
        w.end_obj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_json_round_trip() {
        let counters = NetCounters::default();
        counters.add(&counters.accepted, 3);
        counters.count_response(200);
        counters.count_response(404);
        counters.count_response(503);
        counters.count_response(100); // interim: uncounted
        let snap = counters.snapshot();
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.responses_2xx, 1);
        assert_eq!(snap.responses_4xx, 1);
        assert_eq!(snap.responses_5xx, 1);
        let json = snap.to_json();
        assert!(json.contains("\"accepted\":3"));
        assert!(json.contains("\"responses_4xx\":1"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}

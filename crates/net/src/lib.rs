//! The network front door: a dependency-free HTTP/1.1 serving layer over
//! [`MipsServer`].
//!
//! The paper's serving story ends at a library call; a production
//! recommender fields traffic over sockets, with deadlines, admission
//! control, and model swaps under load. This crate adds that wire
//! boundary using nothing but `std` — the same vendored-shim philosophy
//! as `shims/`: the workspace builds offline, and every byte on the wire
//! comes from code in this repository.
//!
//! ## Endpoints
//!
//! | Route | Behavior |
//! |---|---|
//! | `POST /query` | A [`QueryRequest`](mips_core::engine::QueryRequest) as JSON; admitted via [`MipsServer::try_submit_notify`], so overload answers `429` + `Retry-After` instead of queueing unboundedly. |
//! | `POST /vector-query` | A [`VectorQueryRequest`](mips_core::engine::VectorQueryRequest) as JSON — the exact top-k for one ad-hoc factor vector, dense (`"vector": [..]`) or sparse (`"vector": {"dim", "indices", "values"}`). Served synchronously via [`Engine::execute_vector`](mips_core::engine::Engine::execute_vector). |
//! | `GET /metrics` | `{"server": ..., "net": ...}` — the full [`ServerMetrics`](mips_core::serve::ServerMetrics) rollup (per-shard counters, latency quantiles) plus this crate's [`NetMetrics`] connection counters. |
//! | `GET /healthz` | Liveness + the current model epoch. |
//! | `POST /admin/swap` | Pulls a fresh model from the builder-registered [`swap source`](HttpServerBuilder::swap_source) and installs it via [`Engine::swap_model`](mips_core::engine::Engine::swap_model). In-flight requests finish on their pinned epoch; subsequent admissions (any connection) see the new one — graceful drain without a pause. |
//!
//! Typed [`MipsError`]s map onto statuses via
//! [`MipsError::http_status`]; malformed HTTP or JSON is a 4xx from the
//! parser layer, never a panic or a hang.
//!
//! ## Architecture
//!
//! One event-loop thread owns the nonblocking listener and every
//! connection (state machines in `conn.rs`); the compute stays on the
//! [`MipsServer`] worker pool. The loop never polls: it blocks in one
//! readiness wait (`poll(2)`, in `poll.rs`) over the listener, every
//! connection — readable while it may take requests, writable while a
//! response is unflushed — and a wake socket, with the timeout set to the
//! nearest read / write / idle / drain deadline. An idle server, and one
//! whose requests are all with the workers, makes no syscalls at all.
//!
//! The served path is completion-driven end to end. `POST /query` is
//! submitted with a completion notifier
//! ([`MipsServer::try_submit_notify`]); the worker that finishes the
//! request renders the wire bytes (JSON body and HTTP head) into the
//! request's slot and passes the loop's [`WakeGate`], which writes one
//! byte to the wake socket only if the loop is asleep. Before it sleeps
//! the loop announces itself on the gate and re-checks every connection's
//! front slot, so a completion is never missed and a busy loop costs the
//! workers no syscall. The single loop thread only orders, copies and writes:
//! pipelined requests on one connection run concurrently while their
//! responses leave in order, and one slow query never stalls other
//! connections. (`POST /vector-query` is the exception: it is still served
//! on the loop thread — ROADMAP item 9(a).)
//!
//! ```
//! use mips_core::engine::EngineBuilder;
//! use mips_core::serve::ServerBuilder;
//! use mips_data::synth::{synth_model, SynthConfig};
//! use mips_net::{client::Client, HttpServerBuilder};
//! use std::sync::Arc;
//!
//! let model = Arc::new(synth_model(&SynthConfig {
//!     num_users: 60, num_items: 80, num_factors: 8, ..SynthConfig::default()
//! }));
//! let engine = Arc::new(
//!     EngineBuilder::new().model(model).with_default_backends().build().unwrap(),
//! );
//! let server = Arc::new(
//!     ServerBuilder::new().engine(engine).shards(2).workers(1).build().unwrap(),
//! );
//! let http = HttpServerBuilder::new().server(server).build().unwrap();
//! let mut client = Client::connect(http.local_addr()).unwrap();
//! let response = client
//!     .request("POST", "/query", Some("{\"k\": 3, \"users\": [0, 7]}"))
//!     .unwrap();
//! assert_eq!(response.status, 200);
//! http.shutdown().unwrap();
//! ```

// `deny`, not `forbid`: the one exemption is the `poll(2)` call in
// `poll.rs` (mips-lint's allow list names the file; every other file of
// this crate stays unsafe-free).
#![deny(unsafe_code)]

pub mod client;
pub mod http;
pub mod json;

mod conn;
mod metrics;
#[allow(unsafe_code)]
mod poll;

pub use metrics::NetMetrics;

use conn::{Conn, Deadlines, Dispatch, Dispatched, Mailbox, RETRY_AFTER};
use http::Limits;
use metrics::NetCounters;
use mips_core::engine::MipsError;
use mips_core::serve::{JsonWriter, MipsServer, WakeGate};
use mips_data::MfModel;
use poll::{PollFd, WakeStream, READABLE};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where `POST /admin/swap` gets its replacement model: typically a
/// closure that loads the latest retrained factors from disk or an
/// in-memory registry. Errors are reported to the caller as a 500.
pub type SwapSource = Arc<dyn Fn() -> Result<Arc<MfModel>, String> + Send + Sync>;

/// Tunables of the front door, each set through its [`HttpServerBuilder`]
/// method. Request sizes are bounded by [`Limits::default`] (8 KiB of head,
/// 1 MiB of body).
#[derive(Debug, Clone)]
struct NetConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`HttpServer::local_addr`]).
    addr: String,
    /// Most simultaneous connections; excess accepts are shed with `503`.
    max_connections: usize,
    /// A partially received request must complete within this of its last
    /// byte (`408` + close beyond).
    read_timeout: Duration,
    /// A response making no write progress for this long condemns the
    /// connection.
    write_timeout: Duration,
    /// Keep-alive connections with nothing pending close after this.
    idle_timeout: Duration,
    /// At shutdown, how long in-flight requests get to settle and flush
    /// before connections are force-closed.
    drain_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 256,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Step-by-step assembly of an [`HttpServer`].
#[derive(Default)]
pub struct HttpServerBuilder {
    server: Option<Arc<MipsServer>>,
    swap_source: Option<SwapSource>,
    config: NetConfig,
}

impl HttpServerBuilder {
    /// An empty builder with default tunables.
    pub fn new() -> HttpServerBuilder {
        HttpServerBuilder::default()
    }

    /// The serving runtime to front. Shared: the same server can keep
    /// taking in-process `submit` calls alongside the socket traffic.
    pub fn server(mut self, server: Arc<MipsServer>) -> HttpServerBuilder {
        self.server = Some(server);
        self
    }

    /// Registers the model source behind `POST /admin/swap`. Without one,
    /// the endpoint answers `501`.
    pub fn swap_source(
        mut self,
        source: impl Fn() -> Result<Arc<MfModel>, String> + Send + Sync + 'static,
    ) -> HttpServerBuilder {
        self.swap_source = Some(Arc::new(source));
        self
    }

    /// Sets the bind address (default `127.0.0.1:0`).
    pub fn addr(mut self, addr: impl Into<String>) -> HttpServerBuilder {
        self.config.addr = addr.into();
        self
    }

    /// Sets the connection limit.
    pub fn max_connections(mut self, max: usize) -> HttpServerBuilder {
        self.config.max_connections = max;
        self
    }

    /// Sets the read deadline for partially received requests.
    pub fn read_timeout(mut self, timeout: Duration) -> HttpServerBuilder {
        self.config.read_timeout = timeout;
        self
    }

    /// Sets the write-progress deadline.
    pub fn write_timeout(mut self, timeout: Duration) -> HttpServerBuilder {
        self.config.write_timeout = timeout;
        self
    }

    /// Sets the keep-alive idle deadline.
    pub fn idle_timeout(mut self, timeout: Duration) -> HttpServerBuilder {
        self.config.idle_timeout = timeout;
        self
    }

    /// Sets the shutdown drain budget.
    pub fn drain_timeout(mut self, timeout: Duration) -> HttpServerBuilder {
        self.config.drain_timeout = timeout;
        self
    }

    /// Validates the assembly, binds the listener, spawns the event-loop
    /// thread, and returns the running front door.
    pub fn build(self) -> Result<HttpServer, MipsError> {
        let server = self
            .server
            .ok_or_else(|| MipsError::InvalidConfig("an HTTP server needs a MipsServer".into()))?;
        let config = self.config;
        if config.max_connections == 0 {
            return Err(MipsError::InvalidConfig(
                "max_connections must be at least 1".into(),
            ));
        }
        for (name, value) in [
            ("read_timeout", config.read_timeout),
            ("write_timeout", config.write_timeout),
            ("idle_timeout", config.idle_timeout),
        ] {
            if value.is_zero() {
                return Err(MipsError::InvalidConfig(format!(
                    "{name} must be nonzero (connections would be condemned instantly)"
                )));
            }
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| MipsError::InvalidConfig(format!("binding {}: {e}", config.addr)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| MipsError::InvalidConfig(format!("nonblocking listener: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| MipsError::InvalidConfig(format!("resolving local address: {e}")))?;

        let counters = Arc::new(NetCounters::default());
        let (wake_tx, wake_rx) = poll::wake_pair()
            .map_err(|e| MipsError::InvalidConfig(format!("opening the wake socket: {e}")))?;
        let waker = Arc::new(Waker {
            gate: WakeGate::new(),
            stop: AtomicBool::new(false),
            tx: wake_tx,
            counters: Arc::clone(&counters),
        });
        let router = Router {
            server: Arc::clone(&server),
            swap_source: self.swap_source,
            counters: Arc::clone(&counters),
            waker: Arc::clone(&waker),
        };
        let loop_config = config.clone();
        let thread = std::thread::Builder::new()
            .name("mips-net".to_string())
            .spawn(move || run_loop(listener, wake_rx, router, loop_config))
            .map_err(|e| MipsError::InvalidConfig(format!("spawning net thread: {e}")))?;
        Ok(HttpServer {
            addr,
            waker,
            thread: Some(thread),
            counters,
            server,
        })
    }
}

/// The running HTTP front door. Dropping it (or calling
/// [`HttpServer::shutdown`]) stops accepting, drains in-flight work within
/// the configured budget, and joins the event-loop thread.
pub struct HttpServer {
    addr: SocketAddr,
    waker: Arc<Waker>,
    thread: Option<JoinHandle<()>>,
    counters: Arc<NetCounters>,
    server: Arc<MipsServer>,
}

impl HttpServer {
    /// Starts assembling a front door.
    pub fn builder() -> HttpServerBuilder {
        HttpServerBuilder::new()
    }

    /// The bound address (with the real port when `addr` asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving runtime behind this front door.
    pub fn server(&self) -> &Arc<MipsServer> {
        &self.server
    }

    /// Snapshot of the connection-level counters.
    pub fn metrics(&self) -> NetMetrics {
        self.counters.snapshot()
    }

    /// Stops accepting, drains in-flight connections (up to
    /// `drain_timeout`), joins the event loop, and returns the final
    /// counters.
    pub fn shutdown(mut self) -> Result<NetMetrics, MipsError> {
        self.waker.request_stop();
        if let Some(thread) = self.thread.take() {
            thread.join().map_err(|_| MipsError::WorkerPanicked {
                message: "net event-loop thread exited abnormally".into(),
            })?;
        }
        Ok(self.counters.snapshot())
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.waker.request_stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .field("workers", &self.server.worker_count())
            .finish()
    }
}

/// How threads outside the event loop reach it: serving workers that
/// finished a request, and whoever asks the front door to stop.
struct Waker {
    gate: WakeGate,
    stop: AtomicBool,
    /// The write end of the loop's wake socket; nonblocking, so no caller
    /// ever waits on it.
    tx: WakeStream,
    counters: Arc<NetCounters>,
}

impl Waker {
    /// Ends the loop's sleep if it is asleep (or about to be); costs one
    /// atomic swap otherwise. Call after publishing whatever the loop is
    /// to find.
    fn wake(&self) {
        self.gate.wake(|| {
            // A full socket buffer means unread wake-ups are already
            // pending, which is all a wake-up is.
            if matches!((&self.tx).write(&[1]), Ok(1)) {
                self.counters.add(&self.counters.completion_wakes, 1);
            }
        });
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake();
    }

    fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// Routes parsed requests onto the serving runtime and the admin surface.
struct Router {
    server: Arc<MipsServer>,
    swap_source: Option<SwapSource>,
    counters: Arc<NetCounters>,
    waker: Arc<Waker>,
}

fn immediate(status: u16, body: String) -> Dispatched {
    Dispatched::Immediate {
        status,
        body,
        extra: Vec::new(),
    }
}

impl Router {
    /// `POST /query`: admitted with a completion notifier, so the worker
    /// that finishes the request renders it into the slot's mailbox and
    /// wakes the loop; the loop itself never waits on the runtime.
    fn query(&self, request: &http::Request) -> Dispatched {
        let query = match json::decode_query_request(&request.body) {
            Ok(query) => query,
            Err(message) => return immediate(400, json::encode_error(400, &message)),
        };
        let mailbox = Arc::new(Mailbox::new());
        let (slot, waker) = (Arc::clone(&mailbox), Arc::clone(&self.waker));
        let keep_alive = request.keep_alive;
        let admitted = self.server.try_submit_notify(&query, move |outcome| {
            // Filled exactly once: the runtime calls a notifier once.
            let _ = slot.set(conn::render_query_outcome(outcome, keep_alive));
            waker.wake();
        });
        match admitted {
            Ok(()) => Dispatched::Query(mailbox),
            Err(error) => {
                let status = error.http_status();
                let mut extra = Vec::new();
                if matches!(error, MipsError::ServerOverloaded { .. }) {
                    self.counters.add(&self.counters.rejected_overload, 1);
                    extra.push(("Retry-After", RETRY_AFTER.to_string()));
                }
                Dispatched::Immediate {
                    status,
                    body: json::encode_error(status, &error.to_string()),
                    extra,
                }
            }
        }
    }

    /// `POST /vector-query`: the exact top-k for one ad-hoc factor vector,
    /// dense or sparse (see [`json::decode_vector_query_request`] for the
    /// wire shapes). One point lookup is a different cost class from the
    /// batch `/query` path, so it does not go through the worker pool's
    /// admission queue — but it is still computed synchronously *on the
    /// event-loop thread*, the one request that can hold every connection
    /// up while it runs (the first sparse-routed query per model epoch
    /// also pays the inverted index's lazy build there). Moving it onto
    /// the completion-driven path `/query` takes is ROADMAP item 9(a),
    /// still open.
    fn vector_query(&self, request: &http::Request) -> Dispatched {
        let query = match json::decode_vector_query_request(&request.body) {
            Ok(query) => query,
            Err(message) => return immediate(400, json::encode_error(400, &message)),
        };
        match self.server.engine().execute_vector(&query) {
            Ok(response) => immediate(200, json::encode_response(&response)),
            Err(error) => {
                let status = error.http_status();
                immediate(status, json::encode_error(status, &error.to_string()))
            }
        }
    }

    fn metrics_body(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_raw("server", &self.server.metrics().to_json());
        w.field_raw("net", &self.counters.snapshot().to_json());
        w.end_obj();
        w.finish()
    }

    fn healthz_body(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_bool("ok", true);
        w.field_u64("epoch", self.server.engine().epoch());
        w.field_u64("workers", self.server.worker_count() as u64);
        w.end_obj();
        w.finish()
    }

    fn swap(&self) -> Dispatched {
        let Some(source) = &self.swap_source else {
            return immediate(
                501,
                json::encode_error(501, "no swap source configured on this server"),
            );
        };
        let model = match source() {
            Ok(model) => model,
            Err(message) => {
                return immediate(
                    500,
                    json::encode_error(500, &format!("swap source failed: {message}")),
                )
            }
        };
        match self.server.engine().swap_model(model) {
            Ok(epoch) => {
                self.counters.add(&self.counters.admin_swaps, 1);
                let mut w = JsonWriter::new();
                w.begin_obj();
                w.field_bool("swapped", true);
                w.field_u64("epoch", epoch);
                w.field_u64("swaps", self.server.engine().swap_count());
                w.end_obj();
                immediate(200, w.finish())
            }
            Err(error) => {
                let status = error.http_status();
                immediate(status, json::encode_error(status, &error.to_string()))
            }
        }
    }

    fn method_not_allowed(&self, allow: &'static str) -> Dispatched {
        Dispatched::Immediate {
            status: 405,
            body: json::encode_error(405, &format!("method not allowed; use {allow}")),
            extra: vec![("Allow", allow.to_string())],
        }
    }
}

impl Dispatch for Router {
    fn dispatch(&self, request: &http::Request) -> Dispatched {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/query") => self.query(request),
            ("POST", "/vector-query") => self.vector_query(request),
            ("GET", "/metrics") => immediate(200, self.metrics_body()),
            ("GET", "/healthz") => immediate(200, self.healthz_body()),
            ("POST", "/admin/swap") => self.swap(),
            (_, "/query") | (_, "/vector-query") | (_, "/admin/swap") => {
                self.method_not_allowed("POST")
            }
            (_, "/metrics") | (_, "/healthz") => self.method_not_allowed("GET"),
            (_, path) => immediate(
                404,
                json::encode_error(404, &format!("no route for {path}")),
            ),
        }
    }
}

/// The event loop: blocks until a socket is ready, a worker finished a
/// request, or a deadline is due; then does exactly that work. After
/// [`Waker::request_stop`] the same loop runs the graceful drain: it stops
/// accepting (the listener drops), lets in-flight requests settle and
/// flush, closes idle connections, and force-closes whatever remains at
/// the drain deadline.
fn run_loop(listener: TcpListener, mut wake_rx: WakeStream, router: Router, config: NetConfig) {
    let limits = Limits::default();
    let deadlines = Deadlines {
        read: config.read_timeout,
        write: config.write_timeout,
        idle: config.idle_timeout,
    };
    let waker = Arc::clone(&router.waker);
    let counters = Arc::clone(&router.counters);
    let mut listener = Some(listener);
    let mut drain_deadline: Option<Instant> = None;
    let mut conns: Vec<Conn> = Vec::new();
    // Rebuilt every turn: [wake socket, connections.., listener].
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        let now = Instant::now();
        if drain_deadline.is_none() && waker.stop_requested() {
            listener = None;
            drain_deadline = Some(now + config.drain_timeout);
        }
        let draining = drain_deadline.is_some();

        // Everything that needs no new readiness: send what workers
        // rendered, apply deadlines, drop what is finished.
        for conn in conns.iter_mut() {
            conn.advance(&deadlines, now);
        }
        let before = conns.len();
        conns.retain(|conn| !(conn.is_closed() || draining && conn.drained()));
        counters.add(&counters.closed, (before - conns.len()) as u64);
        if drain_deadline.is_some_and(|deadline| conns.is_empty() || now >= deadline) {
            break;
        }

        // Sleep until there is something to do. Announce → re-check →
        // sleep: a worker that fills a front slot from here on finds the
        // gate set and writes the wake socket.
        fds.clear();
        fds.push(PollFd::new(&wake_rx, READABLE));
        fds.extend(
            conns
                .iter()
                .map(|conn| PollFd::new(conn.stream(), conn.interest(draining))),
        );
        fds.extend(listener.iter().map(|l| PollFd::new(l, READABLE)));
        let timeout = conns
            .iter()
            .filter_map(|conn| conn.next_deadline(&deadlines))
            .chain(drain_deadline)
            .min()
            .map(|due| due.saturating_duration_since(now));
        let work_waiting =
            || (!draining && waker.stop_requested()) || conns.iter().any(Conn::front_ready);
        if waker
            .gate
            .sleep_unless(work_waiting, || poll::wait(&mut fds, timeout))
            .is_none()
        {
            continue;
        }
        counters.add(&counters.loop_wakeups, 1);

        let now = Instant::now();
        if fds[0].readable() {
            // Level-triggered: leave nothing behind or the next wait
            // returns at once. One read takes every pending wake-up short
            // of a burst larger than the buffer.
            let _ = wake_rx.read(&mut [0u8; 64]);
        }
        for (conn, fd) in conns.iter_mut().zip(&fds[1..]) {
            if !(fd.readable() || fd.failed()) {
                continue;
            }
            if conn.wants_read(draining) {
                // EOF and socket errors surface through the read.
                conn.on_readable(&router, &limits, now);
            } else if fd.failed() {
                conn.abort();
            }
        }
        // Accept everything pending; beyond max_connections, connections
        // are shed with a 503 instead of left dangling in the backlog.
        // (The listener's entry, while there is one, is the last.)
        let Some(listener) = listener
            .as_ref()
            .filter(|_| fds.last().is_some_and(PollFd::readable))
        else {
            continue;
        };
        loop {
            let conn = match listener.accept() {
                Ok((stream, _)) => {
                    counters.add(&counters.accepted, 1);
                    if conns.len() >= config.max_connections {
                        counters.add(&counters.shed, 1);
                        Conn::shed(stream, Arc::clone(&counters), now)
                    } else {
                        Conn::new(stream, Arc::clone(&counters), now)
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if let Ok(conn) = conn {
                conns.push(conn);
            }
        }
    }
    counters.add(&counters.closed, conns.len() as u64);
}

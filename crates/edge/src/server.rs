//! The edge server: acceptor, worker pool, router, and lifecycle.
//!
//! ```text
//!            ┌──────────┐   bounded channel    ┌──────────┐
//!  TCP ───▶ │ acceptor  │ ───(admission)────▶ │ worker×N  │ ──▶ ReputationService
//!            └──────────┘   Full ⇒ canned 503  └──────────┘      (sharded core)
//! ```
//!
//! One acceptor thread accepts connections and offers them to a
//! *bounded* channel — connection-level admission control. When every
//! worker is busy and the pending queue is full, the acceptor answers
//! `503` itself and closes, so overload produces fast typed refusals
//! instead of unbounded queueing. Each worker serves one connection at
//! a time through a keep-alive loop; requests inside the service are
//! still batched per shard by the service's own channels, so socket
//! concurrency and shard concurrency stay independently bounded.
//!
//! # Lifecycle
//!
//! `start` validates the service configuration and binds the listener
//! *first*, then builds the service (shard spawn + boot calibration) on
//! a builder thread. Until the service is ready the edge answers
//! `/healthz` with `503 {"status":"warming"}` and refuses work with the
//! same body, so orchestration can point traffic at the port immediately
//! and gate on health. `serve` skips warming by adopting an
//! already-running service. [`EdgeServer::drain`]
//! (triggered by SIGTERM in the binary) stops the acceptor, lets
//! workers finish in-flight requests, then shuts the service down —
//! which takes a final snapshot (when enabled) and persists the
//! calibration cache. With `checkpoint_interval` set, a background
//! thread additionally checkpoints the ready service periodically so a
//! SIGKILL loses at most one interval of recovery time.
//!
//! # Request tracing
//!
//! Every service request (ingest, assess, traced assess, batch) gets a
//! nonzero trace ID — from the client's `x-hp-trace` header or freshly
//! drawn — echoed back in the response's `x-hp-trace` header. When spans
//! are enabled the worker assembles a [`hp_service::obs::SpanTree`] per
//! request (admission wait, edge read, shard queue wait, compute, write)
//! from instants it already holds plus the stage timings the shard sends
//! back on the reply channel, and the same ID is stamped onto
//! latency-histogram exemplars. Completed trees land in the
//! [`SpanStore`] behind `GET /debug/slow` and
//! `GET /debug/trace/{id}`. With spans disabled, the per-request cost of
//! the subsystem is one branch.

use crate::config::EdgeConfig;
use crate::http::{self, Method, ReadLimits, RecvError, Request};
use crate::metrics::{EdgeMetrics, FAMILIES, ROUTES};
use crate::wire;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use hp_core::twophase::Assessment;
use hp_core::ServerId;
use hp_service::obs::{
    format_trace_id, next_trace_id, parse_trace_id, render_scalar_family, SloMonitor, SpanBuilder,
    SpanStore,
};
use hp_service::{
    AssessOutcome, AssessTimings, AssessmentTrace, BootProgress, ReputationService, ServiceConfig,
    ServiceError, TracedAssessment,
};
use parking_lot::RwLock;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const STATE_WARMING: u8 = 0;
const STATE_READY: u8 = 1;
const STATE_DRAINING: u8 = 2;

/// Caps and deadlines for reading one request: a head over 16 KiB gets
/// `431`, a body over 8 MiB `413` (and the connection closed); a head not
/// delivered within 5 s of its first byte (slow-loris), or a body within
/// 10 s, gets `408`.
const READ_LIMITS: ReadLimits = ReadLimits {
    max_head_bytes: 16 * 1024,
    max_body_bytes: 8 * 1024 * 1024,
    header_timeout: Duration::from_secs(5),
    body_timeout: Duration::from_secs(10),
};
/// How long an idle keep-alive connection is held open.
const KEEP_ALIVE_TIMEOUT: Duration = Duration::from_secs(30);
/// Slowest span trees kept per route for `GET /debug/slow`.
const SLOW_CAPTURE: usize = 8;
/// Most recent span trees kept for `GET /debug/trace/{id}` (histogram
/// exemplars point into this ring).
const RECENT_TRACES: usize = 512;

/// State shared by the acceptor, workers, and the handle.
struct Shared {
    /// `None` while warming; set exactly once by the builder thread.
    service: RwLock<Option<Arc<ReputationService>>>,
    /// One of the `STATE_*` constants.
    state: AtomicU8,
    /// Tells the acceptor to stop accepting (drain).
    stop_accepting: AtomicBool,
    /// Recovery progress published by the builder thread's service
    /// construction; `/healthz` renders it while warming.
    boot: Arc<BootProgress>,
    metrics: EdgeMetrics,
    /// Per-request span trees: slow-capture rings per route plus the
    /// recent ring behind `/debug/trace/{id}`.
    spans: SpanStore,
    /// SLO burn-rate accounting; a burning fast window flips `/healthz`
    /// to `degraded`.
    slo: SloMonitor,
    config: EdgeConfig,
}

impl Shared {
    fn state_name(&self) -> &'static str {
        match self.state.load(Ordering::Acquire) {
            STATE_WARMING => "warming",
            STATE_READY => "ready",
            _ => "draining",
        }
    }

    fn service(&self) -> Option<Arc<ReputationService>> {
        self.service.read().clone()
    }
}

/// A running edge front-end. Dropping the handle without calling
/// [`EdgeServer::drain`] detaches the threads (the binary always
/// drains; tests may detach deliberately).
pub struct EdgeServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    builder: Option<JoinHandle<()>>,
    checkpointer: Option<JoinHandle<()>>,
}

impl EdgeServer {
    /// Serves an already-constructed service: the edge is `ready` the
    /// moment this returns (no warming phase).
    ///
    /// # Errors
    ///
    /// Configuration validation and bind errors.
    pub fn serve(service: Arc<ReputationService>, config: EdgeConfig) -> io::Result<EdgeServer> {
        let server = EdgeServer::bind(config)?;
        *server.shared.service.write() = Some(service);
        server.shared.state.store(STATE_READY, Ordering::Release);
        Ok(server)
    }

    /// Binds the listener immediately and builds the service on a
    /// background thread. Until construction (shard spawn, journal
    /// recovery, boot calibration — served from the binary at the
    /// default settings, possibly from the persisted cache at others)
    /// finishes, `/healthz` answers
    /// `503 {"status":"warming"}`.
    ///
    /// # Errors
    ///
    /// `InvalidInput` with the reason when either configuration does not
    /// validate (checked before binding), and bind errors. A construction
    /// error validation cannot foresee (a journal that cannot be opened)
    /// surfaces later: the builder thread prints it to stderr and the
    /// health endpoint stays `warming` for good.
    pub fn start(service_config: ServiceConfig, config: EdgeConfig) -> io::Result<EdgeServer> {
        service_config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let mut server = EdgeServer::bind(config)?;
        let shared = Arc::clone(&server.shared);
        server.builder = Some(
            thread::Builder::new()
                .name("hp-edge-builder".into())
                .spawn(move || {
                    let boot = Arc::clone(&shared.boot);
                    match ReputationService::new_with_progress(service_config, Some(boot)) {
                        Ok(service) => {
                            *shared.service.write() = Some(Arc::new(service));
                            // Readiness only moves forward if a drain has
                            // not already been requested.
                            let _ = shared.state.compare_exchange(
                                STATE_WARMING,
                                STATE_READY,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            );
                        }
                        Err(e) => {
                            eprintln!("hp-edge: service construction failed: {e}");
                        }
                    }
                })?,
        );
        Ok(server)
    }

    fn bind(config: EdgeConfig) -> io::Result<EdgeServer> {
        config
            .validate()
            .map_err(|reason| io::Error::new(io::ErrorKind::InvalidInput, reason))?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            service: RwLock::new(None),
            state: AtomicU8::new(STATE_WARMING),
            stop_accepting: AtomicBool::new(false),
            boot: Arc::new(BootProgress::new()),
            metrics: EdgeMetrics::default(),
            spans: SpanStore::new(&ROUTES, SLOW_CAPTURE, RECENT_TRACES, config.spans),
            slo: SloMonitor::new(config.slo),
            config,
        });

        // Connections travel with their accept instant so the first
        // request on each can attribute its admission-channel wait; twice
        // as many connections as workers may wait before the acceptor
        // refuses.
        let pool = shared.config.effective_workers();
        let (conn_tx, conn_rx) = channel::bounded::<(TcpStream, Instant)>(2 * pool);
        let workers = (0..pool)
            .map(|idx| {
                let rx = conn_rx.clone();
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("hp-edge-worker-{idx}"))
                    .spawn(move || worker_loop(&rx, &shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        drop(conn_rx);

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("hp-edge-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &conn_tx, &shared))?
        };

        let checkpointer = match shared.config.checkpoint_interval {
            Some(interval) => {
                let shared = Arc::clone(&shared);
                Some(
                    thread::Builder::new()
                        .name("hp-edge-checkpointer".into())
                        .spawn(move || checkpoint_loop(&shared, interval))?,
                )
            }
            None => None,
        };

        Ok(EdgeServer {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
            builder: None,
            checkpointer,
        })
    }

    /// The bound address (resolves `:0` to the chosen ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current lifecycle state: `"warming"`, `"ready"`, or `"draining"`.
    pub fn state(&self) -> &'static str {
        self.shared.state_name()
    }

    /// Socket-level counters (shared with the serving threads).
    pub fn metrics(&self) -> &EdgeMetrics {
        &self.shared.metrics
    }

    /// The SLO monitor backing the `hp_slo_*` gauges and the `/healthz`
    /// `degraded` flip.
    pub fn slo(&self) -> &SloMonitor {
        &self.shared.slo
    }

    /// The served service, once warming finished.
    pub fn service(&self) -> Option<Arc<ReputationService>> {
        self.shared.service()
    }

    /// Blocks until warming finishes (service constructed) or the
    /// timeout passes. Returns readiness.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if self.shared.state.load(Ordering::Acquire) == STATE_READY {
                return true;
            }
            thread::sleep(Duration::from_millis(10));
        }
        self.shared.state.load(Ordering::Acquire) == STATE_READY
    }

    /// Graceful drain: stop accepting, finish in-flight requests, join
    /// every worker, then shut the service down (persisting the
    /// calibration cache). Idempotent-adjacent: a second call is a
    /// no-op because the threads are already joined.
    pub fn drain(mut self) {
        self.shared.state.store(STATE_DRAINING, Ordering::Release);
        self.shared.stop_accepting.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(builder) = self.builder.take() {
            let _ = builder.join();
        }
        if let Some(checkpointer) = self.checkpointer.take() {
            let _ = checkpointer.join();
        }
        if let Some(service) = self.shared.service.write().take() {
            match Arc::try_unwrap(service) {
                // Sole owner: the full shutdown path (drain shards, close
                // journals, persist calibration).
                Ok(service) => service.shutdown(),
                // The caller kept a handle (tests, `serve` embedders):
                // checkpoint the calibration cache and leave the service
                // to the remaining owner.
                Err(service) => {
                    let _ = service.save_calibration();
                }
            }
        }
    }
}

/// Accepts connections and applies admission control.
fn acceptor_loop(listener: &TcpListener, conn_tx: &Sender<(TcpStream, Instant)>, shared: &Shared) {
    while !shared.stop_accepting.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                match conn_tx.try_send((stream, Instant::now())) {
                    Ok(()) => {
                        shared
                            .metrics
                            .connections_accepted
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    Err(TrySendError::Full((mut stream, _accepted_at))) => {
                        // Admission refused: answer directly so the client
                        // sees a typed 503, not a hang.
                        shared
                            .metrics
                            .connections_refused
                            .fetch_add(1, Ordering::Relaxed);
                        shared.metrics.record_response(503);
                        let body = wire::render_error(
                            "overloaded",
                            "all workers busy and the pending-connection queue is full",
                        );
                        let _ = http::write_response(
                            &mut stream,
                            503,
                            body.as_bytes(),
                            "application/json",
                            false,
                            &[],
                        );
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// One worker: serve connections off the channel until it closes.
fn worker_loop(conn_rx: &Receiver<(TcpStream, Instant)>, shared: &Shared) {
    while let Ok(conn) = conn_rx.recv() {
        serve_connection(conn, shared);
    }
}

/// Periodic checkpointer: once the service is READY, calls
/// [`ReputationService::checkpoint`] every `interval` — each shard
/// writes a durable snapshot and the calibration cache is persisted, so
/// a SIGKILL between graceful drains loses at most one interval of
/// recovery time. Sleeps in short ticks so a drain is observed promptly
/// even under long intervals.
fn checkpoint_loop(shared: &Shared, interval: Duration) {
    let tick = interval.min(Duration::from_millis(50));
    let mut next = std::time::Instant::now() + interval;
    loop {
        thread::sleep(tick);
        match shared.state.load(Ordering::Acquire) {
            STATE_DRAINING => return,
            STATE_READY => {}
            // Still warming: the first interval starts at readiness.
            _ => {
                next = std::time::Instant::now() + interval;
                continue;
            }
        }
        if std::time::Instant::now() < next {
            continue;
        }
        next = std::time::Instant::now() + interval;
        if let Some(service) = shared.service() {
            if let Err(e) = service.checkpoint() {
                eprintln!("hp-edge: periodic checkpoint failed: {e}");
            }
        }
    }
}

/// A response about to be written.
struct Reply {
    status: u16,
    body: String,
    content_type: &'static str,
}

impl Reply {
    fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            body,
            content_type: "application/json",
        }
    }

    fn error(status: u16, error: &str, detail: &str) -> Reply {
        Reply::json(status, wire::render_error(error, detail))
    }
}

/// The route class of a request: the [`ROUTES`] entry it lands on, or
/// `None` for endpoints that are not traced (`/healthz`, `/metrics`,
/// `/debug/*`, `/version`, protocol errors).
fn route_class(request: &Request) -> Option<&'static str> {
    match (request.method, request.path.as_str()) {
        (Method::Post, "/ingest") => Some("/ingest"),
        (Method::Post, "/assess") => Some("/assess_batch"),
        (Method::Get, path) if path.starts_with("/assess_traced/") => Some("/assess_traced"),
        (Method::Get, path) if path.starts_with("/assess/") => Some("/assess"),
        _ => None,
    }
}

/// Per-request observability, threaded through the router: the trace ID,
/// the span tree under construction, and what to record once the
/// response bytes are on the wire. When spans are disabled and the
/// client sent no trace header, all of this degrades to route/latency
/// bookkeeping with `trace == 0` and no builder.
struct RequestObs {
    route: Option<&'static str>,
    trace: u64,
    /// Request start: connection accept for the first request on a
    /// connection, first header byte for keep-alive successors.
    started: Instant,
    builder: Option<SpanBuilder>,
    /// Verdict provenance, recorded as the finished tree's detail.
    verdict: String,
    /// Whether this request counts against the assess-latency SLO.
    slo_assess: bool,
}

impl RequestObs {
    /// Starts the per-request context once the head is parsed. A client
    /// trace ID wins; otherwise one is generated iff spans are on.
    fn begin(
        request: &Request,
        shared: &Shared,
        admitted: Option<(Instant, Instant)>,
        first_byte: Instant,
        read_done: Instant,
    ) -> RequestObs {
        let route = route_class(request);
        let spans_on = shared.spans.enabled();
        let trace = match route {
            Some(_) if request.trace != 0 => request.trace,
            Some(_) if spans_on => next_trace_id(),
            _ => 0,
        };
        let started = admitted.map_or(first_byte, |(accepted, _)| accepted);
        let mut builder = match route {
            Some(endpoint) if spans_on && trace != 0 => {
                Some(SpanBuilder::new_at(trace, endpoint, started))
            }
            _ => None,
        };
        if let Some(b) = builder.as_mut() {
            if let Some((accepted, dequeued)) = admitted {
                b.add(
                    "admission_wait",
                    accepted,
                    dequeued,
                    "bounded connection channel",
                );
            }
            b.add(
                "edge_read",
                first_byte,
                read_done,
                format!("body_bytes={}", request.body.len()),
            );
        }
        RequestObs {
            route,
            trace,
            started,
            builder,
            verdict: String::new(),
            slo_assess: false,
        }
    }

    /// Whether a span tree is being built (spans on, traced route).
    fn tracing(&self) -> bool {
        self.builder.is_some()
    }

    /// Records one edge-measured stage.
    fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        detail: impl Into<std::borrow::Cow<'static, str>>,
    ) {
        if let Some(b) = self.builder.as_mut() {
            b.add(name, start, end, detail);
        }
    }

    /// Attributes a fresh assess's service-call window using the stage
    /// timings the shard sent back on the reply channel: queue wait and
    /// compute positioned inside the window, the residual (channel
    /// send/recv and scheduling) as `reply_path`. A degraded answer never
    /// entered the shard queue, so it gets a single `degraded_serve`
    /// stage instead.
    fn observe_assess(
        &mut self,
        shard: usize,
        call_start: Instant,
        call_end: Instant,
        timings: Option<&AssessTimings>,
    ) {
        self.slo_assess = true;
        let Some(b) = self.builder.as_mut() else {
            return;
        };
        match timings {
            Some(t) => {
                let call_ns = call_end.saturating_duration_since(call_start).as_nanos() as u64;
                let start = b.offset_ns(call_start);
                b.add_ns(
                    "queue_wait",
                    start,
                    t.queue_wait_ns,
                    format!("shard={shard}"),
                );
                b.add_ns(
                    "compute",
                    start + t.queue_wait_ns,
                    t.compute_ns,
                    format!("shard={shard} cache_hit={}", t.from_cache),
                );
                let attributed = t.queue_wait_ns + t.compute_ns;
                b.add_ns(
                    "reply_path",
                    start + attributed.min(call_ns),
                    call_ns.saturating_sub(attributed),
                    "channel send/recv and scheduling",
                );
            }
            None => {
                b.add(
                    "degraded_serve",
                    call_start,
                    call_end,
                    "served from the published-verdict cache",
                );
            }
        }
    }

    /// Closes out the request after the response bytes are written:
    /// per-route latency histogram (exemplar-linked), SLO observation,
    /// and the finished span tree into the store.
    fn finish(mut self, shared: &Shared, status: u16, write_start: Instant, write_end: Instant) {
        let Some(route) = self.route else { return };
        let total_ns = write_end.saturating_duration_since(self.started).as_nanos() as u64;
        shared.metrics.record_route(route, total_ns, self.trace);
        if self.slo_assess {
            shared.slo.record_assess(Duration::from_nanos(total_ns));
        }
        if let Some(mut builder) = self.builder.take() {
            builder.add("write", write_start, write_end, format!("status={status}"));
            shared.spans.record(builder.finish(self.verdict));
        }
    }
}

/// The keep-alive loop for one connection. Every exit path either wrote
/// a response or determined the client is gone; nothing here panics on
/// hostile input — protocol errors become typed statuses and the
/// connection closes.
fn serve_connection(conn: (TcpStream, Instant), shared: &Shared) {
    let (mut stream, accepted_at) = conn;
    let dequeued_at = Instant::now();
    // The admission-channel wait is attributable only to the first
    // request on the connection; keep-alive successors start at their
    // own first header byte.
    let mut admitted = Some((accepted_at, dequeued_at));
    loop {
        let draining = || shared.state.load(Ordering::Acquire) == STATE_DRAINING;
        match http::wait_for_request(&stream, KEEP_ALIVE_TIMEOUT, draining) {
            Ok(()) => {}
            Err(_) => return, // idle bound, drain, peer gone, transport error
        }
        let first_byte = Instant::now();
        let request = match http::read_request(&mut stream, &READ_LIMITS) {
            Ok(request) => request,
            Err(e) => {
                let reply = match e {
                    RecvError::Closed | RecvError::Idle | RecvError::Io(_) => return,
                    RecvError::Timeout => {
                        Reply::error(408, "timeout", "request head or body not delivered in time")
                    }
                    RecvError::HeadTooLarge => {
                        Reply::error(431, "head_too_large", "request head exceeds the cap")
                    }
                    RecvError::BodyTooLarge => {
                        Reply::error(413, "body_too_large", "request body exceeds the cap")
                    }
                    RecvError::Malformed(reason) => Reply::error(400, "malformed", reason),
                };
                shared
                    .metrics
                    .protocol_rejects
                    .fetch_add(1, Ordering::Relaxed);
                write_reply(&mut stream, shared, &reply, false, &[]);
                return;
            }
        };

        let mut obs = RequestObs::begin(
            &request,
            shared,
            admitted.take(),
            first_byte,
            Instant::now(),
        );
        let reply = route(&request, shared, &mut obs);
        let keep_alive = request.keep_alive && !draining();
        if draining() {
            shared
                .metrics
                .served_while_draining
                .fetch_add(1, Ordering::Relaxed);
        }
        // Echo the trace ID so clients can correlate their observation
        // with `/debug/trace/{id}` and the histogram exemplars.
        let extra: Vec<(&str, String)> = if obs.trace != 0 {
            vec![("x-hp-trace", format_trace_id(obs.trace))]
        } else {
            Vec::new()
        };
        let write_start = Instant::now();
        let ok = write_reply(&mut stream, shared, &reply, keep_alive, &extra);
        let status = reply.status;
        obs.finish(shared, status, write_start, Instant::now());
        if !ok || !keep_alive {
            return;
        }
    }
}

fn write_reply(
    stream: &mut TcpStream,
    shared: &Shared,
    reply: &Reply,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> bool {
    shared.metrics.record_response(reply.status);
    http::write_response(
        stream,
        reply.status,
        reply.body.as_bytes(),
        reply.content_type,
        keep_alive,
        extra_headers,
    )
    .is_ok()
}

/// Dispatches one parsed request.
fn route(request: &Request, shared: &Shared, obs: &mut RequestObs) -> Reply {
    match (request.method, request.path.as_str()) {
        (Method::Get, "/healthz") => health(shared),
        (Method::Get, "/metrics") => metrics(shared),
        (Method::Get, "/version") => version(shared),
        (Method::Get, "/debug/slow") => debug_slow(shared),
        (Method::Get, path) if path.starts_with("/debug/trace/") => debug_trace(path, shared),
        (Method::Post, "/ingest") => with_service(shared, |s| ingest(request, shared, &s, obs)),
        (Method::Post, "/assess") => with_service(shared, |s| assess_batch(request, &s, obs)),
        (Method::Get, path) if path.starts_with("/assess_traced/") => {
            with_service(shared, |s| assess_traced(path, &s, obs))
        }
        (Method::Get, path) if path.starts_with("/assess/") => {
            with_service(shared, |s| assess_one(path, shared, &s, obs))
        }
        // Known paths with the wrong method get 405, the rest 404.
        (_, "/healthz" | "/metrics" | "/ingest" | "/assess" | "/version" | "/debug/slow") => {
            Reply::error(
                405,
                "method_not_allowed",
                "see the endpoint table in DESIGN.md",
            )
        }
        (_, path) if path.starts_with("/assess") || path.starts_with("/debug/trace/") => {
            Reply::error(
                405,
                "method_not_allowed",
                "assessments and traces are GET requests",
            )
        }
        _ => Reply::error(404, "not_found", "unknown endpoint"),
    }
}

/// Runs `f` against the service, answering `503 warming` before the
/// builder thread has finished constructing it.
fn with_service(shared: &Shared, f: impl FnOnce(Arc<ReputationService>) -> Reply) -> Reply {
    match shared.service() {
        Some(service) => f(service),
        None => Reply::error(
            503,
            "warming",
            "service is still calibrating; poll /healthz",
        ),
    }
}

fn health(shared: &Shared) -> Reply {
    let state = shared.state_name();
    match shared.service() {
        Some(service) if state == "ready" => {
            let stats = service.stats();
            let shards = service.config().shards();
            // Degraded when shards are gone — or when the fast SLO
            // window is burning budget faster than it accrues (the
            // objective is being missed right now). HTTP status stays
            // 200: the edge is serving, just not to its promises.
            let status = if stats.failed_shards > 0 || shared.slo.burns().fast_burning() {
                "degraded"
            } else {
                "ready"
            };
            Reply::json(
                200,
                wire::render_health(
                    status,
                    shards,
                    stats.failed_shards,
                    stats.shard_restarts,
                    stats.tracked_servers,
                    (stats.tier_hot_suffix_bytes, stats.tier_spilled_bytes),
                    Some(service.calibration_readiness()),
                ),
            )
        }
        // Warming: not ready, but say how far recovery has come so a
        // hung boot is distinguishable from a long journal replay.
        _ if state == "warming" => Reply::json(
            503,
            wire::render_warming_health(state, &shared.boot.status()),
        ),
        // Draining: not ready for traffic, says so.
        _ => Reply::json(503, wire::render_health(state, 0, 0, 0, 0, (0, 0), None)),
    }
}

fn metrics(shared: &Shared) -> Reply {
    let mut text = shared
        .service()
        .map(|s| s.render_prometheus())
        .unwrap_or_default();
    text.push_str(&shared.metrics.render_prometheus());
    shared.slo.render_prometheus(&mut text);
    let [.., recorded, evicted] = &FAMILIES;
    render_scalar_family(&mut text, recorded, [("", shared.spans.recorded())]);
    render_scalar_family(&mut text, evicted, [("", shared.spans.evicted())]);
    Reply {
        status: 200,
        body: text,
        content_type: "text/plain; version=0.0.4",
    }
}

fn version(shared: &Shared) -> Reply {
    let service = shared.service();
    let labels = service
        .as_ref()
        .map(|s| (s.config().trust().label(), s.config().shards()));
    Reply::json(
        200,
        wire::render_version(
            shared.state_name(),
            labels
                .as_ref()
                .map(|(trust, shards)| (trust.as_str(), *shards)),
        ),
    )
}

fn debug_slow(shared: &Shared) -> Reply {
    Reply::json(200, wire::render_slow(&shared.spans.slowest()))
}

fn debug_trace(path: &str, shared: &Shared) -> Reply {
    let raw = path.strip_prefix("/debug/trace/").unwrap_or("");
    let Some(id) = parse_trace_id(raw) else {
        return Reply::error(400, "bad_trace_id", "want /debug/trace/<hex trace id>");
    };
    match shared.spans.find(id) {
        Some(tree) => Reply::json(200, wire::render_span_tree(&tree)),
        None => Reply::error(
            404,
            "trace_not_found",
            "not in the recent or slow rings (evicted, untraced, or never seen)",
        ),
    }
}

fn ingest(
    request: &Request,
    shared: &Shared,
    service: &ReputationService,
    obs: &mut RequestObs,
) -> Reply {
    let parse_start = Instant::now();
    let feedbacks = match wire::parse_feedback_body(&request.body) {
        Ok(feedbacks) => feedbacks,
        Err(e) => {
            shared
                .metrics
                .protocol_rejects
                .fetch_add(1, Ordering::Relaxed);
            return Reply::error(
                400,
                "bad_feedback",
                &format!("line {}: {}", e.line, e.reason),
            );
        }
    };
    let parse_done = Instant::now();
    obs.span(
        "parse",
        parse_start,
        parse_done,
        format!("feedbacks={}", feedbacks.len()),
    );
    match service.ingest_batch(feedbacks) {
        Ok(outcome) => {
            shared
                .slo
                .record_ingest(outcome.accepted as u64, outcome.shed as u64);
            // The span closes when every shard has taken its sub-batch:
            // queue wait plus the group commit's journal append (and
            // fsync). The apply follows the reply; the ingest-side
            // histograms time it.
            obs.span(
                "dispatch",
                parse_done,
                Instant::now(),
                "shards took the batch: journaled before the reply, applied after",
            );
            obs.verdict = format!("accepted={} shed={}", outcome.accepted, outcome.shed);
            // Shedding under TryFor backpressure is not an internal
            // error — it is the admission contract, reported as 429 with
            // the exact accepted/shed split the service recorded.
            let status = if outcome.shed > 0 { 429 } else { 200 };
            Reply::json(status, wire::render_ingest(&outcome))
        }
        Err(e) => service_error_reply(&e),
    }
}

fn verdict_label(assessment: &Assessment) -> &'static str {
    match assessment {
        Assessment::Accepted { .. } => "accepted",
        Assessment::Rejected { .. } => "rejected",
        Assessment::NeedsReview { .. } => "needs_review",
    }
}

/// Verdict provenance for a fresh assessment's span tree: verdict,
/// cache-hit status, and — when phase 1 ran a calibrated screen — the
/// threshold that decided it.
fn fresh_verdict_detail(server: ServerId, assessment: &Assessment, from_cache: bool) -> String {
    let audit = AssessmentTrace::from_assessment(server, assessment, from_cache);
    let mut detail = format!(
        "verdict={} cache_hit={from_cache} scheme={}",
        verdict_label(assessment),
        audit.scheme,
    );
    if let Some(threshold) = audit.threshold {
        detail.push_str(&format!(" threshold={threshold}"));
    }
    detail
}

fn parse_server(path: &str, prefix: &str) -> Result<ServerId, Reply> {
    path.strip_prefix(prefix)
        .and_then(|raw| raw.parse::<u64>().ok())
        .map(ServerId::new)
        .ok_or_else(|| Reply::error(400, "bad_server_id", "want /assess/<u64>"))
}

fn assess_one(
    path: &str,
    shared: &Shared,
    service: &ReputationService,
    obs: &mut RequestObs,
) -> Reply {
    let server = match parse_server(path, "/assess/") {
        Ok(server) => server,
        Err(reply) => return reply,
    };
    let call_start = Instant::now();
    match service.assess_observed(server, shared.config.assess_deadline, obs.trace) {
        Ok((outcome, timings)) => {
            obs.observe_assess(
                service.shard_of(server),
                call_start,
                Instant::now(),
                timings.as_ref(),
            );
            match outcome {
                AssessOutcome::Fresh(assessment) => {
                    if obs.tracing() {
                        obs.verdict = fresh_verdict_detail(
                            server,
                            &assessment,
                            timings.is_some_and(|t| t.from_cache),
                        );
                    }
                    Reply::json(200, wire::render_assessment(server, &assessment))
                }
                AssessOutcome::Degraded(degraded) => {
                    if obs.tracing() {
                        obs.verdict = format!(
                            "verdict={} degraded=true staleness={}",
                            verdict_label(&degraded.assessment),
                            degraded.staleness(),
                        );
                    }
                    Reply::json(200, wire::render_degraded(server, &degraded))
                }
            }
        }
        Err(e) => service_error_reply(&e),
    }
}

fn assess_traced(path: &str, service: &ReputationService, obs: &mut RequestObs) -> Reply {
    let server = match parse_server(path, "/assess_traced/") {
        Ok(server) => server,
        Err(reply) => return reply,
    };
    let call_start = Instant::now();
    match service.assess_observed(server, None, obs.trace) {
        Ok((outcome, timings)) => {
            obs.observe_assess(
                service.shard_of(server),
                call_start,
                Instant::now(),
                timings.as_ref(),
            );
            match outcome {
                AssessOutcome::Fresh(assessment) => {
                    let from_cache = timings.is_some_and(|t| t.from_cache);
                    if obs.tracing() {
                        obs.verdict = fresh_verdict_detail(server, &assessment, from_cache);
                    }
                    let trace =
                        AssessmentTrace::from_assessment(server, assessment.as_ref(), from_cache);
                    Reply::json(
                        200,
                        wire::render_traced(&TracedAssessment { assessment, trace }),
                    )
                }
                // Unreachable without a deadline, but a degraded answer
                // is still a correct one to serve.
                AssessOutcome::Degraded(degraded) => {
                    Reply::json(200, wire::render_degraded(server, &degraded))
                }
            }
        }
        Err(e) => service_error_reply(&e),
    }
}

fn assess_batch(request: &Request, service: &ReputationService, obs: &mut RequestObs) -> Reply {
    let parse_start = Instant::now();
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Reply::error(400, "bad_batch", "body is not UTF-8"),
    };
    let mut servers = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.parse::<u64>() {
            Ok(id) => servers.push(ServerId::new(id)),
            Err(_) => {
                return Reply::error(
                    400,
                    "bad_batch",
                    &format!("line {}: want one u64 server id per line", idx + 1),
                )
            }
        }
    }
    let parse_done = Instant::now();
    obs.span(
        "parse",
        parse_start,
        parse_done,
        format!("servers={}", servers.len()),
    );
    match service.assess_many_traced(&servers, obs.trace) {
        Ok(answers) => {
            obs.span(
                "service_call",
                parse_done,
                Instant::now(),
                "fan-out: one command per involved shard",
            );
            obs.verdict = format!("servers={}", servers.len());
            Reply::json(200, wire::render_batch(&answers))
        }
        Err(e) => service_error_reply(&e),
    }
}

/// Maps service-level failures to statuses: saturation, restarts and a
/// journal that refused an append are `503` (retryable; a refused batch
/// was not acknowledged), a missed deadline with nothing to degrade to
/// is `504`, domain errors are `422`, and journal faults at start-up are
/// `500`.
fn service_error_reply(e: &ServiceError) -> Reply {
    match e {
        ServiceError::ShardUnavailable { .. } => {
            Reply::error(503, "shard_unavailable", &e.to_string())
        }
        ServiceError::Interrupted { .. } => Reply::error(503, "interrupted", &e.to_string()),
        ServiceError::AppendFailed { .. } => Reply::error(503, "append_failed", &e.to_string()),
        ServiceError::DeadlineExceeded { .. } => {
            Reply::error(504, "deadline_exceeded", &e.to_string())
        }
        ServiceError::Core(_) => Reply::error(422, "assessment_error", &e.to_string()),
        ServiceError::Journal { .. } => Reply::error(500, "journal_error", &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A service configuration that cannot start is refused before the
    /// listener binds, with the reason — not left warming for good.
    #[test]
    fn start_refuses_an_invalid_service_config_before_binding() {
        let refused = EdgeServer::start(
            ServiceConfig::default().with_shards(0),
            EdgeConfig::default(),
        );
        let error = refused.err().expect("zero shards must not start");
        assert_eq!(error.kind(), io::ErrorKind::InvalidInput);
        assert!(error.to_string().contains("at least one shard"), "{error}");
    }
}

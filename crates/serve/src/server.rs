//! The hardened TCP edge: N connection workers share one listener and
//! one supervised [`ServeState`] — a single engine session whose `τ_min`
//! memo every connection reads and warms.
//!
//! Workers `accept` in non-blocking mode with a short poll interval, so
//! a `shutdown` request (or [`ServerHandle::shutdown`]) drains every
//! worker within one interval without platform-specific listener
//! tricks. Each worker handles one connection at a time and solves its
//! requests in place — request *handling* is where the parallelism
//! pays, and the load generator opens exactly as many connections as it
//! wants concurrency. There is no server-side request queue: a request
//! waits only in its connection's socket buffer until that connection's
//! worker reads it.
//!
//! Edge hardening, all opt-in via [`ServeConfig`]:
//!
//! * `addr` accepts non-loopback binds (the CLI's `--bind`);
//! * `max_conns` rejects over-limit connections with a typed `busy`
//!   error line instead of a dropped socket, so clients can tell "down"
//!   from "full" (note the rejection is only observable while a worker
//!   is free to deliver it — size `workers` above `max_conns`);
//! * `read_timeout_ms` closes idle connections with a typed `timeout`
//!   error; `write_timeout_ms` bounds how long a stalled client can
//!   pin a worker mid-response.
//!
//! `stats` responses served over a connection additionally carry a
//! `rejected_conns` counter, supervision tallies (`panics`,
//! `respawns`) and a per-connection `connection` object — none of which
//! exist in the bare [`ServeState`] rendering, which is why the load
//! generator treats `stats` as non-deterministic.
//!
//! Fault tolerance at the edge ([`crate::fault`]):
//!
//! * requests run under `catch_unwind` — a panic answers with a typed
//!   `internal` error (id echoed) and the engine state respawns from
//!   its recipe, so no panic kills a worker;
//! * a `drain` request (or the configured default deadline) flips the
//!   server into draining: new connections and new work get typed
//!   `shutting_down` errors, in-flight requests finish, and the server
//!   stops once idle or at the deadline;
//! * a seeded [`FaultPlan`] can inject panics, delays and mid-response
//!   connection cuts for chaos testing — see [`crate::fault`].

use crate::fault::{EngineSlot, FaultInjector, FaultOrdinals, FaultPlan};
use crate::json::Json;
use crate::protocol::{parse_line, ErrorCode, Request, Response, ServeState, ServerInfo};
use rip_core::Engine;
use rip_obs::{Histogram, MetricsRegistry};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker sleeps between accept polls, and how long a
/// connection read blocks before re-checking the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Longest accepted request line. Generous for real workloads (a
/// 1000-net batch request is ~200 KB) while keeping a newline-less
/// client from exhausting server memory.
const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address
    /// is reported by [`ServerHandle::addr`]). Non-loopback interfaces
    /// are accepted — pair them with `max_conns` and the timeouts.
    pub addr: String,
    /// Connection worker threads (each serving one connection at a
    /// time). The engine's scratch pool is sized to this.
    pub workers: usize,
    /// LRU bound for the engine's `τ_min` memo
    /// ([`Engine::set_value_cache_cap`]); 0 = unbounded.
    pub value_cache_cap: usize,
    /// Concurrent-connection cap; over-limit connections get a typed
    /// `busy` error and a clean close. 0 = unlimited.
    pub max_conns: usize,
    /// Idle-connection read timeout, ms; an idle connection is closed
    /// with a typed `timeout` error. 0 = never (loadgen and tests keep
    /// idle connections open deliberately).
    pub read_timeout_ms: u64,
    /// Per-write timeout, ms, bounding how long a stalled client can
    /// pin a worker mid-response. 0 = never.
    pub write_timeout_ms: u64,
    /// Longest accepted request line, bytes; an over-long line gets a
    /// typed `bad_request` error before the connection closes.
    pub max_line_bytes: usize,
    /// Default drain deadline, seconds, used when a `drain` request
    /// carries no `deadline_ms` of its own.
    pub drain_deadline_secs: u64,
    /// Slow-request threshold, ms: a request whose end-to-end handling
    /// (parse + dispatch + solve + encode + write) takes at least this
    /// long is logged to stderr as
    /// `[rip-serve] slow request id=… cmd=… total_ms=… solve_ms=…`.
    /// 0 (the default) disables the log.
    pub log_slow_ms: u64,
    /// Deterministic fault-injection schedule (chaos testing only;
    /// [`FaultPlan::none`] in production).
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            // A resident service bounds its memo by default; this holds
            // the hot working set of a large design comfortably while
            // keeping memory flat on unbounded request streams.
            value_cache_cap: 4096,
            max_conns: 0,
            read_timeout_ms: 0,
            write_timeout_ms: 30_000,
            max_line_bytes: MAX_LINE_BYTES,
            drain_deadline_secs: 5,
            log_slow_ms: 0,
            faults: FaultPlan::none(),
        }
    }
}

/// The edge's request-tracing instruments: one registry (cleared by
/// `reset_stats`, merged into `metrics` responses) plus pre-resolved
/// handles for the per-request spans. Lives at the edge — not in the
/// engine — so its history survives engine respawns trivially.
#[derive(Debug)]
struct EdgeMetrics {
    registry: Arc<MetricsRegistry>,
    /// Server-side queue wait per request line, ns. There is no
    /// server-side queue, so every observation is 0; the histogram
    /// stays so its count keeps matching the `stats` request counter.
    queue_wait: Arc<Histogram>,
    /// Dispatch-to-response span per request line, ns (engine solve
    /// time included).
    solve: Arc<Histogram>,
    /// Response encode + socket write span per connection-served line,
    /// ns.
    encode_write: Arc<Histogram>,
}

impl EdgeMetrics {
    fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        Self {
            queue_wait: registry.histogram("serve_request_queue_wait_ns"),
            solve: registry.histogram("serve_request_solve_ns"),
            encode_write: registry.histogram("serve_encode_write_ns"),
            registry,
        }
    }

    /// Records one request line's spans.
    fn observe(&self, solve_ns: u64) {
        self.queue_wait.observe(0);
        self.solve.observe(solve_ns);
    }
}

/// Everything a connection worker needs: the supervised engine slot,
/// the edge's own counters and instruments, and the hardening knobs.
/// Requests and connections are counted in the live [`ServeState`].
#[derive(Debug)]
struct Shared {
    engine: EngineSlot,
    metrics: EdgeMetrics,
    faults: Arc<FaultInjector>,
    rejected: AtomicU64,
    active: AtomicUsize,
    stop: AtomicBool,
    draining: AtomicBool,
    max_conns: usize,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    max_line_bytes: usize,
    drain_deadline: Duration,
    log_slow: Option<Duration>,
}

/// Per-connection state (single-threaded: one worker per connection):
/// the counters rendered into that connection's `stats` responses and
/// its fault ordinals.
#[derive(Debug, Default, Clone, Copy)]
struct ConnCounters {
    requests: u64,
    errors: u64,
    faults: FaultOrdinals,
}

/// What the connection loop must do after writing one response.
enum PostAction {
    /// Keep serving.
    None,
    /// `shutdown`: stop the whole server now.
    Stop,
    /// `drain`: start the drain watcher with this deadline.
    Drain(Duration),
}

/// One handled request line: the rendered response, the follow-up
/// action, whether the response is fault-eligible (the drop fault
/// only cuts non-control responses), and the trace spans the
/// slow-request log reports.
struct HandledLine {
    rendered: Json,
    action: PostAction,
    fault_eligible: bool,
    /// The wire `cmd` ("invalid" for lines that did not parse).
    cmd: &'static str,
    /// The request id, echoed in the slow-request log.
    id: Json,
    /// Dispatch-to-response span, ns.
    solve_ns: u64,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// `true` once a `drain` was accepted: no new connections or work.
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Handles one request line at the edge: parse, dispatch under
    /// supervision (intercepting the edge's own commands and
    /// drain-mode rejections), augment `stats` with the edge/connection
    /// view, render.
    fn handle_line(&self, line: &str, conn: &mut ConnCounters) -> HandledLine {
        conn.requests += 1;
        self.engine.state().count_request();
        let (id, parsed) = parse_line(line);
        let cmd = match &parsed {
            Ok(request) => request.cmd(),
            Err(_) => "invalid",
        };
        let mut solve_ns = 0u64;
        // Every counted line observes the queue-wait and solve
        // histograms exactly once, so their counts always equal the
        // `stats` request counter. Two lines bend the default
        // post-dispatch observation to keep that exact: `metrics`
        // observes itself *before* snapshotting (its own increment is
        // in the counter it reports), and `reset_stats` is never
        // observed (its increment is zeroed during handling).
        let mut observed = false;
        let (mut response, action, fault_eligible) = match parsed {
            // A draining server still answers the control plane (an
            // operator must be able to watch the drain) but refuses new
            // work with the typed, non-retryable shutting_down error.
            Ok(request) if self.draining() && !request.is_control() => (
                Response::Error {
                    code: ErrorCode::ShuttingDown,
                    error: "the server is draining; no new work is accepted".to_string(),
                },
                PostAction::None,
                false,
            ),
            // Drain is answered at the edge — the drain machinery
            // (connection gate + stop watcher) lives here, not in the
            // engine state.
            Ok(Request::Drain { deadline_ms }) => {
                let deadline = deadline_ms
                    .map(Duration::from_millis)
                    .unwrap_or(self.drain_deadline);
                (
                    Response::Draining {
                        deadline_ms: deadline.as_millis() as u64,
                    },
                    PostAction::Drain(deadline),
                    false,
                )
            }
            // Metrics is answered at the edge: the edge's
            // request-tracing registry merged with the engine's
            // stage/cache registry.
            Ok(Request::Metrics) => {
                self.metrics.observe(0);
                observed = true;
                let mut snapshot = self.metrics.registry.snapshot();
                snapshot.merge(&self.engine.state().engine().metrics_registry().snapshot());
                (Response::Metrics { snapshot }, PostAction::None, false)
            }
            Ok(request) => {
                let action = if matches!(request, Request::Shutdown) {
                    PostAction::Stop
                } else {
                    PostAction::None
                };
                let t_solve = Instant::now();
                let response = self.engine.handle(&request, &self.faults, &mut conn.faults);
                solve_ns = u64::try_from(t_solve.elapsed().as_nanos()).unwrap_or(u64::MAX);
                if matches!(request, Request::ResetStats) {
                    // Pre-reset values are already rendered into the
                    // response; the post-reset edge reads as zero — the
                    // request-tracing histograms included.
                    self.rejected.store(0, Ordering::Relaxed);
                    self.engine.reset_tallies();
                    self.metrics.registry.reset();
                    observed = true;
                }
                (response, action, !request.is_control())
            }
            Err(e) => (
                Response::Error {
                    code: e.code,
                    error: e.reason,
                },
                PostAction::None,
                false,
            ),
        };
        if !observed {
            self.metrics.observe(solve_ns);
        }
        self.augment_stats(&mut response, conn);
        if response.is_error() {
            conn.errors += 1;
        }
        HandledLine {
            rendered: response.render(&id),
            action,
            fault_eligible,
            cmd,
            id,
            solve_ns,
        }
    }

    /// Appends the edge view to a `stats`/`reset_stats` response: the
    /// rejected-connection counter, the supervision tallies, and this
    /// connection's own counters.
    fn augment_stats(&self, response: &mut Response, conn: &ConnCounters) {
        if let Response::Stats { fields, .. } = response {
            fields.push((
                "rejected_conns",
                Json::from(self.rejected.load(Ordering::Relaxed)),
            ));
            let (panics, respawns) = self.engine.tallies();
            fields.push(("panics", Json::from(panics)));
            fields.push(("respawns", Json::from(respawns)));
            fields.push((
                "connection",
                Json::obj([
                    ("requests", Json::from(conn.requests)),
                    ("errors", Json::from(conn.errors)),
                ]),
            ));
        }
    }
}

/// A running server: join it, read its address, or stop it.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live engine state — mainly for tests and the in-process
    /// benchmark harness. By value, because a post-panic respawn swaps
    /// the state out.
    pub fn state(&self) -> Arc<ServeState> {
        self.shared.engine.state()
    }

    /// Connections rejected over the `max_conns` limit.
    pub fn rejected_conns(&self) -> u64 {
        self.monitor().rejected_conns()
    }

    /// Panics caught by supervised handlers, server-wide.
    pub fn panics_total(&self) -> u64 {
        self.monitor().panics_total()
    }

    /// Engine respawns after caught panics, server-wide.
    pub fn respawns_total(&self) -> u64 {
        self.monitor().respawns_total()
    }

    /// The server's fault injector (chaos tests disarm it mid-run and
    /// reconcile its tallies against `stats`).
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.shared.faults
    }

    /// A cheap counter handle that outlives [`ServerHandle::join`] —
    /// the CLI reads its shutdown summary through one of these.
    pub fn monitor(&self) -> ServerMonitor {
        ServerMonitor {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until the server stops (a client sent `shutdown`, or a
    /// drain concluded), then joins every connection worker.
    pub fn join(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// Stops the server from the hosting process and joins the workers.
    pub fn shutdown(self) {
        self.shared.request_stop();
        self.join();
    }
}

/// Counter access that survives [`ServerHandle::join`] /
/// [`ServerHandle::shutdown`] (both consume the handle): an Arc clone
/// of the shared edge.
#[derive(Debug, Clone)]
pub struct ServerMonitor {
    shared: Arc<Shared>,
}

impl ServerMonitor {
    /// The live engine state (its engine carries the cache counters).
    pub fn state(&self) -> Arc<ServeState> {
        self.shared.engine.state()
    }

    /// Requests handled across the whole server.
    pub fn requests_total(&self) -> u64 {
        self.state().requests()
    }

    /// Connections accepted across the whole server.
    pub fn connections_total(&self) -> u64 {
        self.state().connections()
    }

    /// Connections rejected over the `max_conns` limit.
    pub fn rejected_conns(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Panics caught by supervised handlers, server-wide.
    pub fn panics_total(&self) -> u64 {
        self.shared.engine.tallies().0
    }

    /// Engine respawns after caught panics, server-wide.
    pub fn respawns_total(&self) -> u64 {
        self.shared.engine.tallies().1
    }
}

/// Binds the listener and spawns the connection workers over one
/// supervised [`ServeState`] wrapping `engine`.
///
/// The engine's `τ_min` memo bound and scratch pool are set from `config`
/// before the first worker starts.
///
/// # Errors
///
/// Returns the bind / clone / spawn error verbatim.
///
/// # Examples
///
/// ```
/// use rip_core::Engine;
/// use rip_serve::{Client, Json, ServeConfig, start_server};
/// use rip_tech::Technology;
///
/// let config = ServeConfig { workers: 2, ..ServeConfig::default() };
/// let server = start_server(Engine::paper(Technology::generic_180nm()), &config).unwrap();
/// let mut client = Client::connect(server.addr()).unwrap();
/// let response = client.request_value(&rip_serve::parse_json(r#"{"cmd":"stats"}"#).unwrap()).unwrap();
/// assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
/// client.send_line(r#"{"cmd":"shutdown"}"#).unwrap();
/// server.join();
/// ```
pub fn start_server(engine: Engine, config: &ServeConfig) -> io::Result<ServerHandle> {
    let workers = config.workers.max(1);
    engine.set_value_cache_cap(config.value_cache_cap);
    engine.set_scratch_cap(workers);
    let state = ServeState::new(engine);
    state.set_server_info(ServerInfo {
        workers,
        max_conns: config.max_conns,
    });
    let shared = Arc::new(Shared {
        engine: EngineSlot::new(state, workers),
        metrics: EdgeMetrics::new(),
        faults: Arc::new(FaultInjector::new(config.faults)),
        rejected: AtomicU64::new(0),
        active: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        max_conns: config.max_conns,
        read_timeout: (config.read_timeout_ms > 0)
            .then(|| Duration::from_millis(config.read_timeout_ms)),
        write_timeout: (config.write_timeout_ms > 0)
            .then(|| Duration::from_millis(config.write_timeout_ms)),
        max_line_bytes: config.max_line_bytes.max(1),
        drain_deadline: Duration::from_secs(config.drain_deadline_secs),
        log_slow: (config.log_slow_ms > 0).then(|| Duration::from_millis(config.log_slow_ms)),
    });
    let listener = TcpListener::bind(config.addr.as_str())?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let mut handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let listener = listener.try_clone()?;
        let shared = Arc::clone(&shared);
        handles.push(
            std::thread::Builder::new()
                .name(format!("rip-serve-{i}"))
                .spawn(move || worker_loop(&listener, &shared))?,
        );
    }
    Ok(ServerHandle {
        addr,
        shared,
        workers: handles,
    })
}

fn worker_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                // Draining outranks busy: a late dial learns the server
                // is going away, not that it should retry.
                if shared.draining() {
                    let _ = reject_with(
                        stream,
                        ErrorCode::ShuttingDown,
                        "server is draining; no new connections are accepted".to_string(),
                    );
                    continue;
                }
                if shared.max_conns > 0 && shared.active.load(Ordering::SeqCst) >= shared.max_conns
                {
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    let _ = reject_with(
                        stream,
                        ErrorCode::Busy,
                        format!(
                            "server is at its connection limit ({}); retry later",
                            shared.max_conns
                        ),
                    );
                    continue;
                }
                shared.active.fetch_add(1, Ordering::SeqCst);
                shared.engine.state().count_connection();
                // A broken connection only ends that connection; the
                // worker goes back to accepting.
                let _ = serve_connection(stream, shared);
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }
            Err(e) if polling_retry(&e) => std::thread::sleep(POLL_INTERVAL),
            // Transient accept errors (e.g. aborted handshakes) —
            // back off briefly and keep serving.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// `true` for the error kinds a non-blocking / timed-out read returns
/// when no data is available yet (platform-dependent: `WouldBlock` on
/// Unix, `TimedOut` on Windows).
fn polling_retry(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Turns away a connection with one typed error line and a clean close,
/// so "full" and "draining" are both distinguishable from "down".
fn reject_with(mut stream: TcpStream, code: ErrorCode, error: String) -> io::Result<()> {
    let response = Response::Error { code, error };
    let mut line = response.render(&Json::Null).to_string();
    line.push('\n');
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

/// Starts the drain watcher (idempotent): from now on new connections
/// and new work are refused; once no connection is active — or the
/// deadline passes — the server stops.
fn begin_drain(shared: &Arc<Shared>, deadline: Duration) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    let watcher = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("rip-serve-drain".to_string())
        .spawn(move || {
            let start = Instant::now();
            while watcher.active.load(Ordering::SeqCst) > 0 && start.elapsed() < deadline {
                std::thread::sleep(POLL_INTERVAL);
            }
            watcher.request_stop();
        });
    if spawned.is_err() {
        // No watcher thread means nobody would ever flip the stop flag:
        // degrade to an immediate stop rather than hanging forever.
        shared.request_stop();
    }
}

/// Serves one connection until the client disconnects, idles past the
/// read timeout, or the server stops: reads newline-delimited requests,
/// writes one response line each.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    // Bounded reads so a worker blocked on an idle connection still
    // notices a shutdown within one interval.
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(shared.write_timeout)?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut conn = ConnCounters::default();
    let mut last_data = Instant::now();
    loop {
        // Drain every complete line before reading more.
        while let Some(newline) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=newline).collect();
            let line = String::from_utf8_lossy(&line[..newline]);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let t_line = Instant::now();
            let handled = shared.handle_line(line, &mut conn);
            let t_encode = Instant::now();
            let mut rendered = handled.rendered.to_string();
            rendered.push('\n');
            // The injected drop fault cuts the connection strictly
            // inside an eligible response line — the client sees a
            // truncated (unparseable) reply and an EOF, never a line
            // that parses but lies.
            if handled.fault_eligible {
                if let Some(cut) = shared
                    .faults
                    .drop_response(&mut conn.faults, rendered.len())
                {
                    writer.write_all(&rendered.as_bytes()[..cut])?;
                    writer.flush()?;
                    return Ok(());
                }
            }
            writer.write_all(rendered.as_bytes())?;
            writer.flush()?;
            shared.metrics.encode_write.observe_since(t_encode);
            if let Some(limit) = shared.log_slow {
                let total = t_line.elapsed();
                if total >= limit {
                    eprintln!(
                        "[rip-serve] slow request id={} cmd={} total_ms={:.3} solve_ms={:.3}",
                        handled.id,
                        handled.cmd,
                        total.as_secs_f64() * 1e3,
                        handled.solve_ns as f64 / 1e6,
                    );
                }
            }
            match handled.action {
                PostAction::None => {}
                PostAction::Stop => {
                    shared.request_stop();
                    return Ok(());
                }
                // Keep serving this connection's already-buffered lines
                // (a pipelined drain+solve gets both answers); the
                // draining gate rejects the non-control ones.
                PostAction::Drain(deadline) => begin_drain(shared, deadline),
            }
        }
        if shared.stopping() {
            return Ok(());
        }
        // A draining server closes connections once their buffered work
        // is answered; the drain watcher is waiting on `active` to
        // reach zero.
        if shared.draining() && pending.is_empty() {
            return Ok(());
        }
        // The JSON layer bounds nesting depth against hostile input; the
        // transport must bound line length for the same threat model, or
        // a client that never sends a newline grows server memory
        // without limit.
        if pending.len() > shared.max_line_bytes {
            return close_discarding_input(
                &mut writer,
                &mut reader,
                ErrorCode::BadRequest,
                format!("request line exceeds {} bytes", shared.max_line_bytes),
            ); // drop the connection; the stream is unframed now
        }
        match reader.read(&mut chunk) {
            Ok(0) => return Ok(()), // client closed
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                last_data = Instant::now();
            }
            Err(e) if polling_retry(&e) => {
                if let Some(limit) = shared.read_timeout {
                    if last_data.elapsed() > limit && pending.is_empty() {
                        return close_with_error(
                            &mut writer,
                            ErrorCode::Timeout,
                            format!("connection idle past {} ms", limit.as_millis()),
                        );
                    }
                }
                continue;
            }
            Err(e) => return Err(e),
        }
    }
}

fn close_with_error(writer: &mut TcpStream, code: ErrorCode, error: String) -> io::Result<()> {
    let response = Response::Error { code, error };
    let mut line = response.render(&Json::Null).to_string();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// [`close_with_error`] for a connection that still has unread input
/// (the over-long-line path). Closing a socket with unread data makes
/// the kernel send RST, which destroys the queued error line before the
/// client can read it — the old "silent drop". Instead: write the
/// error, half-close the write side so the client sees a clean FIN
/// after the line, then sink the remaining input (bounded) before
/// letting the socket drop.
fn close_discarding_input(
    writer: &mut TcpStream,
    reader: &mut TcpStream,
    code: ErrorCode,
    error: String,
) -> io::Result<()> {
    let response = Response::Error { code, error };
    let mut line = response.render(&Json::Null).to_string();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()?;
    let _ = writer.shutdown(Shutdown::Write);
    let deadline = Instant::now() + Duration::from_millis(500);
    let mut sink = [0u8; 8192];
    // The reader still has its short poll timeout, so this loop spins
    // cheaply and exits on the client's close (Ok(0)), a hard error, or
    // the deadline.
    while Instant::now() < deadline {
        match reader.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if polling_retry(&e) => {}
            Err(_) => break,
        }
    }
    Ok(())
}

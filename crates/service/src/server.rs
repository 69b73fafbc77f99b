//! The thread-pool TCP server.
//!
//! One acceptor thread hands connections to a fixed pool of workers over a
//! bounded channel (backpressure: when every worker is busy and the queue
//! is full, `accept` itself blocks and the kernel's listen backlog absorbs
//! the burst). Each worker owns one connection at a time and speaks the
//! JSON-lines protocol: read a line, answer a line, until EOF.
//!
//! Cacheable requests flow through the [`ResponseCache`] and the
//! single-flight [`Batcher`]; malformed lines and handler panics become
//! typed error responses, never a dead worker. A `shutdown` request (or
//! [`ServerHandle::shutdown`]) stops the acceptor, drains queued
//! connections and joins every worker.

use crate::batch::Batcher;
use crate::cache::ResponseCache;
use crate::handlers;
use crate::metrics::Metrics;
use crate::protocol::{AdviceResult, AdviceSpec, ErrorCode, Request, Response};
use netpart_engine::{Exec, QueueKind, SolverMode};
use netpart_telemetry::trace::{snapshot, TraceForest};
use netpart_telemetry::{KindLabel, RingReader, Telemetry, TelemetryEvent, DEFAULT_RING_CAPACITY};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (use port 0 for an ephemeral port).
    pub addr: String,
    /// Worker threads — one connection each (defaults to the machine's
    /// available parallelism, floored at 4 so a couple of slow or idle
    /// connections cannot monopolize a small box).
    pub workers: usize,
    /// Total response-cache entries, split evenly over the cache's shards.
    pub cache_capacity: usize,
    /// Max–min solver mode for simulation-backed handlers. An execution
    /// knob only: responses are byte-identical across modes (pinned by the
    /// integration tests), so it never enters cache keys or the protocol.
    pub solver: SolverMode,
    /// Event-queue core for simulation-backed handlers. Like the solver
    /// mode it is an execution knob only: pop order is pinned identical
    /// across kinds (by the `queue_parity` differential suite), so it never
    /// enters cache keys or the protocol.
    pub queue: QueueKind,
    /// Path of the file-backed telemetry ring. `None` keeps in-process
    /// solver aggregates for `stats` but writes no ring file. Like the
    /// solver mode, telemetry is an execution knob only — responses are
    /// byte-identical with and without it.
    pub telemetry_ring: Option<std::path::PathBuf>,
    /// Record capacity for a freshly created telemetry ring (rounded up to
    /// a power of two; an existing ring file keeps its own capacity).
    pub telemetry_ring_capacity: u64,
    /// Slow-request flight recorder: any request slower than this many
    /// milliseconds gets its reconstructed span tree dumped as Chrome trace
    /// JSON. Requires `telemetry_ring` (the tree is read back from the
    /// ring). `Some(0)` dumps every request.
    pub trace_slow_ms: Option<u64>,
    /// Directory for flight-recorder dumps. Defaults to the ring path with
    /// a `.traces` extension. The directory is bounded: dumps rotate
    /// through [`FLIGHT_SLOTS`] slot files.
    pub trace_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(4),
            cache_capacity: 4096,
            solver: SolverMode::default(),
            queue: QueueKind::default(),
            telemetry_ring: None,
            telemetry_ring_capacity: DEFAULT_RING_CAPACITY,
            trace_slow_ms: None,
            trace_dir: None,
        }
    }
}

/// Response-cache shards: enough that the workers' lookups rarely meet on
/// one lock.
const CACHE_SHARDS: usize = 16;

/// How many rotating dump files the flight recorder keeps.
pub const FLIGHT_SLOTS: u64 = 32;

/// Slow-request flight recorder: reads the server's own ring back and dumps
/// the span tree of over-threshold requests.
///
/// Costs the hot path nothing — it only runs after a request that was
/// already slow, and the ring scan is a read-only mmap walk another process
/// could equally be doing.
struct FlightRecorder {
    reader: RingReader,
    dir: PathBuf,
    threshold_micros: u64,
    next: AtomicU64,
}

impl FlightRecorder {
    /// Dump `trace_id`'s span tree if the request was over threshold.
    /// Dump-file IO failures are swallowed: observability must never take
    /// down the request path.
    fn maybe_dump(&self, trace_id: u64, kind: &str, micros: u64) {
        if trace_id == 0 || micros < self.threshold_micros {
            return;
        }
        let forest = TraceForest::from_records(&snapshot(&self.reader));
        let json = forest.chrome_trace_json(u64::from(std::process::id()), Some(trace_id));
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("slow-{}.json", n % FLIGHT_SLOTS));
        if std::fs::write(&path, json).is_err() {
            return;
        }
        eprintln!(
            "netpart_serve: slow request kind={kind} micros={micros} \
             trace_id={trace_id:#x} -> {}",
            path.display()
        );
    }
}

/// Shared state of one running server.
pub struct ServiceState {
    /// Response cache (canonical request -> rendered response).
    pub cache: ResponseCache,
    /// Single-flight coalescing for identical in-flight computations.
    pub batcher: Batcher,
    /// Counters and latency histogram.
    pub metrics: Metrics,
    /// Worker count, reported by `health`.
    pub workers: usize,
    /// Execution choices of every compute dispatch, from [`ServerConfig`];
    /// its telemetry sink is shared by the request path and every handler.
    pub exec: Exec,
    flight: Option<FlightRecorder>,
    stop: AtomicBool,
}

impl ServiceState {
    /// Whether shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Peek the cached [`Request::AdviseFabric`] answer for `spec`, the base
    /// a `readvise` patches instead of recomputing from scratch. The lookup
    /// counts in no stats (only the request path counts cache traffic, per
    /// kind); a cached non-advice line (impossible today) degrades to
    /// `None`, never an error.
    pub fn peek_advice_base(&self, spec: &AdviceSpec) -> Option<AdviceResult> {
        let key = Request::AdviseFabric { spec: spec.clone() }.cache_key();
        let line = self.cache.get(&key)?;
        match Response::decode(&line) {
            Ok(Response::FabricAdvice(result)) => Some(result),
            _ => None,
        }
    }
}

/// Handle to a running server: its bound address plus shutdown/join.
pub struct ServerHandle {
    local_addr: SocketAddr,
    state: Arc<ServiceState>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared state (for tests and the in-process load generator).
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Request shutdown: stop accepting, drain queued connections, and wake
    /// the acceptor with a loopback connection.
    pub fn shutdown(&self) {
        signal_shutdown(&self.state, self.local_addr);
    }

    /// Block until every server thread has exited (after
    /// [`shutdown`](Self::shutdown), or a
    /// client's `shutdown` request).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn signal_shutdown(state: &ServiceState, addr: SocketAddr) {
    if !state.stop.swap(true, Ordering::SeqCst) {
        // Unblock the acceptor's `accept` call; it checks `stop` first.
        let _ = TcpStream::connect(addr);
    }
}

/// Serve one request, routing through cache and batcher, and write the
/// rendered response line (plus `\n`) to `stream`.
///
/// The whole function is one `request` span with phase children — `parse`,
/// `cache_lookup`, `singleflight` (coalesced requests only, retroactive),
/// `compute`, `respond` (the socket write) — so every `RequestDone` record
/// (which carries the trace id) is the root of a reconstructable tree.
/// Metrics and telemetry are emitted even when the write fails; the IO
/// error is returned afterwards.
fn respond(
    state: &ServiceState,
    local_addr: SocketAddr,
    line: &str,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    let started = Instant::now();
    let root = state.exec.telemetry.span("request");
    let telemetry = root.telemetry();
    let mut kind = "invalid";
    let mut cache_hit = false;
    let mut coalesced = false;
    let parse_span = telemetry.span("parse");
    let decoded = Request::decode(line.trim());
    drop(parse_span);
    let rendered = match decoded {
        Err(e) => {
            state.metrics.count_request(kind);
            Arc::new(Response::error(ErrorCode::BadRequest, e.to_string()).encode())
        }
        Ok(request) => {
            kind = request.kind();
            state.metrics.count_request(kind);
            match &request {
                Request::Health => Arc::new(
                    Response::Health {
                        uptime_seconds: state.metrics.uptime_seconds(),
                        workers: state.workers,
                    }
                    .encode(),
                ),
                Request::Stats => Arc::new(
                    Response::Stats(
                        state
                            .metrics
                            .snapshot(state.cache.len(), state.exec.telemetry.counters()),
                    )
                    .encode(),
                ),
                Request::Shutdown => {
                    signal_shutdown(state, local_addr);
                    Arc::new(Response::Ok.encode())
                }
                // `cacheable()` is the single source of truth for what may
                // enter the cache: a future variant that is not explicitly
                // handled above and not cacheable is answered uncached.
                req if req.cacheable() => {
                    let key = request.cache_key();
                    let lookup_span = telemetry.span("cache_lookup");
                    let cached = state.cache.get(&key);
                    drop(lookup_span);
                    match cached {
                        Some(cached) => {
                            cache_hit = true;
                            state.metrics.count_cache_hit(kind);
                            cached
                        }
                        None => {
                            state.metrics.count_cache_miss(kind);
                            // Whether this call computes (leader) or waits
                            // (follower) is only known afterwards, so the
                            // wait span is emitted retroactively from this
                            // timestamp when the flight was coalesced.
                            let wait_begin = telemetry.now_micros();
                            let outcome = state.batcher.run(&key, || {
                                let span = telemetry.span("compute");
                                let rendered = compute(state, &request, span.telemetry());
                                drop(span);
                                rendered
                            });
                            if outcome.coalesced {
                                // The leader already cached this response.
                                coalesced = true;
                                state.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
                                telemetry.span_retro("singleflight", wait_begin);
                            } else {
                                state.cache.put(key, Arc::clone(&outcome.response));
                            }
                            outcome.response
                        }
                    }
                }
                _ => {
                    let span = telemetry.span("compute");
                    let rendered = Arc::new(compute(state, &request, span.telemetry()));
                    drop(span);
                    rendered
                }
            }
        }
    };
    let respond_span = telemetry.span("respond");
    let write_result = stream
        .write_all(rendered.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush());
    drop(respond_span);
    let nanos = started.elapsed().as_nanos() as u64;
    state.metrics.record_latency_nanos(nanos);
    let micros = nanos / 1_000;
    let trace_id = root.trace_id();
    state.exec.telemetry.emit(TelemetryEvent::RequestDone {
        kind: KindLabel::new(kind),
        micros,
        cache_hit,
        coalesced,
        trace_id,
    });
    drop(root);
    if let Some(flight) = &state.flight {
        flight.maybe_dump(trace_id, kind, micros);
    }
    write_result
}

/// Run a handler under the server's execution choices, reporting through
/// `telemetry` (the `compute` span's handle), and convert any panic into a
/// typed internal error so a worker thread can never die on a request.
/// `readvise` is dispatched here rather than through
/// [`handlers::handle_with`] because it needs server state: the cached
/// `advise_fabric` answer it patches.
fn compute(state: &ServiceState, request: &Request, telemetry: &Telemetry) -> String {
    let exec = state.exec.with_telemetry(telemetry);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match request {
        Request::Readvise { spec, patch } => {
            let base = state.peek_advice_base(spec);
            handlers::handle_readvise(spec, patch, base.as_ref(), exec).encode()
        }
        _ => handlers::handle_with(request, exec).encode(),
    }));
    result.unwrap_or_else(|panic| {
        let reason = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "handler panicked".to_string());
        Response::error(ErrorCode::Internal, reason).encode()
    })
}

/// Longest accepted request line (a 64Ki-flow `simulate_flows` document is
/// ~4 MB; beyond this the client is told off and disconnected).
const MAX_LINE_BYTES: usize = 16 << 20;

/// Idle cutoff: a connection that produces no complete request for this
/// long is closed, so a parked keep-alive client cannot hold a pool worker
/// hostage (with `workers` near the core count, a handful of idle sockets
/// would otherwise starve the whole service).
const IDLE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(120);

/// Speak the line protocol on one connection until EOF, IO error, an
/// oversized line, idleness, or shutdown.
fn serve_connection(
    state: &ServiceState,
    local_addr: SocketAddr,
    mut stream: TcpStream,
) -> std::io::Result<()> {
    let mut pending: Vec<u8> = Vec::new();
    // Bytes of `pending` already scanned for '\n', so each poll wakeup only
    // examines newly arrived bytes (a near-full buffer would otherwise be
    // rescanned quadratically).
    let mut scanned: usize = 0;
    let mut chunk = [0u8; 16 * 1024];
    let mut last_activity = Instant::now();
    loop {
        // Serve every complete line already buffered.
        while let Some(pos) = pending[scanned..].iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = pending.drain(..=scanned + pos).collect();
            scanned = 0;
            last_activity = Instant::now();
            let line = String::from_utf8_lossy(&line_bytes);
            if line.trim().is_empty() {
                continue;
            }
            respond(state, local_addr, line.trim(), &mut stream)?;
        }
        scanned = pending.len();
        if state.stopping() {
            return Ok(());
        }
        if pending.len() > MAX_LINE_BYTES {
            let response = Response::error(ErrorCode::BadRequest, "request line too long").encode();
            stream.write_all(response.as_bytes())?;
            stream.write_all(b"\n")?;
            return Ok(());
        }
        if last_activity.elapsed() > IDLE_TIMEOUT {
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // EOF
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

fn worker_loop(
    state: Arc<ServiceState>,
    local_addr: SocketAddr,
    connections: Arc<Mutex<Receiver<TcpStream>>>,
) {
    loop {
        // Take one connection; exit when the acceptor hung up and the queue
        // is drained.
        let stream = {
            let rx = connections.lock().expect("connection queue lock");
            match rx.recv() {
                Ok(s) => s,
                Err(_) => return,
            }
        };
        let _ = stream.set_nodelay(true);
        // Poll-style reads so a worker parked on an idle connection still
        // notices shutdown instead of pinning `join()` forever.
        let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(100)));
        if serve_connection(&state, local_addr, stream).is_err() {
            // Connection-level IO failure; the worker itself lives on.
        }
    }
}

/// Bind and start the server; returns once the listener is live.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(
        config
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("address resolved to nothing"))?,
    )?;
    let local_addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let telemetry = match &config.telemetry_ring {
        Some(path) => Telemetry::to_ring(path, config.telemetry_ring_capacity)?,
        None => Telemetry::counters_only(),
    };
    let flight = match config.trace_slow_ms {
        None => None,
        Some(threshold_ms) => {
            let Some(ring_path) = &config.telemetry_ring else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "trace_slow_ms requires telemetry_ring (the recorder reads the ring back)",
                ));
            };
            let dir = config
                .trace_dir
                .clone()
                .unwrap_or_else(|| ring_path.with_extension("traces"));
            std::fs::create_dir_all(&dir)?;
            Some(FlightRecorder {
                reader: RingReader::open(ring_path)?,
                dir,
                threshold_micros: threshold_ms.saturating_mul(1_000),
                next: AtomicU64::new(0),
            })
        }
    };
    let state = Arc::new(ServiceState {
        cache: ResponseCache::new(config.cache_capacity, CACHE_SHARDS),
        batcher: Batcher::new(),
        metrics: Metrics::new(),
        workers,
        exec: Exec {
            solver: config.solver,
            queue: config.queue,
            telemetry,
        },
        flight,
        stop: AtomicBool::new(false),
    });

    // Bounded hand-off queue: twice the worker count absorbs small bursts,
    // then accept blocks (kernel backlog takes over).
    let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
        std::sync::mpsc::sync_channel(workers * 2);
    let rx = Arc::new(Mutex::new(rx));

    let mut threads = Vec::with_capacity(workers + 1);
    for i in 0..workers {
        let state = Arc::clone(&state);
        let rx = Arc::clone(&rx);
        threads.push(
            std::thread::Builder::new()
                .name(format!("netpart-worker-{i}"))
                .spawn(move || worker_loop(state, local_addr, rx))
                .expect("spawn worker"),
        );
    }

    let acceptor_state = Arc::clone(&state);
    threads.push(
        std::thread::Builder::new()
            .name("netpart-acceptor".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if acceptor_state.stopping() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Blocking send = backpressure. The only error is a
                    // closed channel, which cannot happen before this thread
                    // drops `tx`; treat it as shutdown anyway.
                    let mut pending = stream;
                    loop {
                        match tx.try_send(pending) {
                            Ok(()) => break,
                            Err(TrySendError::Full(back)) => {
                                if acceptor_state.stopping() {
                                    break;
                                }
                                std::thread::sleep(std::time::Duration::from_millis(1));
                                pending = back;
                            }
                            Err(TrySendError::Disconnected(_)) => return,
                        }
                    }
                    if acceptor_state.stopping() {
                        break;
                    }
                }
                // Dropping `tx` lets workers drain the queue and exit.
            })
            .expect("spawn acceptor"),
    );

    Ok(ServerHandle {
        local_addr,
        state,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state() -> ServiceState {
        ServiceState {
            cache: ResponseCache::new(16, 2),
            batcher: Batcher::new(),
            metrics: Metrics::new(),
            workers: 1,
            exec: Exec::default(),
            flight: None,
            stop: AtomicBool::new(false),
        }
    }

    #[test]
    fn compute_turns_panics_into_internal_errors() {
        // An adversarial dragonfly shape that violates a constructor
        // assertion deep inside the topology crate.
        let request = Request::SimulateFlows {
            topology: crate::protocol::TopologySpec::Dragonfly(0, 0, 1),
            flows: vec![],
        };
        let rendered = compute(&test_state(), &request, &Telemetry::disabled());
        let response = Response::decode(&rendered).expect("always a valid response line");
        match response {
            Response::Error { code, .. } => {
                assert!(matches!(code, ErrorCode::Internal | ErrorCode::Unsupported))
            }
            other => panic!("expected an error response, got {other:?}"),
        }
    }

    #[test]
    fn readvise_patches_the_cached_advise_fabric_answer() {
        use crate::protocol::{AllocationSpec, FabricPatch, LinkPatch, RoutingSpec, TopologySpec};
        let spec = AdviceSpec {
            topology: TopologySpec::Torus(vec![4, 4]),
            routing: RoutingSpec::DimensionOrdered,
            nodes: 4,
            gigabytes: 0.25,
            candidates: vec![AllocationSpec::TorusBlocks, AllocationSpec::Blocked],
            seed: 7,
        };
        let patch = FabricPatch {
            links: vec![LinkPatch {
                a: 0,
                b: 1,
                scale: 1e-3,
            }],
            nodes: vec![],
        };
        let state = test_state();
        let readvise = Request::Readvise {
            spec: spec.clone(),
            patch: patch.clone(),
        };

        // Cold cache: no base to patch — full recompute on the patched
        // fabric.
        let cold = compute(&state, &readvise, &Telemetry::disabled());
        assert!(state.peek_advice_base(&spec).is_none());

        // Warm the advise_fabric entry the way the server does, then
        // readvise again: the patched answer must be byte-identical.
        let advise = Request::AdviseFabric { spec: spec.clone() };
        let rendered = compute(&state, &advise, &Telemetry::disabled());
        state.cache.put(advise.cache_key(), Arc::new(rendered));
        assert!(state.peek_advice_base(&spec).is_some());
        let warm = compute(&state, &readvise, &Telemetry::disabled());
        assert_eq!(cold, warm, "cached-base readvise must not change bytes");
        assert!(matches!(
            Response::decode(&warm).unwrap(),
            Response::FabricAdvice(_)
        ));
    }
}

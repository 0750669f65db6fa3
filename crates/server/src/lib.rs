//! The TCP front door of the view service: a [`Server`] that owns an
//! [`IngestHub`] and serves the [`proto`] session protocol,
//! thread-per-connection.
//!
//! # Threading model
//!
//! Each accepted connection gets a dedicated OS thread and its own hub
//! [`SessionHandle`] — per-connection bounded queues, per-connection
//! receipts, exactly the in-process multi-producer contract extended over
//! TCP. Reads never touch the hub's catalog lock: every connection also
//! carries a lazily-opened [`ReadHandle`] onto the hub's epoch chain, so
//! `QueryView`, `Stats`, and the `Hello` view listing are served from the
//! latest frozen snapshot with zero writer coordination — a wedged or
//! checkpoint-stalled writer cannot block them. Only mutating requests
//! (`RegisterView`, `DropView`, `Submit`, `Commit`) take the hub path. Connection handlers deliberately do **not** run on the shared
//! [`exec`](https://docs.rs) pool: that pool has a fixed number of lanes
//! sized for CPU work, and a blocking socket read parked on a lane would
//! starve maintenance. CPU-bound work still reaches the pool the same way
//! it always did — through the hub's drain rounds and the catalog's
//! parallel per-view refresh.
//!
//! # Robustness contract
//!
//! A defective peer can cost at most its own connection:
//!
//! * torn / bad-CRC / wrong-version / oversized frames are counted
//!   (`net/frame_errors`), answered with a best-effort typed
//!   [`Response::Error`], and the connection closes — a length-prefixed
//!   stream has no resync point after a bad frame;
//! * a well-framed but undecodable or out-of-order request gets a
//!   [`proto::ErrorKind::Protocol`] error;
//! * slow is not defective: frames are read through a resumable
//!   [`proto::FrameReader`], so a message whose bytes span several poll
//!   ticks is reassembled — only a peer that stops delivering bytes for
//!   [`ServerConfig::read_timeout`] is reaped;
//! * until `Hello` completes, frames are bounded by
//!   [`proto::HANDSHAKE_MAX_FRAME`] and body buffers grow only with
//!   bytes actually received, so pre-handshake peers cannot reserve
//!   real memory with a garbage length prefix;
//! * handler panics are caught at the thread boundary; the hub and every
//!   other connection keep running.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] (reached from SIGTERM in the binary or a
//! [`Request::Shutdown`] from any client) stops the accept loop, lets
//! every connection thread finish its current request and exit, then
//! calls [`IngestHub::shutdown`] — draining the remaining queues — and,
//! on a durable catalog, seals the WAL with a final snapshot so a
//! subsequent open replays nothing.

use proto::{
    CommitReceipt, ErrorKind, FrameError, HistogramSummary, Request, Response, ServerStats,
    WireErr, PROTOCOL_VERSION,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use viewsrv::{
    CatalogError, DurabilityError, HubInner, IngestError, IngestHub, ReadHandle, SessionHandle,
    ViewCatalog,
};

// Re-exported so the binary, tests, and examples share one import path.
pub use viewsrv::HubConfig;

/// Why a [`Server`] failed to start. Both variants wrap the OS error;
/// the distinction matters operationally — a bind failure is usually an
/// address conflict the operator can fix, a spawn failure means the
/// process is resource-exhausted.
#[derive(Debug)]
pub enum ServerError {
    /// Binding or configuring the listener socket failed.
    Listen { addr: String, source: std::io::Error },
    /// The OS refused to spawn the accept thread.
    Spawn(std::io::Error),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Listen { addr, source } => {
                write!(f, "cannot listen on {addr}: {source}")
            }
            ServerError::Spawn(e) => write!(f, "cannot spawn accept thread: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Listen { source, .. } => Some(source),
            ServerError::Spawn(e) => Some(e),
        }
    }
}

/// Tuning knobs of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port `0` for an ephemeral port (tests).
    pub addr: String,
    /// Concurrent-connection bound; the `max+1`-th client is answered
    /// with [`proto::ErrorKind::ConnectionLimit`] and closed.
    pub max_connections: usize,
    /// Idle bound: a connection that delivers no bytes for this long is
    /// closed. Measured across poll ticks; bytes arriving mid-frame count
    /// as progress (a slow peer trickling a legitimate frame is served),
    /// while a silent peer — idle at a frame boundary or stalled inside
    /// one — never pins a thread past the bound.
    pub read_timeout: Duration,
    /// Per-write bound on response transmission.
    pub write_timeout: Duration,
    /// Largest accepted request frame; an oversized length prefix is
    /// refused before any payload allocation.
    pub max_frame: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 256,
            read_timeout: Duration::from_secs(300),
            write_timeout: Duration::from_secs(30),
            max_frame: proto::DEFAULT_MAX_FRAME,
        }
    }
}

/// How often blocked reads and the accept loop wake to check the stop
/// flag — the upper bound on shutdown reaction latency.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Pre-resolved `net/*` instruments, all registered in the **hub's**
/// registry so they ride along in every [`IngestHub::metrics`] snapshot
/// and `MetricsDump` response.
struct NetMetrics {
    accepted: Arc<obs::Counter>,
    active: Arc<obs::Gauge>,
    refused: Arc<obs::Counter>,
    requests: Arc<obs::Counter>,
    frame_errors: Arc<obs::Counter>,
    /// One latency histogram per request kind (`net/req/<kind>`).
    req: BTreeMap<&'static str, Arc<obs::Histogram>>,
}

impl NetMetrics {
    fn new(reg: &obs::MetricsRegistry) -> NetMetrics {
        const KINDS: &[&str] = &[
            "hello",
            "register_view",
            "drop_view",
            "submit",
            "flush",
            "commit",
            "query_view",
            "stats",
            "metrics_dump",
            "shutdown",
        ];
        NetMetrics {
            accepted: reg.counter("net/connections_accepted"),
            active: reg.gauge("net/connections_active"),
            refused: reg.counter("net/connections_refused"),
            requests: reg.counter("net/requests"),
            frame_errors: reg.counter("net/frame_errors"),
            req: KINDS.iter().map(|&k| (k, reg.histogram(&format!("net/req/{k}")))).collect(),
        }
    }
}

struct Shared {
    /// `None` only after [`Server::shutdown`] took the hub.
    hub: RwLock<Option<IngestHub>>,
    config: ServerConfig,
    /// Set by [`Server::request_stop`], a client `Shutdown`, or the
    /// binary's signal handler; every loop polls it.
    stop: Arc<AtomicBool>,
    m: NetMetrics,
}

/// A running TCP front door over one [`IngestHub`] — see the
/// [module docs](self) for the threading and robustness contract.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind `config.addr` and start accepting; the hub's drain thread
    /// keeps running underneath. `stop` is shared so a process signal
    /// handler can request shutdown without reaching through the server.
    pub fn start(
        config: ServerConfig,
        hub: IngestHub,
        stop: Arc<AtomicBool>,
    ) -> Result<Server, ServerError> {
        let listen = |e| ServerError::Listen { addr: config.addr.clone(), source: e };
        let listener = TcpListener::bind(&config.addr).map_err(listen)?;
        listener.set_nonblocking(true).map_err(listen)?;
        let local_addr = listener.local_addr().map_err(listen)?;
        let m = NetMetrics::new(&hub.metrics_registry());
        let shared = Arc::new(Shared { hub: RwLock::new(Some(hub)), config, stop, m });
        let for_accept = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("xqview-accept".into())
            .spawn(move || accept_loop(&listener, &for_accept))
            .map_err(ServerError::Spawn)?;
        Ok(Server { shared, local_addr, accept: Some(accept) })
    }

    /// Convenience: a volatile catalog behind a default hub behind this
    /// server — the in-memory path for tests, examples, and benches.
    pub fn start_volatile(
        catalog: ViewCatalog,
        config: ServerConfig,
    ) -> Result<Server, ServerError> {
        let hub = catalog.into_hub(HubConfig::default());
        Server::start(config, hub, Arc::new(AtomicBool::new(false)))
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// True once a stop was requested (signal, client `Shutdown`, or
    /// [`Server::request_stop`]).
    pub fn stop_requested(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Request a graceful stop without consuming the server.
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Flag every loop, then join the accept thread and every connection
    /// thread (each finishes its in-flight request first).
    fn stop_threads(&mut self) {
        self.request_stop();
        if let Some(h) = self.accept.take() {
            for c in h.join().unwrap_or_default() {
                let _ = c.join();
            }
        }
    }

    /// Graceful shutdown: stop accepting, join every connection thread
    /// (each finishes its in-flight request), drain and shut the hub
    /// down, and — durable catalogs — seal the WAL with a final snapshot
    /// so the next open replays nothing. Returns the catalog for
    /// inspection; `None` if the hub was already gone.
    pub fn shutdown(mut self) -> Option<HubInner> {
        self.stop_threads();
        // A poisoned lock just means some handler panicked mid-read; the
        // hub itself is still sound, so shut it down rather than join
        // the panic.
        let hub =
            self.shared.hub.write().unwrap_or_else(std::sync::PoisonError::into_inner).take()?;
        let mut inner = hub.shutdown();
        if let Err(e) = inner.final_snapshot() {
            eprintln!("xqview-server: final snapshot failed: {e}");
        }
        Some(inner)
    }
}

impl Drop for Server {
    /// Non-graceful stop (prefer [`Server::shutdown`]): flags every loop
    /// and joins the accept thread so no thread outlives the value.
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Accept until stopped; returns the connection threads for the joiner.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) -> Vec<std::thread::JoinHandle<()>> {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                conns.retain(|c| !c.is_finished());
                if conns.len() >= shared.config.max_connections {
                    refuse(stream, shared);
                    continue;
                }
                shared.m.accepted.inc();
                shared.m.active.inc();
                let for_conn = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("xqview-conn-{peer}"))
                    .spawn(move || {
                        // A panicking handler must cost only its own
                        // connection, never the accept loop or the hub.
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            serve_connection(stream, &for_conn)
                        }));
                        for_conn.m.active.dec();
                        if r.is_err() {
                            eprintln!("xqview-server: connection handler for {peer} panicked");
                        }
                    });
                match spawned {
                    Ok(handle) => conns.push(handle),
                    Err(e) => {
                        // Thread exhaustion costs this connection only:
                        // dropping the closure closes the socket, and the
                        // accept loop keeps serving existing peers.
                        shared.m.active.dec();
                        eprintln!("xqview-server: cannot serve {peer}: spawn failed: {e}");
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_TICK);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("xqview-server: accept failed: {e}");
                std::thread::sleep(POLL_TICK);
            }
        }
    }
    conns
}

/// Refuse a connection at the concurrency bound with a typed error.
fn refuse(mut stream: TcpStream, shared: &Arc<Shared>) {
    shared.m.refused.inc();
    let max = shared.config.max_connections as u64;
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = proto::send(
        &mut stream,
        &Response::Error(
            WireErr::new(ErrorKind::ConnectionLimit { max })
                .detail(format!("{max} connections are already open")),
        ),
    );
}

/// One connection's request/response loop.
fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let max_frame = shared.config.max_frame;

    // The per-connection ingest session. Opened lazily so control-plane
    // clients (stats scrapers) don't register producers.
    let mut session: Option<SessionHandle> = None;
    // The per-connection epoch read handle, also opened lazily (write-only
    // producers never subscribe). Once open it pins at most one epoch and
    // revalidates with a single atomic load per read.
    let mut reads: Option<ReadHandle> = None;
    let mut greeted = false;
    let mut idle = Duration::ZERO;
    // Frames are read through a resumable parser: the short poll-tick
    // socket timeout can fire *inside* a frame whose bytes span several
    // ticks (a large Submit over a slow link), and the partial frame must
    // stay buffered — restarting header parsing mid-frame would
    // desynchronize the stream.
    let mut reader = proto::FrameReader::new();
    let mut buffered = 0usize;

    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Until the handshake lands, frames are held to the tiny
        // handshake bound so an unauthenticated peer cannot demand a
        // large payload.
        let bound = if greeted { max_frame } else { proto::HANDSHAKE_MAX_FRAME.min(max_frame) };
        let req: Request = match reader.recv(&mut stream, bound) {
            Ok(req) => req,
            Err(FrameError::Closed) => return,
            Err(e) if e.is_timeout() => {
                // A tick that delivered bytes — even mid-frame — is
                // progress and resets the idle clock; only a peer that
                // goes silent (at a boundary or stalled inside a frame)
                // accumulates toward the read timeout.
                if reader.buffered() != buffered {
                    buffered = reader.buffered();
                    idle = Duration::ZERO;
                }
                idle += POLL_TICK;
                if idle >= shared.config.read_timeout {
                    return;
                }
                continue;
            }
            Err(FrameError::Decode(e)) => {
                // Intact frame, unintelligible payload: typed answer,
                // then close (the framing is still synchronized, but a
                // peer speaking another schema stays unintelligible).
                shared.m.frame_errors.inc();
                let _ = respond(
                    &mut stream,
                    Response::Error(WireErr::new(ErrorKind::Protocol).detail(e.to_string())),
                );
                return;
            }
            Err(e) => {
                // Torn / bad-version / bad-CRC / oversized: the stream
                // has no resync point. Best-effort typed answer, close.
                shared.m.frame_errors.inc();
                let _ = respond(
                    &mut stream,
                    Response::Error(WireErr::new(ErrorKind::Frame).detail(e.to_string())),
                );
                return;
            }
        };
        idle = Duration::ZERO;
        buffered = 0;
        shared.m.requests.inc();

        if !greeted && !matches!(req, Request::Hello { .. }) {
            let _ = respond(
                &mut stream,
                Response::Error(
                    WireErr::new(ErrorKind::Protocol)
                        .detail(format!("first request must be hello, got {}", req.kind())),
                ),
            );
            return;
        }

        let kind = req.kind();
        let start = Instant::now();
        let (resp, close) = dispatch(req, shared, &mut session, &mut reads, &mut greeted);
        if let Some(h) = shared.m.req.get(kind) {
            h.record_duration(start.elapsed());
        }
        if respond(&mut stream, resp).is_err() || close {
            return;
        }
    }
}

fn respond(stream: &mut TcpStream, resp: Response) -> std::io::Result<()> {
    proto::send(stream, &resp)?;
    stream.flush()
}

/// Serve one request. Returns the response and whether the connection
/// should close after sending it.
fn dispatch(
    req: Request,
    shared: &Arc<Shared>,
    session: &mut Option<SessionHandle>,
    reads: &mut Option<ReadHandle>,
    greeted: &mut bool,
) -> (Response, bool) {
    if shared.stop.load(Ordering::SeqCst) {
        return (Response::Error(WireErr::new(ErrorKind::ShuttingDown)), true);
    }
    // Poisoning only records that some thread panicked while holding the
    // guard; the Option<IngestHub> inside is still consistent.
    let hub_guard = shared.hub.read().unwrap_or_else(std::sync::PoisonError::into_inner);
    let Some(hub) = hub_guard.as_ref() else {
        return (Response::Error(WireErr::new(ErrorKind::ShuttingDown)), true);
    };
    match req {
        Request::Hello { client: _, protocol } => {
            if protocol != PROTOCOL_VERSION {
                return (
                    Response::Error(WireErr::new(ErrorKind::Protocol).detail(format!(
                        "protocol version {protocol} is not supported (server speaks \
                         {PROTOCOL_VERSION})"
                    ))),
                    true,
                );
            }
            *greeted = true;
            // Served from the current epoch — no catalog checkout, so the
            // greeting stays fast even while a round is in flight.
            let views = reads.get_or_insert_with(|| hub.read_handle()).view_names();
            (
                Response::HelloOk {
                    server: format!("xqview-server/{}", env!("CARGO_PKG_VERSION")),
                    protocol: PROTOCOL_VERSION,
                    views,
                },
                false,
            )
        }
        Request::RegisterView { name, query } => {
            let r = hub.with_inner(|inner| inner.register(&name, &query));
            control_reply(r, Response::Registered { name })
        }
        Request::DropView { name } => {
            let r = hub.with_inner(|inner| inner.drop_view(&name));
            control_reply(r, Response::Dropped { name })
        }
        Request::Submit(batch) => {
            let handle = session.get_or_insert_with(|| hub.handle());
            match handle.try_submit(batch) {
                Ok(()) => (
                    Response::Submitted {
                        queued_batches: handle.queued_batches() as u64,
                        queued_ops: handle.queued_ops() as u64,
                    },
                    false,
                ),
                Err(e) => (Response::Error(ingest_err(e)), false),
            }
        }
        Request::Flush => {
            let chunks = hub.drain_now();
            (Response::Flushed { chunks_applied: chunks as u64 }, false)
        }
        Request::Commit => {
            let handle = session.get_or_insert_with(|| hub.handle());
            match handle.commit() {
                Ok(r) => (Response::Committed(receipt(&r)), false),
                Err(e) => (Response::Error(ingest_err(e)), false),
            }
        }
        Request::QueryView { name } => {
            // Lock-free read path: serialize the extent out of the pinned
            // epoch. Concurrent writers are invisible — the bytes are a
            // batch-boundary snapshot stamped with its epoch/watermark.
            let r = reads.get_or_insert_with(|| hub.read_handle()).extent_bytes(&name);
            match r {
                Err(e) => (Response::Error(catalog_err(e)), false),
                Ok((bytes, epoch, watermark)) => {
                    (Response::Extent { name, bytes, epoch, watermark }, false)
                }
            }
        }
        Request::Stats => {
            let rh = reads.get_or_insert_with(|| hub.read_handle());
            (Response::Stats(server_stats(hub, shared, rh)), false)
        }
        Request::MetricsDump => (Response::Metrics { json: hub.metrics().to_json() }, false),
        Request::Shutdown => {
            shared.stop.store(true, Ordering::SeqCst);
            (Response::ShuttingDown, true)
        }
    }
}

/// Answer a control-plane mutation run through [`IngestHub::with_inner`]
/// (`None`: the hub has shut down).
fn control_reply(r: Option<Result<(), DurabilityError>>, ok: Response) -> (Response, bool) {
    match r {
        None => (Response::Error(WireErr::new(ErrorKind::HubClosed)), true),
        Some(Err(e)) => (Response::Error(durability_err(e)), false),
        Some(Ok(())) => (ok, false),
    }
}

/// Assemble the [`Response::Stats`] body: the catalog shape, routing
/// totals, and durability marks all come from the pinned epoch (no
/// catalog check-out — a wedged writer cannot block a stats scrape),
/// atomics supply the `net/*` counters, and one metrics snapshot the
/// per-kind latency summaries.
fn server_stats(hub: &IngestHub, shared: &Arc<Shared>, reads: &mut ReadHandle) -> ServerStats {
    let epoch = reads.pin();
    let s = epoch.stats();
    let marks = epoch.durable_marks();
    let mut stats = ServerStats {
        views: epoch.view_names().iter().map(|s| s.to_string()).collect(),
        docs: epoch.indexed_docs().to_vec(),
        batches: s.batches as u64,
        updates_seen: s.updates_seen as u64,
        views_routed: s.views_routed as u64,
        views_skipped: s.views_skipped as u64,
        generation: marks.generation,
        wal_records: marks.wal_records,
        wal_bytes: marks.wal_bytes,
        epoch: epoch.seq(),
        epoch_watermark: epoch.watermark(),
        epoch_age_us: epoch.age().as_micros() as u64,
        ..ServerStats::default()
    };
    stats.connections_accepted = shared.m.accepted.get();
    stats.connections_active = shared.m.active.get();
    stats.requests = shared.m.requests.get();
    stats.frame_errors = shared.m.frame_errors.get();
    let snap = hub.metrics();
    stats.request_latency = snap
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("net/req/"))
        .map(|(name, h)| HistogramSummary {
            name: name.clone(),
            count: h.count(),
            p50_ns: h.p50(),
            p90_ns: h.quantile(0.90),
            p99_ns: h.quantile(0.99),
            max_ns: h.max(),
        })
        .collect();
    stats
}

/// Flatten an in-process [`viewsrv::SessionReceipt`] for the wire.
fn receipt(r: &viewsrv::SessionReceipt) -> CommitReceipt {
    CommitReceipt {
        batches_submitted: r.batches_submitted as u64,
        batches_applied: r.batches_applied as u64,
        ops: r.ops as u64,
        resolved: r.resolved as u64,
        views_touched: r.views_touched.clone(),
        validate_ns: r.stats.validate.as_nanos() as u64,
        propagate_ns: r.stats.propagate.as_nanos() as u64,
        apply_ns: r.stats.apply.as_nanos() as u64,
    }
}

/// Map the in-process ingest taxonomy onto the wire, keeping the
/// dispatchable cases ([`ErrorKind::QueueFull`] with its capacity,
/// [`ErrorKind::HubClosed`]) typed.
fn ingest_err(e: IngestError) -> WireErr {
    match e {
        IngestError::QueueFull { capacity, .. } => {
            WireErr::new(ErrorKind::QueueFull { capacity: capacity as u64 })
                .detail("flush or commit before resubmitting")
        }
        IngestError::Catalog(c) => catalog_err(c),
        IngestError::Journal(io) => WireErr::new(ErrorKind::Journal).detail(io.to_string()),
        IngestError::HubClosed(_) => WireErr::new(ErrorKind::HubClosed),
    }
}

fn catalog_err(e: CatalogError) -> WireErr {
    match e {
        CatalogError::UnknownView(name) => WireErr::new(ErrorKind::UnknownView { name }),
        CatalogError::DuplicateView(name) => WireErr::new(ErrorKind::DuplicateView { name }),
        other => WireErr::new(ErrorKind::Catalog).detail(other.to_string()),
    }
}

fn durability_err(e: DurabilityError) -> WireErr {
    match e {
        DurabilityError::Catalog(c) => catalog_err(c),
        other => WireErr::new(ErrorKind::Journal).detail(other.to_string()),
    }
}

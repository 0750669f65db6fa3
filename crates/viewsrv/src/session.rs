//! The queued ingestion front: [`IngestHub`] and its [`SessionHandle`]s.
//!
//! `ViewCatalog::apply_batch` is synchronous — one caller, one batch, one
//! routed refresh. A production ingestion path instead has **many writers
//! streaming small batches**, and wants them *coalesced*: every applied
//! batch pays one shared Validate pass (script-free op resolution +
//! relevancy routing) and one parallel per-view refresh, so merging K tiny
//! submissions into one application amortizes that fixed cost K-fold.
//!
//! The hub owns the catalog and gives each writer a `Send` handle with
//! exactly that front:
//!
//! * **Bounded queue** — [`SessionHandle::try_submit`] enqueues a typed
//!   [`UpdateBatch`] or returns [`IngestError::QueueFull`] immediately,
//!   handing the batch back. Backpressure is explicit and observable: a
//!   handle never blocks and never buffers beyond
//!   [`HubConfig::queue_capacity`]; the producer decides whether to
//!   retry, commit, or shed load.
//! * **Coalescing window** — drain rounds merge consecutive submissions
//!   of one session into chunks of at most [`HubConfig::window_ops`] ops
//!   (a submission is never split) and apply each chunk through the
//!   catalog's once-per-batch validation and parallel propagate/apply
//!   rounds; on a [`DurableCatalog`] each chunk is journaled
//!   append-then-apply and acknowledged after its group fsync.
//! * **Receipts** — every applied chunk yields a [`BatchReceipt`];
//!   [`SessionHandle::commit`] drains the session's queue and folds its
//!   receipts into one [`SessionReceipt`]. A chunk that fails to apply is
//!   rolled back (out of the WAL too) and put back at the queue front;
//!   `commit` returns the error.
//!
//! Coalescing changes *when* ops are resolved: every op of a merged chunk
//! binds against the store state before the chunk, not before its original
//! submission. Submissions whose ops target nodes created by an earlier
//! queued submission should be separated by a `commit` (the sequencing
//! boundary, exactly like a barrier in a write pipeline).
//!
//! As in the paper's VPA pipeline (§1.4), one thread at a time drives the
//! catalog: every path that needs it — a drain round, [`IngestHub::with_inner`],
//! the post-fsync WAL rotation, [`IngestHub::shutdown`] — **checks it out**
//! of the hub state through one private guard that hands it back, and
//! wakes waiters, when dropped (unwinds included); producers keep
//! enqueueing meanwhile. A round (1) checks out and pops chunks under one
//! lock, (2) applies with no lock held, publishes the read epoch, hands the
//! catalog back and requeues failures before the group fsync, (3) rotates
//! the WAL after the fsync only if the catalog is home, and (4) settles
//! receipts. Normal and panicking rounds settle through the same routines;
//! the volatile/durable fork lives only in [`HubInner`]'s methods.

use crate::durability::{DurabilityError, DurableCatalog, GroupCommit};
use crate::{BatchReceipt, CatalogError, DurableMarks, ServiceStats, UpdateBatch, ViewCatalog};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Ingestion-front failures.
#[derive(Debug)]
pub enum IngestError {
    /// The bounded queue is at capacity; the submission was rejected
    /// (backpressure). The rejected batch rides along so the producer can
    /// retry it after a [`SessionHandle::commit`] without cloning.
    QueueFull {
        /// The rejected submission, handed back untouched.
        batch: UpdateBatch,
        /// The configured bound the queue is at.
        capacity: usize,
    },
    /// Applying a drained batch failed in the catalog.
    Catalog(CatalogError),
    /// Journaling a drained batch failed (durable catalogs only); the
    /// chunk was requeued and nothing was applied — or, when the failure
    /// was the shared group fsync, the chunk applied in memory but its
    /// durability is unknown (the same ambiguity a crash leaves).
    Journal(std::io::Error),
    /// The [`IngestHub`] behind this handle has shut down. From
    /// [`SessionHandle::try_submit`] the rejected submission rides back
    /// untouched; from [`SessionHandle::commit`] there is no submission
    /// to return and the carried batch is empty.
    HubClosed(UpdateBatch),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::QueueFull { capacity, .. } => {
                write!(
                    f,
                    "ingestion queue is full ({capacity} batches); commit before resubmitting"
                )
            }
            IngestError::Catalog(e) => write!(f, "{e}"),
            IngestError::Journal(e) => write!(f, "journaling the batch failed: {e}"),
            IngestError::HubClosed(_) => write!(f, "the ingest hub has shut down"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::QueueFull { .. } | IngestError::HubClosed(_) => None,
            IngestError::Catalog(e) => Some(e),
            IngestError::Journal(e) => Some(e),
        }
    }
}

impl From<DurabilityError> for IngestError {
    fn from(e: DurabilityError) -> Self {
        match e {
            DurabilityError::Io(io) => IngestError::Journal(io),
            DurabilityError::Catalog(c) => IngestError::Catalog(c),
            other => IngestError::Journal(std::io::Error::other(other.to_string())),
        }
    }
}

impl From<CatalogError> for IngestError {
    fn from(e: CatalogError) -> Self {
        IngestError::Catalog(e)
    }
}

/// Aggregate result of a session's chunks since its last
/// [`SessionHandle::commit`], up to and including this one.
#[must_use = "the session receipt reports what the whole session ingested"]
#[derive(Clone, Debug, Default)]
pub struct SessionReceipt {
    /// Typed batches accepted by `try_submit` over the session's lifetime.
    pub batches_submitted: usize,
    /// Coalesced batches actually applied to the catalog.
    pub batches_applied: usize,
    /// Typed ops ingested.
    pub ops: usize,
    /// Update primitives the ops resolved to.
    pub resolved: usize,
    /// Union of the view names any applied batch touched, sorted.
    pub views_touched: Vec<String>,
    /// Merged per-phase statistics over every applied batch.
    pub stats: ServiceStats,
}

/// Receipt accounting mirrored into the catalog registry (`session/*`),
/// recorded by the hub's drain rounds.
struct SessionMetrics {
    /// Chunk receipts delivered.
    receipts: Arc<obs::Counter>,
    /// Submissions folded into each applied chunk (window occupancy).
    chunk_coalesced: Arc<obs::Histogram>,
    /// Typed ops per applied chunk.
    chunk_ops: Arc<obs::Histogram>,
}

impl SessionMetrics {
    fn new(reg: &obs::MetricsRegistry) -> SessionMetrics {
        SessionMetrics {
            receipts: reg.counter("session/receipts"),
            chunk_coalesced: reg.histogram("session/chunk_coalesced"),
            chunk_ops: reg.histogram("session/chunk_ops"),
        }
    }

    fn record_receipt(&self, r: &BatchReceipt) {
        self.receipts.inc();
        self.chunk_coalesced.record(r.coalesced_from as u64);
        self.chunk_ops.record(r.ops as u64);
    }
}

/// Fold per-chunk receipts into one [`SessionReceipt`].
fn fold_receipts(
    submitted: usize,
    receipts: impl IntoIterator<Item = BatchReceipt>,
) -> SessionReceipt {
    let mut out = SessionReceipt { batches_submitted: submitted, ..Default::default() };
    let mut touched: BTreeSet<String> = BTreeSet::new();
    for r in receipts {
        out.batches_applied += 1;
        out.ops += r.ops;
        out.resolved += r.resolved;
        touched.extend(r.views_touched);
        out.stats.merge(&r.stats);
    }
    out.views_touched = touched.into_iter().collect();
    out
}

// ───────────────────────────── Ingest hub ─────────────────────────────

/// Tuning knobs of an [`IngestHub`].
#[derive(Clone, Copy, Debug)]
pub struct HubConfig {
    /// Per-session bound on queued (not yet drained) submissions;
    /// [`SessionHandle::try_submit`] fails fast with
    /// [`IngestError::QueueFull`] at the bound.
    pub queue_capacity: usize,
    /// Coalescing window in *ops*: maximum typed ops merged into one
    /// applied chunk (a submission is never split).
    pub window_ops: usize,
    /// Coalescing window in *time*: how long the background drain lets a
    /// first pending submission age (collecting company) before a round
    /// applies it. `0` drains as soon as the thread wakes. Producers
    /// calling [`SessionHandle::commit`] never wait for the window —
    /// commit drains its own queue inline.
    pub window_ms: u64,
    /// Test-only failpoint: when true, the *next* drain round panics
    /// with the catalog checked out and chunk number
    /// `inject_round_panic_at` mid-apply — the worst point for an
    /// unwind. Exercises the panic-safe hand-back (`shutdown` must not
    /// deadlock; the mid-apply session gets a sticky error, applied
    /// chunks are receipted with a durability-unknown error, untouched
    /// chunks requeue). Fires once per hub.
    #[doc(hidden)]
    pub inject_round_panic: bool,
    /// Which chunk of the round the injected panic fires on (0 = the
    /// first; 1 exercises the applied-but-unacknowledged path).
    #[doc(hidden)]
    pub inject_round_panic_at: usize,
    /// Test-only failpoint: when nonzero, the *next* drain round sleeps
    /// this many milliseconds with the catalog checked out before
    /// applying — a deterministic wedged writer (a checkpoint or apply
    /// stall). `with_catalog`/`with_inner` callers block for the whole
    /// stall; epoch readers must not. Fires once per hub.
    #[doc(hidden)]
    pub inject_round_stall_ms: u64,
}

impl Default for HubConfig {
    fn default() -> HubConfig {
        HubConfig {
            queue_capacity: 64,
            window_ops: 256,
            window_ms: 2,
            inject_round_panic: false,
            inject_round_panic_at: 0,
            inject_round_stall_ms: 0,
        }
    }
}

/// The catalog a hub drives — handed back by [`IngestHub::shutdown`].
/// The honest sum of the two catalogs: every place the hub or a host
/// must tell them apart is one of the methods below.
// The variants are moved a handful of times per drain round (check-out /
// hand-back), where a sub-kilobyte memcpy is noise next to the apply and
// fsync work; boxing would push the indirection onto every caller that
// needs the concrete catalog back.
#[allow(clippy::large_enum_variant)]
pub enum HubInner {
    /// In-memory catalog: chunks apply, nothing is journaled.
    Volatile(ViewCatalog),
    /// Durable catalog: every chunk is journaled append-then-apply and
    /// acknowledged only after its (group) fsync.
    Durable(DurableCatalog),
}

impl HubInner {
    /// The live catalog, either way.
    pub fn catalog(&self) -> &ViewCatalog {
        match self {
            HubInner::Volatile(c) => c,
            HubInner::Durable(d) => d.catalog(),
        }
    }

    /// Define, materialize, and register a view (checkpointed when durable).
    pub fn register(&mut self, name: &str, query: &str) -> Result<(), DurabilityError> {
        match self {
            HubInner::Volatile(cat) => Ok(cat.register(name, query)?),
            HubInner::Durable(dc) => dc.register(name, query),
        }
    }

    /// Drop the view named `name` (checkpointed at once when durable).
    pub fn drop_view(&mut self, name: &str) -> Result<(), DurabilityError> {
        match self {
            HubInner::Volatile(cat) => Ok(cat.drop_view(name)?),
            HubInner::Durable(dc) => dc.drop_view(name),
        }
    }

    /// Seal a shut-down catalog: a durable one writes a synchronous
    /// [`DurableCatalog::snapshot`] so the next open replays nothing; a
    /// volatile one has nothing to seal.
    pub fn final_snapshot(&mut self) -> Result<(), DurabilityError> {
        match self {
            HubInner::Volatile(_) => Ok(()),
            HubInner::Durable(dc) => dc.snapshot().map(|_| ()),
        }
    }

    /// Durability position for an epoch capture (zeros when volatile).
    pub(crate) fn marks(&self) -> DurableMarks {
        match self {
            HubInner::Volatile(_) => DurableMarks::default(),
            HubInner::Durable(dc) => DurableMarks {
                generation: dc.generation(),
                wal_records: dc.wal_records() as u64,
                wal_bytes: dc.wal_bytes(),
            },
        }
    }

    /// Apply one coalesced chunk. A durable catalog journals it
    /// append-then-apply and also returns its [`SyncPoint`].
    fn apply_chunk(
        &mut self,
        chunk: &UpdateBatch,
    ) -> Result<(BatchReceipt, Option<SyncPoint>), IngestError> {
        match self {
            HubInner::Volatile(cat) => Ok((cat.apply_batch(chunk)?, None)),
            HubInner::Durable(dc) => {
                let (receipt, lsn) = dc.apply_batch_nosync(chunk)?;
                Ok((receipt, Some((dc.group(), lsn))))
            }
        }
    }

    /// The work due once a round's chunks are durable: the WAL rotation. A
    /// failed one leaves the previous generation chain authoritative.
    fn after_durable(&mut self) {
        if let HubInner::Durable(dc) = self {
            let _ = dc.maybe_rotate();
        }
    }
}

/// A journaled chunk's durability point: the group committer and the log
/// offset to sync up to.
type SyncPoint = (Arc<GroupCommit>, u64);

/// One producer's server-side state.
struct Producer {
    queue: VecDeque<UpdateBatch>,
    queued_ops: usize,
    submitted: usize,
    /// Receipts of applied chunks, delivered once their fsync settles —
    /// normally meaning durable; on an fsync *failure* the receipt still
    /// arrives (the chunk did apply) with the sticky Journal `error`
    /// flagging that its durability is unknown.
    receipts: Vec<BatchReceipt>,
    /// Chunks applied (or appended) but not yet acknowledged durable.
    inflight: usize,
    /// Sticky failure: the offending chunk is back at the queue front;
    /// draining skips the session until the producer takes the error.
    error: Option<IngestError>,
    /// The handle is still alive (closed sessions are reaped once empty).
    open: bool,
    /// Live queue-depth gauge (`hub/session/<id>/depth`), re-set from
    /// `queue.len()` at every mutation point so it can never drift.
    depth: Arc<obs::Gauge>,
}

impl Producer {
    fn new(depth: Arc<obs::Gauge>) -> Producer {
        Producer {
            queue: VecDeque::new(),
            queued_ops: 0,
            submitted: 0,
            receipts: Vec::new(),
            inflight: 0,
            error: None,
            open: true,
            depth,
        }
    }

    fn drainable(&self) -> bool {
        self.error.is_none() && !self.queue.is_empty()
    }
}

struct HubState {
    /// The catalog while it is home; `None` while checked out (a round,
    /// `with_inner`, a rotation) and for good once `shutdown` keeps it.
    inner: Option<HubInner>,
    sessions: BTreeMap<u64, Producer>,
    next_id: u64,
    /// Round-robin cursor: the session id that *led* the previous
    /// background round (the next round starts after it).
    rr: u64,
    /// Submission time of the oldest pending batch — the time-window
    /// anchor. Cleared when every drainable queue empties.
    oldest_pending: Option<Instant>,
    shutdown: bool,
}

impl HubState {
    fn any_drainable(&self) -> bool {
        self.sessions.values().any(Producer::drainable)
    }

    /// Queue entries across every session — the `hub/queued_batches`
    /// gauge is re-set from this sum at every mutation point (cheap: a
    /// hub has few sessions) so incremental-update drift is impossible.
    fn queued_total(&self) -> usize {
        self.sessions.values().map(|p| p.queue.len()).sum()
    }
}

/// Hub-level instrumentation handles, all registered in the catalog's
/// registry at [`IngestHub::start`]; every update is an atomic op on a
/// pre-resolved handle — drain rounds and submitters never touch the
/// registry lock.
struct HubMetrics {
    /// Drain rounds that found work.
    rounds: Arc<obs::Counter>,
    /// Coalesced chunks applied across all rounds.
    chunks: Arc<obs::Counter>,
    /// Backpressure rejections ([`IngestError::QueueFull`]).
    queue_full: Arc<obs::Counter>,
    /// Chunks handed back to a queue after a failure or panic unwind.
    requeued: Arc<obs::Counter>,
    /// Sticky per-session errors recorded.
    sticky_errors: Arc<obs::Counter>,
    /// Queue entries pending across all sessions right now.
    queued_batches: Arc<obs::Gauge>,
    /// Sessions currently registered (open or still draining).
    sessions: Arc<obs::Gauge>,
    /// Wall time of a drain round, check-out to settle.
    round: Arc<obs::Histogram>,
    /// Sessions visited per background round — the fairness signal: a
    /// healthy hub shows this tracking the open-session gauge.
    round_sessions: Arc<obs::Histogram>,
    /// Receipt accounting (`session/*`).
    session: SessionMetrics,
}

impl HubMetrics {
    fn new(reg: &obs::MetricsRegistry) -> HubMetrics {
        HubMetrics {
            rounds: reg.counter("hub/rounds"),
            chunks: reg.counter("hub/chunks"),
            queue_full: reg.counter("hub/queue_full"),
            requeued: reg.counter("hub/requeued"),
            sticky_errors: reg.counter("hub/sticky_errors"),
            queued_batches: reg.gauge("hub/queued_batches"),
            sessions: reg.gauge("hub/open_sessions"),
            round: reg.histogram("hub/round"),
            round_sessions: reg.histogram("hub/round_sessions"),
            session: SessionMetrics::new(reg),
        }
    }
}

struct HubShared {
    state: Mutex<HubState>,
    /// Wakes the drain thread (new work, shutdown).
    work: Condvar,
    /// Wakes committers (receipts delivered, errors recorded) and
    /// check-outs waiting for the catalog's hand-back.
    ack: Condvar,
    config: HubConfig,
    /// One-shot failpoint armed by [`HubConfig::inject_round_panic`].
    panic_once: AtomicBool,
    /// One-shot failpoint armed by [`HubConfig::inject_round_stall_ms`].
    stall_once: AtomicBool,
    /// The catalog's metrics registry, captured at start so events and
    /// gauges stay recordable while the catalog is checked out of the
    /// hub state by a round.
    registry: Arc<obs::MetricsRegistry>,
    /// The lock-free read path: the current frozen [`crate::Epoch`],
    /// republished by whoever holds the catalog at each batch boundary.
    epochs: Arc<crate::EpochPublisher>,
    m: HubMetrics,
}

impl HubShared {
    /// Make `err` session `sid`'s sticky error unless it already holds
    /// one: counter + structured event carrying the session id and the
    /// error text.
    fn note_sticky(&self, sid: u64, p: &mut Producer, err: IngestError) {
        if p.error.is_some() {
            return;
        }
        self.m.sticky_errors.inc();
        self.registry.emit(
            obs::Event::new(obs::EventKind::StickyError).session(sid).detail(err.to_string()),
        );
        p.error = Some(err);
    }
}

/// The catalog checked out of the hub state — the one way any code path
/// gets to run against it; other check-outs wait on `ack` meanwhile.
/// Dropping the guard hands the catalog back and wakes waiters, unwinds
/// included. Only an explicit [`CheckOut::hand_back`] publishes a read
/// epoch, so an unwind never captures a half-mutated catalog.
struct CheckOut<'a> {
    shared: &'a HubShared,
    /// `None` once handed back (or kept by `shutdown`).
    inner: Option<HubInner>,
}

impl<'a> CheckOut<'a> {
    /// Take the catalog, waiting on `ack` while it is held elsewhere (or,
    /// without `wait`, giving up at once); `None` also once the hub has
    /// closed. The hub lock comes back still held, so the caller can act
    /// atomically with the check-out.
    fn take(shared: &'a HubShared, wait: bool) -> Option<(CheckOut<'a>, MutexGuard<'a, HubState>)> {
        let mut g = shared.state.lock().expect("hub state");
        loop {
            if let Some(inner) = g.inner.take() {
                return Some((CheckOut { shared, inner: Some(inner) }, g));
            }
            if !wait || (g.shutdown && g.sessions.is_empty()) {
                return None;
            }
            g = shared.ack.wait(g).expect("hub state");
        }
    }

    fn inner(&mut self) -> &mut HubInner {
        self.inner.as_mut().expect("the catalog is checked out")
    }

    /// Hand the catalog back (if still held) and run `settle` under one
    /// hub lock, then wake the waiters on `ack`. With `publish`, a fresh read epoch is
    /// captured first, while the catalog is still exclusively ours.
    fn hand_back(&mut self, publish: bool, settle: impl FnOnce(&mut HubState)) {
        if let Some(inner) = self.inner.as_ref().filter(|_| publish) {
            self.shared.epochs.publish(inner.catalog(), inner.marks());
        }
        let mut g = self.shared.state.lock().expect("hub state");
        if let Some(inner) = self.inner.take() {
            g.inner = Some(inner);
        }
        settle(&mut g);
        drop(g);
        self.shared.ack.notify_all();
    }

    /// Keep the catalog for good (shutdown): disarms the hand-back.
    fn keep(mut self) -> HubInner {
        self.inner.take().expect("the catalog is checked out")
    }
}

impl Drop for CheckOut<'_> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.hand_back(false, |_| {});
        }
    }
}

/// A multi-producer ingestion service over one catalog: per-session
/// bounded queues, a **background drain thread** with a time-based
/// coalescing window, **round-robin fairness** across sessions, and — on
/// a durable catalog — **group commit** (concurrent `commit()`s and the
/// drain thread coalesce their WAL fsyncs through a leader/follower
/// protocol, counted by [`crate::WalSyncStats`]; receipts stay
/// per-session).
///
/// ```
/// use viewsrv::{HubConfig, InsertPosition, UpdateBatch, UpdateOp, ViewCatalog};
/// use xmlstore::Store;
///
/// let mut store = Store::new();
/// store.load_doc("bib.xml", "<bib><book year=\"1994\"><title>T</title></book></bib>").unwrap();
/// let mut cat = ViewCatalog::new(store);
/// cat.register("all", r#"<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>"#)
///     .unwrap();
///
/// let hub = cat.into_hub(HubConfig::default());
/// let writer = hub.handle();
/// for i in 0..3 {
///     let frag = format!("<book year=\"2001\"><title>B{i}</title></book>");
///     let op = UpdateOp::insert("bib.xml", "/bib", InsertPosition::Into, &frag).unwrap();
///     writer.try_submit(UpdateBatch::new().with(op)).unwrap();
/// }
/// let receipt = writer.commit().unwrap();
/// assert_eq!(receipt.batches_submitted, 3);
/// hub.shutdown().catalog().verify_all().unwrap();
/// ```
pub struct IngestHub {
    shared: Arc<HubShared>,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ViewCatalog {
    /// Put this catalog behind an [`IngestHub`]: each producer opens its
    /// own `Send` [`SessionHandle`] via [`IngestHub::handle`] (one per
    /// writer — handles are not shared); a background thread drains their
    /// queues.
    pub fn into_hub(self, config: HubConfig) -> IngestHub {
        IngestHub::start(HubInner::Volatile(self), config)
    }
}

impl DurableCatalog {
    /// Put this durable catalog behind an [`IngestHub`]: drained chunks
    /// are journaled append-then-apply, acknowledged after their (group)
    /// fsync, and the WAL auto-rotation policy keeps running.
    pub fn into_hub(self, config: HubConfig) -> IngestHub {
        IngestHub::start(HubInner::Durable(self), config)
    }
}

impl IngestHub {
    fn start(inner: HubInner, config: HubConfig) -> IngestHub {
        let registry = Arc::clone(inner.catalog().metrics_registry());
        let m = HubMetrics::new(&registry);
        // Epoch 1 is captured before the hub opens for business, so a
        // reader subscribing at any point always finds a served state.
        let epochs = crate::EpochPublisher::start(&registry, inner.catalog(), inner.marks());
        let shared = Arc::new(HubShared {
            state: Mutex::new(HubState {
                inner: Some(inner),
                sessions: BTreeMap::new(),
                next_id: 0,
                rr: 0,
                oldest_pending: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            ack: Condvar::new(),
            config,
            panic_once: AtomicBool::new(config.inject_round_panic),
            stall_once: AtomicBool::new(config.inject_round_stall_ms > 0),
            registry,
            epochs,
            m,
        });
        let for_thread = Arc::clone(&shared);
        let drain = std::thread::Builder::new()
            .name("xqview-hub-drain".into())
            .spawn(move || drain_loop(&for_thread))
            .expect("spawn hub drain thread");
        IngestHub { shared, drain: Some(drain) }
    }

    /// Open a new producer session.
    pub fn handle(&self) -> SessionHandle {
        let mut g = self.shared.state.lock().expect("hub state");
        let id = g.next_id;
        g.next_id += 1;
        let depth = self.shared.registry.gauge(&format!("hub/session/{id}/depth"));
        g.sessions.insert(id, Producer::new(depth));
        self.shared.m.sessions.set(g.sessions.len() as i64);
        drop(g);
        SessionHandle { shared: Arc::clone(&self.shared), id }
    }

    /// The hub's configuration.
    pub fn config(&self) -> HubConfig {
        self.shared.config
    }

    /// Capture a live [`obs::MetricsSnapshot`]: the catalog's registry
    /// (phase histograms, hub/session/WAL/checkpoint series) merged with
    /// the process-global registry (executor pool, `span/*`). Safe to
    /// call at any time — writers are never stopped and the commit path
    /// takes no lock for this.
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        let mut snap = self.shared.registry.snapshot();
        snap.merge(&obs::MetricsRegistry::global().snapshot());
        snap
    }

    /// The registry every hub/session/catalog series lives in — lets a
    /// host (e.g. the network server) register its own instruments so
    /// they ride along in [`IngestHub::metrics`] snapshots.
    pub fn metrics_registry(&self) -> Arc<obs::MetricsRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// The hub's [`crate::EpochPublisher`] — the lock-free read side.
    /// Lets a host hold the read path independently of the hub's
    /// lifetime (epochs published before shutdown stay readable).
    pub fn epochs(&self) -> Arc<crate::EpochPublisher> {
        Arc::clone(&self.shared.epochs)
    }

    /// Open a lock-free [`crate::ReadHandle`] onto the current epoch:
    /// queries and extent reads served from the frozen snapshot, zero
    /// coordination with the write path.
    pub fn read_handle(&self) -> crate::ReadHandle {
        self.shared.epochs.subscribe()
    }

    /// Run `f` with exclusive access to the hub's catalog, checked out of
    /// the hub state exactly like a drain round: no hub lock is held
    /// while `f` runs, so producers keep enqueueing at memory speed, and
    /// catalog ownership serializes `f` against concurrent rounds. The
    /// check-out is panic-safe — an unwind in `f` still hands the catalog
    /// back and wakes waiters. Returns `None` once the hub has shut down.
    ///
    /// This is the control-plane path (register/drop views, read extents,
    /// inspect recovery state) for hosts that own the catalog only
    /// through a hub; keep `f` short — drains stall while it runs.
    pub fn with_inner<R>(&self, f: impl FnOnce(&mut HubInner) -> R) -> Option<R> {
        let (mut co, g) = CheckOut::take(&self.shared, true)?;
        drop(g);
        let out = f(co.inner());
        // `f` may have changed what readers should see (views registered
        // or dropped): republish at the hand-back. A panicking `f` never
        // gets here — the guard's drop hands the catalog back without an
        // epoch, since `f` may have left mid-mutation state.
        co.hand_back(true, |_| {});
        Some(out)
    }

    /// Read-only variant of [`IngestHub::with_inner`].
    pub fn with_catalog<R>(&self, f: impl FnOnce(&ViewCatalog) -> R) -> Option<R> {
        self.with_inner(|inner| f(inner.catalog()))
    }

    /// Run one background-style drain round right now (one coalesced
    /// chunk per drainable session, round-robin order, one group fsync) —
    /// deterministic drains for tests and an operational nudge. Returns
    /// the number of chunks applied.
    pub fn drain_now(&self) -> usize {
        drain_round(&self.shared, None)
    }

    /// Graceful stop: reject further submissions, drain every remaining
    /// (non-errored) queue, stop the background thread, and hand the
    /// catalog back. Pending sticky errors and their requeued chunks are
    /// dropped with the sessions.
    pub fn shutdown(mut self) -> HubInner {
        // Close the doors *before* the final drain: a try_submit racing
        // this point either lands in a queue we still drain below, or
        // observes the flag and gets its batch back in `HubClosed` —
        // never an `Ok` whose batch silently vanishes.
        self.close();
        loop {
            let g = self.shared.state.lock().expect("hub state");
            if !g.any_drainable() {
                break;
            }
            drop(g);
            drain_round(&self.shared, None);
        }
        self.stop_thread();
        // A straggler round (a live handle's commit) may still have the
        // catalog checked out; the check-out waits for its hand-back.
        // Sessions are cleared only below, so the closed-hub exit of the
        // check-out cannot fire while anyone else holds the catalog.
        let (co, mut g) = CheckOut::take(&self.shared, true).expect("the hub holds its catalog");
        g.sessions.clear();
        self.shared.m.sessions.set(0);
        self.shared.m.queued_batches.set(0);
        drop(g);
        let inner = co.keep();
        // Wake any straggler commit/drain so it observes the closed hub.
        self.shared.ack.notify_all();
        // Operational escape hatch: `XQVIEW_METRICS_DUMP=<path>` writes
        // the final merged snapshot as JSON on graceful shutdown.
        if let Ok(path) = std::env::var("XQVIEW_METRICS_DUMP") {
            if !path.is_empty() {
                let _ = std::fs::write(&path, self.metrics().to_json());
            }
        }
        inner
    }

    /// Reject further submissions and wake the drain thread to exit.
    fn close(&self) {
        self.shared.state.lock().expect("hub state").shutdown = true;
        self.shared.work.notify_all();
    }

    fn stop_thread(&mut self) {
        self.close();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for IngestHub {
    /// Non-graceful stop (prefer [`IngestHub::shutdown`]): the drain
    /// thread is joined; still-queued submissions are dropped — for a
    /// durable catalog they were never acknowledged, so this is exactly
    /// a crash the WAL already models.
    fn drop(&mut self) {
        if self.drain.is_some() {
            self.stop_thread();
        }
    }
}

/// A producer's handle into an [`IngestHub`]: `Send`, independently
/// bounded, independently receipted. Dropping the handle closes the
/// session; already-queued submissions still drain (fire-and-forget).
pub struct SessionHandle {
    shared: Arc<HubShared>,
    id: u64,
}

impl SessionHandle {
    /// Enqueue a typed batch. Fails fast with [`IngestError::QueueFull`]
    /// at the per-session bound and [`IngestError::HubClosed`] after
    /// shutdown — the batch rides back in both errors. Scripts are
    /// parsed at the edge: [`UpdateBatch::from_script`] first.
    pub fn try_submit(&self, batch: UpdateBatch) -> Result<(), IngestError> {
        let mut g = self.shared.state.lock().expect("hub state");
        // `inner` being absent just means a round has the catalog checked
        // out — enqueueing proceeds at memory speed. Closed is the
        // shutdown flag (or this session already torn down with the hub).
        let capacity = self.shared.config.queue_capacity;
        let closed = g.shutdown;
        let p = match g.sessions.get_mut(&self.id) {
            Some(p) if !closed => p,
            _ => return Err(IngestError::HubClosed(batch)),
        };
        if p.queue.len() >= capacity {
            drop(g);
            self.shared.m.queue_full.inc();
            self.shared.registry.emit(
                obs::Event::new(obs::EventKind::QueueFull)
                    .session(self.id)
                    .detail(format!("capacity {capacity}")),
            );
            return Err(IngestError::QueueFull { batch, capacity });
        }
        p.queued_ops += batch.len();
        p.queue.push_back(batch);
        p.submitted += 1;
        p.depth.set(p.queue.len() as i64);
        self.shared.m.queued_batches.set(g.queued_total() as i64);
        if g.oldest_pending.is_none() {
            g.oldest_pending = Some(Instant::now());
        }
        drop(g);
        self.shared.work.notify_all();
        Ok(())
    }

    /// Submissions waiting in this session's queue.
    pub fn queued_batches(&self) -> usize {
        let g = self.shared.state.lock().expect("hub state");
        g.sessions.get(&self.id).map_or(0, |p| p.queue.len())
    }

    /// Typed ops waiting in this session's queue.
    pub fn queued_ops(&self) -> usize {
        let g = self.shared.state.lock().expect("hub state");
        g.sessions.get(&self.id).map_or(0, |p| p.queued_ops)
    }

    /// Chunks applied (and, when durable, fsync-acknowledged) for this
    /// session since the last [`commit`](SessionHandle::commit).
    pub fn applied_batches(&self) -> usize {
        let g = self.shared.state.lock().expect("hub state");
        g.sessions.get(&self.id).map_or(0, |p| p.receipts.len())
    }

    /// Drop every queued (not yet drained) submission, returning them —
    /// the recovery escape hatch after a failed chunk. After the hub has
    /// shut down there is nothing left to discard: returns empty.
    pub fn discard_queued(&self) -> Vec<UpdateBatch> {
        let mut g = self.shared.state.lock().expect("hub state");
        let Some(p) = g.sessions.get_mut(&self.id) else { return Vec::new() };
        p.queued_ops = 0;
        let out: Vec<UpdateBatch> = p.queue.drain(..).collect();
        p.depth.set(0);
        self.shared.m.queued_batches.set(g.queued_total() as i64);
        // The discarded batches may have been the window anchor; a stale
        // anchor would make the next fresh submission drain immediately
        // instead of coalescing.
        if !g.any_drainable() {
            g.oldest_pending = None;
        }
        drop(g);
        self.shared.work.notify_all();
        out
    }

    /// Drain this session's whole queue **now** (inline, not waiting for
    /// the background window), wait for durability, and fold every
    /// receipt accumulated since the last commit into one
    /// [`SessionReceipt`]. Concurrent commits from different handles
    /// share fsyncs through the group-commit protocol.
    ///
    /// On error the session stays usable: the failing chunk is back at
    /// the queue front, earlier receipts are retained — inspect,
    /// [`discard_queued`](SessionHandle::discard_queued), and commit
    /// again.
    pub fn commit(&self) -> Result<SessionReceipt, IngestError> {
        loop {
            drain_round(&self.shared, Some(self.id));
            let mut g = self.shared.state.lock().expect("hub state");
            // The session disappears only when the hub tears down.
            let Some(p) = g.sessions.get_mut(&self.id) else {
                return Err(IngestError::HubClosed(UpdateBatch::new()));
            };
            if let Some(e) = p.error.take() {
                return Err(e);
            }
            if p.queue.is_empty() && p.inflight == 0 {
                let receipt = fold_receipts(p.submitted, p.receipts.drain(..));
                p.submitted = 0;
                return Ok(receipt);
            }
            // Chunks of ours are riding a concurrent round; wait for its
            // acks and re-check.
            drop(self.shared.ack.wait(g).expect("hub state"));
        }
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        let mut g = self.shared.state.lock().expect("hub state");
        if let Some(p) = g.sessions.get_mut(&self.id) {
            p.open = false;
            // Sticky errors die with the handle; keep the queue so
            // fire-and-forget submissions still drain.
            p.error = None;
        }
        drop(g);
        self.shared.work.notify_all();
    }
}

/// The background drain: wait for work, let the time window fill, run a
/// round; under backlog (a round left queues non-empty) rounds follow
/// immediately — the window only delays *fresh* submissions.
fn drain_loop(shared: &HubShared) {
    let window = Duration::from_millis(shared.config.window_ms);
    loop {
        {
            let mut g = shared.state.lock().expect("hub state");
            loop {
                if g.shutdown {
                    return;
                }
                if g.any_drainable() {
                    break;
                }
                g = shared.work.wait(g).expect("hub state");
            }
            // Time-based coalescing, anchored at the oldest pending
            // submission (so no submission waits longer than the window).
            while !g.shutdown {
                let waited = g.oldest_pending.map_or(window, |t| t.elapsed());
                if waited >= window || !g.any_drainable() {
                    break;
                }
                let (g2, _) = shared.work.wait_timeout(g, window - waited).expect("hub state");
                g = g2;
            }
            if g.shutdown || !g.any_drainable() {
                continue;
            }
        }
        drain_round(shared, None);
    }
}

/// Pop one coalesced chunk off a session queue: the front submission
/// plus as many successors as fit in `window_ops` (a submission is never
/// split). Returns the merged chunk and how many submissions it folds.
fn pop_chunk(
    queue: &mut VecDeque<UpdateBatch>,
    queued_ops: &mut usize,
    window_ops: usize,
) -> Option<(UpdateBatch, usize)> {
    let first = queue.pop_front()?;
    *queued_ops -= first.len();
    let mut merged = first;
    let mut coalesced = 1;
    while let Some(next) = queue.front() {
        if merged.len() + next.len() > window_ops {
            break;
        }
        let next = queue.pop_front().expect("front exists");
        *queued_ops -= next.len();
        merged.extend(next);
        coalesced += 1;
    }
    Some((merged, coalesced))
}

/// A run of session `sid`'s popped chunks to requeue, in order, with the
/// sticky error it carries: a failed chunk's error (later chunks of the
/// session were skipped behind it), or none for chunks never started.
type Run = (u64, Option<IngestError>, Vec<UpdateBatch>);

/// Put runs of popped chunks back at their sessions' queue fronts in
/// order, releasing `inflight`; a run's error becomes the session's
/// sticky error. A closed session's chunks are dropped instead: no
/// producer is left to discard them, and a poison chunk would retry
/// forever.
fn requeue(shared: &HubShared, g: &mut HubState, runs: impl IntoIterator<Item = Run>, why: &str) {
    for (sid, error, chunks) in runs {
        let Some(p) = g.sessions.get_mut(&sid) else { continue };
        p.inflight -= chunks.len();
        if !p.open {
            continue;
        }
        let n = chunks.len();
        for c in chunks.into_iter().rev() {
            p.queued_ops += c.len();
            p.queue.push_front(c);
        }
        p.depth.set(p.queue.len() as i64);
        shared.m.requeued.add(n as u64);
        shared
            .registry
            .emit(obs::Event::new(obs::EventKind::ChunkRequeued).session(sid).detail(why));
        if let Some(e) = error {
            shared.note_sticky(sid, p, e);
        }
    }
    shared.m.queued_batches.set(g.queued_total() as i64);
}

/// Why applied chunks are receipted with a sticky error instead of a
/// clean acknowledgment: their durability is unknown.
#[derive(Clone, Copy)]
enum AckFault<'e> {
    /// The shared group fsync failed — the ambiguity a crash leaves.
    Fsync(&'e std::io::Error),
    /// The round unwound before their fsync settled.
    Panicked,
}

fn round_panicked_error(what: &str) -> IngestError {
    IngestError::Catalog(CatalogError::from(vpa_core::update::UpdateError(format!(
        "a drain round panicked {what}"
    ))))
}

/// Deliver applied chunks' receipts and release `inflight`. The chunks
/// *did* apply, so receipts always arrive; a `fault` also pins a sticky
/// error on each session flagging that their durability is unknown.
fn deliver_acks(
    shared: &HubShared,
    g: &mut HubState,
    acks: &mut Vec<(u64, BatchReceipt)>,
    fault: Option<AckFault<'_>>,
) {
    for (sid, receipt) in acks.drain(..) {
        let Some(p) = g.sessions.get_mut(&sid) else { continue };
        p.inflight -= 1;
        shared.m.session.record_receipt(&receipt);
        p.receipts.push(receipt);
        let err = match fault {
            None => continue,
            Some(AckFault::Fsync(io)) => {
                IngestError::Journal(std::io::Error::new(io.kind(), io.to_string()))
            }
            Some(AckFault::Panicked) => round_panicked_error(
                "before this session's applied chunks were acknowledged; their durability is \
                 unknown",
            ),
        };
        shared.note_sticky(sid, p, err);
    }
}

/// The unwind guard of a drain round: owns the catalog check-out and
/// every chunk the round popped — not yet applied (`pending`), mid-apply
/// (`applying`), applied-but-unacknowledged (`acks`), or failed-awaiting-
/// requeue (`failed`) — while no hub lock is held. On a normal round each
/// piece is settled at its point (the catalog handed back and failures
/// requeued before the fsync, receipts delivered after it); if the round
/// **panics** anywhere — an apply, the group fsync, the rotation — the
/// destructor restores the catalog to the hub state, requeues untouched
/// chunks, flags the mid-apply session with a sticky error (its effects
/// are unknown — retrying could double-apply), delivers applied receipts
/// with a sticky durability-unknown error, requeues failed chunks,
/// releases every `inflight` count, and wakes every waiter — so
/// `IngestHub::shutdown` and `SessionHandle::commit` observe a closed
/// round instead of deadlocking on a hand-back or acknowledgment that
/// will never come. It settles through the same [`requeue`] and
/// [`deliver_acks`] routines as the normal round.
struct RoundGuard<'a> {
    co: CheckOut<'a>,
    /// Popped chunks not yet settled; front is next to apply.
    pending: VecDeque<(u64, UpdateBatch, usize)>,
    /// Session whose chunk is mid-apply right now.
    applying: Option<u64>,
    /// Applied chunks whose receipts have not been delivered (the round
    /// delivers them only once the group fsync settles).
    acks: Vec<(u64, BatchReceipt)>,
    /// Failed sessions' chunks awaiting requeue at the first hand-back.
    failed: Vec<Run>,
}

impl Drop for RoundGuard<'_> {
    fn drop(&mut self) {
        if self.pending.is_empty()
            && self.applying.is_none()
            && self.acks.is_empty()
            && self.failed.is_empty()
        {
            return; // settled (a catalog still held is handed back by `co`)
        }
        let shared = self.co.shared;
        self.co.hand_back(false, |g| {
            if let Some(sid) = self.applying.take() {
                if let Some(p) = g.sessions.get_mut(&sid) {
                    p.inflight -= 1;
                    let e = round_panicked_error(
                        "while applying this session's chunk; its effects are unknown and it was \
                         not requeued",
                    );
                    shared.note_sticky(sid, p, e);
                }
            }
            deliver_acks(shared, g, &mut self.acks, Some(AckFault::Panicked));
            // Chunks the round never started requeue untouched, then the
            // failed runs — whose push_front lands them ahead (they were
            // popped earlier and must drain first).
            let untouched = self.pending.drain(..).rev().map(|(sid, c, _)| (sid, None, vec![c]));
            requeue(shared, g, untouched, "round unwound before this chunk started");
            requeue(shared, g, self.failed.drain(..), "chunk failed during an unwound round");
        });
        // The requeued chunks are drainable again.
        shared.work.notify_all();
    }
}

/// One drain round. `only == None` is a background round: one coalesced
/// chunk per drainable session, visited in round-robin order starting
/// after the previous round's leader. `only == Some(id)` is a commit
/// round: session `id`'s whole queue, chunked by `window_ops`.
///
/// The round **checks the catalog out** of the hub state and applies
/// chunks with no hub lock held, so producers keep enqueueing at memory
/// speed while maintenance runs; catalog ownership serializes concurrent
/// rounds (log order == apply order), and the group fsync coalesces with
/// any round it races. A [`RoundGuard`] settles every popped chunk if the
/// round unwinds. Receipts are delivered, and `inflight` released, only
/// after the fsync attempt settles (on fsync failure the receipt is
/// paired with a sticky Journal error). Returns the chunks applied.
fn drain_round(shared: &HubShared, only: Option<u64>) -> usize {
    // ── 1. Check the catalog out and pop chunks under one lock.
    let Some((co, mut g)) = CheckOut::take(shared, true) else { return 0 };
    let round_start = Instant::now();
    let mut guard = RoundGuard {
        co,
        pending: VecDeque::new(),
        applying: None,
        acks: Vec::new(),
        failed: Vec::new(),
    };

    // Pick the visit order.
    let sessions = &mut g.sessions;
    let ids: Vec<u64> = match only {
        Some(id) => sessions.get(&id).filter(|p| p.drainable()).map(|_| id).into_iter().collect(),
        None => {
            let mut ids: Vec<u64> =
                sessions.iter().filter(|(_, p)| p.drainable()).map(|(&i, _)| i).collect();
            let rr = g.rr;
            let pos = ids.iter().position(|&i| i > rr).unwrap_or(0);
            ids.rotate_left(pos);
            ids
        }
    };
    if ids.is_empty() {
        drop(g);
        return 0; // the guard hands the catalog back and notifies
    }
    if only.is_none() {
        g.rr = ids[0];
    }

    // Pop and coalesce chunks; every popped chunk is inflight until its
    // durability point (commit waits on the counter).
    let window_ops = shared.config.window_ops;
    for &sid in &ids {
        let p = g.sessions.get_mut(&sid).expect("session listed");
        while let Some((merged, coalesced)) = pop_chunk(&mut p.queue, &mut p.queued_ops, window_ops)
        {
            p.inflight += 1;
            guard.pending.push_back((sid, merged, coalesced));
            if only.is_none() {
                break; // background rounds take one chunk per session
            }
        }
        p.depth.set(p.queue.len() as i64);
    }
    shared.m.round_sessions.record(ids.len() as u64);
    shared.m.queued_batches.set(g.queued_total() as i64);
    if !g.sessions.values().any(Producer::drainable) {
        g.oldest_pending = None;
    }
    drop(g);

    // Test failpoint: wedge this round with the catalog checked out and
    // no hub lock held — `with_catalog`/`with_inner` callers stack up on
    // the hand-back condvar for the whole stall, while epoch readers
    // keep being served from the last published snapshot (see HubConfig).
    if shared.config.inject_round_stall_ms > 0 && shared.stall_once.swap(false, Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(shared.config.inject_round_stall_ms));
    }

    // ── 2. No hub lock held from here: append + apply each chunk in order
    // (catalog ownership makes this the WAL order). Results accumulate
    // *in the guard* so an unwind anywhere below still settles every
    // popped chunk.
    let mut sync: Option<SyncPoint> = None;
    let mut chunk_idx = 0usize;
    while let Some((sid, chunk, coalesced)) = guard.pending.pop_front() {
        if let Some((.., skipped)) = guard.failed.iter_mut().find(|(s, ..)| *s == sid) {
            skipped.push(chunk);
            continue;
        }
        guard.applying = Some(sid);
        if chunk_idx == shared.config.inject_round_panic_at
            && shared.panic_once.swap(false, Ordering::SeqCst)
        {
            // Test failpoint: unwind at the worst moment — catalog
            // checked out, this chunk mid-apply, earlier ones applied
            // but unacknowledged, others still pending, no lock held
            // (see HubConfig).
            panic!("injected drain-round panic");
        }
        chunk_idx += 1;
        let applied = guard.co.inner().apply_chunk(&chunk);
        guard.applying = None;
        match applied {
            Ok((mut receipt, durable)) => {
                receipt.coalesced_from = coalesced;
                guard.acks.push((sid, receipt));
                sync = durable.or(sync);
            }
            Err(e) => {
                guard.failed.push((sid, Some(e), vec![chunk]));
            }
        }
    }
    let applied = guard.acks.len();

    // Publish the read epoch at the batch boundary (readers see
    // applied-in-memory state, which on a durable catalog can precede the
    // fsync), then hand the catalog back *before* the fsync and requeue
    // failures: the next round can append and join this round's fsync as
    // a follower — what makes fsync sharing reachable at all. Receipts
    // stay undelivered (inflight held) until the sync settles.
    guard.co.hand_back(applied > 0, |g| {
        requeue(shared, g, guard.failed.drain(..), "chunk failed to apply");
    });

    // ── 3. The slow part, with nothing held: the group fsync. One
    // leader's fsync acknowledges every concurrent round it covers.
    let sync_result = match &sync {
        Some((gc, lsn)) => gc.sync_upto(*lsn),
        None => Ok(()),
    };

    // Rotate at the durability point, with the catalog checked out again
    // — never under the hub lock, so producers keep enqueueing while the
    // checkpointer seals the generation (the slow snapshot encode+fsync
    // itself leaves on a background pool job; see
    // `DurableCatalog::checkpoint`). Opportunistic: if a concurrent round
    // holds the catalog, skip — its own durability point retries (the
    // threshold is still exceeded).
    if sync.is_some() && sync_result.is_ok() {
        if let Some((mut co, g)) = CheckOut::take(shared, false) {
            drop(g);
            co.inner().after_durable();
        }
    }

    // ── 4. Settle the sessions.
    let mut g = shared.state.lock().expect("hub state");
    deliver_acks(shared, &mut g, &mut guard.acks, sync_result.as_ref().err().map(AckFault::Fsync));
    // Reap sessions whose handle dropped and whose work is finished.
    g.sessions.retain(|_, p| p.open || !p.queue.is_empty() || p.inflight > 0);
    shared.m.sessions.set(g.sessions.len() as i64);
    drop(g);
    shared.ack.notify_all();
    shared.work.notify_all();
    shared.m.rounds.inc();
    shared.m.chunks.add(applied as u64);
    shared.m.round.record_duration(round_start.elapsed());
    applied
}

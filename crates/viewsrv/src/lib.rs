//! # viewsrv — multi-view catalog with shared validation and parallel maintenance
//!
//! The paper maintains *one* materialized view over its sources; a
//! production service maintains **many** views over **shared** documents,
//! and the paper's own relevancy check (the SAPT, Fig 5.2) is exactly the
//! lever to do so efficiently: an incoming update batch is resolved and
//! classified **once**, then propagated only to the views it can actually
//! affect.
//!
//! [`ViewCatalog`] owns one [`Store`] plus N registered [`MaintView`]s and
//! runs the VPA phases service-wide. It is the only place the rounds are
//! sequenced: a single view is a one-view catalog.
//!
//! 1. **Validate (shared)** — each resolved update is routed through a
//!    document→views *relevancy index* built from the registered SAPTs, so
//!    only views that read the updated document are classified at all, and
//!    only views whose access paths intersect the update receive it.
//! 2. **Propagate (routed, parallel)** — per document and update kind, each
//!    relevant view derives its delta with its own IMPs. Views are
//!    independent, and propagation is read-only on the store, so each view
//!    is one job on the shared [`exec::Executor`] worker pool — and a
//!    self-join view's telescoped IMP terms fan out *again* on the same
//!    pool (nested, deadlock-free by construction).
//! 3. **Apply (parallel)** — the source update is applied to the shared
//!    store **once**; each view's delta then merges into its own extent
//!    (count-aware deep union), again pooled.
//!
//! A round fans out only when it carries more than one update root for
//! some view; a single-update round runs all three levels inline on the
//! calling thread, so its latency does not hinge on a second core
//! (see `ViewCatalog::fans_out`).
//!
//! Modifies keep the paper's classification (§6.5): if *every* relevant
//! view sees a content-only change, the text is patched in place
//! store-side and extent-side; otherwise the modify widens to
//! delete+insert of a shared anchor fragment, which is then re-routed —
//! widening changes node keys, so views untouched by the original text
//! change can still be touched by the widened fragment.
//!
//! [`ServiceStats`] aggregates per-phase wall times and the routing
//! counters (updates seen, view propagations, views skipped by relevancy),
//! and [`ViewCatalog::verify_all`] is the service-level §1.2 oracle: every
//! extent must equal its from-scratch recomputation.
//!
//! Updates arrive as **typed** [`UpdateBatch`]es ([`ViewCatalog::apply_batch`]
//! returns a structured [`BatchReceipt`]); the [`session`] module adds the
//! queued ingestion front ([`IngestHub`] and its [`SessionHandle`]s) with
//! bounded per-writer queues, a coalescing window, and explicit
//! backpressure. The [`epoch`] module is the matching **read** front: the
//! hub publishes a frozen `(Store, extents)` [`Epoch`] after every applied
//! round, and any number of [`ReadHandle`]s serve queries from it with
//! zero locks and zero coordination with writers.

pub mod durability;
pub mod epoch;
pub mod session;

pub use durability::{
    DurabilityError, DurableCatalog, RecoveryReport, RotatePolicy, Snapshot, SnapshotView, Wal,
    WalSyncStats,
};
pub use epoch::{DurableMarks, Epoch, EpochPublisher, ReadHandle};
use flexkey::FlexKey;
pub use session::{HubConfig, HubInner, IngestError, IngestHub, SessionHandle, SessionReceipt};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vpa_core::update::{self, ResolvedUpdate, UpdateError};
use vpa_core::validate::Relevancy;
use vpa_core::view::{text_node_key, widen_modify, MaintView};
use vpa_core::{MaintError, MaintStats};
use xat::exec::ExecStats;
use xat::VNode;
use xmlstore::{Frag, Store};
pub use xquery_lang::{InsertPosition, OpAction, OpKind, UpdateBatch, UpdateOp};

/// Service-level statistics: the Chapter 9 per-phase breakdown lifted to
/// the catalog, plus the relevancy-routing counters that only exist with
/// multiple views.
///
/// Phase durations are **wall times of the phase sections** (a parallel
/// propagate round counts once, not once per worker), so `total()` stays
/// comparable across pool sizes; the per-view CPU-like sums live in each
/// view's [`MaintStats`]. [`ServiceStats::merge`] is field-wise `+` —
/// associative, commutative, order-independent — so folding receipts in
/// pooled completion order can never skew the aggregate (asserted by
/// unit test).
#[must_use = "service statistics report the per-phase costs and routing counters"]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Update batches processed.
    pub batches: usize,
    /// Resolved update primitives seen.
    pub updates_seen: usize,
    /// (update, view) pairs skipped by the relevancy check — work a naive
    /// per-view loop would have propagated.
    pub views_skipped: usize,
    /// (update, view) pairs routed into propagation.
    pub views_routed: usize,
    /// Modifies served by the in-place fast path (all relevant views
    /// content-only).
    pub fast_modifies: usize,
    /// Modifies widened to delete+insert of an anchor fragment.
    pub widened_modifies: usize,
    /// Views refreshed by full recomputation (no binding anchor fallback).
    pub recomputes: usize,
    /// Wall time of the shared Validate phase (resolution + routing).
    pub validate: Duration,
    /// Wall time of the Propagate phases (parallel sections measured as
    /// wall time, not summed across threads).
    pub propagate: Duration,
    /// Wall time of the Apply phases (store + extents).
    pub apply: Duration,
}

impl ServiceStats {
    pub fn total(&self) -> Duration {
        self.validate + self.propagate + self.apply
    }

    /// Fold another batch's statistics in. Field-wise `+`: associative
    /// and commutative, so any fold order gives the same totals.
    pub fn merge(&mut self, o: &ServiceStats) {
        self.batches += o.batches;
        self.updates_seen += o.updates_seen;
        self.views_skipped += o.views_skipped;
        self.views_routed += o.views_routed;
        self.fast_modifies += o.fast_modifies;
        self.widened_modifies += o.widened_modifies;
        self.recomputes += o.recomputes;
        self.validate += o.validate;
        self.propagate += o.propagate;
        self.apply += o.apply;
    }
}

/// Catalog-level failures.
#[derive(Debug)]
pub enum CatalogError {
    /// A view with this name is already registered.
    DuplicateView(String),
    /// No view with this name is registered.
    UnknownView(String),
    /// One or more extents diverged from their recomputation (view names).
    Inconsistent(Vec<String>),
    /// An underlying maintenance failure.
    Maint(MaintError),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::DuplicateView(n) => write!(f, "view {n:?} is already registered"),
            CatalogError::UnknownView(n) => write!(f, "no view named {n:?}"),
            CatalogError::Inconsistent(names) => {
                write!(f, "extents diverged from recomputation: {}", names.join(", "))
            }
            CatalogError::Maint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<MaintError> for CatalogError {
    fn from(e: MaintError) -> Self {
        CatalogError::Maint(e)
    }
}

impl From<vpa_core::update::UpdateError> for CatalogError {
    fn from(e: vpa_core::update::UpdateError) -> Self {
        CatalogError::Maint(MaintError::Update(e))
    }
}

impl From<xquery_lang::QueryParseError> for CatalogError {
    fn from(e: xquery_lang::QueryParseError) -> Self {
        CatalogError::from(UpdateError::from(e))
    }
}

/// The structured result of one applied update batch: what was accepted,
/// which views it reached, and the per-phase costs.
#[must_use = "the receipt reports what the batch touched and what it cost"]
#[derive(Clone, Debug)]
pub struct BatchReceipt {
    /// Typed ops in the submitted batch.
    pub ops: usize,
    /// Update primitives the ops resolved to (one op can bind many nodes).
    pub resolved: usize,
    /// Submitted batches coalesced into this application (1 for a direct
    /// [`ViewCatalog::apply_batch`]; ≥ 1 through an [`IngestHub`]).
    pub coalesced_from: usize,
    /// Names of the views the batch was routed to (relevancy-touched), in
    /// registration order.
    pub views_touched: Vec<String>,
    /// The batch's per-phase wall times and routing counters.
    pub stats: ServiceStats,
}

/// Per-view phase histograms (`view/<name>/{validate,propagate,apply}`),
/// handles cached at registration so the maintenance hot path records
/// through plain atomics.
struct SlotMetrics {
    validate: Arc<obs::Histogram>,
    propagate: Arc<obs::Histogram>,
    apply: Arc<obs::Histogram>,
}

/// One view's delta update tree: the roots a round propagates and applies.
type Delta = Vec<Arc<VNode>>;

/// One registered view: the store-less core plus its service bookkeeping.
struct Slot {
    name: String,
    view: MaintView,
    stats: MaintStats,
    phase: SlotMetrics,
}

/// Service-level handles into the catalog's registry (`svc/*`), cached at
/// construction.
struct CatalogMetrics {
    batches: Arc<obs::Counter>,
    updates_seen: Arc<obs::Counter>,
    views_routed: Arc<obs::Counter>,
    views_skipped: Arc<obs::Counter>,
    fast_modifies: Arc<obs::Counter>,
    widened_modifies: Arc<obs::Counter>,
    recomputes: Arc<obs::Counter>,
    resolve: Arc<obs::Histogram>,
    validate: Arc<obs::Histogram>,
    propagate: Arc<obs::Histogram>,
    apply: Arc<obs::Histogram>,
}

impl CatalogMetrics {
    fn new(reg: &obs::MetricsRegistry) -> CatalogMetrics {
        CatalogMetrics {
            batches: reg.counter("svc/batches"),
            updates_seen: reg.counter("svc/updates_seen"),
            views_routed: reg.counter("svc/views_routed"),
            views_skipped: reg.counter("svc/views_skipped"),
            fast_modifies: reg.counter("svc/fast_modifies"),
            widened_modifies: reg.counter("svc/widened_modifies"),
            recomputes: reg.counter("svc/recomputes"),
            resolve: reg.histogram("svc/resolve"),
            validate: reg.histogram("svc/validate"),
            propagate: reg.histogram("svc/propagate"),
            apply: reg.histogram("svc/apply"),
        }
    }

    /// Mirror one batch's [`ServiceStats`] into the registry: one sample
    /// per phase histogram, counter deltas for the routing tallies.
    fn record_batch(&self, s: &ServiceStats) {
        self.batches.add(s.batches as u64);
        self.updates_seen.add(s.updates_seen as u64);
        self.views_routed.add(s.views_routed as u64);
        self.views_skipped.add(s.views_skipped as u64);
        self.fast_modifies.add(s.fast_modifies as u64);
        self.widened_modifies.add(s.widened_modifies as u64);
        self.recomputes.add(s.recomputes as u64);
        self.validate.record_duration(s.validate);
        self.propagate.record_duration(s.propagate);
        self.apply.record_duration(s.apply);
    }
}

/// A catalog of materialized views over one shared [`Store`], maintained
/// with shared validation and parallel propagation/application.
pub struct ViewCatalog {
    store: Store,
    slots: Vec<Slot>,
    /// document name → indices into `slots` of views reading it.
    doc_index: BTreeMap<String, Vec<usize>>,
    stats: ServiceStats,
    /// Worker pool for the per-view propagate/apply rounds (shared with
    /// each registered view's per-term fan-out).
    pool: exec::Executor,
    /// This catalog's metrics registry: every layer stacked on top (the
    /// durable catalog's WAL/checkpointer, the ingest hub) registers into
    /// the same instance, so one snapshot tells the whole story.
    registry: Arc<obs::MetricsRegistry>,
    m: CatalogMetrics,
}

impl ViewCatalog {
    /// A catalog over `store` (takes ownership: the catalog is the system
    /// of record for the shared sources). Parallel rounds run on the
    /// shared [`exec::Executor::global`] pool (`XQVIEW_POOL_THREADS`).
    pub fn new(store: Store) -> ViewCatalog {
        let registry = obs::MetricsRegistry::new_shared();
        let m = CatalogMetrics::new(&registry);
        ViewCatalog {
            store,
            slots: Vec::new(),
            doc_index: BTreeMap::new(),
            stats: ServiceStats::default(),
            pool: exec::Executor::global().clone(),
            registry,
            m,
        }
    }

    /// The catalog's own metrics registry — each catalog gets a fresh one,
    /// so side-by-side catalogs in one process don't bleed into each
    /// other. The durable layer and the ingest hub register their WAL,
    /// checkpoint, and queue metrics here too.
    pub fn metrics_registry(&self) -> &Arc<obs::MetricsRegistry> {
        &self.registry
    }

    /// A point-in-time [`obs::MetricsSnapshot`] of this catalog merged
    /// with the process-wide substrate metrics (`exec/*` pool telemetry
    /// and `span/*` phase timings from [`obs::MetricsRegistry::global`]).
    /// Capturable at any time without stopping writers.
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        snap.merge(&obs::MetricsRegistry::global().snapshot());
        snap
    }

    /// Pin the catalog — and every registered view's per-term fan-out —
    /// to `pool` instead of the global one (tests compare
    /// pool sizes inside one process; `exec::Executor::new(1)` forces
    /// fully serial, deterministic execution: no round fans out and every
    /// view's IMP terms run on the calling thread).
    pub fn set_pool(&mut self, pool: exec::Executor) {
        self.pool = pool;
        for slot in &mut self.slots {
            slot.view.set_pool(self.pool.clone());
        }
    }

    /// The worker pool parallel rounds run on.
    pub fn pool(&self) -> &exec::Executor {
        &self.pool
    }

    /// Define, materialize, and register a view under `name`.
    ///
    /// Everything that can fail (duplicate name, translation,
    /// materialization) is checked **before** the first catalog mutation:
    /// a failed register leaves both the slot list and the doc→views
    /// relevancy index exactly as they were — recovery depends on this,
    /// since it re-registers views one by one from a snapshot.
    pub fn register(&mut self, name: &str, query: &str) -> Result<(), CatalogError> {
        if self.slots.iter().any(|s| s.name == name) {
            return Err(CatalogError::DuplicateView(name.to_string()));
        }
        let mut view = MaintView::define(query)?;
        view.materialize(&self.store)?;
        self.commit_slot(name, view);
        Ok(())
    }

    /// Define `query` and install `extent` as its materialized state
    /// without recomputation — the snapshot-recovery path. Same
    /// validate-then-commit contract as [`ViewCatalog::register`].
    pub(crate) fn install_view(
        &mut self,
        name: &str,
        query: &str,
        extent: std::sync::Arc<xat::ViewExtent>,
    ) -> Result<(), CatalogError> {
        if self.slots.iter().any(|s| s.name == name) {
            return Err(CatalogError::DuplicateView(name.to_string()));
        }
        let mut view = MaintView::define(query)?;
        view.set_extent_shared(extent);
        self.commit_slot(name, view);
        Ok(())
    }

    /// The single mutation point shared by every registration path: push
    /// the slot (pinned to the catalog's pool) and rebuild the relevancy
    /// index together, so the two can never diverge.
    fn commit_slot(&mut self, name: &str, mut view: MaintView) {
        view.set_pool(self.pool.clone());
        let phase = SlotMetrics {
            validate: self.registry.histogram(&format!("view/{name}/validate")),
            propagate: self.registry.histogram(&format!("view/{name}/propagate")),
            apply: self.registry.histogram(&format!("view/{name}/apply")),
        };
        self.slots.push(Slot { name: name.to_string(), view, stats: MaintStats::default(), phase });
        self.rebuild_index();
    }

    /// Drop the view named `name`.
    pub fn drop_view(&mut self, name: &str) -> Result<(), CatalogError> {
        let i = self
            .slots
            .iter()
            .position(|s| s.name == name)
            .ok_or_else(|| CatalogError::UnknownView(name.to_string()))?;
        self.slots.remove(i);
        self.rebuild_index();
        Ok(())
    }

    fn rebuild_index(&mut self) {
        self.doc_index.clear();
        for (i, slot) in self.slots.iter().enumerate() {
            for doc in slot.view.source_docs() {
                self.doc_index.entry(doc).or_default().push(i);
            }
        }
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Registered view names, in registration order.
    pub fn view_names(&self) -> Vec<&str> {
        self.slots.iter().map(|s| s.name.as_str()).collect()
    }

    /// Read access to the shared source store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Names of the views whose definitions read `doc`, in registration
    /// order — the relevancy index, exposed without leaking internal slot
    /// indices. Unknown documents yield an empty list.
    pub fn views_for_doc(&self, doc: &str) -> Vec<&str> {
        self.doc_index
            .get(doc)
            .map(|ids| ids.iter().map(|&i| self.slots[i].name.as_str()).collect())
            .unwrap_or_default()
    }

    /// The document names the relevancy index covers (every document some
    /// registered view reads), sorted.
    pub fn indexed_docs(&self) -> Vec<&str> {
        self.doc_index.keys().map(String::as_str).collect()
    }

    /// Serialized extent of the view named `name`.
    pub fn extent_xml(&self, name: &str) -> Result<String, CatalogError> {
        self.slot(name).map(|s| s.view.extent_xml())
    }

    /// Wire-encoded extent of the view named `name` — the remote read
    /// path. The bytes are exactly `wire::to_vec` of the in-process
    /// [`ViewExtent`](xat::ViewExtent), so a client that decodes them
    /// holds a byte-identical copy of the materialized view.
    pub fn extent_bytes(&self, name: &str) -> Result<Vec<u8>, CatalogError> {
        self.slot(name).map(|s| wire::to_vec(s.view.extent()))
    }

    /// The store-less view core registered under `name`.
    pub fn view(&self, name: &str) -> Result<&MaintView, CatalogError> {
        self.slot(name).map(|s| &s.view)
    }

    /// Accumulated per-view maintenance statistics: propagate/apply wall
    /// times, engine stats, relevancy counts, and fast modifies. The
    /// `validate` field stays zero — validation is shared across views and
    /// reported service-level in [`ServiceStats`].
    pub fn view_stats(&self, name: &str) -> Result<MaintStats, CatalogError> {
        self.slot(name).map(|s| s.stats)
    }

    fn slot(&self, name: &str) -> Result<&Slot, CatalogError> {
        self.slots
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| CatalogError::UnknownView(name.to_string()))
    }

    /// Cumulative service statistics.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Maintain every registered view for one typed update batch: resolve
    /// the ops once against the shared store (counted into the shared
    /// Validate phase), route them through the relevancy index, and run the
    /// parallel propagate/apply rounds. Returns the structured
    /// [`BatchReceipt`]. Scripts are parsed at the edge:
    /// [`UpdateBatch::from_script`] first.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<BatchReceipt, CatalogError> {
        let t0 = Instant::now();
        let resolved = update::resolve_batch(&self.store, batch)?;
        // Resolution has a histogram of its own (`svc/validate` times the
        // routing only), so the `svc/*` phases of a round sum to the round.
        self.m.resolve.record_duration(t0.elapsed());
        let n_resolved = resolved.len();
        let (mut stats, touched) = self.apply_traced(resolved)?;
        // Op resolution is part of the shared Validate phase. Saturating:
        // the phases are disjoint sub-intervals of `t0..now`, but a coarse
        // clock must never be able to panic the accounting.
        let resolve_overhead = t0.elapsed().saturating_sub(stats.total());
        stats.validate += resolve_overhead;
        self.stats.validate += resolve_overhead;
        Ok(BatchReceipt {
            ops: batch.len(),
            resolved: n_resolved,
            coalesced_from: 1,
            views_touched: touched.iter().map(|&i| self.slots[i].name.clone()).collect(),
            stats,
        })
    }

    /// The routed maintenance pipeline, additionally reporting which slots
    /// the batch touched (for receipts).
    fn apply_traced(
        &mut self,
        updates: Vec<ResolvedUpdate>,
    ) -> Result<(ServiceStats, BTreeSet<usize>), CatalogError> {
        let mut batch =
            ServiceStats { batches: 1, updates_seen: updates.len(), ..Default::default() };
        let n_views = self.slots.len();

        // ── Validate (shared): route each update through the relevancy
        // index; apply updates relevant to no view straight to the store.
        let tv = Instant::now();
        let mut routed: Vec<(ResolvedUpdate, Vec<(usize, Relevancy)>)> = Vec::new();
        for u in updates {
            let mut relevant: Vec<(usize, Relevancy)> = Vec::new();
            let candidates = self.doc_index.get(u.doc()).cloned().unwrap_or_default();
            for i in candidates {
                let tc = Instant::now();
                let class = self.slots[i].view.sapt().classify(&self.store, &u);
                self.slots[i].phase.validate.record_duration(tc.elapsed());
                match class {
                    Relevancy::Irrelevant => self.slots[i].stats.irrelevant += 1,
                    r => {
                        self.slots[i].stats.relevant += 1;
                        relevant.push((i, r));
                    }
                }
            }
            batch.views_skipped += n_views - relevant.len();
            batch.views_routed += relevant.len();
            if relevant.is_empty() {
                update::apply_to_store(&mut self.store, &u)?;
            } else {
                routed.push((u, relevant));
            }
        }
        batch.validate += tv.elapsed();
        let mut touched: BTreeSet<usize> =
            routed.iter().flat_map(|(_, rel)| rel.iter().map(|(i, _)| *i)).collect();

        // ── Per document: deletes → modifies → inserts, the paper's
        // batching discipline (§5.3).
        let docs: BTreeSet<String> = routed.iter().map(|(u, _)| u.doc().to_string()).collect();
        for doc in docs {
            let mut deletes: Vec<(FlexKey, Vec<usize>)> = Vec::new();
            let mut modifies: Vec<(ResolvedUpdate, Vec<(usize, Relevancy)>)> = Vec::new();
            let mut inserts: Vec<(ResolvedUpdate, Vec<usize>)> = Vec::new();
            for (u, rel) in routed.iter().filter(|(u, _)| u.doc() == doc) {
                match u.kind() {
                    OpKind::Delete => {
                        let ResolvedUpdate::Delete { target, .. } = u else { unreachable!() };
                        deletes.push((target.clone(), rel.iter().map(|(i, _)| *i).collect()));
                    }
                    OpKind::Modify => modifies.push((u.clone(), rel.clone())),
                    OpKind::Insert => {
                        inserts.push((u.clone(), rel.iter().map(|(i, _)| *i).collect()));
                    }
                }
            }
            self.round_deletes(&doc, deletes, &mut batch)?;
            self.round_modifies(&doc, modifies, &mut batch, &mut touched)?;
            self.round_inserts(&doc, inserts, &mut batch)?;
        }
        self.stats.merge(&batch);
        self.m.record_batch(&batch);
        Ok((batch, touched))
    }

    /// Delete round: propagate every view's relevant roots against the
    /// pre-update store (parallel), apply to the store once, then merge
    /// each delta (parallel).
    fn round_deletes(
        &mut self,
        doc: &str,
        deletes: Vec<(FlexKey, Vec<usize>)>,
        batch: &mut ServiceStats,
    ) -> Result<(), CatalogError> {
        if deletes.is_empty() {
            return Ok(());
        }
        let mut roots_per_view: BTreeMap<usize, Vec<FlexKey>> = BTreeMap::new();
        for (target, views) in &deletes {
            for &i in views {
                roots_per_view.entry(i).or_default().push(target.clone());
            }
        }
        let fan_out = self.fans_out(&roots_per_view);
        let tp = Instant::now();
        let deltas = self.par_propagate(doc, &roots_per_view, -1, fan_out)?;
        batch.propagate += tp.elapsed();
        let ta = Instant::now();
        for (target, _) in &deletes {
            self.store.delete_subtree(target);
        }
        self.par_apply(deltas, fan_out);
        batch.apply += ta.elapsed();
        Ok(())
    }

    /// Insert round: apply to the store once (post-state), then propagate
    /// per relevant view (parallel) and merge (parallel).
    fn round_inserts(
        &mut self,
        doc: &str,
        inserts: Vec<(ResolvedUpdate, Vec<usize>)>,
        batch: &mut ServiceStats,
    ) -> Result<(), CatalogError> {
        if inserts.is_empty() {
            return Ok(());
        }
        let ta0 = Instant::now();
        let mut roots_per_view: BTreeMap<usize, Vec<FlexKey>> = BTreeMap::new();
        for (u, views) in &inserts {
            let root = update::apply_to_store(&mut self.store, u)?;
            for &i in views {
                roots_per_view.entry(i).or_default().push(root.clone());
            }
        }
        batch.apply += ta0.elapsed();
        let fan_out = self.fans_out(&roots_per_view);
        let tp = Instant::now();
        let deltas = self.par_propagate(doc, &roots_per_view, 1, fan_out)?;
        batch.propagate += tp.elapsed();
        let ta = Instant::now();
        self.par_apply(deltas, fan_out);
        batch.apply += ta.elapsed();
        Ok(())
    }

    /// Modify round, one update at a time (widening changes keys, so later
    /// classifications must see the refreshed store).
    fn round_modifies(
        &mut self,
        doc: &str,
        modifies: Vec<(ResolvedUpdate, Vec<(usize, Relevancy)>)>,
        batch: &mut ServiceStats,
        touched: &mut BTreeSet<usize>,
    ) -> Result<(), CatalogError> {
        for (u, rel) in modifies {
            let ResolvedUpdate::ReplaceText { target, new_value, .. } = &u else { unreachable!() };
            if rel.iter().all(|(_, r)| *r == Relevancy::RelevantContentOnly) {
                // Every relevant view sees exposed content only: patch the
                // text in place, store-side once and extent-side per view.
                let ta = Instant::now();
                let text_key = text_node_key(&self.store, target);
                update::apply_to_store(&mut self.store, &u)?;
                if let Some(tk) = text_key {
                    for (i, _) in &rel {
                        let tpatch = Instant::now();
                        let slot = &mut self.slots[*i];
                        slot.stats.extent_nodes_copied +=
                            slot.view.patch_text_by_key(&tk, new_value);
                        slot.stats.fast_modifies += 1;
                        slot.phase.apply.record_duration(tpatch.elapsed());
                    }
                }
                batch.apply += ta.elapsed();
                batch.fast_modifies += 1;
                continue;
            }
            // Widen to delete+insert of a shared anchor fragment: the
            // shallowest binding anchor over the relevant views, so every
            // view's processing unit is contained in the re-routed delta.
            let mut anchor: Option<FlexKey> = None;
            let mut missing = false;
            for (i, _) in &rel {
                match self.slots[*i].view.sapt().binding_anchor(&self.store, doc, target) {
                    Some(a) => {
                        anchor = Some(match anchor {
                            Some(b) if b.depth() <= a.depth() => b,
                            _ => a,
                        });
                    }
                    None => missing = true,
                }
            }
            let Some(anchor) = anchor.filter(|_| !missing) else {
                // Some relevant view has no bound ancestor: apply the text
                // change (key-stable) and recompute the affected views.
                update::apply_to_store(&mut self.store, &u)?;
                let tr = Instant::now();
                for (i, _) in &rel {
                    let extent = self.slots[*i].view.compute_extent(&self.store)?;
                    self.slots[*i].view.set_extent(extent);
                    batch.recomputes += 1;
                }
                batch.apply += tr.elapsed();
                continue;
            };
            batch.widened_modifies += 1;
            // Widening moves the whole anchor fragment to fresh keys, so it
            // can affect views the text change alone did not: re-route the
            // anchor-level delete against every view reading this document.
            let tv = Instant::now();
            // Classification reads the anchor's path from the store (the
            // anchor is still present); the fragment only supplies a root
            // name fallback, so a childless stand-in avoids deep-copying
            // the subtree (widen_modify extracts it once, below).
            let anchor_data = self
                .store
                .node(&anchor)
                .ok_or_else(|| vpa_core::update::UpdateError(format!("anchor {anchor} vanished")))?
                .data
                .clone();
            let synthetic = ResolvedUpdate::Delete {
                doc: doc.to_string(),
                target: anchor.clone(),
                frag: Frag { data: anchor_data, count: 1, children: Vec::new() },
            };
            let mut affected: Vec<usize> = Vec::new();
            if let Some(candidates) = self.doc_index.get(doc) {
                for &i in candidates {
                    if self.slots[i].view.sapt().classify(&self.store, &synthetic)
                        != Relevancy::Irrelevant
                    {
                        affected.push(i);
                    }
                }
            }
            for (i, _) in &rel {
                if !affected.contains(i) {
                    affected.push(*i);
                }
            }
            affected.sort_unstable();
            touched.extend(affected.iter().copied());
            // Views reached only through the widened fragment are extra
            // routings the initial Validate loop could not see.
            for &i in &affected {
                if !rel.iter().any(|(j, _)| *j == i) {
                    batch.views_routed += 1;
                    batch.views_skipped = batch.views_skipped.saturating_sub(1);
                    self.slots[i].stats.relevant += 1;
                    self.slots[i].stats.irrelevant =
                        self.slots[i].stats.irrelevant.saturating_sub(1);
                }
            }
            batch.validate += tv.elapsed();
            let widened = widen_modify(&self.store, anchor, target, new_value)?;
            let roots: BTreeMap<usize, Vec<FlexKey>> =
                affected.iter().map(|&i| (i, vec![widened.anchor.clone()])).collect();
            // Delete round at the anchor (pre-state)…
            let fan_out = self.fans_out(&roots);
            let tp = Instant::now();
            let deltas = self.par_propagate(doc, &roots, -1, fan_out)?;
            batch.propagate += tp.elapsed();
            let ta = Instant::now();
            self.store.delete_subtree(&widened.anchor);
            self.par_apply(deltas, fan_out);
            batch.apply += ta.elapsed();
            // …then the insert round with the patched fragment (post-state).
            let ta = Instant::now();
            let new_root = self
                .store
                .insert_fragment(&widened.parent, widened.pos.clone(), &widened.new_frag)
                .ok_or_else(|| {
                    vpa_core::update::UpdateError("re-insert position vanished".into())
                })?;
            batch.apply += ta.elapsed();
            let roots: BTreeMap<usize, Vec<FlexKey>> =
                affected.iter().map(|&i| (i, vec![new_root.clone()])).collect();
            let tp = Instant::now();
            let deltas = self.par_propagate(doc, &roots, 1, fan_out)?;
            batch.propagate += tp.elapsed();
            let ta = Instant::now();
            self.par_apply(deltas, fan_out);
            batch.apply += ta.elapsed();
        }
        Ok(())
    }

    /// Whether a propagate/apply round over these roots runs on the pool.
    /// A round that carries one update root per view stays on the calling
    /// thread (and [`vpa_core::propagate::propagate_batch`] keeps such a
    /// view's IMP terms there too): with the path-value index a view's
    /// share of a single update is 0.1–10 ms, fanning that out bought
    /// 28 → 17 ms on two cores but tied every commit's latency to how fast
    /// a second core happened to be (run-to-run spread of the median 10 %
    /// pooled, 3 % inline). Multi-update rounds fan out as before. Decided
    /// by the batch alone, never by timing, so a round runs the same way
    /// every time.
    fn fans_out(&self, roots_per_view: &BTreeMap<usize, Vec<FlexKey>>) -> bool {
        self.pool.threads() > 1
            && roots_per_view.len() > 1
            && roots_per_view.values().any(|roots| roots.len() > 1)
    }

    /// Run each view's IMP propagation for its batch of update roots —
    /// read-only on the shared store, one pool job per view when the round
    /// [fans out](Self::fans_out) (each view's telescoped IMP terms fan
    /// out further on the same pool). Results come back in view order, so
    /// per-slot statistics merge deterministically regardless of
    /// completion order.
    fn par_propagate(
        &mut self,
        doc: &str,
        roots_per_view: &BTreeMap<usize, Vec<FlexKey>>,
        sign: i64,
        fan_out: bool,
    ) -> Result<Vec<(usize, Delta)>, CatalogError> {
        let store = &self.store;
        let slots = &self.slots;
        let jobs: Vec<(usize, &Vec<FlexKey>)> =
            roots_per_view.iter().map(|(&i, r)| (i, r)).collect();
        type PropResult = Result<(Delta, ExecStats), MaintError>;
        let timed = |(i, roots): (usize, &Vec<FlexKey>)| -> (usize, PropResult, Duration) {
            let t0 = Instant::now();
            let r = slots[i].view.propagate(store, doc, roots, sign);
            (i, r, t0.elapsed())
        };
        let results: Vec<(usize, PropResult, Duration)> = if fan_out {
            self.pool.map(jobs, timed)
        } else {
            jobs.into_iter().map(timed).collect()
        };
        let mut out = Vec::with_capacity(results.len());
        for (i, r, dur) in results {
            let (delta, exec) = r?;
            let slot = &mut self.slots[i];
            slot.stats.propagate += dur;
            slot.stats.exec.merge(&exec);
            slot.phase.propagate.record_duration(dur);
            out.push((i, delta));
        }
        Ok(out)
    }

    /// Merge each view's delta into its extent — independent extents, one
    /// pool job per view when the round fans out.
    fn par_apply(&mut self, deltas: Vec<(usize, Delta)>, fan_out: bool) {
        let mut by_idx: BTreeMap<usize, Delta> = deltas.into_iter().collect();
        let work: Vec<(&mut Slot, Delta)> = self
            .slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| by_idx.remove(&i).map(|d| (slot, d)))
            .collect();
        let apply_one = |(slot, delta): (&mut Slot, Delta)| {
            let t0 = Instant::now();
            slot.stats.extent_nodes_copied += slot.view.apply_delta(delta);
            let dur = t0.elapsed();
            slot.stats.apply += dur;
            slot.phase.apply.record_duration(dur);
        };
        if fan_out {
            self.pool.map(work, apply_one);
        } else {
            work.into_iter().for_each(apply_one);
        }
    }

    /// The service-level consistency oracle (§1.2 lifted to the catalog):
    /// every registered extent must equal its from-scratch recomputation
    /// over the current shared store.
    pub fn verify_all(&self) -> Result<(), CatalogError> {
        let mut diverged = Vec::new();
        for slot in &self.slots {
            let oracle = slot.view.recompute_xml(&self.store)?;
            if slot.view.extent_xml() != oracle {
                diverged.push(slot.name.clone());
            }
        }
        if diverged.is_empty() {
            Ok(())
        } else {
            Err(CatalogError::Inconsistent(diverged))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIB: &str = r#"<bib>
        <book year="1994"><title>TCP/IP Illustrated</title></book>
        <book year="2000"><title>Data on the Web</title></book>
    </bib>"#;

    const PRICES: &str = r#"<prices>
        <entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry>
        <entry><price>39.95</price><b-title>Data on the Web</b-title></entry>
    </prices>"#;

    const FLAT: &str = r#"<result>{
        for $b in doc("bib.xml")/bib/book
        where $b/@year = "1994"
        return <hit>{$b/title}</hit>
    }</result>"#;

    const JOIN: &str = r#"<result>{
        for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
        where $b/title = $e/b-title
        return <pair>{$b/title}{$e/price}</pair>
    }</result>"#;

    const PRICES_ONLY: &str = r#"<result>{
        for $e in doc("prices.xml")/prices/entry
        return <p>{$e/price}</p>
    }</result>"#;

    fn catalog() -> ViewCatalog {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        s.load_doc("prices.xml", PRICES).unwrap();
        let mut cat = ViewCatalog::new(s);
        cat.register("flat", FLAT).unwrap();
        cat.register("join", JOIN).unwrap();
        cat.register("prices_only", PRICES_ONLY).unwrap();
        cat
    }

    fn apply(cat: &mut ViewCatalog, script: &str) -> ServiceStats {
        cat.apply_batch(&UpdateBatch::from_script(script).unwrap()).unwrap().stats
    }

    #[test]
    fn register_materializes_and_indexes() {
        let cat = catalog();
        assert_eq!(cat.len(), 3);
        assert!(cat.extent_xml("flat").unwrap().contains("TCP/IP"));
        assert_eq!(cat.views_for_doc("bib.xml"), vec!["flat", "join"]);
        assert_eq!(cat.views_for_doc("prices.xml"), vec!["join", "prices_only"]);
        assert_eq!(cat.indexed_docs(), vec!["bib.xml", "prices.xml"]);
        assert!(cat.views_for_doc("nope.xml").is_empty());
        cat.verify_all().unwrap();
    }

    /// The remote read path must be byte-identical to the in-process
    /// extent: `extent_bytes` is exactly `wire::to_vec(extent)`, decodes
    /// back to an equal extent, and serializes to the same XML.
    #[test]
    fn extent_bytes_roundtrips_byte_identically() {
        let cat = catalog();
        for name in ["flat", "join", "prices_only"] {
            let bytes = cat.extent_bytes(name).unwrap();
            let local = cat.view(name).unwrap().extent();
            assert_eq!(bytes, wire::to_vec(local), "{name}: bytes differ from in-process encode");
            let decoded: xat::ViewExtent = wire::from_slice(&bytes).unwrap();
            assert_eq!(decoded.to_xml(), local.to_xml(), "{name}: decoded extent diverged");
            assert_eq!(wire::to_vec(&decoded), bytes, "{name}: re-encode not byte-identical");
        }
        assert!(matches!(cat.extent_bytes("nope"), Err(CatalogError::UnknownView(_))));
    }

    #[test]
    fn duplicate_and_unknown_names_error() {
        let mut cat = catalog();
        assert!(matches!(cat.register("flat", FLAT), Err(CatalogError::DuplicateView(_))));
        assert!(matches!(cat.drop_view("nope"), Err(CatalogError::UnknownView(_))));
        cat.drop_view("join").unwrap();
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.views_for_doc("prices.xml"), vec!["prices_only"]);
        cat.verify_all().unwrap();
    }

    /// Regression (surfaced by recovery, which re-registers views one by
    /// one from snapshots): any failed `register` — duplicate name or
    /// invalid definition — and any `drop_view` must leave the doc→views
    /// relevancy index exactly consistent with the slot list.
    #[test]
    fn failed_register_and_last_view_drop_keep_index_consistent() {
        let mut cat = catalog();
        let docs_before = cat.indexed_docs().join(",");

        // Duplicate name: no slot, no index change.
        assert!(cat.register("flat", JOIN).is_err());
        assert_eq!(cat.len(), 3);
        assert_eq!(cat.indexed_docs().join(","), docs_before);
        assert_eq!(cat.views_for_doc("bib.xml"), vec!["flat", "join"]);

        // Invalid definition (parse failure): same guarantee.
        assert!(cat.register("broken", "<r>{ for $b in }</r>").is_err());
        assert_eq!(cat.len(), 3);
        assert_eq!(cat.indexed_docs().join(","), docs_before);

        // Failed materialization (unknown document): the definition is
        // valid but computing the extent errors — still no slot, and the
        // index must not have picked up "ghost.xml".
        assert!(cat
            .register("ghost", r#"<r>{ for $g in doc("ghost.xml")/g return $g }</r>"#)
            .is_err());
        assert_eq!(cat.len(), 3);
        assert_eq!(cat.indexed_docs().join(","), docs_before);
        assert!(cat.views_for_doc("ghost.xml").is_empty());

        // Dropping the last view reading a document removes the document
        // from the relevancy index entirely…
        cat.drop_view("join").unwrap();
        cat.drop_view("prices_only").unwrap();
        assert_eq!(cat.indexed_docs(), vec!["bib.xml"], "prices.xml has no readers left");
        assert!(cat.views_for_doc("prices.xml").is_empty());

        // …and updates to it now route nowhere but still hit the store.
        let receipt = cat
            .apply_batch(
                &UpdateBatch::from_script(
                    r#"for $r in document("prices.xml")/prices update $r
                       insert <entry><price>1.00</price><b-title>Z</b-title></entry> into $r"#,
                )
                .unwrap(),
            )
            .unwrap();
        assert!(receipt.views_touched.is_empty());
        assert!(cat.store().serialize_doc("prices.xml").unwrap().contains("1.00"));
        cat.verify_all().unwrap();

        // Re-registering a dropped name works and re-indexes.
        cat.register("join", JOIN).unwrap();
        assert_eq!(cat.views_for_doc("prices.xml"), vec!["join"]);
        cat.verify_all().unwrap();
    }

    #[test]
    fn insert_routes_only_to_relevant_views() {
        let mut cat = catalog();
        let batch = apply(
            &mut cat,
            r#"for $r in document("prices.xml")/prices update $r
                   insert <entry><price>9.99</price><b-title>New</b-title></entry> into $r"#,
        );
        // flat (bib-only) is skipped; join + prices_only are routed.
        assert_eq!(batch.views_skipped, 1);
        assert_eq!(batch.views_routed, 2);
        cat.verify_all().unwrap();
        assert!(cat.extent_xml("prices_only").unwrap().contains("9.99"));
    }

    #[test]
    fn mixed_batch_maintains_all_views() {
        let mut cat = catalog();
        let _ = apply(
            &mut cat,
            r#"for $r in document("bib.xml")/bib update $r
               insert <book year="1994"><title>Advanced Programming</title></book> into $r ;
               for $b in document("bib.xml")/bib/book where $b/title = "Data on the Web"
               update $b delete $b ;
               for $e in document("prices.xml")/prices/entry
               where $e/b-title = "TCP/IP Illustrated"
               update $e replace $e/price/text() with "70.00""#,
        );
        cat.verify_all().unwrap();
        assert!(cat.extent_xml("flat").unwrap().contains("Advanced Programming"));
        assert!(!cat.extent_xml("join").unwrap().contains("Data on the Web"));
        assert!(cat.extent_xml("join").unwrap().contains("70.00"));
    }

    /// A one-lane pool (the sequential mode) and a wide one produce the
    /// same extents.
    #[test]
    fn sequential_mode_matches_parallel() {
        let script = r#"for $r in document("bib.xml")/bib update $r
               insert <book year="1994"><title>P</title></book> into $r ;
               for $b in document("bib.xml")/bib/book where $b/@year = "2000"
               update $b delete $b"#;
        let mut a = catalog();
        a.set_pool(exec::Executor::new(4));
        let mut b = catalog();
        b.set_pool(exec::Executor::new(1));
        let _ = apply(&mut a, script);
        let _ = apply(&mut b, script);
        for name in ["flat", "join", "prices_only"] {
            assert_eq!(a.extent_xml(name).unwrap(), b.extent_xml(name).unwrap());
        }
        a.verify_all().unwrap();
        b.verify_all().unwrap();
    }

    /// The fan-out rule reads the round's roots and nothing else: one
    /// root per view stays inline on any pool, a second root for some
    /// view fans out on a pool of 4, and a one-lane pool never does.
    #[test]
    fn single_update_rounds_stay_inline() {
        let key = |cat: &ViewCatalog| cat.store().doc_root("bib.xml").unwrap();
        let mut cat = catalog();
        cat.set_pool(exec::Executor::new(4));
        let k = key(&cat);
        let one: BTreeMap<usize, Vec<FlexKey>> =
            [(0, vec![k.clone()]), (1, vec![k.clone()])].into_iter().collect();
        let two: BTreeMap<usize, Vec<FlexKey>> =
            [(0, vec![k.clone()]), (1, vec![k.clone(), k.clone()])].into_iter().collect();
        let lone_view: BTreeMap<usize, Vec<FlexKey>> =
            [(1, vec![k.clone(), k.clone()])].into_iter().collect();
        assert!(!cat.fans_out(&one));
        assert!(cat.fans_out(&two));
        assert!(!cat.fans_out(&lone_view), "one job has nothing to fan out");
        cat.set_pool(exec::Executor::new(1));
        assert!(!cat.fans_out(&one));
        assert!(!cat.fans_out(&two));
        assert!(!cat.fans_out(&lone_view));
    }

    #[test]
    fn widened_modify_stays_consistent_across_views() {
        // A title modify is join-predicate-sensitive ($b/title = $e/b-title)
        // ⇒ widens to the book fragment, re-keying it; flat sees the same
        // title as exposed content only, so the re-routed delete+insert must
        // reach flat too or its extent keeps stale keys.
        let mut cat = catalog();
        let batch = apply(
            &mut cat,
            r#"for $b in document("bib.xml")/bib/book where $b/@year = "1994"
                   update $b replace $b/title/text() with "Data on the Web""#,
        );
        assert_eq!(batch.widened_modifies, 1);
        assert_eq!(batch.fast_modifies, 0);
        cat.verify_all().unwrap();
        // The retitled book now joins with the other price entry.
        assert!(cat.extent_xml("join").unwrap().contains("39.95"));
        // And later maintenance over the re-keyed fragment still works.
        let _ = apply(
            &mut cat,
            r#"for $b in document("bib.xml")/bib/book where $b/@year = "1994"
               update $b delete $b"#,
        );
        cat.verify_all().unwrap();
    }

    /// Pooled rounds fold receipts in whatever order chunks settle; the
    /// service aggregation must be associative and commutative so the
    /// totals cannot depend on scheduling. `merge` is field-wise `+` on
    /// integers and `Duration`s — exact arithmetic, asserted here.
    #[test]
    fn service_stats_merge_is_associative_and_commutative() {
        let sample = |seed: u64| ServiceStats {
            batches: seed as usize,
            updates_seen: seed as usize * 2,
            views_skipped: seed as usize * 3,
            views_routed: seed as usize * 5,
            fast_modifies: seed as usize * 7,
            widened_modifies: seed as usize * 11,
            recomputes: seed as usize * 13,
            validate: Duration::from_nanos(seed * 1_000 + 1),
            propagate: Duration::from_nanos(seed * 1_000 + 2),
            apply: Duration::from_nanos(seed * 1_000 + 3),
        };
        let (a, b, c) = (sample(3), sample(17), sample(1_000_003));
        let mut ab_c = a;
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "associativity");
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "commutativity");
    }

    #[test]
    fn stats_accumulate_across_batches() {
        let mut cat = catalog();
        let _ = apply(
            &mut cat,
            r#"for $r in document("prices.xml")/prices update $r
               insert <entry><price>1.00</price><b-title>X</b-title></entry> into $r"#,
        );
        let _ = apply(
            &mut cat,
            r#"for $e in document("prices.xml")/prices/entry where $e/b-title = "X"
               update $e delete $e"#,
        );
        let s = cat.stats();
        assert_eq!(s.batches, 2);
        assert_eq!(s.updates_seen, 2);
        assert!(s.views_skipped >= 2, "flat skipped in both batches");
        // Per-view stats: the routed views saw propagation work; flat does
        // not read prices.xml, so the doc index skips it before it is even
        // classified — all its counters stay zero.
        let join = cat.view_stats("join").unwrap();
        assert_eq!(join.relevant, 2);
        assert!(join.propagate > Duration::ZERO);
        let flat = cat.view_stats("flat").unwrap();
        assert_eq!((flat.relevant, flat.irrelevant), (0, 0));
        assert_eq!(flat.propagate, Duration::ZERO);
        cat.verify_all().unwrap();
    }
}

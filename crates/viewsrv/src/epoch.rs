//! Lock-free epoch reads: frozen catalog snapshots behind an atomic swap.
//!
//! The hub serializes **writes** — that is its contract. But routing
//! *reads* through the same catalog check-out makes every `Query`/`Stats`
//! request contend with commits and with each other (measured on the
//! open-loop load generator before this module existed: the p50 request
//! latency collapsed from ~350 µs to ~251 ms at 16 connections). The fix reuses
//! the machinery PR 5 built for checkpoints: [`Store::frozen`] and
//! `extent_shared` capture the whole catalog as refcount bumps —
//! O(documents + views), not O(data) — so publishing a read snapshot
//! after every applied round is nearly free. Nor does the next round pay
//! for it in O(data): store pages and extent nodes are both shared
//! copy-on-write, so the first commit after a publish copies only the
//! pages and the extent nodes on its delta's path, and retiring the
//! superseded epoch frees only those.
//!
//! An [`Epoch`] is one such frozen `(Store, extents)` capture, stamped
//! with the commit **watermark** (batches applied when it was taken) and
//! a capture timestamp so staleness is observable, not just bounded. The
//! [`EpochPublisher`] holds the current epoch behind a hand-rolled
//! `ArcCell` — an `AtomicPtr` swap, dependency-free like everything
//! else here — plus a published-sequence counter readers poll with one
//! `Acquire` load. A [`ReadHandle`] caches its epoch `Arc` and reloads
//! only when the sequence moves, so the steady-state read path is:
//! one atomic load, zero locks, zero coordination with writers, at any
//! fan-out the server's connection threads allow.
//!
//! Consistency: epochs are published only at **batch boundaries** (after
//! a drain round's apply loop completes, never mid-apply), so a reader
//! can never observe a torn batch; the watermark is monotone because the
//! publisher is the only writer and captures under catalog ownership.
//! Freshness: an epoch reflects every batch *applied* when it was
//! captured — on a durable catalog that includes chunks whose group
//! fsync is still in flight, i.e. reads are read-uncommitted with
//! respect to durability (exactly what the live catalog itself would
//! show). A reader needing multi-query snapshot consistency pins one
//! epoch ([`ReadHandle::pin`]) and runs every query against it.

use crate::{CatalogError, ServiceStats, ViewCatalog};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use vpa_core::view::MaintView;
use xat::ViewExtent;
use xmlstore::Store;

/// A lock-free cell holding an `Arc<T>`, swappable and loadable from any
/// thread (the crossbeam-0.x `ArcCell` design, hand-rolled to stay
/// dependency-free). `load` briefly parks the pointer at null while the
/// refcount bump happens, so concurrent loaders spin for a few cycles at
/// worst — there is no lock to sleep on and no writer can block a reader
/// (the publisher's `swap` uses the same protocol).
struct ArcCell<T> {
    ptr: AtomicPtr<T>,
}

impl<T> ArcCell<T> {
    fn new(value: Arc<T>) -> ArcCell<T> {
        ArcCell { ptr: AtomicPtr::new(Arc::into_raw(value).cast_mut()) }
    }

    /// Take exclusive ownership of the stored Arc, leaving null behind.
    /// Pairs with [`ArcCell::put`]; the window between them is the only
    /// moment other threads spin.
    fn take(&self) -> Arc<T> {
        loop {
            let p = self.ptr.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: `p` came from `Arc::into_raw` in `new`/`put`
                // and the null swap made this thread its unique taker.
                return unsafe { Arc::from_raw(p) };
            }
            std::hint::spin_loop();
        }
    }

    fn put(&self, value: Arc<T>) {
        self.ptr.store(Arc::into_raw(value).cast_mut(), Ordering::Release);
    }

    /// Clone the current Arc.
    fn load(&self) -> Arc<T> {
        let cur = self.take();
        let out = Arc::clone(&cur);
        self.put(cur);
        out
    }

    /// Replace the stored Arc, returning the previous one.
    fn swap(&self, value: Arc<T>) -> Arc<T> {
        let old = self.take();
        self.put(value);
        old
    }
}

impl<T> Drop for ArcCell<T> {
    fn drop(&mut self) {
        let p = *self.ptr.get_mut();
        if !p.is_null() {
            // SAFETY: exclusive access in drop; the pointer is the one
            // ownership `new`/`put` leaked.
            unsafe { drop(Arc::from_raw(p)) };
        }
    }
}

// SAFETY: the cell hands out only `Arc<T>` clones; the raw pointer is
// never dereferenced except to reconstruct the Arc it came from.
unsafe impl<T: Send + Sync> Send for ArcCell<T> {}
unsafe impl<T: Send + Sync> Sync for ArcCell<T> {}

/// Durability position captured into an epoch (all zero on a volatile
/// catalog): which WAL generation was active and how far its tail had
/// grown when the epoch was taken.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurableMarks {
    /// Active WAL generation (0 = volatile).
    pub generation: u64,
    /// Records in the active WAL tail.
    pub wal_records: u64,
    /// Bytes in the active WAL tail.
    pub wal_bytes: u64,
}

/// One view's frozen state inside an epoch.
struct EpochView {
    name: String,
    /// The definition, kept so verification can recompute the extent
    /// from the frozen store without touching the live catalog.
    query: String,
    extent: Arc<ViewExtent>,
}

/// A frozen, immutable capture of the whole catalog: the shared store
/// (refcount-bump clone) and every view's extent (`Arc` handle), stamped
/// with its publish sequence, commit watermark, and capture time.
/// Whoever holds the epoch keeps observing exactly this state while the
/// live catalog moves on — readers never block writers and vice versa.
pub struct Epoch {
    seq: u64,
    watermark: u64,
    captured: Instant,
    unix_ns: u64,
    store: Store,
    views: Vec<EpochView>,
    stats: ServiceStats,
    indexed_docs: Vec<String>,
    durable: DurableMarks,
}

impl Epoch {
    fn capture(
        seq: u64,
        catalog: &ViewCatalog,
        durable: DurableMarks,
        stats: ServiceStats,
    ) -> Epoch {
        Epoch {
            seq,
            watermark: stats.batches as u64,
            captured: Instant::now(),
            unix_ns: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64),
            store: catalog.store.frozen(),
            views: catalog
                .slots
                .iter()
                .map(|s| EpochView {
                    name: s.name.clone(),
                    query: s.view.query().to_string(),
                    extent: s.view.extent_shared(),
                })
                .collect(),
            stats,
            indexed_docs: catalog.indexed_docs().iter().map(|s| s.to_string()).collect(),
            durable,
        }
    }

    /// Publish sequence number (1 is the initial epoch; strictly
    /// increasing with every publish).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Commit watermark: update batches applied to the catalog when this
    /// epoch was captured. Monotone across epochs.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// How long ago this epoch was captured — the staleness a read
    /// against it observes.
    pub fn age(&self) -> Duration {
        self.captured.elapsed()
    }

    /// Capture wall-clock time, nanoseconds since the Unix epoch.
    pub fn unix_ns(&self) -> u64 {
        self.unix_ns
    }

    /// The frozen shared store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Catalog service statistics as of the capture.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Documents some registered view read, sorted (the relevancy-index
    /// keys as of the capture).
    pub fn indexed_docs(&self) -> &[String] {
        &self.indexed_docs
    }

    /// Durability position as of the capture (zeros when volatile).
    pub fn durable_marks(&self) -> DurableMarks {
        self.durable
    }

    /// Registered view names, registration order.
    pub fn view_names(&self) -> Vec<&str> {
        self.views.iter().map(|v| v.name.as_str()).collect()
    }

    fn view(&self, name: &str) -> Result<&EpochView, CatalogError> {
        self.views
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| CatalogError::UnknownView(name.to_string()))
    }

    /// The frozen extent of the view named `name`.
    pub fn extent(&self, name: &str) -> Result<&Arc<ViewExtent>, CatalogError> {
        self.view(name).map(|v| &v.extent)
    }

    /// The view's definition as registered.
    pub fn query(&self, name: &str) -> Result<&str, CatalogError> {
        self.view(name).map(|v| v.query.as_str())
    }

    /// Wire-encoded extent — byte-identical to what
    /// [`ViewCatalog::extent_bytes`] returned at the capture point.
    pub fn extent_bytes(&self, name: &str) -> Result<Vec<u8>, CatalogError> {
        self.view(name).map(|v| wire::to_vec(v.extent.as_ref()))
    }

    /// Serialized extent of the view named `name`.
    pub fn extent_xml(&self, name: &str) -> Result<String, CatalogError> {
        self.view(name).map(|v| v.extent.to_xml())
    }

    /// The §1.2 oracle against the *frozen* state: every captured extent
    /// must equal its recomputation over the frozen store. Because both
    /// sides are immutable this can run while the live catalog commits —
    /// the torn-batch detector for tests (an epoch captured mid-apply
    /// would fail it).
    pub fn verify(&self) -> Result<(), CatalogError> {
        let mut diverged = Vec::new();
        for v in &self.views {
            let view = MaintView::define(&v.query)?;
            let oracle = view.recompute_xml(&self.store)?;
            if v.extent.to_xml() != oracle {
                diverged.push(v.name.clone());
            }
        }
        if diverged.is_empty() {
            Ok(())
        } else {
            Err(CatalogError::Inconsistent(diverged))
        }
    }
}

/// Pre-resolved `epoch/*` instruments (same pattern as every other
/// layer: atomic handles cached once, hot paths never touch the
/// registry lock).
struct EpochMetrics {
    /// Epochs published (swap count).
    publishes: Arc<obs::Counter>,
    /// Capture + swap latency per publish.
    publish: Arc<obs::Histogram>,
    /// Dropping the superseded epoch after the swap: frees whatever pages
    /// and extents it alone still owned (nothing while a reader pins it).
    retire: Arc<obs::Histogram>,
    /// Epoch-pinned reads served.
    reads: Arc<obs::Counter>,
    /// Epoch age observed at each read — the staleness distribution.
    staleness: Arc<obs::Histogram>,
    /// Live [`ReadHandle`]s — the reader fan-out gauge.
    readers: Arc<obs::Gauge>,
}

impl EpochMetrics {
    fn new(reg: &obs::MetricsRegistry) -> EpochMetrics {
        EpochMetrics {
            publishes: reg.counter("epoch/publishes"),
            publish: reg.histogram("epoch/publish"),
            retire: reg.histogram("epoch/retire"),
            reads: reg.counter("epoch/reads"),
            staleness: reg.histogram("epoch/staleness"),
            readers: reg.gauge("epoch/readers"),
        }
    }
}

/// The single-writer side of the epoch path: owns the current [`Epoch`]
/// behind an `ArcCell` and a published-sequence counter. The hub
/// publishes after every applied drain round and every
/// [`crate::IngestHub::with_inner`] call, so epochs move only with
/// changes; any number of [`ReadHandle`]s subscribe.
///
/// Publishing is not synchronized internally — the hub's catalog
/// ownership is the serialization (whoever can publish a consistent
/// epoch necessarily holds the catalog, and only one thread can).
pub struct EpochPublisher {
    cell: ArcCell<Epoch>,
    /// Sequence of the epoch currently in `cell`; readers poll this with
    /// one `Acquire` load and reload the Arc only when it moved.
    published: AtomicU64,
    m: EpochMetrics,
}

impl EpochPublisher {
    /// Capture the initial epoch (sequence 1) from `catalog` and set up
    /// shop in `registry`.
    pub fn start(
        registry: &obs::MetricsRegistry,
        catalog: &ViewCatalog,
        durable: DurableMarks,
    ) -> Arc<EpochPublisher> {
        let m = EpochMetrics::new(registry);
        let epoch = Arc::new(Epoch::capture(1, catalog, durable, catalog.stats()));
        m.publishes.inc();
        Arc::new(EpochPublisher { cell: ArcCell::new(epoch), published: AtomicU64::new(1), m })
    }

    /// Capture and publish a fresh epoch. The caller must hold the
    /// catalog (hub check-out) so the capture sees a batch boundary.
    pub fn publish(&self, catalog: &ViewCatalog, durable: DurableMarks) {
        let t0 = Instant::now();
        let seq = self.published.load(Ordering::Relaxed) + 1;
        let epoch = Arc::new(Epoch::capture(seq, catalog, durable, catalog.stats()));
        let superseded = self.cell.swap(epoch);
        // Release-publish the sequence *after* the cell holds the new
        // epoch: a reader that observes the bumped sequence is
        // guaranteed to load an epoch at least that fresh.
        self.published.store(seq, Ordering::Release);
        self.m.publishes.inc();
        let swapped = t0.elapsed();
        self.m.publish.record_duration(swapped);
        drop(superseded);
        self.m.retire.record_duration(t0.elapsed() - swapped);
    }

    /// Sequence of the most recently published epoch.
    pub fn published_seq(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Open a reader onto this publisher.
    pub fn subscribe(self: &Arc<EpochPublisher>) -> ReadHandle {
        self.m.readers.inc();
        let epoch = self.cell.load();
        ReadHandle { shared: Arc::clone(self), seq: epoch.seq(), epoch }
    }
}

/// One reader's lock-free window onto the catalog. The handle caches the
/// current epoch `Arc`; [`ReadHandle::current`] revalidates with a
/// single atomic load and re-clones from the publisher only when a newer
/// epoch was published — so N readers hammering the same epoch share
/// nothing but immutable data.
///
/// Reads through a handle never observe time going backwards: the
/// sequence (and with it the commit watermark) only moves forward.
pub struct ReadHandle {
    shared: Arc<EpochPublisher>,
    seq: u64,
    epoch: Arc<Epoch>,
}

impl ReadHandle {
    /// The freshest published epoch (revalidate-then-serve). Records the
    /// read and its observed staleness in `epoch/*`.
    pub fn current(&mut self) -> &Arc<Epoch> {
        let latest = self.shared.published.load(Ordering::Acquire);
        if latest != self.seq {
            let epoch = self.shared.cell.load();
            // A publish can race the two loads; keep whichever epoch is
            // newest and never go backwards.
            if epoch.seq() >= self.seq {
                self.seq = epoch.seq();
                self.epoch = epoch;
            }
        }
        self.shared.m.reads.inc();
        self.shared.m.staleness.record_duration(self.epoch.age());
        &self.epoch
    }

    /// Pin the freshest epoch: an owned `Arc` the caller can run any
    /// number of queries against with multi-query snapshot consistency
    /// (nothing moves under it, however long it is held).
    pub fn pin(&mut self) -> Arc<Epoch> {
        Arc::clone(self.current())
    }

    /// Epoch-pinned wire-encoded extent read plus the epoch stamps
    /// `(bytes, seq, watermark)` — the server's `Query` path.
    pub fn extent_bytes(&mut self, name: &str) -> Result<(Vec<u8>, u64, u64), CatalogError> {
        let epoch = self.current();
        let bytes = epoch.extent_bytes(name)?;
        Ok((bytes, epoch.seq(), epoch.watermark()))
    }

    /// Epoch-pinned serialized extent.
    pub fn extent_xml(&mut self, name: &str) -> Result<String, CatalogError> {
        self.current().extent_xml(name)
    }

    /// View names as of the freshest epoch.
    pub fn view_names(&mut self) -> Vec<String> {
        self.current().view_names().iter().map(|s| s.to_string()).collect()
    }

    /// The freshest epoch's commit watermark.
    pub fn watermark(&mut self) -> u64 {
        self.current().watermark()
    }
}

impl Clone for ReadHandle {
    fn clone(&self) -> ReadHandle {
        self.shared.m.readers.inc();
        ReadHandle {
            shared: Arc::clone(&self.shared),
            seq: self.seq,
            epoch: Arc::clone(&self.epoch),
        }
    }
}

impl Drop for ReadHandle {
    fn drop(&mut self) {
        self.shared.m.readers.dec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn catalog() -> ViewCatalog {
        let mut s = Store::new();
        s.load_doc(
            "bib.xml",
            r#"<bib><book year="1994"><title>A</title></book>
               <book year="2000"><title>B</title></book></bib>"#,
        )
        .unwrap();
        let mut cat = ViewCatalog::new(s);
        cat.register("all", r#"<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>"#)
            .unwrap();
        cat
    }

    /// The ArcCell protocol under concurrent load/swap hammering: every
    /// loaded Arc is valid (its payload intact), and the final refcounts
    /// balance (no leak, no double-free — shaken out by the loom-free
    /// best proxy we have, a many-thread stress run).
    /// Iteration budget for the stress tests: Miri interprets every
    /// memory access, so the same loop that takes microseconds natively
    /// would run for minutes — a small count still exercises every
    /// interleaving class Miri can explore.
    const STRESS_ITERS: u64 = if cfg!(miri) { 64 } else { 10_000 };

    #[test]
    fn arc_cell_swap_load_stress() {
        let cell = Arc::new(ArcCell::new(Arc::new(0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = *cell.load();
                    assert!(v >= last, "published values regressed: {v} < {last}");
                    last = v;
                }
            }));
        }
        for i in 1..=STRESS_ITERS {
            drop(cell.swap(Arc::new(i)));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*cell.load(), STRESS_ITERS);
    }

    /// Refcount balance under racing load/swap: every payload ever put
    /// into the cell is dropped exactly once — no leak, no double-free,
    /// no use-after-free. This is the test Miri's borrow tracking and
    /// leak checker are pointed at (`cargo +nightly miri test -p viewsrv
    /// --lib epoch::`).
    #[test]
    fn arc_cell_drop_balance() {
        use std::sync::atomic::AtomicI64;

        struct Tracked {
            live: Arc<AtomicI64>,
            v: u64,
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.live.fetch_sub(1, Ordering::Relaxed);
            }
        }

        let live = Arc::new(AtomicI64::new(0));
        let mk = |v: u64| {
            live.fetch_add(1, Ordering::Relaxed);
            Arc::new(Tracked { live: Arc::clone(&live), v })
        };
        let iters = if cfg!(miri) { 32 } else { 2_000 };
        let cell = Arc::new(ArcCell::new(mk(0)));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..iters {
                        let t = cell.load();
                        assert!(t.v >= last, "loaded a resurrected payload");
                        last = t.v;
                    }
                })
            })
            .collect();
        for i in 1..=iters {
            drop(cell.swap(mk(i)));
        }
        for r in readers {
            r.join().unwrap();
        }
        let cell = Arc::try_unwrap(cell).map_err(|_| "cell still shared").unwrap();
        drop(cell);
        assert_eq!(live.load(Ordering::Relaxed), 0, "payload create/drop imbalance");
    }

    /// The publisher protocol end to end on raw parts: a writer stores
    /// the snapshot into the cell and *then* publishes the sequence with
    /// `Release`; a reader that `Acquire`-loads the sequence must never
    /// load an older snapshot from the cell afterwards — i.e. the
    /// set-during-get null-parking window of [`ArcCell`] cannot serve a
    /// value staler than the sequence the reader revalidated against.
    #[test]
    fn arc_cell_published_seq_revalidation() {
        use std::sync::atomic::AtomicU64;

        let cell = Arc::new(ArcCell::new(Arc::new(0u64)));
        let published = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let published = Arc::clone(&published);
                std::thread::spawn(move || loop {
                    let seq = published.load(Ordering::Acquire);
                    let v = *cell.load();
                    assert!(v >= seq, "snapshot {v} is staler than published seq {seq}");
                    if seq == STRESS_ITERS {
                        return;
                    }
                })
            })
            .collect();
        for i in 1..=STRESS_ITERS {
            drop(cell.swap(Arc::new(i)));
            published.store(i, Ordering::Release);
        }
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn epoch_captures_batch_boundary_state() {
        let mut cat = catalog();
        let reg = Arc::clone(cat.metrics_registry());
        let pub1 = EpochPublisher::start(&reg, &cat, DurableMarks::default());
        let mut rh = pub1.subscribe();
        let before = rh.pin();
        assert_eq!(before.seq(), 1);
        assert_eq!(before.watermark(), 0);
        before.verify().unwrap();

        // Mutate the live catalog; the pinned epoch must not move.
        let script = r#"for $r in document("bib.xml")/bib update $r
               insert <book year="2001"><title>C</title></book> into $r"#;
        let _ = cat.apply_batch(&crate::UpdateBatch::from_script(script).unwrap()).unwrap();
        assert!(!before.extent_xml("all").unwrap().contains("C"), "pinned epoch moved");
        before.verify().unwrap();

        // Publish: readers see the new state, watermark advanced.
        pub1.publish(&cat, DurableMarks::default());
        let after = rh.pin();
        assert_eq!(after.seq(), 2);
        assert_eq!(after.watermark(), 1);
        assert!(after.extent_xml("all").unwrap().contains("C"));
        after.verify().unwrap();
        // Byte-identity with the live catalog at the boundary.
        assert_eq!(after.extent_bytes("all").unwrap(), cat.extent_bytes("all").unwrap());
        // And the old pin still reads its frozen state.
        assert!(!before.extent_xml("all").unwrap().contains("C"));
    }

    #[test]
    fn read_handle_caches_until_sequence_moves() {
        let cat = catalog();
        let reg = Arc::clone(cat.metrics_registry());
        let publisher = EpochPublisher::start(&reg, &cat, DurableMarks::default());
        let mut rh = publisher.subscribe();
        let a = Arc::as_ptr(rh.current());
        let b = Arc::as_ptr(rh.current());
        assert_eq!(a, b, "no republish ⇒ the cached Arc is reused");
        publisher.publish(&cat, DurableMarks::default());
        let c = Arc::as_ptr(rh.current());
        assert_ne!(a, c, "republish ⇒ the handle reloads");
        assert_eq!(rh.current().seq(), 2);
    }

    #[test]
    fn unknown_view_and_metrics_surface() {
        let cat = catalog();
        let reg = Arc::clone(cat.metrics_registry());
        let publisher = EpochPublisher::start(&reg, &cat, DurableMarks::default());
        let mut rh = publisher.subscribe();
        assert!(matches!(rh.extent_bytes("nope"), Err(CatalogError::UnknownView(_))));
        let _ = rh.extent_bytes("all").unwrap();
        drop(rh);
        let snap = reg.snapshot();
        assert!(snap.counter("epoch/publishes") >= 1);
        assert!(snap.counter("epoch/reads") >= 1);
        assert_eq!(snap.gauge("epoch/readers"), 0, "dropped handle released the gauge");
        assert!(snap.histogram("epoch/staleness").is_some());
    }
}

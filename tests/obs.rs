//! Observability acceptance tests: the metrics substrate itself (merge
//! algebra, lock-free capture under fire) and the contract the service
//! layers hold — pooled execution changes *timings*, never the logical
//! counters.
//!
//! * **Merge algebra** — snapshot merge is associative and commutative
//!   over seeded random registries, so shards and layers can fold in any
//!   order (the hub folds per-catalog + global).
//! * **Capture under concurrent writers** — eight lanes hammer one
//!   registry while snapshots stream; totals are monotone and histogram
//!   quantiles stay inside the recorded range: no torn reads, no locks.
//! * **Pool-size invariance** — a single-lane and an eight-lane catalog
//!   run the same workload; every logical series (counts, not
//!   durations) is identical.

use std::sync::Arc;
use viewsrv::{HubConfig, HubInner, UpdateBatch, ViewCatalog};
use xmlstore::Store;
use xquery_lang::{InsertPosition, UpdateOp};

/// Deterministic xorshift64* — the tests must not depend on an RNG crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// A registry filled with seeded-random counters, gauges, histograms, and
/// events, snapshotted.
fn random_snapshot(seed: u64) -> obs::MetricsSnapshot {
    let mut rng = Rng(seed | 1);
    let reg = obs::MetricsRegistry::new();
    for name in ["a/x", "a/y", "b/x"] {
        reg.counter(name).add(rng.next() % 1000);
        reg.gauge(name).set((rng.next() % 100) as i64 - 50);
        let h = reg.histogram(name);
        for _ in 0..(rng.next() % 64) {
            h.record(rng.next() % 1_000_000);
        }
    }
    for _ in 0..(rng.next() % 8) {
        reg.emit(obs::Event::new(obs::EventKind::WalRotated).generation(rng.next() % 10));
    }
    reg.snapshot()
}

/// Events carry registry-local sequence numbers; merge order of equal-seq
/// events from *different* registries is not part of the algebra. Compare
/// everything else exactly and events as a sorted multiset.
fn canon(s: &obs::MetricsSnapshot) -> (String, Vec<String>) {
    let mut evs: Vec<String> = s
        .events
        .iter()
        .map(|e| format!("{}:{:?}:{:?}:{}", e.kind.as_str(), e.generation, e.session, e.detail))
        .collect();
    evs.sort();
    let mut scalars = String::new();
    for (k, v) in &s.counters {
        scalars.push_str(&format!("c {k}={v};"));
    }
    for (k, v) in &s.gauges {
        scalars.push_str(&format!("g {k}={v};"));
    }
    for (k, h) in &s.histograms {
        scalars.push_str(&format!("h {k}=n{}s{}p{}m{};", h.count(), h.mean(), h.p99(), h.max()));
    }
    scalars.push_str(&format!("dropped={}", s.events_dropped));
    (scalars, evs)
}

#[test]
fn merge_is_associative_and_commutative() {
    for seed in 1..=25u64 {
        let a = random_snapshot(seed);
        let b = random_snapshot(seed ^ 0xdead_beef);
        let c = random_snapshot(seed.wrapping_mul(0x9e37));

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(canon(&left), canon(&right), "associativity broke at seed {seed}");

        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(canon(&ab), canon(&ba), "commutativity broke at seed {seed}");
    }
}

#[test]
fn merge_with_empty_is_identity() {
    for seed in [3u64, 17, 40] {
        let a = random_snapshot(seed);
        let mut merged = a.clone();
        merged.merge(&obs::MetricsSnapshot::default());
        assert_eq!(canon(&a), canon(&merged));
        let mut from_empty = obs::MetricsSnapshot::default();
        from_empty.merge(&a);
        assert_eq!(canon(&a), canon(&from_empty));
    }
}

/// Eight writer lanes hammer one registry while the main thread streams
/// snapshots: every successive capture must show monotone counter totals
/// and internally-consistent histograms (count == Σ buckets by
/// construction; quantiles within the recorded value range). Any torn
/// read — a count ahead of its buckets, a quantile past the max recorded
/// value — fails here.
#[test]
fn snapshot_under_concurrent_writers() {
    const LANES: usize = 8;
    const PER_LANE: u64 = 20_000;
    let reg = obs::MetricsRegistry::new_shared();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    std::thread::scope(|s| {
        let writers: Vec<_> = (0..LANES)
            .map(|lane| {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    let c = reg.counter("load/total");
                    let h = reg.histogram("load/lat");
                    let g = reg.gauge("load/depth");
                    let mut rng = Rng(0xace0_ba5e + lane as u64);
                    for i in 0..PER_LANE {
                        c.inc();
                        h.record(1 + rng.next() % (1 << 20));
                        g.set((i % 7) as i64);
                    }
                })
            })
            .collect();
        let watcher = {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut last_total = 0u64;
                let mut last_hist = 0u64;
                let mut captures = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let snap = reg.snapshot();
                    let total = snap.counter("load/total");
                    assert!(total >= last_total, "counter went backwards: {last_total} -> {total}");
                    last_total = total;
                    if let Some(h) = snap.histogram("load/lat") {
                        assert!(h.count() >= last_hist, "histogram count went backwards");
                        last_hist = h.count();
                        if h.count() > 0 {
                            assert!(h.p50() <= h.p90() && h.p90() <= h.p99());
                            // Recorded values are < 2^20; bucket mids
                            // stay within the next power of two.
                            assert!(h.max() <= 1 << 21, "quantile outside recorded range");
                        }
                    }
                    let depth = snap.gauge("load/depth");
                    assert!((0..7).contains(&depth), "gauge outside set range: {depth}");
                    captures += 1;
                }
                captures
            })
        };
        // The watcher races live writers for the whole run: only after
        // every lane has finished does it get the stop flag.
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let captures = watcher.join().unwrap();
        assert!(captures > 0, "watcher never captured");
    });

    let end = reg.snapshot();
    assert_eq!(end.counter("load/total"), LANES as u64 * PER_LANE);
    assert_eq!(end.histogram("load/lat").unwrap().count(), LANES as u64 * PER_LANE);
}

/// The acceptance shape itself: eight writer lanes flood a live ingest
/// hub over a durable catalog while a watcher streams `hub.metrics()`
/// snapshots the whole time. Logical totals must be monotone across
/// captures (no torn reads on the commit path), and the final snapshot
/// must carry every layer's series — captured with writers running, no
/// stop-the-world anywhere.
#[test]
fn hub_snapshot_under_eight_writer_lanes() {
    const LANES: u64 = 8;
    const PER_LANE: u64 = 10;
    let dir = std::env::temp_dir().join(format!("xqview-obs-hubsnap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg =
        datagen::BibConfig { books: 40, years: 6, priced_ratio: 0.8, extra_entries: 4, seed: 5 };
    let mut cat = viewsrv::DurableCatalog::open(&dir).unwrap();
    cat.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
    cat.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();
    cat.register("titles", r#"<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>"#)
        .unwrap();
    cat.set_rotate_policy(viewsrv::RotatePolicy::records(2));
    let hub = cat.into_hub(viewsrv::HubConfig::default());

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..LANES)
            .map(|lane| {
                let handle = hub.handle();
                s.spawn(move || {
                    for i in 0..PER_LANE {
                        let frag = format!(
                            r#"<book year="19{:02}"><title>Lane {lane} Volume {i}</title></book>"#,
                            i % 6,
                        );
                        let op = UpdateOp::insert("bib.xml", "/bib", InsertPosition::Into, &frag)
                            .unwrap();
                        let mut batch = Some(UpdateBatch::new().with(op));
                        while let Some(b) = batch.take() {
                            match handle.try_submit(b) {
                                Ok(()) => {}
                                Err(viewsrv::IngestError::QueueFull { batch: b, .. }) => {
                                    let _ = handle.commit().unwrap();
                                    batch = Some(b);
                                }
                                Err(e) => panic!("submit failed: {e}"),
                            }
                        }
                        if i % 3 == 2 {
                            let _ = handle.commit().unwrap();
                        }
                    }
                    let _ = handle.commit().unwrap();
                })
            })
            .collect();
        let watcher = {
            let hub = &hub;
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut last = (0u64, 0u64, 0u64);
                let mut captures = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let snap = hub.metrics();
                    let now = (
                        snap.counter("hub/chunks"),
                        snap.counter("wal/fsyncs"),
                        snap.counter("session/receipts"),
                    );
                    assert!(
                        now.0 >= last.0 && now.1 >= last.1 && now.2 >= last.2,
                        "logical totals regressed under load: {last:?} -> {now:?}"
                    );
                    last = now;
                    if let Some(h) = snap.histogram("hub/round") {
                        assert!(h.p50() <= h.p99(), "torn histogram capture");
                    }
                    captures += 1;
                }
                captures
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(watcher.join().unwrap() > 0, "watcher never captured");
    });

    let snap = hub.metrics();
    assert!(snap.counter("session/receipts") >= LANES, "every lane got receipts");
    assert!(snap.counter("hub/rounds") > 0);
    assert!(snap.histogram("view/titles/apply").is_some_and(|h| h.count() > 0));
    assert!(snap.histogram("wal/fsync").is_some_and(|h| h.count() > 0));
    assert!(snap.counter("wal/rotations") > 0, "forced rotations happened");
    drop(hub.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

fn workload_catalog(pool: exec::Executor) -> ViewCatalog {
    let cfg =
        datagen::BibConfig { books: 60, years: 6, priced_ratio: 0.8, extra_entries: 6, seed: 11 };
    let mut store = Store::new();
    store.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
    store.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();
    let mut cat = ViewCatalog::new(store);
    cat.set_pool(pool);
    cat.register("titles", r#"<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>"#)
        .unwrap();
    cat.register(
        "join",
        r#"<r>{
  for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
  where $b/title = $e/b-title
  return <pair>{$b/title}{$e/price}</pair>
}</r>"#,
    )
    .unwrap();
    cat.register(
        "prices",
        r#"<r>{ for $e in doc("prices.xml")/prices/entry return <p>{$e/price}</p> }</r>"#,
    )
    .unwrap();
    // The same mixed workload the parallel suite uses: bib inserts plus
    // prices traffic, pushed through a coalescing hub session. The time
    // window outlasts the test, so every round is a commit's own drain
    // and the hub's series are as deterministic as the catalog's.
    let hub = cat.into_hub(HubConfig {
        queue_capacity: 64,
        window_ops: 4,
        window_ms: 60_000,
        ..HubConfig::default()
    });
    let session = hub.handle();
    for i in 0..12 {
        let frag = format!(r#"<book year="19{:02}"><title>Obs Volume {i}</title></book>"#, i % 6);
        let op = UpdateOp::insert("bib.xml", "/bib", InsertPosition::Into, &frag).unwrap();
        session.try_submit(UpdateBatch::new().with(op)).unwrap();
        if i % 2 == 1 {
            let frag = format!(
                "<entry><price>{}.50</price><b-title>Obs Volume {i}</b-title></entry>",
                20 + i
            );
            let op =
                UpdateOp::insert("prices.xml", "/prices", InsertPosition::Into, &frag).unwrap();
            session.try_submit(UpdateBatch::new().with(op)).unwrap();
        }
        if i % 4 == 3 {
            let _ = session.commit().unwrap();
        }
    }
    let _ = session.commit().unwrap();
    drop(session);
    let HubInner::Volatile(cat) = hub.shutdown() else { unreachable!("volatile hub") };
    cat
}

/// `XQVIEW_POOL_THREADS=1` vs `=8`, in-process: the pool width may only
/// change durations. Every *logical* series — counter totals, gauge
/// levels, histogram sample counts — must be bit-identical between a
/// serial and a wide catalog running the same workload.
#[test]
fn logical_counters_are_pool_size_invariant() {
    let serial = workload_catalog(exec::Executor::new(1));
    let wide = workload_catalog(exec::Executor::new(8));
    let a = serial.metrics_registry().snapshot();
    let b = wide.metrics_registry().snapshot();

    assert_eq!(a.counters, b.counters, "counter totals diverged with pool width");
    assert_eq!(a.gauges, b.gauges, "gauge levels diverged with pool width");
    let a_counts: Vec<(&String, u64)> = a.histograms.iter().map(|(k, h)| (k, h.count())).collect();
    let b_counts: Vec<(&String, u64)> = b.histograms.iter().map(|(k, h)| (k, h.count())).collect();
    assert_eq!(a_counts, b_counts, "histogram sample counts diverged with pool width");
    // And the phase series genuinely ran.
    assert!(a.histogram("svc/apply").is_some_and(|h| h.count() > 0));
    assert!(a.histogram("svc/resolve").is_some_and(|h| h.count() > 0));
    for view in ["titles", "join", "prices"] {
        let name = format!("view/{view}/apply");
        assert!(a.histogram(&name).is_some_and(|h| h.count() > 0), "missing {name}");
        // The engine's row counters are logical too: the same IMP terms
        // bind the same rows and probe the index as often at any width,
        // and Apply copies the same extent nodes out of the same epochs.
        let rows = |cat: &ViewCatalog| {
            let stats = cat.view_stats(view).unwrap();
            (stats.exec.source_rows, stats.exec.index_probes, stats.extent_nodes_copied)
        };
        assert_eq!(rows(&serial), rows(&wide), "{view}: logical counters diverged with pool width");
    }
    let join = serial.view_stats("join").unwrap();
    assert!(join.exec.index_probes > 0, "the join view probes");
    assert!(join.extent_nodes_copied > 0, "published epochs made Apply copy");
}

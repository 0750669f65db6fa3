//! Live introspection surface: multi-writer hub traffic over a durable
//! catalog, with WAL rotation forced low so every layer's series fills —
//! per-view VPA phase histograms, WAL append/fsync/group-commit latency,
//! the per-stage checkpoint breakdown, hub round/queue occupancy, and the
//! structured event ring. Prints the headline series, asserts the ones
//! the introspection contract promises, and (when `XQVIEW_METRICS_DUMP`
//! is set to a path) writes the full JSON snapshot there at shutdown —
//! the same dump the hub itself performs, exercised by the CI smoke step.
//!
//! ```sh
//! XQVIEW_METRICS_DUMP=/tmp/metrics.json cargo run --release --example metrics
//! ```

use xqview::viewsrv::{DurableCatalog, HubConfig, IngestError, RotatePolicy};
use xqview::xquery_lang::InsertPosition;
use xqview::{datagen, UpdateBatch, UpdateOp};

fn main() {
    let dir = std::env::temp_dir().join(format!("xqview-metrics-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cfg =
        datagen::BibConfig { books: 120, years: 6, priced_ratio: 0.8, extra_entries: 10, seed: 11 };
    let mut cat = DurableCatalog::open(&dir).expect("open catalog dir");
    cat.load_doc("bib.xml", &datagen::bib_xml(&cfg)).expect("load bib");
    cat.load_doc("prices.xml", &datagen::prices_xml(&cfg)).expect("load prices");
    cat.register(
        "y1900",
        r#"<result>{ for $b in doc("bib.xml")/bib/book where $b/@year = "1900"
            return <hit>{$b/title}</hit> }</result>"#,
    )
    .expect("register y1900");
    cat.register(
        "prices",
        r#"<result>{ for $e in doc("prices.xml")/prices/entry return <p>{$e/price}</p> }</result>"#,
    )
    .expect("register prices");
    // Rotate every two records: the run is tiny, but the checkpoint
    // stages still have to show up in the snapshot.
    cat.set_rotate_policy(RotatePolicy::records(2));
    let hub = cat.into_hub(HubConfig::default());

    // Three writers, periodic commits → several coalesced rounds, group
    // fsyncs, and background rotations.
    std::thread::scope(|s| {
        for w in 0..3u32 {
            let handle = hub.handle();
            s.spawn(move || {
                for i in 0..8u32 {
                    // Writer 2 feeds the prices view so every registered
                    // view's phase series fills, not just the bib ones.
                    let op = if w == 2 {
                        let frag = format!(
                            "<entry><price>{}.00</price>\
                             <b-title>Metrics Volume {w}-{i}</b-title></entry>",
                            20 + i,
                        );
                        UpdateOp::insert("prices.xml", "/prices", InsertPosition::Into, &frag)
                    } else {
                        let frag = format!(
                            r#"<book year="19{:02}"><title>Metrics Volume {w}-{i}</title></book>"#,
                            i % 6,
                        );
                        UpdateOp::insert("bib.xml", "/bib", InsertPosition::Into, &frag)
                    }
                    .expect("typed op");
                    let mut batch = Some(UpdateBatch::new().with(op));
                    while let Some(b) = batch.take() {
                        match handle.try_submit(b) {
                            Ok(()) => {}
                            Err(IngestError::QueueFull { batch: b, .. }) => {
                                let _ = handle.commit().expect("commit under backpressure");
                                batch = Some(b);
                            }
                            Err(e) => panic!("submit failed: {e}"),
                        }
                    }
                    if i % 3 == 2 {
                        let _ = handle.commit().expect("periodic commit");
                    }
                }
                let _ = handle.commit().expect("final commit");
            });
        }
    });

    // The lock-free read path: pin the current frozen epoch and serve
    // queries off it — these reads never touch the hub or catalog lock,
    // and every one records into the epoch/* series.
    let mut reads = hub.read_handle();
    let epoch = reads.pin();
    println!(
        "== epoch == #{} at watermark {}, {} docs, {} views, {} us old",
        epoch.seq(),
        epoch.watermark(),
        epoch.indexed_docs().len(),
        epoch.view_names().len(),
        epoch.age().as_micros(),
    );
    for view in ["y1900", "prices"] {
        let (bytes, _, _) = reads.extent_bytes(view).expect("epoch read");
        assert!(!bytes.is_empty(), "frozen extent {view}");
    }

    // The live surface: captured while the hub (drain thread included)
    // is still running, no stop-the-world anywhere.
    let snap = hub.metrics();

    println!("== counters ==");
    for name in [
        "hub/rounds",
        "hub/chunks",
        "wal/fsyncs",
        "wal/synced_commits",
        "wal/rotations",
        "epoch/publishes",
        "epoch/reads",
    ] {
        println!("  {name:<24} {}", snap.counter(name));
    }
    println!("== latency histograms (p50/p99 ns) ==");
    for name in [
        "svc/resolve",
        "svc/validate",
        "svc/propagate",
        "svc/apply",
        "wal/append",
        "wal/fsync",
        "ckpt/encode",
    ] {
        let h = snap.histogram(name).expect(name);
        println!("  {name:<24} count {:>4}  p50 {:>9}  p99 {:>9}", h.count(), h.p50(), h.p99());
    }
    println!("== events ({} in ring, {} dropped) ==", snap.events.len(), snap.events_dropped);
    for ev in snap.events.iter().take(12) {
        println!(
            "  #{:<3} {:<20} gen={:<4} {}",
            ev.seq,
            ev.kind.as_str(),
            ev.generation.map_or("-".into(), |g| g.to_string()),
            ev.detail,
        );
    }

    // The introspection contract this example (and the CI smoke step)
    // holds the snapshot to: every layer reported in.
    assert!(snap.counter("hub/rounds") > 0, "hub rounds");
    assert!(snap.counter("hub/chunks") > 0, "applied chunks");
    assert!(snap.counter("wal/fsyncs") > 0, "group-commit fsyncs");
    assert!(snap.counter("wal/rotations") > 0, "WAL rotations");
    for name in ["svc/resolve", "svc/validate", "svc/propagate", "svc/apply"] {
        assert!(snap.histogram(name).is_some_and(|h| h.count() > 0), "phase series {name}");
    }
    for view in ["y1900", "prices"] {
        for phase in ["validate", "propagate", "apply"] {
            let name = format!("view/{view}/{phase}");
            assert!(snap.histogram(&name).is_some_and(|h| h.count() > 0), "per-view {name}");
        }
    }
    assert!(snap.histogram("wal/fsync").is_some_and(|h| h.count() > 0), "wal fsync latency");
    for stage in ["capture", "encode", "write", "rename"] {
        let name = format!("ckpt/{stage}");
        assert!(snap.histogram(&name).is_some_and(|h| h.count() > 0), "ckpt stage {name}");
    }
    assert!(snap.events.iter().any(|e| e.kind == xqview::obs::EventKind::WalRotated));
    assert!(snap.counter("epoch/publishes") > 0, "epochs published at batch boundaries");
    assert!(snap.counter("epoch/reads") >= 2, "epoch reads counted");
    for name in ["epoch/publish", "epoch/retire"] {
        assert!(snap.histogram(name).is_some_and(|h| h.count() > 0), "publish stage {name}");
    }
    assert!(snap.gauge("epoch/readers") >= 1, "live read handle holds the gauge");
    assert!(
        snap.histogram("epoch/staleness").is_some_and(|h| h.count() > 0),
        "served-epoch staleness series"
    );

    // Shutdown honors XQVIEW_METRICS_DUMP (the hub writes the dump
    // itself); the JSON also round-trips through a plain parser — the CI
    // smoke step checks the file with python's json module.
    let inner = hub.shutdown();
    drop(inner);
    let _ = std::fs::remove_dir_all(&dir);
    if let Ok(path) = std::env::var("XQVIEW_METRICS_DUMP") {
        if !path.is_empty() {
            let dumped = std::fs::read_to_string(&path).expect("hub wrote the dump");
            assert!(dumped.contains("\"svc/apply\""), "dump carries phase histograms");
            println!("metrics dump written to {path} ({} bytes)", dumped.len());
        }
    }
    println!("ok");
}

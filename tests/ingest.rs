//! The typed update API and the batched ingestion front, end to end:
//!
//! * **Round trip** — parsing a script into an [`UpdateBatch`] and
//!   submitting it through an [`IngestHub`] session must yield extents
//!   identical to applying the parsed batch directly, with the
//!   `verify_all()` recompute oracle holding after every boundary.
//! * **Backpressure** — the bounded session queue must reject (not block,
//!   not grow) once at capacity, and recover after a drain.
//! * **Error paths** — duplicate `register`, `drop_view` on a missing
//!   view, malformed scripts, and the `std::error::Error` wiring.

use std::error::Error as StdError;
use xqview::viewsrv::{
    BatchReceipt, CatalogError, HubConfig, IngestError, IngestHub, UpdateBatch, UpdateOp,
    ViewCatalog,
};
use xqview::xquery_lang::{CmpOp, InsertPosition};
use xqview::Store;

/// Scripts are parsed at the edge, once, into typed batches.
fn parse(script: &str) -> UpdateBatch {
    UpdateBatch::from_script(script).unwrap()
}

const FLAT_VIEW: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "1994"
  return <hit>{$b/title}</hit>
}</result>"#;

const JOIN_VIEW: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
  where $b/title = $e/b-title
  return <pair>{$b/title}{$e/price}</pair>
}</result>"#;

const PRICES_ONLY_VIEW: &str = r#"<result>{
  for $e in doc("prices.xml")/prices/entry
  return <p>{$e/price}</p>
}</result>"#;

const BIB: &str = r#"<bib>
    <book year="1994"><title>TCP/IP Illustrated</title></book>
    <book year="2000"><title>Data on the Web</title></book>
    <book year="1994"><title>Advanced Unix</title></book>
</bib>"#;

const PRICES: &str = r#"<prices>
    <entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry>
    <entry><price>39.95</price><b-title>Data on the Web</b-title></entry>
</prices>"#;

/// The heterogeneous script stream of `tests/multiview.rs`, reused as the
/// round-trip workload.
const SCRIPTS: &[&str] = &[
    r#"for $r in document("bib.xml")/bib update $r
       insert <book year="1994"><title>Unlisted Volume</title></book> into $r"#,
    r#"for $r in document("prices.xml")/prices update $r
       insert <entry><price>12.50</price><b-title>Advanced Unix</b-title></entry> into $r"#,
    r#"for $e in document("prices.xml")/prices/entry
       where $e/b-title = "TCP/IP Illustrated"
       update $e replace $e/price/text() with "70.00""#,
    r#"for $b in document("bib.xml")/bib/book
       where $b/title = "Advanced Unix"
       update $b replace $b/title/text() with "Data on the Web""#,
    r#"for $b in document("bib.xml")/bib/book
       where $b/title = "TCP/IP Illustrated"
       update $b delete $b"#,
];

fn catalog() -> ViewCatalog {
    let mut s = Store::new();
    s.load_doc("bib.xml", BIB).unwrap();
    s.load_doc("prices.xml", PRICES).unwrap();
    let mut cat = ViewCatalog::new(s);
    cat.register("flat", FLAT_VIEW).unwrap();
    cat.register("join", JOIN_VIEW).unwrap();
    cat.register("prices_only", PRICES_ONLY_VIEW).unwrap();
    cat
}

fn extents(cat: &ViewCatalog) -> Vec<String> {
    ["flat", "join", "prices_only"].iter().map(|n| cat.extent_xml(n).unwrap()).collect()
}

/// A hub whose background drain never fires during a test (the time
/// window is a minute), so chunks come only from `commit` and
/// `drain_now` — coalescing is deterministic.
fn hub(cat: ViewCatalog, queue_capacity: usize, window_ops: usize) -> IngestHub {
    cat.into_hub(HubConfig {
        queue_capacity,
        window_ops,
        window_ms: 60_000,
        ..HubConfig::default()
    })
}

/// Stop the hub and run the recompute oracle over the catalog it hands back.
fn shutdown_verified(hub: IngestHub) -> Vec<String> {
    let inner = hub.shutdown();
    inner.catalog().verify_all().unwrap();
    extents(inner.catalog())
}

// ── Round trips ─────────────────────────────────────────────────────────

/// Acceptance criterion: script → typed ops → session submission produces
/// extents identical to applying each parsed batch directly, with the
/// recompute oracle holding after every commit boundary.
#[test]
fn session_round_trip_matches_legacy_script_path() {
    let mut legacy = catalog();
    let typed = hub(catalog(), 64, 256);
    let session = typed.handle();
    for script in SCRIPTS {
        let _ = legacy.apply_batch(&parse(script)).unwrap();

        let batch = UpdateBatch::from_script(script).unwrap();
        session.try_submit(batch).unwrap();
        assert_eq!(session.commit().unwrap().batches_applied, 1);

        let typed_extents = typed.with_catalog(extents).unwrap();
        assert_eq!(extents(&legacy), typed_extents, "diverged after {script}");
        legacy.verify_all().unwrap();
        typed.with_catalog(|c| c.verify_all().unwrap()).unwrap();
    }
    drop(session);
    assert_eq!(shutdown_verified(typed), extents(&legacy));
}

/// Builder-constructed ops are equivalent to their script spellings.
#[test]
fn builder_ops_match_script_ops() {
    let mut by_script = catalog();
    let _ = by_script
        .apply_batch(&parse(
            r#"for $r in document("bib.xml")/bib update $r
               insert <book year="2002"><title>Built</title></book> into $r ;
               for $b in document("bib.xml")/bib/book where $b/@year = "2000"
               update $b delete $b"#,
        ))
        .unwrap();

    let mut by_builder = catalog();
    let batch = UpdateBatch::new()
        .with(
            UpdateOp::insert(
                "bib.xml",
                "/bib",
                InsertPosition::Into,
                r#"<book year="2002"><title>Built</title></book>"#,
            )
            .unwrap(),
        )
        .with(
            UpdateOp::delete("bib.xml", "/bib/book")
                .unwrap()
                .filter("@year", CmpOp::Eq, "2000")
                .unwrap(),
        );
    let receipt = by_builder.apply_batch(&batch).unwrap();
    assert_eq!(receipt.ops, 2);
    assert_eq!(receipt.resolved, 2);

    assert_eq!(extents(&by_script), extents(&by_builder));
    by_builder.verify_all().unwrap();
}

/// Coalescing independent submissions into one window must agree with
/// applying them one by one.
#[test]
fn coalesced_window_matches_per_batch_application() {
    let mut one_by_one = catalog();

    let batches: Vec<UpdateBatch> = (0..6)
        .map(|i| {
            let frag = format!(r#"<book year="2001"><title>Stream {i}</title></book>"#);
            UpdateBatch::new()
                .with(UpdateOp::insert("bib.xml", "/bib", InsertPosition::Into, &frag).unwrap())
        })
        .collect();

    for b in &batches {
        let _ = one_by_one.apply_batch(b).unwrap();
    }

    let coalesced = hub(catalog(), 16, 4);
    let session = coalesced.handle();
    for b in &batches {
        session.try_submit(b.clone()).unwrap();
    }
    let receipt = session.commit().unwrap();
    assert_eq!(receipt.batches_submitted, 6);
    assert_eq!(receipt.batches_applied, 2, "6 one-op submissions over a 4-op window");
    assert_eq!(receipt.ops, 6);

    drop(session);
    assert_eq!(extents(&one_by_one), shutdown_verified(coalesced));
}

// ── Receipts ────────────────────────────────────────────────────────────

#[test]
fn receipts_report_touched_views_and_phases() {
    let mut cat = catalog();
    // prices-only update: flat (bib-only) must not appear in the receipt.
    let batch = UpdateBatch::new().with(
        UpdateOp::insert(
            "prices.xml",
            "/prices",
            InsertPosition::Into,
            r#"<entry><price>9.99</price><b-title>New</b-title></entry>"#,
        )
        .unwrap(),
    );
    let receipt: BatchReceipt = cat.apply_batch(&batch).unwrap();
    assert_eq!(receipt.views_touched, vec!["join", "prices_only"]);
    assert_eq!(receipt.coalesced_from, 1);
    assert_eq!(receipt.stats.batches, 1);
    assert!(receipt.stats.total() > std::time::Duration::ZERO);
    cat.verify_all().unwrap();
}

#[test]
fn session_receipt_aggregates_across_drain_rounds() {
    let hub = hub(catalog(), 4, 100);
    let session = hub.handle();
    session
        .try_submit(parse(
            r#"for $r in document("bib.xml")/bib update $r
               insert <book year="1994"><title>A</title></book> into $r"#,
        ))
        .unwrap();
    assert_eq!(hub.drain_now(), 1);
    assert_eq!(session.applied_batches(), 1);
    session
        .try_submit(parse(
            r#"for $r in document("prices.xml")/prices update $r
               insert <entry><price>1.00</price><b-title>A</b-title></entry> into $r"#,
        ))
        .unwrap();
    let receipt = session.commit().unwrap();
    assert_eq!(receipt.batches_submitted, 2);
    assert_eq!(receipt.batches_applied, 2, "a drain round is a sequencing boundary");
    // The union covers both rounds: the bib insert touched flat+join, the
    // prices insert touched join+prices_only.
    assert_eq!(receipt.views_touched, vec!["flat", "join", "prices_only"]);
    assert_eq!(receipt.stats.batches, 2);
    drop(session);
    shutdown_verified(hub);
}

// ── Backpressure ────────────────────────────────────────────────────────

/// Acceptance criterion: a bounded queue returns `QueueFull` instead of
/// blocking or allocating unboundedly.
#[test]
fn bounded_queue_rejects_with_queue_full() {
    let hub = hub(catalog(), 2, 100);
    let session = hub.handle();
    let op = |i: usize| {
        let frag = format!(r#"<book year="2001"><title>B{i}</title></book>"#);
        UpdateBatch::new()
            .with(UpdateOp::insert("bib.xml", "/bib", InsertPosition::Into, &frag).unwrap())
    };
    session.try_submit(op(0)).unwrap();
    session.try_submit(op(1)).unwrap();
    let err = session.try_submit(op(2)).unwrap_err();
    let IngestError::QueueFull { batch: rejected, capacity } = err else {
        panic!("expected QueueFull, got {err:?}")
    };
    assert_eq!(capacity, 2);
    assert_eq!(rejected, op(2), "rejected batch is handed back untouched");
    assert_eq!(session.queued_batches(), 2, "rejected submission must not enqueue");
    assert_eq!(session.queued_ops(), 2);

    // Backpressure is recoverable: a drain round empties the queue, then
    // the handed-back batch is accepted without re-building it.
    assert_eq!(hub.drain_now(), 1);
    assert_eq!(session.queued_batches(), 0);
    session.try_submit(rejected).unwrap();
    let receipt = session.commit().unwrap();
    assert_eq!(receipt.ops, 3);
    drop(session);
    shutdown_verified(hub);
}

// ── Error paths ─────────────────────────────────────────────────────────

#[test]
fn duplicate_register_and_missing_drop_error() {
    let mut cat = catalog();
    let dup = cat.register("flat", FLAT_VIEW).unwrap_err();
    assert!(matches!(&dup, CatalogError::DuplicateView(n) if n == "flat"));
    assert!(dup.to_string().contains("already registered"));

    let missing = cat.drop_view("nope").unwrap_err();
    assert!(matches!(&missing, CatalogError::UnknownView(n) if n == "nope"));
    assert!(missing.to_string().contains("no view named"));

    // The catalog is untouched by either failure.
    assert_eq!(cat.view_names(), vec!["flat", "join", "prices_only"]);
    cat.verify_all().unwrap();
}

/// Malformed scripts fail at the edge, in `UpdateBatch::from_script`,
/// before any catalog sees them (so nothing can be mutated); the parse
/// error maps onto the catalog's maintenance error.
#[test]
fn malformed_scripts_error_without_mutating() {
    for bad in [
        "garbage",
        "for $b in doc(\"bib.xml\")/bib",
        "for $b in doc(\"bib.xml\")/r update $c delete $c",
    ] {
        let err = CatalogError::from(UpdateBatch::from_script(bad).unwrap_err());
        assert!(matches!(err, CatalogError::Maint(_)), "{bad:?} must not parse; got {err:?}");
    }
}

#[test]
fn errors_implement_std_error_end_to_end() {
    let full = hub(catalog(), 0, 1);
    let err = full.handle().try_submit(UpdateBatch::new()).unwrap_err();
    // IngestError: Display + Error, QueueFull has no source.
    let dynamic: &dyn StdError = &err;
    assert!(dynamic.to_string().contains("queue is full"));
    assert!(dynamic.source().is_none());

    // A catalog failure threads its source chain through IngestError.
    let hub = hub(catalog(), 64, 256);
    let session = hub.handle();
    session.try_submit(parse(r#"for $b in document("ghost.xml")/r update $b delete $b"#)).unwrap();
    let err = session.commit().unwrap_err();
    let dynamic: &dyn StdError = &err;
    let source = dynamic.source().expect("catalog error is the source");
    assert!(source.to_string().contains("unknown document"));
}

/// A failing commit loses nothing: the failing chunk goes back on the
/// queue, earlier receipts stay held, and the session recovers after
/// discarding the poison submission.
#[test]
fn failed_commit_requeues_chunk_and_keeps_receipts() {
    // window_ops 1 keeps the good and poison submissions in separate
    // chunks, so the good one applies before the poison one fails.
    let hub = hub(catalog(), 8, 1);
    let session = hub.handle();
    session
        .try_submit(parse(
            r#"for $r in document("bib.xml")/bib update $r
               insert <book year="1994"><title>Good</title></book> into $r"#,
        ))
        .unwrap();
    session.try_submit(parse(r#"for $b in document("ghost.xml")/r update $b delete $b"#)).unwrap();
    assert!(session.commit().is_err());
    assert_eq!(session.applied_batches(), 1, "the good chunk's receipt survives the error");
    assert_eq!(session.queued_batches(), 1, "the failing chunk is back on the queue");

    // Retrying without intervention fails identically; discarding the
    // poison submission recovers the session.
    assert!(session.commit().is_err());
    let discarded = session.discard_queued();
    assert_eq!(discarded.len(), 1);
    assert_eq!(session.queued_ops(), 0);
    let receipt = session.commit().unwrap();
    assert_eq!(receipt.batches_applied, 1);
    assert_eq!(receipt.ops, 1);
    drop(session);
    let flat = &shutdown_verified(hub)[0];
    assert!(flat.contains("Good"));
}

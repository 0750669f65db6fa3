//! Epoch read-path acceptance (ISSUE 8): frozen snapshots served off the
//! hub's atomic epoch chain must be **consistent** (byte-identical to
//! recomputing every view from the epoch's own frozen store — the
//! `verify_all()` oracle applied to the snapshot), **un-torn** (captured
//! only at batch boundaries, never mid-apply), and **monotone** (the
//! watermark never regresses across a handle's lifetime), all while
//! writers hammer the hub concurrently. Exercised on a single-thread
//! maintenance pool and a wide one — the CI read-path job additionally
//! runs this suite under `XQVIEW_POOL_THREADS=1` and `=8`.

use exec::Executor;
use std::sync::atomic::{AtomicBool, Ordering};
use viewsrv::{HubConfig, IngestError, UpdateBatch, ViewCatalog};
use xmlstore::Store;

fn bib_cfg() -> datagen::BibConfig {
    datagen::BibConfig { books: 40, years: 6, priced_ratio: 0.8, extra_entries: 4, seed: 77 }
}

/// One linear view and one self-join (two IMP terms per propagation —
/// the shape the maintenance pool actually parallelizes).
fn view_defs() -> Vec<(&'static str, String)> {
    vec![
        ("titles", r#"<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>"#.to_string()),
        (
            "selfjoin",
            r#"<r>{
  for $a in doc("bib.xml")/bib/book, $b in doc("bib.xml")/bib/book
  where $a/@year = $b/@year
  return <pair>{$a/title}{$b/title}</pair>
}</r>"#
                .to_string(),
        ),
    ]
}

fn fresh_catalog(pool_threads: usize, cfg: &datagen::BibConfig) -> ViewCatalog {
    let mut s = Store::new();
    s.load_doc("bib.xml", &datagen::bib_xml(cfg)).unwrap();
    let mut cat = ViewCatalog::new(s);
    cat.set_pool(Executor::new(pool_threads));
    for (name, q) in view_defs() {
        cat.register(name, &q).unwrap();
    }
    cat
}

/// Books inserted per update batch. Torn-capture detector: with
/// coalescing disabled (`window_ops: 1`), every applied batch adds
/// exactly this many books, so any epoch whose store holds a book count
/// that is not `base + BOOKS_PER_BATCH * watermark` was captured
/// mid-batch.
const BOOKS_PER_BATCH: usize = 3;

fn insert_batch(cfg: &datagen::BibConfig, i: usize) -> UpdateBatch {
    UpdateBatch::from_script(&datagen::insert_books_script(
        cfg,
        1000 + i * BOOKS_PER_BATCH,
        BOOKS_PER_BATCH,
        Some(1900),
    ))
    .unwrap()
}

fn book_count(store: &Store) -> usize {
    store.serialize_doc("bib.xml").unwrap().matches("<book").count()
}

/// The core hammer: `writers` producer threads commit seeded insert
/// batches through the hub while the main thread pins epochs off a
/// [`viewsrv::ReadHandle`] and checks every consistency invariant on
/// each one. Returns nothing — it panics on the first violation.
fn hammer_and_verify(pool_threads: usize) {
    let cfg = bib_cfg();
    let base_books = {
        let cat = fresh_catalog(pool_threads, &cfg);
        book_count(cat.store())
    };
    let hub = fresh_catalog(pool_threads, &cfg).into_hub(HubConfig {
        queue_capacity: 16,
        // No coalescing: one applied batch == one submission, so the
        // watermark-vs-book-count torn-capture invariant is exact.
        window_ops: 1,
        window_ms: 1,
        ..HubConfig::default()
    });

    const WRITERS: usize = 2;
    const BATCHES_PER_WRITER: usize = 8;
    let done = AtomicBool::new(false);
    let mut last_watermark = 0u64;
    let mut epochs_seen = 0usize;
    let mut verified = 0usize;

    std::thread::scope(|s| {
        let done = &done;
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let writer = hub.handle();
                let cfg = &cfg;
                s.spawn(move || {
                    for i in 0..BATCHES_PER_WRITER {
                        let mut batch = insert_batch(cfg, w * 100 + i);
                        loop {
                            match writer.try_submit(batch) {
                                Ok(()) => break,
                                Err(IngestError::QueueFull { batch: b, .. }) => {
                                    batch = b;
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("unexpected submit failure: {e}"),
                            }
                        }
                        let _ = writer.commit().expect("commit succeeds");
                    }
                })
            })
            .collect();
        // Flip the flag only once every writer has committed its last
        // batch, so the reader loop below takes one final post-quiesce
        // sample before exiting.
        s.spawn(move || {
            for h in writers {
                h.join().expect("writer thread");
            }
            done.store(true, Ordering::SeqCst);
        });

        // The reader: zero-lock pins while the writers run.
        let mut rh = hub.read_handle();
        loop {
            let finished = done.load(Ordering::SeqCst);
            let epoch = rh.pin();
            epochs_seen += 1;

            // Monotonicity: the watermark never regresses.
            assert!(
                epoch.watermark() >= last_watermark,
                "watermark regressed: {} -> {}",
                last_watermark,
                epoch.watermark()
            );
            last_watermark = epoch.watermark();

            // Un-torn: batch-boundary captures only. With coalescing off
            // every applied batch adds exactly BOOKS_PER_BATCH books.
            let books = book_count(epoch.store());
            assert_eq!(
                books,
                base_books + BOOKS_PER_BATCH * epoch.watermark() as usize,
                "epoch {} captured mid-batch (watermark {})",
                epoch.seq(),
                epoch.watermark()
            );

            // Consistency: every extent in the snapshot equals a full
            // recompute from the snapshot's own frozen store — the
            // verify_all() oracle applied to the epoch. (Throttled: the
            // self-join recompute is quadratic.)
            if epochs_seen.is_multiple_of(3) {
                epoch.verify().unwrap();
                verified += 1;
            }
            if finished {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }

        // Settle everything, then the final epoch must be the final
        // catalog state exactly.
        hub.drain_now();
        let total = (WRITERS * BATCHES_PER_WRITER) as u64;
        let final_epoch = rh.pin();
        assert_eq!(final_epoch.watermark(), total, "not every batch published an epoch");
        final_epoch.verify().unwrap();
        verified += 1;

        let inner = hub.shutdown();
        let cat = inner.catalog();
        cat.verify_all().unwrap();
        for (name, _) in view_defs() {
            assert_eq!(
                final_epoch.extent_bytes(name).unwrap(),
                cat.extent_bytes(name).unwrap(),
                "{name}: final epoch diverged from the shut-down catalog"
            );
        }
    });
    assert!(epochs_seen >= 2, "the reader loop never sampled a live epoch");
    assert!(verified >= 1, "no epoch was ever verified against the oracle");
}

#[test]
fn epoch_reads_consistent_under_writer_hammer_pool_1() {
    hammer_and_verify(1);
}

#[test]
fn epoch_reads_consistent_under_writer_hammer_pool_8() {
    hammer_and_verify(8);
}

/// Handle semantics in isolation: pinned epochs are immutable (same seq
/// ⇒ same Arc ⇒ same bytes), clones observe no regression, and the
/// multi-view snapshot is internally consistent — two extents read off
/// one pin come from the same frozen store even if the hub publishes in
/// between.
#[test]
fn pinned_epoch_is_immutable_and_multi_view_consistent() {
    let cfg = bib_cfg();
    let hub = fresh_catalog(1, &cfg).into_hub(HubConfig::default());
    let mut rh = hub.read_handle();
    let mut rh2 = rh.clone();

    let pinned = rh.pin();
    let titles_before = pinned.extent_bytes("titles").unwrap();
    let w0 = pinned.watermark();

    // A commit moves the published epoch…
    let writer = hub.handle();
    writer.try_submit(insert_batch(&cfg, 0)).unwrap();
    let _ = writer.commit().unwrap();

    // …but the pinned snapshot is frozen: identical bytes, identical
    // cross-view state (the oracle recomputes both views from the pinned
    // store), identical watermark.
    assert_eq!(pinned.extent_bytes("titles").unwrap(), titles_before);
    assert_eq!(pinned.watermark(), w0);
    pinned.verify().unwrap();

    // Fresh pins (from either handle) see the new batch, never an older
    // watermark than any previously observed one.
    let fresh = rh.pin();
    assert!(fresh.watermark() > w0, "fresh pin must observe the commit");
    assert!(rh2.pin().watermark() > w0, "the cloned handle must observe the commit too");
    assert_ne!(fresh.extent_bytes("titles").unwrap(), titles_before);

    drop(writer);
    hub.shutdown().catalog().verify_all().unwrap();
}

/// A panic inside `IngestHub::with_inner`'s closure hands the catalog
/// back and publishes no epoch — the closure may have left mid-mutation
/// state, and an epoch must only capture a consistent boundary — so a
/// reader's sequence does not move. The hub keeps working: the next
/// commit applies, the oracle holds, and shutdown returns.
#[test]
fn with_inner_panic_hands_the_catalog_back() {
    let cfg = bib_cfg();
    let hub = fresh_catalog(1, &cfg).into_hub(HubConfig::default());
    let mut rh = hub.read_handle();
    let seq = rh.pin().seq();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _: Option<()> = hub.with_inner(|inner| {
            assert_eq!(inner.catalog().len(), view_defs().len());
            panic!("injected with_inner panic");
        });
    }));
    assert!(unwound.is_err(), "the closure's panic must surface");
    assert_eq!(rh.pin().seq(), seq, "an unwound check-out published an epoch");

    let writer = hub.handle();
    writer.try_submit(insert_batch(&cfg, 0)).unwrap();
    assert_eq!(writer.commit().unwrap().batches_applied, 1, "the catalog came back");
    assert!(rh.pin().seq() > seq, "the commit's round publishes as usual");
    drop(writer);
    hub.shutdown().catalog().verify_all().unwrap();
}

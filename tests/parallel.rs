//! Concurrency acceptance tests (ISSUE 4): pooled execution must be a
//! pure speedup — never a semantic change.
//!
//! * **Determinism** — a single-thread pool (`exec::Executor::new(1)`,
//!   the in-process equivalent of `XQVIEW_POOL_THREADS=1`) and a wide
//!   pool produce byte-identical extents under the same workload, checked
//!   against the recompute oracle. The CI determinism job runs the whole
//!   suite under both env settings on top of this.
//! * **Fairness** — the hub's round-robin drain gives every session one
//!   chunk per round: a flooding session cannot starve a light one.
//! * **Group commit** — concurrent commits share fsyncs (leader/follower)
//!   while staying individually durable: the WAL prefix at *any* record
//!   boundary replays to exactly the state the logged batches produce.

use exec::Executor;
use viewsrv::{
    DurableCatalog, HubConfig, HubInner, IngestError, RotatePolicy, ServiceStats, UpdateBatch,
    ViewCatalog,
};
use wire::frame;
use xmlstore::Store;

/// Parse `script` at the edge and maintain every view for it.
fn apply(cat: &mut ViewCatalog, script: &str) -> ServiceStats {
    cat.apply_batch(&UpdateBatch::from_script(script).unwrap()).unwrap().stats
}

fn bib_cfg() -> datagen::BibConfig {
    datagen::BibConfig { books: 60, years: 6, priced_ratio: 0.8, extra_entries: 6, seed: 11 }
}

fn fresh_store(cfg: &datagen::BibConfig) -> Store {
    let mut s = Store::new();
    s.load_doc("bib.xml", &datagen::bib_xml(cfg)).unwrap();
    s.load_doc("prices.xml", &datagen::prices_xml(cfg)).unwrap();
    s
}

/// View shapes covering every routing path, *including* self-joins whose
/// telescoped IMP terms are exactly what the per-term fan-out
/// parallelizes (bib.xml occurs twice ⇒ two terms per round).
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
        (
            "join",
            r#"<r>{
  for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
  where $b/title = $e/b-title
  return <pair>{$b/title}{$e/price}</pair>
}</r>"#
                .to_string(),
        ),
        (
            "prices",
            r#"<r>{ for $e in doc("prices.xml")/prices/entry return <p>{$e/price}</p> }</r>"#
                .to_string(),
        ),
    ]
}

fn workload(cfg: &datagen::BibConfig, rounds: usize) -> Vec<UpdateBatch> {
    let mut scripts = Vec::new();
    for b in 0..rounds {
        scripts.push(datagen::insert_books_script(cfg, cfg.books + b * 2, 2, Some(1900)));
        scripts.push(datagen::modify_prices_script(b * 3, 2, "33.33"));
        scripts.push(datagen::delete_books_script(b * 2, 1));
    }
    scripts.iter().map(|s| UpdateBatch::from_script(s).expect("workload parses")).collect()
}

fn catalog_with(pool: Executor, cfg: &datagen::BibConfig) -> ViewCatalog {
    let mut cat = ViewCatalog::new(fresh_store(cfg));
    cat.set_pool(pool);
    for (name, q) in view_defs() {
        cat.register(name, &q).unwrap();
    }
    cat
}

fn extents(cat: &ViewCatalog) -> Vec<String> {
    view_defs().iter().map(|(n, _)| cat.extent_xml(n).unwrap()).collect()
}

/// ISSUE 4 acceptance: single-thread pool and wide pool produce
/// byte-identical extents on a mixed multiview workload (self-joins
/// included), both equal to the recompute oracle.
#[test]
fn pooled_and_serial_extents_are_byte_identical() {
    let cfg = bib_cfg();
    let mut serial = catalog_with(Executor::new(1), &cfg);
    let mut pooled = catalog_with(Executor::new(4), &cfg);
    assert_eq!(extents(&serial), extents(&pooled), "materialization already differs");
    for batch in workload(&cfg, 3) {
        let _ = serial.apply_batch(&batch).unwrap();
        let _ = pooled.apply_batch(&batch).unwrap();
        assert_eq!(extents(&serial), extents(&pooled));
    }
    serial.verify_all().unwrap();
    pooled.verify_all().unwrap();
}

/// The per-term fan-out specifically: a self-join view (two IMP terms per
/// propagation) maintained on a wide pool matches the serial result and
/// the oracle after inserts *and* deletes.
#[test]
fn selfjoin_term_parallelism_matches_oracle() {
    let cfg = bib_cfg();
    let selfjoin = &view_defs()[1].1;
    // One-view catalogs: a lone view never fans out at the catalog level,
    // so the 3-book insert exercises exactly the per-term fan-out.
    let one_view = |pool: Executor| {
        let mut cat = ViewCatalog::new(fresh_store(&cfg));
        cat.set_pool(pool);
        cat.register("selfjoin", selfjoin).unwrap();
        cat
    };
    let mut serial = one_view(Executor::new(1));
    let mut pooled = one_view(Executor::new(4));
    for script in [
        datagen::insert_books_script(&cfg, 500, 3, Some(1901)),
        datagen::delete_books_script(1, 2),
        datagen::insert_books_script(&cfg, 600, 2, Some(1902)),
    ] {
        let _ = apply(&mut serial, &script);
        let _ = apply(&mut pooled, &script);
        assert_eq!(serial.extent_xml("selfjoin").unwrap(), pooled.extent_xml("selfjoin").unwrap());
    }
    pooled.verify_all().unwrap();
}

fn insert_batch(cfg: &datagen::BibConfig, i: usize) -> UpdateBatch {
    UpdateBatch::from_script(&datagen::insert_books_script(cfg, 1000 + i, 1, Some(1900))).unwrap()
}

/// Round-robin fairness, deterministically: a session with ten queued
/// submissions and a session with one each get exactly one coalesced
/// chunk out of one background round — the flood cannot monopolize it.
#[test]
fn drain_round_is_fair_across_sessions() {
    let cfg = bib_cfg();
    let mut cat = ViewCatalog::new(fresh_store(&cfg));
    for (name, q) in view_defs() {
        cat.register(name, &q).unwrap();
    }
    // A huge time window keeps the background thread out of the way; the
    // test drives rounds by hand.
    let hub = cat.into_hub(HubConfig {
        queue_capacity: 64,
        window_ops: 4,
        window_ms: 60_000,
        ..HubConfig::default()
    });
    let flood = hub.handle();
    let light = hub.handle();
    for i in 0..10 {
        flood.try_submit(insert_batch(&cfg, i)).unwrap();
    }
    light.try_submit(insert_batch(&cfg, 99)).unwrap();

    let applied = hub.drain_now();
    assert_eq!(applied, 2, "one chunk per session per round");
    assert_eq!(flood.applied_batches(), 1, "flood got its window_ops chunk");
    assert_eq!(light.applied_batches(), 1, "light session was not starved");
    assert_eq!(flood.queued_batches(), 6, "window_ops=4 coalesced 4 of 10");
    assert_eq!(flood.queued_ops(), 6, "one op per queued submission");
    assert_eq!(light.queued_batches(), 0);
    assert_eq!(light.queued_ops(), 0);

    // Drain the backlog; both commits fold their receipts.
    let fr = flood.commit().unwrap();
    assert_eq!((fr.batches_submitted, fr.ops), (10, 10));
    let lr = light.commit().unwrap();
    assert_eq!((lr.batches_submitted, lr.ops), (1, 1));
    drop(flood);
    drop(light);
    hub.shutdown().catalog().verify_all().unwrap();
}

/// The background drain applies submissions on its own after the time
/// window — producers never call flush/commit ("fire and forget"), and
/// submissions inside one window coalesce into one applied chunk.
#[test]
fn background_drain_applies_within_the_window() {
    let cfg = bib_cfg();
    let mut cat = ViewCatalog::new(fresh_store(&cfg));
    for (name, q) in view_defs() {
        cat.register(name, &q).unwrap();
    }
    let hub = cat.into_hub(HubConfig {
        queue_capacity: 64,
        window_ops: 256,
        window_ms: 30,
        ..HubConfig::default()
    });
    let writer = hub.handle();
    for i in 0..5 {
        writer.try_submit(insert_batch(&cfg, i)).unwrap();
    }
    let t0 = std::time::Instant::now();
    while writer.applied_batches() == 0 {
        assert!(t0.elapsed().as_secs() < 5, "background drain never fired");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let receipt = writer.commit().unwrap();
    // All five land; under scheduling noise a submission can miss the
    // window and ride a later chunk, so only assert real coalescing
    // happened (fewer chunks than submissions). Exact one-chunk
    // coalescing is asserted deterministically by the fairness test.
    assert_eq!((receipt.batches_submitted, receipt.ops), (5, 5));
    assert!(
        receipt.batches_applied < receipt.batches_submitted,
        "window coalesced nothing: {} chunks",
        receipt.batches_applied
    );
    drop(writer);
    hub.shutdown().catalog().verify_all().unwrap();
}

/// Hub backpressure and lifecycle errors stay explicit: QueueFull hands
/// the batch back at the bound, HubClosed after shutdown.
#[test]
fn hub_backpressure_and_shutdown_errors() {
    let cfg = bib_cfg();
    let mut cat = ViewCatalog::new(fresh_store(&cfg));
    for (name, q) in view_defs() {
        cat.register(name, &q).unwrap();
    }
    let hub = cat.into_hub(HubConfig {
        queue_capacity: 2,
        window_ops: 8,
        window_ms: 60_000,
        ..HubConfig::default()
    });
    let writer = hub.handle();
    writer.try_submit(insert_batch(&cfg, 0)).unwrap();
    writer.try_submit(insert_batch(&cfg, 1)).unwrap();
    match writer.try_submit(insert_batch(&cfg, 2)) {
        Err(IngestError::QueueFull { capacity, .. }) => assert_eq!(capacity, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    let receipt = writer.commit().unwrap();
    assert_eq!(receipt.batches_submitted, 2);
    hub.shutdown().catalog().verify_all().unwrap();
    // Every surviving-handle operation degrades gracefully after
    // shutdown — no panics, no aborts (regression: discard_queued used
    // to panic in a destructor here).
    assert!(matches!(writer.try_submit(insert_batch(&cfg, 3)), Err(IngestError::HubClosed(_))));
    assert!(writer.discard_queued().is_empty());
    assert_eq!((writer.queued_batches(), writer.queued_ops(), writer.applied_batches()), (0, 0, 0));
    assert!(matches!(writer.commit(), Err(IngestError::HubClosed(_))));
    drop(writer);
}

/// Concurrent producers over a volatile hub: every commit succeeds, every
/// op lands, and the catalog passes the recompute oracle afterwards.
#[test]
fn concurrent_producers_all_commit() {
    let cfg = bib_cfg();
    let mut cat = ViewCatalog::new(fresh_store(&cfg));
    for (name, q) in view_defs() {
        cat.register(name, &q).unwrap();
    }
    let hub = cat.into_hub(HubConfig {
        queue_capacity: 64,
        window_ops: 8,
        window_ms: 1,
        ..HubConfig::default()
    });
    let per_producer = 6usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|p| {
                let writer = hub.handle();
                let cfg = &cfg;
                s.spawn(move || {
                    for i in 0..per_producer {
                        let mut batch = insert_batch(cfg, p * 100 + i);
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
                    }
                    writer.commit().expect("commit succeeds")
                })
            })
            .collect();
        for h in handles {
            let receipt = h.join().expect("producer thread");
            assert_eq!(receipt.batches_submitted, per_producer);
            assert_eq!(receipt.ops, per_producer);
        }
    });
    let inner = hub.shutdown();
    let cat = inner.catalog();
    cat.verify_all().unwrap();
    let books = cat.store().serialize_doc("bib.xml").unwrap().matches("<book").count();
    assert_eq!(books, cfg.books + 3 * per_producer, "every op landed exactly once");
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xqview-parallel-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_catalog(dir: &std::path::Path, cfg: &datagen::BibConfig) -> DurableCatalog {
    let mut cat = DurableCatalog::open(dir).unwrap();
    cat.load_doc("bib.xml", &datagen::bib_xml(cfg)).unwrap();
    cat.load_doc("prices.xml", &datagen::prices_xml(cfg)).unwrap();
    for (name, q) in view_defs() {
        cat.register(name, &q).unwrap();
    }
    cat
}

/// Group commit under real concurrency: commits from several threads
/// share fsyncs (never more fsyncs than acknowledged commits), every
/// commit is individually durable, and reopening replays the WAL to the
/// exact final state.
#[test]
fn group_commit_concurrent_commits_share_fsyncs() {
    let cfg = bib_cfg();
    let dir = temp_dir("group");
    let cat = durable_catalog(&dir, &cfg);
    let hub = cat.into_hub(HubConfig {
        queue_capacity: 64,
        window_ops: 4,
        window_ms: 60_000,
        ..HubConfig::default()
    });
    let per_producer = 5usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|p| {
                let writer = hub.handle();
                let cfg = &cfg;
                s.spawn(move || {
                    for i in 0..per_producer {
                        writer.try_submit(insert_batch(cfg, p * 100 + i)).unwrap();
                        // Commit per submission: maximal fsync pressure.
                        let receipt = writer.commit().expect("durable commit");
                        assert_eq!(receipt.batches_applied, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("producer thread");
        }
    });
    let HubInner::Durable(cat) = hub.shutdown() else { unreachable!("durable hub") };
    let stats = cat.wal_sync_stats();
    assert_eq!(stats.synced_commits, 20, "every commit reached its durability point");
    assert!(
        stats.fsyncs <= stats.synced_commits,
        "leader/follower never issues more fsyncs than commits ({stats:?})"
    );
    cat.verify_all().unwrap();
    let want = cat.catalog().view_names().len();
    let records = cat.wal_records();
    drop(cat);
    let cat = DurableCatalog::open(&dir).unwrap();
    assert_eq!(cat.recovery().replayed_batches, records);
    assert_eq!(cat.catalog().view_names().len(), want);
    cat.verify_all().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// ISSUE 4 acceptance: group-commit durability under the crash matrix.
/// Multi-session hub traffic interleaves nondeterministically, so the
/// reference is the log itself: at every record boundary, the recovered
/// state must equal replaying exactly the logged prefix.
#[test]
fn group_commit_crash_matrix_replays_every_prefix() {
    let cfg = bib_cfg();
    let dir = temp_dir("group-matrix");
    let cat = durable_catalog(&dir, &cfg);
    let base_store = cat.catalog().store().clone();
    let hub = cat.into_hub(HubConfig {
        queue_capacity: 64,
        window_ops: 2,
        window_ms: 60_000,
        ..HubConfig::default()
    });
    std::thread::scope(|s| {
        for p in 0..3 {
            let writer = hub.handle();
            let cfg = &cfg;
            s.spawn(move || {
                for i in 0..4 {
                    writer.try_submit(insert_batch(cfg, p * 100 + i)).unwrap();
                    if i % 2 == 1 {
                        let _ = writer.commit().expect("durable commit");
                    }
                }
                let _ = writer.commit().expect("final commit");
            });
        }
    });
    let HubInner::Durable(cat) = hub.shutdown() else { unreachable!("durable hub") };
    cat.verify_all().unwrap();
    let gen = cat.generation();
    drop(cat);

    let wal = dir.join(format!("wal-{gen:010}.wire"));
    let raw = std::fs::read(&wal).unwrap();
    let (spans, clean_end) = frame::scan_frames(&raw);
    assert_eq!(clean_end, raw.len(), "the shut-down log is clean");
    assert!(!spans.is_empty());
    // Decode every logged chunk (a tagged segment record): the replay
    // oracle.
    let batches: Vec<UpdateBatch> = spans
        .iter()
        .map(|&(s, e)| {
            match wire::from_slice::<wire::SegmentRecord<UpdateBatch>>(&raw[s..e])
                .expect("record decodes")
            {
                wire::SegmentRecord::Payload(b) => b,
                wire::SegmentRecord::Seal(_) => panic!("no rotation happened in this run"),
            }
        })
        .collect();
    let mut boundaries = vec![0usize];
    boundaries.extend(spans.iter().map(|&(_, payload_end)| payload_end + frame::TRAILER));

    let dir_img = temp_dir("group-matrix-img");
    for (i, &cut) in boundaries.iter().enumerate() {
        // Crash image: snapshots plus the truncated log.
        let _ = std::fs::remove_dir_all(&dir_img);
        std::fs::create_dir_all(&dir_img).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            if name.starts_with("snap-") {
                std::fs::copy(&path, dir_img.join(&name)).unwrap();
            }
        }
        std::fs::write(dir_img.join(wal.file_name().unwrap()), &raw[..cut]).unwrap();

        let recovered = DurableCatalog::open(&dir_img).unwrap();
        assert_eq!(recovered.recovery().replayed_batches, i, "boundary {i}");
        recovered.verify_all().unwrap();

        // Oracle: the same base state plus exactly the first i chunks.
        let mut oracle = ViewCatalog::new(base_store.clone());
        for (name, q) in view_defs() {
            oracle.register(name, &q).unwrap();
        }
        for b in &batches[..i] {
            let _ = oracle.apply_batch(b).unwrap();
        }
        assert_eq!(
            extents(recovered.catalog()),
            extents(&oracle),
            "boundary {i}: recovered state must equal the logged prefix"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir_img).unwrap();
}

/// WAL auto-rotation keeps working under hub traffic: the tail stays
/// bounded, generations advance, and recovery stays cheap and correct.
#[test]
fn hub_traffic_triggers_auto_rotation() {
    let cfg = bib_cfg();
    let dir = temp_dir("hub-rotate");
    let mut cat = durable_catalog(&dir, &cfg);
    cat.set_rotate_policy(RotatePolicy::records(2));
    let gen0 = cat.generation();
    let hub = cat.into_hub(HubConfig {
        queue_capacity: 64,
        window_ops: 1,
        window_ms: 60_000,
        ..HubConfig::default()
    });
    let writer = hub.handle();
    for i in 0..8 {
        writer.try_submit(insert_batch(&cfg, i)).unwrap();
        let _ = writer.commit().unwrap();
    }
    drop(writer);
    let HubInner::Durable(cat) = hub.shutdown() else { unreachable!("durable hub") };
    assert!(cat.generation() > gen0, "hub commits rotated the WAL");
    assert!(cat.wal_records() < 2, "the tail never outgrows the policy");
    cat.verify_all().unwrap();
    let want_books =
        cat.catalog().store().serialize_doc("bib.xml").unwrap().matches("<book").count();
    drop(cat);
    let cat = DurableCatalog::open(&dir).unwrap();
    assert_eq!(
        cat.catalog().store().serialize_doc("bib.xml").unwrap().matches("<book").count(),
        want_books
    );
    cat.verify_all().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A failing chunk surfaces on its own session only: the good session
/// commits untouched, the bad one gets the error, its chunk back in the
/// queue, and recovers after discarding.
#[test]
fn failed_chunk_isolated_to_its_session() {
    let cfg = bib_cfg();
    let mut cat = ViewCatalog::new(fresh_store(&cfg));
    for (name, q) in view_defs() {
        cat.register(name, &q).unwrap();
    }
    let hub = cat.into_hub(HubConfig {
        queue_capacity: 8,
        window_ops: 8,
        window_ms: 60_000,
        ..HubConfig::default()
    });
    let good = hub.handle();
    let bad = hub.handle();
    good.try_submit(insert_batch(&cfg, 0)).unwrap();
    let broken =
        viewsrv::UpdateOp::insert("bib.xml", "/bib", viewsrv::InsertPosition::Into, "<unclosed")
            .unwrap();
    bad.try_submit(UpdateBatch::new().with(broken)).unwrap();

    let receipt = good.commit().unwrap();
    assert_eq!(receipt.batches_applied, 1);
    let err = bad.commit().unwrap_err();
    assert!(matches!(err, IngestError::Catalog(_)), "{err:?}");
    assert_eq!(bad.queued_batches(), 1, "failing chunk back at the front");
    let dropped = bad.discard_queued();
    assert_eq!(dropped.len(), 1);
    let receipt = bad.commit().unwrap();
    assert_eq!(receipt.batches_applied, 0);
    drop(good);
    drop(bad);
    hub.shutdown().catalog().verify_all().unwrap();
}

/// ISSUE 5 satellite (regression): a drain round that panics while the
/// catalog is checked out must not deadlock the hub. Before the unwind
/// guard, the catalog hand-back never happened and `shutdown` looped on
/// the `ack` condvar forever. Now the guard restores the catalog,
/// surfaces a sticky error on the session whose chunk was mid-apply
/// (its effects are unknown, so it is *not* retried), requeues untouched
/// chunks, and wakes every waiter.
#[test]
fn shutdown_survives_a_panicking_drain_round() {
    let cfg = bib_cfg();
    let mut cat = ViewCatalog::new(fresh_store(&cfg));
    for (name, q) in view_defs() {
        cat.register(name, &q).unwrap();
    }
    let hub = cat.into_hub(HubConfig {
        queue_capacity: 8,
        window_ops: 8,
        window_ms: 60_000,
        inject_round_panic: true,
        ..HubConfig::default()
    });
    // Round-robin starts after the initial cursor (session 0), so the
    // first round visits session 1 first: the *second* handle's chunk is
    // the one mid-apply when the failpoint fires; session 0's chunk is
    // still pending and must requeue cleanly.
    let bystander = hub.handle();
    let hit = hub.handle();
    bystander.try_submit(insert_batch(&cfg, 0)).unwrap();
    hit.try_submit(insert_batch(&cfg, 1)).unwrap();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hub.drain_now()));
    assert!(unwound.is_err(), "the injected panic must surface");

    // The mid-apply session sees a sticky error instead of hanging, and
    // its poisoned chunk is gone (retrying could double-apply).
    let err = hit.commit().unwrap_err();
    assert!(
        matches!(&err, IngestError::Catalog(e) if e.to_string().contains("panicked")),
        "{err:?}"
    );
    let receipt = hit.commit().unwrap();
    assert_eq!(receipt.batches_applied, 0, "the mid-apply chunk was dropped, not retried");

    // The untouched session's chunk was requeued cleanly and commits.
    let receipt = bystander.commit().unwrap();
    assert_eq!((receipt.batches_submitted, receipt.batches_applied), (1, 1));
    drop(hit);
    drop(bystander);

    // The regression itself: shutdown completes and hands the catalog
    // back instead of deadlocking.
    hub.shutdown().catalog().verify_all().unwrap();
}

/// ISSUE 5 acceptance: producers keep committing through the hub while a
/// forced checkpoint runs. The checkpoint job is parked behind a wedged
/// one-worker pool, so the whole "during" phase runs with the snapshot
/// demonstrably still in flight — commits must neither hit QueueFull nor
/// stall for O(store) time (the rotation itself costs a seal + an empty
/// log create, not an encode of the store).
#[test]
fn producers_commit_during_forced_checkpoint_without_stalls() {
    // A store an order of magnitude past the other hub tests (so a
    // stop-the-world encode would be visibly slow) under *linear* views —
    // the quadratic self-join of `view_defs` would dominate every commit
    // with propagation cost and drown the signal this test measures.
    let cfg =
        datagen::BibConfig { books: 800, years: 6, priced_ratio: 0.8, extra_entries: 6, seed: 11 };
    let dir = temp_dir("ckpt-stall");
    let mut cat = DurableCatalog::open(&dir).unwrap();
    cat.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
    cat.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();
    cat.register("titles", r#"<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>"#)
        .unwrap();
    cat.register(
        "prices",
        r#"<r>{ for $e in doc("prices.xml")/prices/entry return <p>{$e/price}</p> }</r>"#,
    )
    .unwrap();
    let gen0 = cat.generation();
    // Wedge the checkpoint pool's only worker: every background snapshot
    // job stays queued until the test releases it.
    let pool = Executor::new(2);
    let (release, parked) = std::sync::mpsc::channel::<()>();
    let blocker = pool.spawn(move || parked.recv().ok());
    cat.set_checkpoint_pool(pool);
    // The 13th journaled record crosses the bound: commits 0..=9 are the
    // steady-state sample, the rotation fires inside the "during" phase.
    cat.set_rotate_policy(RotatePolicy::records(13));
    let hub = cat.into_hub(HubConfig {
        queue_capacity: 8,
        window_ops: 4,
        window_ms: 60_000,
        ..HubConfig::default()
    });
    let writer = hub.handle();
    let mut commit_once = |i: usize| -> std::time::Duration {
        let t0 = std::time::Instant::now();
        // Any QueueFull here fails the test — that is the "no QueueFull
        // burst" half of the acceptance criterion.
        writer.try_submit(insert_batch(&cfg, i)).expect("no backpressure burst");
        let _ = writer.commit().expect("durable commit");
        t0.elapsed()
    };
    let mut steady: Vec<std::time::Duration> = (0..10).map(&mut commit_once).collect();
    let during: Vec<std::time::Duration> = (10..30).map(&mut commit_once).collect();
    release.send(()).unwrap();
    blocker.wait();
    drop(writer);
    let HubInner::Durable(mut cat) = hub.shutdown() else { unreachable!("durable hub") };
    assert!(cat.generation() > gen0, "the forced checkpoint really fired mid-phase");
    cat.settle_checkpoint();
    assert_eq!(cat.last_checkpoint_error(), None);
    assert_eq!(cat.snapshot_generation(), cat.generation());
    cat.verify_all().unwrap();

    // Latency: every during-checkpoint commit stays within a small
    // multiple of the steady-state median (generous bounds — CI runners
    // are noisy — but far below an O(store) snapshot encode+fsync).
    steady.sort();
    let steady_median = steady[steady.len() / 2];
    let worst_during = during.iter().max().unwrap();
    let bound = steady_median * 25 + std::time::Duration::from_millis(100);
    assert!(
        *worst_during < bound,
        "a commit stalled during the checkpoint: worst {worst_during:?} vs steady median \
         {steady_median:?}"
    );

    let want_books =
        cat.catalog().store().serialize_doc("bib.xml").unwrap().matches("<book").count();
    drop(cat);
    let cat = DurableCatalog::open(&dir).unwrap();
    assert_eq!(
        cat.catalog().store().serialize_doc("bib.xml").unwrap().matches("<book").count(),
        want_books
    );
    cat.verify_all().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The other half of the unwind coverage: the round panics *after* a
/// chunk has already applied. That session's inflight count must still
/// release — its receipt arrives paired with a sticky durability-unknown
/// error — or its `commit()` would block on the ack condvar forever.
#[test]
fn panic_after_an_applied_chunk_releases_all_sessions() {
    let cfg = bib_cfg();
    let mut cat = ViewCatalog::new(fresh_store(&cfg));
    for (name, q) in view_defs() {
        cat.register(name, &q).unwrap();
    }
    let hub = cat.into_hub(HubConfig {
        queue_capacity: 8,
        window_ops: 8,
        window_ms: 60_000,
        inject_round_panic: true,
        inject_round_panic_at: 1,
        ..HubConfig::default()
    });
    // Round-robin visits session 1 first (the cursor starts at 0):
    // chunk 0 = `acked`'s (applies), chunk 1 = `hit`'s (panics
    // mid-apply), `untouched`'s chunk stays pending and requeues.
    let untouched = hub.handle();
    let acked = hub.handle();
    let hit = hub.handle();
    untouched.try_submit(insert_batch(&cfg, 0)).unwrap();
    acked.try_submit(insert_batch(&cfg, 1)).unwrap();
    hit.try_submit(insert_batch(&cfg, 2)).unwrap();

    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hub.drain_now()));
    assert!(unwound.is_err(), "the injected panic must surface");

    // The applied-but-unacknowledged session: sticky error first, then
    // the already-delivered receipt — and crucially, no hang.
    let err = acked.commit().unwrap_err();
    assert!(
        matches!(&err, IngestError::Catalog(e) if e.to_string().contains("durability is unknown")),
        "{err:?}"
    );
    let receipt = acked.commit().unwrap();
    assert_eq!((receipt.batches_submitted, receipt.batches_applied), (1, 1));

    // The mid-apply session: error, chunk dropped.
    let err = hit.commit().unwrap_err();
    assert!(matches!(&err, IngestError::Catalog(e) if e.to_string().contains("panicked")));
    assert_eq!(hit.commit().unwrap().batches_applied, 0);

    // The untouched session requeued cleanly and commits.
    assert_eq!(untouched.commit().unwrap().batches_applied, 1);
    drop(untouched);
    drop(acked);
    drop(hit);
    hub.shutdown().catalog().verify_all().unwrap();
}

//! Crash-recovery acceptance tests: kill/reopen equivalence over a seeded
//! `datagen` workload.
//!
//! The contract under test (ISSUE 3): for any crash point — every WAL
//! record boundary *and* mid-record torn writes — reopening with
//! `DurableCatalog::open` must reproduce extents **byte-identical** to an
//! uninterrupted run up to the last durable batch, `verify_all()` (the
//! §1.2 recompute oracle lifted to the service) must pass, and the
//! `RecoveryReport` must account for exactly the replayed records/ops and
//! the discarded torn suffix.

use viewsrv::{DurableCatalog, HubConfig, HubInner, UpdateBatch, ViewCatalog};
use wire::frame;
use xmlstore::Store;

const N_BATCHES: usize = 6;

fn bib_cfg() -> datagen::BibConfig {
    datagen::BibConfig { books: 40, years: 5, priced_ratio: 0.8, extra_entries: 4, seed: 7 }
}

/// (name, query) pairs covering the shapes the catalog routes differently:
/// bib-only selection, prices-only projection, the two-document join, and
/// the grouped/ordered running-example view.
fn view_defs() -> Vec<(&'static str, String)> {
    vec![
        (
            "y1900",
            r#"<result>{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "1900"
  return <hit>{$b/title}</hit>
}</result>"#
                .to_string(),
        ),
        (
            "prices",
            r#"<result>{
  for $e in doc("prices.xml")/prices/entry
  return <p>{$e/price}</p>
}</result>"#
                .to_string(),
        ),
        (
            "join",
            r#"<result>{
  for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
  where $b/title = $e/b-title
  return <pair>{$b/title}{$e/price}</pair>
}</result>"#
                .to_string(),
        ),
        (
            "grouped",
            r#"<result>{
  for $y in distinct-values(doc("bib.xml")/bib/book/@year)
  order by $y
  return <yGroup Y="{$y}">{
    for $b in doc("bib.xml")/bib/book
    where $y = $b/@year
    return $b/title
  }</yGroup>
}</result>"#
                .to_string(),
        ),
    ]
}

/// The seeded mixed workload: inserts, deletes, and price modifies, as
/// typed batches (parsed once — the same values the WAL journals).
fn workload(cfg: &datagen::BibConfig) -> Vec<UpdateBatch> {
    let mut scripts = Vec::new();
    for b in 0..N_BATCHES / 3 {
        scripts.push(datagen::insert_books_script(cfg, cfg.books + b * 2, 2, Some(1900)));
        scripts.push(datagen::modify_prices_script(b * 3, 2, "33.33"));
        scripts.push(datagen::delete_books_script(b * 2, 1));
    }
    scripts.iter().map(|s| UpdateBatch::from_script(s).expect("workload parses")).collect()
}

fn fresh_store(cfg: &datagen::BibConfig) -> Store {
    let mut s = Store::new();
    s.load_doc("bib.xml", &datagen::bib_xml(cfg)).unwrap();
    s.load_doc("prices.xml", &datagen::prices_xml(cfg)).unwrap();
    s
}

/// Extents of every view, in registration order.
fn extents(cat: &ViewCatalog, views: &[(&str, String)]) -> Vec<String> {
    views.iter().map(|(n, _)| cat.extent_xml(n).unwrap()).collect()
}

struct Reference {
    /// `extents[i]` = every view's XML after the first `i` batches.
    extents: Vec<Vec<String>>,
    /// Matching store states (for `same_content` checks).
    stores: Vec<Store>,
    /// `ops[i]` = typed ops in batch `i`.
    ops: Vec<usize>,
}

/// The uninterrupted oracle run: a plain in-memory catalog seeded exactly
/// like the durable one, capturing state after every batch prefix.
fn reference_run(cfg: &datagen::BibConfig, views: &[(&str, String)]) -> Reference {
    let mut cat = ViewCatalog::new(fresh_store(cfg));
    for (name, q) in views {
        cat.register(name, q).unwrap();
    }
    let batches = workload(cfg);
    let mut out = Reference {
        extents: vec![extents(&cat, views)],
        stores: vec![cat.store().clone()],
        ops: batches.iter().map(UpdateBatch::len).collect(),
    };
    for b in &batches {
        let _ = cat.apply_batch(b).unwrap();
        out.extents.push(extents(&cat, views));
        out.stores.push(cat.store().clone());
    }
    cat.verify_all().unwrap();
    out
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xqview-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Build the durable catalog in `dir`, run the full workload, and return
/// the WAL path of the final generation.
fn durable_run(dir: &std::path::Path, cfg: &datagen::BibConfig) -> std::path::PathBuf {
    let views = view_defs();
    let mut cat = DurableCatalog::open(dir).unwrap();
    cat.load_doc("bib.xml", &datagen::bib_xml(cfg)).unwrap();
    cat.load_doc("prices.xml", &datagen::prices_xml(cfg)).unwrap();
    for (name, q) in &views {
        cat.register(name, q).unwrap();
    }
    for b in workload(cfg) {
        let _ = cat.apply_batch(&b).unwrap();
    }
    assert_eq!(cat.wal_records(), N_BATCHES);
    cat.verify_all().unwrap();
    let wal = dir.join(format!("wal-{:010}.wire", cat.generation()));
    assert!(wal.exists());
    wal
}

/// Copy the snapshot files of `src` into a fresh `dst`, installing `wal`
/// bytes truncated to `cut` — a simulated crash image.
fn crash_image(src: &std::path::Path, dst: &std::path::Path, wal: &std::path::Path, cut: usize) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if name.starts_with("snap-") {
            std::fs::copy(&path, dst.join(&name)).unwrap();
        }
    }
    let raw = std::fs::read(wal).unwrap();
    std::fs::write(dst.join(wal.file_name().unwrap()), &raw[..cut]).unwrap();
}

/// The crash matrix: every record boundary, plus torn mid-record images
/// just after and just before each boundary.
#[test]
fn crash_at_every_wal_boundary_recovers_byte_identical() {
    let cfg = bib_cfg();
    let views = view_defs();
    let reference = reference_run(&cfg, &views);

    let dir_a = temp_dir("matrix-src");
    let wal = durable_run(&dir_a, &cfg);
    let raw = std::fs::read(&wal).unwrap();
    let (spans, clean_end) = frame::scan_frames(&raw);
    assert_eq!(spans.len(), N_BATCHES);
    assert_eq!(clean_end, raw.len(), "the source log must be clean");
    // boundaries[i] = byte length of a log holding exactly i records.
    let mut boundaries = vec![0usize];
    boundaries.extend(spans.iter().map(|&(_, payload_end)| payload_end + frame::TRAILER));

    let dir_b = temp_dir("matrix-img");
    for (i, &cut) in boundaries.iter().enumerate() {
        // Clean crash exactly at a record boundary.
        crash_image(&dir_a, &dir_b, &wal, cut);
        let cat = DurableCatalog::open(&dir_b).unwrap();
        let r = cat.recovery();
        assert_eq!(r.replayed_batches, i, "boundary {i}");
        assert_eq!(
            r.replayed_ops,
            reference.ops[..i].iter().sum::<usize>(),
            "ops accounting at boundary {i}"
        );
        assert_eq!(r.discarded_bytes, 0, "boundary {i} is not torn");
        assert_eq!(extents(cat.catalog(), &views), reference.extents[i], "boundary {i}");
        assert!(cat.catalog().store().same_content(&reference.stores[i]), "store at boundary {i}");
        cat.verify_all().unwrap();

        // Torn crashes strictly inside the next record.
        if i < N_BATCHES {
            let next = boundaries[i + 1];
            for torn_cut in [cut + 1, cut + (next - cut) / 2, next - 1] {
                crash_image(&dir_a, &dir_b, &wal, torn_cut);
                let cat = DurableCatalog::open(&dir_b).unwrap();
                let r = cat.recovery();
                assert_eq!(r.replayed_batches, i, "torn after boundary {i} (cut {torn_cut})");
                assert_eq!(r.discarded_bytes, (torn_cut - cut) as u64, "torn bytes discarded");
                assert_eq!(extents(cat.catalog(), &views), reference.extents[i]);
                cat.verify_all().unwrap();
            }
        }
    }
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

/// A reopened catalog is not a dead end: it keeps ingesting, checkpoints,
/// and recovers again — and a checkpoint resets the replay cost to zero.
#[test]
fn recovered_catalog_continues_and_checkpoints() {
    let cfg = bib_cfg();
    let views = view_defs();
    let dir = temp_dir("continue");

    let _ = durable_run(&dir, &cfg);
    let mut cat = DurableCatalog::open(&dir).unwrap();
    assert_eq!(cat.recovery().replayed_batches, N_BATCHES);

    // Keep writing after recovery.
    let extra =
        UpdateBatch::from_script(&datagen::insert_books_script(&cfg, 900, 2, Some(1901))).unwrap();
    let _ = cat.apply_batch(&extra).unwrap();
    assert_eq!(cat.wal_records(), N_BATCHES + 1);

    // Checkpoint: replay cost drops to zero, state is preserved.
    cat.snapshot().unwrap();
    assert_eq!(cat.wal_records(), 0);
    let want = extents(cat.catalog(), &views);
    let want_store = cat.catalog().store().clone();
    drop(cat);

    let cat = DurableCatalog::open(&dir).unwrap();
    assert_eq!(cat.recovery().replayed_batches, 0, "checkpoint absorbed the tail");
    assert_eq!(cat.recovery().snapshot_views, views.len());
    assert_eq!(extents(cat.catalog(), &views), want);
    assert!(cat.catalog().store().same_content(&want_store));
    cat.verify_all().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Hub sessions over a durable catalog crash-recover like direct applies:
/// the WAL holds the coalesced chunks a commit applied, and a torn tail
/// never loses a committed chunk.
#[test]
fn journaled_session_crash_matrix() {
    let cfg = bib_cfg();
    let views = view_defs();
    let dir = temp_dir("session");

    let mut cat = DurableCatalog::open(&dir).unwrap();
    cat.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
    cat.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();
    for (name, q) in &views {
        cat.register(name, q).unwrap();
    }
    // The time window outlasts the test: every chunk is the commit's own.
    let hub = cat.into_hub(HubConfig {
        queue_capacity: 16,
        window_ops: 4,
        window_ms: 60_000,
        ..HubConfig::default()
    });
    let session = hub.handle();
    for b in workload(&cfg) {
        session.try_submit(b).unwrap();
    }
    let receipt = session.commit().unwrap();
    assert!(receipt.batches_applied < receipt.batches_submitted, "windows coalesced");
    let applied = receipt.batches_applied;
    drop(session);
    let HubInner::Durable(cat) = hub.shutdown() else { unreachable!("durable hub") };
    assert_eq!(cat.wal_records(), applied);
    let want = extents(cat.catalog(), &views);
    let gen = cat.generation();
    drop(cat);

    let wal = dir.join(format!("wal-{gen:010}.wire"));
    let raw = std::fs::read(&wal).unwrap();
    // Tear the last chunk mid-record: recovery must come back at the
    // previous commit, not lose everything.
    let (spans, _) = frame::scan_frames(&raw);
    assert_eq!(spans.len(), applied);
    let prev_end = spans[applied - 2].1 + frame::TRAILER;
    let dir_img = temp_dir("session-img");
    crash_image(&dir, &dir_img, &wal, prev_end + 2);
    let cat = DurableCatalog::open(&dir_img).unwrap();
    assert_eq!(cat.recovery().replayed_batches, applied - 1);
    assert!(cat.recovery().discarded_bytes > 0);
    cat.verify_all().unwrap();

    // And the untorn image reproduces the session's final state exactly.
    let cat = DurableCatalog::open(&dir).unwrap();
    assert_eq!(cat.recovery().replayed_batches, applied);
    assert_eq!(extents(cat.catalog(), &views), want);
    cat.verify_all().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir_img).unwrap();
}

/// Copy every file of `src` into a fresh `dst` — the base of each
/// rotation crash image (surgery then removes/truncates files to land
/// exactly between two rotation steps).
fn copy_dir(src: &std::path::Path, dst: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dst.join(path.file_name().unwrap())).unwrap();
    }
}

fn wal_file(dir: &std::path::Path, gen: u64) -> std::path::PathBuf {
    dir.join(format!("wal-{gen:010}.wire"))
}

fn snap_file(dir: &std::path::Path, gen: u64) -> std::path::PathBuf {
    dir.join(format!("snap-{gen:010}.wire"))
}

/// ISSUE 5: the crash matrix extended to every **background-rotation
/// boundary**. One run with a forced background checkpoint produces the
/// final file set (previous snapshot, sealed log, new snapshot, new log
/// with post-rotation records); because the rotation only ever *creates*
/// files until the final prune, file surgery on a copy reconstructs each
/// intermediate crash image:
///
/// 1. mid-seal — the seal record itself is torn;
/// 2. sealed, died before the successor log was created;
/// 3. sealed + successor log, snapshot encode still in flight (at every
///    record boundary of the successor, and torn mid-record);
/// 4. snapshot renamed, old generation not yet pruned — `open` must pick
///    the new snapshot and must **not** replay the pre-snapshot WAL
///    against it.
///
/// Every image must recover byte-identical to the uninterrupted
/// reference prefix, with `verify_all()` green.
#[test]
fn crash_at_every_rotation_boundary_recovers_byte_identical() {
    let cfg = bib_cfg();
    let views = view_defs();
    let reference = reference_run(&cfg, &views);

    let dir = temp_dir("rotation-src");
    let mut cat = DurableCatalog::open(&dir).unwrap();
    cat.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
    cat.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();
    for (name, q) in &views {
        cat.register(name, q).unwrap();
    }
    let batches = workload(&cfg);
    let pre = 3usize;
    for b in &batches[..pre] {
        let _ = cat.apply_batch(b).unwrap();
    }
    let sealed_gen = cat.generation();
    let new_gen = cat.checkpoint().unwrap().expect("forced background checkpoint");
    assert_eq!(new_gen, sealed_gen + 1);
    cat.settle_checkpoint();
    assert_eq!(cat.last_checkpoint_error(), None);
    for b in &batches[pre..] {
        let _ = cat.apply_batch(b).unwrap();
    }
    cat.verify_all().unwrap();
    drop(cat);

    let raw_sealed = std::fs::read(wal_file(&dir, sealed_gen)).unwrap();
    let raw_new = std::fs::read(wal_file(&dir, new_gen)).unwrap();
    let (sealed_spans, sealed_clean) = frame::scan_frames(&raw_sealed);
    assert_eq!(sealed_clean, raw_sealed.len());
    assert_eq!(sealed_spans.len(), pre + 1, "3 batch records + the seal");
    let (new_spans, new_clean) = frame::scan_frames(&raw_new);
    assert_eq!(new_clean, raw_new.len());
    assert_eq!(new_spans.len(), batches.len() - pre);

    let img = temp_dir("rotation-img");

    // ── 4. Steady state after the rename, before/after the prune: the
    // sealed predecessor is still on disk; open keys off the newest
    // snapshot and replays only the new generation's records.
    copy_dir(&dir, &img);
    let cat = DurableCatalog::open(&img).unwrap();
    let r = cat.recovery();
    assert_eq!(r.snapshot_seq, new_gen);
    assert_eq!(r.chained_segments, 0, "no chaining once the snapshot landed");
    assert_eq!(r.replayed_batches, batches.len() - pre, "pre-snapshot WAL not replayed");
    assert_eq!(extents(cat.catalog(), &views), reference.extents[batches.len()]);
    assert!(cat.catalog().store().same_content(&reference.stores[batches.len()]));
    cat.verify_all().unwrap();
    drop(cat);

    // ── 3. Snapshot encode in flight: sealed log + successor log, no
    // new snapshot — at every record boundary of the successor, plus a
    // torn mid-record cut after each.
    let mut boundaries = vec![0usize];
    boundaries.extend(new_spans.iter().map(|&(_, payload_end)| payload_end + frame::TRAILER));
    for (k, &cut) in boundaries.iter().enumerate() {
        for torn_extra in [0usize, 2] {
            let cut = cut + torn_extra;
            if torn_extra > 0 && k == boundaries.len() - 1 {
                continue; // nothing to tear past the last record
            }
            copy_dir(&dir, &img);
            std::fs::remove_file(snap_file(&img, new_gen)).unwrap();
            std::fs::write(wal_file(&img, new_gen), &raw_new[..cut]).unwrap();
            let cat = DurableCatalog::open(&img).unwrap();
            let r = cat.recovery();
            assert_eq!(r.snapshot_seq, sealed_gen, "falls back to the previous snapshot");
            assert_eq!(r.chained_segments, 1, "the sealed generation chain-replays");
            assert_eq!(r.replayed_batches, pre + k, "boundary {k} (+{torn_extra})");
            assert_eq!(r.discarded_bytes, torn_extra as u64);
            assert_eq!(extents(cat.catalog(), &views), reference.extents[pre + k]);
            assert!(cat.catalog().store().same_content(&reference.stores[pre + k]));
            cat.verify_all().unwrap();
        }
    }

    // ── 2. Died between the seal fsync and creating the successor log:
    // the chain ends at a missing file, which becomes the fresh active
    // tail — and the catalog keeps ingesting from there.
    copy_dir(&dir, &img);
    std::fs::remove_file(snap_file(&img, new_gen)).unwrap();
    std::fs::remove_file(wal_file(&img, new_gen)).unwrap();
    let mut cat = DurableCatalog::open(&img).unwrap();
    let r = cat.recovery();
    assert_eq!((r.snapshot_seq, r.chained_segments, r.replayed_batches), (sealed_gen, 1, pre));
    assert_eq!(cat.generation(), new_gen, "the seal's successor is the active generation");
    assert_eq!(extents(cat.catalog(), &views), reference.extents[pre]);
    for b in &batches[pre..] {
        let _ = cat.apply_batch(b).unwrap();
    }
    assert_eq!(extents(cat.catalog(), &views), reference.extents[batches.len()]);
    cat.verify_all().unwrap();
    drop(cat);

    // ── 1. Mid-seal: the seal record itself is torn. The rotation never
    // happened — the old generation is simply the active tail with a
    // discarded suffix.
    let seal_frame_start = sealed_spans[pre].0 - frame::HEADER;
    for cut in [seal_frame_start + 1, raw_sealed.len() - 1] {
        copy_dir(&dir, &img);
        std::fs::remove_file(snap_file(&img, new_gen)).unwrap();
        std::fs::remove_file(wal_file(&img, new_gen)).unwrap();
        std::fs::write(wal_file(&img, sealed_gen), &raw_sealed[..cut]).unwrap();
        let cat = DurableCatalog::open(&img).unwrap();
        let r = cat.recovery();
        assert_eq!((r.snapshot_seq, r.chained_segments, r.replayed_batches), (sealed_gen, 0, pre));
        assert_eq!(cat.generation(), sealed_gen, "no seal, no rotation");
        assert!(r.discarded_bytes > 0, "the torn seal was discarded");
        assert_eq!(extents(cat.catalog(), &views), reference.extents[pre]);
        assert!(cat.catalog().store().same_content(&reference.stores[pre]));
        cat.verify_all().unwrap();
    }

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&img).unwrap();
}

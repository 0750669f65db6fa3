//! Durable catalog walkthrough: journaled ingestion, a simulated crash,
//! and snapshot + WAL-replay recovery.
//!
//! ```sh
//! cargo run --release --example durable
//! ```

use xqview::viewsrv::{DurableCatalog, HubConfig, HubInner};
use xqview::xquery_lang::InsertPosition;
use xqview::{UpdateBatch, UpdateOp};

fn main() {
    let dir = std::env::temp_dir().join(format!("xqview-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ── Process 1: build a catalog, ingest through a hub session (every
    // coalesced chunk is journaled before it applies).
    {
        let mut cat = DurableCatalog::open(&dir).expect("open catalog dir");
        cat.load_doc(
            "bib.xml",
            r#"<bib><book year="1994"><title>TCP/IP Illustrated</title></book></bib>"#,
        )
        .expect("load");
        cat.register(
            "titles",
            r#"<result>{ for $b in doc("bib.xml")/bib/book return $b/title }</result>"#,
        )
        .expect("register");

        let hub = cat.into_hub(HubConfig { window_ops: 4, ..HubConfig::default() });
        let session = hub.handle();
        for i in 0..6 {
            let frag = format!(r#"<book year="200{i}"><title>Volume {i}</title></book>"#);
            let op =
                UpdateOp::insert("bib.xml", "/bib", InsertPosition::Into, &frag).expect("typed op");
            session.try_submit(UpdateBatch::new().with(op)).expect("queue has room");
        }
        let receipt = session.commit().expect("durable commit");
        drop(session);
        let HubInner::Durable(cat) = hub.shutdown() else { unreachable!("durable hub") };
        println!(
            "committed {} submissions as {} journaled chunk(s); WAL holds {} record(s), {} bytes",
            receipt.batches_submitted,
            receipt.batches_applied,
            cat.wal_records(),
            cat.wal_bytes(),
        );
        // Dropping without a checkpoint simulates a crash: the snapshot is
        // stale and the committed batches exist only in the log.
    }

    // ── Process 2: recover. The snapshot restores store + extents without
    // recomputation; the WAL tail replays through apply_batch.
    let cat = DurableCatalog::open(&dir).expect("recover");
    let r = cat.recovery();
    println!(
        "recovered generation {} ({} view(s) from snapshot, {} batch(es)/{} op(s) replayed, \
         {} torn byte(s) discarded)",
        r.snapshot_seq, r.snapshot_views, r.replayed_batches, r.replayed_ops, r.discarded_bytes,
    );
    cat.verify_all().expect("every extent equals its recomputation");
    println!("verify_all: ok");
    println!("titles = {}", cat.catalog().extent_xml("titles").expect("view exists"));

    // ── Checkpoint: rotate the generation, emptying the log.
    let mut cat = cat;
    let generation = cat.snapshot().expect("checkpoint");
    println!("checkpointed to generation {generation}; WAL now {} record(s)", cat.wal_records());

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

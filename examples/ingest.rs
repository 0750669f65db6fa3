//! The typed update API and the batched ingestion front: a writer
//! streaming small typed batches into its bounded hub session queue,
//! coalesced into windowed applications with explicit backpressure and
//! per-commit receipts.
//!
//! ```sh
//! cargo run --release --example ingest
//! ```

use xqview::viewsrv::{HubConfig, IngestError, SessionReceipt, UpdateBatch, UpdateOp, ViewCatalog};
use xqview::xquery_lang::{CmpOp, InsertPosition};
use xqview::{datagen, Store};

fn main() {
    let cfg =
        datagen::BibConfig { books: 300, years: 6, priced_ratio: 0.8, extra_entries: 10, seed: 7 };
    let mut store = Store::new();
    store.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
    store.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();

    let mut cat = ViewCatalog::new(store);
    cat.register(
        "y1900",
        r#"<result>{ for $b in doc("bib.xml")/bib/book where $b/@year = "1900"
            return <hit>{$b/title}</hit> }</result>"#,
    )
    .unwrap();
    cat.register(
        "prices",
        r#"<result>{ for $e in doc("prices.xml")/prices/entry return <p>{$e/price}</p> }</result>"#,
    )
    .unwrap();
    cat.register(
        "join",
        r#"<result>{
            for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
            where $b/title = $e/b-title
            return <pair>{$b/title}{$e/price}</pair> }</result>"#,
    )
    .unwrap();

    // Typed ops, no script text: each "writer" builds its batch directly.
    let writer_batches: Vec<UpdateBatch> = (0..12)
        .map(|i| {
            let frag = format!(
                r#"<book year="19{:02}"><title>Streamed Volume {i}</title></book>"#,
                i % 6,
            );
            UpdateBatch::new()
                .with(UpdateOp::insert("bib.xml", "/bib", InsertPosition::Into, &frag).unwrap())
        })
        .chain(std::iter::once(
            UpdateBatch::new().with(
                UpdateOp::delete("bib.xml", "/bib/book")
                    .unwrap()
                    .filter("@year", CmpOp::Eq, "1905")
                    .unwrap(),
            ),
        ))
        .collect();

    // A small queue + window keeps memory bounded and shows backpressure:
    // when the queue fills, the producer commits and retries. The time
    // window is long so this one-writer demo fills its queue before the
    // background drain would run.
    let hub = cat.into_hub(HubConfig {
        queue_capacity: 4,
        window_ops: 8,
        window_ms: 60_000,
        ..HubConfig::default()
    });
    let writer = hub.handle();
    let report = |r: SessionReceipt| {
        println!(
            "  {} submissions coalesced into {} applications ({} ops, {} resolved) -> views \
             {:?}  validate {:>7.3}ms  propagate {:>7.3}ms  apply {:>7.3}ms",
            r.batches_submitted,
            r.batches_applied,
            r.ops,
            r.resolved,
            r.views_touched,
            r.stats.validate.as_secs_f64() * 1e3,
            r.stats.propagate.as_secs_f64() * 1e3,
            r.stats.apply.as_secs_f64() * 1e3,
        );
    };
    for batch in writer_batches {
        match writer.try_submit(batch) {
            Ok(()) => {}
            Err(IngestError::QueueFull { batch, capacity }) => {
                println!("queue full at {capacity}; committing…");
                report(writer.commit().unwrap());
                writer.try_submit(batch).unwrap();
            }
            Err(e) => panic!("{e}"),
        }
    }
    println!("final commit:");
    report(writer.commit().unwrap());
    drop(writer);

    let inner = hub.shutdown();
    inner.catalog().verify_all().expect("every extent equals its recomputation");
    println!("verify_all: every extent equals its from-scratch recomputation.");
}

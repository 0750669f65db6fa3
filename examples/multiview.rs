//! Multi-view catalog quickstart: several materialized views over one
//! shared store, maintained through a streamed update workload with shared
//! validation, relevancy routing, and parallel apply.
//!
//! ```sh
//! cargo run --release --example multiview
//! ```

use xqview::{datagen, Store, UpdateBatch, ViewCatalog};

fn main() {
    // Shared sources: a generated bib/prices pair.
    let cfg =
        datagen::BibConfig { books: 200, years: 8, priced_ratio: 0.8, extra_entries: 10, seed: 11 };
    let mut store = Store::new();
    store.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
    store.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();

    // One catalog, several views: two bib-only selections, a prices-only
    // projection, the two-document join, and the grouped running example.
    let mut cat = ViewCatalog::new(store);
    cat.register(
        "y1900",
        r#"<result>{ for $b in doc("bib.xml")/bib/book where $b/@year = "1900"
            return <hit>{$b/title}</hit> }</result>"#,
    )
    .unwrap();
    cat.register(
        "y1903",
        r#"<result>{ for $b in doc("bib.xml")/bib/book where $b/@year = "1903"
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
    cat.register(
        "grouped",
        r#"<result>{
            for $y in distinct-values(doc("bib.xml")/bib/book/@year)
            order by $y
            return <yGroup Y="{$y}"><books>{
                for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
                where $y = $b/@year and $b/title = $e/b-title
                return <entry>{$b/title}{$e/price}</entry> }</books></yGroup> }</result>"#,
    )
    .unwrap();
    println!("registered views: {:?}", cat.view_names());
    for doc in cat.indexed_docs() {
        println!("relevancy index:  {doc} -> {:?}", cat.views_for_doc(doc));
    }
    println!();

    // Stream a generated workload: each batch is resolved and validated
    // once, then routed only to the views it can affect.
    let workload = [
        datagen::insert_books_script(&cfg, cfg.books, 3, Some(1900)),
        datagen::modify_prices_script(0, 4, "19.99"),
        datagen::delete_books_script(4, 2),
        datagen::insert_books_script(&cfg, cfg.books + 3, 2, Some(1903)),
        datagen::delete_year_script(1901),
    ];
    for (i, script) in workload.iter().enumerate() {
        let b = cat.apply_batch(&UpdateBatch::from_script(script).unwrap()).unwrap().stats;
        println!(
            "batch {i}: {:>2} updates  routed {:>2}  skipped {:>2}  \
             validate {:>7.3}ms  propagate {:>7.3}ms  apply {:>7.3}ms",
            b.updates_seen,
            b.views_routed,
            b.views_skipped,
            b.validate.as_secs_f64() * 1e3,
            b.propagate.as_secs_f64() * 1e3,
            b.apply.as_secs_f64() * 1e3,
        );
    }

    cat.verify_all().expect("every extent equals its recomputation");
    let s = cat.stats();
    println!(
        "\nservice totals: {} batches, {} updates, {} view-propagations, {} skipped, \
         {} fast modifies, {} widened",
        s.batches,
        s.updates_seen,
        s.views_routed,
        s.views_skipped,
        s.fast_modifies,
        s.widened_modifies
    );
    println!(
        "per-phase wall:  validate {:?}  propagate {:?}  apply {:?}",
        s.validate, s.propagate, s.apply
    );
    println!(
        "\ny1900 extent is {} bytes; grouped extent is {} bytes — all verified against recompute.",
        cat.extent_xml("y1900").unwrap().len(),
        cat.extent_xml("grouped").unwrap().len()
    );
}

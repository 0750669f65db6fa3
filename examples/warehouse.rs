//! Data-warehousing scenario (the paper's §1.1 motivation): a large derived
//! repository kept fresh under batched heterogeneous updates, comparing
//! incremental maintenance against full recomputation.
//!
//! ```sh
//! cargo run --release --example warehouse
//! ```

use std::time::Instant;
use xqview::{datagen, Store, UpdateBatch, ViewCatalog};

const VIEW: &str = r#"<catalog>{
  for $y in distinct-values(doc("bib.xml")/bib/book/@year)
  order by $y
  return
    <yearGroup Y="{$y}">
      <priced>{
        for $b in doc("bib.xml")/bib/book,
            $e in doc("prices.xml")/prices/entry
        where $y = $b/@year and $b/title = $e/b-title
        return <item>{$b/title}{$e/price}</item>
      }</priced>
    </yearGroup>
}</catalog>"#;

fn main() {
    for books in [200usize, 400, 800] {
        let cfg = datagen::BibConfig {
            books,
            years: 12,
            priced_ratio: 0.8,
            extra_entries: books / 10,
            seed: 11,
        };
        let mut store = Store::new();
        store.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
        store.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();

        let t0 = Instant::now();
        let mut cat = ViewCatalog::new(store);
        cat.register("v", VIEW).unwrap();
        let initial = t0.elapsed();

        // A warehouse refresh batch: new arrivals, retirements, repricing.
        let mut batch = String::new();
        batch.push_str(&datagen::insert_books_script(&cfg, books, 5, Some(1903)));
        batch.push_str(&datagen::delete_books_script(3, 3));
        batch.push_str(&datagen::modify_prices_script(20, 4, "19.99"));

        let t1 = Instant::now();
        let stats = cat.apply_batch(&UpdateBatch::from_script(&batch).unwrap()).unwrap().stats;
        let incremental = t1.elapsed();

        // The oracle recomputes from scratch: its time is the baseline.
        let t2 = Instant::now();
        cat.verify_all().unwrap();
        let recompute = t2.elapsed();
        println!("books={books:5}  initial={initial:>10.2?}  incremental={incremental:>10.2?}  recompute={recompute:>10.2?}  (validate {:?}, propagate {:?}, apply {:?})",
                 stats.validate, stats.propagate, stats.apply);
    }
    println!("\nincremental refresh equals recomputation at every scale  ✓");
}

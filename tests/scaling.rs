//! The paper's headline, as a count: maintaining a view for one inserted
//! or deleted book does work that tracks the update's *join neighbourhood*
//! — the price entries with its title, the books of its year — and not the
//! size of the documents.
//!
//! `ExecStats::source_rows` counts every tuple an IMP term binds out of
//! stored (non-delta) document state and `ExecStats::index_probes` every
//! path-value index lookup; both reach each view's `MaintStats::exec`.
//! The documents grow 4× (500 → 2000 books) with the year domain growing
//! alongside, so a year keeps 50 books, 40 of them priced: the grouped
//! view's delta for a book of year Y *is* the whole Y group under counting
//! semantics (Ch. 6), so the group is the neighbourhood that is held fixed.
//! Both counters must then come out identical at the two sizes, at a
//! one-lane and an eight-lane pool, with every extent byte-identical to
//! its recomputation.

use xqview::datagen::{self, BibConfig};
use xqview::exec::Executor;
use xqview::xquery_lang::{CmpOp, InsertPosition};
use xqview::{Store, UpdateBatch, UpdateOp, ViewCatalog};

const JOIN_VIEW: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
  where $b/title = $e/b-title
  return <pair>{$b/title}{$e/price}</pair>
}</result>"#;

const GROUPED_VIEW: &str = r#"<result>{
  for $y in distinct-values(doc("bib.xml")/bib/book/@year)
  order by $y
  return
    <yGroup Y="{$y}">
      <books>{
        for $b in doc("bib.xml")/bib/book,
            $e in doc("prices.xml")/prices/entry
        where $y = $b/@year and $b/title = $e/b-title
        return <entry>{$b/title}{$e/price}</entry>
      }</books>
    </yGroup>
}</result>"#;

const BOOKS_PER_YEAR: usize = 50;

/// (source_rows, index_probes) per view after one insert and one delete of
/// a priced book of year 1900, and the extents they leave.
fn one_book_in_and_out(books: usize, lanes: usize) -> (Vec<(u64, u64)>, Vec<String>) {
    let cfg = BibConfig {
        books,
        years: books / BOOKS_PER_YEAR,
        priced_ratio: 0.8,
        extra_entries: 8,
        seed: 17,
    };
    let mut store = Store::new();
    store.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
    store.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();
    let mut cat = ViewCatalog::new(store);
    cat.set_pool(Executor::new(lanes));
    cat.register("join", JOIN_VIEW).unwrap();
    cat.register("grouped", GROUPED_VIEW).unwrap();

    let book = "<book year=\"1900\"><title>Unlisted Volume 0003</title>\
                <author><last>L</last><first>F</first></author></book>";
    let after = format!("/bib/book[{}]", books / 2);
    let insert = UpdateOp::insert("bib.xml", &after, InsertPosition::After, book).unwrap();
    let delete = UpdateOp::delete("bib.xml", "/bib/book")
        .and_then(|op| op.filter("title", CmpOp::Eq, "Unlisted Volume 0003"))
        .unwrap();
    for op in [insert, delete] {
        let receipt = cat.apply_batch(&UpdateBatch::new().with(op)).unwrap();
        assert_eq!(receipt.resolved, 1, "{books} books: one book in, the same book out");
        assert_eq!(receipt.views_touched, ["join", "grouped"]);
        cat.verify_all().unwrap();
    }
    let views = ["join", "grouped"];
    let counters =
        views.map(|v| cat.view_stats(v).unwrap().exec).map(|e| (e.source_rows, e.index_probes));
    (counters.to_vec(), views.map(|v| cat.extent_xml(v).unwrap()).to_vec())
}

#[test]
fn maintenance_counters_are_flat_in_document_size() {
    let (small, _) = one_book_in_and_out(500, 1);
    let (large, large_extents) = one_book_in_and_out(2000, 1);
    assert_eq!(small, large, "(source_rows, index_probes) of [join, grouped]: 500 vs 2000 books");

    // The index did the work, and it was update-sized: the join view looks
    // up one title per round; the grouped view walks one year group.
    let [(join_rows, join_probes), (grouped_rows, grouped_probes)] = large[..] else { panic!() };
    assert!(join_probes >= 2 && join_rows <= 4, "join: {join_rows} rows, {join_probes} probes");
    assert!(grouped_probes >= 2, "grouped: {grouped_probes} probes");
    assert!(
        grouped_rows <= 16 * BOOKS_PER_YEAR as u64,
        "grouped: {grouped_rows} rows for a year of {BOOKS_PER_YEAR} books"
    );

    // Pooled execution is a pure speed-up: same counts, same bytes.
    let (wide, wide_extents) = one_book_in_and_out(2000, 8);
    assert_eq!(wide, large, "pool 8 vs pool 1 counters");
    assert_eq!(wide_extents, large_extents, "pool 8 vs pool 1 extents");
}

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
//!
//! The Apply side has its own count: `MaintStats::extent_nodes_copied`,
//! the extent nodes Apply had to copy because a published epoch still
//! shared them. Extents are persistent trees, so a commit behind a pinned
//! epoch copies only what its delta touches — the join view's root; the
//! grouped view's year group, which is that view's whole delta — flat in
//! document size, and every untouched subtree stays shared between the
//! two epochs.

use std::collections::HashSet;
use std::sync::Arc;
use xqview::datagen::{self, BibConfig};
use xqview::exec::Executor;
use xqview::viewsrv::{Epoch, HubConfig};
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
const VIEWS: [&str; 2] = ["join", "grouped"];

/// Both views over `books` books, and the insert and the delete of one
/// priced book of year 1900.
fn catalog_and_ops(books: usize, lanes: usize) -> (ViewCatalog, [UpdateOp; 2]) {
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
    (cat, [insert, delete])
}

/// (source_rows, index_probes) per view after the insert and the delete,
/// and the extents they leave.
fn one_book_in_and_out(books: usize, lanes: usize) -> (Vec<(u64, u64)>, Vec<String>) {
    let (mut cat, ops) = catalog_and_ops(books, lanes);
    for op in ops {
        let receipt = cat.apply_batch(&UpdateBatch::new().with(op)).unwrap();
        assert_eq!(receipt.resolved, 1, "{books} books: one book in, the same book out");
        assert_eq!(receipt.views_touched, ["join", "grouped"]);
        cat.verify_all().unwrap();
    }
    let counters =
        VIEWS.map(|v| cat.view_stats(v).unwrap().exec).map(|e| (e.source_rows, e.index_probes));
    (counters.to_vec(), VIEWS.map(|v| cat.extent_xml(v).unwrap()).to_vec())
}

/// Commit the insert, then the delete, through a volatile hub while a
/// reader pins the epoch before each commit. Returns the extent nodes each
/// commit copied, `[join, grouped]` per op, after checking two things: the
/// copies stay within the delta (for `join` the root above the new or
/// removed pair; for `grouped` the root plus the year-1900 group, which is
/// what its delta carries under counting semantics), and every top-level
/// child of `join` the commit did not touch is the very same node in the
/// pinned and the new epoch.
fn copies_behind_a_pinned_epoch(books: usize) -> Vec<[u64; 2]> {
    let (cat, ops) = catalog_and_ops(books, 1);
    let hub = cat.into_hub(HubConfig::default());
    let mut rh = hub.read_handle();
    let writer = hub.handle();
    let copied = || {
        hub.with_catalog(|c| VIEWS.map(|v| c.view_stats(v).unwrap().extent_nodes_copied)).unwrap()
    };
    let mut per_op = Vec::new();
    for op in ops {
        let (pinned, before) = (rh.pin(), copied());
        writer.try_submit(UpdateBatch::new().with(op)).unwrap();
        let _ = writer.commit().unwrap();
        let (fresh, after) = (rh.pin(), copied());
        assert!(fresh.seq() > pinned.seq(), "the commit published a new epoch");
        let copies = [after[0] - before[0], after[1] - before[1]];
        per_op.push(copies);
        let year_group = |e: &Epoch| {
            let root = &e.extent("grouped").unwrap().roots[0];
            root.children.iter().find(|g| g.data.attr("Y") == Some("1900")).map_or(0, |g| g.size())
        };
        let delta_nodes = 1 + year_group(&pinned).max(year_group(&fresh));
        assert!(copies[0] <= 1, "{books} books: join copied {}", copies[0]);
        assert!(copies[1] <= delta_nodes as u64, "{books} books: grouped copied {copies:?}");

        let children = |e: &Epoch| e.extent("join").unwrap().roots[0].children.clone();
        let (old, new) = (children(&pinned), children(&fresh));
        let old_ptrs: HashSet<_> = old.iter().map(Arc::as_ptr).collect();
        let shared = new.iter().filter(|c| old_ptrs.contains(&Arc::as_ptr(c))).count();
        assert_eq!(old.len().abs_diff(new.len()), 1, "{books} books: one pair in or out");
        assert_eq!(shared, old.len().min(new.len()), "{books} books: untouched pairs shared");
        pinned.verify().unwrap();
    }
    drop(writer);
    hub.shutdown().catalog().verify_all().unwrap();
    per_op
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

#[test]
fn apply_behind_a_pinned_epoch_copies_the_delta_path() {
    let small = copies_behind_a_pinned_epoch(500);
    let large = copies_behind_a_pinned_epoch(2000);
    assert_eq!(small, large, "[join, grouped] copies per op: 500 vs 2000 books");
    println!(
        "extent nodes copied per op [join, grouped]: insert {:?}, delete {:?}",
        large[0], large[1]
    );
    // One copy for the join view (its root); the grouped view's count is
    // the year group's size, until its delta carries the count alone.
    assert!(large.iter().all(|[join, _]| *join == 1), "{large:?}");
}

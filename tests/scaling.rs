//! The paper's headline as a table of counts: maintaining a view for an
//! update does work that tracks the update's *join neighbourhood* — the
//! price entries with its title, the books of its year — and not the size
//! of the documents (the Chapter 9 axes of Figs 9.2–9.6, without a clock).
//!
//! Rows are the benchmark's four view shapes (`benchmark/src/gen.rs`): a
//! flat year selection, a flat view over prices, the title join and the
//! paper's grouped running example. Columns are update shapes, committed
//! in this order on one hub: a positional insert of one priced book of
//! year 1900, the title-filtered delete of that book, a price text modify
//! (content-only: patched in place), a title text modify (a join key, so
//! it widens to delete+insert of the book), a batch of 32 positional
//! inserts into year 1900, and the delete of the whole year 1900
//! (`datagen::delete_year_script`, the Fig 9.6 scenario).
//!
//! Every cell holds three deterministic counters for one view and one
//! commit: `ExecStats::source_rows` (tuples an IMP term binds out of stored
//! document state), `ExecStats::index_probes` (path-value index lookups),
//! and `MaintStats::extent_nodes_copied` (extent nodes Apply copied because
//! an epoch pinned before the commit still shared them). The documents
//! grow 4× (500 → 2000 books) with the year domain growing alongside, so a
//! year keeps [`BOOKS_PER_YEAR`] books, 80 % of them priced — the grouped
//! view's delta for a book of year Y *is* the whole Y group under counting
//! semantics (Ch. 6), so the group is the neighbourhood held fixed.
//!
//! The rule: every cell is identical at 500 and 2000 books and at a
//! one-lane and an eight-lane pool, or it is listed in [`GROWING`] with
//! its measured growth and the ROADMAP item that removes it. A listed cell
//! that has become flat fails too, so the list only shrinks. Every extent
//! stays byte-identical to its recomputation and across pool sizes.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};
use xqview::datagen::{self, BibConfig};
use xqview::exec::Executor;
use xqview::viewsrv::{Epoch, HubConfig};
use xqview::xquery_lang::{CmpOp, InsertPosition};
use xqview::{Store, UpdateBatch, UpdateOp, ViewCatalog};

const FLAT_VIEW: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "1900"
  return <hit>{$b/title}</hit>
}</result>"#;

const PRICES_VIEW: &str = r#"<result>{
  for $e in doc("prices.xml")/prices/entry
  return <p>{$e/price}</p>
}</result>"#;

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
const VIEWS: [(&str, &str); 4] =
    [("flat", FLAT_VIEW), ("prices", PRICES_VIEW), ("join", JOIN_VIEW), ("grouped", GROUPED_VIEW)];
const SHAPES: [&str; 6] = ["insert", "delete", "price", "title", "bulk32", "year_delete"];
const BULK: usize = 32;
/// Index of the `join` and `grouped` rows.
const JOIN: usize = 2;
const GROUPED: usize = 3;

/// (view, shape, measured growth and the ROADMAP item that removes it):
/// the cells allowed to differ between 500 and 2000 books or between pool
/// 1 and pool 8. Entries may only be removed.
const GROWING: &[(&str, &str, &str)] = &[];

/// One view's counters for one commit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Cell {
    source_rows: u64,
    index_probes: u64,
    copies: u64,
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.source_rows, self.index_probes, self.copies)
    }
}

/// `[view][shape]`.
type Table = [[Cell; SHAPES.len()]; VIEWS.len()];

fn catalog(books: usize, lanes: usize) -> ViewCatalog {
    let cfg = BibConfig {
        books,
        years: books / BOOKS_PER_YEAR,
        priced_ratio: 0.8,
        extra_entries: 8 + BULK,
        seed: 17,
    };
    let mut store = Store::new();
    store.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
    store.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();
    let mut cat = ViewCatalog::new(store);
    cat.set_pool(Executor::new(lanes));
    for (name, q) in VIEWS {
        cat.register(name, q).unwrap();
    }
    cat
}

/// A year-1900 book whose title has an "Unlisted Volume" price entry,
/// inserted after the `at`-th book.
fn insert_book(at: usize, volume: usize) -> UpdateOp {
    let book = format!(
        "<book year=\"1900\"><title>Unlisted Volume {volume:04}</title>\
         <author><last>L</last><first>F</first></author></book>"
    );
    UpdateOp::insert("bib.xml", &format!("/bib/book[{at}]"), InsertPosition::After, &book).unwrap()
}

/// One batch per column of [`SHAPES`].
fn batches(books: usize) -> [UpdateBatch; SHAPES.len()] {
    let one = |op| UpdateBatch::new().with(op);
    let delete = UpdateOp::delete("bib.xml", "/bib/book")
        .and_then(|op| op.filter("title", CmpOp::Eq, "Unlisted Volume 0003"))
        .unwrap();
    // Book 0 is a priced book of year 1900.
    let price = UpdateOp::replace_text("prices.xml", "/prices/entry", "price", "99.99")
        .and_then(|op| op.filter("b-title", CmpOp::Eq, &BibConfig::title(0)))
        .unwrap();
    // Renamed to another priced title, so its join pair is replaced.
    let title = UpdateOp::replace_text("bib.xml", "/bib/book", "title", "Unlisted Volume 0004")
        .and_then(|op| op.filter("title", CmpOp::Eq, &BibConfig::title(0)))
        .unwrap();
    let bulk = (0..BULK).map(|k| insert_book(books / 2 + 2 * k, 8 + k)).collect();
    [
        one(insert_book(books / 2, 3)),
        one(delete),
        one(price),
        one(title),
        bulk,
        UpdateBatch::from_script(&datagen::delete_year_script(1900)).unwrap(),
    ]
}

/// Commit every column's batch through a volatile hub while a reader pins
/// the epoch before each commit. Returns the table and the final extents,
/// after checking per commit: the receipt, the recompute oracle, that the
/// grouped view copies within its delta, and that every top-level child of
/// `join` the commit did not touch is the very same node in the pinned and
/// the new epoch.
fn run(books: usize, lanes: usize) -> (Table, Vec<String>) {
    let hub = catalog(books, lanes).into_hub(HubConfig::default());
    let mut rh = hub.read_handle();
    let writer = hub.handle();
    let counters = || {
        hub.with_catalog(|c| {
            VIEWS.map(|(v, _)| {
                let s = c.view_stats(v).unwrap();
                Cell {
                    source_rows: s.exec.source_rows,
                    index_probes: s.exec.index_probes,
                    copies: s.extent_nodes_copied,
                }
            })
        })
        .unwrap()
    };
    let mut table = Table::default();
    for (si, batch) in batches(books).into_iter().enumerate() {
        let shape = SHAPES[si];
        let (pinned, before) = (rh.pin(), counters());
        writer.try_submit(batch).unwrap();
        let receipt = writer.commit().unwrap();
        let (fresh, after) = (rh.pin(), counters());
        assert!(fresh.seq() > pinned.seq(), "{shape}: the commit published a new epoch");
        for vi in 0..VIEWS.len() {
            table[vi][si] = Cell {
                source_rows: after[vi].source_rows - before[vi].source_rows,
                index_probes: after[vi].index_probes - before[vi].index_probes,
                copies: after[vi].copies - before[vi].copies,
            };
        }
        match shape {
            "insert" | "delete" => {
                assert_eq!(receipt.resolved, 1, "{books} books: one book in, the same book out");
                assert_eq!(receipt.views_touched, ["flat", "grouped", "join"]);
                // The grouped view copies its root plus at most the
                // year-1900 group, which is what its delta carries.
                let year_group = |e: &Epoch| {
                    let root = &e.extent("grouped").unwrap().roots[0];
                    root.children
                        .iter()
                        .find(|g| g.data.attr("Y") == Some("1900"))
                        .map_or(0, |g| g.size())
                };
                let delta_nodes = 1 + year_group(&pinned).max(year_group(&fresh)) as u64;
                let grouped = table[GROUPED][si].copies;
                assert!(grouped <= delta_nodes, "{books} books: grouped copied {grouped}");
            }
            "bulk32" => assert_eq!(receipt.resolved, BULK),
            "year_delete" => assert_eq!(receipt.resolved, BOOKS_PER_YEAR + BULK),
            _ => assert_eq!(receipt.resolved, 1, "{shape}"),
        }

        // Untouched pairs stay shared: an insert or delete changes only the
        // root's child list; a modify also replaces the one pair it touched.
        let children = |e: &Epoch| e.extent("join").unwrap().roots[0].children.clone();
        let (old, new) = (children(&pinned), children(&fresh));
        let old_ptrs: HashSet<_> = old.iter().map(Arc::as_ptr).collect();
        let shared = new.iter().filter(|c| old_ptrs.contains(&Arc::as_ptr(c))).count();
        let replaced = usize::from(matches!(shape, "price" | "title"));
        assert_eq!(shared + replaced, old.len().min(new.len()), "{books} books, {shape}: shared");
        if matches!(shape, "insert" | "delete") {
            assert_eq!(old.len().abs_diff(new.len()), 1, "{books} books: one pair in or out");
        }
        // The §1.2 oracle on the pinned epoch, after a commit ran behind
        // it: path copying never wrote through a node it still shares.
        pinned.verify().unwrap();
    }
    drop(writer);
    let inner = hub.shutdown();
    // The last epoch had no commit behind it: check the final extents.
    inner.catalog().verify_all().unwrap();
    (table, VIEWS.map(|(v, _)| inner.catalog().extent_xml(v).unwrap()).to_vec())
}

/// The table at 500 books on pool 1, 2000 books on pool 1 and 2000 books
/// on pool 8, each with its final extents: computed once, shared by both
/// tests.
fn tables() -> &'static [(Table, Vec<String>); 3] {
    static TABLES: OnceLock<[(Table, Vec<String>); 3]> = OnceLock::new();
    // The three configurations are independent hubs: run them side by side.
    TABLES.get_or_init(|| {
        std::thread::scope(|s| {
            [(500, 1), (2000, 1), (2000, 8)]
                .map(|(books, lanes)| s.spawn(move || run(books, lanes)))
                .map(|h| h.join().expect("a configuration panicked"))
        })
    })
}

#[test]
fn maintenance_counters_are_flat_in_document_size() {
    let [(small, _), (large, large_extents), (wide, wide_extents)] = tables();
    println!(
        "maintenance counts per commit, source_rows/index_probes/extent_nodes_copied \
         ({BOOKS_PER_YEAR} books/year; 2000 books, pool 1; `*` = listed in GROWING, \
         followed by 500 books, pool 1 and 2000 books, pool 8):"
    );
    println!("{:<8} {}", "view", SHAPES.map(|s| format!("{s:>12}")).join(""));
    let mut unexplained = Vec::new();
    let mut stale: Vec<_> = GROWING.iter().map(|&(v, s, _)| (v, s)).collect();
    for (vi, (view, _)) in VIEWS.iter().enumerate() {
        let mut line = format!("{view:<8} ");
        for (si, shape) in SHAPES.iter().enumerate() {
            let (s, l, w) = (small[vi][si], large[vi][si], wide[vi][si]);
            let listed = GROWING.iter().any(|&(v, sh, _)| v == *view && sh == *shape);
            let cell = if listed { format!("*{l} ({s}; {w})") } else { l.to_string() };
            line += &format!("{cell:>12}");
            if s == l && w == l {
                continue;
            }
            stale.retain(|&(v, sh)| !(v == *view && sh == *shape));
            if !listed {
                unexplained.push(format!("{view}/{shape}: 500 books {s}, 2000 {l}, pool 8 {w}"));
            }
        }
        println!("{line}");
    }
    for (view, shape, why) in GROWING {
        println!("* {view}/{shape}: {why}");
    }
    assert!(unexplained.is_empty(), "cells not flat in size and pool: {unexplained:#?}");
    assert!(stale.is_empty(), "flat now, remove from GROWING: {stale:?}");
    assert_eq!(wide_extents, large_extents, "pool 8 vs pool 1 extents");

    // The index did the work, and it was update-sized: the join view looks
    // up one title per round; the grouped view walks one year group.
    let in_and_out = |vi: usize| {
        let (i, d) = (large[vi][0], large[vi][1]);
        (i.source_rows + d.source_rows, i.index_probes + d.index_probes)
    };
    let ((join_rows, join_probes), (grouped_rows, grouped_probes)) =
        (in_and_out(JOIN), in_and_out(GROUPED));
    assert!(join_probes >= 2 && join_rows <= 4, "join: {join_rows} rows, {join_probes} probes");
    assert!(grouped_probes >= 2, "grouped: {grouped_probes} probes");
    assert!(
        grouped_rows <= 16 * BOOKS_PER_YEAR as u64,
        "grouped: {grouped_rows} rows for a year of {BOOKS_PER_YEAR} books"
    );
}

#[test]
fn apply_behind_a_pinned_epoch_copies_the_delta_path() {
    let [(small, _), (large, _), _] = tables();
    let copies = |t: &Table| t.map(|row| row.map(|c| c.copies));
    assert_eq!(copies(small), copies(large), "copies per commit: 500 vs 2000 books");
    // The join view's root for one book in or out, and — Fig 9.6 — one
    // node for the join and the grouped view when a whole year goes: the
    // root is copied and the deleted group is disconnected without being
    // visited.
    assert_eq!([large[JOIN][0].copies, large[JOIN][1].copies], [1, 1]);
    let year_delete = SHAPES.len() - 1;
    assert_eq!([large[JOIN][year_delete].copies, large[GROUPED][year_delete].copies], [1, 1]);
}

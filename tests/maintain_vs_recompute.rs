//! Randomized correctness oracle: for random documents and random update
//! sequences, incremental maintenance must produce exactly the view that
//! recomputation over the updated sources produces — the paper's definition
//! of a correctly refreshed view (§1.2), checked after *every* step.
//!
//! The cases are driven by a seeded PRNG (deterministic run to run); a
//! failing case prints its seed so it can be replayed by hardcoding it.

use rand::prelude::*;
use xqview::{ServiceStats, Store, UpdateBatch, ViewCatalog};

/// Parse `script` at the edge and maintain every view for it.
fn apply(cat: &mut ViewCatalog, script: &str) -> ServiceStats {
    cat.apply_batch(&UpdateBatch::from_script(script).unwrap()).unwrap().stats
}

/// One view is a one-view catalog.
fn one_view(store: Store, q: &str) -> ViewCatalog {
    let mut cat = ViewCatalog::new(store);
    cat.register("v", q).unwrap();
    cat
}

/// The running-example view shape (distinct + order by + correlated join +
/// grouping + construction) — the hardest supported combination.
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

/// A flat selection view.
const FLAT_VIEW: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "1991"
  return <hit>{$b/title}</hit>
}</result>"#;

/// A two-document join view without grouping.
const JOIN_VIEW: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
  where $b/title = $e/b-title
  return <pair>{$b/title}{$e/price}</pair>
}</result>"#;

#[derive(Clone, Debug)]
enum Op {
    InsertBook { title_idx: u8, year: u16, at_end: bool },
    DeleteBookByTitle { title_idx: u8 },
    DeleteBooksByYear { year: u16 },
    ModifyPrice { title_idx: u8, new_price: u16 },
    InsertEntry { title_idx: u8, price: u16 },
    DeleteEntryByTitle { title_idx: u8 },
}

fn title(i: u8) -> String {
    format!("T{:02}", i % 12)
}

fn op_script(op: &Op) -> String {
    match op {
        Op::InsertBook { title_idx, year, at_end } => {
            let t = title(*title_idx);
            if *at_end {
                format!(
                    r#"for $r in document("bib.xml")/bib update $r insert <book year="{year}"><title>{t}</title></book> into $r"#
                )
            } else {
                format!(
                    r#"for $b in document("bib.xml")/bib/book[1] update $b insert <book year="{year}"><title>{t}</title></book> before $b"#
                )
            }
        }
        Op::DeleteBookByTitle { title_idx } => {
            let t = title(*title_idx);
            format!(
                r#"for $b in document("bib.xml")/bib/book where $b/title = "{t}" update $b delete $b"#
            )
        }
        Op::DeleteBooksByYear { year } => format!(
            r#"for $b in document("bib.xml")/bib/book where $b/@year = "{year}" update $b delete $b"#
        ),
        Op::ModifyPrice { title_idx, new_price } => {
            let t = title(*title_idx);
            format!(
                r#"for $e in document("prices.xml")/prices/entry where $e/b-title = "{t}" update $e replace $e/price/text() with "{new_price}""#
            )
        }
        Op::InsertEntry { title_idx, price } => {
            let t = title(*title_idx);
            format!(
                r#"for $r in document("prices.xml")/prices update $r insert <entry><price>{price}</price><b-title>{t}</b-title></entry> into $r"#
            )
        }
        Op::DeleteEntryByTitle { title_idx } => {
            let t = title(*title_idx);
            format!(
                r#"for $e in document("prices.xml")/prices/entry where $e/b-title = "{t}" update $e delete $e"#
            )
        }
    }
}

fn random_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0u8..6) {
        0 => Op::InsertBook {
            title_idx: rng.gen_range(0u8..12),
            year: rng.gen_range(1990u16..1994),
            at_end: rng.gen_bool(0.5),
        },
        1 => Op::DeleteBookByTitle { title_idx: rng.gen_range(0u8..12) },
        2 => Op::DeleteBooksByYear { year: rng.gen_range(1990u16..1994) },
        3 => Op::ModifyPrice {
            title_idx: rng.gen_range(0u8..12),
            new_price: rng.gen_range(10u16..99),
        },
        4 => Op::InsertEntry { title_idx: rng.gen_range(0u8..12), price: rng.gen_range(10u16..99) },
        _ => Op::DeleteEntryByTitle { title_idx: rng.gen_range(0u8..12) },
    }
}

fn random_books(rng: &mut StdRng, max: usize) -> Vec<(u8, u16)> {
    let n = rng.gen_range(0..max);
    (0..n).map(|_| (rng.gen_range(0u8..12), rng.gen_range(1990u16..1994))).collect()
}

fn random_entries(rng: &mut StdRng, max: usize) -> Vec<(u8, u16)> {
    let n = rng.gen_range(0..max);
    (0..n).map(|_| (rng.gen_range(0u8..12), rng.gen_range(10u16..99))).collect()
}

fn random_ops(rng: &mut StdRng) -> Vec<Op> {
    let n = rng.gen_range(1..10);
    (0..n).map(|_| random_op(rng)).collect()
}

fn build_store(books: &[(u8, u16)], entries: &[(u8, u16)]) -> Store {
    let mut bib = String::from("<bib>");
    for (t, y) in books {
        bib.push_str(&format!("<book year=\"{y}\"><title>{}</title></book>", title(*t)));
    }
    bib.push_str("</bib>");
    let mut prices = String::from("<prices>");
    for (t, p) in entries {
        prices.push_str(&format!(
            "<entry><price>{p}</price><b-title>{}</b-title></entry>",
            title(*t)
        ));
    }
    prices.push_str("</prices>");
    let mut s = Store::new();
    s.load_doc("bib.xml", &bib).unwrap();
    s.load_doc("prices.xml", &prices).unwrap();
    s
}

fn check_sequence(view: &str, books: Vec<(u8, u16)>, entries: Vec<(u8, u16)>, ops: Vec<Op>) {
    let store = build_store(&books, &entries);
    let mut cat = one_view(store, view);
    cat.verify_all().unwrap_or_else(|e| panic!("initial materialization: {e}"));
    for (i, op) in ops.iter().enumerate() {
        let _ = cat
            .apply_batch(&UpdateBatch::from_script(&op_script(op)).unwrap())
            .unwrap_or_else(|e| panic!("step {i} {op:?}: {e}"));
        cat.verify_all().unwrap_or_else(|e| panic!("divergence after step {i}: {op:?}: {e}"));
        // The oracle compares maintenance against recomputation over the
        // *same* store, so also check the store itself reflects the update
        // (guards against bugs that mis-apply the update to the source).
        if let Op::ModifyPrice { title_idx, new_price } = op {
            let t = title(*title_idx);
            let prices = cat.store().serialize_doc("prices.xml").unwrap();
            if prices.contains(&format!("<b-title>{t}</b-title>")) {
                assert!(
                    prices.contains(&format!("<price>{new_price}</price>")),
                    "store missed modify of {t} at step {i}"
                );
            }
        }
    }
}

const CASES: u64 = 24;

#[test]
fn grouped_view_matches_recompute() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6700 + seed);
        let books = random_books(&mut rng, 8);
        let entries = random_entries(&mut rng, 6);
        let ops = random_ops(&mut rng);
        eprintln!("grouped case seed {seed}");
        check_sequence(GROUPED_VIEW, books, entries, ops);
    }
}

#[test]
fn flat_view_matches_recompute() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xF1A7 + seed);
        let books = random_books(&mut rng, 8);
        let ops = random_ops(&mut rng);
        eprintln!("flat case seed {seed}");
        check_sequence(FLAT_VIEW, books, vec![(0, 10)], ops);
    }
}

#[test]
fn join_view_matches_recompute() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7014 + seed);
        let books = random_books(&mut rng, 8);
        let entries = random_entries(&mut rng, 6);
        let ops = random_ops(&mut rng);
        eprintln!("join case seed {seed}");
        check_sequence(JOIN_VIEW, books, entries, ops);
    }
}

#[test]
fn duplicate_titles_and_shared_years_regression() {
    // Books sharing titles create multiple derivations for the same entry;
    // deleting one of them must decrement, not remove (the Ch. 6 counting
    // scenario), across *all three* view shapes.
    for view in [GROUPED_VIEW, JOIN_VIEW, FLAT_VIEW] {
        let books = vec![(1, 1991), (1, 1991), (2, 1991)];
        let entries = vec![(1, 42), (2, 17)];
        let ops = vec![
            Op::DeleteBookByTitle { title_idx: 1 }, // deletes BOTH duplicates
            Op::InsertBook { title_idx: 1, year: 1991, at_end: true },
            Op::DeleteBooksByYear { year: 1991 },
        ];
        check_sequence(view, books, entries, ops);
    }
}

#[test]
fn scaled_datagen_documents_roundtrip() {
    use datagen::BibConfig;
    let cfg = BibConfig { books: 60, years: 6, priced_ratio: 0.7, extra_entries: 5, seed: 3 };
    let mut s = Store::new();
    s.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
    s.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();
    let mut cat = one_view(s, GROUPED_VIEW);
    cat.verify_all().unwrap();
    // A generated mixed workload.
    let _ = apply(&mut cat, &datagen::insert_books_script(&cfg, 60, 4, Some(1903)));
    cat.verify_all().unwrap();
    let _ = apply(&mut cat, &datagen::delete_books_script(10, 5));
    cat.verify_all().unwrap();
    let _ = apply(&mut cat, &datagen::modify_prices_script(2, 3, "11.11"));
    cat.verify_all().unwrap();
}

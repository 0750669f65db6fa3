//! Seeded inputs: documents, view definitions and sliding-window write
//! streams. The program under test receives only what is generated here.
//!
//! Every write stream is a sliding window: a [`Producer`] inserts a book
//! and deletes its own oldest inserted book, keeping [`LIVE`] books live,
//! so store and extent sizes stay flat for the whole run and a median over
//! the window means one thing.

use std::collections::VecDeque;

use datagen::BibConfig;
use xmlstore::Store;
use xquery_lang::{CmpOp, InsertPosition, UpdateBatch, UpdateOp};

/// Books each producer keeps live.
pub const LIVE: usize = 32;
/// Size of the year domain of the generated bib.
pub const YEARS: usize = 10;
/// The year the `hot`/`small` flat views select.
pub const HOT_YEAR: usize = 1900;
/// Titles each producer cycles through. They are the generator's
/// "Unlisted Volume" price entries, so every inserted book joins with
/// exactly one price entry and the join views see a non-empty delta.
const POOL: usize = 64;
/// Producer slots (disjoint title pools) the generated prices.xml covers.
const SLOTS: usize = 4;

/// SplitMix64: the whole of the benchmark's randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

pub fn bib_config(books: usize, seed: u64) -> BibConfig {
    BibConfig { books, years: YEARS, priced_ratio: 0.8, extra_entries: POOL * SLOTS, seed }
}

/// The generated bib/prices pair as XML text.
pub fn docs(books: usize, seed: u64) -> (String, String) {
    let cfg = bib_config(books, seed);
    (datagen::bib_xml(&cfg), datagen::prices_xml(&cfg))
}

pub fn store(books: usize, seed: u64) -> Store {
    let (bib, prices) = docs(books, seed);
    let mut s = Store::new();
    s.load_doc("bib.xml", &bib).expect("generated bib parses");
    s.load_doc("prices.xml", &prices).expect("generated prices parse");
    s
}

// ── view definitions (texts copied from the paper's evaluation queries) ──

pub fn flat_year_view(year: usize) -> String {
    format!(
        r#"<result>{{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "{year}"
  return <hit>{{$b/title}}</hit>
}}</result>"#
    )
}

pub const PRICES_VIEW: &str = r#"<result>{
  for $e in doc("prices.xml")/prices/entry
  return <p>{$e/price}</p>
}</result>"#;

pub const FLAT_JOIN_VIEW: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
  where $b/title = $e/b-title
  return <pair>{$b/title}{$e/price}</pair>
}</result>"#;

/// The paper's running example (Figure 1.2(a)) over the generated pair.
pub const GROUPED_VIEW: &str = r#"<result>{
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

/// A flat selection over prices.xml that no entry satisfies: bib inserts
/// are routed past it by the relevancy index.
pub const COLD_VIEW: &str = r#"<result>{
  for $e in doc("prices.xml")/prices/entry
  where $e/price = "0.00"
  return <p>{$e/b-title}</p>
}</result>"#;

/// The `maintain` workload's eight views: two of each shape.
pub fn maintain_views() -> Vec<(String, String)> {
    vec![
        ("flat_a".into(), flat_year_view(HOT_YEAR)),
        ("flat_b".into(), flat_year_view(HOT_YEAR + 5)),
        ("prices_a".into(), PRICES_VIEW.into()),
        ("prices_b".into(), PRICES_VIEW.into()),
        ("join_a".into(), FLAT_JOIN_VIEW.into()),
        ("join_b".into(), FLAT_JOIN_VIEW.into()),
        ("grouped_a".into(), GROUPED_VIEW.into()),
        ("grouped_b".into(), GROUPED_VIEW.into()),
    ]
}

/// The two cheap flat views of `commit` and `restart`.
pub fn hot_cold_views() -> Vec<(String, String)> {
    vec![("hot".into(), flat_year_view(HOT_YEAR)), ("cold".into(), COLD_VIEW.into())]
}

/// The `read` workload's views: about [`LIVE`]-per-producer plus a tenth of
/// the books hit `small`; `large` joins every priced book.
pub fn read_views() -> Vec<(String, String)> {
    vec![("small".into(), flat_year_view(HOT_YEAR)), ("large".into(), FLAT_JOIN_VIEW.into())]
}

// ── write streams ──

/// Which years a producer's inserts carry.
#[derive(Clone, Copy)]
pub enum Years {
    /// Always [`HOT_YEAR`].
    Hot,
    /// Round-robin over the year domain from a seeded phase, so every
    /// [`YEARS`] consecutive inserts touch every year once.
    Cycle,
}

/// One sliding-window writer. Seed-dependent: where in its title pool it
/// starts, the year phase, author names, and (for `modify`) which priced
/// book it targets and the new price. All generated text is fixed-width,
/// so the encoded size of an op does not depend on the seed.
pub struct Producer {
    slot: usize,
    /// Books the generated bib started with.
    books: usize,
    next: usize,
    years: Years,
    year_phase: usize,
    rng: Rng,
    live: VecDeque<String>,
    insert_next: bool,
}

impl Producer {
    pub fn new(slot: usize, seed: u64, years: Years, books: usize) -> Producer {
        assert!(slot < SLOTS, "prices.xml has entries for {SLOTS} producer slots");
        let mut rng = Rng::new(seed ^ (slot as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        Producer {
            slot,
            books,
            next: rng.below(POOL),
            years,
            year_phase: rng.below(YEARS),
            rng,
            live: VecDeque::new(),
            insert_next: true,
        }
    }

    /// Insert the next book of this producer's pool after a seeded book of
    /// the second half of the original bib (a path of fixed width).
    ///
    /// Not as last child of /bib: a FlexKey minted after the last sibling
    /// is about a byte longer every fifth time, so an append-only position
    /// makes every later key comparison slower and no window of such a run
    /// is stationary. At scattered positions the deletes reopen the gaps.
    pub fn insert(&mut self) -> UpdateOp {
        let n = self.next;
        self.next += 1;
        let title = format!("Unlisted Volume {:04}", self.slot * POOL + n % POOL);
        let year = match self.years {
            Years::Hot => HOT_YEAR,
            Years::Cycle => HOT_YEAR + (self.year_phase + n) % YEARS,
        };
        let frag = format!(
            "<book year=\"{year}\"><title>{title}</title>\
             <author><last>L{:05}</last><first>F{:03}</first></author></book>",
            self.rng.below(100_000),
            self.rng.below(1000),
        );
        self.live.push_back(title);
        let after = format!("/bib/book[{}]", self.books / 2 + 1 + self.rng.below(self.books / 2));
        UpdateOp::insert("bib.xml", &after, InsertPosition::After, &frag).expect("insert op builds")
    }

    /// Delete this producer's oldest live book.
    pub fn delete_oldest(&mut self) -> UpdateOp {
        let title = self.live.pop_front().expect("a live book to delete");
        delete_by_title(&title)
    }

    /// The sliding window as a stream of single ops: insert, delete the
    /// oldest, insert, … The live count alternates between [`LIVE`] and
    /// `LIVE + 1` once [`Producer::prefill`] has run.
    pub fn next_op(&mut self) -> UpdateOp {
        let insert = self.insert_next;
        self.insert_next = !insert;
        if insert {
            self.insert()
        } else {
            self.delete_oldest()
        }
    }

    /// One batch that brings the live count to [`LIVE`].
    pub fn prefill(&mut self) -> UpdateBatch {
        (self.live.len()..LIVE).map(|_| self.insert()).collect()
    }

    /// Insert `n` books in one batch, and the batch that deletes them again.
    pub fn bulk(&mut self, n: usize) -> (UpdateBatch, UpdateBatch) {
        assert!(self.live.len() + n <= POOL, "bulk must not reuse a live title");
        let ins: UpdateBatch = (0..n).map(|_| self.insert()).collect();
        let undo: UpdateBatch =
            self.live.drain(self.live.len() - n..).map(|t| delete_by_title(&t)).collect();
        self.next -= n;
        (ins, undo)
    }

    /// Replace the price of one seeded existing priced book.
    pub fn modify(&mut self) -> UpdateOp {
        let priced = (self.books as f64 * 0.8).round() as usize;
        let title = BibConfig::title(self.rng.below(priced));
        let price = format!("{:02}.{:02}", 10 + self.rng.below(90), self.rng.below(100));
        UpdateOp::replace_text("prices.xml", "/prices/entry", "price", &price)
            .and_then(|op| op.filter("b-title", CmpOp::Eq, &title))
            .expect("modify op builds")
    }
}

fn delete_by_title(title: &str) -> UpdateOp {
    UpdateOp::delete("bib.xml", "/bib/book")
        .and_then(|op| op.filter("title", CmpOp::Eq, title))
        .expect("delete op builds")
}

pub fn one(op: UpdateOp) -> UpdateBatch {
    UpdateBatch::new().with(op)
}

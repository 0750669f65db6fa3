//! # vpa-bench — shared experiment drivers for the paper's evaluation
//!
//! Each `fig*` driver reproduces one figure of the dissertation's evaluation
//! (Chapters 3, 4, 9). The drivers are shared between the `benches/`
//! targets (statistical timing of representative points on the internal
//! [`harness`]) and the `figures` binary (full parameter sweeps printed as
//! the paper's series).
//!
//! Timing caveat (DESIGN.md): absolute numbers are incomparable to the 2005
//! Java/Rainbow prototype on a 733 MHz PC; what is reproduced is each
//! figure's *shape* — who wins, how costs break down, how curves trend.

use std::time::{Duration, Instant};
use viewsrv::UpdateBatch;
use xat::exec::{ExecOptions, ExecStats, Executor};
use xat::translate::translate_query;
use xmlstore::Store;

/// The four order-experiment queries of Figure 3.6, adapted to the
/// generator's `/site/...` rooting.
pub const Q1_PROFILES: &str =
    r#"<result>{ for $p in doc("site.xml")/site/people/person/profile return $p }</result>"#;

pub const Q2_CITIES: &str = r#"<result>{
    for $c in distinct-values(doc("site.xml")/site/people/person/address/city)
    order by $c
    return <city>{$c}</city>
}</result>"#;

pub const Q3_SELLER_DATES: &str = r#"<result>{
    for $p in doc("site.xml")/site/people/person,
        $c in doc("site.xml")/site/closed_auctions/closed_auction
    where $p/@id = $c/seller/@person
    return $c/date
}</result>"#;

pub const Q4_CONSTRUCTION: &str = r#"<result>
    <customers>{
        for $p in doc("site.xml")/site/people/person
        return <customer><location>{$p/address/city/text()}</location>{$p/name}</customer>
    }</customers>
    <open_bids>{
        for $oa in doc("site.xml")/site/open_auctions/open_auction
        return <bid>{$oa/reserve}{$oa/initial}</bid>
    }</open_bids>
</result>"#;

/// The Chapter 9 view (the running example over generated bib/prices).
pub const GROUPED_BIB_VIEW: &str = r#"<result>{
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

/// A simpler Chapter 9 query (single-source selection + construction).
pub const FLAT_BIB_VIEW: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "1900"
  return <hit>{$b/title}</hit>
}</result>"#;

/// One timed execution of a query over a store. Returns (total wall time,
/// engine stats, result node count).
pub fn run_query(store: &Store, query: &str, opts: ExecOptions) -> (Duration, ExecStats, usize) {
    let (plan, col) = translate_query(query).expect("bench query must translate");
    let t0 = Instant::now();
    let mut ex = Executor::with_options(store, opts);
    let t = ex.eval(&plan).expect("bench query must execute");
    let items = t.rows[0].cells[t.col_idx(&col).unwrap()].items().to_vec();
    let extent = ex.materialize(&items).expect("materialization");
    let total = t0.elapsed();
    (total, ex.stats, extent.size())
}

/// Build a site.xml store of roughly `mb` megabytes.
pub fn site_store(mb: usize) -> Store {
    let xml = datagen::site_xml(&datagen::SiteConfig::for_megabytes(mb));
    let mut s = Store::new();
    s.load_doc("site.xml", &xml).unwrap();
    s
}

/// The canonical bench configuration for a `books`-book bib/prices pair.
pub fn bib_config(books: usize) -> datagen::BibConfig {
    datagen::BibConfig { books, years: 10, priced_ratio: 0.8, extra_entries: books / 10, seed: 9 }
}

/// Build a bib/prices store with `books` books.
pub fn bib_store(books: usize) -> (Store, datagen::BibConfig) {
    let cfg = bib_config(books);
    let mut s = Store::new();
    s.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
    s.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();
    (s, cfg)
}

/// Outcome of one maintenance-vs-recompute measurement.
#[derive(Clone, Copy, Debug)]
pub struct MaintPoint {
    /// Resolving the update script's bindings/predicates against the store,
    /// timed on its own read-only pass: the paper's experiments receive
    /// updates as already-targeted update primitives (Ch. 5), so script
    /// resolution is input preparation, not maintenance. `maintain` and
    /// `validate` include it too (the catalog resolves inside
    /// `apply_batch`).
    pub resolve: Duration,
    pub maintain: Duration,
    pub recompute: Duration,
    pub validate: Duration,
    pub propagate: Duration,
    pub apply: Duration,
}

/// A catalog over `store` holding the single view `q`, registered as `"v"`.
pub fn one_view(store: Store, q: &str) -> viewsrv::ViewCatalog {
    let mut cat = viewsrv::ViewCatalog::new(store);
    cat.register("v", q).expect("view registers");
    cat
}

/// Measure maintaining `view` under `script` on a fresh store vs
/// recomputing, asserting equality of the results (every bench doubles as a
/// correctness check).
pub fn measure_maintenance(store: Store, view: &str, script: &str) -> MaintPoint {
    let mut cat = one_view(store, view);
    let batch = viewsrv::UpdateBatch::from_script(script).expect("script parses");
    let tr = Instant::now();
    let _ = vpa_core::resolve_batch(cat.store(), &batch).expect("resolution");
    let resolve = tr.elapsed();
    let t0 = Instant::now();
    let stats = cat.apply_batch(&batch).expect("maintenance").stats;
    let maintain = t0.elapsed();
    let t1 = Instant::now();
    let oracle = cat.view("v").expect("registered").recompute_xml(cat.store()).expect("recompute");
    let recompute = t1.elapsed();
    assert_eq!(cat.extent_xml("v").unwrap(), oracle, "bench correctness check");
    MaintPoint {
        resolve,
        maintain,
        recompute,
        validate: stats.validate,
        propagate: stats.propagate,
        apply: stats.apply,
    }
}

/// Pretty milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:9.3}", d.as_secs_f64() * 1e3)
}

/// The shared `BENCH_*.json` header fields describing the measurement
/// environment: machine core count, the shared executor pool's lane
/// count, and the `XQVIEW_POOL_THREADS` override when set. Every figure
/// splices this fragment into its JSON so a reader can tell which
/// parallelism regime produced a run.
pub fn env_header_json() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = exec::Executor::global().threads();
    let env = match std::env::var("XQVIEW_POOL_THREADS") {
        Ok(v) => format!("\"{}\"", v.escape_default()),
        Err(_) => "null".to_string(),
    };
    format!("\"cores\": {cores},\n  \"pool_threads\": {pool},\n  \"pool_threads_env\": {env}")
}

/// A family of `n` distinct view definitions over the generated bib/prices
/// pair for the multi-view catalog sweep: per-year flat selections
/// (bib-only), a prices-only projection, the two-document join, and the
/// grouped/ordered running-example view, cycled until `n` views exist.
pub fn multiview_queries(n: usize, years: usize) -> Vec<(String, String)> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let (name, q) = match i % 4 {
            0 => {
                let year = 1900 + (i / 4) % years.max(1);
                (
                    format!("flat_y{year}_{i}"),
                    format!(
                        r#"<result>{{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "{year}"
  return <hit>{{$b/title}}</hit>
}}</result>"#
                    ),
                )
            }
            1 => (
                format!("prices_{i}"),
                r#"<result>{
  for $e in doc("prices.xml")/prices/entry
  return <p>{$e/price}</p>
}</result>"#
                    .to_string(),
            ),
            2 => (format!("join_{i}"), FLAT_JOIN_VIEW.to_string()),
            _ => (format!("grouped_{i}"), GROUPED_BIB_VIEW.to_string()),
        };
        out.push((name, q));
    }
    out
}

/// The two-document join without grouping (multi-view sweep member).
pub const FLAT_JOIN_VIEW: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
  where $b/title = $e/b-title
  return <pair>{$b/title}{$e/price}</pair>
}</result>"#;

/// Outcome of one multi-view catalog measurement.
#[derive(Clone, Copy, Debug)]
pub struct MultiViewPoint {
    /// Shared validation + relevancy routing + parallel apply (the catalog).
    pub catalog: Duration,
    /// The identical routed pipeline, forced sequential.
    pub catalog_seq: Duration,
    /// Naive baseline: one one-view catalog per view, each re-resolving
    /// and re-validating every script against its own store copy.
    pub naive: Duration,
    /// (update, view) pairs the catalog skipped by relevancy.
    pub views_skipped: usize,
    /// (update, view) pairs the catalog propagated.
    pub views_routed: usize,
}

/// Maintain `queries` under `scripts` three ways — catalog (parallel),
/// catalog (sequential), and a naive loop over one-view catalogs — timing
/// each and asserting all three produce identical extents.
pub fn measure_multiview(
    store: &Store,
    queries: &[(String, String)],
    scripts: &[String],
) -> MultiViewPoint {
    // Catalog, parallel.
    let mut cat = viewsrv::ViewCatalog::new(store.clone());
    for (name, q) in queries {
        cat.register(name, q).expect("view registers");
    }
    let t0 = Instant::now();
    for s in scripts {
        let _ =
            cat.apply_batch(&UpdateBatch::from_script(s).unwrap()).expect("catalog maintenance");
    }
    let catalog = t0.elapsed();
    let stats = cat.stats();

    // Catalog, sequential (same routing, no threads).
    let mut seq = viewsrv::ViewCatalog::new(store.clone());
    seq.set_pool(exec::Executor::new(1));
    for (name, q) in queries {
        seq.register(name, q).expect("view registers");
    }
    let t0 = Instant::now();
    for s in scripts {
        let _ =
            seq.apply_batch(&UpdateBatch::from_script(s).unwrap()).expect("sequential maintenance");
    }
    let catalog_seq = t0.elapsed();

    // Naive: independent one-view catalogs over private store copies.
    let mut solos: Vec<viewsrv::ViewCatalog> =
        queries.iter().map(|(_, q)| one_view(store.clone(), q)).collect();
    let t0 = Instant::now();
    for s in scripts {
        for solo in &mut solos {
            let _ =
                solo.apply_batch(&UpdateBatch::from_script(s).unwrap()).expect("naive maintenance");
        }
    }
    let naive = t0.elapsed();

    for ((name, _), solo) in queries.iter().zip(&solos) {
        let want = solo.extent_xml("v").unwrap();
        assert_eq!(cat.extent_xml(name).unwrap(), want, "catalog vs naive divergence on {name}");
        assert_eq!(seq.extent_xml(name).unwrap(), want, "sequential catalog divergence on {name}");
    }

    MultiViewPoint {
        catalog,
        catalog_seq,
        naive,
        views_skipped: stats.views_skipped,
        views_routed: stats.views_routed,
    }
}

/// The mixed update workload used by the multi-view sweep.
pub fn multiview_workload(cfg: &datagen::BibConfig, batches: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(batches * 3);
    for b in 0..batches {
        out.push(datagen::insert_books_script(cfg, cfg.books + b * 2, 2, Some(1900)));
        out.push(datagen::modify_prices_script(b * 3, 2, "33.33"));
        out.push(datagen::delete_books_script(b * 2, 1));
    }
    out
}

/// Outcome of one ingestion-front measurement.
#[derive(Clone, Copy, Debug)]
pub struct IngestPoint {
    /// One parse + `apply_batch` call per unit script (parse + resolve +
    /// shared validate + routed refresh, per call).
    pub per_call: Duration,
    /// The same units parsed once into typed batches and streamed through
    /// one [`viewsrv::IngestHub`] session with a coalescing window.
    pub session: Duration,
    /// Submissions the session accepted.
    pub submissions: usize,
    /// Coalesced applications the session performed.
    pub applications: usize,
}

/// Generated single-insert unit batches for the ingestion sweep: each unit
/// is one writer's submission (independent of every other unit, so
/// coalescing them is order-insensitive).
pub fn ingest_units(cfg: &datagen::BibConfig, n: usize) -> Vec<String> {
    (0..n).map(|i| datagen::insert_books_script(cfg, cfg.books + i, 1, Some(1900))).collect()
}

/// Maintain `queries` under `units` two ways — one script call per unit vs
/// a hub session coalescing typed batches under `window_ops` — timing both and
/// asserting identical extents plus the recompute oracle.
pub fn measure_ingest(
    store: &Store,
    queries: &[(String, String)],
    units: &[String],
    window_ops: usize,
) -> IngestPoint {
    // Baseline: one synchronous script application per unit.
    let mut per_call_cat = viewsrv::ViewCatalog::new(store.clone());
    for (name, q) in queries {
        per_call_cat.register(name, q).expect("view registers");
    }
    let t0 = Instant::now();
    for u in units {
        let _ = per_call_cat
            .apply_batch(&UpdateBatch::from_script(u).unwrap())
            .expect("per-call maintenance");
    }
    let per_call = t0.elapsed();

    // Ingestion front: parse once, stream through a bounded hub session.
    // The background window outlasts the run, so `commit` drains the
    // whole queue inline, `window_ops` at a time.
    let mut session_cat = viewsrv::ViewCatalog::new(store.clone());
    for (name, q) in queries {
        session_cat.register(name, q).expect("view registers");
    }
    let batches: Vec<viewsrv::UpdateBatch> =
        units.iter().map(|u| viewsrv::UpdateBatch::from_script(u).expect("unit parses")).collect();
    let hub = session_cat.into_hub(viewsrv::HubConfig {
        queue_capacity: units.len().max(1),
        window_ops,
        window_ms: 60_000,
        ..viewsrv::HubConfig::default()
    });
    let session = hub.handle();
    let t0 = Instant::now();
    for b in batches {
        session.try_submit(b).expect("capacity covers the workload");
    }
    let receipt = session.commit().expect("session maintenance");
    let session_time = t0.elapsed();
    drop(session);
    let inner = hub.shutdown();
    let session_cat = inner.catalog();

    for (name, _) in queries {
        assert_eq!(
            per_call_cat.extent_xml(name).unwrap(),
            session_cat.extent_xml(name).unwrap(),
            "per-call vs session divergence on {name}"
        );
    }
    session_cat.verify_all().expect("session oracle");

    IngestPoint {
        per_call,
        session: session_time,
        submissions: receipt.batches_submitted,
        applications: receipt.batches_applied,
    }
}

/// Outcome of one restart-cost measurement.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPoint {
    /// `DurableCatalog::open`: load the snapshot, reinstall extents, and
    /// replay the WAL tail incrementally.
    pub cold_open: Duration,
    /// The no-persistence baseline: rebuild the same catalog over the
    /// same final store by recomputing every extent from scratch.
    pub recompute: Duration,
    /// WAL records the cold open replayed.
    pub replayed_batches: usize,
    /// Bytes in the replayed log tail.
    pub wal_bytes: u64,
}

/// Build a durable catalog of `n_views` views over a `books`-book store
/// in `dir`, journal `tail` single-insert batches past the last
/// checkpoint, then measure reopening it (snapshot + `tail`-record
/// replay) against recomputing all extents from scratch. Asserts the
/// recovered extents equal the recomputation (every bench doubles as a
/// correctness check). The directory is created and removed.
pub fn measure_recovery(
    books: usize,
    n_views: usize,
    tail: usize,
    dir: &std::path::Path,
) -> RecoveryPoint {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = bib_config(books);
    let queries = multiview_queries(n_views, cfg.years);
    let mut cat = viewsrv::DurableCatalog::open(dir).expect("open durable catalog");
    cat.load_doc("bib.xml", &datagen::bib_xml(&cfg)).expect("load bib");
    cat.load_doc("prices.xml", &datagen::prices_xml(&cfg)).expect("load prices");
    for (name, q) in &queries {
        cat.register(name, q).expect("register view");
    }
    for i in 0..tail {
        let script = datagen::insert_books_script(&cfg, cfg.books + i, 1, Some(1900));
        let batch = viewsrv::UpdateBatch::from_script(&script).expect("workload parses");
        let _ = cat.apply_batch(&batch).expect("journaled apply");
    }
    let wal_bytes = cat.wal_bytes();
    drop(cat);

    let t0 = Instant::now();
    let cat = viewsrv::DurableCatalog::open(dir).expect("recovery");
    let cold_open = t0.elapsed();
    assert_eq!(cat.recovery().replayed_batches, tail, "replayed the whole tail");

    // Recompute-all baseline over the identical final store.
    let store = cat.catalog().store().clone();
    let t1 = Instant::now();
    let mut naive = viewsrv::ViewCatalog::new(store);
    for (name, q) in &queries {
        naive.register(name, q).expect("register view");
    }
    let recompute = t1.elapsed();
    for (name, _) in &queries {
        assert_eq!(
            cat.catalog().extent_xml(name).unwrap(),
            naive.extent_xml(name).unwrap(),
            "recovered extent diverged from recomputation on {name}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
    RecoveryPoint { cold_open, recompute, replayed_batches: tail, wal_bytes }
}

/// Outcome of one checkpoint-stall measurement at a fixed store size.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointPoint {
    /// Median per-commit latency with rotation disabled.
    pub steady_p50: Duration,
    /// Worst-percentile per-commit latency with rotation disabled.
    pub steady_p99: Duration,
    /// Median per-commit latency with a rotation forced at every commit.
    pub during_p50: Duration,
    /// Worst-percentile per-commit latency under forced rotation — the
    /// headline number: background checkpointing keeps it within a small
    /// multiple of steady state.
    pub during_p99: Duration,
    /// Checkpoint generations advanced during the measured window.
    pub rotations: u64,
    /// Store size at the start of the measured window.
    pub store_nodes: usize,
}

fn percentile(sorted: &[Duration], p: usize) -> Duration {
    sorted[(sorted.len() - 1) * p / 100]
}

/// Build a durable catalog of `n_views` views over a `books`-book store,
/// measure per-commit latency in steady state (no rotation), then force a
/// checkpoint at every commit and measure again. Asserts the
/// recompute oracle at the end (every bench doubles as a correctness
/// check). The directory is created and removed.
pub fn measure_checkpoint(books: usize, n_views: usize, dir: &std::path::Path) -> CheckpointPoint {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = bib_config(books);
    // Linear projection views: a one-book insert propagates as a small
    // extent delta, so the steady-state commit stays cheap and flat and
    // the per-rotation cost is the signal — join views would bury it
    // under O(store) propagation work per commit.
    let queries: Vec<(String, String)> = (0..n_views)
        .map(|i| {
            if i % 2 == 0 {
                (
                    format!("titles_{i}"),
                    r#"<result>{ for $b in doc("bib.xml")/bib/book return $b/title }</result>"#
                        .to_string(),
                )
            } else {
                (
                    format!("prices_{i}"),
                    r#"<result>{ for $e in doc("prices.xml")/prices/entry return <p>{$e/price}</p> }</result>"#
                        .to_string(),
                )
            }
        })
        .collect();
    let mut cat = viewsrv::DurableCatalog::open(dir).expect("open durable catalog");
    cat.load_doc("bib.xml", &datagen::bib_xml(&cfg)).expect("load bib");
    cat.load_doc("prices.xml", &datagen::prices_xml(&cfg)).expect("load prices");
    for (name, q) in &queries {
        cat.register(name, q).expect("register view");
    }
    // A private two-lane pool guarantees the background job really runs
    // on another thread even under `XQVIEW_POOL_THREADS=1` or on a
    // single-core runner (a one-lane pool degrades spawn to inline, which
    // would stall every rotating commit for the whole encode + fsync).
    cat.set_checkpoint_pool(exec::Executor::new(2));
    let store_nodes = cat.catalog().store().total_nodes();
    let commits = 30usize;
    let commit_once = |cat: &mut viewsrv::DurableCatalog, i: usize| -> Duration {
        let script = datagen::insert_books_script(&cfg, 5000 + i, 1, Some(1900));
        let batch = viewsrv::UpdateBatch::from_script(&script).expect("workload parses");
        let t0 = Instant::now();
        let _ = cat.apply_batch(&batch).expect("journaled commit");
        t0.elapsed()
    };

    // Phase hygiene (the BENCH_checkpoint anomaly): document loads and
    // view registration themselves checkpoint, and the detached encode
    // job can still hold the captured store/extent Arcs when the first
    // "steady" commits run — those commits then pay the one-time
    // copy-on-write unshare of every touched document, which used to
    // leak setup cost into steady_p99. Settle the in-flight job and pay
    // the unshare in unmeasured warmup commits so the steady phase
    // measures steady state only.
    cat.set_rotate_policy(viewsrv::RotatePolicy::disabled());
    cat.settle_checkpoint();
    for i in 0..4 {
        let _ = commit_once(&mut cat, 20_000 + i);
    }

    // Steady state: rotation disabled, every commit is append+apply+fsync.
    let mut steady: Vec<Duration> = (0..commits).map(|i| commit_once(&mut cat, i)).collect();

    // Rotation-heavy: the policy fires at every commit, so each latency
    // sample includes whatever the checkpointer does inline.
    let gen_before = cat.generation();
    cat.set_rotate_policy(viewsrv::RotatePolicy::records(1));
    let mut during: Vec<Duration> =
        (commits..2 * commits).map(|i| commit_once(&mut cat, i)).collect();
    let rotations = cat.generation() - gen_before;
    assert!(rotations > 0, "the forced policy must rotate");
    cat.settle_checkpoint();
    cat.verify_all().expect("checkpoint oracle");
    drop(cat);
    let _ = std::fs::remove_dir_all(dir);

    steady.sort();
    during.sort();
    CheckpointPoint {
        steady_p50: percentile(&steady, 50),
        steady_p99: percentile(&steady, 99),
        during_p50: percentile(&during, 50),
        during_p99: percentile(&during, 99),
        rotations,
        store_nodes,
    }
}

/// A family of `n` **self-join** views (bib.xml occurs twice, so every
/// propagation telescopes into two IMP terms — the per-term parallelism
/// workload). Year filters keep the quadratic join bounded and make the
/// views distinct.
pub fn selfjoin_queries(n: usize, years: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| {
            let year = 1900 + i % years.max(1);
            (
                format!("selfjoin_y{year}_{i}"),
                format!(
                    r#"<result>{{
  for $a in doc("bib.xml")/bib/book, $b in doc("bib.xml")/bib/book
  where $a/@year = $b/@year and $a/@year = "{year}"
  return <pair>{{$a/title}}{{$b/title}}</pair>
}}</result>"#
                ),
            )
        })
        .collect()
}

/// Outcome of one term-parallelism measurement at a fixed pool size.
#[derive(Clone, Copy, Debug)]
pub struct ParallelPoint {
    /// Summed Propagate-phase wall time over the workload's batches.
    pub propagate: Duration,
    /// Total wall time of applying the workload.
    pub total: Duration,
}

/// Maintain `queries` under `batches` on a catalog pinned to a private
/// `threads`-lane pool, reporting propagate/total wall time. Returns the
/// point plus the final extents so the caller can assert byte-equality
/// across pool sizes (every bench doubles as a correctness check).
pub fn measure_parallel(
    store: &Store,
    queries: &[(String, String)],
    batches: &[viewsrv::UpdateBatch],
    threads: usize,
) -> (ParallelPoint, Vec<String>) {
    let mut cat = viewsrv::ViewCatalog::new(store.clone());
    cat.set_pool(exec::Executor::new(threads));
    for (name, q) in queries {
        cat.register(name, q).expect("view registers");
    }
    let t0 = Instant::now();
    let mut propagate = Duration::ZERO;
    for b in batches {
        let receipt = cat.apply_batch(b).expect("parallel maintenance");
        propagate += receipt.stats.propagate;
    }
    let total = t0.elapsed();
    cat.verify_all().expect("parallel oracle");
    let extents = queries.iter().map(|(n, _)| cat.extent_xml(n).unwrap()).collect();
    (ParallelPoint { propagate, total }, extents)
}

/// Outcome of one phase-observability run: the merged live metrics
/// snapshot after driving hub traffic over a durable catalog, plus the
/// receipt-level totals the driver observed independently (so the caller
/// can cross-check snapshot counters against ground truth).
pub struct PhasePoint {
    /// The hub's merged [`obs::MetricsSnapshot`], captured while the
    /// catalog was live (no writer was stopped to take it).
    pub snapshot: obs::MetricsSnapshot,
    /// Chunks the sessions saw applied (sum of receipt counts).
    pub chunks_applied: usize,
    /// Typed ops submitted across all sessions.
    pub ops: usize,
}

/// Drive a [`viewsrv::DurableCatalog`] behind an [`viewsrv::IngestHub`]
/// with `writers` concurrent sessions × `per_writer` single-insert
/// batches under a rotation-heavy policy, then read the phase/WAL/
/// checkpoint breakdown **from the live obs registry** — the
/// `fig_phases` deliverable: the paper's per-phase cost decomposition
/// (validate / propagate / apply, Fig 9.2's bottom charts) recovered
/// from production telemetry instead of bench-side stopwatches.
pub fn measure_phases(
    books: usize,
    n_views: usize,
    writers: usize,
    per_writer: usize,
    dir: &std::path::Path,
) -> PhasePoint {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = bib_config(books);
    let queries = multiview_queries(n_views, cfg.years);
    let mut cat = viewsrv::DurableCatalog::open(dir).expect("open durable catalog");
    cat.load_doc("bib.xml", &datagen::bib_xml(&cfg)).expect("load bib");
    cat.load_doc("prices.xml", &datagen::prices_xml(&cfg)).expect("load prices");
    for (name, q) in &queries {
        cat.register(name, q).expect("register view");
    }
    // Rotate every couple of records so the background checkpoint stages
    // (seal included) show up in the same window as the WAL and phase
    // series — coalescing compresses each session's queue into one WAL
    // record per round, so the record count grows slowly.
    cat.set_rotate_policy(viewsrv::RotatePolicy::records(2));
    cat.set_checkpoint_pool(exec::Executor::new(2));
    let hub = cat.into_hub(viewsrv::HubConfig::default());

    let mut ops = 0usize;
    let mut chunks_applied = 0usize;
    std::thread::scope(|s| {
        let joins: Vec<_> = (0..writers)
            .map(|w| {
                let handle = hub.handle();
                let cfg = &cfg;
                s.spawn(move || {
                    let mut ops = 0usize;
                    let mut chunks = 0usize;
                    let mut tally = |r: viewsrv::SessionReceipt| {
                        ops += r.ops;
                        chunks += r.batches_applied;
                    };
                    for i in 0..per_writer {
                        let script = datagen::insert_books_script(
                            cfg,
                            cfg.books + w * per_writer + i,
                            1,
                            Some(1900),
                        );
                        let batch =
                            viewsrv::UpdateBatch::from_script(&script).expect("workload parses");
                        let mut batch = Some(batch);
                        while let Some(b) = batch.take() {
                            match handle.try_submit(b) {
                                Ok(()) => {}
                                Err(viewsrv::IngestError::QueueFull { batch: b, .. }) => {
                                    // Backpressure: drain our own queue and retry.
                                    tally(handle.commit().expect("commit under backpressure"));
                                    batch = Some(b);
                                }
                                Err(e) => panic!("submit failed: {e}"),
                            }
                        }
                        // Commit every few batches so each writer drives
                        // several hub rounds (and WAL records) instead of
                        // coalescing its whole run into one chunk.
                        if i % 3 == 2 {
                            tally(handle.commit().expect("periodic commit"));
                        }
                    }
                    tally(handle.commit().expect("final commit"));
                    (ops, chunks)
                })
            })
            .collect();
        for j in joins {
            let (o, c) = j.join().expect("writer thread");
            ops += o;
            chunks_applied += c;
        }
    });

    // Captured while the hub (and its drain thread) is still live.
    let snapshot = hub.metrics();
    hub.shutdown().catalog().verify_all().expect("phase-sweep oracle");
    let _ = std::fs::remove_dir_all(dir);
    PhasePoint { snapshot, chunks_applied, ops }
}

/// Beyond the paper: one open-loop network load point. An in-process
/// [`server::Server`] over a volatile catalog is seeded with the
/// `books`-book bib/prices pair and two maintained views (one the insert
/// workload hits, one it only routes past), then driven by
/// `connections` open-loop clients at `rate_per_conn` arrivals/s each —
/// [`client::load`]'s coordinated-omission-free generator. The returned
/// report carries throughput and p50/p90/p99 scheduled-arrival latency.
pub fn measure_net(
    books: usize,
    connections: usize,
    rate_per_conn: f64,
    requests_per_conn: usize,
) -> client::load::LoadReport {
    let srv = server::Server::start_volatile(net_catalog(books), server::ServerConfig::default())
        .expect("start in-process server");
    let cfg = client::load::LoadConfig {
        addr: srv.local_addr().to_string(),
        connections,
        rate_per_conn,
        requests_per_conn,
        // One op per batch: the figure measures the front door and the
        // hub round path, not batch-size scaling (fig_ingest covers that).
        ops_per_batch: 1,
        ..client::load::LoadConfig::default()
    };
    let report = client::load::run(&cfg).expect("load run");
    drop(srv);
    report
}

/// The two-view volatile catalog every network-front experiment serves:
/// the open-loop load generator inserts year-2002 books, so "hot" is
/// maintained on every batch while "cold" is routed and skipped.
fn net_catalog(books: usize) -> viewsrv::ViewCatalog {
    let (store, _cfg) = bib_store(books);
    let mut cat = viewsrv::ViewCatalog::new(store);
    cat.register(
        "hot",
        r#"<result>{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "2002"
  return <hit>{$b/title}</hit>
}</result>"#,
    )
    .expect("register hot view");
    cat.register(
        "cold",
        r#"<result>{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "1901"
  return <hit>{$b/title}</hit>
}</result>"#,
    )
    .expect("register cold view");
    cat
}

/// Outcome of one in-process epoch-read fan-out measurement (ISSUE 8):
/// `readers` handles pinning and serializing the hot extent in a closed
/// loop, optionally against a writer committing as fast as the hub
/// accepts.
#[derive(Clone, Copy, Debug)]
pub struct ReadsPoint {
    pub readers: usize,
    /// Whether a concurrent writer was committing during the window.
    pub write_load: bool,
    /// Reads completed across all readers.
    pub reads: u64,
    /// Aggregate reads per second of wall time.
    pub read_throughput_rps: f64,
    pub read_p50: Duration,
    pub read_p99: Duration,
    /// Epoch age observed at pin time — the staleness a reader actually
    /// experiences (distribution, not a bound).
    pub staleness_p50: Duration,
    pub staleness_p99: Duration,
    /// Epochs the hub published during the window.
    pub epochs_published: u64,
    /// Batches the concurrent writer committed (0 when idle).
    pub commits: u64,
    pub write_throughput_rps: f64,
}

/// Pin-and-read fan-out over a live hub: `readers` threads each own a
/// [`viewsrv::ReadHandle`] and loop `pin → age → serialize extent` for
/// `window`, while (optionally) one writer submits and commits
/// single-insert batches flat out. Nothing in the read loop takes a
/// lock or touches the hub state mutex — the measured scaling *is* the
/// tentpole claim. Ends with the epoch-vs-oracle verification (every
/// bench doubles as a correctness check).
pub fn measure_reads(
    books: usize,
    readers: usize,
    write_load: bool,
    window: Duration,
) -> ReadsPoint {
    let cfg = bib_config(books);
    let hub = net_catalog(books).into_hub(viewsrv::HubConfig {
        // Drain promptly so epochs track the write stream closely.
        window_ms: 1,
        ..viewsrv::HubConfig::default()
    });
    let publishes0 = hub.metrics().counter("epoch/publishes");
    let stop = std::sync::atomic::AtomicBool::new(false);
    let t0 = Instant::now();

    let (mut lat, mut stale, mut commits) = (Vec::new(), Vec::new(), 0u64);
    std::thread::scope(|s| {
        let stop = &stop;
        let writer = write_load.then(|| {
            let handle = hub.handle();
            let cfg = &cfg;
            s.spawn(move || {
                let mut n = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let script =
                        datagen::insert_books_script(cfg, 7000 + n as usize, 1, Some(2002));
                    let batch =
                        viewsrv::UpdateBatch::from_script(&script).expect("workload parses");
                    handle.try_submit(batch).expect("queue never fills: commit drains inline");
                    let _ = handle.commit().expect("commit succeeds");
                    n += 1;
                }
                n
            })
        });
        let reader_joins: Vec<_> = (0..readers)
            .map(|_| {
                let mut rh = hub.read_handle();
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let mut stale = Vec::new();
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let t = Instant::now();
                        let epoch = rh.pin();
                        stale.push(epoch.age());
                        let bytes = epoch.extent_bytes("hot").expect("hot view exists");
                        std::hint::black_box(&bytes);
                        lat.push(t.elapsed());
                    }
                    (lat, stale)
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for j in reader_joins {
            let (l, st) = j.join().expect("reader thread");
            lat.extend(l);
            stale.extend(st);
        }
        if let Some(w) = writer {
            commits = w.join().expect("writer thread");
        }
    });
    let elapsed = t0.elapsed();
    let epochs_published = hub.metrics().counter("epoch/publishes") - publishes0;

    // Correctness: the final epoch equals recomputing every view from its
    // own frozen store, and the shut-down catalog passes the full oracle.
    let final_epoch = hub.read_handle().pin();
    final_epoch.verify().expect("final epoch oracle");
    hub.shutdown().catalog().verify_all().expect("reads oracle");

    lat.sort_unstable();
    stale.sort_unstable();
    let reads = lat.len() as u64;
    ReadsPoint {
        readers,
        write_load,
        reads,
        read_throughput_rps: reads as f64 / elapsed.as_secs_f64().max(1e-9),
        read_p50: percentile(&lat, 50),
        read_p99: percentile(&lat, 99),
        staleness_p50: percentile(&stale, 50),
        staleness_p99: percentile(&stale, 99),
        epochs_published,
        commits,
        write_throughput_rps: commits as f64 / elapsed.as_secs_f64().max(1e-9),
    }
}

/// Outcome of one network read-under-write-load measurement: closed-loop
/// `QueryView` clients against a server that is simultaneously being
/// driven by the open-loop write generator.
#[derive(Clone, Debug)]
pub struct NetReadsPoint {
    pub read_conns: usize,
    /// Queries completed across all read connections.
    pub reads: u64,
    pub read_throughput_rps: f64,
    /// Closed-loop per-request latency (send → decoded response), µs.
    pub read_p50_us: u64,
    pub read_p99_us: u64,
    /// The concurrent write run's report (open-loop, scheduled-arrival
    /// latency basis — not comparable to the read numbers).
    pub write: client::load::LoadReport,
}

/// The before/after companion to [`measure_net`]'s saturation point:
/// run the same open-loop write load, and *while it runs* hammer the
/// server with `read_conns` closed-loop `QueryView` clients. On the
/// pre-epoch server those reads queued behind every drain round's
/// catalog checkout; on the epoch path they are answered from the
/// frozen snapshot. Every 64th response is decoded as a correctness
/// check.
pub fn measure_reads_net(
    books: usize,
    read_conns: usize,
    write_conns: usize,
    rate_per_conn: f64,
    requests_per_conn: usize,
) -> NetReadsPoint {
    let srv = server::Server::start_volatile(net_catalog(books), server::ServerConfig::default())
        .expect("start in-process server");
    let addr = srv.local_addr().to_string();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let t0 = Instant::now();
    let (mut lat_ns, mut write_report) = (Vec::<u64>::new(), None);
    std::thread::scope(|s| {
        let stop = &stop;
        let addr = &addr;
        let load = s.spawn(move || {
            let report = client::load::run(&client::load::LoadConfig {
                addr: addr.clone(),
                connections: write_conns,
                rate_per_conn,
                requests_per_conn,
                ops_per_batch: 1,
                ..client::load::LoadConfig::default()
            })
            .expect("write load run");
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            report
        });
        let readers: Vec<_> = (0..read_conns)
            .map(|i| {
                s.spawn(move || {
                    let mut c = client::Client::connect_with_retry(
                        addr,
                        &format!("reader-{i}"),
                        20,
                        Duration::from_millis(50),
                    )
                    .expect("reader connects");
                    let mut lat = Vec::new();
                    let mut n = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let t = Instant::now();
                        let bytes = c.query_view_bytes("hot").expect("epoch read");
                        lat.push(t.elapsed().as_nanos() as u64);
                        if n.is_multiple_of(64) {
                            let _: xat::ViewExtent =
                                wire::from_slice(&bytes).expect("extent decodes");
                        }
                        n += 1;
                    }
                    lat
                })
            })
            .collect();
        for r in readers {
            lat_ns.extend(r.join().expect("reader connection"));
        }
        write_report = Some(load.join().expect("write load thread"));
    });
    let elapsed = t0.elapsed();
    drop(srv);
    lat_ns.sort_unstable();
    let q = |p: usize| -> u64 {
        if lat_ns.is_empty() {
            return 0;
        }
        lat_ns[(lat_ns.len() - 1) * p / 100] / 1_000
    };
    let reads = lat_ns.len() as u64;
    NetReadsPoint {
        read_conns,
        reads,
        read_throughput_rps: reads as f64 / elapsed.as_secs_f64().max(1e-9),
        read_p50_us: q(50),
        read_p99_us: q(99),
        write: write_report.expect("load thread joined"),
    }
}

pub mod harness {
    //! Minimal statistical bench harness (the environment has no registry
    //! access, so Criterion is unavailable): fixed sample count, median +
    //! min reporting, setup excluded from timing. Used by the `benches/`
    //! targets; the `figures` binary does its own full sweeps.

    use std::time::{Duration, Instant};

    /// Run `samples` timed iterations of `routine` and print min / median.
    pub fn bench(name: &str, samples: usize, mut routine: impl FnMut() -> Duration) {
        assert!(samples > 0);
        let mut times: Vec<Duration> = (0..samples).map(|_| routine()).collect();
        times.sort();
        println!(
            "{name:<44} min {} ms   median {} ms   ({samples} samples)",
            super::ms(times[0]).trim(),
            super::ms(times[times.len() / 2]).trim(),
        );
    }

    /// Time `f` on a value produced by `setup` (setup excluded), like
    /// Criterion's `iter_with_setup`.
    pub fn timed_with_setup<S, T>(
        name: &str,
        samples: usize,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> T,
    ) {
        bench(name, samples, || {
            let input = setup();
            let t0 = Instant::now();
            let out = f(input);
            let d = t0.elapsed();
            std::hint::black_box(out);
            d
        });
    }

    /// Time `f` directly.
    pub fn timed<T>(name: &str, samples: usize, mut f: impl FnMut() -> T) {
        bench(name, samples, || {
            let t0 = Instant::now();
            let out = f();
            let d = t0.elapsed();
            std::hint::black_box(out);
            d
        });
    }
}

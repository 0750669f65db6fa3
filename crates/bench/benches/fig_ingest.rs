//! Bench for the ingestion front: one parse + `apply_batch` call per unit
//! update vs the same units parsed once and streamed through one
//! `viewsrv::IngestHub` session with a coalescing window (the `figures`
//! binary sweeps window sizes).

use vpa_bench::harness::timed;
use vpa_bench::*;

fn main() {
    let books = 400usize;
    let n_views = 8usize;
    let n_units = 32usize;
    let window_ops = 8usize;
    let (store, cfg) = bib_store(books);
    let queries = multiview_queries(n_views, cfg.years);
    let units = ingest_units(&cfg, n_units);
    println!("== fig_ingest ({n_views} views, {n_units} unit updates, window {window_ops}) ==");
    timed("per_call_vs_session", 5, || measure_ingest(&store, &queries, &units, window_ops));
}

//! Bench for the multi-view catalog: shared validation + parallel apply
//! (`viewsrv::ViewCatalog`) vs the identical pipeline run sequentially vs a
//! naive loop over one-view catalogs, at a representative view count (the
//! `figures` binary sweeps view counts).

use vpa_bench::harness::timed;
use vpa_bench::*;

fn main() {
    let books = 400usize;
    let n_views = 8usize;
    let (store, cfg) = bib_store(books);
    let queries = multiview_queries(n_views, cfg.years);
    let scripts = multiview_workload(&cfg, 2);
    println!("== fig_multiview ({n_views} views, {books} books) ==");
    timed("catalog_vs_naive_all_modes", 5, || measure_multiview(&store, &queries, &scripts));
}

//! Bench for Figures 9.2/9.4/9.5: incremental maintenance vs full
//! recomputation for single-insert and single-delete updates.

use viewsrv::UpdateBatch;
use vpa_bench::harness::timed_with_setup;
use vpa_bench::*;

fn main() {
    let books = 1000usize;
    println!("== fig9_maintenance_vs_recompute ==");
    timed_with_setup(
        "insert_one/incremental",
        10,
        || {
            let (store, cfg) = bib_store(books);
            let cat = one_view(store, GROUPED_BIB_VIEW);
            let script = datagen::insert_books_script(&cfg, books, 1, Some(1900));
            (cat, script)
        },
        |(mut cat, script)| {
            let _ = cat.apply_batch(&UpdateBatch::from_script(&script).unwrap()).unwrap();
            cat
        },
    );
    timed_with_setup(
        "insert_one/recompute",
        10,
        || {
            let (store, cfg) = bib_store(books);
            let mut cat = one_view(store, GROUPED_BIB_VIEW);
            // Apply to sources; timing covers only recomputation.
            let _ = cat
                .apply_batch(
                    &UpdateBatch::from_script(&datagen::insert_books_script(
                        &cfg,
                        books,
                        1,
                        Some(1900),
                    ))
                    .unwrap(),
                )
                .unwrap();
            cat
        },
        |cat| {
            let x = cat.view("v").unwrap().recompute_xml(cat.store()).unwrap();
            (cat, x)
        },
    );
    timed_with_setup(
        "delete_one/incremental",
        10,
        || {
            let (store, _) = bib_store(books);
            let cat = one_view(store, GROUPED_BIB_VIEW);
            (cat, datagen::delete_books_script(0, 1))
        },
        |(mut cat, script)| {
            let _ = cat.apply_batch(&UpdateBatch::from_script(&script).unwrap()).unwrap();
            cat
        },
    );
}

//! `fig_checkpoint` — producer commit latency while checkpoints rotate
//! (seal + detached snapshot job), at a representative store size. The
//! full store-size sweep (and the `BENCH_checkpoint.json` series) lives in
//! the `figures` binary; this target gives the statistical min/median
//! points.
//!
//! ```sh
//! cargo bench -p vpa-bench --bench fig_checkpoint
//! ```

use vpa_bench::{harness, measure_checkpoint};

fn main() {
    let books = 800;
    let n_views = 6;
    let dir = std::env::temp_dir().join(format!("xqview-bench-ckpt-{}", std::process::id()));
    harness::bench("during-rotation p99 commit", 3, || {
        measure_checkpoint(books, n_views, &dir).during_p99
    });
    harness::bench("steady-state p99 commit (no rotation)", 3, || {
        measure_checkpoint(books, n_views, &dir).steady_p99
    });
    let _ = std::fs::remove_dir_all(&dir);
}

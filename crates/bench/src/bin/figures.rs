//! `figures` — regenerate every evaluation figure of the paper as printed
//! series (the bench-harness deliverable; see DESIGN.md's experiment index
//! and EXPERIMENTS.md for paper-vs-measured).
//!
//! ```sh
//! cargo run --release -p vpa-bench --bin figures          # everything
//! cargo run --release -p vpa-bench --bin figures fig3     # one group
//! ```
//!
//! Groups: `fig3` (3.7–3.10 order cost), `fig4` (4.9/4.10 semantic ids),
//! `fig9_1` (enabling VM), `fig9_2` (doc-size sweep), `fig9_3`
//! (selectivity), `fig9_4` (insert size), `fig9_5` (delete size), `fig9_6`
//! (fragment deletion).

use std::sync::Arc;
use std::time::Instant;
use viewsrv::UpdateBatch;
use vpa_bench::*;
use xat::exec::ExecOptions;

fn main() {
    let filter = std::env::args().nth(1).unwrap_or_default();
    let run = |name: &str| filter.is_empty() || filter == name;
    // Scaled-down defaults keep the full sweep to a few minutes; pass
    // FIGURES_SCALE=paper for the paper's 5–25 MB documents.
    let paper_scale = std::env::var("FIGURES_SCALE").as_deref() == Ok("paper");
    let mbs: Vec<usize> = if paper_scale { vec![5, 10, 15, 20, 25] } else { vec![1, 2, 3, 4, 5] };

    if run("fig3") {
        fig3_order_cost(&mbs);
    }
    if run("fig4") {
        fig4_semid_cost(&mbs);
    }
    if run("fig9_1") {
        fig9_1_enable_cost();
    }
    if run("fig9_2") {
        fig9_2_doc_size();
    }
    if run("fig9_3") {
        fig9_3_selectivity();
    }
    if run("fig9_4") {
        fig9_4_insert_size();
    }
    if run("fig9_5") {
        fig9_5_delete_size();
    }
    if run("fig9_6") {
        fig9_6_fragment_delete();
    }
    if run("fig_multiview") {
        fig_multiview();
    }
    if run("fig_ingest") {
        fig_ingest();
    }
    if run("fig_recovery") {
        fig_recovery();
    }
    if run("fig_parallel") {
        fig_parallel();
    }
    if run("fig_checkpoint") {
        fig_checkpoint();
    }
    if run("fig_phases") {
        fig_phases();
    }
    if run("fig_net") {
        fig_net();
    }
    if run("fig_reads") {
        fig_reads();
    }
}

/// Epoch read fan-out (ISSUE 8, beyond the paper): read throughput ×
/// reader count × concurrent-write load, served lock-free off the hub's
/// frozen epoch chain, plus the observed staleness distribution and the
/// network read-under-write-load companion to `fig_net`'s 16-connection
/// saturation point. Emits `BENCH_reads.json`. The headline shapes:
/// in-process read throughput scales with reader count *while a writer
/// commits flat out* (readers never take a lock), and `QueryView` over
/// TCP stays at interactive latency under the same 16-connection write
/// load that saturates the write path.
fn fig_reads() {
    println!("\n== fig_reads: lock-free epoch reads under concurrent writes ==");
    let books = 200usize;
    let window = std::time::Duration::from_millis(500);
    println!(
        "{:>8} {:>7} {:>12} {:>10} {:>10} {:>11} {:>11} {:>8} {:>9}",
        "readers",
        "writer",
        "reads/s",
        "p50 µs",
        "p99 µs",
        "stale-p50",
        "stale-p99",
        "epochs",
        "commits/s"
    );
    let mut rows = Vec::new();
    for write_load in [false, true] {
        for readers in [1usize, 2, 4, 8] {
            let p = measure_reads(books, readers, write_load, window);
            let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
            println!(
                "{:>8} {:>7} {:>12.0} {:>10.1} {:>10.1} {:>9.0}µs {:>9.0}µs {:>8} {:>9.1}",
                p.readers,
                if p.write_load { "yes" } else { "idle" },
                p.read_throughput_rps,
                us(p.read_p50),
                us(p.read_p99),
                us(p.staleness_p50),
                us(p.staleness_p99),
                p.epochs_published,
                p.write_throughput_rps,
            );
            rows.push(format!(
                "    {{\"readers\": {}, \"write_load\": {}, \"reads\": {}, \
                 \"read_throughput_rps\": {:.0}, \"read_p50_us\": {:.1}, \"read_p99_us\": {:.1}, \
                 \"staleness_p50_us\": {:.1}, \"staleness_p99_us\": {:.1}, \"epochs_published\": \
                 {}, \"commits\": {}, \"write_throughput_rps\": {:.1}}}",
                p.readers,
                p.write_load,
                p.reads,
                p.read_throughput_rps,
                us(p.read_p50),
                us(p.read_p99),
                us(p.staleness_p50),
                us(p.staleness_p99),
                p.epochs_published,
                p.commits,
                p.write_throughput_rps,
            ));
        }
    }

    // The network companion: fig_net's saturation point (16 open-loop
    // write connections) with 4 closed-loop QueryView clients riding on
    // top. Before the epoch path, those reads queued behind every drain
    // round's catalog checkout (BENCH_net's p50 at 16 connections sat in
    // the hundreds of milliseconds); now they are answered from the
    // frozen snapshot.
    let write_conns = 16usize;
    let read_conns = 4usize;
    let rate = 100.0f64;
    let requests = 200usize;
    let nr = measure_reads_net(books, read_conns, write_conns, rate, requests);
    println!(
        "net: {read_conns} read conns under {write_conns}-conn write load: {:7.0} reads/s   p50 \
         {:>6} µs   p99 {:>6} µs   (writes: {:.0} req/s, p99 {} µs)",
        nr.read_throughput_rps,
        nr.read_p50_us,
        nr.read_p99_us,
        nr.write.throughput_rps,
        nr.write.p99_us
    );

    let json = format!(
        "{{\n  \"figure\": \"reads\",\n  {},\n  \"catalog\": \"volatile\",\n  \"books\": \
         {books},\n  \"views\": 2,\n  \"window_ms\": {},\n  \"read_workload\": \"pin epoch + \
         serialize hot extent (closed loop)\",\n  \"write_workload\": \"single-insert commit \
         loop, flat out\",\n  \"in_process\": [\n{}\n  ],\n  \"net_reads_under_write_load\": \
         {{\"read_conns\": {}, \"write_conns\": {write_conns}, \"rate_per_conn\": {rate}, \
         \"requests_per_conn\": {requests}, \"reads\": {}, \"read_throughput_rps\": {:.0}, \
         \"read_p50_us\": {}, \"read_p99_us\": {}, \"write_throughput_rps\": {:.1}, \
         \"write_p50_us\": {}, \"write_p99_us\": {}, \"write_backpressure\": {}, \
         \"write_errors\": {}, \"note\": \"read latency is closed-loop (send to decoded \
         response); write latency is open-loop from scheduled arrival — the same basis as \
         BENCH_net, whose 16-connection point is the before to this after\"}}\n}}\n",
        env_header_json(),
        window.as_millis(),
        rows.join(",\n"),
        nr.read_conns,
        nr.reads,
        nr.read_throughput_rps,
        nr.read_p50_us,
        nr.read_p99_us,
        nr.write.throughput_rps,
        nr.write.p50_us,
        nr.write.p99_us,
        nr.write.backpressure,
        nr.write.errors,
    );
    match std::fs::write("BENCH_reads.json", &json) {
        Ok(()) => println!("wrote BENCH_reads.json"),
        Err(e) => println!("could not write BENCH_reads.json: {e}"),
    }
}

/// Network front-door sweep (beyond the paper): open-loop many-connection
/// load against an in-process TCP server — throughput and p50/p90/p99
/// request latency (measured from each request's *scheduled* arrival, so
/// queueing delay is not hidden by coordinated omission) across
/// connection counts. Emits `BENCH_net.json`.
fn fig_net() {
    println!("== fig_net: open-loop network load vs connection count ==");
    let books = 200usize;
    let rate = 100.0f64;
    let requests = 200usize;
    let mut rows = Vec::new();
    for connections in [1usize, 2, 4, 8, 16] {
        let r = measure_net(books, connections, rate, requests);
        println!(
            "connections {connections:>2}: {:7.0} req/s   p50 {:>6} µs   p90 {:>6} µs   p99 \
             {:>6} µs   max {:>7} µs   ({} backpressure, {} errors)",
            r.throughput_rps, r.p50_us, r.p90_us, r.p99_us, r.max_us, r.backpressure, r.errors
        );
        rows.push(format!(
            "{{\"connections\": {connections}, \"requests\": {}, \"throughput_rps\": {:.1}, \
             \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"backpressure\": \
             {}, \"errors\": {}}}",
            r.requests,
            r.throughput_rps,
            r.p50_us,
            r.p90_us,
            r.p99_us,
            r.max_us,
            r.backpressure,
            r.errors
        ));
    }
    let json = format!(
        "{{\n  \"figure\": \"net\",\n  {},\n  \"catalog\": \"volatile\",\n  \"books\": {books},\n  \
         \"views\": 2,\n  \"rate_per_conn\": {rate},\n  \"requests_per_conn\": {requests},\n  \
         \"latency_basis\": \"scheduled arrival (open loop)\",\n  \"series\": [\n    {}\n  ]\n}}\n",
        env_header_json(),
        rows.join(",\n    ")
    );
    match std::fs::write("BENCH_net.json", &json) {
        Ok(()) => println!("wrote BENCH_net.json"),
        Err(e) => println!("could not write BENCH_net.json: {e}"),
    }
}

/// Phase-observability sweep (beyond the paper): drive multi-writer hub
/// traffic over a durable catalog and read the validate/propagate/apply
/// breakdown, the WAL fsync/group-commit latencies, and the per-stage
/// checkpoint costs **from the live obs registry** — the snapshot is
/// taken while writers run, not from bench-side stopwatches. Emits
/// `BENCH_phases.json` with the full metrics snapshot embedded, so the
/// checkpoint-p99 culprit (ROADMAP item 4) is named by a committed
/// artifact rather than rediscovered ad hoc.
fn fig_phases() {
    println!("\n== fig_phases: live-registry phase breakdown under hub traffic ==");
    let books = 400usize;
    let n_views = 6usize;
    let writers = 4usize;
    let per_writer = 12usize;
    let dir = std::env::temp_dir().join(format!("xqview-figphases-{}", std::process::id()));
    let p = measure_phases(books, n_views, writers, per_writer, &dir);
    let us = |ns: u64| ns as f64 / 1e3;
    println!(
        "{:<22} {:>8} {:>12} {:>12} {:>12}",
        "series", "count", "p50(us)", "p99(us)", "max(us)"
    );
    let headline = [
        "svc/validate",
        "svc/propagate",
        "svc/apply",
        "hub/round",
        "wal/append",
        "wal/fsync",
        "wal/group_fsync",
        "wal/commit_sync",
        "ckpt/capture",
        "ckpt/seal",
        "ckpt/encode",
        "ckpt/write",
        "ckpt/rename",
        "ckpt/prune",
    ];
    let mut rows = Vec::new();
    for name in headline {
        let Some(h) = p.snapshot.histogram(name) else {
            println!("{name:<22} {:>8}", "absent");
            continue;
        };
        println!(
            "{:<22} {:>8} {:>12.1} {:>12.1} {:>12.1}",
            name,
            h.count(),
            us(h.p50()),
            us(h.p99()),
            us(h.max()),
        );
        rows.push(format!(
            "    {{\"name\": \"{name}\", \"count\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
             \"p99_ns\": {}, \"max_ns\": {}}}",
            h.count(),
            h.p50(),
            h.p90(),
            h.p99(),
            h.max(),
        ));
    }
    // Count-valued histograms (occupancy, not latency) print raw.
    for name in ["session/chunk_coalesced", "session/chunk_ops", "hub/round_sessions"] {
        if let Some(h) = p.snapshot.histogram(name) {
            println!("{:<26} count {:>5}  p50 {:>5}  max {:>5}", name, h.count(), h.p50(), h.max());
            rows.push(format!(
                "    {{\"name\": \"{name}\", \"count\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
                 \"p99_ns\": {}, \"max_ns\": {}}}",
                h.count(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max(),
            ));
        }
    }
    println!(
        "chunks applied: {} (sessions) / {} (hub counter); ops: {}",
        p.chunks_applied,
        p.snapshot.counter("hub/chunks"),
        p.ops,
    );
    let json = format!(
        "{{\n  \"figure\": \"phases\",\n  {},\n  \"books\": {books},\n  \"views\": {n_views},\n  \
         \"writers\": {writers},\n  \"batches_per_writer\": {per_writer},\n  \
         \"chunks_applied\": {},\n  \"series\": [\n{}\n  ],\n  \"metrics\": {}}}\n",
        env_header_json(),
        p.chunks_applied,
        rows.join(",\n"),
        p.snapshot.to_json(),
    );
    match std::fs::write("BENCH_phases.json", &json) {
        Ok(()) => println!("wrote BENCH_phases.json"),
        Err(e) => println!("could not write BENCH_phases.json: {e}"),
    }
}

/// Checkpoint-stall sweep (beyond the paper): per-commit latency while
/// the WAL rotates at every commit, across store sizes. Emits
/// `BENCH_checkpoint.json`. The headline shape: background rotation costs
/// a seal + empty-log create, keeping the during-rotation p50 within
/// ~2–3× steady state — the maintenance-cost-tracks-the-update contract
/// extended to durability. Caveat (`cores` is in the JSON): the *during*
/// percentiles carry (a) the one-time copy-on-write unshare the first
/// post-capture write pays per touched extent, and (b) on a single-core
/// runner, CPU contention with the encode job itself, which a second
/// core removes.
///
/// Phase accounting: registration-time checkpoints can leave a detached
/// encode job holding captured Arcs into the steady phase, so early
/// "steady" commits would pay the post-capture unshare.
/// `measure_checkpoint` settles the in-flight job and runs unmeasured
/// warmup commits first; the `note` field in the JSON records this.
fn fig_checkpoint() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\n== fig_checkpoint: commit latency under rotation ({cores} cores) ==");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "books", "nodes", "steady-p50", "steady-p99", "during-p99", "rotations", "ratio"
    );
    let n_views = 6usize;
    let dir = std::env::temp_dir().join(format!("xqview-figckpt-{}", std::process::id()));
    let mut rows = Vec::new();
    for books in [200usize, 800, 2400] {
        let p = measure_checkpoint(books, n_views, &dir);
        // How much worse a during-rotation commit is than steady state.
        let ratio = p.during_p99.as_secs_f64() / p.steady_p99.as_secs_f64().max(1e-9);
        println!(
            "{:>6} {:>8} {} {} {} {:>10} {:>7.2}x",
            books,
            p.store_nodes,
            ms(p.steady_p50),
            ms(p.steady_p99),
            ms(p.during_p99),
            p.rotations,
            ratio,
        );
        rows.push(format!(
            "    {{\"books\": {}, \"store_nodes\": {}, \
             \"steady_p50_ms\": {:.3}, \"steady_p99_ms\": {:.3}, \"during_p50_ms\": {:.3}, \
             \"during_p99_ms\": {:.3}, \"rotations\": {}, \"during_over_steady_p99\": {:.3}}}",
            books,
            p.store_nodes,
            p.steady_p50.as_secs_f64() * 1e3,
            p.steady_p99.as_secs_f64() * 1e3,
            p.during_p50.as_secs_f64() * 1e3,
            p.during_p99.as_secs_f64() * 1e3,
            p.rotations,
            ratio,
        ));
    }
    let json = format!(
        "{{\n  \"figure\": \"checkpoint\",\n  {},\n  \"views\": {n_views},\n  \
         \"commits_per_phase\": 30,\n  \"note\": \"steady phase starts after settling \
         registration-time checkpoints and 4 unmeasured warmup commits, so the one-time \
         first-write-after-capture copy-on-write unshare no longer leaks setup cost into \
         steady percentiles; during-rotation percentiles still include it, deliberately — \
         it is part of background checkpointing's real per-rotation cost\",\n  \
         \"series\": [\n{}\n  ]\n}}\n",
        env_header_json(),
        rows.join(",\n")
    );
    match std::fs::write("BENCH_checkpoint.json", &json) {
        Ok(()) => println!("wrote BENCH_checkpoint.json"),
        Err(e) => println!("could not write BENCH_checkpoint.json: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Term-parallelism sweep (beyond the paper): self-join views (two IMP
/// terms per propagation) maintained across view counts × pool sizes.
/// Emits `BENCH_parallel.json`; the headline point is the 8-view row at
/// 4 threads beating the 1-thread pool by >1.5× on the Propagate phase —
/// **on a ≥4-core machine**. On fewer cores the sweep degenerates to ≈1×
/// plus scheduling overhead (`cores` is recorded in the JSON so a reader
/// can tell which regime a run measured). Every cell asserts
/// byte-identical extents against the 1-thread run — the determinism
/// contract, measured.
fn fig_parallel() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\n== fig_parallel: per-term IMP parallelism (self-join views, {cores} cores) ==");
    println!(
        "{:>6} {:>8} {:>14} {:>11} {:>9}",
        "views", "threads", "propagate(ms)", "total(ms)", "speedup"
    );
    let books = 400usize;
    let (store, cfg) = bib_store(books);
    let batches: Vec<viewsrv::UpdateBatch> = (0..3)
        .map(|i| {
            let s = datagen::insert_books_script(&cfg, cfg.books + i * 2, 2, Some(1900));
            viewsrv::UpdateBatch::from_script(&s).expect("workload parses")
        })
        .collect();
    let mut rows = Vec::new();
    for n_views in [1usize, 2, 4, 8] {
        let queries = selfjoin_queries(n_views, cfg.years);
        let (serial, reference) = measure_parallel(&store, &queries, &batches, 1);
        for threads in [1usize, 2, 4] {
            let (p, extents) = if threads == 1 {
                (serial, reference.clone())
            } else {
                measure_parallel(&store, &queries, &batches, threads)
            };
            assert_eq!(extents, reference, "pool size must not change the extents");
            let speedup = serial.propagate.as_secs_f64() / p.propagate.as_secs_f64().max(1e-9);
            println!(
                "{:>6} {:>8} {} {} {:>8.2}x",
                n_views,
                threads,
                ms(p.propagate),
                ms(p.total),
                speedup,
            );
            rows.push(format!(
                "    {{\"views\": {}, \"threads\": {}, \"propagate_ms\": {:.3}, \
                 \"total_ms\": {:.3}, \"speedup\": {:.3}}}",
                n_views,
                threads,
                p.propagate.as_secs_f64() * 1e3,
                p.total.as_secs_f64() * 1e3,
                speedup,
            ));
        }
    }
    let json = format!(
        "{{\n  \"figure\": \"parallel\",\n  {},\n  \"books\": {books},\n  \
         \"workload_batches\": {},\n  \"series\": [\n{}\n  ]\n}}\n",
        env_header_json(),
        batches.len(),
        rows.join(",\n")
    );
    match std::fs::write("BENCH_parallel.json", &json) {
        Ok(()) => println!("wrote BENCH_parallel.json"),
        Err(e) => println!("could not write BENCH_parallel.json: {e}"),
    }
}

/// Restart-cost sweep (beyond the paper): cold `DurableCatalog::open`
/// (snapshot load + N-record WAL replay through the incremental
/// maintenance path) vs rebuilding the catalog by recomputing every
/// extent, across log-tail sizes. Also emits `BENCH_recovery.json` so the
/// perf trajectory of restart cost is tracked from this PR onward.
fn fig_recovery() {
    println!("\n== fig_recovery: cold open (snapshot + replay) vs recompute-all ==");
    println!(
        "{:>6} {:>14} {:>14} {:>10} {:>9}",
        "tail", "cold-open(ms)", "recompute(ms)", "wal(B)", "speedup"
    );
    let books = 300usize;
    let n_views = 8usize;
    let dir = std::env::temp_dir().join(format!("xqview-figrec-{}", std::process::id()));
    let mut rows = Vec::new();
    for tail in [0usize, 2, 4, 8, 16, 32] {
        let p = measure_recovery(books, n_views, tail, &dir);
        let speedup = p.recompute.as_secs_f64() / p.cold_open.as_secs_f64().max(1e-9);
        println!(
            "{:>6} {} {} {:>10} {:>8.2}x",
            tail,
            ms(p.cold_open),
            ms(p.recompute),
            p.wal_bytes,
            speedup,
        );
        rows.push(format!(
            "    {{\"tail\": {}, \"cold_open_ms\": {:.3}, \"recompute_ms\": {:.3}, \
             \"wal_bytes\": {}}}",
            tail,
            p.cold_open.as_secs_f64() * 1e3,
            p.recompute.as_secs_f64() * 1e3,
            p.wal_bytes,
        ));
    }
    let json = format!(
        "{{\n  \"figure\": \"recovery\",\n  {},\n  \"books\": {books},\n  \"views\": {n_views},\n  \
         \"series\": [\n{}\n  ]\n}}\n",
        env_header_json(),
        rows.join(",\n")
    );
    match std::fs::write("BENCH_recovery.json", &json) {
        Ok(()) => println!("wrote BENCH_recovery.json"),
        Err(e) => println!("could not write BENCH_recovery.json: {e}"),
    }
}

/// Ingestion-front sweep (beyond the paper): one parse + `apply_batch`
/// call per unit update vs the typed/queued hub-session path, over
/// growing coalescing windows. `window 1` isolates the typed-batch parse-
/// once savings; larger windows add the amortized shared-validate and
/// per-view refresh.
fn fig_ingest() {
    println!("\n== fig_ingest: per-call scripts vs coalesced session ==");
    println!(
        "{:>7} {:>13} {:>13} {:>9} {:>8}",
        "window", "per-call(ms)", "session(ms)", "submits", "applies"
    );
    let books = 400usize;
    let n_views = 8usize;
    let n_units = 32usize;
    let (store, cfg) = bib_store(books);
    let queries = multiview_queries(n_views, cfg.years);
    let units = ingest_units(&cfg, n_units);
    for window_ops in [1usize, 4, 8, 16, 32] {
        let p = measure_ingest(&store, &queries, &units, window_ops);
        println!(
            "{:>7} {} {} {:>9} {:>8}",
            window_ops,
            ms(p.per_call),
            ms(p.session),
            p.submissions,
            p.applications,
        );
    }
}

/// Multi-view catalog sweep (beyond the paper): shared validation +
/// relevancy routing + parallel apply vs the same pipeline sequential vs a
/// naive loop over one-view catalogs, over growing view counts.
fn fig_multiview() {
    println!("\n== fig_multiview: catalog vs naive per-view loop ==");
    println!(
        "{:>7} {:>13} {:>13} {:>11} {:>9} {:>8}",
        "views", "catalog(ms)", "seq-cat(ms)", "naive(ms)", "skipped", "routed"
    );
    let books = 400usize;
    let (store, cfg) = vpa_bench::bib_store(books);
    let scripts = multiview_workload(&cfg, 2);
    for n_views in [2usize, 4, 8, 16] {
        let queries = multiview_queries(n_views, cfg.years);
        let p = measure_multiview(&store, &queries, &scripts);
        println!(
            "{:>7} {} {} {} {:>9} {:>8}",
            n_views,
            ms(p.catalog),
            ms(p.catalog_seq),
            ms(p.naive),
            p.views_skipped,
            p.views_routed,
        );
    }
}

/// Figures 3.7–3.10: order-handling cost relative to execution, per query,
/// over document sizes; plus the cost breakdown at the largest size.
fn fig3_order_cost(mbs: &[usize]) {
    for (fig, name, query) in [
        ("Fig 3.7", "Query 1 (document order)", Q1_PROFILES),
        ("Fig 3.8", "Query 2 (order by)", Q2_CITIES),
        ("Fig 3.9", "Query 3 (join / for-nesting order)", Q3_SELLER_DATES),
        ("Fig 3.10", "Query 4 (construction order)", Q4_CONSTRUCTION),
    ] {
        println!("\n== {fig}: {name} — order cost vs execution ==");
        println!("{:>6} {:>12} {:>12} {:>8}", "MB", "exec(ms)", "order(ms)", "order%");
        let mut last = None;
        for &mb in mbs {
            let store = site_store(mb);
            let (total, stats, _) = run_query(&store, query, ExecOptions::default());
            let order = stats.order_total();
            println!(
                "{:>6} {} {} {:>7.2}%",
                mb,
                ms(total),
                ms(order),
                100.0 * order.as_secs_f64() / total.as_secs_f64().max(1e-12),
            );
            last = Some(stats);
        }
        if let Some(stats) = last {
            println!("breakdown at largest size (paper's chart (b)):");
            println!(
                "  order schema: {}   overriding keys: {}   final sort: {}",
                ms(stats.order_schema),
                ms(stats.overriding),
                ms(stats.final_sort),
            );
        }
    }
}

/// Figures 4.9/4.10: semantic-identifier generation overhead + breakdown.
fn fig4_semid_cost(mbs: &[usize]) {
    for (fig, name, query) in [
        ("Fig 4.9", "Query 1 (retag fragments)", Q1_PROFILES),
        ("Fig 4.10", "Query 2 (nested construction)", Q4_CONSTRUCTION),
    ] {
        println!("\n== {fig}: {name} — semantic-id generation overhead ==");
        println!("{:>6} {:>12} {:>12} {:>8}", "MB", "exec(ms)", "semid(ms)", "semid%");
        for &mb in mbs {
            let store = site_store(mb);
            let (total, stats, _) = run_query(&store, query, ExecOptions::default());
            println!(
                "{:>6} {} {} {:>7.2}%",
                mb,
                ms(total),
                ms(stats.semid),
                100.0 * stats.semid.as_secs_f64() / total.as_secs_f64().max(1e-12),
            );
        }
    }
}

/// Figure 9.1: cost of *enabling* the view-maintenance machinery (semantic
/// ids + counts) during initial computation.
fn fig9_1_enable_cost() {
    println!("\n== Fig 9.1: cost of enabling view maintenance ==");
    println!("{:>8} {:>12} {:>12} {:>9}", "books", "plain(ms)", "vm-on(ms)", "overhead");
    for books in [250usize, 500, 1000, 2000, 4000] {
        let (store, _) = bib_store(books);
        // Warm caches, then take the better of two runs per configuration.
        let _ = run_query(&store, GROUPED_BIB_VIEW, ExecOptions::plain());
        let best = |opts: ExecOptions| {
            let (a, _, _) = run_query(&store, GROUPED_BIB_VIEW, opts);
            let (b, _, _) = run_query(&store, GROUPED_BIB_VIEW, opts);
            a.min(b)
        };
        let plain = best(ExecOptions::plain());
        let vm_on = best(ExecOptions::default());
        println!(
            "{:>8} {} {} {:>8.2}%",
            books,
            ms(plain),
            ms(vm_on),
            100.0 * (vm_on.as_secs_f64() / plain.as_secs_f64().max(1e-12) - 1.0),
        );
    }
}

/// Figure 9.2: maintenance vs recomputation across source document sizes,
/// fixed small update; with the phase breakdown (bottom charts).
fn fig9_2_doc_size() {
    for (name, view) in
        [("Query 1 (flat)", FLAT_BIB_VIEW), ("Query 2 (grouped join)", GROUPED_BIB_VIEW)]
    {
        println!("\n== Fig 9.2: varying source size — {name} ==");
        println!(
            "{:>8} {:>12} {:>12} {:>10} {:>10} {:>10}",
            "books", "maint(ms)", "recomp(ms)", "validate", "propagate", "apply"
        );
        for books in [250usize, 500, 1000, 2000, 4000] {
            let (store, cfg) = bib_store(books);
            let script = datagen::insert_books_script(&cfg, books, 1, Some(1900));
            let p = measure_maintenance(store, view, &script);
            println!(
                "{:>8} {} {} {} {} {}",
                books,
                ms(p.maintain),
                ms(p.recompute),
                ms(p.validate),
                ms(p.propagate),
                ms(p.apply),
            );
        }
    }
}

/// Figure 9.3: varying view selectivity (year-domain size: fewer years ⇒
/// each group selects more books ⇒ a delta touches more derived data).
fn fig9_3_selectivity() {
    println!("\n== Fig 9.3: varying view selectivity ==");
    println!("{:>8} {:>10} {:>12} {:>12}", "years", "sel(%)", "maint(ms)", "recomp(ms)");
    let books = 2000usize;
    for years in [2usize, 5, 10, 20, 50] {
        let cfg =
            datagen::BibConfig { books, years, priced_ratio: 0.8, extra_entries: 50, seed: 9 };
        let mut store = xmlstore::Store::new();
        store.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
        store.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();
        let script = datagen::insert_books_script(&cfg, books, 1, Some(1900));
        let p = measure_maintenance(store, GROUPED_BIB_VIEW, &script);
        println!(
            "{:>8} {:>9.1}% {} {}",
            years,
            100.0 / years as f64,
            ms(p.maintain),
            ms(p.recompute),
        );
    }
}

/// Figure 9.4: varying insert-update size, with the phase breakdown.
fn fig9_4_insert_size() {
    println!("\n== Fig 9.4: varying insert size ==");
    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "inserts", "maint(ms)", "recomp(ms)", "validate", "propagate", "apply"
    );
    let books = 2000usize;
    for n in [1usize, 5, 25, 100, 400] {
        let (store, cfg) = bib_store(books);
        let script = datagen::insert_books_script(&cfg, books, n, None);
        let p = measure_maintenance(store, GROUPED_BIB_VIEW, &script);
        println!(
            "{:>8} {} {} {} {} {}",
            n,
            ms(p.maintain),
            ms(p.recompute),
            ms(p.validate),
            ms(p.propagate),
            ms(p.apply),
        );
    }
}

/// Figure 9.5: varying delete-update size for both queries.
fn fig9_5_delete_size() {
    for (name, view) in
        [("Query 1 (flat)", FLAT_BIB_VIEW), ("Query 2 (grouped join)", GROUPED_BIB_VIEW)]
    {
        println!("\n== Fig 9.5: varying delete size — {name} ==");
        println!("{:>8} {:>12} {:>12} {:>12}", "deletes", "maint(ms)", "recomp(ms)", "resolve(ms)");
        let books = 2000usize;
        for n in [1usize, 5, 25, 100, 400] {
            let (store, _) = bib_store(books);
            let script = datagen::delete_books_script(0, n);
            let p = measure_maintenance(store, view, &script);
            println!("{:>8} {} {} {}", n, ms(p.maintain), ms(p.recompute), ms(p.resolve));
        }
    }
}

/// Figure 9.6: deleting an entire derived fragment — the count-aware deep
/// union disconnects the fragment root directly (§8.3.2), versus the
/// node-by-node deletion a naive apply would perform.
fn fig9_6_fragment_delete() {
    println!("\n== Fig 9.6: whole-fragment deletion (root disconnect) ==");
    println!(
        "{:>12} {:>14} {:>16} {:>14} {:>12}",
        "group size", "disconnect(ms)", "node-by-node(ms)", "full-maint(ms)", "recomp(ms)"
    );
    for group in [50usize, 200, 800, 3200] {
        // All books in one year: deleting that year removes one huge yGroup.
        let cfg = datagen::BibConfig {
            books: group,
            years: 1,
            priced_ratio: 1.0,
            extra_entries: 0,
            seed: 9,
        };
        let mut store = xmlstore::Store::new();
        store.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
        store.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();
        let mut cat = one_view(store, GROUPED_BIB_VIEW);
        let fragment_nodes = cat.view("v").unwrap().extent().size();
        // (a) Naive apply baseline ([LD00]-style): delete every descendant
        // of the doomed fragment one by one inside the extent.
        let naive = {
            // A private deep copy, so the timed walk never unshares.
            let mut roots: Vec<_> =
                cat.view("v").unwrap().extent().roots.iter().map(|r| deep_copy(r)).collect();
            let t = Instant::now();
            let n = delete_node_by_node(&mut roots);
            assert!(n >= fragment_nodes - 1);
            t.elapsed()
        };
        // (b) Count-aware deep union: the delta carries only the fragment
        // root with count −1; the whole subtree disconnects at once.
        let disconnect = {
            let mut extent = cat.view("v").unwrap().extent().clone();
            let group_sem = extent.roots[0].children[0].sem.clone();
            let doomed = xat::VNode {
                sem: group_sem,
                data: xmlstore::NodeData::element("yGroup"),
                count: -extent.roots[0].children[0].count,
                children: Vec::new(),
            };
            let mut root_delta = xat::VNode::clone(&extent.roots[0]);
            root_delta.children = vec![Arc::new(doomed)];
            root_delta.count = 0;
            let t = Instant::now();
            xat::extent::deep_union_siblings(&mut extent.roots, Arc::new(root_delta));
            let d = t.elapsed();
            assert!(extent.roots.is_empty() || extent.roots[0].children.is_empty());
            d
        };
        // (c) Full incremental maintenance (validate + propagate + apply)
        // and (d) recompute, for context.
        let script = datagen::delete_year_script(1900);
        let t0 = Instant::now();
        let _ = cat.apply_batch(&UpdateBatch::from_script(&script).unwrap()).unwrap();
        let full = t0.elapsed();
        let t1 = Instant::now();
        let oracle = cat.view("v").unwrap().recompute_xml(cat.store()).unwrap();
        let recomp = t1.elapsed();
        assert_eq!(cat.extent_xml("v").unwrap(), oracle);
        println!("{:>12} {} {} {:>14} {}", group, ms(disconnect), ms(naive), ms(full), ms(recomp),);
    }
}

/// The naive deletion Fig 9.6 compares against (the \[LD00\] strategy the
/// paper criticizes): remove leaves first, walking the whole fragment.
fn delete_node_by_node(roots: &mut Vec<xat::VNode>) -> usize {
    let mut removed = 0;
    while let Some(root) = roots.first_mut() {
        fn drop_one_leaf(n: &mut xat::VNode) -> bool {
            if let Some(i) = n.children.iter().position(|c| c.children.is_empty()) {
                n.children.remove(i);
                return true;
            }
            n.children.iter_mut().any(|c| drop_one_leaf(Arc::get_mut(c).expect("private copy")))
        }
        if drop_one_leaf(root) {
            removed += 1;
        } else {
            roots.remove(0);
            removed += 1;
        }
    }
    removed
}

/// An unshared copy of an extent subtree (`VNode::clone` is shallow).
fn deep_copy(n: &xat::VNode) -> xat::VNode {
    let children = n.children.iter().map(|c| Arc::new(deep_copy(c))).collect();
    xat::VNode { sem: n.sem.clone(), data: n.data.clone(), count: n.count, children }
}

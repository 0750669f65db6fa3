//! The traced pass's layer attribution. Nothing inside the program is
//! instrumented: layers are measured from outside.
//!
//! * A **ladder** replays one generated op stream through public entry
//!   points, each one layer deeper, on a fresh identical catalog per rung.
//!   A layer's self time is the difference between adjacent rung medians,
//!   so the self times sum to the top rung by construction.
//! * **Direct timings** call one layer's public function in a loop.
//!
//! Every timing is at reference speed, like the stages' (see `calib`).

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt::Display;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use client::Client;
use proto::{CommitReceipt, Request, Response, DEFAULT_MAX_FRAME};
use viewsrv::{DurableMarks, EpochPublisher, HubConfig, Snapshot, UpdateBatch, ViewCatalog, Wal};
use xmlstore::{InsertPos, Store};
use xquery_lang::{InsertPosition, UpdateOp};

use crate::commit::{self, durable_catalog, exactly, serve, Conn};
use crate::gen::{self, Producer, Years};
use crate::stats::{p50, us};
use crate::trace::Tracer;
use crate::{read, restart, Cx};

pub const WRITE_RUNGS: [&str; 5] = [
    "Client::submit+Client::commit",
    "SessionHandle::try_submit+SessionHandle::commit",
    "DurableCatalog::apply_batch",
    "ViewCatalog::apply_batch",
    "ViewCatalog::apply_batch(0 views)",
];
pub const READ_RUNGS: [&str; 3] =
    ["Client::query_view_bytes", "ReadHandle::extent_bytes", "ReadHandle::pin"];

/// The calibration kernel runs again once this much has been timed.
const RECALIBRATE: Duration = Duration::from_millis(150);
const LIVE_OPS: u64 = gen::LIVE as u64;

pub type Values = BTreeMap<&'static str, f64>;

fn median(samples: Vec<(u64, f64)>) -> f64 {
    p50(&samples.iter().map(|s| s.1).collect::<Vec<_>>())
}

impl Cx<'_> {
    /// Time `iters` calls one by one: `(call index, µs at reference speed)`
    /// per call that succeeded. A failed call is a failed op. With tracing
    /// on, call `i` leaves a span called `name(i)`, or none.
    fn timed<T, E: Display>(
        &mut self,
        iters: u64,
        name: impl Fn(u64) -> Option<&'static str>,
        mut f: impl FnMut(u64) -> Result<T, E>,
    ) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        let mut silent = Tracer::new(false);
        self.calib.begin();
        let (mut mark, mut scaled) = (Instant::now(), 0);
        for i in 0..iters {
            let tr = if name(i).is_some() { &mut *self.tr } else { &mut silent };
            let (res, took) = tr.time(name(i).unwrap_or(""), i, || f(i).map(black_box));
            if self.tally.op(1, res).is_some() {
                out.push((i, us(took)));
            }
            if mark.elapsed() >= RECALIBRATE || i + 1 == iters {
                let k = self.calib.end();
                out[scaled..].iter_mut().for_each(|s| s.1 *= k);
                (mark, scaled) = (Instant::now(), out.len());
            }
        }
        out
    }

    /// Median of `iters` individually timed calls, in µs.
    fn each_ok_us<T, E: Display>(
        &mut self,
        name: &'static str,
        iters: u64,
        mut f: impl FnMut() -> Result<T, E>,
    ) -> f64 {
        median(self.timed(iters, |_| Some(name), |_| f()))
    }

    /// [`Cx::each_ok_us`] for a call that cannot fail.
    fn each_us<T>(&mut self, name: &'static str, iters: u64, mut f: impl FnMut() -> T) -> f64 {
        self.each_ok_us(name, iters, || Ok::<T, Infallible>(f()))
    }

    /// For calls too short to time one by one: median over 32 blocks of
    /// `per` calls each, in ns per call.
    fn block_ns<T>(&mut self, name: &'static str, per: u64, mut f: impl FnMut() -> T) -> f64 {
        self.calib.begin();
        let samples: Vec<f64> = (0..32)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..per {
                    black_box(f());
                }
                let end = Instant::now();
                self.tr.record(name, start, end, per);
                (end - start).as_nanos() as f64 / per as f64
            })
            .collect();
        p50(&samples) * self.calib.end()
    }
}

/// The `commit` op stream through five entry points. Returns the rung
/// medians in µs, top first.
fn write_ladder(root: &Path, seed: u64, ops: u64, v: &mut Values, cx: &mut Cx) -> [f64; 5] {
    let mut rungs = [0.0; 5];
    let stream = || Producer::new(0, seed, Years::Hot, commit::BOOKS);

    // Rung 1: TCP. Only every other pair of calls leaves a span, so the
    // gap between the two kinds' medians is what recording a span costs
    // (in pairs: the stream itself alternates insert and delete).
    {
        let hub = durable_catalog(&root.join("rung-1"), commit::BOOKS, seed)
            .into_hub(HubConfig::default());
        let srv = serve(hub);
        let mut idle =
            Client::connect(&srv.local_addr().to_string(), "xqbench-rtt").expect("client connects");
        let rtt = cx.each_ok_us("server.rtt_us", ops.min(200), || idle.flush());
        v.insert("server.rtt_us", rtt);
        let mut conn = Conn::connect(&srv, "xqbench-ladder", 0, seed, commit::BOOKS);
        conn.warm_up(0, cx.tally);
        let spans = |i: u64| (i / 2).is_multiple_of(2).then_some(WRITE_RUNGS[0]);
        let samples = cx.timed(2 * ops, spans, |_| conn.commit_next());
        let (traced, untraced): (Vec<_>, Vec<_>) =
            samples.into_iter().partition(|s| spans(s.0).is_some());
        rungs[0] = median(traced);
        v.insert("client.trace_overhead_frac", rungs[0] / median(untraced) - 1.0);
        drop((conn, idle));
        drop(srv.shutdown());
    }

    // Rung 2: the hub session, no network.
    {
        let hub = durable_catalog(&root.join("rung-2"), commit::BOOKS, seed)
            .into_hub(HubConfig::default());
        let session = hub.handle();
        let mut prod = stream();
        let call = |batch: UpdateBatch| {
            let want = batch.len() as u64;
            session.try_submit(batch).map_err(|e| e.to_string())?;
            let r = session.commit().map_err(|e| e.to_string())?;
            exactly(r.ops as u64, r.resolved as u64, want)
        };
        cx.tally.op(LIVE_OPS, call(prod.prefill()));
        rungs[1] = cx.each_ok_us(WRITE_RUNGS[1], ops, || call(gen::one(prod.next_op())));
        drop(session);
        drop(hub.shutdown());
    }

    // Rung 3: journaled apply, no session.
    {
        let mut cat = durable_catalog(&root.join("rung-3"), commit::BOOKS, seed);
        let mut prod = stream();
        cx.tally.op(LIVE_OPS, cat.apply_batch(&prod.prefill()));
        rungs[2] =
            cx.each_ok_us(WRITE_RUNGS[2], ops, || cat.apply_batch(&gen::one(prod.next_op())));
    }

    // Rungs 4 and 5: volatile apply, with the two views and with none.
    for (rung, views) in [(3, gen::hot_cold_views()), (4, Vec::new())] {
        let mut cat = ViewCatalog::new(gen::store(commit::BOOKS, seed));
        for (name, query) in &views {
            cat.register(name, query).expect("view registers");
        }
        let mut prod = stream();
        cx.tally.op(LIVE_OPS, cat.apply_batch(&prod.prefill()));
        rungs[rung] =
            cx.each_ok_us(WRITE_RUNGS[rung], ops, || cat.apply_batch(&gen::one(prod.next_op())));
        cx.tally.check("write ladder: verify_all", cat.verify_all());
    }

    v.insert("server.write_self_us", rungs[0] - rungs[1]);
    v.insert("viewsrv.session.self_us", rungs[1] - rungs[2]);
    v.insert("viewsrv.durability.self_us", rungs[2] - rungs[3]);
    v.insert("core.self_us", rungs[3] - rungs[4]);
    v.insert("xmlstore.self_us", rungs[4]);
    rungs
}

/// The `read` inputs through three entry points, per view size. Returns
/// the rung medians in µs (`ReadHandle::pin` converted from ns).
fn read_ladder(seed: u64, ops: u64, v: &mut Values, cx: &mut Cx) -> [[f64; 3]; 2] {
    let mut fx = read::Read::setup(seed);
    fx.warm_up(cx.tally);
    let mut rungs = [[0.0; 3]; 2];
    let pin_ns = cx.block_ns(READ_RUNGS[2], 1000, || fx.handle.pin());
    v.insert("viewsrv.epoch.pin_ns", pin_ns);
    for (i, name) in read::VIEWS.into_iter().enumerate() {
        let mut bytes = Vec::new();
        rungs[i][0] = cx
            .each_ok_us(READ_RUNGS[0], ops, || fx.reader.query_view_bytes(name).map(|b| bytes = b));
        rungs[i][1] = cx.each_ok_us(READ_RUNGS[1], ops, || fx.handle.extent_bytes(name));
        rungs[i][2] = pin_ns / 1e3;
        let (srv, enc, len) = [
            ("server.read_self_us.small", "wire.extent_encode_us.small", "wire.extent_bytes.small"),
            ("server.read_self_us.large", "wire.extent_encode_us.large", "wire.extent_bytes.large"),
        ][i];
        v.insert(srv, rungs[i][0] - rungs[i][1]);
        v.insert(enc, rungs[i][1] - rungs[i][2]);
        v.insert(len, bytes.len() as f64);
        if name == "large" {
            let decode = cx.each_ok_us("wire.extent_decode_us.large", ops.min(200), || {
                wire::from_slice::<xat::ViewExtent>(&bytes)
            });
            v.insert("wire.extent_decode_us.large", decode);
        }
    }
    fx.finish(cx.tally);
    rungs
}

fn book(title: &str) -> String {
    format!(
        "<book year=\"1900\"><title>{title}</title>\
         <author><last>L00000</last><first>F000</first></author></book>"
    )
}

/// One layer's public function at a time.
fn direct(root: &Path, seed: u64, quick: bool, v: &mut Values, cx: &mut Cx) {
    let n: u64 = if quick { 20 } else { 200 };
    let few: u64 = if quick { 3 } else { 9 };

    // xquery
    let script = format!(
        "for $r in document(\"bib.xml\")/bib update $r insert {} into $r",
        book("Unlisted Volume 0000")
    );
    let parse = cx.each_ok_us("xquery.parse_update_us", n, || UpdateBatch::from_script(&script));
    v.insert("xquery.parse_update_us", parse);
    let frag = book("Unlisted Volume 0000");
    let build = cx.each_ok_us("xquery.build_op_us", n, || {
        UpdateOp::insert("bib.xml", "/bib/book[150]", InsertPosition::After, &frag)
    });
    v.insert("xquery.build_op_us", build);
    // xat
    let translate =
        cx.each_ok_us("xat.translate_us", n, || xat::translate_query(gen::GROUPED_VIEW));
    v.insert("xat.translate_us", translate);
    // core
    let store = gen::store(crate::maintain::BOOKS, seed);
    let mut prod = Producer::new(3, seed, Years::Hot, crate::maintain::BOOKS);
    let batch = gen::one(prod.modify());
    let resolve = cx.each_ok_us("core.resolve_us", n, || vpa_core::resolve_batch(&store, &batch));
    v.insert("core.resolve_us", resolve);
    // exec
    let pool = exec::Executor::global();
    let map = cx.each_us("exec.map_overhead_us", n, || pool.map(vec![0u8; 8], |x| x));
    v.insert("exec.map_overhead_us", map);
    // flexkey
    let parent = flexkey::FlexKey::root(flexkey::Seg::nth(0));
    let (lo, hi) = (parent.nth_child(3), parent.nth_child(4));
    let between = cx.block_ns("flexkey.sibling_between_ns", 1000, || {
        flexkey::FlexKey::sibling_between(&parent, Some(&lo), Some(&hi))
    });
    v.insert("flexkey.sibling_between_ns", between);
    // obs
    let (counter, hist) = (obs::Counter::new(), obs::Histogram::new());
    v.insert("obs.counter_inc_ns", cx.block_ns("obs.counter_inc_ns", 10_000, || counter.inc()));
    let mut x = 0u64;
    let record = cx.block_ns("obs.hist_record_ns", 10_000, || {
        x += 997;
        hist.record(x);
    });
    v.insert("obs.hist_record_ns", record);

    // xmlstore, at the `restart` scale.
    let (bib, prices) = gen::docs(restart::BOOKS, seed);
    let load =
        cx.each_ok_us("xmlstore.load_doc_ms", few, || Store::new().load_doc("bib.xml", &bib));
    v.insert("xmlstore.load_doc_ms", load / 1e3);
    let mut big = Store::new();
    big.load_doc("bib.xml", &bib).expect("bib parses");
    big.load_doc("prices.xml", &prices).expect("prices parse");
    v.insert("xmlstore.frozen_us", cx.each_us("xmlstore.frozen_us", n, || big.frozen()));
    let root_key = big.doc_root("bib.xml").expect("bib root");
    let frag = xmlstore::parse_document(&book("Unshare Probe")).expect("fragment parses");
    // Even calls insert while a frozen clone is alive, odd calls right
    // after it is gone.
    let mut frozen = None;
    let names = ["xmlstore.unshare_ms", "Store::insert_fragment"];
    let inserts = cx.timed(
        2 * few,
        |i| Some(names[i as usize % 2]),
        |i| {
            frozen = (i % 2 == 0).then(|| big.frozen());
            big.insert_fragment(&root_key, InsertPos::Last, &frag).ok_or("insert_fragment refused")
        },
    );
    let (shared, steady): (Vec<_>, Vec<_>) = inserts.into_iter().partition(|s| s.0 % 2 == 0);
    v.insert("xmlstore.unshare_ms", (median(shared) - median(steady)) / 1e3);
    drop(frozen);

    // wire and proto, on a one-insert batch.
    let batch = gen::one(prod.insert());
    let encoded = wire::to_vec(&batch);
    v.insert(
        "wire.batch_encode_us",
        cx.each_us("wire.batch_encode_us", n, || wire::to_vec(&batch)),
    );
    let decode =
        cx.each_ok_us("wire.batch_decode_us", n, || wire::from_slice::<UpdateBatch>(&encoded));
    v.insert("wire.batch_decode_us", decode);
    let submit = Request::Submit(batch.clone());
    let receipt = Response::Committed(CommitReceipt {
        batches_submitted: 1,
        batches_applied: 1,
        ops: 1,
        resolved: 1,
        views_touched: vec!["hot".to_string()],
        ..CommitReceipt::default()
    });
    let codec = cx.each_ok_us("proto.codec_us", n, || {
        let mut buf = Vec::new();
        proto::send(&mut buf, &submit).map_err(|e| e.to_string())?;
        proto::send(&mut buf, &receipt).map_err(|e| e.to_string())?;
        let mut r = &buf[..];
        let req = proto::recv::<Request>(&mut r, DEFAULT_MAX_FRAME).map_err(|e| e.to_string())?;
        let resp = proto::recv::<Response>(&mut r, DEFAULT_MAX_FRAME).map_err(|e| e.to_string())?;
        Ok::<_, String>((req, resp))
    });
    v.insert("proto.codec_us", codec);

    // viewsrv::epoch, at the `read` scale.
    let cat = read::catalog(seed);
    let reg = obs::MetricsRegistry::new();
    let publisher = EpochPublisher::start(&reg, &cat, DurableMarks::default());
    let publish = cx.each_us("viewsrv.epoch.publish_us", n, || {
        publisher.publish(&cat, DurableMarks::default())
    });
    v.insert("viewsrv.epoch.publish_us", publish);

    // viewsrv::durability: the WAL, then the snapshot codec at the
    // `restart` scale.
    std::fs::create_dir_all(root).expect("create scratch dir");
    let mut wal = Wal::create(root.join("direct.wal")).expect("create WAL");
    // Even calls append a record, odd calls sync it.
    let names = ["viewsrv.durability.wal_append_us", "viewsrv.durability.wal_sync_us"];
    let io = cx.timed(
        2 * n,
        |i| Some(names[i as usize % 2]),
        |i| {
            if i % 2 == 0 {
                wal.append(&batch).map(drop)
            } else {
                wal.sync()
            }
        },
    );
    let (appends, syncs): (Vec<_>, Vec<_>) = io.into_iter().partition(|s| s.0 % 2 == 0);
    v.insert("viewsrv.durability.wal_append_us", median(appends));
    v.insert("viewsrv.durability.wal_sync_us", median(syncs));

    let mut cat = ViewCatalog::new(big);
    for (name, query) in gen::hot_cold_views() {
        cat.register(&name, &query).expect("view registers");
    }
    let capture =
        cx.each_us("viewsrv.durability.snapshot_capture_us", n, || Snapshot::capture(&cat));
    v.insert("viewsrv.durability.snapshot_capture_us", capture);
    let snap = Snapshot::capture(&cat);
    let bytes = wire::to_vec(&snap);
    v.insert("viewsrv.durability.snapshot_bytes", bytes.len() as f64);
    let encode = cx.each_us("viewsrv.durability.snapshot_encode_ms", few, || wire::to_vec(&snap));
    v.insert("viewsrv.durability.snapshot_encode_ms", encode / 1e3);
    let mut decoded = Vec::new();
    let decode = cx.each_ok_us("viewsrv.durability.snapshot_decode_ms", few, || {
        wire::from_slice::<Snapshot>(&bytes).map(|s| decoded.push(s))
    });
    v.insert("viewsrv.durability.snapshot_decode_ms", decode / 1e3);
    let install = cx.each_ok_us("viewsrv.durability.snapshot_install_ms", few, || {
        let snap = decoded.pop().ok_or("no decoded snapshot left".to_string())?;
        snap.into_catalog().map_err(|e| e.to_string())
    });
    v.insert("viewsrv.durability.snapshot_install_ms", install / 1e3);
}

pub struct Layers {
    pub values: Values,
    pub write_rungs: [f64; 5],
    pub read_rungs: [[f64; 3]; 2],
}

pub fn run(root: &Path, seed: u64, quick: bool, cx: &mut Cx) -> Layers {
    let Cx { calib, tr, tally } = cx;
    let ops = if quick { 40 } else { 500 };
    let mut values = Values::new();
    let v = &mut values;
    let write_rungs = tr.within("write-ladder", |tr| {
        write_ladder(root, seed, ops, v, &mut Cx { calib, tr, tally })
    });
    let read_rungs =
        tr.within("read-ladder", |tr| read_ladder(seed, ops, v, &mut Cx { calib, tr, tally }));
    tr.within("direct", |tr| direct(root, seed, quick, v, &mut Cx { calib, tr, tally }));
    Layers { values, write_rungs, read_rungs }
}

//! `read`: reads beside writes. One closed-loop reader connection calls
//! `query_view_bytes` on a `small` and a `large` view of a volatile server
//! while one writer connection commits at a fixed open-loop rate, touching
//! both views so that epochs keep advancing. A change that speeds reads by
//! moving work into epoch publish shows up on the writer's commit latency.

use std::time::{Duration, Instant};

use client::Client;
use server::Server;
use viewsrv::{HubConfig, ReadHandle, ViewCatalog};

use crate::commit::{serve, shutdown_verified, Conn};
use crate::gen;
use crate::stats::us;
use crate::trace::Tracer;
use crate::{Cx, Tally};

pub const BOOKS: usize = 1000;
/// Writer arrival period: 20 commits/s.
const PERIOD: Duration = Duration::from_millis(50);
/// Every this-many-th response is decoded as a `ViewExtent`.
const DECODE_EVERY: u64 = 64;
const WARM_READS: usize = 200;
const WARM_COMMITS: usize = 8;
pub const VIEWS: [&str; 2] = ["small", "large"];

pub struct Read {
    srv: Option<Server>,
    /// In-process window onto the epochs the server serves from.
    pub handle: ReadHandle,
    pub reader: Client,
    writer: Conn,
    reads: u64,
}

#[derive(Default)]
pub struct ReadOut {
    /// `query_view_bytes` send to decoded response, per view.
    pub read_us: [Vec<f64>; 2],
    /// Writer: scheduled arrival to commit ack, and send lateness.
    pub writer_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
}

impl ReadOut {
    /// Fold one slice in.
    pub fn absorb(&mut self, o: ReadOut) {
        for (mine, theirs) in self.read_us.iter_mut().zip(o.read_us) {
            mine.extend(theirs);
        }
        self.writer_ms.extend(o.writer_ms);
        self.late_ms.extend(o.late_ms);
    }
}

/// A volatile catalog over the `small`/`large` pair.
pub fn catalog(seed: u64) -> ViewCatalog {
    let mut cat = ViewCatalog::new(gen::store(BOOKS, seed));
    for (name, query) in gen::read_views() {
        cat.register(&name, &query).expect("read view registers");
    }
    cat
}

impl Read {
    pub fn setup(seed: u64) -> Read {
        // `Server::start_volatile` with the hub built here, so the
        // benchmark keeps a read handle for its byte-identity checks.
        let hub = catalog(seed).into_hub(HubConfig::default());
        let handle = hub.read_handle();
        let srv = serve(hub);
        let addr = srv.local_addr().to_string();
        Read {
            handle,
            reader: Client::connect(&addr, "xqbench-reader").expect("reader connects"),
            writer: Conn::connect(&srv, "xqbench-writer", 0, seed, BOOKS),
            srv: Some(srv),
            reads: 0,
        }
    }

    pub fn warm_up(&mut self, tally: &mut Tally) {
        self.writer.warm_up(WARM_COMMITS, tally);
        for i in 0..WARM_READS {
            tally.op(1, self.reader.query_view_bytes(VIEWS[i % 2]));
        }
    }

    /// Half the slice on `small`, half on `large`, the writer committing
    /// throughout; each half is bracketed by the calibration kernel and
    /// brought to reference speed.
    pub fn run(&mut self, slice: Duration, cx: &mut Cx) -> ReadOut {
        let mut out = ReadOut::default();
        cx.calib.begin();
        for v in 0..VIEWS.len() {
            let (reads, rows) = self.half(v, slice / 2, cx.tr, cx.tally);
            let k = cx.calib.end();
            out.read_us[v].extend(reads.iter().map(|t| t * k));
            out.writer_ms.extend(rows.iter().map(|r| r.0 * k));
            out.late_ms.extend(rows.iter().map(|r| r.1));
        }
        out
    }

    /// The reader on view `v` for `len` beside the writer: read latencies
    /// in µs, and per commit (scheduled arrival to ack, send lateness) in ms.
    fn half(
        &mut self,
        v: usize,
        len: Duration,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> (Vec<f64>, Vec<(f64, f64)>) {
        let arrivals = (len.as_secs_f64() / PERIOD.as_secs_f64()) as u32;
        let start = Instant::now();
        let (reader, reads, writer) = (&mut self.reader, &mut self.reads, &mut self.writer);
        std::thread::scope(|s| {
            let mut rtr = tr.fork();
            let read_worker = s.spawn(move || {
                let mut tally = Tally::default();
                let mut samples = Vec::new();
                let span = ["read_small_p50_us", "read_large_p50_us"][v];
                while start.elapsed() < len {
                    *reads += 1;
                    let (res, took) = rtr.time(span, *reads, || reader.query_view_bytes(VIEWS[v]));
                    let Some(bytes) = tally.op(1, res) else { continue };
                    samples.push(us(took));
                    if *reads % DECODE_EVERY == 0 {
                        tally.op(1, wire::from_slice::<xat::ViewExtent>(&bytes));
                    }
                }
                (rtr, tally, samples)
            });
            let mut wtr = tr.fork();
            let write_worker = s.spawn(move || {
                let mut tally = Tally::default();
                let span = "read_writer_commit_p50_ms";
                let rows = writer.open_loop(span, start, PERIOD, arrivals, &mut wtr, &mut tally);
                (wtr, tally, rows)
            });
            let (t, ta, samples) = read_worker.join().expect("reader");
            tr.absorb(t);
            tally.merge(ta);
            let (t, ta, rows) = write_worker.join().expect("writer");
            tr.absorb(t);
            tally.merge(ta);
            (samples, rows)
        })
    }

    /// With the writer quiet: the last response of each view equals the
    /// in-process `extent_bytes` byte for byte, the final epoch verifies
    /// against recomputation, and so does the live catalog.
    pub fn finish(&mut self, tally: &mut Tally) {
        for name in VIEWS {
            let remote = self.reader.query_view_bytes(name).map_err(|e| e.to_string());
            let local = self.handle.extent_bytes(name).map_err(|e| e.to_string());
            let same = remote.and_then(|r| {
                let (l, _, _) = local?;
                if r == l {
                    Ok(())
                } else {
                    Err(format!("remote and in-process bytes of {name} differ"))
                }
            });
            tally.check("read: byte identity", same);
        }
        tally.check("read: Epoch::verify", self.handle.pin().verify());
        let res = shutdown_verified(self.srv.take());
        tally.check("read: verify_all", res);
    }
}

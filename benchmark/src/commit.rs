//! `commit`: the durable front door. Two TCP connections to an in-process
//! `Server::start` over `DurableCatalog::into_hub(HubConfig::default())`,
//! default `RotatePolicy`, real fsync. Maintenance is cheap here (200
//! books, two flat views), so client, proto, server, session, WAL and
//! epoch publish dominate.
//!
//! Each slice is an open-loop phase (one 1-op submit + commit per arrival,
//! timed from its scheduled send time) and a closed-loop phase (8 one-op
//! submits + 1 commit per transaction).

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use client::Client;
use server::{Server, ServerConfig};
use viewsrv::{DurableCatalog, HubConfig, IngestHub, UpdateBatch};

use crate::gen::{self, Producer, Years};
use crate::stats::ms;
use crate::trace::Tracer;
use crate::{Cx, Tally};

pub const BOOKS: usize = 200;
const CONNS: usize = 2;
/// Open-loop arrival period per connection: 25 arrivals/s.
const PERIOD: Duration = Duration::from_millis(40);
/// Share of a slice the open-loop phase takes.
const OPEN_SHARE: f64 = 0.4;
const TXN_OPS: u64 = 8;
const WARM_COMMITS: usize = 16;

pub struct Commit {
    srv: Option<Server>,
    registry: Arc<obs::MetricsRegistry>,
    conns: Vec<Conn>,
}

#[derive(Default)]
pub struct CommitOut {
    /// Open loop: scheduled arrival to commit ack, connection by connection.
    pub commit_ms: Vec<f64>,
    /// Open loop: how late each arrival was sent.
    pub late_ms: Vec<f64>,
    /// Closed loop: durable-acked ops and the seconds they took.
    pub txn_ops: u64,
    pub txn_secs: f64,
    /// Closed loop: hub rounds, chunks, fsyncs and commits (counter deltas).
    pub rounds: u64,
    pub chunks: u64,
    pub fsyncs: u64,
    pub synced_commits: u64,
    pub queue_full: u64,
    pub epoch_publishes: u64,
}

impl CommitOut {
    /// Fold one slice in.
    pub fn absorb(&mut self, o: CommitOut) {
        self.commit_ms.extend(o.commit_ms);
        self.late_ms.extend(o.late_ms);
        self.txn_ops += o.txn_ops;
        self.txn_secs += o.txn_secs;
        self.rounds += o.rounds;
        self.chunks += o.chunks;
        self.fsyncs += o.fsyncs;
        self.synced_commits += o.synced_commits;
        self.queue_full += o.queue_full;
        self.epoch_publishes += o.epoch_publishes;
    }
}

/// A durable hub over the `hot`/`cold` pair at `books` books in `dir`.
pub fn durable_catalog(dir: &Path, books: usize, seed: u64) -> DurableCatalog {
    let mut cat = DurableCatalog::open(dir).expect("open durable catalog");
    let (bib, prices) = gen::docs(books, seed);
    cat.load_doc("bib.xml", &bib).expect("load bib");
    cat.load_doc("prices.xml", &prices).expect("load prices");
    for (name, query) in gen::hot_cold_views() {
        cat.register(&name, &query).expect("view registers");
    }
    cat
}

/// Every generated op binds exactly one node; anything else means the
/// sliding window no longer holds the store size flat.
pub fn exactly(ops: u64, resolved: u64, want: u64) -> Result<(), String> {
    if ops == want && resolved == want {
        Ok(())
    } else {
        Err(format!("commit acked {ops} ops resolving {resolved} nodes, expected {want}"))
    }
}

/// An in-process server over `hub` on an ephemeral loopback port.
pub fn serve(hub: IngestHub) -> Server {
    Server::start(ServerConfig::default(), hub, Arc::new(AtomicBool::new(false)))
        .expect("server starts")
}

/// Shut the server down and check every extent of the catalog it hands
/// back against recomputation.
pub fn shutdown_verified(srv: Option<Server>) -> Result<(), String> {
    let inner = srv.and_then(Server::shutdown).ok_or("server had no hub")?;
    inner.catalog().verify_all().map_err(|e| e.to_string())
}

/// One TCP connection and the sliding-window stream it writes.
pub struct Conn {
    client: Client,
    prod: Producer,
    req: u64,
}

impl Conn {
    pub fn connect(srv: &Server, name: &str, slot: usize, seed: u64, books: usize) -> Conn {
        Conn {
            client: Client::connect(&srv.local_addr().to_string(), name).expect("client connects"),
            prod: Producer::new(slot, seed, Years::Hot, books),
            req: 0,
        }
    }

    fn commit_batch(&mut self, batch: &UpdateBatch) -> Result<(), String> {
        self.client.submit(batch).map_err(|e| e.to_string())?;
        let receipt = self.client.commit().map_err(|e| e.to_string())?;
        exactly(receipt.ops, receipt.resolved, batch.len() as u64)
    }

    /// The stream's next op: a 1-op submit plus commit.
    pub fn commit_next(&mut self) -> Result<(), String> {
        let batch = gen::one(self.prod.next_op());
        self.commit_batch(&batch)
    }

    /// Fill the window in one batch, then `commits` one-op commits.
    pub fn warm_up(&mut self, commits: usize, tally: &mut Tally) {
        let fill = self.prod.prefill();
        let res = self.commit_batch(&fill);
        tally.op(fill.len() as u64, res);
        for _ in 0..commits {
            tally.op(1, self.commit_next());
        }
    }

    /// Open loop: `arrivals` one-op commits due every `period` from
    /// `first`, whether or not the one before has been acked. Per commit:
    /// (scheduled arrival to ack, how late it was sent), in ms.
    pub fn open_loop(
        &mut self,
        span: &'static str,
        first: Instant,
        period: Duration,
        arrivals: u32,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Vec<(f64, f64)> {
        let mut rows = Vec::new();
        for k in 0..arrivals {
            let due = first + period * k;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let sent = Instant::now();
            self.req += 1;
            let (res, _) = tr.time(span, self.req, || self.commit_next());
            let acked = Instant::now();
            if tally.op(1, res).is_some() {
                rows.push((ms(acked - due), ms(sent - due)));
            }
        }
        rows
    }
}

impl Commit {
    pub fn setup(dir: PathBuf, seed: u64) -> Commit {
        let hub = durable_catalog(&dir, BOOKS, seed).into_hub(HubConfig::default());
        let registry = hub.metrics_registry();
        let srv = serve(hub);
        let conns =
            (0..CONNS).map(|i| Conn::connect(&srv, "xqbench-commit", i, seed, BOOKS)).collect();
        Commit { srv: Some(srv), registry, conns }
    }

    pub fn warm_up(&mut self, tally: &mut Tally) {
        for c in &mut self.conns {
            c.warm_up(WARM_COMMITS, tally);
        }
    }

    /// One open-loop and one closed-loop phase, each bracketed by the
    /// calibration kernel and brought to reference speed. Lateness is the
    /// generator's own and stays as measured.
    pub fn run(&mut self, slice: Duration, cx: &mut Cx) -> CommitOut {
        let mut out = CommitOut::default();
        cx.calib.begin();
        self.open_loop(slice.mul_f64(OPEN_SHARE), &mut out, cx.tr, cx.tally);
        let k = cx.calib.end();
        out.commit_ms.iter_mut().for_each(|v| *v *= k);
        self.closed_loop(slice.mul_f64(1.0 - OPEN_SHARE), &mut out, cx.tr, cx.tally);
        out.txn_secs *= cx.calib.end();
        out
    }

    fn open_loop(
        &mut self,
        len: Duration,
        out: &mut CommitOut,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) {
        let arrivals = (len.as_secs_f64() / PERIOD.as_secs_f64()) as u32;
        let start = Instant::now() + Duration::from_millis(5);
        let mut rows: Vec<(f64, f64)> = Vec::new();
        std::thread::scope(|s| {
            let workers: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(i, c)| {
                    let mut tr = tr.fork();
                    // Connections interleave evenly: no two arrivals coincide.
                    let first = start + PERIOD.mul_f64(i as f64 / CONNS as f64);
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        let rows = c.open_loop(
                            "commit_p50_ms",
                            first,
                            PERIOD,
                            arrivals,
                            &mut tr,
                            &mut tally,
                        );
                        (tr, tally, rows)
                    })
                })
                .collect();
            for w in workers {
                let (t, ta, r) = w.join().expect("open-loop worker");
                tr.absorb(t);
                tally.merge(ta);
                rows.extend(r);
            }
        });
        // Not merged into schedule order: a connection's consecutive
        // arrivals are its insert/delete pairs.
        out.commit_ms.extend(rows.iter().map(|r| r.0));
        out.late_ms.extend(rows.iter().map(|r| r.1));
    }

    fn closed_loop(
        &mut self,
        len: Duration,
        out: &mut CommitOut,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) {
        let before = self.registry.snapshot();
        let start = Instant::now();
        let deadline = start + len;
        std::thread::scope(|s| {
            let workers: Vec<_> = self
                .conns
                .iter_mut()
                .map(|c| {
                    let mut tr = tr.fork();
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        let mut acked = 0u64;
                        while Instant::now() < deadline {
                            c.req += 1;
                            let (res, _) = tr.time("ingest_tput_ops", c.req, || {
                                for _ in 0..TXN_OPS {
                                    let batch = gen::one(c.prod.next_op());
                                    c.client.submit(&batch).map_err(|e| e.to_string())?;
                                }
                                let r = c.client.commit().map_err(|e| e.to_string())?;
                                exactly(r.ops, r.resolved, TXN_OPS)
                            });
                            if tally.op(TXN_OPS, res).is_some() {
                                acked += TXN_OPS;
                            }
                        }
                        (tr, tally, acked)
                    })
                })
                .collect();
            for w in workers {
                let (t, ta, acked) = w.join().expect("closed-loop worker");
                tr.absorb(t);
                tally.merge(ta);
                out.txn_ops += acked;
            }
        });
        out.txn_secs += start.elapsed().as_secs_f64();
        let after = self.registry.snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        out.rounds += delta("hub/rounds");
        out.chunks += delta("hub/chunks");
        out.fsyncs += delta("wal/fsyncs");
        out.synced_commits += delta("wal/synced_commits");
        out.queue_full += delta("hub/queue_full");
        out.epoch_publishes += delta("epoch/publishes");
    }

    /// Close the connections, shut the server down and check every extent
    /// against recomputation.
    pub fn finish(&mut self, tally: &mut Tally) {
        self.conns.clear();
        let res = shutdown_verified(self.srv.take());
        tally.check("commit: verify_all", res);
    }
}

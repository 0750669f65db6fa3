//! `restart`: checkpoints under load, then recovery. An in-process durable
//! hub over 2400 books rotates its WAL every 32 records while one producer
//! commits; then a snapshot-plus-24-record image is built with
//! `DurableCatalog` directly and reopened five times.

use std::path::{Path, PathBuf};

use viewsrv::{DurableCatalog, HubConfig, IngestHub, RotatePolicy, SessionHandle};

use crate::commit::{durable_catalog, exactly};
use crate::gen::{self, Producer, Years};
use crate::stats::ms;
use crate::{Cx, Tally};

pub const BOOKS: usize = 2400;
pub const ROTATE_EVERY: u64 = 32;
pub const TAIL_RECORDS: usize = 24;
const CALIBRATE_EVERY: u64 = 8;
const OPENS: usize = 7;

pub struct Restart {
    hub: Option<IngestHub>,
    session: SessionHandle,
    prod: Producer,
    /// WAL records written since setup: one per commit.
    records: u64,
}

#[derive(Default)]
pub struct RestartOut {
    /// try_submit + commit latency of every measured commit, in order.
    pub commit_ms: Vec<f64>,
    pub rotations: u64,
}

#[derive(Default)]
pub struct ImageOut {
    pub recovery_ms: Vec<f64>,
    /// Reopening the image before its 24-record tail was written.
    pub open_empty_ms: Vec<f64>,
    pub wal_bytes_per_op: f64,
}

impl RestartOut {
    /// Fold one slice in.
    pub fn absorb(&mut self, o: RestartOut) {
        self.commit_ms.extend(o.commit_ms);
    }

    /// The slowest commit of each consecutive 32-commit cycle. Every cycle
    /// holds exactly one rotation; it is mostly one of the three commits
    /// after the sealing one that is slowest, while the snapshot is encoded
    /// and written in the background.
    pub fn cycle_max_ms(&self) -> Vec<f64> {
        self.commit_ms
            .chunks_exact(ROTATE_EVERY as usize)
            .map(|c| c.iter().copied().fold(0.0, f64::max))
            .collect()
    }
}

impl Restart {
    pub fn setup(dir: PathBuf, seed: u64) -> Restart {
        let mut cat = durable_catalog(&dir, BOOKS, seed);
        cat.set_rotate_policy(RotatePolicy::records(ROTATE_EVERY as usize));
        let hub = cat.into_hub(HubConfig::default());
        let session = hub.handle();
        Restart {
            hub: Some(hub),
            session,
            prod: Producer::new(0, seed, Years::Hot, BOOKS),
            records: 0,
        }
    }

    fn commit(&mut self, batch: viewsrv::UpdateBatch) -> Result<(), String> {
        let want = batch.len() as u64;
        self.records += 1;
        self.session.try_submit(batch).map_err(|e| e.to_string())?;
        let r = self.session.commit().map_err(|e| e.to_string())?;
        exactly(r.ops as u64, r.resolved as u64, want)
    }

    /// Fill the window, then commit up to the middle of a rotation cycle.
    pub fn warm_up(&mut self, tally: &mut Tally) {
        let fill = self.prod.prefill();
        let n = fill.len() as u64;
        let res = self.commit(fill);
        tally.op(n, res);
        while self.records % ROTATE_EVERY != ROTATE_EVERY / 2 {
            let op = gen::one(self.prod.next_op());
            let res = self.commit(op);
            tally.op(1, res);
        }
    }

    /// One rotation cycle of commits, from the middle of one cycle to the
    /// middle of the next, so that no checkpoint is in flight when another
    /// stage takes over and the measured commits stay one unbroken
    /// sequence. Counted in commits, not seconds: commit latency here
    /// climbs by about a third over a hub's first 600 commits before it
    /// settles (see the README), and a fixed count puts every run on the
    /// same stretch of that ramp. The calibration kernel runs after every
    /// [`CALIBRATE_EVERY`] commits and brings them to reference speed.
    pub fn run(&mut self, cx: &mut Cx) -> RestartOut {
        let mut out = RestartOut::default();
        cx.calib.begin();
        for _ in 0..ROTATE_EVERY / CALIBRATE_EVERY {
            let mut block = Vec::new();
            for _ in 0..CALIBRATE_EVERY {
                let op = gen::one(self.prod.next_op());
                let req = self.records;
                let (res, took) = cx.tr.time("restart_commit_p50_ms", req, || self.commit(op));
                if cx.tally.op(1, res).is_some() {
                    block.push(ms(took));
                }
            }
            let k = cx.calib.end();
            out.commit_ms.extend(block.iter().map(|t| t * k));
        }
        out
    }

    pub fn finish(&mut self, out: &mut RestartOut, tally: &mut Tally) {
        let Some(hub) = self.hub.take() else { return };
        out.rotations = hub.metrics().counter("wal/rotations");
        let res = hub
            .with_catalog(|c| c.verify_all().map_err(|e| e.to_string()))
            .unwrap_or(Err("hub already shut down".to_string()));
        tally.check("restart: verify_all", res);
        drop(hub.shutdown());
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create image copy");
    for entry in std::fs::read_dir(from).expect("read image") {
        let path = entry.expect("image entry").path();
        if path.is_file() {
            std::fs::copy(&path, to.join(path.file_name().expect("file name"))).expect("copy");
        }
    }
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read image")
        .map(|e| e.expect("image entry"))
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .map(|e| e.metadata().expect("wal metadata").len())
        .sum()
}

/// The bytes a catalog serves for `hot`, read the way a client's query is
/// answered: through a hub's read handle. The hub is dropped, not shut
/// down, so no final snapshot is written.
fn hot_bytes(cat: DurableCatalog) -> Result<Vec<u8>, String> {
    let hub = cat.into_hub(HubConfig::default());
    let got = hub.read_handle().extent_bytes("hot").map(|(b, _, _)| b).map_err(|e| e.to_string());
    drop(hub);
    got
}

/// Build the image under `root`, then time `DurableCatalog::open` on fresh
/// copies of it. With tracing on, also reopen the image as it was before
/// its tail was written.
pub fn image(root: &Path, seed: u64, cx: &mut Cx) -> ImageOut {
    let Cx { calib, tr, tally } = cx;
    let mut out = ImageOut::default();
    let img = root.join("image");
    let mut cat = durable_catalog(&img, BOOKS, seed);
    tally.check("image: snapshot", cat.snapshot().map(drop));
    cat.set_rotate_policy(RotatePolicy::disabled());
    let empty = root.join("image-empty");
    if tr.on() {
        copy_dir(&img, &empty);
    }
    let mut prod = Producer::new(2, seed, Years::Hot, BOOKS);
    for _ in 0..TAIL_RECORDS {
        let res = cat.apply_batch(&gen::one(prod.insert()));
        tally.op(1, res);
    }
    let written = hot_bytes(cat);
    out.wal_bytes_per_op = wal_bytes(&img) as f64 / TAIL_RECORDS as f64;

    for k in 0..OPENS {
        let copy = root.join(format!("open-{k}"));
        copy_dir(&img, &copy);
        calib.begin();
        let (res, took) = tr.time("recovery_ms", k as u64, || DurableCatalog::open(&copy));
        let speed = calib.end();
        let Some(reopened) = tally.op(1, res) else { continue };
        out.recovery_ms.push(ms(took) * speed);
        let replayed = reopened.recovery().replayed_batches;
        let all = if replayed == TAIL_RECORDS {
            Ok(())
        } else {
            Err(format!("reopen replayed {replayed} of {TAIL_RECORDS} acknowledged batches"))
        };
        tally.check("image: acknowledged writes survive", all);
        if k == 0 {
            tally.check("image: verify_all", reopened.verify_all());
            let same = match (&written, &hot_bytes(reopened)) {
                (Ok(w), Ok(r)) if w == r => Ok(()),
                (Ok(_), Ok(_)) => Err("reopened image serves other bytes for hot".to_string()),
                (Err(e), _) | (_, Err(e)) => Err(e.clone()),
            };
            tally.check("image: hot bytes", same);
        }
    }
    if tr.on() {
        for k in 0..OPENS {
            let copy = root.join(format!("empty-{k}"));
            copy_dir(&empty, &copy);
            calib.begin();
            let (res, took) = tr
                .time("viewsrv.durability.open_empty_ms", k as u64, || DurableCatalog::open(&copy));
            let speed = calib.end();
            if tally.op(1, res).is_some() {
                out.open_empty_ms.push(ms(took) * speed);
            }
        }
    }
    out
}

//! `maintain`: the paper's experiment. One closed-loop caller maintains
//! eight views over a 1000-book bib/prices pair through an in-process
//! volatile `ViewCatalog`, and periodically recomputes them from scratch.

use std::time::{Duration, Instant};

use viewsrv::{BatchReceipt, UpdateBatch, ViewCatalog};

use crate::gen::{self, Producer, Years};
use crate::stats::{ms, us};
use crate::trace::Tracer;
use crate::{Cx, Tally};

pub const BOOKS: usize = 1000;
/// A 32-insert batch (and its untimed undo) replaces every this-many-th
/// cycle's end; a full recomputation every `RECOMPUTE_EVERY`-th.
const BULK_EVERY: u64 = 6;
const RECOMPUTE_EVERY: u64 = 8;
const WARM_CYCLES: usize = 6;
/// Span and per-layer metric names of one view's recomputation, by the
/// view's shape (views are registered two of a shape).
pub const RECOMPUTE_SHAPES: [&str; 4] = [
    "xat.recompute_ms.flat",
    "xat.recompute_ms.prices",
    "xat.recompute_ms.join",
    "xat.recompute_ms.grouped",
];

pub struct Maintain {
    cat: ViewCatalog,
    views: Vec<String>,
    prod: Producer,
    bulk: Producer,
    cycles: u64,
}

/// Per-op-kind samples: the whole call, and the phases its receipt reports.
#[derive(Default)]
pub struct Kind {
    pub total_ms: Vec<f64>,
    pub validate_us: Vec<f64>,
    pub propagate_ms: Vec<f64>,
    pub apply_us: Vec<f64>,
}

impl Kind {
    fn absorb(&mut self, o: Kind) {
        self.total_ms.extend(o.total_ms);
        self.validate_us.extend(o.validate_us);
        self.propagate_ms.extend(o.propagate_ms);
        self.apply_us.extend(o.apply_us);
    }

    /// One call and its receipt, brought to reference speed by `k`.
    fn push(&mut self, took: Duration, receipt: &BatchReceipt, k: f64) {
        self.total_ms.push(ms(took) * k);
        self.validate_us.push(us(receipt.stats.validate) * k);
        self.propagate_ms.push(ms(receipt.stats.propagate) * k);
        self.apply_us.push(us(receipt.stats.apply) * k);
    }
}

#[derive(Default)]
pub struct MaintainOut {
    pub insert: Kind,
    pub delete: Kind,
    pub modify: Kind,
    pub bulk32_ms: Vec<f64>,
    pub recompute_ms: Vec<f64>,
    /// Per-view recomputation times by view shape: flat, prices, join, grouped.
    pub recompute_shape_ms: [Vec<f64>; 4],
}

impl MaintainOut {
    /// Fold one slice's samples in.
    pub fn absorb(&mut self, o: MaintainOut) {
        self.insert.absorb(o.insert);
        self.delete.absorb(o.delete);
        self.modify.absorb(o.modify);
        self.bulk32_ms.extend(o.bulk32_ms);
        self.recompute_ms.extend(o.recompute_ms);
        for (mine, theirs) in self.recompute_shape_ms.iter_mut().zip(o.recompute_shape_ms) {
            mine.extend(theirs);
        }
    }
}

impl Maintain {
    pub fn setup(seed: u64) -> Maintain {
        let mut cat = ViewCatalog::new(gen::store(BOOKS, seed));
        let mut views = Vec::new();
        for (name, query) in gen::maintain_views() {
            cat.register(&name, &query).expect("maintain view registers");
            views.push(name);
        }
        Maintain {
            cat,
            views,
            prod: Producer::new(0, seed, Years::Cycle, BOOKS),
            bulk: Producer::new(1, seed, Years::Cycle, BOOKS),
            cycles: 0,
        }
    }

    fn apply(
        &mut self,
        name: &'static str,
        req: u64,
        batch: &UpdateBatch,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Option<(Duration, BatchReceipt)> {
        let (res, took) = tr.time(name, req, || self.cat.apply_batch(batch));
        tally.op(batch.len() as u64, res).map(|r| (took, r))
    }

    pub fn warm_up(&mut self, tally: &mut Tally) {
        let mut quiet = Tracer::new(false);
        let fill = self.prod.prefill();
        self.apply("warm", 0, &fill, &mut quiet, tally);
        for c in 0..WARM_CYCLES {
            self.cycle(c as u64, &mut quiet, tally);
        }
    }

    /// One insert, one price modify, one delete of the oldest.
    fn cycle(
        &mut self,
        c: u64,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> [Option<(Duration, BatchReceipt)>; 3] {
        let insert = gen::one(self.prod.insert());
        let modify = gen::one(self.prod.modify());
        let delete = gen::one(self.prod.delete_oldest());
        [
            self.apply("maintain_insert_ms", c, &insert, tr, tally),
            self.apply("maintain_modify_ms", c, &modify, tr, tally),
            self.apply("maintain_delete_ms", c, &delete, tr, tally),
        ]
    }

    /// All 8 extents from scratch; the stretch since `calib`'s last mark
    /// is this and nothing else.
    fn recompute(&self, c: u64, out: &mut MaintainOut, cx: &mut Cx) {
        let mut took = [Duration::ZERO; 8];
        for (i, name) in self.views.iter().enumerate() {
            let view = self.cat.view(name).expect("registered view");
            let (res, t) =
                cx.tr.time(RECOMPUTE_SHAPES[i / 2], c, || view.compute_extent(self.cat.store()));
            cx.tally.op(1, res);
            took[i] = t;
        }
        let k = cx.calib.end();
        for (i, t) in took.iter().enumerate() {
            out.recompute_shape_ms[i / 2].push(ms(*t) * k);
        }
        out.recompute_ms.push(ms(took.iter().sum()) * k);
    }

    /// A 32-insert batch, then its undo outside the calibrated stretch.
    fn bulk32(&mut self, out: &mut MaintainOut, cx: &mut Cx) {
        let (ins, undo) = self.bulk.bulk(32);
        let timed = self.apply("maintain_bulk32_ms", self.cycles, &ins, cx.tr, cx.tally);
        let k = cx.calib.end();
        if let Some((t, _)) = timed {
            out.bulk32_ms.push(ms(t) * k);
        }
        self.apply("undo", self.cycles, &undo, &mut Tracer::new(false), cx.tally);
        cx.calib.begin();
    }

    /// Cycle for `slice`. The calibration kernel runs after every cycle,
    /// bulk batch and recomputation, so each is brought to reference speed
    /// by what the machine was doing within a few hundred milliseconds.
    pub fn run(&mut self, slice: Duration, cx: &mut Cx) -> MaintainOut {
        let mut out = MaintainOut::default();
        let deadline = Instant::now() + slice;
        cx.calib.begin();
        while Instant::now() < deadline {
            self.cycles += 1;
            let [insert, modify, delete] = self.cycle(self.cycles, cx.tr, cx.tally);
            let k = cx.calib.end();
            for (kind, timed) in
                [(&mut out.insert, insert), (&mut out.modify, modify), (&mut out.delete, delete)]
            {
                if let Some((t, r)) = timed {
                    kind.push(t, &r, k);
                }
            }
            if self.cycles.is_multiple_of(BULK_EVERY) {
                self.bulk32(&mut out, cx);
            }
            if self.cycles.is_multiple_of(RECOMPUTE_EVERY) {
                self.recompute(self.cycles, &mut out, cx);
            }
        }
        out
    }

    /// One more slice: a sample of whatever a very short run never reached.
    pub fn top_up(&mut self, have: &MaintainOut, cx: &mut Cx) -> MaintainOut {
        let mut out = MaintainOut::default();
        cx.calib.begin();
        if have.bulk32_ms.is_empty() {
            self.bulk32(&mut out, cx);
        }
        if have.recompute_ms.is_empty() {
            self.recompute(self.cycles, &mut out, cx);
        }
        out
    }

    /// Check every extent against recomputation. Returns the share of
    /// (update, view) pairs the relevancy index routed past a view, over
    /// everything this catalog applied: skipped / (routed + skipped).
    pub fn finish(&mut self, tally: &mut Tally) -> f64 {
        tally.check("maintain: verify_all", self.cat.verify_all());
        let s = self.cat.stats();
        s.views_skipped as f64 / (s.views_routed + s.views_skipped) as f64
    }
}

//! Spans recorded from outside the program, around the calls into each
//! layer's public entry points. Kept in memory; written as JSON lines when
//! the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Span {
    id: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// The enclosing span (a stage, a ladder rung's replay).
    parent: Option<u32>,
    /// The request's index in its generated op stream: the same `req` on
    /// two rungs of a ladder is the same op, one layer deeper.
    req: u64,
}

/// Times calls, and records them as spans when tracing is on. One per
/// thread; [`Tracer::fork`] hands a worker thread its own, and
/// [`Tracer::absorb`] takes the worker's spans back.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    ids: Arc<AtomicU32>,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            ids: Arc::new(AtomicU32::new(0)),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A tracer for another thread, nested under this one's open span.
    pub fn fork(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            on: self.on,
            ids: Arc::clone(&self.ids),
            open: self.open.last().copied().into_iter().collect(),
            spans: Vec::new(),
        }
    }

    pub fn absorb(&mut self, worker: Tracer) {
        self.spans.extend(worker.spans);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Time one call; with tracing on, record it as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, req);
        (out, end - start)
    }

    /// Run `f` inside an enclosing span that the calls it times nest under.
    pub fn within<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.last().copied();
        let start = Instant::now();
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let (start_ns, end_ns) = (self.ns(start), self.ns(Instant::now()));
        self.spans.push(Span { id, name, start_ns, end_ns, parent, req: 0 });
        out
    }

    /// With tracing on, record a span under the open one. Called directly
    /// for a block timed as a whole (`req` calls too short to time one by
    /// one).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        if self.on {
            let id = self.ids.fetch_add(1, Ordering::Relaxed);
            let parent = self.open.last().copied();
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span { id, name, start_ns, end_ns, parent, req });
        }
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        w.flush()
    }
}

//! Speed calibration. This sandbox's CPU speed wanders by a quarter over
//! seconds to minutes, for every process on it alike, so the wall time of a
//! fixed piece of work says more about the minute it ran in than about the
//! program. The benchmark therefore runs a fixed kernel of its own before
//! and after every slice of measured work and reports timings **at
//! reference speed**: wall time divided by how much slower than
//! [`REFERENCE_MS`] the kernel ran around that slice.
//!
//! The kernel is made of what the program under test is made of: ordered
//! maps keyed by byte strings, small allocations, string formatting.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::gen::Rng;
use crate::stats::p50;

/// What one kernel run takes on this sandbox at its usual speed. A timing
/// "at reference speed" is in milliseconds of a machine on which the kernel
/// takes exactly this long.
pub const REFERENCE_MS: f64 = 0.5;
const ENTRIES: usize = 60_000;
const RUNS_PER_SAMPLE: usize = 9;
const WARM_RUNS: usize = 6;

pub struct Calib {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    rng: Rng,
    /// Slowness at the start of the stretch of work being bracketed.
    before: f64,
    /// Every slowness sampled, for the run's header line.
    pub seen: Vec<f64>,
}

fn key(n: u64) -> Vec<u8> {
    format!("b.c.{:x}.{:05}", n % 97, n % ENTRIES as u64).into_bytes()
}

impl Calib {
    pub fn new() -> Calib {
        let map = (0..ENTRIES as u64).map(|n| (key(n * 7919), vec![b'x'; 24])).collect();
        Calib { map, rng: Rng::new(0xca11b), before: 1.0, seen: Vec::new() }
    }

    fn kernel(&mut self) -> usize {
        let mut found = 0;
        for _ in 0..600 {
            let k = key(self.rng.next());
            found += self.map.range(k..).take(3).map(|(_, v)| v.len()).sum::<usize>();
        }
        for _ in 0..60 {
            let k = key(self.rng.next());
            let old = self.map.insert(k.clone(), format!("<title>{found}</title>").into_bytes());
            match old {
                Some(v) => drop(self.map.insert(k, v)),
                None => drop(self.map.remove(&k)),
            }
        }
        found
    }

    /// How slow the machine is right now: the median kernel time over
    /// [`REFERENCE_MS`]. The same fixed work every time (the map is left as
    /// it was found).
    fn slowness(&mut self) -> f64 {
        // The stage before may have left the core idle or the map out of
        // cache: get both back first.
        for _ in 0..WARM_RUNS {
            black_box(self.kernel());
        }
        let runs: Vec<f64> = (0..RUNS_PER_SAMPLE)
            .map(|_| {
                let start = Instant::now();
                black_box(self.kernel());
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let slowness = p50(&runs) / REFERENCE_MS;
        self.seen.push(slowness);
        slowness
    }

    /// Mark the start of a stretch of measured work.
    pub fn begin(&mut self) {
        self.before = self.slowness();
    }

    /// Mark the end of the stretch (and the start of the next): the factor
    /// that brings wall times measured inside it to reference speed.
    pub fn end(&mut self) -> f64 {
        let after = self.slowness();
        let k = 2.0 / (self.before + after);
        self.before = after;
        k
    }
}

//! xqbench: the repo's benchmark. See `benchmark/README.md`.

mod calib;
mod commit;
mod gen;
mod layers;
mod maintain;
mod metrics;
mod read;
mod restart;
mod stats;
mod trace;

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Metric, END_TO_END, PER_LAYER};
use stats::{drift_frac, p50, pair_means, quantile, tail};
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["maintain", "commit", "read", "restart"];

/// A run interleaves the four stages in this many rounds, so that every
/// metric samples the whole run and not one stretch of it: this sandbox's
/// CPU speed wanders by a quarter within seconds.
const ROUNDS: u32 = 6;
/// In a round every other stage runs one slice and the workload's own
/// stage this many (at most 3), spread between the others'.
const OWN_SLICES: u32 = 2;
/// Fixtures are built this many times; `setup_s` takes the median.
const SETUP_REPEATS: usize = 3;
/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 2.0;
/// First-third against last-third median of the own stage's timings,
/// above which a pass prints a warning. Not a failure: see the README.
const DRIFT_WARN: f64 = 0.10;

/// Ops attempted and failed. A refused, errored or timed-out request, an
/// extent that diverges from recomputation, or an acknowledged write
/// missing after reopen each counts as a failed op.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn op<T, E: Display>(&mut self, ops: u64, res: Result<T, E>) -> Option<T> {
        self.attempted += ops;
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += ops;
                if self.errors.len() < 8 {
                    self.errors.push(e.to_string());
                }
                None
            }
        }
    }

    pub fn check<E: Display>(&mut self, what: &str, res: Result<(), E>) {
        self.op(1, res.map_err(|e| format!("{what}: {e}")));
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// What every stretch of measured work needs: the calibration kernel that
/// brings its timings to reference speed, the span recorder, and the tally.
pub struct Cx<'a> {
    pub calib: &'a mut calib::Calib,
    pub tr: &'a mut Tracer,
    pub tally: &'a mut Tally,
}

struct Args {
    seed: u64,
    workload: Option<&'static str>,
    seconds: Option<f64>,
    /// `--trace 0|1`: the driver's form. One pass, one result line.
    trace: Option<bool>,
    no_trace: bool,
    quick: bool,
}

const USAGE: &str = "usage: xqbench [--seed N] [--workload maintain|commit|read|restart] \
                     [--seconds S] [--trace 0|1] [--no-trace] [--quick]";

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { seed: 1, workload: None, seconds: None, trace: None, no_trace: false, quick: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.into_iter().find(|w| *w == name);
                args.workload = Some(known.ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--no-trace" => args.no_trace = true,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

struct Fixtures {
    maintain: maintain::Maintain,
    commit: commit::Commit,
    read: read::Read,
    restart: restart::Restart,
}

impl Fixtures {
    /// Data generation, document load, view registration, server and hub
    /// start, connect.
    fn setup(root: &Path, seed: u64) -> Fixtures {
        Fixtures {
            maintain: maintain::Maintain::setup(seed),
            commit: commit::Commit::setup(root.join("commit"), seed),
            read: read::Read::setup(seed),
            restart: restart::Restart::setup(root.join("restart"), seed),
        }
    }

    fn warm_up(&mut self, tally: &mut Tally) {
        self.maintain.warm_up(tally);
        self.commit.warm_up(tally);
        self.read.warm_up(tally);
        self.restart.warm_up(tally);
    }
}

/// One pass over one workload: every metric of its mode, in table order.
struct Report {
    workload: &'static str,
    traced: bool,
    values: Vec<f64>,
    tally: Tally,
}

impl Report {
    fn table(&self) -> &'static [Metric] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every op succeeded and every metric is a positive finite number
    /// (per-layer differences and counts may be zero or negative).
    fn correct(&self) -> bool {
        self.tally.failed == 0
            && self.values.iter().all(|v| v.is_finite() && (self.traced || *v > 0.0))
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .table()
            .iter()
            .zip(&self.values)
            .map(|((name, unit, _), v)| metric_json(name, *v, unit))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// A value that is not a number (a stage that took no sample) prints as 0;
/// the run is then reported as not correct.
fn metric_json(name: &str, v: f64, unit: &str) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

fn describe(name: &str, unit: &str, samples: &[f64]) {
    let (label, t) = tail(samples);
    println!(
        "  {name:<27} p50 {:>11.3} {unit:<3} {label} {t:>11.3}  n={}",
        p50(samples),
        samples.len()
    );
}

/// Run all four stages, the workload's own with the largest share of
/// `seconds`; with `traced`, record spans and add the ladders and direct
/// layer timings.
fn run(workload: &'static str, args: &Args, seconds: f64, traced: bool, out_dir: &Path) -> Report {
    let root = out_dir.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut tally = Tally::default();
    let mut tr = Tracer::new(traced);

    // Set-up, several times over; the last set of fixtures is used.
    let mut calib = calib::Calib::new();
    let repeats = if args.quick { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut fx = None;
    for k in 0..repeats {
        drop(fx.take());
        calib.begin();
        let start = Instant::now();
        fx = Some(Fixtures::setup(&root.join(format!("setup-{k}")), args.seed));
        setups.push(start.elapsed().as_secs_f64() * calib.end());
    }
    let mut fx = fx.expect("at least one set-up");
    let start = Instant::now();
    fx.warm_up(&mut tally);
    let setup_s = p50(&setups) + start.elapsed().as_secs_f64() * calib.end();

    // The traced pass spends half its window (half the rounds) on the
    // stages and the rest on the ladders, which are counted in ops.
    let (window, rounds) = match (args.quick, traced) {
        (true, _) => (seconds, 1),
        (false, true) => (seconds / 2.0, ROUNDS / 2),
        (false, false) => (seconds, ROUNDS),
    };
    let unit = Duration::from_secs_f64(window / (rounds * (OWN_SLICES + 3)) as f64);
    // Unit slices in rounds: own, other, other, own, other. Every stage
    // brings its own timings to reference speed (see `calib`).
    let mut m = maintain::MaintainOut::default();
    let mut c = commit::CommitOut::default();
    let mut r = read::ReadOut::default();
    let mut s = restart::RestartOut::default();
    tr.within("stages", |tr| {
        let cx = &mut Cx { calib: &mut calib, tr, tally: &mut tally };
        for _ in 0..rounds {
            for (i, other) in WORKLOADS.into_iter().filter(|w| *w != workload).enumerate() {
                let own_first = (i as u32 * OWN_SLICES) % 3 < OWN_SLICES;
                for stage in own_first.then_some(workload).into_iter().chain([other]) {
                    match stage {
                        "maintain" => m.absorb(fx.maintain.run(unit, cx)),
                        "commit" => c.absorb(fx.commit.run(unit, cx)),
                        "read" => r.absorb(fx.read.run(unit, cx)),
                        _ => s.absorb(fx.restart.run(cx)),
                    }
                }
            }
        }
        m.absorb(fx.maintain.top_up(&m, cx));
    });
    let img = tr.within("image", |tr| {
        restart::image(&root, args.seed, &mut Cx { calib: &mut calib, tr, tally: &mut tally })
    });
    let skip_ratio = fx.maintain.finish(&mut tally);
    fx.commit.finish(&mut tally);
    fx.read.finish(&mut tally);
    fx.restart.finish(&mut s, &mut tally);
    drop(fx);

    // Per window step (an insert and a delete), not per op: see `pair_means`.
    let commit_steps = pair_means(&c.commit_ms);
    let writer_steps = pair_means(&r.writer_ms);
    let restart_steps = pair_means(&s.commit_ms);
    let stalls = s.cycle_max_ms();
    let (commit_p50, restart_p50, recovery) =
        (p50(&commit_steps), p50(&restart_steps), p50(&img.recovery_ms));
    let e2e = [
        setup_s,
        p50(&m.insert.total_ms),
        p50(&m.delete.total_ms),
        p50(&m.modify.total_ms),
        p50(&m.bulk32_ms),
        p50(&m.recompute_ms),
        p50(&m.recompute_ms) / p50(&m.insert.total_ms),
        commit_p50,
        c.txn_ops as f64 / c.txn_secs,
        p50(&r.read_us[0]),
        p50(&r.read_us[1]),
        p50(&writer_steps),
        restart_p50,
        recovery,
        img.wal_bytes_per_op,
    ];
    let drift = drift_frac(match workload {
        "maintain" => &m.insert.total_ms,
        "commit" => &commit_steps,
        "read" => &r.read_us[0],
        _ => &restart_steps,
    });

    println!(
        "[{workload}] {} pass, own stage {:.2} s, others {:.2} s each, machine slowness {:.3} ({:.3}..{:.3})",
        if traced { "traced" } else { "untraced" },
        (unit * OWN_SLICES * rounds).as_secs_f64(),
        (unit * rounds).as_secs_f64(),
        p50(&calib.seen),
        quantile(&calib.seen, 0.0),
        quantile(&calib.seen, 1.0),
    );
    describe("maintain_insert_ms", "ms", &m.insert.total_ms);
    describe("maintain_delete_ms", "ms", &m.delete.total_ms);
    describe("maintain_modify_ms", "ms", &m.modify.total_ms);
    describe("maintain_bulk32_ms", "ms", &m.bulk32_ms);
    describe("recompute_ms", "ms", &m.recompute_ms);
    describe("commit_p50_ms", "ms", &commit_steps);
    describe("read_small_p50_us", "us", &r.read_us[0]);
    describe("read_large_p50_us", "us", &r.read_us[1]);
    describe("read_writer_commit_p50_ms", "ms", &writer_steps);
    describe("restart_commit_p50_ms", "ms", &restart_steps);
    describe("client.rotation_stall_ms", "ms", &stalls);
    describe("recovery_ms", "ms", &img.recovery_ms);

    let values = if traced {
        let cx = &mut Cx { calib: &mut calib, tr: &mut tr, tally: &mut tally };
        let lay = layers::run(&root, args.seed, args.quick, cx);
        let mut v = lay.values;
        let w = lay.write_rungs;
        println!("  write ladder (us): {}", ladder(&layers::WRITE_RUNGS, &w));
        println!("  read ladder, small (us): {}", ladder(&layers::READ_RUNGS, &lay.read_rungs[0]));
        println!("  read ladder, large (us): {}", ladder(&layers::READ_RUNGS, &lay.read_rungs[1]));
        v.insert("client.ladder_gap_frac", (w[0] / 1e3 - commit_p50).abs() / commit_p50);
        for (name, samples) in maintain::RECOMPUTE_SHAPES.into_iter().zip(&m.recompute_shape_ms) {
            v.insert(name, p50(samples));
        }
        for (names, k) in [
            (
                ["core.validate_us.insert", "core.propagate_ms.insert", "core.apply_us.insert"],
                &m.insert,
            ),
            (
                ["core.validate_us.delete", "core.propagate_ms.delete", "core.apply_us.delete"],
                &m.delete,
            ),
            (
                ["core.validate_us.modify", "core.propagate_ms.modify", "core.apply_us.modify"],
                &m.modify,
            ),
        ] {
            v.insert(names[0], p50(&k.validate_us));
            v.insert(names[1], p50(&k.propagate_ms));
            v.insert(names[2], p50(&k.apply_us));
        }
        v.insert("core.relevancy_skip_ratio", skip_ratio);
        v.insert("server.queue_full", c.queue_full as f64);
        v.insert("viewsrv.session.chunks_per_round", c.chunks as f64 / c.rounds as f64);
        v.insert("viewsrv.session.ops_per_chunk", c.txn_ops as f64 / c.chunks as f64);
        v.insert("viewsrv.epoch.publishes", c.epoch_publishes as f64);
        v.insert("viewsrv.durability.fsyncs_per_commit", c.fsyncs as f64 / c.synced_commits as f64);
        v.insert("viewsrv.durability.rotations", s.rotations as f64);
        let open_empty = p50(&img.open_empty_ms);
        v.insert("viewsrv.durability.open_empty_ms", open_empty);
        v.insert(
            "viewsrv.durability.replay_ms_per_record",
            (recovery - open_empty) / restart::TAIL_RECORDS as f64,
        );
        v.insert("client.rotation_stall_ms", p50(&stalls));
        v.insert("viewsrv.durability.stall_over_steady", p50(&stalls) / restart_p50);
        v.insert("client.commit_p90_ms", quantile(&c.commit_ms, 0.9));
        v.insert("client.commit_p99_ms", quantile(&c.commit_ms, 0.99));
        v.insert("client.read_p99_us.small", quantile(&r.read_us[0], 0.99));
        v.insert("client.read_p99_us.large", quantile(&r.read_us[1], 0.99));
        v.insert("client.gen_late_p99_ms", quantile(&c.late_ms, 0.99));
        let path = out_dir.join(format!("trace-{workload}.jsonl"));
        if let Err(e) = tr.write_jsonl(&path) {
            tally.check("write trace", Err(format!("{}: {e}", path.display())));
        }
        PER_LAYER.iter().map(|(name, _, _)| v.get(name).copied().unwrap_or(f64::NAN)).collect()
    } else {
        e2e.to_vec()
    };
    let _ = std::fs::remove_dir_all(&root);

    let report = Report { workload, traced, values, tally };
    for ((name, unit, _), v) in report.table().iter().zip(&report.values) {
        println!("  {name:<44} {v:>14.4} {unit}");
    }
    println!(
        "  drift_frac {drift:.4}{}  attempted {}  failed {}",
        if drift <= DRIFT_WARN { "" } else { " (WARNING: above 0.10)" },
        report.tally.attempted,
        report.tally.failed
    );
    for e in &report.tally.errors {
        println!("  FAILED: {e}");
    }
    report
}

/// Rung medians, then the self times they difference into and their sum.
fn ladder(names: &[&str], rungs: &[f64]) -> String {
    let mut parts: Vec<String> =
        names.iter().zip(rungs).map(|(n, v)| format!("{n} {v:.1}")).collect();
    let selfs: Vec<f64> =
        (0..rungs.len()).map(|i| rungs[i] - rungs.get(i + 1).copied().unwrap_or(0.0)).collect();
    parts.push(format!("self times sum to {:.1}", selfs.iter().sum::<f64>()));
    parts.join("; ")
}

/// The commit `.git/HEAD` names, read as files: the driver's checkout is
/// not a git repository, and nothing is run to find out.
fn git_commit(repo: &Path) -> String {
    let head = std::fs::read_to_string(repo.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(repo.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None if head.is_empty() => "unknown".to_string(),
        None => head.to_string(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xqbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out_dir = bench_dir.join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("xqbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let seconds = args.seconds.unwrap_or(if args.quick { QUICK_SECONDS } else { DEFAULT_SECONDS });
    let rounds = if args.quick { 1 } else { ROUNDS };
    let own = seconds * OWN_SLICES as f64 / (OWN_SLICES + 3) as f64;
    let slice = seconds / (rounds * (OWN_SLICES + 3)) as f64;
    println!(
        "xqbench: nproc={} pool_threads={} XQVIEW_POOL_THREADS={} commit={} profile={} rustc=\"{}\" \
         seed={} seconds={seconds} window: own stage {own:.2} s, other stages {:.2} s each, in {rounds} \
         rounds of {slice:.2} s slices (half the rounds in the traced pass; restart: one rotation \
         cycle per slice)",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        exec::Executor::global().threads(),
        std::env::var("XQVIEW_POOL_THREADS").unwrap_or("unset".to_string()),
        git_commit(bench_dir.parent().unwrap_or(&bench_dir)),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        rustc_version(),
        args.seed,
        (seconds - own) / 3.0,
    );

    let workloads: Vec<&'static str> = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let passes = match (args.trace, args.no_trace) {
        (Some(t), _) => vec![t],
        (None, true) => vec![false],
        (None, false) => vec![false, true],
    };
    let mut reports = Vec::new();
    for w in &workloads {
        for &traced in &passes {
            reports.push(run(w, &args, seconds, traced, &out_dir));
        }
    }

    // The driver's form prints its one pass's result; the full command
    // prints each metric from its home workload.
    let ok = reports.iter().all(Report::correct);
    let last = if args.trace.is_some() && reports.len() == 1 {
        reports[0].json()
    } else {
        summary(&reports, ok)
    };
    println!("{last}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One object over all passes: each metric from the pass of its home
/// workload (`setup_s`: the median over the workloads run).
fn summary(reports: &[Report], ok: bool) -> String {
    let mut metrics = Vec::new();
    for traced in [false, true] {
        let passes: Vec<&Report> = reports.iter().filter(|r| r.traced == traced).collect();
        let Some(first) = passes.first() else { continue };
        for (i, (name, unit, home)) in first.table().iter().enumerate() {
            let v = match passes.iter().find(|r| r.workload == *home) {
                Some(r) => r.values[i],
                None if *home == "all" => {
                    p50(&passes.iter().map(|r| r.values[i]).collect::<Vec<_>>())
                }
                None => first.values[i],
            };
            metrics.push(metric_json(name, v, unit));
        }
    }
    format!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        reports.iter().map(|r| r.tally.attempted).sum::<u64>().max(1),
        reports.iter().map(|r| r.tally.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

//! `xqview-cli` — command-line front end for a running `xqview-server`.
//!
//! ```text
//! xqview-cli [--addr HOST:PORT] COMMAND ARGS...
//!
//! commands:
//!   register NAME QUERY     define + materialize a view (QUERY or @file)
//!   drop NAME               drop a view
//!   submit SCRIPT           queue an update script (SCRIPT or @file)
//!   commit                  drain + fsync this session, print the receipt
//!   query NAME [--raw]      print a view extent as XML (--raw: wire bytes)
//!   stats                   print server statistics
//!   metrics                 print the merged metrics snapshot (JSON)
//!   shutdown                ask the server to drain, seal, and exit
//!   bench [N ...]           open-loop load (see `bench --help`)
//! ```
//!
//! `@file` arguments read the query/script from a file. `query --raw`
//! writes the extent's wire encoding to stdout unmodified — byte-
//! identical to the server's in-process `extent_bytes`, which scripts
//! can diff across restarts.

use client::load::{self, LoadConfig};
use client::{Client, ClientError};
use proto::{ErrorKind, WireErr};
use std::io::Write;
use std::time::Duration;
use xquery_lang::UpdateBatch;

fn usage(msg: &str) -> ! {
    eprintln!("xqview-cli: {msg}");
    eprintln!(
        "usage: xqview-cli [--addr HOST:PORT] \
         register|drop|submit|commit|query|stats|metrics|shutdown|bench ..."
    );
    std::process::exit(2);
}

fn fail(e: ClientError) -> ! {
    eprintln!("xqview-cli: {e}");
    std::process::exit(1);
}

/// Resolve an argument that may be inline text or `@path-to-file`.
fn text_arg(arg: &str) -> String {
    match arg.strip_prefix('@') {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("xqview-cli: cannot read {path}: {e}");
            std::process::exit(1);
        }),
        None => arg.to_string(),
    }
}

fn connect(addr: &str) -> Client {
    Client::connect_with_retry(addr, "xqview-cli", 10, Duration::from_millis(100))
        .unwrap_or_else(|e| fail(e))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7464".to_string();
    if args.first().map(String::as_str) == Some("--addr") {
        if args.len() < 2 {
            usage("--addr needs a value");
        }
        addr = args[1].clone();
        args.drain(..2);
    }
    let Some(cmd) = args.first().cloned() else { usage("no command") };
    let rest = &args[1..];

    match cmd.as_str() {
        "register" => {
            let [name, query] = rest else { usage("register NAME QUERY") };
            let mut c = connect(&addr);
            c.register_view(name, &text_arg(query)).unwrap_or_else(|e| fail(e));
            println!("registered {name}");
        }
        "drop" => {
            let [name] = rest else { usage("drop NAME") };
            let mut c = connect(&addr);
            c.drop_view(name).unwrap_or_else(|e| fail(e));
            println!("dropped {name}");
        }
        "submit" => {
            let [script] = rest else { usage("submit SCRIPT") };
            // Scripts are parsed here, at the edge; the wire carries the
            // typed batch. A bad script fails before any connection is
            // made, reported as a catalog error.
            let batch = UpdateBatch::from_script(&text_arg(script)).unwrap_or_else(|e| {
                fail(ClientError::Server(WireErr::new(ErrorKind::Catalog).detail(e.to_string())))
            });
            let mut c = connect(&addr);
            let (batches, ops) = c.submit(&batch).unwrap_or_else(|e| fail(e));
            // One-shot CLI session: commit before the connection drops so
            // the submission is applied and durable, not fire-and-forget.
            let r = c.commit().unwrap_or_else(|e| fail(e));
            println!(
                "queued {batches} batch(es) / {ops} op(s); committed: applied {} batch(es), {} \
                 op(s), views [{}]",
                r.batches_applied,
                r.ops,
                r.views_touched.join(", ")
            );
        }
        "commit" => {
            let mut c = connect(&addr);
            let r = c.commit().unwrap_or_else(|e| fail(e));
            println!(
                "committed: {} submitted, {} applied, {} ops, {} resolved, views [{}]",
                r.batches_submitted,
                r.batches_applied,
                r.ops,
                r.resolved,
                r.views_touched.join(", ")
            );
        }
        "query" => {
            let (name, raw) = match rest {
                [name] => (name, false),
                [name, flag] if flag == "--raw" => (name, true),
                _ => usage("query NAME [--raw]"),
            };
            let mut c = connect(&addr);
            if raw {
                let bytes = c.query_view_bytes(name).unwrap_or_else(|e| fail(e));
                let mut out = std::io::stdout().lock();
                out.write_all(&bytes).and_then(|()| out.flush()).unwrap_or_else(|e| {
                    eprintln!("xqview-cli: writing extent: {e}");
                    std::process::exit(1);
                });
            } else {
                let extent = c.query_view(name).unwrap_or_else(|e| fail(e));
                println!("{}", extent.to_xml());
            }
        }
        "stats" => {
            let mut c = connect(&addr);
            let s = c.stats().unwrap_or_else(|e| fail(e));
            println!("server      {}", c.server());
            println!("views       [{}]", s.views.join(", "));
            println!("docs        [{}]", s.docs.join(", "));
            println!("batches     {}", s.batches);
            println!(
                "updates     {} seen, {} routed, {} skipped",
                s.updates_seen, s.views_routed, s.views_skipped
            );
            println!(
                "wal         generation {}, {} records, {} bytes",
                s.generation, s.wal_records, s.wal_bytes
            );
            println!(
                "epoch       #{} at watermark {}, {} us old",
                s.epoch, s.epoch_watermark, s.epoch_age_us
            );
            println!(
                "connections {} accepted, {} active",
                s.connections_accepted, s.connections_active
            );
            println!("requests    {} served, {} frame errors", s.requests, s.frame_errors);
            for h in &s.request_latency {
                println!(
                    "  {:<24} n={:<8} p50={}ns p90={}ns p99={}ns max={}ns",
                    h.name, h.count, h.p50_ns, h.p90_ns, h.p99_ns, h.max_ns
                );
            }
        }
        "metrics" => {
            let mut c = connect(&addr);
            println!("{}", c.metrics_json().unwrap_or_else(|e| fail(e)));
        }
        "shutdown" => {
            let mut c = connect(&addr);
            c.shutdown_server().unwrap_or_else(|e| fail(e));
            println!("server shutting down");
        }
        "bench" => {
            // bench [--connections N] [--rate R] [--requests N] [--ops K]
            let mut cfg = LoadConfig { addr: addr.clone(), ..LoadConfig::default() };
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                let mut value = |flag: &str| {
                    it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                };
                match flag.as_str() {
                    "--connections" => {
                        cfg.connections = value("--connections").parse().unwrap_or_else(|_| {
                            usage("bad --connections");
                        })
                    }
                    "--rate" => {
                        cfg.rate_per_conn = value("--rate").parse().unwrap_or_else(|_| {
                            usage("bad --rate");
                        })
                    }
                    "--requests" => {
                        cfg.requests_per_conn = value("--requests").parse().unwrap_or_else(|_| {
                            usage("bad --requests");
                        })
                    }
                    "--ops" => {
                        cfg.ops_per_batch = value("--ops").parse().unwrap_or_else(|_| {
                            usage("bad --ops");
                        })
                    }
                    other => usage(&format!("unknown bench flag {other:?}")),
                }
            }
            let r = load::run(&cfg).unwrap_or_else(|e| fail(e));
            println!(
                "{} connections × {} requests @ {}/s: {:.0} req/s, p50 {}µs p90 {}µs p99 {}µs \
                 max {}µs ({} backpressure, {} errors, {:.2}s)",
                r.connections,
                cfg.requests_per_conn,
                cfg.rate_per_conn,
                r.throughput_rps,
                r.p50_us,
                r.p90_us,
                r.p99_us,
                r.max_us,
                r.backpressure,
                r.errors,
                r.elapsed.as_secs_f64()
            );
        }
        other => usage(&format!("unknown command {other:?}")),
    }
}

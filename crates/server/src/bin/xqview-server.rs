//! `xqview-server` — the durable view service behind a TCP front door.
//!
//! ```text
//! xqview-server --dir DIR [--addr HOST:PORT] [--load NAME=PATH]...
//!               [--max-connections N] [--volatile]
//! ```
//!
//! * `--dir DIR` — catalog directory ([`viewsrv::DurableCatalog::open`]:
//!   snapshot + WAL replay on start, group-committed WAL while running).
//! * `--addr` — bind address, default `127.0.0.1:7464`; port `0` picks
//!   an ephemeral port. The resolved address is printed to stdout as
//!   `listening on ADDR` once the server accepts connections.
//! * `--load NAME=PATH` — parse the XML file at `PATH` and register it as
//!   source document `NAME` (repeatable). Documents already present in a
//!   recovered catalog are left untouched, so restarting with the same
//!   flags is idempotent.
//! * `--volatile` — in-memory catalog instead of `--dir` (benches).
//!
//! SIGTERM and SIGINT trigger the same graceful path as a client
//! `Shutdown` request: stop accepting, drain every session, seal the WAL
//! with a final snapshot, exit 0.

use server::{Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use viewsrv::{DurableCatalog, HubConfig, ViewCatalog};
use xmlstore::Store;

/// Set by the signal handler; shared with the server as its stop flag.
static STOP: AtomicBool = AtomicBool::new(false);

/// Async-signal-safe handler: one store on a static atomic.
extern "C" fn on_signal(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
}

/// Install `on_signal` for SIGTERM and SIGINT. Rust already links the
/// platform C library; declaring `signal(2)` directly avoids a
/// dependency for one call.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: the declaration matches `signal(2)`'s C prototype, and the
    // installed handler performs only an async-signal-safe atomic store.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

struct Args {
    dir: Option<String>,
    addr: String,
    loads: Vec<(String, String)>,
    max_connections: usize,
    volatile: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("xqview-server: {msg}");
    eprintln!(
        "usage: xqview-server --dir DIR [--addr HOST:PORT] [--load NAME=PATH]... \
         [--max-connections N] [--volatile]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        dir: None,
        addr: "127.0.0.1:7464".to_string(),
        loads: Vec::new(),
        max_connections: ServerConfig::default().max_connections,
        volatile: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value =
            |flag: &str| it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match arg.as_str() {
            "--dir" => args.dir = Some(value("--dir")),
            "--addr" => args.addr = value("--addr"),
            "--load" => {
                let spec = value("--load");
                let Some((name, path)) = spec.split_once('=') else {
                    usage(&format!("--load expects NAME=PATH, got {spec:?}"));
                };
                args.loads.push((name.to_string(), path.to_string()));
            }
            "--max-connections" => {
                let v = value("--max-connections");
                args.max_connections =
                    v.parse().unwrap_or_else(|_| usage(&format!("bad --max-connections {v:?}")));
            }
            "--volatile" => args.volatile = true,
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if args.dir.is_none() && !args.volatile {
        usage("either --dir DIR or --volatile is required");
    }
    if args.dir.is_some() && args.volatile {
        usage("--dir and --volatile are mutually exclusive");
    }
    args
}

fn read_doc(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("xqview-server: cannot read {path}: {e}");
        std::process::exit(1);
    })
}

fn fail(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("xqview-server: {what}: {e}");
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    install_signal_handlers();

    let hub = if let Some(dir) = &args.dir {
        let mut dc = match DurableCatalog::open(dir) {
            Ok(dc) => dc,
            Err(e) => fail(&format!("opening catalog dir {dir}"), e),
        };
        let rep = dc.recovery();
        eprintln!(
            "xqview-server: opened {dir} (fresh={}, replayed {} batches)",
            rep.fresh, rep.replayed_batches
        );
        for (name, path) in &args.loads {
            if dc.catalog().store().doc(name).is_some() {
                eprintln!("xqview-server: document {name} already recovered, not reloading");
                continue;
            }
            let xml = read_doc(path);
            if let Err(e) = dc.load_doc(name, &xml) {
                fail(&format!("loading {name} from {path}"), e);
            }
        }
        dc.into_hub(HubConfig::default())
    } else {
        let mut store = Store::new();
        for (name, path) in &args.loads {
            let xml = read_doc(path);
            if let Err(e) = store.load_doc(name, &xml) {
                fail(&format!("loading {name} from {path}"), e);
            }
        }
        ViewCatalog::new(store).into_hub(HubConfig::default())
    };

    let config = ServerConfig {
        addr: args.addr.clone(),
        max_connections: args.max_connections,
        ..ServerConfig::default()
    };
    // The signal handler can't reach an Arc, so the server polls its own
    // flag and the main loop bridges the static one into it.
    let stop = Arc::new(AtomicBool::new(false));
    let srv = match Server::start(config, hub, Arc::clone(&stop)) {
        Ok(s) => s,
        Err(e) => fail(&format!("binding {}", args.addr), e),
    };

    // The parseable readiness line — tests and scripts wait for it.
    println!("listening on {}", srv.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    while !STOP.load(Ordering::SeqCst) && !srv.stop_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("xqview-server: shutting down");
    srv.shutdown();
    eprintln!("xqview-server: catalog sealed, bye");
}

//! Server smoke tests: full protocol round trip against an in-process
//! [`server::Server`], byte-identical remote reads, and a graceful
//! shutdown that seals the WAL.

use client::Client;
use server::{Server, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;
use viewsrv::{DurableCatalog, HubConfig, UpdateBatch, ViewCatalog};
use xmlstore::Store;

fn bib_cfg() -> datagen::BibConfig {
    datagen::BibConfig { books: 20, years: 5, priced_ratio: 0.8, extra_entries: 2, seed: 11 }
}

const Y1900: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "1900"
  return <hit>{$b/title}</hit>
}</result>"#;

const PRICES: &str = r#"<result>{
  for $e in doc("prices.xml")/prices/entry
  return <p>{$e/price}</p>
}</result>"#;

fn fresh_store(cfg: &datagen::BibConfig) -> Store {
    let mut s = Store::new();
    s.load_doc("bib.xml", &datagen::bib_xml(cfg)).unwrap();
    s.load_doc("prices.xml", &datagen::prices_xml(cfg)).unwrap();
    s
}

fn workload(cfg: &datagen::BibConfig) -> Vec<UpdateBatch> {
    let scripts = [
        datagen::insert_books_script(cfg, cfg.books, 2, Some(1900)),
        datagen::modify_prices_script(0, 2, "33.33"),
        datagen::delete_books_script(0, 1),
    ];
    scripts.iter().map(|s| UpdateBatch::from_script(s).unwrap()).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xqview-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn connect(srv: &Server, name: &str) -> Client {
    Client::connect_with_retry(&srv.local_addr().to_string(), name, 20, Duration::from_millis(25))
        .unwrap()
}

/// The whole session protocol over a live socket, with the remote read
/// checked byte-for-byte against an identically-driven in-process
/// catalog.
#[test]
fn round_trip_is_byte_identical_to_in_process() {
    let cfg = bib_cfg();

    // The in-process oracle.
    let mut oracle = ViewCatalog::new(fresh_store(&cfg));
    oracle.register("y1900", Y1900).unwrap();
    oracle.register("prices", PRICES).unwrap();
    for b in workload(&cfg) {
        let _ = oracle.apply_batch(&b).unwrap();
    }

    // The same state built over TCP.
    let srv = Server::start_volatile(ViewCatalog::new(fresh_store(&cfg)), ServerConfig::default())
        .unwrap();
    let mut c = connect(&srv, "smoke");
    assert!(c.server().starts_with("xqview-server/"));
    c.register_view("y1900", Y1900).unwrap();
    c.register_view("prices", PRICES).unwrap();
    let batches = workload(&cfg);
    let n_batches = batches.len();
    for b in &batches {
        c.submit(b).unwrap();
    }
    let receipt = c.commit().unwrap();
    assert_eq!(receipt.batches_submitted as usize, n_batches);
    assert!(receipt.batches_applied >= 1);
    assert!(receipt.ops > 0);

    for name in ["y1900", "prices"] {
        let remote = c.query_view_bytes(name).unwrap();
        let local = oracle.extent_bytes(name).unwrap();
        assert_eq!(remote, local, "{name}: remote extent bytes diverged from in-process");
    }

    // A second connection sees the same catalog (views in its hello).
    let c2 = connect(&srv, "smoke-2");
    assert_eq!(c2.views(), ["y1900".to_string(), "prices".to_string()]);

    // Stats and metrics expose the net/* surface.
    let stats = c.stats().unwrap();
    assert_eq!(stats.views, vec!["y1900", "prices"]);
    assert!(stats.connections_accepted >= 2);
    assert!(stats.requests >= 7);
    assert_eq!(stats.frame_errors, 0);
    let submit_hist = stats
        .request_latency
        .iter()
        .find(|h| h.name == "net/req/submit")
        .expect("submit latency histogram present");
    assert_eq!(submit_hist.count as usize, n_batches);
    assert!(submit_hist.p50_ns > 0);
    let json = c.metrics_json().unwrap();
    assert!(json.contains("net/req/commit"), "metrics dump missing net/* series");
    assert!(json.contains("hub/rounds"), "metrics dump missing hub series");

    // Typed errors stay dispatchable across the wire.
    let err = c.query_view_bytes("nope").unwrap_err();
    match err {
        client::ClientError::Server(e) => {
            assert!(matches!(e.kind, proto::ErrorKind::UnknownView { ref name } if name == "nope"))
        }
        other => panic!("expected a typed UnknownView error, got {other}"),
    }
    let err = c.register_view("y1900", Y1900).unwrap_err();
    match err {
        client::ClientError::Server(e) => {
            assert!(matches!(e.kind, proto::ErrorKind::DuplicateView { .. }))
        }
        other => panic!("expected a typed DuplicateView error, got {other}"),
    }

    // Drop works and the unknown name is now typed too.
    c.drop_view("prices").unwrap();
    assert!(c.query_view_bytes("prices").is_err());
}

/// Remote backpressure: a queue-full rejection carries the configured
/// capacity, and commit-then-retry succeeds — the in-process contract
/// over TCP.
#[test]
fn queue_full_round_trips_capacity() {
    let cfg = bib_cfg();
    let hub = ViewCatalog::new(fresh_store(&cfg)).into_hub(HubConfig {
        queue_capacity: 2,
        // A wide-open time window so the background drain doesn't race
        // the queue-filling loop.
        window_ms: 10_000,
        ..HubConfig::default()
    });
    let srv = Server::start(
        ServerConfig::default(),
        hub,
        std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)),
    )
    .unwrap();
    let mut c = connect(&srv, "backpressure");
    c.register_view("y1900", Y1900).unwrap();

    let batch = workload(&cfg).remove(0);
    let mut saw_queue_full = false;
    for _ in 0..8 {
        match c.submit(&batch) {
            Ok(_) => {}
            Err(e) if e.is_queue_full() => {
                match &e {
                    client::ClientError::Server(w) => {
                        assert!(matches!(w.kind, proto::ErrorKind::QueueFull { capacity: 2 }));
                    }
                    _ => unreachable!(),
                }
                saw_queue_full = true;
                break;
            }
            Err(other) => panic!("unexpected submit failure: {other}"),
        }
    }
    assert!(saw_queue_full, "never hit the queue bound");
    // The batch is still owned: drain, then the retry lands.
    c.commit().unwrap();
    c.submit(&batch).unwrap();
    c.commit().unwrap();
}

/// Graceful shutdown over the wire: `Shutdown` drains the hub, seals the
/// WAL, and a subsequent open replays nothing.
#[test]
fn graceful_shutdown_seals_the_wal() {
    let cfg = bib_cfg();
    let dir = temp_dir("seal");
    let mut dc = DurableCatalog::open(&dir).unwrap();
    dc.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
    dc.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();
    let srv = Server::start(
        ServerConfig::default(),
        dc.into_hub(HubConfig::default()),
        std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)),
    )
    .unwrap();

    let mut c = connect(&srv, "sealer");
    c.register_view("y1900", Y1900).unwrap();
    for b in workload(&cfg) {
        c.submit(&b).unwrap();
    }
    c.commit().unwrap();
    let pre = c.query_view_bytes("y1900").unwrap();
    c.shutdown_server().unwrap();

    assert!(srv.stop_requested(), "client Shutdown must set the server's stop flag");
    drop(srv.shutdown().expect("hub still owned"));

    let reopened = DurableCatalog::open(&dir).unwrap();
    assert_eq!(
        reopened.recovery().replayed_batches,
        0,
        "graceful shutdown must seal the WAL (nothing to replay)"
    );
    assert_eq!(reopened.catalog().extent_bytes("y1900").unwrap(), pre, "sealed extent diverged");
    reopened.verify_all().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The connection limit answers with a typed refusal and leaves existing
/// connections untouched.
#[test]
fn connection_limit_is_typed_and_scoped() {
    let cfg = bib_cfg();
    let srv = Server::start_volatile(
        ViewCatalog::new(fresh_store(&cfg)),
        ServerConfig { max_connections: 2, ..ServerConfig::default() },
    )
    .unwrap();
    let mut keep = connect(&srv, "first");
    let _second = connect(&srv, "second");
    // The third connect is refused at the bound with a typed error.
    let refused = Client::connect(&srv.local_addr().to_string(), "third");
    match refused {
        Err(client::ClientError::Server(e)) => {
            assert!(matches!(e.kind, proto::ErrorKind::ConnectionLimit { max: 2 }))
        }
        Err(client::ClientError::Frame(_)) | Err(client::ClientError::Io(_)) => {
            // Acceptable alternative: the refusal races the close and the
            // stream drops before the error frame is read.
        }
        Ok(_) => panic!("connection above the limit was accepted"),
        Err(other) => panic!("expected a connection-limit refusal, got {other}"),
    }
    // The earlier connections still serve requests.
    keep.register_view("y1900", Y1900).unwrap();
    assert!(keep.stats().unwrap().views.contains(&"y1900".to_string()));
}

//! End-to-end durability over the network against the real
//! `xqview-server` **binary**: register views and commit batches over
//! TCP, SIGKILL the process mid-stream, restart it on the same
//! directory, reconnect, and check the recovered extents byte-for-byte
//! against an uninterrupted in-process reference run.

use client::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use viewsrv::{DurableCatalog, UpdateBatch, ViewCatalog};
use xmlstore::Store;

/// How many of the six workload batches are committed before the kill.
const COMMITTED: usize = 4;

fn bib_cfg() -> datagen::BibConfig {
    datagen::BibConfig { books: 40, years: 5, priced_ratio: 0.8, extra_entries: 4, seed: 7 }
}

/// The four view shapes from the recovery acceptance suite: bib-only
/// selection, prices-only projection, two-document join, grouped.
fn view_defs() -> Vec<(&'static str, String)> {
    vec![
        (
            "y1900",
            r#"<result>{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "1900"
  return <hit>{$b/title}</hit>
}</result>"#
                .to_string(),
        ),
        (
            "prices",
            r#"<result>{
  for $e in doc("prices.xml")/prices/entry
  return <p>{$e/price}</p>
}</result>"#
                .to_string(),
        ),
        (
            "join",
            r#"<result>{
  for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
  where $b/title = $e/b-title
  return <pair>{$b/title}{$e/price}</pair>
}</result>"#
                .to_string(),
        ),
        (
            "grouped",
            r#"<result>{
  for $y in distinct-values(doc("bib.xml")/bib/book/@year)
  order by $y
  return <yGroup Y="{$y}">{
    for $b in doc("bib.xml")/bib/book
    where $y = $b/@year
    return $b/title
  }</yGroup>
}</result>"#
                .to_string(),
        ),
    ]
}

/// The seeded mixed workload (inserts, price modifies, deletes) — the
/// same shape the recovery acceptance tests replay in-process.
fn workload(cfg: &datagen::BibConfig) -> Vec<UpdateBatch> {
    let mut scripts = Vec::new();
    for b in 0..2 {
        scripts.push(datagen::insert_books_script(cfg, cfg.books + b * 2, 2, Some(1900)));
        scripts.push(datagen::modify_prices_script(b * 3, 2, "33.33"));
        scripts.push(datagen::delete_books_script(b * 2, 1));
    }
    scripts.iter().map(|s| UpdateBatch::from_script(s).expect("workload parses")).collect()
}

fn fresh_store(cfg: &datagen::BibConfig) -> Store {
    let mut s = Store::new();
    s.load_doc("bib.xml", &datagen::bib_xml(cfg)).unwrap();
    s.load_doc("prices.xml", &datagen::prices_xml(cfg)).unwrap();
    s
}

/// Extent wire bytes of every view, in registration order.
fn reference_extents(cat: &ViewCatalog, views: &[(&str, String)]) -> Vec<Vec<u8>> {
    views.iter().map(|(n, _)| cat.extent_bytes(n).unwrap()).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xqview-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The spawned server process; killed on drop so a failing assertion
/// never leaks a listener.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// Spawn `xqview-server --dir catalog --load …` on an ephemeral port
    /// and wait for its `listening on ADDR` readiness line.
    fn spawn(catalog: &Path, docs: &[(&str, PathBuf)]) -> ServerProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_xqview-server"));
        cmd.arg("--dir")
            .arg(catalog)
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (name, path) in docs {
            cmd.arg("--load").arg(format!("{name}={}", path.display()));
        }
        let mut child = cmd.spawn().expect("spawn xqview-server");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        break addr.trim().to_string();
                    }
                }
                other => panic!("server exited before its readiness line: {other:?}"),
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines.by_ref() {});
        ServerProc { child, addr }
    }

    fn connect(&self, name: &str) -> Client {
        Client::connect_with_retry(&self.addr, name, 100, Duration::from_millis(50))
            .expect("connect to spawned server")
    }

    /// SIGKILL — no drain, no seal, no atexit.
    fn kill9(mut self) {
        self.child.kill().expect("kill server");
        let _ = self.child.wait();
        std::mem::forget(self);
    }

    /// Wait for a voluntary exit (after a client `Shutdown`).
    fn wait_exit(mut self) -> std::process::ExitStatus {
        let status = self.child.wait().expect("wait for server exit");
        std::mem::forget(self);
        status
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn kill9_mid_stream_then_restart_preserves_committed_state() {
    let cfg = bib_cfg();
    let views = view_defs();
    let batches = workload(&cfg);

    // The uninterrupted reference run, capturing extent bytes after the
    // committed prefix and after one more (possibly-drained) batch.
    let mut oracle = ViewCatalog::new(fresh_store(&cfg));
    for (name, q) in &views {
        oracle.register(name, q).unwrap();
    }
    for b in &batches[..COMMITTED] {
        let _ = oracle.apply_batch(b).unwrap();
    }
    let ref_committed = reference_extents(&oracle, &views);
    let _ = oracle.apply_batch(&batches[COMMITTED]).unwrap();
    let ref_plus_one = reference_extents(&oracle, &views);

    // Source documents on disk for --load.
    let docs_dir = temp_dir("docs");
    let bib_path = docs_dir.join("bib.xml");
    let prices_path = docs_dir.join("prices.xml");
    std::fs::write(&bib_path, datagen::bib_xml(&cfg)).unwrap();
    std::fs::write(&prices_path, datagen::prices_xml(&cfg)).unwrap();
    let docs = [("bib.xml", bib_path.clone()), ("prices.xml", prices_path.clone())];

    let catalog_dir = temp_dir("catalog");
    let srv = ServerProc::spawn(&catalog_dir, &docs);
    let mut c = srv.connect("writer");
    for (name, q) in &views {
        c.register_view(name, q).unwrap();
    }
    for b in &batches[..COMMITTED] {
        c.submit(b).unwrap();
        c.commit().unwrap();
    }
    // The committed state over the wire is byte-identical to the oracle.
    for (i, (name, _)) in views.iter().enumerate() {
        assert_eq!(
            c.query_view_bytes(name).unwrap(),
            ref_committed[i],
            "{name}: pre-kill extent diverged from the reference"
        );
    }

    // One more batch is submitted but NOT committed when the process is
    // SIGKILLed. The background drain may or may not have made it
    // durable — both prefixes are correct recovery points.
    c.submit(&batches[COMMITTED]).unwrap();
    srv.kill9();

    // Restart on the same directory. The documents are already in the
    // recovered catalog, so the --load flags must be idempotent no-ops.
    let srv = ServerProc::spawn(&catalog_dir, &docs);
    let mut c = srv.connect("reader");
    let mut recovered_names = c.views().to_vec();
    recovered_names.sort();
    let mut expected_names: Vec<String> = views.iter().map(|(n, _)| n.to_string()).collect();
    expected_names.sort();
    assert_eq!(recovered_names, expected_names, "recovered catalog lost registered views");
    let recovered: Vec<Vec<u8>> =
        views.iter().map(|(n, _)| c.query_view_bytes(n).unwrap()).collect();
    let at_committed = recovered == ref_committed;
    let at_plus_one = recovered == ref_plus_one;
    assert!(
        at_committed || at_plus_one,
        "recovered extents match neither the committed prefix ({COMMITTED} batches) nor the \
         committed-plus-drained prefix ({} batches)",
        COMMITTED + 1
    );

    // Writes continue after recovery: apply the rest of the workload on
    // both sides and the extents converge again, byte for byte.
    let resume_from = if at_plus_one { COMMITTED + 1 } else { COMMITTED };
    let mut oracle = ViewCatalog::new(fresh_store(&cfg));
    for (name, q) in &views {
        oracle.register(name, q).unwrap();
    }
    for b in &batches[..resume_from] {
        let _ = oracle.apply_batch(b).unwrap();
    }
    for b in &batches[resume_from..] {
        let _ = oracle.apply_batch(b).unwrap();
        c.submit(b).unwrap();
        c.commit().unwrap();
    }
    let final_reference = reference_extents(&oracle, &views);
    for (i, (name, _)) in views.iter().enumerate() {
        assert_eq!(
            c.query_view_bytes(name).unwrap(),
            final_reference[i],
            "{name}: post-recovery writes diverged from the reference"
        );
    }

    // Graceful exit this time: the client's Shutdown drains and seals.
    c.shutdown_server().unwrap();
    let status = srv.wait_exit();
    assert!(status.success(), "server exited non-zero after graceful shutdown: {status:?}");

    // The sealed directory replays nothing and passes the recompute
    // oracle in-process.
    let reopened = DurableCatalog::open(&catalog_dir).unwrap();
    assert_eq!(reopened.recovery().replayed_batches, 0, "graceful exit must seal the WAL");
    reopened.verify_all().unwrap();
    for (i, (name, _)) in views.iter().enumerate() {
        assert_eq!(
            reopened.catalog().extent_bytes(name).unwrap(),
            final_reference[i],
            "{name}: sealed extent diverged"
        );
    }

    let _ = std::fs::remove_dir_all(&catalog_dir);
    let _ = std::fs::remove_dir_all(&docs_dir);
}

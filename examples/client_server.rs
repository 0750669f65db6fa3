//! The network front door end-to-end in one process: an in-process
//! [`server::Server`] (the same engine the `xqview-server` binary wraps)
//! over a volatile catalog on an ephemeral port, driven by the blocking
//! [`client::Client`] — handshake, register, typed submit, commit
//! receipt, byte-identical query, server stats with per-request-kind
//! latency, graceful shutdown.
//!
//! ```sh
//! cargo run --release --example client_server
//! ```

use xqview::client::Client;
use xqview::server::{Server, ServerConfig};
use xqview::{datagen, Store, UpdateBatch, ViewCatalog};

fn main() {
    let cfg =
        datagen::BibConfig { books: 30, years: 5, priced_ratio: 0.8, extra_entries: 3, seed: 3 };
    let mut store = Store::new();
    store.load_doc("bib.xml", &datagen::bib_xml(&cfg)).expect("load bib");
    store.load_doc("prices.xml", &datagen::prices_xml(&cfg)).expect("load prices");

    // The server side: exactly what `xqview-server --volatile` runs.
    let srv = Server::start_volatile(ViewCatalog::new(store), ServerConfig::default())
        .expect("start server");
    let addr = srv.local_addr().to_string();
    println!("server listening on {addr}");

    // The client side: one framed session over TCP.
    let mut c = Client::connect(&addr, "example").expect("connect");
    println!("connected to {} ({} views)", c.server(), c.views().len());

    c.register_view(
        "y1900",
        r#"<result>{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "1900"
  return <hit>{$b/title}</hit>
}</result>"#,
    )
    .expect("register view");

    // Scripts are parsed at the edge; the wire carries the typed batch.
    let batch = UpdateBatch::from_script(
        r#"for $r in doc("bib.xml")/bib update $r
    insert <book year="1900"><title>Networked</title></book> into $r"#,
    )
    .expect("script parses");
    let (batches, ops) = c.submit(&batch).expect("submit");
    println!("queued {batches} batch(es), {ops} op(s)");

    let receipt = c.commit().expect("commit");
    println!(
        "committed: {} batch(es) applied, {} op(s), views touched [{}], \
         validate {}ns propagate {}ns apply {}ns",
        receipt.batches_applied,
        receipt.ops,
        receipt.views_touched.join(", "),
        receipt.validate_ns,
        receipt.propagate_ns,
        receipt.apply_ns
    );

    let extent = c.query_view("y1900").expect("query");
    println!("extent over the wire:\n{}", extent.to_xml());
    assert!(extent.to_xml().contains("Networked"), "the committed insert must be visible");

    let stats = c.stats().expect("stats");
    println!(
        "server stats: {} request(s) on {} connection(s), {} frame error(s)",
        stats.requests, stats.connections_accepted, stats.frame_errors
    );
    for h in &stats.request_latency {
        println!("  {:<22} n={:<4} p50={}ns p99={}ns", h.name, h.count, h.p50_ns, h.p99_ns);
    }

    // Graceful shutdown: the client asks, the server drains and stops.
    c.shutdown_server().expect("shutdown request");
    let inner = srv.shutdown().expect("hub still owned");
    inner.catalog().verify_all().expect("recompute oracle after shutdown");
    println!("server drained and verified — bye");
}

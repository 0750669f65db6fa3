//! # xqview — incremental maintenance of materialized XQuery views
//!
//! A from-scratch Rust reproduction of *"Incremental Maintenance of
//! Materialized XQuery Views"* (M. El-Sayed, ICDE 2006 / WPI dissertation):
//! the VPA (Validate–Propagate–Apply) framework over a Rainbow-style XQuery
//! engine, built on FlexKey order encoding, semantic identifiers, and count
//! annotations.
//!
//! ## Quick start
//!
//! A single materialized view is a one-view [`ViewCatalog`]:
//!
//! ```
//! use xqview::{Store, UpdateBatch, ViewCatalog};
//!
//! let mut store = Store::new();
//! store.load_doc("bib.xml", r#"<bib>
//!     <book year="1994"><title>TCP/IP Illustrated</title></book>
//!     <book year="2000"><title>Data on the Web</title></book>
//! </bib>"#).unwrap();
//!
//! let mut cat = ViewCatalog::new(store);
//! cat.register("v", r#"<result>{
//!     for $b in doc("bib.xml")/bib/book
//!     where $b/@year = "1994"
//!     return $b/title
//! }</result>"#).unwrap();
//! assert_eq!(cat.extent_xml("v").unwrap(),
//!            "<result><title>TCP/IP Illustrated</title></result>");
//!
//! // Maintain incrementally on a source update, parsed once at the edge
//! // into a typed batch:
//! let batch = UpdateBatch::from_script(r#"
//!     for $r in document("bib.xml")/bib update $r
//!     insert <book year="1994"><title>Advanced Programming</title></book> into $r
//! "#).unwrap();
//! cat.apply_batch(&batch).unwrap();
//! assert!(cat.extent_xml("v").unwrap().contains("Advanced Programming"));
//! // The paper's correctness criterion (§1.2): refreshed == recomputed.
//! cat.verify_all().unwrap();
//! ```
//!
//! ## Crate map
//!
//! | Layer | Crate | Paper chapter |
//! |---|---|---|
//! | Metrics, tracing, events (dep-free) | [`obs`] | — (observability substrate) |
//! | Shared worker pool (structured fan-out) | [`exec`] | — (execution substrate) |
//! | Binary codec (WAL records, snapshots) | [`wire`] | — (persistence substrate) |
//! | Order keys, semantic ids | [`flexkey`] | 3, 4 |
//! | XML model + storage manager | [`xmlstore`] | 3 (MASS substrate) |
//! | XQuery + update parser, typed update ops | [`xquery_lang`] | 2, 5 |
//! | XAT algebra + engine | [`xat`] | 2, 3, 4, 6 |
//! | VPA maintenance framework | [`vpa_core`] | 5, 6, 7, 8 |
//! | Multi-view catalog + ingestion front | [`viewsrv`] | 5 (SAPT routing), beyond paper |
//! | Durability (WAL + snapshots) | [`viewsrv::durability`] | 3.3 (MASS persistence), beyond paper |
//! | Lock-free epoch reads (frozen snapshots) | [`viewsrv::epoch`] | — (beyond paper) |
//! | Session protocol (framed requests) | [`proto`] | — (network substrate) |
//! | TCP front door (`xqview-server`) | [`server`] | — (beyond paper) |
//! | Blocking client + CLI + load gen | [`client`] | — (beyond paper) |
//! | Synthetic data / workloads | [`datagen`] | 3.5, 9 |
//! | Project-invariant lints (`cargo run -p xqcheck -- all`) | `xqcheck` | — (correctness tooling) |
//!
//! Every storage layer implements the [`wire`] `Encode`/`Decode` codec for
//! its own types (`flexkey` keys and semantic ids, `xmlstore`
//! nodes/documents/stores, `xat` view extents, `xquery_lang` typed update
//! batches) — serialization lives with the types, journaling lives with
//! the service.
//!
//! ## Many views, one store
//!
//! [`ViewCatalog`] maintains N registered views over one shared store:
//! update batches are validated once, routed through a document→views
//! relevancy index, and the per-view deltas are propagated and applied on
//! the shared [`exec`] worker pool — with a self-join view's telescoped
//! IMP terms fanning out *again* on the same pool. `XQVIEW_POOL_THREADS`
//! sizes the pool (`1` forces fully serial execution; extents are
//! byte-identical either way — the determinism contract `tests/parallel.rs`
//! and the CI determinism job enforce).
//!
//! ## Typed updates and batched ingestion
//!
//! Updates are first-class values, not strings: an [`UpdateOp`] is a typed
//! insert/delete/modify (built programmatically or parsed once from script
//! text), an [`UpdateBatch`] is the unit the stack validates once and
//! routes, and an [`IngestHub`] session queues batches behind a bounded
//! queue with a coalescing window and explicit backpressure, emitting
//! structured [`BatchReceipt`]s per applied window, folded into a
//! [`SessionReceipt`] at `commit`:
//!
//! ```
//! use xqview::{HubConfig, Store, UpdateBatch, UpdateOp, ViewCatalog};
//! use xqview::xquery_lang::InsertPosition;
//!
//! let mut store = Store::new();
//! store.load_doc("bib.xml", r#"<bib><book year="1994"><title>T</title></book></bib>"#).unwrap();
//! let mut cat = ViewCatalog::new(store);
//! cat.register("titles", r#"<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>"#)
//!     .unwrap();
//!
//! let hub = cat.into_hub(HubConfig::default());
//! let writer = hub.handle();
//! let op = UpdateOp::insert("bib.xml", "/bib", InsertPosition::Into,
//!                           r#"<book year="2001"><title>U</title></book>"#).unwrap();
//! writer.try_submit(UpdateBatch::new().with(op)).unwrap();
//! let receipt = writer.commit().unwrap();
//! assert_eq!(receipt.views_touched, vec!["titles"]);
//! drop(writer);
//! hub.shutdown().catalog().verify_all().unwrap();
//! ```
//!
//! ## Durability: views survive the process
//!
//! A [`DurableCatalog`] is a [`ViewCatalog`] whose every mutation flows
//! through one journaled commit point: data batches are appended to a
//! write-ahead log of [`wire`]-framed [`UpdateBatch`] records *before*
//! they apply and acknowledged only once synced (through a hub session,
//! `commit()` is the durability boundary), while administrative mutations
//! checkpoint a full [`viewsrv::Snapshot`] — store, view definitions, and
//! materialized extents. `DurableCatalog::open` recovers by loading the
//! newest valid snapshot, reinstalling extents **without recomputation**,
//! replaying the WAL tail through the ordinary `apply_batch` path — plus
//! any **sealed log segments chained after it**, when a crash interrupted
//! a background checkpoint — and discarding a torn final record; restart
//! cost is proportional to the log tail, not to total data (the benchmark's
//! `restart` workload measures it as `recovery_ms`):
//!
//! ```
//! use xqview::viewsrv::DurableCatalog;
//! use xqview::xquery_lang::InsertPosition;
//! use xqview::{UpdateBatch, UpdateOp};
//!
//! let dir = std::env::temp_dir().join(format!("xqview-lib-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut cat = DurableCatalog::open(&dir).unwrap();
//! cat.load_doc("bib.xml", r#"<bib><book year="1994"><title>T</title></book></bib>"#).unwrap();
//! cat.register("titles", r#"<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>"#)
//!     .unwrap();
//! let op = UpdateOp::insert("bib.xml", "/bib", InsertPosition::Into,
//!                           r#"<book year="2001"><title>U</title></book>"#).unwrap();
//! cat.apply_batch(&UpdateBatch::new().with(op)).unwrap();
//! drop(cat); // "crash": the batch lives only in the WAL
//!
//! let cat = DurableCatalog::open(&dir).unwrap();
//! assert_eq!(cat.recovery().replayed_batches, 1);
//! cat.verify_all().unwrap();
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! ## Many writers: the ingest hub
//!
//! [`IngestHub`] puts either catalog behind `Send` producer handles: each
//! session gets a bounded queue, a **background drain thread** coalesces
//! submissions inside a time window (`window_ms`) and visits sessions
//! **round-robin** so no writer starves, and on a [`DurableCatalog`]
//! concurrent `commit()`s share their WAL fsyncs through a
//! leader/follower **group commit** ([`WalSyncStats`] counts the
//! sharing). The WAL also checkpoints itself once its tail crosses the
//! [`RotatePolicy`] bounds, keeping restart replay bounded — and that
//! rotation does **not** stop the world: capture freezes the store and
//! extents by copy-on-write handle (O(documents + views)), a seal record
//! closes the old WAL generation, commits continue into the next log at
//! memory speed, and a detached [`exec`] job encodes and fsyncs the
//! snapshot (the benchmark's `restart` workload commits through a rotation
//! every 32 records). Drain rounds are panic-safe:
//! a round that unwinds mid-apply hands the catalog back and surfaces a
//! sticky error instead of deadlocking `shutdown`.
//!
//! ## Lock-free reads: the epoch chain
//!
//! Readers never wait for writers. After every applied drain round the
//! hub publishes an immutable [`Epoch`] — the store and every extent
//! frozen by the same copy-on-write handle capture the checkpointer
//! uses (O(documents + views) refcount bumps), stamped with its commit
//! watermark and capture time — behind a hand-rolled atomic pointer
//! swap. A [`ReadHandle`] (from [`IngestHub::read_handle`]) pins the
//! current epoch with one atomic load: queries, multi-view snapshot
//! reads, and stats run against frozen state with **zero locks and zero
//! writer coordination**, so a wedged or checkpoint-stalled writer
//! cannot block a read (`crates/server/tests/reads.rs` regresses
//! exactly that). Epochs are captured only at batch boundaries — never
//! mid-apply — and expose applied-in-memory state (on a durable catalog
//! that can precede the group fsync, the same visibility a live
//! catalog read always had). The benchmark's `read` workload measures read
//! latency beside a committing writer, and the `epoch/*` metrics record
//! the observed staleness distribution.
//!
//! ## The network front door
//!
//! The `xqview-server` binary (crate [`server`]) puts either catalog
//! behind TCP: [`proto`] layers a request/response session protocol over
//! the same [`wire::frame`] encoding the WAL uses (version byte + u32
//! length + CRC-32 — one codec, two transports), and every connection is
//! an [`IngestHub`] session of its own — per-connection bounded queues,
//! typed remote backpressure ([`proto::ErrorKind::QueueFull`] carries the
//! capacity so a [`client::Client`] can commit-and-retry), and
//! `commit()` as the remote durability boundary. Defective peers cost at
//! most their own connection (torn/bad-CRC/oversized frames become typed
//! error responses; handler panics are caught at the thread edge), and a
//! client `Shutdown` or SIGTERM drains every session and seals the WAL.
//! Remote reads are byte-identical to in-process ones
//! ([`ViewCatalog::extent_bytes`] is what travels), `xqview-cli` scripts
//! the whole protocol from a shell, and [`client::load`] is an open-loop
//! many-connection generator (latency measured from *scheduled* arrival,
//! so server queueing is not hidden by coordinated omission) behind
//! `xqview-cli bench`:
//!
//! ```
//! use xqview::client::Client;
//! use xqview::server::{Server, ServerConfig};
//! use xqview::{Store, UpdateBatch, ViewCatalog};
//!
//! let mut store = Store::new();
//! store.load_doc("bib.xml", r#"<bib><book year="1994"><title>T</title></book></bib>"#).unwrap();
//! let srv = Server::start_volatile(ViewCatalog::new(store), ServerConfig::default()).unwrap();
//!
//! let mut c = Client::connect(&srv.local_addr().to_string(), "doc-test").unwrap();
//! c.register_view("titles", r#"<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>"#)
//!     .unwrap();
//! let batch = UpdateBatch::from_script(r#"for $r in doc("bib.xml")/bib update $r
//!     insert <book year="2001"><title>U</title></book> into $r"#)
//!     .unwrap();
//! c.submit(&batch).unwrap();
//! let receipt = c.commit().unwrap();
//! assert_eq!(receipt.views_touched, vec!["titles"]);
//! assert!(c.query_view("titles").unwrap().to_xml().contains("<title>U</title>"));
//! srv.shutdown();
//! ```

pub use client;
pub use exec;
pub use flexkey;
pub use obs;
pub use proto;
pub use server;
pub use viewsrv;
pub use vpa_core;
pub use wire;
pub use xat;
pub use xmlstore;
pub use xquery_lang;

pub use datagen;
pub use flexkey::{FlexKey, OrdKey, SemId};
pub use viewsrv::{
    BatchReceipt, CatalogError, DurabilityError, DurableCatalog, DurableMarks, Epoch,
    EpochPublisher, HubConfig, HubInner, IngestError, IngestHub, ReadHandle, RecoveryReport,
    RotatePolicy, ServiceStats, SessionHandle, SessionReceipt, ViewCatalog, WalSyncStats,
};
pub use vpa_core::{MaintStats, MaintView, ResolvedUpdate, Sapt};
pub use xat::{ExecStats, Executor, Plan, ViewExtent};
pub use xmlstore::{Frag, InsertPos, Store};
pub use xquery_lang::{OpAction, OpKind, UpdateBatch, UpdateOp};

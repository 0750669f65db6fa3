//! # vpa-core — the VPA view-maintenance framework
//!
//! The paper's primary contribution (§1.4): incremental maintenance of
//! materialized XQuery views in three phases, mirroring the propagate–apply
//! framework of mainstream engines (Figure 1.5):
//!
//! 1. **Validate** ([`validate`]) — source XQuery updates are modeled as
//!    *update trees* ([`update`]), checked for **relevancy** against the
//!    view's *Source Access Pattern Tree* (SAPT, Fig 5.2), annotated with
//!    sufficient information (delete fragments are extracted from the
//!    pre-update store), and **batched** per document and update kind.
//! 2. **Propagate** ([`propagate`]) — *Incremental Maintenance Plans* are
//!    derived from the view plan **in the same algebra** (Ch. 7): each IMP
//!    term replaces one occurrence of the updated document by a
//!    `DeltaSource` (and the other occurrences by pre-/post-state sources,
//!    telescoping `Δ(V) = Σᵢ V(S_pre^{<i}, Δᵢ, S_post^{>i})`), and is
//!    executed by the ordinary `xat` engine. The result is a *delta update
//!    tree* with signed derivation counts (Ch. 6).
//! 3. **Apply** ([`MaintView::apply_delta`]) — delta update trees refresh
//!    the materialized extent through the **count-aware Deep Union** (§6.6,
//!    Ch. 8): nodes merge by semantic identifier, counts sum, a node whose
//!    count reaches zero is removed by disconnecting its root — an entire
//!    fragment disappears without visiting descendants (§8.3.2), and
//!    insertion positions come from the semantic ids' order prefixes.
//!    Extents are persistent trees, so even right after an epoch or a
//!    checkpoint captured one, Apply copies only the nodes on the delta's
//!    path ([`MaintStats::extent_nodes_copied`]).
//!
//! [`MaintView`] is one view's definition, extent and VPA primitives, each
//! taking the source store explicitly; [`MaintStats`] is its per-phase
//! cost breakdown (the Chapter 9 experiments), and
//! [`MaintView::recompute_xml`] is the paper's correctness oracle (§1.2:
//! the refreshed view must equal the view recomputed over the updated
//! sources). The rounds themselves — per document, deletes, then
//! modifies, then inserts — are sequenced in one place, the `viewsrv`
//! catalog, which pairs N views (or one) with a shared store.

pub mod propagate;
pub mod update;
pub mod validate;
pub mod view;

pub use propagate::propagate_batch;
pub use update::{apply_to_store, resolve_batch, ResolvedUpdate};
pub use validate::{Relevancy, Sapt};
pub use view::{MaintError, MaintStats, MaintView};
// The typed update contract flows through unchanged: re-exported so
// maintenance callers need not depend on the language crate directly.
pub use xquery_lang::{InsertPosition, OpAction, OpKind, UpdateBatch, UpdateOp};

//! # xmlstore — XML node model, parser, serializer and storage manager
//!
//! This crate is the substrate the paper's Rainbow engine obtained from the
//! *MASS* storage manager \[DR03\] (§3.3): scalable storage and indexing of XML
//! nodes keyed by FlexKeys, with the guarantee that descendants of any node
//! are retrieved **in document order** and that updates never force key
//! reassignment.
//!
//! Our substitution (documented in DESIGN.md): an in-memory [`Store`] of
//! documents, each an ordered `FlexKey → Node` map held as `Arc`-shared
//! pages (so a frozen copy costs nothing and a write after one copies a
//! page, not the document). Because FlexKey comparison *is* document
//! order, an ordered map gives us MASS's two load-bearing properties for
//! free:
//!
//! * `children` / `descendants` are range scans — no sorting ever;
//! * `insert_fragment` allocates fresh keys strictly between existing
//!   siblings ([`flexkey::FlexKey::sibling_between`]) — no relabeling ever.
//!
//! Every node carries a **count annotation** (Ch. 6): the number of
//! derivations of the node. Source nodes are annotated with count 1 (§6.2);
//! view extents and delta trees reuse the same [`Frag`] type with
//! query-computed counts.

pub mod frag;
mod pagemap;
pub mod parse;
mod pathindex;
pub mod store;
pub mod wirecodec;

pub use frag::{Frag, NodeData};
pub use parse::{parse_document, ParseError};
pub use store::{Doc, InsertPos, Node, Store};

use std::cmp::Ordering;

/// A value as a number, when its trimmed text parses as one. With
/// [`compare`], the one value rule of the stack: view evaluation, update
/// filters and the path-value index all call it.
#[inline]
pub fn number(text: &str) -> Option<f64> {
    text.trim().parse::<f64>().ok()
}

/// Compare two values: as numbers when both are ([`number`]), as text
/// otherwise. An unordered pair (a NaN) is `Equal`.
#[inline]
pub fn compare(a: &str, b: &str) -> Ordering {
    match (number(a), number(b)) {
        (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
        _ => a.cmp(b),
    }
}

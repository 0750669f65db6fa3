//! # xat — the XAT XML algebra and execution engine
//!
//! A from-scratch implementation of the XAT algebra \[ZPR02\] that the paper's
//! Rainbow engine uses (Ch. 2), extended with the dissertation's three core
//! mechanisms:
//!
//! * the **order solution** of Chapter 3 — per-table *Order Schemas*
//!   (Table 3.1), overriding-order keys assigned by Combine / XML Union /
//!   Tagger (Fig 3.3), non-ordered bag semantics for all intermediate data,
//!   and partial sorting only at final result generation;
//! * the **Context Schema / semantic identifier** machinery of Chapter 4 —
//!   per-column lineage+order specifications (Table 4.1), the node-level
//!   operations of Table 4.2 (Figs 4.3–4.5), and ECC-based tuple matching;
//! * the **count annotations** of Chapter 6 — derivation counts computed
//!   through every operator (Tables 6.1/6.2), enabling the counting solution
//!   for delete updates.

pub mod context;
pub mod exec;
pub mod extent;
pub mod plan;
pub mod table;
pub mod translate;
pub mod value;
pub mod wirecodec;

pub use context::{ContextSchema, LngCol, LngSpec, OrdSpec};
pub use exec::{ConsNode, ExecError, ExecStats, Executor};
pub use extent::{deep_union_siblings, VNode, ViewExtent};
pub use plan::{annotate, GroupFunc, OpKind, Operand, PatSlot, Pattern, Plan, Pred};
pub use table::{ColInfo, Row, XatTable};
pub use translate::{translate_query, TranslateError};
pub use value::{Atomic, Cell, ConsId, Item, ItemRef};

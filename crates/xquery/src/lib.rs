//! # xquery-lang — parser, AST and normalization for the paper's XQuery subset
//!
//! Implements the language layer of the system (Ch. 2):
//!
//! * [`ast`] — the abstract syntax of the Figure 2.1 grammar: FLWOR
//!   expressions, XPath expressions over the `/` and `//` axes with
//!   predicates, direct element constructors, `distinct-values`, and
//!   aggregate functions.
//! * [`parser`] — a recursive-descent parser with modal lexing for element
//!   constructors (text/`{expr}` content).
//! * [`mod@normalize`] — the source-level normalization of §2.3.1: let-variable
//!   inlining (Rule 1), splitting of multi-variable `for` clauses (Rule 2,
//!   represented structurally), and hoisting of XPath predicates into `where`
//!   clauses (Rule 3).
//! * [`ops`] — the XQuery update language of \[TIHW01\] used for source
//!   updates (Figure 1.3): `insert … before/after/into`, `delete`,
//!   `replace … with`, as typed operations ([`UpdateOp`] / [`UpdateBatch`]).
//!   They are the one update AST the maintenance stack consumes, built by
//!   the builders or parsed once from script text
//!   ([`UpdateBatch::from_script`], whose parser reuses [`parser`]'s pieces).

pub mod ast;
pub mod normalize;
pub mod ops;
pub mod parser;
mod update;
pub mod wirecodec;

pub use ast::*;
pub use normalize::normalize;
pub use ops::{parse_path, InsertPosition, OpAction, OpKind, UpdateBatch, UpdateOp};
pub use parser::{parse_query, QueryParseError};

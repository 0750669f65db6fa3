//! Typed source-update operations: the one AST of the update language
//! (Figure 1.3), for scripts and programs alike.
//!
//! Every entry point of the maintenance stack used to take a raw
//! update-script `&str` and re-parse it per call. [`UpdateOp`] and
//! [`UpdateBatch`] make the update stream a first-class value instead:
//! an op is a typed insert/delete/modify with a document, a target path,
//! and an optional filter, constructible either
//!
//! * **programmatically** via the builder constructors
//!   ([`UpdateOp::insert`], [`UpdateOp::delete`],
//!   [`UpdateOp::replace_text`], refined with [`UpdateOp::filter`]), or
//! * **from script text**, parsed exactly once by
//!   [`UpdateBatch::from_script`].
//!
//! Downstream, `vpa-core` resolves ops against the store and the `viewsrv`
//! catalog sessions queue, coalesce, and apply whole batches — no string
//! round-trips anywhere past this module.
//!
//! ```
//! use xquery_lang::{CmpOp, InsertPosition, UpdateBatch, UpdateOp};
//!
//! let batch = UpdateBatch::new()
//!     .with(
//!         UpdateOp::insert("bib.xml", "/bib", InsertPosition::Into,
//!                          "<book year=\"2001\"><title>New</title></book>")
//!             .unwrap(),
//!     )
//!     .with(
//!         UpdateOp::delete("bib.xml", "/bib/book")
//!             .unwrap()
//!             .filter("@year", CmpOp::Eq, "1994")
//!             .unwrap(),
//!     );
//! assert_eq!(batch.len(), 2);
//!
//! // The same batch, parsed once from script text:
//! let parsed = UpdateBatch::from_script(
//!     r#"for $r in doc("bib.xml")/bib update $r
//!        insert <book year="2001"><title>New</title></book> into $r ;
//!        for $b in doc("bib.xml")/bib/book where $b/@year = "1994"
//!        update $b delete $b"#,
//! )
//! .unwrap();
//! assert_eq!(parsed.len(), 2);
//! assert_eq!(parsed.ops()[1].kind(), xquery_lang::OpKind::Delete);
//! ```

use crate::ast::{BoolExpr, CmpOp, Expr, NodeTest, PathExpr, PathSource, Step};
use crate::parser::{QueryParseError, P};

/// Where an inserted fragment lands relative to the target node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertPosition {
    /// Preceding sibling of the target.
    Before,
    /// Following sibling of the target.
    After,
    /// Last child of the target.
    Into,
}

/// The kind of an [`UpdateOp`] (mirrors the paper's three update
/// primitives, Figure 1.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Insert,
    Delete,
    Modify,
}

/// The action half of an [`UpdateOp`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpAction {
    /// Insert `fragment_xml` at `position` relative to each target.
    Insert { position: InsertPosition, fragment_xml: String },
    /// Delete the node(s) reached by `rel_path` from each target (empty:
    /// the target itself).
    Delete { rel_path: Vec<Step> },
    /// Replace the text content of the node(s) reached by `rel_path` from
    /// each target with `new_value`.
    ReplaceText { rel_path: Vec<Step>, new_value: String },
}

/// One typed source update: bind targets in `doc` via `path` (optionally
/// narrowed by `filter`), then perform [`OpAction`] on each binding.
///
/// The one AST of the update language: the script parser produces it
/// ([`UpdateBatch::from_script`]), the builders construct it, and the WAL
/// encodes it. It can be constructed, inspected, and re-batched without
/// any script text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateOp {
    /// The bound variable name filters refer to (cosmetic for
    /// builder-made ops; preserved from the script for parsed ops).
    var: String,
    doc: String,
    path: Vec<Step>,
    filter: Option<BoolExpr>,
    action: OpAction,
}

impl UpdateOp {
    /// An insert of `fragment_xml` at `position` relative to every node
    /// matched by `target_path` (an absolute path like `/bib/book[2]`)
    /// inside `doc`.
    pub fn insert(
        doc: &str,
        target_path: &str,
        position: InsertPosition,
        fragment_xml: &str,
    ) -> Result<UpdateOp, QueryParseError> {
        Ok(UpdateOp {
            var: "u".to_string(),
            doc: doc.to_string(),
            path: parse_path(target_path)?,
            filter: None,
            action: OpAction::Insert { position, fragment_xml: fragment_xml.to_string() },
        })
    }

    /// A delete of every node matched by `target_path` inside `doc`.
    pub fn delete(doc: &str, target_path: &str) -> Result<UpdateOp, QueryParseError> {
        Ok(UpdateOp {
            var: "u".to_string(),
            doc: doc.to_string(),
            path: parse_path(target_path)?,
            filter: None,
            action: OpAction::Delete { rel_path: Vec::new() },
        })
    }

    /// A text replacement: for every node matched by `target_path` in
    /// `doc`, replace the text content of the node reached by `rel_path`
    /// (empty or `.` for the target itself; a trailing `text()` step is
    /// accepted and stripped, as in the script language) with `new_value`.
    pub fn replace_text(
        doc: &str,
        target_path: &str,
        rel_path: &str,
        new_value: &str,
    ) -> Result<UpdateOp, QueryParseError> {
        let mut rel =
            if rel_path.is_empty() || rel_path == "." { Vec::new() } else { parse_path(rel_path)? };
        if matches!(rel.last(), Some(Step { test: NodeTest::Text, .. })) {
            rel.pop();
        }
        Ok(UpdateOp {
            var: "u".to_string(),
            doc: doc.to_string(),
            path: parse_path(target_path)?,
            filter: None,
            action: OpAction::ReplaceText { rel_path: rel, new_value: new_value.to_string() },
        })
    }

    /// Narrow the target binding with a comparison on a path relative to
    /// the target (e.g. `filter("@year", CmpOp::Eq, "1994")` or
    /// `filter("title", CmpOp::Eq, "Data on the Web")`). Repeated calls
    /// conjoin, matching the script language's `where … and …`.
    pub fn filter(
        mut self,
        rel_path: &str,
        op: CmpOp,
        value: &str,
    ) -> Result<UpdateOp, QueryParseError> {
        let steps = parse_path(rel_path)?;
        let cmp = BoolExpr::Cmp {
            lhs: Expr::Path(PathExpr::new(PathSource::Var(self.var.clone()), steps)),
            op,
            rhs: Expr::Literal(value.to_string()),
        };
        self.filter = Some(match self.filter.take() {
            Some(prev) => BoolExpr::And(Box::new(prev), Box::new(cmp)),
            None => cmp,
        });
        Ok(self)
    }

    /// The document this op updates.
    pub fn doc(&self) -> &str {
        &self.doc
    }

    /// The bound variable name the filter refers to.
    pub fn var(&self) -> &str {
        &self.var
    }

    /// The target binding path.
    pub fn path(&self) -> &[Step] {
        &self.path
    }

    /// The filter narrowing the target binding, if any.
    pub fn filter_expr(&self) -> Option<&BoolExpr> {
        self.filter.as_ref()
    }

    /// The action performed on each bound target.
    pub fn action(&self) -> &OpAction {
        &self.action
    }

    /// The update primitive kind.
    pub fn kind(&self) -> OpKind {
        match self.action {
            OpAction::Insert { .. } => OpKind::Insert,
            OpAction::Delete { .. } => OpKind::Delete,
            OpAction::ReplaceText { .. } => OpKind::Modify,
        }
    }

    /// Assemble an op from parsed or decoded parts (script parser and
    /// wire codec).
    pub(crate) fn from_parts(
        var: String,
        doc: String,
        path: Vec<Step>,
        filter: Option<BoolExpr>,
        action: OpAction,
    ) -> UpdateOp {
        UpdateOp { var, doc, path, filter, action }
    }
}

/// An ordered batch of typed update operations — the unit the maintenance
/// stack validates once and routes to every affected view.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> UpdateBatch {
        UpdateBatch::default()
    }

    /// Parse an update script into a typed batch — the **only** place
    /// script text is parsed; everything downstream consumes the ops.
    pub fn from_script(script: &str) -> Result<UpdateBatch, QueryParseError> {
        Ok(UpdateBatch { ops: crate::update::parse_script(script)? })
    }

    /// Append one op.
    pub fn push(&mut self, op: UpdateOp) {
        self.ops.push(op);
    }

    /// Builder-style [`UpdateBatch::push`].
    pub fn with(mut self, op: UpdateOp) -> UpdateBatch {
        self.ops.push(op);
        self
    }

    /// Append every op of `other`, preserving order (used by the catalog
    /// session to coalesce queued batches).
    pub fn extend(&mut self, other: UpdateBatch) {
        self.ops.extend(other.ops);
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The ops, in application order.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }
}

impl FromIterator<UpdateOp> for UpdateBatch {
    fn from_iter<I: IntoIterator<Item = UpdateOp>>(iter: I) -> UpdateBatch {
        UpdateBatch { ops: iter.into_iter().collect() }
    }
}

impl IntoIterator for UpdateBatch {
    type Item = UpdateOp;
    type IntoIter = std::vec::IntoIter<UpdateOp>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter()
    }
}

impl<'a> IntoIterator for &'a UpdateBatch {
    type Item = &'a UpdateOp;
    type IntoIter = std::slice::Iter<'a, UpdateOp>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

/// Parse a standalone location path (`/bib/book[2]`, `title`, `@year`,
/// `price/text()`…) into steps — the helper behind the [`UpdateOp`]
/// builders. A leading `/` is optional; the whole input must parse.
pub fn parse_path(input: &str) -> Result<Vec<Step>, QueryParseError> {
    let mut p = P { b: input.as_bytes(), pos: 0 };
    p.ws();
    // `P::steps` expects a leading axis token; bare relative paths
    // (`title`, `@year`) are accepted by prefixing the child axis.
    let normalized;
    if !matches!(p.peek(), Some(b'/')) {
        normalized = format!("/{}", input.trim());
        p = P { b: normalized.as_bytes(), pos: 0 };
        p.ws();
    }
    let steps = p.steps()?;
    p.ws();
    if p.pos < p.b.len() {
        return Err(p.err("trailing input after path"));
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_matches_parsed_script() {
        let built = UpdateBatch::new()
            .with(
                UpdateOp::insert(
                    "bib.xml",
                    "/bib",
                    InsertPosition::Into,
                    "<book year=\"2001\"><title>New</title></book>",
                )
                .unwrap(),
            )
            .with(
                UpdateOp::delete("bib.xml", "/bib/book")
                    .unwrap()
                    .filter("@year", CmpOp::Eq, "1994")
                    .unwrap(),
            )
            .with(
                UpdateOp::replace_text("prices.xml", "/prices/entry", "price/text()", "9.99")
                    .unwrap()
                    .filter("b-title", CmpOp::Eq, "New")
                    .unwrap(),
            );
        let parsed = UpdateBatch::from_script(
            r#"for $u in doc("bib.xml")/bib update $u
               insert <book year="2001"><title>New</title></book> into $u ;
               for $u in doc("bib.xml")/bib/book where $u/@year = "1994"
               update $u delete $u ;
               for $u in doc("prices.xml")/prices/entry where $u/b-title = "New"
               update $u replace $u/price/text() with "9.99""#,
        )
        .unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn kinds_and_accessors() {
        let op = UpdateOp::replace_text("d.xml", "/r/x", "", "v").unwrap();
        assert_eq!(op.kind(), OpKind::Modify);
        assert_eq!(op.doc(), "d.xml");
        assert_eq!(op.path().len(), 2);
        assert!(op.filter_expr().is_none());
        let OpAction::ReplaceText { rel_path, new_value } = op.action() else { panic!() };
        assert!(rel_path.is_empty());
        assert_eq!(new_value, "v");
    }

    #[test]
    fn parse_path_variants() {
        assert_eq!(parse_path("/bib/book").unwrap().len(), 2);
        assert_eq!(parse_path("title").unwrap().len(), 1);
        let attr = parse_path("@year").unwrap();
        assert_eq!(attr[0].test, NodeTest::Attr("year".into()));
        let pos = parse_path("/bib/book[2]").unwrap();
        assert_eq!(pos[1].predicate, Some(crate::ast::StepPredicate::Position(2)));
        assert!(parse_path("/bib/book junk").is_err());
        assert!(parse_path("/bib/book[0]").is_err(), "positions are 1-based");
        assert!(UpdateOp::delete("bib.xml", "/bib/book[0]").is_err());
    }

    #[test]
    fn batch_collects_and_iterates() {
        let ops = vec![
            UpdateOp::delete("a.xml", "/r/x").unwrap(),
            UpdateOp::delete("b.xml", "/r/y").unwrap(),
        ];
        let batch: UpdateBatch = ops.clone().into_iter().collect();
        assert_eq!(batch.len(), 2);
        let docs: Vec<&str> = (&batch).into_iter().map(|o| o.doc()).collect();
        assert_eq!(docs, vec!["a.xml", "b.xml"]);
        let mut merged = UpdateBatch::new();
        merged.extend(batch.clone());
        merged.extend(batch);
        assert_eq!(merged.len(), 4);
    }
}

//! Source update modeling (Ch. 5): resolving typed XQuery update ops
//! against the store into concrete *update primitives*.
//!
//! An [`UpdateOp`] binds a variable over a path (possibly with positional
//! predicates, Fig 1.3(a)) and filters with a `where` clause; a
//! [`ResolvedUpdate`] pins the affected node keys. Resolution happens
//! against the **pre-update** store, which also supplies the *sufficiency*
//! annotation of §5.2.2: a delete update referencing a node only by a
//! predicate (Fig 1.3(b)) is annotated with its full fragment, extracted
//! before anything is removed.

use flexkey::FlexKey;
use std::fmt;
use xmlstore::{Frag, InsertPos, Store};
use xquery_lang::{
    BoolExpr, CmpOp, Expr, InsertPosition, NodeTest, OpAction, OpKind, PathSource, Step,
    StepPredicate, UpdateBatch, UpdateOp,
};

/// A fully resolved source update primitive (an *update tree* root: the
/// hierarchy/order information is carried by the FlexKeys themselves).
#[derive(Clone, Debug)]
pub enum ResolvedUpdate {
    /// Insert `frag` under `parent` at `pos`.
    Insert { doc: String, parent: FlexKey, pos: InsertPos, frag: Frag },
    /// Delete the subtree rooted at `target`. `frag` is the sufficiency
    /// annotation: the full fragment extracted from the pre-update store.
    Delete { doc: String, target: FlexKey, frag: Frag },
    /// Replace the text content of `target` with `new_value`.
    ReplaceText { doc: String, target: FlexKey, new_value: String },
}

impl ResolvedUpdate {
    pub fn doc(&self) -> &str {
        match self {
            ResolvedUpdate::Insert { doc, .. }
            | ResolvedUpdate::Delete { doc, .. }
            | ResolvedUpdate::ReplaceText { doc, .. } => doc,
        }
    }

    pub fn kind(&self) -> OpKind {
        match self {
            ResolvedUpdate::Insert { .. } => OpKind::Insert,
            ResolvedUpdate::Delete { .. } => OpKind::Delete,
            ResolvedUpdate::ReplaceText { .. } => OpKind::Modify,
        }
    }

    /// Number of nodes in the update payload (update size, Figures 9.4/9.5).
    pub fn size(&self) -> usize {
        match self {
            ResolvedUpdate::Insert { frag, .. } | ResolvedUpdate::Delete { frag, .. } => {
                frag.size()
            }
            ResolvedUpdate::ReplaceText { .. } => 1,
        }
    }
}

/// Resolution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateError(pub String);

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "update resolution error: {}", self.0)
    }
}

impl std::error::Error for UpdateError {}

impl From<xquery_lang::QueryParseError> for UpdateError {
    fn from(e: xquery_lang::QueryParseError) -> Self {
        UpdateError(e.to_string())
    }
}

/// Resolve a typed update batch against the (pre-update) store: every op's
/// target bindings are pinned to concrete node keys, with the §5.2.2
/// sufficiency annotations extracted. This is the native entry point of the
/// Validate phase; no script text is involved.
pub fn resolve_batch(
    store: &Store,
    batch: &UpdateBatch,
) -> Result<Vec<ResolvedUpdate>, UpdateError> {
    let mut out = Vec::new();
    for op in batch {
        out.extend(resolve_op(store, op)?);
    }
    Ok(out)
}

/// Resolve one typed op against the (pre-update) store — borrows every
/// part of the op directly; nothing is cloned until a primitive is built.
fn resolve_op(store: &Store, op: &UpdateOp) -> Result<Vec<ResolvedUpdate>, UpdateError> {
    let (var, doc, path, where_) = (op.var(), op.doc(), op.path(), op.filter_expr());
    let handle =
        store.doc_handle(doc).ok_or_else(|| UpdateError(format!("unknown document {doc}")))?;
    // Bind the target variable: through the path-value index when one of
    // the binding's equality conditions can be looked up, by navigation
    // otherwise. Either way the `where` clause has the last word.
    let mut bindings = match indexed_bindings(store, doc, &handle, var, path, where_) {
        Some(bindings) => bindings,
        None => eval_steps(store, &handle, path)?,
    };
    if let Some(w) = where_ {
        bindings.retain(|k| eval_where(store, k, var, w));
    }
    let mut out = Vec::new();
    for target in bindings {
        match op.action() {
            OpAction::Insert { position, fragment_xml } => {
                let frag = xmlstore::parse_document(fragment_xml)
                    .map_err(|e| UpdateError(e.to_string()))?;
                let (parent, pos) = match position {
                    InsertPosition::After => {
                        let parent = target.parent().ok_or_else(|| {
                            UpdateError("cannot insert beside a document root".into())
                        })?;
                        (parent, InsertPos::After(target.clone()))
                    }
                    InsertPosition::Before => {
                        let parent = target.parent().ok_or_else(|| {
                            UpdateError("cannot insert beside a document root".into())
                        })?;
                        (parent, InsertPos::Before(target.clone()))
                    }
                    InsertPosition::Into => (target.clone(), InsertPos::Last),
                };
                out.push(ResolvedUpdate::Insert { doc: doc.to_string(), parent, pos, frag });
            }
            OpAction::Delete { rel_path } => {
                let victims = if rel_path.is_empty() {
                    vec![target.clone()]
                } else {
                    eval_steps(store, &target, rel_path)?
                };
                for v in victims {
                    // Sufficiency (§5.2.2): capture the entire fragment from
                    // the pre-update store.
                    let frag = store
                        .extract_frag(&v)
                        .ok_or_else(|| UpdateError(format!("dangling delete target {v}")))?;
                    out.push(ResolvedUpdate::Delete { doc: doc.to_string(), target: v, frag });
                }
            }
            OpAction::ReplaceText { rel_path, new_value } => {
                let victims = if rel_path.is_empty() {
                    vec![target.clone()]
                } else {
                    eval_steps(store, &target, rel_path)?
                };
                for v in victims {
                    out.push(ResolvedUpdate::ReplaceText {
                        doc: doc.to_string(),
                        target: v,
                        new_value: new_value.clone(),
                    });
                }
            }
        }
    }
    Ok(out)
}

/// The bindings of `path` from the document node `handle`, answered by the
/// store's path-value index: possible when `path` is plain child-axis name
/// steps and an equality that narrows it — the last step's `[rel = "v"]`
/// predicate, or a `$var/rel = "v"` conjunct of the `where` clause — is
/// over child-axis steps too. Returns exactly what [`eval_steps`] would
/// for the bindings that satisfy that equality, in document order; `None`
/// when the index cannot say (descendant axis, wildcard, positional
/// predicate, non-`=` comparison, mixed content or NaN at the path) and
/// the caller navigates.
fn indexed_bindings(
    store: &Store,
    doc: &str,
    handle: &FlexKey,
    var: &str,
    path: &[Step],
    where_: Option<&BoolExpr>,
) -> Option<Vec<FlexKey>> {
    let (last, init) = path.split_last()?;
    let (rel, value) = match (&last.predicate, where_) {
        (Some(StepPredicate::Cmp { path, op: CmpOp::Eq, value }), _) => (path.as_slice(), value),
        (None, Some(w)) => eq_conjunct(w, var)?,
        _ => return None,
    };
    // Bindings are elements, reached by plain child steps.
    let bare = Step { predicate: None, ..last.clone() };
    let bound = init.iter().chain([&bare]);
    if !bound.clone().all(Step::binds_element) {
        return None;
    }
    let labels = Step::label_path(bound.chain(rel))?;
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
    let depth = handle.depth() + path.len();
    let mut bindings: Vec<FlexKey> =
        store.nodes_by_value(doc, &labels, value)?.iter().map(|k| k.prefix(depth)).collect();
    // Document order puts the nodes below one binding side by side.
    bindings.dedup();
    if let Some(StepPredicate::Cmp { path, op, value }) = &last.predicate {
        bindings.retain(|k| path_values(store, k, path).iter().any(|v| holds(v, *op, value)));
    }
    Some(bindings)
}

/// An `$var/rel = "literal"` comparison among the conjuncts of `w`.
fn eq_conjunct<'a>(w: &'a BoolExpr, var: &str) -> Option<(&'a [Step], &'a String)> {
    match w {
        BoolExpr::And(a, b) => eq_conjunct(a, var).or_else(|| eq_conjunct(b, var)),
        BoolExpr::Cmp { lhs, op: CmpOp::Eq, rhs } => match (lhs, rhs) {
            (Expr::Path(p), Expr::Literal(v) | Expr::Number(v))
            | (Expr::Literal(v) | Expr::Number(v), Expr::Path(p))
                if matches!(&p.source, PathSource::Var(name) if name == var) =>
            {
                Some((p.steps.as_slice(), v))
            }
            _ => None,
        },
        BoolExpr::Cmp { .. } => None,
    }
}

/// The nodes one step reaches from `from`. Child steps hop from sibling to
/// sibling ([`Store::child_iter`]), lazily: O(children) probes at most,
/// never O(descendants), and a positional predicate stops at its child.
fn step_hits<'a>(
    store: &'a Store,
    from: &'a FlexKey,
    step: &'a Step,
) -> Box<dyn Iterator<Item = FlexKey> + 'a> {
    match (&step.test, step.axis) {
        (NodeTest::Name(n), xquery_lang::Axis::Descendant) => {
            Box::new(store.descendants_named(from, n).into_iter())
        }
        (NodeTest::Attr(_), _) => Box::new(std::iter::empty()),
        (test, _) => Box::new(
            store
                .child_iter(from)
                .filter(move |(_, node)| match test {
                    NodeTest::Name(n) => node.data.name() == Some(n),
                    NodeTest::Wildcard => node.data.name().is_some(),
                    _ => node.data.name().is_none(),
                })
                .map(|(k, _)| k.clone()),
        ),
    }
}

/// Evaluate location steps (with positional / comparison predicates) from a
/// node — the small navigator used for update-target binding only; view
/// evaluation uses the full engine.
fn eval_steps(store: &Store, from: &FlexKey, steps: &[Step]) -> Result<Vec<FlexKey>, UpdateError> {
    let mut frontier = vec![from.clone()];
    for step in steps {
        if matches!(step.test, NodeTest::Attr(_)) {
            return Err(UpdateError("attribute steps not allowed in update targets".into()));
        }
        let next: Vec<FlexKey> = {
            let mut hits = frontier.iter().flat_map(|k| step_hits(store, k, step));
            match &step.predicate {
                None => hits.collect(),
                // XPath positions are per parent context; with a single
                // entry point this is the n-th match overall.
                Some(StepPredicate::Position(n)) => {
                    let before = n.checked_sub(1).ok_or_else(|| {
                        UpdateError("step position 0: positions are 1-based".into())
                    })?;
                    hits.nth(before).into_iter().collect()
                }
                Some(StepPredicate::Cmp { path, op, value }) => hits
                    .filter(|k| path_values(store, k, path).iter().any(|v| holds(v, *op, value)))
                    .collect(),
            }
        };
        frontier = next;
    }
    Ok(frontier)
}

fn eval_where(store: &Store, target: &FlexKey, var: &str, w: &BoolExpr) -> bool {
    match w {
        BoolExpr::And(a, b) => {
            eval_where(store, target, var, a) && eval_where(store, target, var, b)
        }
        BoolExpr::Cmp { lhs, op, rhs } => {
            let lv = operand_values(store, target, var, lhs);
            let rv = operand_values(store, target, var, rhs);
            lv.iter().any(|a| rv.iter().any(|b| holds(a, *op, b)))
        }
    }
}

fn operand_values(store: &Store, target: &FlexKey, var: &str, e: &Expr) -> Vec<String> {
    match e {
        Expr::Literal(s) | Expr::Number(s) => vec![s.clone()],
        Expr::Var(v) if v == var => vec![store.string_value(target)],
        Expr::Path(p) => match &p.source {
            PathSource::Var(v) if v == var => path_values(store, target, &p.steps),
            _ => Vec::new(),
        },
        _ => Vec::new(),
    }
}

fn path_values(store: &Store, from: &FlexKey, steps: &[Step]) -> Vec<String> {
    let mut frontier = vec![from.clone()];
    let mut values: Vec<String> = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let last = i + 1 == steps.len();
        let mut next = Vec::new();
        for k in &frontier {
            match &step.test {
                NodeTest::Attr(a) => {
                    if let Some(v) = store.attr(k, a) {
                        values.push(v);
                    }
                }
                NodeTest::Text => values.push(store.string_value(k)),
                NodeTest::Name(_) | NodeTest::Wildcard => {
                    let hits = step_hits(store, k, step);
                    if last {
                        values.extend(hits.map(|h| store.string_value(&h)));
                    } else {
                        next.extend(hits);
                    }
                }
            }
        }
        frontier = next;
    }
    values
}

/// Whether `a op b` holds under the value rule, [`xmlstore::compare`].
fn holds(a: &str, op: CmpOp, b: &str) -> bool {
    let ord = xmlstore::compare(a, b);
    match op {
        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
        CmpOp::Lt => ord == std::cmp::Ordering::Less,
        CmpOp::Le => ord != std::cmp::Ordering::Greater,
        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        CmpOp::Ge => ord != std::cmp::Ordering::Less,
    }
}

/// Apply a resolved update to the store. Returns the affected fragment-root
/// key (the inserted fragment's new root, the deleted target, or the
/// modified node).
pub fn apply_to_store(store: &mut Store, u: &ResolvedUpdate) -> Result<FlexKey, UpdateError> {
    match u {
        ResolvedUpdate::Insert { parent, pos, frag, .. } => store
            .insert_fragment(parent, pos.clone(), frag)
            .ok_or_else(|| UpdateError("insert position no longer exists".into())),
        ResolvedUpdate::Delete { target, .. } => {
            if store.delete_subtree(target) == 0 {
                return Err(UpdateError(format!("delete target {target} no longer exists")));
            }
            Ok(target.clone())
        }
        ResolvedUpdate::ReplaceText { target, new_value, .. } => {
            if !store.replace_text(target, new_value) {
                return Err(UpdateError(format!("replace target {target} no longer exists")));
            }
            Ok(target.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIB: &str = r#"<bib>
        <book year="1994"><title>TCP/IP Illustrated</title></book>
        <book year="2000"><title>Data on the Web</title></book>
    </bib>"#;

    fn store() -> Store {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        s
    }

    fn resolve_script(s: &Store, script: &str) -> Vec<ResolvedUpdate> {
        resolve_batch(s, &UpdateBatch::from_script(script).unwrap()).unwrap()
    }

    #[test]
    fn resolve_positional_insert_figure_1_3a() {
        let s = store();
        let ups = resolve_script(
            &s,
            r#"for $b in document("bib.xml")/bib/book[2]
               update $b insert <book year="1994"><title>Advanced</title></book> after $b"#,
        );
        assert_eq!(ups.len(), 1);
        let ResolvedUpdate::Insert { parent, pos, frag, .. } = &ups[0] else { panic!() };
        let books = s.children_named(&s.doc_root("bib.xml").unwrap(), "book");
        assert_eq!(*parent, s.doc_root("bib.xml").unwrap());
        assert_eq!(*pos, InsertPos::After(books[1].clone()));
        assert_eq!(frag.data.attr("year"), Some("1994"));
    }

    #[test]
    fn resolve_predicate_delete_with_sufficiency_annotation() {
        let s = store();
        let ups = resolve_script(
            &s,
            r#"for $b in document("bib.xml")/bib/book
               where $b/title = "Data on the Web"
               update $b delete $b"#,
        );
        assert_eq!(ups.len(), 1);
        let ResolvedUpdate::Delete { target, frag, .. } = &ups[0] else { panic!() };
        // The annotation carries the whole fragment, including the year
        // attribute the view will need for regrouping (§5.2.2).
        assert_eq!(frag.data.attr("year"), Some("2000"));
        assert_eq!(frag.string_value(), "Data on the Web");
        let books = s.children_named(&s.doc_root("bib.xml").unwrap(), "book");
        assert_eq!(*target, books[1]);
    }

    #[test]
    fn resolve_replace() {
        let mut s = store();
        let ups = resolve_script(
            &s,
            r#"for $b in document("bib.xml")/bib/book
               where $b/@year = "1994"
               update $b replace $b/title/text() with "TCP/IP Illustrated 2e""#,
        );
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].kind(), OpKind::Modify);
        apply_to_store(&mut s, &ups[0]).unwrap();
        let books = s.children_named(&s.doc_root("bib.xml").unwrap(), "book");
        let title = s.children_named(&books[0], "title")[0].clone();
        assert_eq!(s.string_value(&title), "TCP/IP Illustrated 2e");
    }

    #[test]
    fn apply_insert_and_delete_roundtrip() {
        let mut s = store();
        let ups = resolve_script(
            &s,
            r#"for $b in document("bib.xml")/bib/book[1]
               update $b insert <book year="1990"><title>Old</title></book> before $b"#,
        );
        let new_root = apply_to_store(&mut s, &ups[0]).unwrap();
        let books = s.children_named(&s.doc_root("bib.xml").unwrap(), "book");
        assert_eq!(books.len(), 3);
        assert_eq!(books[0], new_root, "inserted before the first book");
        let dels = resolve_script(
            &s,
            r#"for $b in document("bib.xml")/bib/book where $b/@year = "1990" update $b delete $b"#,
        );
        apply_to_store(&mut s, &dels[0]).unwrap();
        assert_eq!(s.children_named(&s.doc_root("bib.xml").unwrap(), "book").len(), 2);
    }

    #[test]
    fn where_clause_filters_multiple_targets() {
        let s = store();
        let ups =
            resolve_script(&s, r#"for $b in document("bib.xml")/bib/book update $b delete $b"#);
        assert_eq!(ups.len(), 2, "no where ⇒ all books bound");
        let filtered = resolve_script(
            &s,
            r#"for $b in document("bib.xml")/bib/book where $b/@year = "1492" update $b delete $b"#,
        );
        assert!(filtered.is_empty());
    }

    #[test]
    fn numeric_where_comparison() {
        let s = store();
        let ups = resolve_script(
            &s,
            r#"for $b in document("bib.xml")/bib/book where $b/@year > 1995 update $b delete $b"#,
        );
        assert_eq!(ups.len(), 1);
        let ResolvedUpdate::Delete { frag, .. } = &ups[0] else { panic!() };
        assert_eq!(frag.data.attr("year"), Some("2000"));
    }

    /// Target binding by navigation alone — what resolution did before the
    /// index, and the oracle for it now.
    fn scan_bindings(s: &Store, op: &UpdateOp) -> Vec<FlexKey> {
        let mut bound = eval_steps(s, &s.doc_handle(op.doc()).unwrap(), op.path()).unwrap();
        if let Some(w) = op.filter_expr() {
            bound.retain(|k| eval_where(s, k, op.var(), w));
        }
        bound
    }

    /// `op` binds the same targets through the index as by navigation;
    /// `indexed` says which of the two must have answered. Returns them.
    fn assert_binds_alike(s: &Store, op: &UpdateOp, indexed: bool) -> Vec<FlexKey> {
        let scan = scan_bindings(s, op);
        let handle = s.doc_handle(op.doc()).unwrap();
        let looked_up =
            indexed_bindings(s, op.doc(), &handle, op.var(), op.path(), op.filter_expr());
        assert_eq!(looked_up.is_some(), indexed, "who answers {op:?}");
        if let Some(mut bound) = looked_up {
            if let Some(w) = op.filter_expr() {
                bound.retain(|k| eval_where(s, k, op.var(), w));
            }
            assert_eq!(bound, scan, "{op:?}");
        }
        assert_eq!(resolve_op(s, op).unwrap().len(), scan.len(), "{op:?}");
        scan
    }

    #[test]
    fn indexed_and_scan_resolution_agree() {
        let mut s = store();
        s.load_doc(
            "prices.xml",
            r#"<prices>
                <entry><price>70</price><b-title>Data on the Web</b-title></entry>
                <entry><price>70.0</price><b-title>TCP/IP Illustrated</b-title></entry>
                <entry><price> 70.00 </price><b-title>Unlisted</b-title></entry>
                <entry><price>7e1x</price><b-title>Unlisted</b-title></entry>
            </prices>"#,
        )
        .unwrap();
        s.load_doc(
            "lib.xml",
            r#"<lib><item><name>plain</name></item>
                    <item><name>pla<b>in</b></name></item></lib>"#,
        )
        .unwrap();
        let books = s.children_named(&s.doc_root("bib.xml").unwrap(), "book");
        let entries = s.children_named(&s.doc_root("prices.xml").unwrap(), "entry");

        // The benchmark's three shapes: positional insert (navigated, one
        // hop per sibling), delete and modify filtered on a title.
        let frag = "<book year=\"1999\"><title>New</title></book>";
        let insert = UpdateOp::insert("bib.xml", "/bib/book[2]", InsertPosition::After, frag);
        assert_eq!(assert_binds_alike(&s, &insert.unwrap(), false), books[1..]);
        let delete = UpdateOp::delete("bib.xml", "/bib/book")
            .and_then(|op| op.filter("title", CmpOp::Eq, "Data on the Web"));
        assert_eq!(assert_binds_alike(&s, &delete.unwrap(), true), books[1..]);
        let modify = UpdateOp::replace_text("prices.xml", "/prices/entry", "price", "9.99")
            .and_then(|op| op.filter("b-title", CmpOp::Eq, "Unlisted"));
        assert_eq!(assert_binds_alike(&s, &modify.unwrap(), true), entries[2..]);

        // Values are equal as numbers when both sides are numbers.
        let by_price = |v: &str| {
            UpdateOp::delete("prices.xml", "/prices/entry")?.filter("price", CmpOp::Eq, v)
        };
        assert_eq!(assert_binds_alike(&s, &by_price("70.0").unwrap(), true), entries[..3]);
        assert_eq!(assert_binds_alike(&s, &by_price("7e1x").unwrap(), true), entries[3..]);

        // Attributes, step predicates, conjunctions: one equality is looked
        // up, the whole condition still decides.
        let by_year = UpdateOp::delete("bib.xml", "/bib/book")
            .and_then(|op| op.filter("@year", CmpOp::Eq, "1994.0"))
            .and_then(|op| op.filter("title", CmpOp::Ne, "Data on the Web"));
        assert_eq!(assert_binds_alike(&s, &by_year.unwrap(), true), books[..1]);
        let in_step = UpdateOp::delete("bib.xml", r#"/bib/book[title = "Data on the Web"]"#);
        assert_eq!(assert_binds_alike(&s, &in_step.unwrap(), true), books[1..]);

        // Exact empty answers: a value nobody has, a path nobody has.
        let nobody = UpdateOp::delete("bib.xml", "/bib/book")
            .and_then(|op| op.filter("title", CmpOp::Eq, "No Such Book"));
        assert!(assert_binds_alike(&s, &nobody.unwrap(), true).is_empty());
        let nowhere = UpdateOp::delete("bib.xml", "/bib/magazine")
            .and_then(|op| op.filter("title", CmpOp::Eq, "Data on the Web"));
        assert!(assert_binds_alike(&s, &nowhere.unwrap(), true).is_empty());

        // What the index declines, navigation answers: mixed content at the
        // path (both names read "plain"), orderings, NaN, the descendant axis.
        let mixed = UpdateOp::delete("lib.xml", "/lib/item")
            .and_then(|op| op.filter("name", CmpOp::Eq, "plain"));
        assert_eq!(assert_binds_alike(&s, &mixed.unwrap(), false).len(), 2);
        let newer = UpdateOp::delete("bib.xml", "/bib/book")
            .and_then(|op| op.filter("@year", CmpOp::Gt, "1995"));
        assert_eq!(assert_binds_alike(&s, &newer.unwrap(), false), books[1..]);
        assert_eq!(assert_binds_alike(&s, &by_price("NaN").unwrap(), false), entries[..3]);
        let anywhere = UpdateOp::delete("bib.xml", "//book")
            .and_then(|op| op.filter("title", CmpOp::Eq, "Data on the Web"));
        assert_eq!(assert_binds_alike(&s, &anywhere.unwrap(), false), books[1..]);
    }

    /// The one value rule, [`xmlstore::compare`], through all three of its
    /// call sites: XAT's value comparison, a filtered update's target
    /// binding, and the path index (which declines whenever a NaN is in
    /// play, since NaN equals every number).
    #[test]
    fn value_rule_agrees_at_every_call_site() {
        use std::cmp::Ordering;
        use xat::value::Atomic;
        let values = ["70", "70.0", " 70.00 ", "7e1x", "NaN", "-0", "0", "", "abc", "1e2", "100"];
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let verdict = |ord: Ordering, op| match op {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        };
        let nan = |v: &str| xmlstore::number(v).is_some_and(f64::is_nan);
        for a in values {
            let mut s = Store::new();
            s.load_doc("v.xml", &format!("<r><e><v>{a}</v></e></r>")).unwrap();
            for b in values {
                let ord = xmlstore::compare(a, b);
                assert_eq!(Atomic::new(a).val_cmp(&Atomic::new(b)), ord, "{a:?} vs {b:?}");
                for op in ops {
                    let filtered = UpdateOp::delete("v.xml", "/r/e").unwrap().filter("v", op, b);
                    let batch = UpdateBatch::new().with(filtered.unwrap());
                    let bound = resolve_batch(&s, &batch).unwrap().len();
                    assert_eq!(bound, usize::from(verdict(ord, op)), "{a:?} {op:?} {b:?}");
                }
                let looked_up = s.nodes_by_value("v.xml", &["r", "e", "v"], b).map(|k| k.len());
                let want = (!nan(a) && !nan(b)).then_some(usize::from(ord.is_eq()));
                assert_eq!(looked_up, want, "index: {a:?} = {b:?}");
            }
        }
    }

    /// `[0]` cannot be parsed or decoded; a hand-built statement carrying
    /// it gets an error, not a `skip(n - 1)` underflow.
    #[test]
    fn position_zero_is_an_error() {
        let mut path = xquery_lang::parse_path("/bib/book[1]").unwrap();
        path[1].predicate = Some(StepPredicate::Position(0));
        let s = store();
        let err = eval_steps(&s, &s.doc_handle("bib.xml").unwrap(), &path).unwrap_err();
        assert!(err.0.contains("1-based"), "{err}");
    }

    #[test]
    fn update_size_counts_payload_nodes() {
        let s = store();
        let ups = resolve_script(
            &s,
            r#"for $b in document("bib.xml")/bib/book[1]
               update $b insert <x><y/><z>t</z></x> into $b"#,
        );
        assert_eq!(ups[0].size(), 4, "x, y, z, text");
    }
}

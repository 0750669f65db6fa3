//! The Validate phase (Ch. 5): Source Access Pattern Trees, relevancy and
//! modify-sensitivity checks, and update batching.
//!
//! The SAPT (Fig 5.2) records, per source document, every absolute path the
//! view navigates, split into **binding anchors** (paths bound to `for`
//! variables — the fragments the view processes as units) and whether a
//! path is **sensitive** (used in predicates, grouping, or ordering — an
//! update touching it can change tuple membership or order, not just
//! exposed content).

use crate::update::ResolvedUpdate;
use flexkey::FlexKey;
use std::collections::BTreeMap;
use xat::plan::{GroupFunc, OpKind, Operand, Plan};
use xmlstore::{NodeData, Store};
use xquery_lang::{Axis, NodeTest, Step};

/// One access path: absolute location steps on a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessPath {
    pub steps: Vec<Step>,
    /// Bound to a `for` variable (a processing anchor).
    pub binding: bool,
    /// Used by a predicate / group / order expression.
    pub sensitive: bool,
}

/// The Source Access Pattern Tree of a view, per document (kept as a path
/// set; the tree structure is implicit in shared prefixes, §5.3).
#[derive(Clone, Debug, Default)]
pub struct Sapt {
    pub per_doc: BTreeMap<String, Vec<AccessPath>>,
}

/// Relevancy verdict for one update (§5.2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relevancy {
    /// The update cannot affect the view: apply to the source only.
    Irrelevant,
    /// The update may affect the view and must be propagated.
    Relevant,
    /// A modify that only touches exposed content (no predicate / group /
    /// order path): eligible for the in-place fast path.
    RelevantContentOnly,
}

impl Sapt {
    /// Build the SAPT from an annotated view plan by tracking each column's
    /// absolute paths from its document root.
    pub fn from_plan(plan: &Plan) -> Sapt {
        let mut sapt = Sapt::default();
        let mut col_paths: BTreeMap<String, (String, Vec<Step>)> = BTreeMap::new();
        walk(plan, &mut sapt, &mut col_paths);
        sapt
    }

    fn add(&mut self, doc: &str, steps: Vec<Step>, binding: bool, sensitive: bool) {
        let paths = self.per_doc.entry(doc.to_string()).or_default();
        if let Some(existing) = paths.iter_mut().find(|p| p.steps == steps) {
            existing.binding |= binding;
            existing.sensitive |= sensitive;
        } else {
            paths.push(AccessPath { steps, binding, sensitive });
        }
    }

    /// Classify an update (§5.2.1): relevant iff its absolute name-path
    /// intersects some access path — as a prefix (the update subsumes
    /// accessed data), an extension (the update falls inside a processed
    /// fragment), or an exact match. Name tests are matched conservatively;
    /// any descendant-axis access keeps the whole document relevant.
    pub fn classify(&self, store: &Store, u: &ResolvedUpdate) -> Relevancy {
        let Some(paths) = self.per_doc.get(u.doc()) else {
            return Relevancy::Irrelevant;
        };
        // Absolute element-name path of the update point, plus the names
        // reachable inside the payload (for inserts the fragment's own root
        // name matters: inserting <journal> under /bib is irrelevant to a
        // /bib/book view).
        let (anchor_names, payload_roots) = update_names(store, u);
        let mut relevant = false;
        let mut sensitive_hit = false;
        for p in paths {
            if p.steps.iter().any(|s| s.axis == Axis::Descendant) {
                // Conservative: descendant access may reach anything.
                relevant = true;
                sensitive_hit |= p.sensitive;
                continue;
            }
            if path_intersects(&anchor_names, &payload_roots, u.kind(), &p.steps) {
                relevant = true;
                sensitive_hit |= p.sensitive;
            }
        }
        match (relevant, u.kind(), sensitive_hit) {
            (false, _, _) => Relevancy::Irrelevant,
            (true, xquery_lang::OpKind::Modify, false) => Relevancy::RelevantContentOnly,
            (true, _, _) => Relevancy::Relevant,
        }
    }

    /// The deepest binding anchor containing the update target: the
    /// ancestor the view binds as a processing unit. Used to widen modify
    /// updates into delete+insert of the bound fragment.
    pub fn binding_anchor(&self, store: &Store, doc: &str, target: &FlexKey) -> Option<FlexKey> {
        let paths = self.per_doc.get(doc)?;
        let names = ancestor_names(store, target);
        let mut best: Option<usize> = None; // depth in `names`
        for p in paths.iter().filter(|p| p.binding) {
            if p.steps.iter().any(|s| s.axis == Axis::Descendant) {
                // For descendant bindings, match the last name test against
                // any ancestor.
                if let Some(NodeTest::Name(n)) = p.steps.last().map(|s| &s.test) {
                    for (d, name) in names.iter().enumerate() {
                        if name == n {
                            best = Some(best.map_or(d, |b| b.max(d)));
                        }
                    }
                }
                continue;
            }
            let d = p.steps.len();
            if d <= names.len() && steps_match_names(&p.steps, &names[..d]) {
                best = Some(best.map_or(d - 1, |b| b.max(d - 1)));
            }
        }
        let depth = best?;
        // names[i] is the element at key depth (i + 2): the document handle
        // and root element occupy the first two key segments.
        let key_depth = depth + 2;
        if key_depth > target.depth() {
            return None;
        }
        Some(FlexKey::from_segs(target.segs()[..key_depth].to_vec()))
    }
}

/// Names of the element ancestors (root element first) of `key`, including
/// `key` itself when it is an element.
fn ancestor_names(store: &Store, key: &FlexKey) -> Vec<String> {
    let mut chain = Vec::new();
    let mut k = key.clone();
    loop {
        if let Some(node) = store.node(&k) {
            if let NodeData::Element { name, .. } = &node.data {
                if name != "#document" {
                    chain.push(name.clone());
                }
            }
        }
        match k.parent() {
            Some(p) if !p.is_empty() => k = p,
            _ => break,
        }
    }
    chain.reverse();
    chain
}

/// (absolute names of the update anchor, root names introduced by payload)
fn update_names(store: &Store, u: &ResolvedUpdate) -> (Vec<String>, Vec<String>) {
    match u {
        ResolvedUpdate::Insert { parent, frag, .. } => {
            let names = ancestor_names(store, parent);
            let roots = frag.data.name().map(str::to_string).into_iter().collect();
            (names, roots)
        }
        ResolvedUpdate::Delete { target, frag, .. } => {
            let mut names = ancestor_names(store, target);
            if names.is_empty() {
                if let Some(n) = frag.data.name() {
                    names.push(n.to_string());
                }
            }
            (names, Vec::new())
        }
        ResolvedUpdate::ReplaceText { target, .. } => (ancestor_names(store, target), Vec::new()),
    }
}

/// Does the update at `anchor_names` (with optional payload root names for
/// inserts) intersect an access path?
fn path_intersects(
    anchor: &[String],
    payload_roots: &[String],
    kind: xquery_lang::OpKind,
    steps: &[Step],
) -> bool {
    // Build the update's effective path: anchor names, plus the payload root
    // for inserts (the new node's own path).
    let mut full: Vec<Vec<String>> = Vec::new();
    match kind {
        xquery_lang::OpKind::Insert => {
            for r in payload_roots {
                let mut v = anchor.to_vec();
                v.push(r.clone());
                full.push(v);
            }
            if payload_roots.is_empty() {
                full.push(anchor.to_vec());
            }
        }
        _ => full.push(anchor.to_vec()),
    }
    full.iter().any(|names| {
        let n = names.len().min(steps.len());
        // The shorter of the two must match the other's prefix.
        steps_match_names(&steps[..n], &names[..n])
    })
}

fn steps_match_names(steps: &[Step], names: &[String]) -> bool {
    steps.iter().zip(names).all(|(s, n)| match &s.test {
        NodeTest::Name(t) => t == n,
        NodeTest::Wildcard => true,
        // A value test (attribute / text) never matches an *element* name at
        // the same position: `/bib/book/@year` does not intersect an update
        // under `/bib/book/title`. Value steps only matter when the update
        // path is exhausted (the update sits at or above the owning
        // element), which the min-length prefix comparison already covers.
        NodeTest::Attr(_) | NodeTest::Text => false,
    })
}

/// Collect access paths from the plan: navigation establishes column paths;
/// predicates / grouping / ordering mark sensitivity.
fn walk(plan: &Plan, sapt: &mut Sapt, col_paths: &mut BTreeMap<String, (String, Vec<Step>)>) {
    for c in &plan.children {
        walk(c, sapt, col_paths);
    }
    match &plan.op {
        OpKind::Source { doc, out }
        | OpKind::DeltaSource { doc, out }
        | OpKind::ExcludeSource { doc, out } => {
            col_paths.insert(out.clone(), (doc.clone(), Vec::new()));
        }
        OpKind::NavUnnest { col, steps, out } | OpKind::NavCollection { col, steps, out } => {
            if let Some((doc, base)) = col_paths.get(col).cloned() {
                let mut full = base;
                full.extend(steps.iter().cloned());
                let binding = matches!(plan.op, OpKind::NavUnnest { .. });
                sapt.add(&doc, full.clone(), binding, false);
                col_paths.insert(out.clone(), (doc, full));
            }
        }
        OpKind::Select { pred } | OpKind::Join { pred } | OpKind::LeftOuterJoin { pred } => {
            for (a, _, b) in &pred.conjuncts {
                for op in [a, b] {
                    mark_sensitive(op, sapt, col_paths);
                }
            }
        }
        OpKind::GroupBy { cols, func } => {
            for c in cols {
                mark_sensitive(&Operand::Col(c.clone()), sapt, col_paths);
            }
            if let GroupFunc::Agg { col, .. } = func {
                mark_sensitive(&Operand::Col(col.clone()), sapt, col_paths);
            }
        }
        OpKind::OrderBy { keys, .. } => {
            for (c, _) in keys {
                mark_sensitive(&Operand::Col(c.clone()), sapt, col_paths);
            }
        }
        OpKind::Distinct { col } => {
            mark_sensitive(&Operand::Col(col.clone()), sapt, col_paths);
        }
        OpKind::AggCol { col, .. } => {
            mark_sensitive(&Operand::Col(col.clone()), sapt, col_paths);
        }
        _ => {}
    }
}

fn mark_sensitive(
    op: &Operand,
    sapt: &mut Sapt,
    col_paths: &BTreeMap<String, (String, Vec<Step>)>,
) {
    let (col, extra) = match op {
        Operand::Col(c) => (c, &[][..]),
        Operand::Path { col, steps } => (col, steps.as_slice()),
        Operand::Const(_) => return,
    };
    if let Some((doc, base)) = col_paths.get(col) {
        let mut full = base.clone();
        full.extend(extra.iter().cloned());
        sapt.add(doc, full, false, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::resolve_batch;
    use xat::translate::translate_query;
    use xquery_lang::UpdateBatch;

    const BIB: &str = r#"<bib>
        <book year="1994"><title>TCP/IP Illustrated</title></book>
        <book year="2000"><title>Data on the Web</title></book>
    </bib>"#;

    const VIEW: &str = r#"<r>{
        for $b in doc("bib.xml")/bib/book
        where $b/@year = "1994"
        return <t>{$b/title}</t>
    }</r>"#;

    fn resolve_script(s: &Store, script: &str) -> Vec<ResolvedUpdate> {
        resolve_batch(s, &UpdateBatch::from_script(script).unwrap()).unwrap()
    }

    fn setup() -> (Store, Sapt) {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        s.load_doc("other.xml", "<o><x>1</x></o>").unwrap();
        let (plan, _) = translate_query(VIEW).unwrap();
        (s, Sapt::from_plan(&plan))
    }

    #[test]
    fn sapt_records_binding_and_sensitive_paths() {
        let (_, sapt) = setup();
        let paths = &sapt.per_doc["bib.xml"];
        // /bib/book is a binding anchor; /bib/book/@year is sensitive;
        // /bib/book/title is accessed (content).
        assert!(paths.iter().any(|p| p.binding && p.steps.len() == 2));
        assert!(paths
            .iter()
            .any(|p| p.sensitive && matches!(p.steps.last().unwrap().test, NodeTest::Attr(_))));
        assert!(!sapt.per_doc.contains_key("other.xml"));
    }

    #[test]
    fn update_to_unreferenced_document_is_irrelevant() {
        let (s, sapt) = setup();
        let ups =
            resolve_script(&s, r#"for $x in doc("other.xml")/o/x update $x replace $x with "2""#);
        assert_eq!(sapt.classify(&s, &ups[0]), Relevancy::Irrelevant);
    }

    #[test]
    fn diverging_sibling_insert_is_irrelevant() {
        // Inserting a <journal> under /bib does not touch a /bib/book view
        // (§5.2.1: relevance is more than predicates — path structure).
        let (s, sapt) = setup();
        let ups = resolve_script(
            &s,
            r#"for $r in doc("bib.xml")/bib update $r insert <journal><title>X</title></journal> into $r"#,
        );
        assert_eq!(sapt.classify(&s, &ups[0]), Relevancy::Irrelevant);
    }

    #[test]
    fn book_insert_and_delete_are_relevant() {
        let (s, sapt) = setup();
        let ins = resolve_script(
            &s,
            r#"for $r in doc("bib.xml")/bib update $r insert <book year="1999"/> into $r"#,
        );
        assert_eq!(sapt.classify(&s, &ins[0]), Relevancy::Relevant);
        let del = resolve_script(&s, r#"for $b in doc("bib.xml")/bib/book[1] update $b delete $b"#);
        assert_eq!(sapt.classify(&s, &del[0]), Relevancy::Relevant);
    }

    #[test]
    fn modify_of_exposed_content_is_content_only() {
        let (s, sapt) = setup();
        // title text is exposed but not used in any predicate.
        let ups = resolve_script(
            &s,
            r#"for $b in doc("bib.xml")/bib/book[1] update $b replace $b/title/text() with "New""#,
        );
        assert_eq!(sapt.classify(&s, &ups[0]), Relevancy::RelevantContentOnly);
    }

    #[test]
    fn binding_anchor_is_the_bound_fragment_root() {
        let (s, sapt) = setup();
        let bib = s.doc_root("bib.xml").unwrap();
        let books = s.children_named(&bib, "book");
        let title = s.children_named(&books[0], "title")[0].clone();
        let anchor = sapt.binding_anchor(&s, "bib.xml", &title).unwrap();
        assert_eq!(anchor, books[0]);
    }

    #[test]
    fn descendant_axis_views_are_conservatively_relevant() {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        let (plan, _) =
            translate_query(r#"<r>{ for $t in doc("bib.xml")//title return $t }</r>"#).unwrap();
        let sapt = Sapt::from_plan(&plan);
        let ups = resolve_script(
            &s,
            r#"for $r in doc("bib.xml")/bib update $r insert <anything/> into $r"#,
        );
        assert_eq!(sapt.classify(&s, &ups[0]), Relevancy::Relevant);
    }
}

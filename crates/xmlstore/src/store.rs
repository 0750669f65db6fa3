//! The storage manager: FlexKey-ordered documents with update support.
//!
//! Plays the role of MASS \[DR03\] in the paper's architecture (§3.3): nodes
//! are stored keyed by FlexKey, descendants come back in document order, and
//! all update primitives (insert fragment / delete subtree / replace text)
//! allocate keys without relabeling existing nodes.

use crate::frag::{Frag, NodeData};
use crate::pagemap::PageMap;
use crate::parse::{parse_document, ParseError};
use crate::pathindex::PathIndex;
use flexkey::{FlexKey, Seg};
use std::collections::BTreeMap;

/// A stored XML node: its data plus the count annotation of Chapter 6.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    pub data: NodeData,
    /// Number of derivations (§6.2): 1 for source nodes.
    pub count: i64,
}

/// One stored document: a name, a root key, the FlexKey-ordered node map,
/// and the path-value index derived from it.
///
/// Both are sequences of `Arc`-shared pages under an `Arc`-shared fence
/// index (the private `pagemap` module): cloning a `Doc` (and hence a whole
/// [`Store`]) shares all of it, so a frozen epoch ([`Store::frozen`]) costs
/// O(documents), not O(nodes). A mutation of a shared document copies the
/// two fence indexes (one pointer per page) and the few pages it touches
/// — O(page), not O(document) — and every untouched page stays shared;
/// value semantics are unchanged.
///
/// The index answers [`Store::nodes_by_value`]. It is derived state: the
/// wire format carries the nodes only and loading or decoding a document
/// rebuilds it.
#[derive(Clone, Debug, Default)]
pub struct Doc {
    pub name: String,
    pub root: FlexKey,
    nodes: PageMap<FlexKey, Node>,
    index: PathIndex,
}

/// Where to place an inserted fragment among its new siblings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InsertPos {
    /// Before all existing children of the parent.
    First,
    /// After all existing children of the parent.
    Last,
    /// Immediately before the sibling with this key.
    Before(FlexKey),
    /// Immediately after the sibling with this key (the paper's
    /// `insert … after $book` in Figure 1.3(a)).
    After(FlexKey),
}

/// The storage manager: a set of named documents with globally unique keys.
///
/// Each document's root gets a distinct top-level segment (bib.xml → `b`,
/// prices.xml → `e` in Figure 3.1), so every node key is unique across the
/// whole store (§3.4.4 "Order Among Multiple Documents").
///
/// Every document is held under a synthetic `#document` node (the XPath
/// document node): [`Store::doc_handle`] returns it, so an XPath like
/// `/bib/book` — whose first step names the root element — evaluates
/// uniformly as child navigation. [`Store::doc_root`] returns the root
/// *element*.
#[derive(Clone, Debug, Default)]
pub struct Store {
    docs: BTreeMap<String, Doc>,
    next_root: usize,
}

impl Store {
    pub fn new() -> Store {
        Store::default()
    }

    /// Parse `xml` and register it under `name`. Returns the root key.
    pub fn load_doc(&mut self, name: &str, xml: &str) -> Result<FlexKey, ParseError> {
        let frag = parse_document(xml)?;
        Ok(self.add_doc(name, frag))
    }

    /// Register a fragment tree as document `name`. Returns the root key.
    /// Keys are assigned depth-first using the canonical dense segment
    /// sequence, leaving gaps for future [`Seg::between`] insertions.
    pub fn add_doc(&mut self, name: &str, frag: Frag) -> FlexKey {
        // Skip 3 top-level segments per document so document handles are
        // spaced (b, f, … as in Figure 3.1) and fragments can be inserted
        // around them.
        let handle = FlexKey::root(Seg::nth(self.next_root * 3));
        self.next_root += 1;
        let elem_root = handle.nth_child(0);
        // Depth-first key assignment emits the nodes in document order:
        // the stream bulk-loads straight into pages.
        let mut nodes =
            vec![(handle.clone(), Node { data: NodeData::element("#document"), count: 1 })];
        key_frag(elem_root.clone(), &frag, &mut |k, n| nodes.push((k, n)));
        self.docs.insert(name.to_string(), Doc::from_parts(name.to_string(), handle, nodes));
        elem_root
    }

    /// The document registered under `name`.
    pub fn doc(&self, name: &str) -> Option<&Doc> {
        self.docs.get(name)
    }

    /// The synthetic document node of `name` (parent of the root element) —
    /// the entry point for XPath evaluation.
    pub fn doc_handle(&self, name: &str) -> Option<FlexKey> {
        self.docs.get(name).map(|d| d.root.clone())
    }

    /// Root *element* key of document `name`.
    pub fn doc_root(&self, name: &str) -> Option<FlexKey> {
        self.docs.get(name).map(|d| d.root.nth_child(0))
    }

    /// Name of the document containing `key`, if any.
    pub fn doc_containing(&self, key: &FlexKey) -> Option<&str> {
        self.doc_of(key).map(|d| d.name.as_str())
    }

    /// All registered document names.
    pub fn doc_names(&self) -> impl Iterator<Item = &str> {
        self.docs.keys().map(String::as_str)
    }

    fn doc_of(&self, key: &FlexKey) -> Option<&Doc> {
        self.docs.values().find(|d| d.root.is_self_or_ancestor_of(key))
    }

    fn doc_of_mut(&mut self, key: &FlexKey) -> Option<&mut Doc> {
        self.docs.values_mut().find(|d| d.root.is_self_or_ancestor_of(key))
    }

    /// The path-value index lookup: the nodes of document `doc` reached
    /// from its document node by the child-axis label path `path` whose
    /// value equals `value`, in document order. Labels are element names; a
    /// final `@name` addresses an attribute, and the answer is then the
    /// attribute's owner elements. An element's value is its string value;
    /// values are equal numerically when both parse as numbers (`"70"` =
    /// `"70.0"`) and textually otherwise.
    ///
    /// `Some` is exact — precisely the nodes that navigating `path` step by
    /// step and comparing each value would find. `None` means the index
    /// cannot say and the caller must navigate: the document is unknown,
    /// `path` is empty, `value` parses as NaN, or some node at `path` has
    /// element children (mixed or complex content) or a NaN value. A path
    /// no stored node has is an exact empty answer.
    pub fn nodes_by_value(&self, doc: &str, path: &[&str], value: &str) -> Option<Vec<FlexKey>> {
        self.docs.get(doc)?.index.lookup(path, value)
    }

    /// Look up a node by key.
    pub fn node(&self, key: &FlexKey) -> Option<&Node> {
        self.doc_of(key)?.nodes.get(key)
    }

    /// Children of `key` in document order (a range scan — no sorting).
    pub fn children(&self, key: &FlexKey) -> Vec<(FlexKey, &Node)> {
        match self.doc_of(key) {
            None => Vec::new(),
            Some(doc) => doc
                .nodes
                .range_after(key)
                .take_while(|(k, _)| key.is_ancestor_of(k))
                .filter(|(k, _)| key.is_parent_of(k))
                .map(|(k, n)| (k.clone(), n))
                .collect(),
        }
    }

    /// Children of `key` in document order, found by hopping: one probe
    /// past each child's subtree, so a walk costs O(children) probes
    /// however large the subtrees are, and a caller that stops early (a
    /// positional step) pays only for the children it saw. Yields what
    /// [`Store::children`] collects.
    pub fn child_iter<'a>(
        &'a self,
        key: &'a FlexKey,
    ) -> impl Iterator<Item = (&'a FlexKey, &'a Node)> + 'a {
        let nodes = self.doc_of(key).map(|doc| &doc.nodes);
        let mut next = nodes.and_then(|n| n.range_after(key).next());
        std::iter::from_fn(move || loop {
            let (k, node) = next.filter(|(k, _)| key.is_ancestor_of(k))?;
            if key.is_parent_of(k) {
                next = nodes?.first_after_subtree(k);
                return Some((k, node));
            }
            // Below a child that is not stored: skip that child's subtree.
            next = nodes?.first_after_subtree(&k.prefix(key.depth() + 1));
        })
    }

    /// All strict descendants of `key` in document order.
    pub fn descendants(&self, key: &FlexKey) -> Vec<(FlexKey, &Node)> {
        match self.doc_of(key) {
            None => Vec::new(),
            Some(doc) => doc
                .nodes
                .range_after(key)
                .take_while(|(k, _)| key.is_ancestor_of(k))
                .map(|(k, n)| (k.clone(), n))
                .collect(),
        }
    }

    /// Element children of `key` with tag `name`, in document order.
    pub fn children_named(&self, key: &FlexKey, name: &str) -> Vec<FlexKey> {
        self.children(key)
            .into_iter()
            .filter(|(_, n)| n.data.name() == Some(name))
            .map(|(k, _)| k)
            .collect()
    }

    /// Element descendants of `key` with tag `name`, in document order
    /// (the `//` axis).
    pub fn descendants_named(&self, key: &FlexKey, name: &str) -> Vec<FlexKey> {
        self.descendants(key)
            .into_iter()
            .filter(|(_, n)| n.data.name() == Some(name))
            .map(|(k, _)| k)
            .collect()
    }

    /// The concatenated text of the subtree rooted at `key` (string value).
    /// Allocation-free range walk — this sits on the hot path of predicate
    /// evaluation and update resolution.
    pub fn string_value(&self, key: &FlexKey) -> String {
        let Some(doc) = self.doc_of(key) else { return String::new() };
        let mut out = String::new();
        if let Some(Node { data: NodeData::Text { value }, .. }) = doc.nodes.get(key) {
            out.push_str(value);
        }
        for (k, n) in doc.nodes.range_after(key) {
            if !key.is_ancestor_of(k) {
                break;
            }
            if let NodeData::Text { value } = &n.data {
                out.push_str(value);
            }
        }
        out
    }

    /// Attribute value of the element at `key`.
    pub fn attr(&self, key: &FlexKey, name: &str) -> Option<String> {
        self.node(key)?.data.attr(name).map(str::to_string)
    }

    /// Copy the subtree rooted at `key` out as a keyless fragment
    /// (used to annotate delete updates with sufficient information, Ch. 5).
    pub fn extract_frag(&self, key: &FlexKey) -> Option<Frag> {
        let node = self.node(key)?;
        let mut frag = Frag { data: node.data.clone(), count: node.count, children: Vec::new() };
        for (ck, _) in self.children(key) {
            frag.children.push(self.extract_frag(&ck)?);
        }
        Some(frag)
    }

    /// Insert a fragment under `parent` at `pos`. Returns the key assigned to
    /// the fragment root. Only new keys are allocated — existing keys are
    /// untouched (the FlexKey no-relabeling property, §3.4.4).
    pub fn insert_fragment(
        &mut self,
        parent: &FlexKey,
        pos: InsertPos,
        frag: &Frag,
    ) -> Option<FlexKey> {
        // Determine the (lo, hi) sibling bounds for the new root key. The
        // Before/After anchors are resolved by *key value*, not existence:
        // FlexKeys are stable, so a position like "after book[2]" stays
        // well-defined even when a batch deleted that book first (the
        // Figure 1.3 batch does exactly this — insert after a book, then
        // delete it). Each neighbour is one probe of the node map.
        let doc = self.doc_of_mut(parent)?;
        let nodes = &doc.nodes;
        let (lo, hi): (Option<FlexKey>, Option<FlexKey>) = match &pos {
            InsertPos::First => (None, child_toward(parent, nodes.range_after(parent).next())),
            InsertPos::Last => (child_toward(parent, nodes.last_through_subtree(parent)), None),
            InsertPos::Before(k) => {
                if !parent.is_parent_of(k) {
                    return None;
                }
                (child_toward(parent, nodes.last_before(k)), Some(k.clone()))
            }
            InsertPos::After(k) => {
                if !parent.is_parent_of(k) {
                    return None;
                }
                (Some(k.clone()), child_toward(parent, nodes.first_after_subtree(k)))
            }
        };
        let root = FlexKey::sibling_between(parent, lo.as_ref(), hi.as_ref());
        let mark = doc.index.note_change(&doc.root, &doc.nodes, parent);
        key_frag(root.clone(), frag, &mut |k, n| doc.nodes.insert(k, n));
        if let Some(mark) = mark {
            doc.index.add_subtree(&mark, &doc.nodes, &root);
            doc.index.settle(&doc.nodes, mark);
        }
        Some(root)
    }

    /// The sibling preceding `key` in document order, if any. Resolved by
    /// key value with one backward probe: `key` itself need not exist.
    pub fn prev_sibling(&self, key: &FlexKey) -> Option<FlexKey> {
        let parent = key.parent()?;
        child_toward(&parent, self.doc_of(key)?.nodes.last_before(key))
    }

    /// Delete the subtree rooted at `key`. Returns the number of nodes
    /// removed (0 if the key does not exist).
    pub fn delete_subtree(&mut self, key: &FlexKey) -> usize {
        let Some(doc) = self.doc_of_mut(key) else { return 0 };
        let mark = match key.parent() {
            Some(parent) if doc.nodes.get(key).is_some() => {
                doc.index.note_change(&doc.root, &doc.nodes, &parent)
            }
            _ => None,
        };
        if let Some(mark) = &mark {
            doc.index.remove_subtree(mark, &doc.nodes, key);
        }
        let removed = doc.nodes.remove_subtree(key);
        match mark {
            Some(mark) => doc.index.settle(&doc.nodes, mark),
            // Not below a stored element (the document node itself went):
            // nothing incremental to say.
            None if removed > 0 => doc.index = PathIndex::build(&doc.root, &doc.nodes),
            None => {}
        }
        removed
    }

    /// Replace the text content of the node at `key`. If `key` is a text
    /// node, its value is replaced; if it is an element, its single text
    /// child is replaced (the `replace $e/price/text() with "70"` form of
    /// Figure 1.3(c)).
    pub fn replace_text(&mut self, key: &FlexKey, new_value: &str) -> bool {
        // Element case: find its text child first (immutable scan).
        let target = match self.node(key) {
            Some(Node { data: NodeData::Text { .. }, .. }) => Some(key.clone()),
            Some(Node { data: NodeData::Element { .. }, .. }) => self
                .children(key)
                .into_iter()
                .find(|(_, n)| matches!(n.data, NodeData::Text { .. }))
                .map(|(k, _)| k),
            None => None,
        };
        let Some(target) = target else { return false };
        let Some(doc) = self.doc_of_mut(&target) else { return false };
        let mark = target.parent().and_then(|p| doc.index.note_change(&doc.root, &doc.nodes, &p));
        let Some(node) = doc.nodes.get_mut(&target) else { return false };
        node.data = NodeData::text(new_value);
        if let Some(mark) = mark {
            doc.index.settle(&doc.nodes, mark);
        }
        true
    }

    /// Replace the value of attribute `name` on the element at `key`.
    pub fn replace_attr(&mut self, key: &FlexKey, name: &str, new_value: &str) -> bool {
        let Some(doc) = self.doc_of_mut(key) else { return false };
        // Probe through the shared map first: unsharing a page is only
        // worth paying when there is an element to mutate.
        let Some(Node { data: NodeData::Element { attrs, .. }, .. }) = doc.nodes.get(key) else {
            return false;
        };
        let old = attrs.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str());
        doc.index.set_attr(&doc.root, &doc.nodes, key, name, old, new_value);
        let Some(Node { data: NodeData::Element { attrs, .. }, .. }) = doc.nodes.get_mut(key)
        else {
            return false;
        };
        match attrs.iter_mut().find(|(k, _)| k == name) {
            Some((_, v)) => *v = new_value.to_string(),
            None => attrs.push((name.to_string(), new_value.to_string())),
        }
        true
    }

    /// Serialize the document registered under `name` back to XML text.
    pub fn serialize_doc(&self, name: &str) -> Option<String> {
        let root = self.doc_root(name)?;
        self.extract_frag(&root).map(|f| f.to_xml())
    }

    /// Total node count across all documents.
    pub fn total_nodes(&self) -> usize {
        self.docs.values().map(|d| d.nodes.len()).sum()
    }

    /// A frozen epoch of the store: an independent `Store` value capturing
    /// the current state in O(documents) time, because every node map is
    /// shared page by page rather than copied. Mutating either side
    /// afterwards copies only the touched pages and their document's fence
    /// index (copy-on-write at page granularity), and dropping either side
    /// frees only the pages it alone owns — so a snapshot writer or an
    /// epoch reader can hold the frozen state on another thread while
    /// ingestion keeps committing at a cost independent of document size.
    /// Semantically identical to `clone()` (which is equally cheap); the
    /// name states the intent at checkpoint and publish call sites.
    pub fn frozen(&self) -> Store {
        self.clone()
    }

    /// Deep content equality: every document (name, root, node keys, node
    /// data **and** count annotations) and the root-segment allocation
    /// cursor must match. Used by snapshot round-trip tests and exposed
    /// for debugging — unlike XML serialization it also compares the key
    /// assignment, so two stores that serialize identically but would
    /// allocate different keys for the next insert compare unequal.
    pub fn same_content(&self, other: &Store) -> bool {
        self.next_root == other.next_root
            && self.docs.len() == other.docs.len()
            && self.docs.iter().zip(other.docs.iter()).all(|((an, a), (bn, b))| {
                an == bn
                    && a.name == b.name
                    && a.root == b.root
                    && a.nodes.len() == b.nodes.len()
                    && a.nodes.iter().zip(b.nodes.iter()).all(|(x, y)| x == y)
            })
    }

    /// Reassemble a store from decoded parts (wire codec only).
    pub(crate) fn from_parts(docs: BTreeMap<String, Doc>, next_root: usize) -> Store {
        Store { docs, next_root }
    }

    /// The root-segment allocation cursor (wire codec only).
    pub(crate) fn next_root(&self) -> usize {
        self.next_root
    }

    /// The documents, in name order (wire codec only).
    pub(crate) fn docs(&self) -> &BTreeMap<String, Doc> {
        &self.docs
    }
}

impl Doc {
    /// Assemble a document from its node stream (document load and the
    /// wire codec), bulk-loading the pages. The stream need not be sorted:
    /// the last of equal keys wins, as if inserted one by one.
    pub(crate) fn from_parts(name: String, root: FlexKey, nodes: Vec<(FlexKey, Node)>) -> Doc {
        let nodes = PageMap::from_entries(nodes);
        let index = PathIndex::build(&root, &nodes);
        Doc { name, root, nodes, index }
    }

    /// Number of nodes in the document.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 0
    }

    /// Iterate all nodes in document order.
    pub fn iter(&self) -> impl Iterator<Item = (&FlexKey, &Node)> {
        self.nodes.iter()
    }

    /// Panic unless both maps' page invariants hold and the index is the
    /// one a fresh build over the nodes yields.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        self.nodes.check_invariants();
        self.index.check_invariants();
        let rebuilt = PathIndex::build(&self.root, &self.nodes);
        assert_eq!(self.index.spelled(), rebuilt.spelled(), "index out of step with the nodes");
    }
}

/// Key `frag` at `key` and hand its nodes to `sink` in document order.
/// Children take every second canonical segment (the paper's gap-leaving
/// assignment: b, d, f, …).
fn key_frag(key: FlexKey, frag: &Frag, sink: &mut impl FnMut(FlexKey, Node)) {
    sink(key.clone(), Node { data: frag.data.clone(), count: frag.count });
    for (i, c) in frag.children.iter().enumerate() {
        key_frag(key.nth_child(i * 2), c, sink);
    }
}

/// The child of `parent` that `entry`'s key is, or lies below: how a
/// neighbouring entry found by one probe names the neighbouring sibling.
fn child_toward(parent: &FlexKey, entry: Option<(&FlexKey, &Node)>) -> Option<FlexKey> {
    let (k, _) = entry?;
    parent.is_ancestor_of(k).then(|| k.prefix(parent.depth() + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIB: &str = r#"<bib>
        <book year="1994"><title>TCP/IP Illustrated</title>
            <author><last>Stevens</last><first>W.</first></author></book>
        <book year="2000"><title>Data on the Web</title>
            <author><last>Abiteboul</last><first>Serge</first></author></book>
    </bib>"#;

    const PRICES: &str = r#"<prices>
        <entry><price>39.95</price><b-title>Data on the Web</b-title></entry>
        <entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry>
        <entry><price>69.99</price><b-title>Advanced Programming in the Unix environment</b-title></entry>
    </prices>"#;

    fn two_docs() -> Store {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        s.load_doc("prices.xml", PRICES).unwrap();
        s
    }

    #[test]
    fn roots_are_distinct_across_documents() {
        let s = two_docs();
        let b = s.doc_root("bib.xml").unwrap();
        let e = s.doc_root("prices.xml").unwrap();
        assert_ne!(b, e);
        assert!(!b.is_ancestor_of(&e) && !e.is_ancestor_of(&b));
    }

    #[test]
    fn children_in_document_order() {
        let s = two_docs();
        let bib = s.doc_root("bib.xml").unwrap();
        let books = s.children_named(&bib, "book");
        assert_eq!(books.len(), 2);
        assert!(books[0] < books[1]);
        assert_eq!(s.attr(&books[0], "year"), Some("1994".into()));
        assert_eq!(s.attr(&books[1], "year"), Some("2000".into()));
    }

    #[test]
    fn descendants_named_finds_deep_nodes() {
        let s = two_docs();
        let bib = s.doc_root("bib.xml").unwrap();
        let lasts = s.descendants_named(&bib, "last");
        assert_eq!(lasts.len(), 2);
        assert_eq!(s.string_value(&lasts[0]), "Stevens");
        assert_eq!(s.string_value(&lasts[1]), "Abiteboul");
    }

    #[test]
    fn string_values() {
        let s = two_docs();
        let bib = s.doc_root("bib.xml").unwrap();
        let books = s.children_named(&bib, "book");
        let titles = s.children_named(&books[0], "title");
        assert_eq!(s.string_value(&titles[0]), "TCP/IP Illustrated");
    }

    #[test]
    fn insert_after_keeps_existing_keys_and_order() {
        // Figure 1.3(a): insert a new book after book[2].
        let mut s = two_docs();
        let bib = s.doc_root("bib.xml").unwrap();
        let before: Vec<FlexKey> = s.children_named(&bib, "book");
        let frag = Frag::elem("book")
            .attr("year", "1994")
            .child(Frag::elem("title").text_child("Advanced Programming in the Unix environment"));
        let new_key = s.insert_fragment(&bib, InsertPos::After(before[1].clone()), &frag).unwrap();
        let after: Vec<FlexKey> = s.children_named(&bib, "book");
        assert_eq!(after.len(), 3);
        assert_eq!(&after[0..2], &before[..], "existing keys unchanged");
        assert_eq!(after[2], new_key);
        assert!(before[1] < new_key);
    }

    #[test]
    fn insert_between_siblings() {
        let mut s = two_docs();
        let bib = s.doc_root("bib.xml").unwrap();
        let books = s.children_named(&bib, "book");
        let frag = Frag::elem("book").attr("year", "1997");
        let mid = s.insert_fragment(&bib, InsertPos::After(books[0].clone()), &frag).unwrap();
        assert!(books[0] < mid && mid < books[1]);
        let now = s.children_named(&bib, "book");
        assert_eq!(now, vec![books[0].clone(), mid, books[1].clone()]);
    }

    #[test]
    fn repeated_skewed_inserts_never_relabel() {
        let mut s = two_docs();
        let bib = s.doc_root("bib.xml").unwrap();
        let anchor = s.children_named(&bib, "book")[0].clone();
        let mut all = vec![anchor.clone()];
        for i in 0..50 {
            let frag = Frag::elem("book").attr("year", format!("{}", 1900 + i));
            let k = s.insert_fragment(&bib, InsertPos::After(anchor.clone()), &frag).unwrap();
            assert!(!all.contains(&k));
            all.push(k);
        }
        // Anchor and all previously assigned keys still resolve.
        for k in &all {
            assert!(s.node(k).is_some());
        }
        assert_eq!(s.children_named(&bib, "book").len(), 52);
    }

    #[test]
    fn delete_subtree_removes_descendants_only() {
        let mut s = two_docs();
        let bib = s.doc_root("bib.xml").unwrap();
        let books = s.children_named(&bib, "book");
        let removed = s.delete_subtree(&books[1]);
        assert_eq!(removed, 8, "book, title+text, author, last+text, first+text");
        assert_eq!(s.children_named(&bib, "book").len(), 1);
        assert!(s.node(&books[0]).is_some());
        assert_eq!(s.delete_subtree(&books[1]), 0, "already gone");
    }

    #[test]
    fn replace_text_on_element_and_text_node() {
        // Figure 1.3(c): replace price text with "70".
        let mut s = two_docs();
        let prices = s.doc_root("prices.xml").unwrap();
        let entries = s.children_named(&prices, "entry");
        let price = s.children_named(&entries[1], "price")[0].clone();
        assert!(s.replace_text(&price, "70"));
        assert_eq!(s.string_value(&price), "70");
    }

    #[test]
    fn extract_frag_roundtrip() {
        let s = two_docs();
        let bib = s.doc_root("bib.xml").unwrap();
        let frag = s.extract_frag(&bib).unwrap();
        assert_eq!(frag.children.len(), 2);
        assert!(frag.to_xml().contains("<title>Data on the Web</title>"));
    }

    #[test]
    fn serialize_doc_matches_content() {
        let s = two_docs();
        let xml = s.serialize_doc("prices.xml").unwrap();
        assert!(xml.starts_with("<prices>"));
        assert!(xml.contains("<price>65.95</price>"));
    }

    /// The frozen-epoch contract: a frozen clone shares node maps until a
    /// write, and mutations on the live store never leak into the frozen
    /// copy (nor vice versa) — value semantics with O(docs) capture cost.
    #[test]
    fn frozen_clone_shares_until_write_and_stays_isolated() {
        let mut live = two_docs();
        let frozen = live.frozen();
        assert!(live.same_content(&frozen));

        // Mutate the live side: insert into bib.xml, delete from prices.
        let bib = live.doc_root("bib.xml").unwrap();
        live.insert_fragment(&bib, InsertPos::Last, &Frag::elem("book").attr("year", "2025"))
            .unwrap();
        let prices = live.doc_root("prices.xml").unwrap();
        let entry = live.children_named(&prices, "entry")[0].clone();
        live.delete_subtree(&entry);
        assert!(!live.same_content(&frozen), "live diverged");

        // The frozen epoch still serves the pre-mutation state.
        let fb = frozen.doc_root("bib.xml").unwrap();
        assert_eq!(frozen.children_named(&fb, "book").len(), 2);
        let fp = frozen.doc_root("prices.xml").unwrap();
        assert_eq!(frozen.children_named(&fp, "entry").len(), 3);

        // And mutating the frozen copy does not leak back into the live
        // store either (CoW is symmetric).
        let mut frozen = frozen;
        frozen.replace_attr(&frozen.doc_root("bib.xml").unwrap().clone(), "tag", "x");
        assert!(live.attr(&live.doc_root("bib.xml").unwrap(), "tag").is_none());
    }

    #[test]
    fn replace_attr_updates_value() {
        let mut s = two_docs();
        let bib = s.doc_root("bib.xml").unwrap();
        let books = s.children_named(&bib, "book");
        assert!(s.replace_attr(&books[0], "year", "1995"));
        assert_eq!(s.attr(&books[0], "year"), Some("1995".into()));
    }

    fn book_frag() -> Frag {
        Frag::elem("book")
            .attr("year", "1999")
            .child(Frag::elem("title").text_child("Probe"))
            .child(
                Frag::elem("author")
                    .child(Frag::elem("last").text_child("L"))
                    .child(Frag::elem("first").text_child("F")),
            )
    }

    /// The O(page) copy-on-write contract at the `restart` scale: one book
    /// inserted after a freeze leaves all but a handful of the document's
    /// pages shared with the frozen copy.
    #[test]
    fn insert_after_frozen_unshares_a_few_pages() {
        let mut xml = String::from("<bib>");
        for i in 0..2400 {
            xml.push_str(&format!(
                "<book year=\"{}\"><title>T{i}</title>\
                 <author><last>L{i}</last><first>F{i}</first></author></book>",
                1990 + i % 20
            ));
        }
        xml.push_str("</bib>");
        let mut live = Store::new();
        let bib = live.load_doc("bib.xml", &xml).unwrap();
        let books = live.children_named(&bib, "book");
        let frozen = live.frozen();
        live.insert_fragment(&bib, InsertPos::After(books[1700].clone()), &book_frag()).unwrap();

        let (l, f) = (&live.docs["bib.xml"].nodes, &frozen.docs["bib.xml"].nodes);
        l.check_invariants();
        assert!(f.page_count() > 100, "a document of {} pages", f.page_count());
        assert!(l.pages_not_in(f) <= 3, "{} pages unshared", l.pages_not_in(f));
        assert!(f.pages_not_in(l) <= 2, "{} pages superseded", f.pages_not_in(l));
        // The book's six index entries (book, @year, title, author, last,
        // first) land in at most six places, each of which may split.
        let (l, f) = (live.docs["bib.xml"].index.pages(), frozen.docs["bib.xml"].index.pages());
        assert!(f.page_count() > 100, "an index of {} pages", f.page_count());
        assert!(l.pages_not_in(f) <= 12, "{} index pages unshared", l.pages_not_in(f));
        assert!(f.pages_not_in(l) <= 6, "{} index pages superseded", f.pages_not_in(l));
        live.docs["bib.xml"].check_invariants();
        assert_eq!(live.total_nodes(), frozen.total_nodes() + 8);
        assert_eq!(frozen.children_named(&bib, "book").len(), 2400);
        assert_eq!(live.children_named(&bib, "book").len(), 2401);
    }

    /// Tiny deterministic generator (no external deps in this crate).
    struct TestRng(u64);

    impl TestRng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((self.0 >> 33) as usize) % bound
        }

        fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.below(items.len())]
        }

        /// A fragment of random shape; now and then wide enough to split
        /// pages several times over.
        fn frag(&mut self, depth: usize) -> Frag {
            if depth == 0 || self.below(4) == 0 {
                return match self.below(8) {
                    0 => Frag::text(format!("{}", self.below(3))),
                    1 => Frag::text(format!("{}.0", self.below(3))),
                    _ => Frag::text(format!("t{}", self.below(1000))),
                };
            }
            // Ids that are equal as numbers, equal to nothing, or not numbers.
            let id = ["0", "70", "70.0", "-0", "NaN", "x"][self.below(6)];
            let mut f = Frag::elem(["a", "b", "c"][self.below(3)]).attr("id", id);
            if self.below(12) == 0 {
                for i in 0..40 + self.below(60) {
                    f = f.child(Frag::elem("wide").text_child(format!("w{i}")));
                }
            } else {
                for _ in 0..self.below(4) {
                    f = f.child(self.frag(depth - 1));
                }
            }
            f
        }
    }

    /// The plain-`BTreeMap` model the paged map must be indistinguishable
    /// from: the old `Doc` layout, with the old scan-everything algorithms.
    #[derive(Clone, Default)]
    struct Oracle(BTreeMap<FlexKey, Node>);

    impl Oracle {
        fn below<'a>(&'a self, key: &'a FlexKey) -> impl Iterator<Item = (&'a FlexKey, &'a Node)> {
            self.0
                .range((std::ops::Bound::Excluded(key.clone()), std::ops::Bound::Unbounded))
                .take_while(move |(k, _)| key.is_ancestor_of(k))
        }

        fn children(&self, key: &FlexKey) -> Vec<FlexKey> {
            self.below(key).filter(|(k, _)| key.is_parent_of(k)).map(|(k, _)| k.clone()).collect()
        }

        fn insert(&mut self, key: FlexKey, frag: &Frag) {
            self.0.insert(key.clone(), Node { data: frag.data.clone(), count: frag.count });
            for (i, c) in frag.children.iter().enumerate() {
                self.insert(key.nth_child(i * 2), c);
            }
        }

        fn delete(&mut self, key: &FlexKey) -> usize {
            if !self.0.contains_key(key) {
                return 0;
            }
            let gone: Vec<FlexKey> = std::iter::once(key.clone())
                .chain(self.below(key).map(|(k, _)| k.clone()))
                .collect();
            gone.iter().for_each(|k| drop(self.0.remove(k)));
            gone.len()
        }

        fn string_value(&self, key: &FlexKey) -> String {
            self.0
                .get(key)
                .into_iter()
                .chain(self.below(key).map(|(_, n)| n))
                .filter_map(|n| match &n.data {
                    NodeData::Text { value } => Some(value.as_str()),
                    NodeData::Element { .. } => None,
                })
                .collect()
        }

        /// The store this model describes, sharing nothing with any other.
        fn deep_copy(&self, like: &Store) -> Store {
            let docs = like
                .docs
                .values()
                .map(|d| {
                    let nodes = std::iter::once((&d.root, &self.0[&d.root]))
                        .chain(self.below(&d.root))
                        .map(|(k, n)| (k.clone(), n.clone()))
                        .collect();
                    (d.name.clone(), Doc::from_parts(d.name.clone(), d.root.clone(), nodes))
                })
                .collect();
            Store::from_parts(docs, like.next_root)
        }
    }

    /// What [`Store::nodes_by_value`] must answer for one label path, found
    /// by navigating: whether every node there has a comparable value, and
    /// the nodes per value (a spelling of it, and the keys in document order).
    #[derive(Default)]
    struct PathScan {
        inexact: bool,
        by_value: BTreeMap<String, (String, Vec<FlexKey>)>,
    }

    impl PathScan {
        fn add(&mut self, value: &str, key: &FlexKey) {
            let norm = match value.trim().parse::<f64>() {
                Ok(n) if n.is_nan() => return self.inexact = true,
                Ok(n) => format!("n{}", n + 0.0),
                Err(_) => format!("s{value}"),
            };
            let run = self.by_value.entry(norm).or_insert_with(|| (value.to_string(), Vec::new()));
            run.1.push(key.clone());
        }
    }

    /// The scan oracle of the path-value index: every label path of every
    /// document, walked child step by child step.
    type PathScans = BTreeMap<(String, Vec<String>), PathScan>;

    fn scan_paths(store: &Store) -> PathScans {
        fn walk(
            store: &Store,
            doc: &str,
            (at, node): (&FlexKey, &Node),
            path: &mut Vec<String>,
            out: &mut PathScans,
        ) {
            let NodeData::Element { name, attrs } = &node.data else { return };
            path.push(name.clone());
            let kids = store.children(at);
            let scan = out.entry((doc.to_string(), path.clone())).or_default();
            if kids.iter().any(|(_, kid)| kid.data.name().is_some()) {
                scan.inexact = true;
            } else {
                scan.add(&store.string_value(at), at);
            }
            for (attr, value) in attrs {
                path.push(format!("@{attr}"));
                out.entry((doc.to_string(), path.clone())).or_default().add(value, at);
                path.pop();
            }
            for (key, kid) in &kids {
                walk(store, doc, (key, kid), path, out);
            }
            path.pop();
        }
        let mut out = BTreeMap::new();
        for doc in store.docs.values() {
            for (key, node) in store.children(&doc.root) {
                walk(store, &doc.name, (&key, node), &mut Vec::new(), &mut out);
            }
        }
        out
    }

    /// Every (path, value) lookup on `store` gives what the scan found.
    fn assert_lookups_match(store: &Store, scans: &PathScans, what: &str) {
        for ((doc, path), scan) in scans {
            let path: Vec<&str> = path.iter().map(String::as_str).collect();
            let got = |value: &str| store.nodes_by_value(doc, &path, value);
            for (value, keys) in scan.by_value.values() {
                let want = (!scan.inexact).then(|| keys.clone());
                assert_eq!(got(value), want, "{what}: {doc} {path:?} = {value:?}");
            }
            let nobody = (!scan.inexact).then(Vec::new);
            assert_eq!(got("no such value"), nobody, "{what}: {doc} {path:?}, absent value");
            assert_eq!(got("NaN"), None, "{what}: NaN equals every number");
            let mut deeper = path.clone();
            deeper.push("no-such-label");
            assert_eq!(store.nodes_by_value(doc, &deeper, "x"), Some(Vec::new()), "unknown path");
        }
        assert_eq!(store.nodes_by_value("no-such.xml", &["a"], "x"), None, "unknown document");
    }

    /// Seeded model test: random updates against the oracle, with frozen
    /// copies taken (and dropped) along the way. After every operation the
    /// page invariants hold, the index is the one a fresh build yields,
    /// every read agrees with the oracle, every (path, value) lookup equals
    /// a scan — on the live store and on every frozen copy — and every
    /// frozen copy still equals the deep copy taken at its step.
    #[test]
    fn model_random_ops_match_btreemap_oracle() {
        for seed in [1, 2] {
            let mut rng = TestRng(seed);
            let mut store = two_docs();
            let mut oracle = Oracle::default();
            for doc in store.docs.values() {
                oracle.0.extend(doc.iter().map(|(k, n)| (k.clone(), n.clone())));
            }
            let handles: Vec<FlexKey> = store.docs.values().map(|d| d.root.clone()).collect();
            // (The copy, its deep copy, and what a scan of it found then.)
            let mut frozen: Vec<(Store, Store, PathScans)> = Vec::new();
            let mut deleted: Vec<FlexKey> = Vec::new();

            for step in 0..250 {
                let keys: Vec<FlexKey> = oracle.0.keys().cloned().collect();
                let key = rng.pick(&keys).clone();
                // Past a thousand-odd nodes (some twenty pages), deletes outnumber inserts.
                let op = if keys.len() > 1200 { 2 + rng.below(8) } else { rng.below(10) };
                match op {
                    0..=3 => {
                        let elems: Vec<&FlexKey> = keys
                            .iter()
                            .filter(|k| matches!(oracle.0[*k].data, NodeData::Element { .. }))
                            .collect();
                        let parent = (*rng.pick(&elems)).clone();
                        let siblings = oracle.children(&parent);
                        // Anchors resolve by key value: a deleted sibling
                        // is as good an anchor as a live one.
                        let gone: Vec<&FlexKey> =
                            deleted.iter().filter(|k| parent.is_parent_of(k)).collect();
                        let anchor = match (siblings.is_empty(), gone.is_empty()) {
                            (true, true) => None,
                            (false, true) => Some(rng.pick(&siblings).clone()),
                            (true, false) => Some((*rng.pick(&gone)).clone()),
                            (false, false) if rng.below(4) == 0 => Some((*rng.pick(&gone)).clone()),
                            (false, false) => Some(rng.pick(&siblings).clone()),
                        };
                        let pos = match (rng.below(4), anchor) {
                            (0, _) | (_, None) => InsertPos::First,
                            (1, _) => InsertPos::Last,
                            (2, Some(a)) => InsertPos::Before(a),
                            (_, Some(a)) => InsertPos::After(a),
                        };
                        let (lo, hi) = match &pos {
                            InsertPos::First => (None, siblings.first()),
                            InsertPos::Last => (siblings.last(), None),
                            InsertPos::Before(a) => (siblings.iter().rfind(|s| *s < a), Some(a)),
                            InsertPos::After(a) => (Some(a), siblings.iter().find(|s| *s > a)),
                        };
                        let want = FlexKey::sibling_between(&parent, lo, hi);
                        let frag = rng.frag(3);
                        let got = store.insert_fragment(&parent, pos.clone(), &frag);
                        assert_eq!(got.as_ref(), Some(&want), "seed {seed} step {step}: {pos:?}");
                        oracle.insert(want, &frag);
                    }
                    // (Never a document node or a root element.)
                    4..=5 if key.depth() > 2 => {
                        assert_eq!(store.delete_subtree(&key), oracle.delete(&key));
                        assert_eq!(store.delete_subtree(&key), 0, "already gone");
                        deleted.push(key.clone());
                    }
                    6 => {
                        let target = match &oracle.0[&key].data {
                            NodeData::Text { .. } => Some(key.clone()),
                            NodeData::Element { .. } => oracle
                                .children(&key)
                                .into_iter()
                                .find(|c| matches!(oracle.0[c].data, NodeData::Text { .. })),
                        };
                        assert_eq!(store.replace_text(&key, "new text"), target.is_some());
                        if let Some(t) = target {
                            oracle.0.get_mut(&t).unwrap().data = NodeData::text("new text");
                        }
                    }
                    7 => {
                        let value = format!("v{step}");
                        let model = oracle.0.get_mut(&key).unwrap();
                        let is_elem = matches!(model.data, NodeData::Element { .. });
                        assert_eq!(store.replace_attr(&key, "id", &value), is_elem);
                        if let NodeData::Element { attrs, .. } = &mut model.data {
                            match attrs.iter_mut().find(|(k, _)| k == "id") {
                                Some((_, v)) => *v = value,
                                None => attrs.push(("id".to_string(), value)),
                            }
                        }
                    }
                    8 => {
                        frozen.push((store.frozen(), oracle.deep_copy(&store), scan_paths(&store)));
                        if frozen.len() > 3 {
                            frozen.remove(rng.below(frozen.len()));
                        }
                    }
                    _ => {
                        // Reads on a key that is gone find nothing.
                        if let Some(k) = deleted.last() {
                            assert!(store.node(k).is_none() && store.children(k).is_empty());
                            assert_eq!(store.string_value(k), "");
                        }
                    }
                }

                for doc in store.docs.values() {
                    doc.check_invariants();
                }
                assert_eq!(store.total_nodes(), oracle.0.len(), "seed {seed} step {step}");
                let stored = store.docs.values().flat_map(|d| d.iter());
                assert!(stored.eq(oracle.0.iter()), "seed {seed} step {step}: iter");
                // (A document handle's parent is the empty key, in no document.)
                let parent = key.parent().filter(|p| !p.is_empty()).unwrap_or(key.clone());
                for k in [&key, &parent, rng.pick(&keys), rng.pick(&handles)] {
                    assert_eq!(store.node(k), oracle.0.get(k), "node {k}");
                    let kids: Vec<FlexKey> =
                        store.children(k).into_iter().map(|(c, _)| c).collect();
                    assert_eq!(kids, oracle.children(k), "children {k}");
                    assert!(store.child_iter(k).map(|(c, _)| c).eq(&kids), "child_iter {k}");
                    let below: Vec<(&FlexKey, &Node)> = oracle.below(k).collect();
                    let got = store.descendants(k);
                    assert!(got.iter().map(|(k, n)| (k, *n)).eq(below), "descendants {k}");
                    assert_eq!(store.string_value(k), oracle.string_value(k), "string_value {k}");
                    if k.depth() > 1 {
                        let before = oracle.children(&k.parent().unwrap());
                        let prev = before.iter().rfind(|s| *s < k);
                        assert_eq!(store.prev_sibling(k).as_ref(), prev, "prev_sibling {k}");
                    }
                }
                let at = format!("seed {seed} step {step}");
                assert_lookups_match(&store, &scan_paths(&store), &at);
                for (copy, deep, scans) in &frozen {
                    assert!(copy.same_content(deep), "{at}: a frozen copy moved");
                    assert_lookups_match(copy, scans, &format!("{at}, frozen"));
                }
            }
        }
    }
}

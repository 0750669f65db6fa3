//! The path-value index: "nodes at label path P whose value equals v".
//!
//! A derived secondary structure of one document, kept in the same
//! `Arc`-shared pages as the node map ([`crate::pagemap`]): entries keyed
//! `(interned root-to-node label path, normalised value, FlexKey)`, one
//!
//! * per **attribute** — path `…/elem/@name`, the attribute's value, the
//!   owner element's key;
//! * per **element** — its own path and key, valued by the concatenation
//!   of its text children when it has *simple content* (no element below
//!   it), and [`ValueKey::Opaque`] otherwise.
//!
//! Values are normalised the way every comparison in the system equates
//! them ([`crate::compare`]): numerically when the trimmed text parses as
//! a number (`"70"` and `"70.0"` share an entry run), textually otherwise.
//! A value that cannot be equated by key — an element whose string value
//! spans a subtree, or text that parses as NaN, which the engine's
//! comparison treats as equal to every number — is stored as `Opaque`,
//! and one opaque entry at a path makes every lookup on that path answer
//! "cannot say" so the caller scans. That is the exactness rule: a lookup
//! returns exactly the nodes a child-axis navigation plus value comparison
//! would, in document order, or `None`.
//!
//! The index is never written to the wire: [`PathIndex::build`] derives it
//! from a node stream, and the store's four mutators keep it current
//! through [`PathIndex::note_change`] and the two subtree passes.

use crate::frag::NodeData;
use crate::pagemap::{PageKey, PageMap};
use crate::store::Node;
use flexkey::FlexKey;
use std::cmp::Ordering;
use std::sync::Arc;

type Nodes = PageMap<FlexKey, Node>;

/// An interned root-to-node label path: an index into the [`PathTable`].
type PathId = u32;

/// The document node's (empty) path.
const DOC_PATH: PathId = 0;

/// The label paths seen so far, as a trie. Paths are only ever added (a
/// document has few distinct ones), so the table is shared whole and
/// copied on the rare write that meets a new path.
#[derive(Clone, Debug)]
struct PathTable {
    nodes: Vec<PathNode>,
}

#[derive(Clone, Debug)]
struct PathNode {
    label: String,
    attr: bool,
    kids: Vec<PathId>,
}

impl Default for PathTable {
    fn default() -> PathTable {
        PathTable { nodes: vec![PathNode { label: String::new(), attr: false, kids: Vec::new() }] }
    }
}

impl PathTable {
    /// Where the child of `parent` labelled `(attr, label)` is, or belongs,
    /// among its kids (kept sorted by label).
    fn child(&self, parent: PathId, label: &str, attr: bool) -> Result<PathId, usize> {
        let kids = &self.nodes[parent as usize].kids;
        kids.binary_search_by(|&kid| {
            let kid = &self.nodes[kid as usize];
            (kid.attr, kid.label.as_str()).cmp(&(attr, label))
        })
        .map(|at| kids[at])
    }
}

/// A value as comparisons equate it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ValueKey {
    /// Not equatable by key: see the module docs.
    Opaque,
    /// A number, by the bits of its value (`-0` stored as `0`).
    Num(u64),
    Str(String),
}

impl ValueKey {
    pub(crate) fn of(text: &str) -> ValueKey {
        ValueKey::number(text).unwrap_or_else(|| ValueKey::Str(text.to_string()))
    }

    fn of_string(text: String) -> ValueKey {
        ValueKey::number(&text).unwrap_or(ValueKey::Str(text))
    }

    fn number(text: &str) -> Option<ValueKey> {
        let n = crate::number(text)?;
        Some(if n.is_nan() { ValueKey::Opaque } else { ValueKey::Num((n + 0.0).to_bits()) })
    }
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct IndexKey {
    path: PathId,
    value: ValueKey,
    node: FlexKey,
}

impl PageKey for IndexKey {
    /// Units: the path, the value, then the node key's segments.
    fn cmp_past(have: &IndexKey, want: &IndexKey, agreed: usize) -> (Ordering, usize) {
        if agreed < 1 && have.path != want.path {
            return (have.path.cmp(&want.path), 0);
        }
        if agreed < 2 && have.value != want.value {
            return (have.value.cmp(&want.value), 1);
        }
        let (ord, segs) = FlexKey::cmp_past(&have.node, &want.node, agreed.saturating_sub(2));
        (ord, segs + 2)
    }

    fn below(_: &IndexKey, _: usize) -> bool {
        false
    }
}

/// The index value of the stored element `key`: the concatenation of the
/// text below it, or `Opaque` as soon as an element is.
fn element_value(nodes: &Nodes, key: &FlexKey) -> ValueKey {
    let mut text = String::new();
    for (k, n) in nodes.range_after(key) {
        if !key.is_ancestor_of(k) {
            break;
        }
        match &n.data {
            NodeData::Text { value } => text.push_str(value),
            NodeData::Element { .. } => return ValueKey::Opaque,
        }
    }
    ValueKey::of_string(text)
}

/// An element whose child list is about to change: its path and the value
/// it is indexed under now. (The document node has a path but no entry.)
pub(crate) struct Mark {
    path: PathId,
    key: FlexKey,
    before: Option<ValueKey>,
}

#[derive(Clone, Debug, Default)]
pub(crate) struct PathIndex {
    paths: Arc<PathTable>,
    entries: PageMap<IndexKey, ()>,
}

impl PathIndex {
    /// Index the document rooted at the document node `root`.
    pub(crate) fn build(root: &FlexKey, nodes: &Nodes) -> PathIndex {
        let mut index = PathIndex::default();
        let mut entries = index.subtree_entries(Some(DOC_PATH), nodes, root);
        // The pass emits each path's entries in node order, so ordering by
        // (path, value) alone — stably — is the whole key order, without
        // ever comparing two FlexKeys.
        entries.sort_by(|a, b| (a.path, &a.value).cmp(&(b.path, &b.value)));
        index.entries = PageMap::from_entries(entries.into_iter().map(|k| (k, ())).collect());
        index
    }

    /// Nodes at the child-axis label path `path` from the document node
    /// (element names; a final `@name` addresses an attribute and yields
    /// its owner) whose value equals `value`, in document order — or `None`
    /// when the index cannot answer exactly.
    pub(crate) fn lookup(&self, path: &[&str], value: &str) -> Option<Vec<FlexKey>> {
        let mut pid = DOC_PATH;
        for label in path {
            let (name, attr) = match label.strip_prefix('@') {
                Some(name) => (name, true),
                None => (*label, false),
            };
            match self.paths.child(pid, name, attr) {
                Ok(child) => pid = child,
                // No node was ever stored at this path.
                Err(_) => return Some(Vec::new()),
            }
        }
        let want = ValueKey::of(value);
        let opaque = pid == DOC_PATH
            || want == ValueKey::Opaque
            || self.run(pid, &ValueKey::Opaque).next().is_some();
        if opaque {
            return None;
        }
        Some(self.run(pid, &want).cloned().collect())
    }

    /// The node keys indexed under `(path, value)`, in document order.
    fn run<'a>(&'a self, path: PathId, value: &'a ValueKey) -> impl Iterator<Item = &'a FlexKey> {
        let from = IndexKey { path, value: value.clone(), node: FlexKey::empty() };
        self.entries
            .range_from(&from)
            .take_while(move |(k, _)| k.path == path && k.value == *value)
            .map(|(k, _)| &k.node)
    }

    fn intern(&mut self, parent: PathId, label: &str, attr: bool) -> PathId {
        match self.paths.child(parent, label, attr) {
            Ok(id) => id,
            Err(at) => {
                let table = Arc::make_mut(&mut self.paths);
                let id = table.nodes.len() as PathId;
                table.nodes.push(PathNode { label: label.to_string(), attr, kids: Vec::new() });
                table.nodes[parent as usize].kids.insert(at, id);
                id
            }
        }
    }

    /// The path of the stored element `key`: `None` unless elements are
    /// stored all the way up to the document node `root`.
    fn path_of(&mut self, root: &FlexKey, nodes: &Nodes, key: &FlexKey) -> Option<PathId> {
        if !root.is_self_or_ancestor_of(key) {
            return None;
        }
        let mut pid = DOC_PATH;
        for depth in root.depth() + 1..=key.depth() {
            pid = self.intern(pid, nodes.get(&key.prefix(depth))?.data.name()?, false);
        }
        Some(pid)
    }

    /// Call before the children of the stored element `key` change (a
    /// subtree inserted or deleted below it, a text child rewritten), then
    /// [`PathIndex::settle`] after.
    pub(crate) fn note_change(
        &mut self,
        root: &FlexKey,
        nodes: &Nodes,
        key: &FlexKey,
    ) -> Option<Mark> {
        let path = self.path_of(root, nodes, key)?;
        let before = (path != DOC_PATH).then(|| element_value(nodes, key));
        Some(Mark { path, key: key.clone(), before })
    }

    /// Re-index the marked element if its value moved.
    pub(crate) fn settle(&mut self, nodes: &Nodes, mark: Mark) {
        let Some(before) = mark.before else { return };
        let after = element_value(nodes, &mark.key);
        if after != before {
            let at = |value| IndexKey { path: mark.path, value, node: mark.key.clone() };
            self.entries.remove_subtree(&at(before));
            self.entries.insert(at(after), ());
        }
    }

    /// Index the subtree stored at `top`, a child of the marked element.
    pub(crate) fn add_subtree(&mut self, parent: &Mark, nodes: &Nodes, top: &FlexKey) {
        let path = self.child_path(parent, nodes, top);
        for key in self.subtree_entries(path, nodes, top) {
            self.entries.insert(key, ());
        }
    }

    /// Drop the entries of the subtree stored at `top`, a child of the
    /// marked element (call while the subtree is still stored).
    pub(crate) fn remove_subtree(&mut self, parent: &Mark, nodes: &Nodes, top: &FlexKey) {
        let path = self.child_path(parent, nodes, top);
        for key in self.subtree_entries(path, nodes, top) {
            self.entries.remove_subtree(&key);
        }
    }

    fn child_path(&mut self, parent: &Mark, nodes: &Nodes, child: &FlexKey) -> Option<PathId> {
        let name = nodes.get(child)?.data.name()?;
        Some(self.intern(parent.path, name, false))
    }

    /// Move the entry of attribute `name` on the stored element `key`.
    pub(crate) fn set_attr(
        &mut self,
        root: &FlexKey,
        nodes: &Nodes,
        key: &FlexKey,
        name: &str,
        old: Option<&str>,
        new: &str,
    ) {
        let Some(owner) = self.path_of(root, nodes, key) else { return };
        let path = self.intern(owner, name, true);
        let at = |value: &str| IndexKey { path, value: ValueKey::of(value), node: key.clone() };
        if let Some(old) = old {
            self.entries.remove_subtree(&at(old));
        }
        self.entries.insert(at(new), ());
    }

    /// The entries of the subtree stored at `top`, whose own path is
    /// `top_path` — what it means for a subtree to be indexed, shared by
    /// bulk load, insert and delete. One pass in document order over a
    /// stack of the open elements: text joins every open element's value,
    /// an element makes every open element opaque.
    fn subtree_entries(
        &mut self,
        top_path: Option<PathId>,
        nodes: &Nodes,
        top: &FlexKey,
    ) -> Vec<IndexKey> {
        struct Open<'a> {
            key: &'a FlexKey,
            path: Option<PathId>,
            /// `None` once an element was met below.
            text: Option<String>,
        }
        fn close(open: Open<'_>, out: &mut Vec<IndexKey>) {
            if let Some(path) = open.path.filter(|&p| p != DOC_PATH) {
                let value = open.text.map_or(ValueKey::Opaque, ValueKey::of_string);
                out.push(IndexKey { path, value, node: open.key.clone() });
            }
        }
        let mut out = Vec::new();
        let mut stack: Vec<Open<'_>> = Vec::new();
        let below = nodes.range_from(top).take_while(|(k, _)| top.is_self_or_ancestor_of(k));
        for (key, node) in below {
            while stack.last().is_some_and(|open| !open.key.is_ancestor_of(key)) {
                stack.pop().into_iter().for_each(|open| close(open, &mut out));
            }
            match &node.data {
                NodeData::Text { value } => {
                    for open in &mut stack {
                        if let Some(text) = &mut open.text {
                            text.push_str(value);
                        }
                    }
                }
                NodeData::Element { name, attrs } => {
                    // (An element whose parent is not stored has no path.)
                    let path = match stack.last() {
                        None if key == top => top_path,
                        Some(up) if up.key.is_parent_of(key) => {
                            up.path.map(|p| self.intern(p, name, false))
                        }
                        _ => None,
                    };
                    for open in &mut stack {
                        open.text = None;
                    }
                    for (attr, value) in attrs {
                        if let Some(path) = path {
                            let path = self.intern(path, attr, true);
                            out.push(IndexKey {
                                path,
                                value: ValueKey::of(value),
                                node: key.clone(),
                            });
                        }
                    }
                    stack.push(Open { key, path, text: Some(String::new()) });
                }
            }
        }
        while let Some(open) = stack.pop() {
            close(open, &mut out);
        }
        out
    }
}

#[cfg(test)]
impl PathIndex {
    pub(crate) fn check_invariants(&self) {
        self.entries.check_invariants();
    }

    /// Every entry with its path spelled out (`/bib/book/@year`), sorted:
    /// comparable across indexes that interned their paths in different
    /// orders.
    pub(crate) fn spelled(&self) -> Vec<(String, ValueKey, FlexKey)> {
        let mut spelled = vec![String::new(); self.paths.nodes.len()];
        // Kids are interned after their parents, so one forward pass spells all.
        for (id, node) in self.paths.nodes.iter().enumerate() {
            for &kid in &node.kids {
                let k = &self.paths.nodes[kid as usize];
                spelled[kid as usize] =
                    format!("{}/{}{}", spelled[id], if k.attr { "@" } else { "" }, k.label);
            }
        }
        let mut out: Vec<_> = self
            .entries
            .iter()
            .map(|(k, _)| (spelled[k.path as usize].clone(), k.value.clone(), k.node.clone()))
            .collect();
        out.sort();
        out
    }

    pub(crate) fn pages(&self) -> &PageMap<IndexKey, ()> {
        &self.entries
    }
}

//! Materialized view extents.
//!
//! A [`ViewExtent`] is the materialized XML result of a view: a tree of
//! [`VNode`]s, each carrying a semantic identifier (Ch. 4), a derivation
//! count (Ch. 6) and children kept **sorted by semantic-id order** — the
//! final (partial) sort the order solution defers to result-generation time
//! (§3.3.3).
//!
//! Building an extent from executor output *is* the identifier-based XML
//! fusion of §4.4: per-tuple result fragments are deep-unioned by semantic
//! id, counts summing. The same [`deep_union_siblings`] drives the Apply phase
//! (Ch. 8): delta trees produced by incremental maintenance plans carry
//! signed counts, nodes vanish when their count reaches zero, and a whole
//! fragment disappears by disconnecting its root (§8.3.2) — descendants are
//! never visited one by one.
//!
//! Extents are persistent trees: every child list holds `Arc<VNode>`, so an
//! epoch or checkpoint that captured the extent shares all of its nodes
//! with the live one. Apply copies (shallowly, via [`unshare`]) only the
//! nodes on the delta's path — the siblings it fuses into — moves inserted
//! fragments in as they are, and drops a deleted fragment's `Arc`. Its cost
//! follows the delta, not the view, even right after an epoch publish.

use crate::exec::{ExecError, Executor};
use crate::value::{Item, ItemRef};
use flexkey::semid::SemBody;
use flexkey::{FlexKey, OrdPrefix, SemId};
use std::sync::Arc;
use std::time::Instant;
use xmlstore::{Frag, NodeData, Store};

/// One node of a materialized view extent (or of a delta update tree —
/// both use this one representation).
///
/// `Clone` is **shallow**: it copies this node's id, data and count and
/// shares its children (`Arc` refcount bumps), which is what makes a
/// copy-on-write [`unshare`] cost one node.
#[derive(Clone, Debug, PartialEq)]
pub struct VNode {
    pub sem: SemId,
    pub data: NodeData,
    /// Derivation count (Ch. 6). Positive in materialized extents; delta
    /// trees use negative counts for deletions.
    pub count: i64,
    /// Children in result order (sorted by semantic-id sort key), shared
    /// copy-on-write between extent versions.
    pub children: Vec<Arc<VNode>>,
}

impl VNode {
    pub fn new(sem: SemId, data: NodeData) -> VNode {
        VNode { sem, data, count: 1, children: Vec::new() }
    }

    /// Total node count of the subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|c| c.size()).sum::<usize>()
    }

    /// Serialize this subtree to XML text.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out);
        out
    }

    fn write_xml(&self, out: &mut String) {
        match &self.data {
            NodeData::Text { value } => out.push_str(&xmlstore::frag::escape_text(value)),
            NodeData::Element { name, attrs } => {
                out.push('<');
                out.push_str(name);
                for (k, v) in attrs {
                    out.push(' ');
                    out.push_str(k);
                    out.push_str("=\"");
                    out.push_str(&xmlstore::frag::escape_attr(v));
                    out.push('"');
                }
                if self.children.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for c in &self.children {
                        c.write_xml(out);
                    }
                    out.push_str("</");
                    out.push_str(name);
                    out.push('>');
                }
            }
        }
    }

    /// Find a direct child by semantic-id identity (body).
    pub fn child_by_identity(&self, body: &SemBody) -> Option<&VNode> {
        self.children.iter().find(|c| c.sem.identity() == body).map(Arc::as_ref)
    }

    /// Find a descendant element by tag name (testing helper).
    pub fn find_element(&self, name: &str) -> Option<&VNode> {
        if self.data.name() == Some(name) {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find_element(name))
    }

    /// Concatenated text of the subtree.
    pub fn string_value(&self) -> String {
        match &self.data {
            NodeData::Text { value } => value.clone(),
            NodeData::Element { .. } => self.children.iter().map(|c| c.string_value()).collect(),
        }
    }
}

/// A materialized view extent: the (usually single-rooted) result forest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ViewExtent {
    pub roots: Vec<Arc<VNode>>,
}

impl ViewExtent {
    /// Serialize the extent to XML text (roots in order).
    pub fn to_xml(&self) -> String {
        self.roots.iter().map(|r| r.to_xml()).collect()
    }

    /// Total number of nodes.
    pub fn size(&self) -> usize {
        self.roots.iter().map(|r| r.size()).sum()
    }

    /// The single root, if the extent has exactly one.
    pub fn root(&self) -> Option<&VNode> {
        if self.roots.len() == 1 {
            self.roots.first().map(Arc::as_ref)
        } else {
            None
        }
    }
}

impl Executor<'_> {
    /// Materialize the items of the final table's column into a view extent.
    ///
    /// This performs the only sorting in the whole pipeline (§3.3.3): each
    /// collection is sorted by semantic-id order as it is de-referenced —
    /// typically a partial sort of small sibling lists — and base fragments
    /// come back from the storage manager already in document order.
    pub fn materialize(&mut self, items: &[Item]) -> Result<ViewExtent, ExecError> {
        let mut roots = Vec::new();
        let mut nodes = Vec::with_capacity(items.len());
        for it in items {
            nodes.push(Arc::new(self.materialize_item(it, 1, false)?));
        }
        let t0 = Instant::now();
        union_many(&mut roots, nodes, false);
        self.stats.final_sort += t0.elapsed();
        Ok(ViewExtent { roots })
    }

    /// Materialize a **delta update tree** (Ch. 7's propagation output):
    /// like [`Executor::materialize`], but negative-count nodes (deletions)
    /// are kept, and fusion sums signed counts. A node cancelling to count 0
    /// survives as a carrier when it still has child deltas to deliver.
    pub fn materialize_signed(&mut self, items: &[Item]) -> Result<ViewExtent, ExecError> {
        let mut roots = Vec::new();
        let mut nodes = Vec::with_capacity(items.len());
        for it in items {
            nodes.push(Arc::new(self.materialize_item(it, 1, true)?));
        }
        union_many(&mut roots, nodes, true);
        Ok(ViewExtent { roots })
    }

    /// Materialize one item. `inherited` is the parent node's effective
    /// derivation count: a node's count is `inherited × item.count` unless
    /// the item is *absolute* (Combine already multiplied in the tuple
    /// count, which may have changed again after the node was constructed —
    /// Table 6.1's product rule, applied at the right point).
    fn materialize_item(
        &mut self,
        item: &Item,
        inherited: i64,
        signed: bool,
    ) -> Result<VNode, ExecError> {
        let eff = if item.abs { item.count } else { inherited * item.count };
        match &item.r {
            ItemRef::Base(k) => {
                // Deep-copy honoring the item's navigation mode: a pre-state
                // derivation (`Exclude`) must not include nodes that only
                // exist in the post-state update fragments, and vice versa
                // the fragment-only copy stays within them.
                let excluded = self.excluded_under(k, item.delta);
                let mut n = base_vnode(self.store, k, eff, &excluded)
                    .ok_or_else(|| ExecError(format!("dangling base key {k}")))?;
                apply_item_ord(&mut n, item);
                Ok(n)
            }
            ItemRef::Val(v) => {
                let mut n = VNode {
                    sem: SemId::constructed(vec![flexkey::LngAtom::Val(v.0.clone())]),
                    data: NodeData::text(v.0.clone()),
                    count: eff,
                    children: Vec::new(),
                };
                apply_item_ord(&mut n, item);
                Ok(n)
            }
            ItemRef::Cons(id) => {
                let cons = self.cons_node(*id).clone();
                let mut node = VNode {
                    sem: cons.sem.clone(),
                    data: NodeData::Element { name: cons.name.clone(), attrs: cons.attrs.clone() },
                    count: eff,
                    children: Vec::new(),
                };
                let mut kids = Vec::with_capacity(cons.children.len());
                for child in &cons.children {
                    kids.push(Arc::new(self.materialize_item(child, eff, signed)?));
                }
                let t0 = Instant::now();
                union_many(&mut node.children, kids, signed);
                self.stats.final_sort += t0.elapsed();
                apply_item_ord(&mut node, item);
                Ok(node)
            }
        }
    }
}

/// Position a materialized node by the item's effective overriding order.
fn apply_item_ord(n: &mut VNode, item: &Item) {
    if let Some(ord) = &item.ord {
        n.sem.ord = OrdPrefix::Over(ord.clone());
    }
}

/// Deep-copy a base subtree from the store in document order (no sorting —
/// the storage manager returns children ordered, §3.3), skipping the
/// `excluded` subtrees (pre-state copies during delta materialization).
fn base_vnode(store: &Store, key: &FlexKey, count: i64, excluded: &[FlexKey]) -> Option<VNode> {
    let node = store.node(key)?;
    let mut out = VNode {
        sem: SemId::base(key.clone()),
        data: node.data.clone(),
        count: count * node.count,
        children: Vec::new(),
    };
    for (ck, _) in store.children(key) {
        if excluded.iter().any(|f| f.is_self_or_ancestor_of(&ck)) {
            continue;
        }
        out.children.push(Arc::new(base_vnode(store, &ck, count, excluded)?));
    }
    Some(out)
}

/// Convert a keyless fragment into extent nodes (used by delta application
/// tests and the quickstart oracle).
pub fn vnode_from_frag(frag: &Frag, key: &FlexKey) -> VNode {
    let mut out = VNode {
        sem: SemId::base(key.clone()),
        data: frag.data.clone(),
        count: frag.count,
        children: Vec::new(),
    };
    for (i, c) in frag.children.iter().enumerate() {
        out.children.push(Arc::new(vnode_from_frag(c, &key.nth_child(i))));
    }
    out
}

/// Make `node` uniquely owned before writing to it: a node an epoch, a
/// checkpoint or another handle still shares is copied (shallowly — its
/// children stay shared), and the copy is counted in `copies`.
pub fn unshare<'a>(node: &'a mut Arc<VNode>, copies: &mut u64) -> &'a mut VNode {
    if Arc::get_mut(node).is_none() {
        *copies += 1;
    }
    Arc::make_mut(node)
}

/// Insert `incoming` into a sorted sibling list, **fusing by semantic-id
/// identity** (§4.4): if a sibling with the same id body exists, counts sum
/// and children deep-union recursively; otherwise the node is inserted at
/// its order position (binary search on the semantic-id sort key).
///
/// This is the count-aware Deep Union (§6.6): after unioning, any node whose
/// count dropped to ≤ 0 is removed *as a whole fragment* — its root is
/// disconnected without visiting descendants (§8.3.2). Only the siblings a
/// delta fuses into are copied out of a shared extent; the return value is
/// the number of such copies.
pub fn deep_union_siblings(siblings: &mut Vec<Arc<VNode>>, incoming: Arc<VNode>) -> u64 {
    let mut copies = 0;
    union_one(siblings, incoming, false, &mut copies);
    copies
}

/// Union used *inside delta trees*: counts sum with their signs, negative
/// and zero-count nodes are preserved (a zero-count node is a carrier whose
/// children still deliver deltas), and nothing is removed — removal is the
/// Apply phase's job via [`deep_union_siblings`].
pub fn signed_union_siblings(siblings: &mut Vec<Arc<VNode>>, incoming: Arc<VNode>) {
    union_one(siblings, incoming, true, &mut 0);
}

fn union_one(siblings: &mut Vec<Arc<VNode>>, incoming: Arc<VNode>, signed: bool, copies: &mut u64) {
    if let Some(pos) = siblings.iter().position(|s| s.sem.identity() == incoming.sem.identity()) {
        let mut existing = siblings.remove(pos);
        if !signed && existing.count + incoming.count <= 0 {
            // Root disconnect: the entire fragment goes at once (§8.3.2).
            return;
        }
        fuse(&mut existing, incoming, signed, false, copies);
        let at = insertion_point(siblings, &existing.sem);
        siblings.insert(at, existing);
    } else if signed || incoming.count > 0 {
        let at = insertion_point(siblings, &incoming.sem);
        siblings.insert(at, incoming);
    }
    // A pure deletion (count ≤ 0) of a node that does not exist is a no-op:
    // the update was already reflected or is irrelevant.
}

/// Fold `incoming` into `existing`, the sibling of the same identity:
/// counts sum, children union recursively, and a non-negative derivation
/// refreshes data and order position — zero-count carriers refresh too: a
/// modify nets ±0 on the node while carrying its post-state content
/// (attributes, order). `existing` is copied only if this changes it.
/// `batched` unions the children as [`union_many`] does, else one by one.
fn fuse(
    existing: &mut Arc<VNode>,
    incoming: Arc<VNode>,
    signed: bool,
    batched: bool,
    copies: &mut u64,
) {
    let inc = Arc::unwrap_or_clone(incoming);
    if inc.count == 0
        && inc.children.is_empty()
        && inc.sem == existing.sem
        && inc.data == existing.data
    {
        return;
    }
    let node = unshare(existing, copies);
    node.count += inc.count;
    if inc.count >= 0 {
        node.sem = inc.sem;
        node.data = inc.data;
    }
    if batched {
        union_into(&mut node.children, inc.children, signed, copies);
    } else {
        for c in inc.children {
            union_one(&mut node.children, c, signed, copies);
        }
    }
}

fn insertion_point(siblings: &[Arc<VNode>], sem: &SemId) -> usize {
    siblings.partition_point(|s| s.sem < *sem)
}

/// Batched deep union: fuse a whole list of incoming nodes into a sibling
/// list. Equivalent to repeated [`deep_union_siblings`] /
/// [`signed_union_siblings`] calls when the incoming nodes have distinct
/// identities (which delta trees and materialization streams guarantee),
/// but uses a hash index over identities so large sibling lists fuse in
/// near-linear time instead of O(m·n). Returns the number of shared
/// extent nodes copied.
pub fn union_many(siblings: &mut Vec<Arc<VNode>>, incoming: Vec<Arc<VNode>>, signed: bool) -> u64 {
    let mut copies = 0;
    union_into(siblings, incoming, signed, &mut copies);
    copies
}

fn union_into(
    siblings: &mut Vec<Arc<VNode>>,
    incoming: Vec<Arc<VNode>>,
    signed: bool,
    copies: &mut u64,
) {
    if incoming.is_empty() {
        return;
    }
    if siblings.len() + incoming.len() < 48 {
        for n in incoming {
            union_one(siblings, n, signed, copies);
        }
        return;
    }
    let mut store = std::mem::take(siblings);
    let mut index: std::collections::HashMap<SemBody, usize> =
        store.iter().enumerate().map(|(i, n)| (n.sem.identity().clone(), i)).collect();
    let mut gone = Vec::new();
    for inc in incoming {
        match index.get(inc.sem.identity()) {
            Some(&i) if !signed && store[i].count + inc.count <= 0 => {
                // Root disconnect, as in `union_one`.
                index.remove(inc.sem.identity());
                gone.push(i);
            }
            Some(&i) => fuse(&mut store[i], inc, signed, true, copies),
            None => {
                if signed || inc.count > 0 {
                    index.insert(inc.sem.identity().clone(), store.len());
                    store.push(inc);
                }
            }
        }
    }
    // Order is restored by the sort below, so removal may swap.
    gone.sort_unstable();
    for i in gone.into_iter().rev() {
        store.swap_remove(i);
    }
    if signed {
        store.retain(|n| n.count != 0 || !n.children.is_empty());
    }
    store.sort_by(|a, b| a.sem.cmp(&b.sem));
    *siblings = store;
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexkey::{LngAtom, OrdAtom, OrdKey};

    fn elem(name: &str, sem: SemId) -> VNode {
        VNode::new(sem, NodeData::element(name))
    }

    fn cons_id(v: &str) -> SemId {
        SemId::constructed(vec![LngAtom::Val(v.into())])
    }

    fn with_ord(sem: SemId, v: &str) -> SemId {
        sem.with_ord(OrdKey::from_atom(OrdAtom::text(v)))
    }

    fn node(name: &str, sem: SemId, count: i64, kids: Vec<Arc<VNode>>) -> Arc<VNode> {
        let mut n = elem(name, sem);
        n.count = count;
        n.children = kids;
        Arc::new(n)
    }

    #[test]
    fn deep_union_inserts_in_order() {
        let mut sibs = Vec::new();
        for y in ["2000", "1994", "1997"] {
            deep_union_siblings(&mut sibs, node("g", with_ord(cons_id(y), y), 1, vec![]));
        }
        let ids: Vec<String> = sibs.iter().map(|s| s.sem.to_string()).collect();
        assert_eq!(ids.len(), 3);
        assert!(ids[0].contains("1994") && ids[1].contains("1997") && ids[2].contains("2000"));
    }

    #[test]
    fn deep_union_fuses_same_identity_and_sums_counts() {
        let mut sibs = Vec::new();
        let x1 = node("x", cons_id("x1"), 1, vec![]);
        deep_union_siblings(&mut sibs, node("g", cons_id("1994"), 1, vec![x1]));
        let x2 = node("x", cons_id("x2"), 1, vec![]);
        deep_union_siblings(&mut sibs, node("g", cons_id("1994"), 1, vec![x2]));
        assert_eq!(sibs.len(), 1, "same identity fused");
        assert_eq!(sibs[0].count, 2, "counts summed");
        assert_eq!(sibs[0].children.len(), 2, "children unioned");
    }

    #[test]
    fn deep_union_negative_count_deletes_whole_fragment() {
        let mut sibs = Vec::new();
        let deep = node("deep", cons_id("deep"), 1, vec![]);
        let big = node("big", cons_id("sub"), 1, vec![deep]);
        deep_union_siblings(&mut sibs, node("g", cons_id("2000"), 1, vec![big]));
        assert_eq!(sibs.len(), 1);
        // A delete delta only carries the root with count −1: the entire
        // fragment disconnects without touching descendants (§8.3.2).
        deep_union_siblings(&mut sibs, node("g", cons_id("2000"), -1, vec![]));
        assert!(sibs.is_empty());
    }

    #[test]
    fn deep_union_decrement_keeps_multiderived_node() {
        // A yGroup derived from two books survives deleting one (§1.2).
        let mut sibs = Vec::new();
        deep_union_siblings(&mut sibs, node("g", cons_id("1994"), 2, vec![]));
        deep_union_siblings(&mut sibs, node("g", cons_id("1994"), -1, vec![]));
        assert_eq!(sibs.len(), 1);
        assert_eq!(sibs[0].count, 1);
    }

    #[test]
    fn delete_of_absent_node_is_noop() {
        let mut sibs = vec![node("g", cons_id("1994"), 1, vec![])];
        deep_union_siblings(&mut sibs, node("g", cons_id("2000"), -1, vec![]));
        assert_eq!(sibs.len(), 1);
    }

    /// Apply on a shared extent copies the delta's path and nothing else:
    /// the old version is untouched, untouched subtrees stay shared, and a
    /// deleted fragment is dropped, not copied.
    #[test]
    fn apply_on_shared_extent_copies_only_the_delta_path() {
        let group = |y: &str, kids| node("g", with_ord(cons_id(y), y), 1, kids);
        let leaf = |v: &str| node("x", cons_id(v), 1, vec![]);
        let groups: Vec<_> = (0..60).map(|i| group(&format!("{i:03}"), vec![leaf("a")])).collect();
        let mut live = vec![node("r", cons_id("r"), 1, groups)];
        let old = live.clone();
        let old_xml = ViewExtent { roots: old.clone() }.to_xml();

        // Insert one leaf under group 007: root and group are copied.
        let delta = node("r", cons_id("r"), 0, vec![group("007", vec![leaf("b")])]);
        assert_eq!(union_many(&mut live, vec![delta], false), 2);
        let (new_kids, old_kids) = (&live[0].children, &old[0].children);
        assert_eq!(new_kids[7].children.len(), 2);
        for i in (0..60).filter(|&i| i != 7) {
            assert!(Arc::ptr_eq(&new_kids[i], &old_kids[i]), "group {i} still shared");
        }
        assert!(Arc::ptr_eq(&new_kids[7].children[0], &old_kids[7].children[0]));

        // Delete group 030: the root is already private, nothing is copied.
        let gone = node("g", with_ord(cons_id("030"), "030"), -1, vec![]);
        assert_eq!(union_many(&mut live, vec![node("r", cons_id("r"), 0, vec![gone])], false), 0);
        assert_eq!(live[0].children.len(), 59);

        // A carrier that changes nothing copies nothing.
        let same = live.clone();
        assert_eq!(union_many(&mut live, vec![node("r", cons_id("r"), 0, vec![])], false), 0);
        assert!(Arc::ptr_eq(&live[0], &same[0]));
        assert_eq!(ViewExtent { roots: old }.to_xml(), old_xml, "the old version is unchanged");
    }

    #[test]
    fn batched_union_matches_one_by_one() {
        let leaf =
            |i: usize, count| node("x", with_ord(cons_id(&format!("{i:03}")), "o"), count, vec![]);
        let mut batched: Vec<_> = (0..50).map(|i| leaf(i, 1)).collect();
        let mut one_by_one = batched.clone();
        // Delete 0..10, bump 10..50, add 50..70.
        let incoming: Vec<_> = (0..70).map(|i| leaf(i, if i < 10 { -1 } else { 1 })).collect();
        union_many(&mut batched, incoming.clone(), false);
        for n in incoming {
            deep_union_siblings(&mut one_by_one, n);
        }
        assert_eq!(batched.len(), 60);
        assert_eq!(batched[0].count, 2);
        assert_eq!(batched, one_by_one);
    }

    #[test]
    fn serialization() {
        let mut g = elem("yGroup", cons_id("1994"));
        if let NodeData::Element { attrs, .. } = &mut g.data {
            attrs.push(("Y".into(), "1994".into()));
        }
        g.children.push(Arc::new(VNode::new(cons_id("t"), NodeData::text("hi & <bye>"))));
        let root = node("result", cons_id("r"), 1, vec![Arc::new(g)]);
        assert_eq!(
            root.to_xml(),
            r#"<result><yGroup Y="1994">hi &amp; &lt;bye&gt;</yGroup></result>"#
        );
        let ext = ViewExtent { roots: vec![root] };
        assert_eq!(ext.size(), 3);
        assert!(ext.root().is_some());
    }

    #[test]
    fn vnode_from_frag_preserves_structure() {
        let f = Frag::elem("book").attr("year", "1994").child(Frag::elem("title").text_child("X"));
        let v = vnode_from_frag(&f, &FlexKey::parse("q").unwrap());
        assert_eq!(v.size(), 3);
        assert_eq!(v.string_value(), "X");
        assert_eq!(v.find_element("title").unwrap().string_value(), "X");
    }
}

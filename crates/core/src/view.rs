//! [`MaintView`]: one maintained view *without* its store.
//!
//! A service maintains **many** views over **shared** documents, so the
//! view and its sources live apart: `MaintView` holds the definition
//! (plan + SAPT), the materialized extent, and the VPA primitives
//! (compute, propagate, apply-delta, in-place text patch), each
//! parameterized by an external `&Store`. The `viewsrv` catalog pairs N
//! `MaintView`s with one store and sequences the rounds; a single view is
//! a one-view catalog.

use crate::propagate::propagate_batch;
use crate::update::UpdateError;
use crate::validate::Sapt;
use flexkey::semid::SemBody;
use flexkey::FlexKey;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use xat::exec::{ExecError, ExecStats, Executor};
use xat::extent::unshare;
use xat::plan::Plan;
use xat::translate::{translate_query, TranslateError};
use xat::{VNode, ViewExtent};
use xmlstore::{Frag, InsertPos, NodeData, Store};

/// Per-view maintenance statistics (the Chapter 9 cost breakdown:
/// validate / propagate / apply).
///
/// The phase fields are wall times of the (possibly pool-parallel)
/// sections; `exec` is *summed* over every IMP execution, so it reads as
/// CPU time and can exceed the wall total. [`MaintStats::merge`] is
/// associative and commutative (plain `+` on every field), so aggregating
/// rounds in any order — including pooled completion order — yields the
/// same totals.
#[must_use = "maintenance statistics report the per-phase costs of the round"]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintStats {
    pub validate: Duration,
    pub propagate: Duration,
    pub apply: Duration,
    /// Engine statistics accumulated over all IMP executions.
    pub exec: ExecStats,
    pub relevant: usize,
    pub irrelevant: usize,
    /// Modifies served by the in-place fast path.
    pub fast_modifies: usize,
    /// Extent nodes Apply copied because an epoch, checkpoint or other
    /// handle still shared them ([`xat::extent::unshare`]): the length of
    /// the delta's path, never the size of the view.
    pub extent_nodes_copied: u64,
}

impl MaintStats {
    pub fn total(&self) -> Duration {
        self.validate + self.propagate + self.apply
    }

    /// Fold another round in. Field-wise `+`: associative, commutative,
    /// and order-independent by construction (asserted by unit test).
    pub fn merge(&mut self, o: MaintStats) {
        self.validate += o.validate;
        self.propagate += o.propagate;
        self.apply += o.apply;
        self.relevant += o.relevant;
        self.irrelevant += o.irrelevant;
        self.fast_modifies += o.fast_modifies;
        self.extent_nodes_copied += o.extent_nodes_copied;
        self.exec.merge(&o.exec);
    }
}

/// Any failure across the maintenance lifecycle.
#[derive(Debug)]
pub enum MaintError {
    Translate(TranslateError),
    Exec(ExecError),
    Update(UpdateError),
}

impl fmt::Display for MaintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintError::Translate(e) => write!(f, "{e}"),
            MaintError::Exec(e) => write!(f, "{e}"),
            MaintError::Update(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MaintError {}

impl From<TranslateError> for MaintError {
    fn from(e: TranslateError) -> Self {
        MaintError::Translate(e)
    }
}

impl From<ExecError> for MaintError {
    fn from(e: ExecError) -> Self {
        MaintError::Exec(e)
    }
}

impl From<UpdateError> for MaintError {
    fn from(e: UpdateError) -> Self {
        MaintError::Update(e)
    }
}

impl From<xquery_lang::QueryParseError> for MaintError {
    fn from(e: xquery_lang::QueryParseError) -> Self {
        MaintError::Update(e.into())
    }
}

/// A materialized XQuery view minus the source store: definition, SAPT, and
/// extent, with every maintenance primitive taking the store explicitly.
pub struct MaintView {
    query: String,
    plan: Plan,
    out_col: String,
    sapt: Sapt,
    /// A persistent tree, `Arc`-shared copy-on-write like the store's
    /// pages: an epoch or checkpoint captures the extent by bumping the
    /// refcount ([`MaintView::extent_shared`]), and the next mutation
    /// copies only the nodes on its path — the rest stay shared with the
    /// capture. Capture is O(views), a mutation O(delta path).
    extent: Arc<ViewExtent>,
    /// Worker pool the telescoped IMP terms fan out on (the shared global
    /// pool unless overridden — tests pin private pools).
    pool: exec::Executor,
}

impl MaintView {
    /// Translate and annotate `query`; the extent starts empty — call
    /// [`MaintView::materialize`] against a store.
    pub fn define(query: &str) -> Result<MaintView, MaintError> {
        let (plan, out_col) = translate_query(query)?;
        let sapt = Sapt::from_plan(&plan);
        Ok(MaintView {
            query: query.to_string(),
            plan,
            out_col,
            sapt,
            extent: Arc::default(),
            pool: exec::Executor::global().clone(),
        })
    }

    /// Override the worker pool used for per-term propagation
    /// (`exec::Executor::new(1)` forces fully serial execution).
    pub fn set_pool(&mut self, pool: exec::Executor) {
        self.pool = pool;
    }

    /// The worker pool this view propagates on.
    pub fn pool(&self) -> &exec::Executor {
        &self.pool
    }

    /// Compute the extent from scratch and install it.
    pub fn materialize(&mut self, store: &Store) -> Result<(), MaintError> {
        self.extent = Arc::new(self.compute_extent(store)?);
        Ok(())
    }

    /// The view definition.
    pub fn query(&self) -> &str {
        &self.query
    }

    /// The annotated view plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The output column of the plan root.
    pub fn out_col(&self) -> &str {
        &self.out_col
    }

    /// The view's Source Access Pattern Tree.
    pub fn sapt(&self) -> &Sapt {
        &self.sapt
    }

    /// The current materialized extent.
    pub fn extent(&self) -> &ViewExtent {
        &self.extent
    }

    /// A shared handle to the current extent — the O(1) capture a
    /// checkpoint uses. Later mutations of this view copy-on-write, so
    /// the handle keeps observing exactly the capture-time state.
    pub fn extent_shared(&self) -> Arc<ViewExtent> {
        Arc::clone(&self.extent)
    }

    /// Serialized materialized view.
    pub fn extent_xml(&self) -> String {
        self.extent.to_xml()
    }

    /// Documents this view reads (deduplicated, from the plan sources).
    pub fn source_docs(&self) -> Vec<String> {
        self.plan.source_docs()
    }

    /// Full recomputation over `store` — the §1.2 correctness oracle.
    pub fn compute_extent(&self, store: &Store) -> Result<ViewExtent, MaintError> {
        let mut ex = Executor::new(store);
        let t = ex.eval(&self.plan)?;
        if t.n_rows() == 0 {
            return Ok(ViewExtent::default());
        }
        let ci = t
            .col_idx(&self.out_col)
            .ok_or_else(|| ExecError(format!("missing output column ${}", self.out_col)))?;
        let items = t.rows[0].cells[ci].items().to_vec();
        Ok(ex.materialize(&items)?)
    }

    pub fn recompute_xml(&self, store: &Store) -> Result<String, MaintError> {
        Ok(self.compute_extent(store)?.to_xml())
    }

    /// Propagate one same-signed batch of update fragments of `doc` through
    /// this view's IMPs (read-only on the store): the Propagate phase.
    /// Multi-occurrence (self-join) views resolve their telescoped terms in
    /// parallel on the view's pool.
    pub fn propagate(
        &self,
        store: &Store,
        doc: &str,
        frag_roots: &[FlexKey],
        sign: i64,
    ) -> Result<(Vec<Arc<VNode>>, ExecStats), MaintError> {
        Ok(propagate_batch(&self.pool, store, &self.plan, &self.out_col, doc, frag_roots, sign)?)
    }

    /// Merge a delta update tree into the extent (count-aware deep union):
    /// the Apply phase. Returns the number of shared extent nodes it copied
    /// ([`MaintStats::extent_nodes_copied`]).
    pub fn apply_delta(&mut self, delta: Vec<Arc<VNode>>) -> u64 {
        xat::extent::union_many(&mut Arc::make_mut(&mut self.extent).roots, delta, false)
    }

    /// Replace the whole extent (recomputation fallback paths).
    pub fn set_extent(&mut self, extent: ViewExtent) {
        self.extent = Arc::new(extent);
    }

    /// Install an already-shared extent without copying (the
    /// snapshot-recovery path).
    pub fn set_extent_shared(&mut self, extent: Arc<ViewExtent>) {
        self.extent = extent;
    }

    /// In-place fast path for content-only modifies (§6.5): patch every
    /// extent copy of the text node stored under `text_key`. The matches
    /// are found read-only first, so only their ancestor paths are copied
    /// out of a shared extent; returns the number of nodes copied.
    pub fn patch_text_by_key(&mut self, text_key: &FlexKey, new_value: &str) -> u64 {
        let mut paths = Vec::new();
        for (i, root) in self.extent.roots.iter().enumerate() {
            find_paths(root, text_key, &mut vec![i], &mut paths);
        }
        if paths.is_empty() {
            return 0;
        }
        let mut copies = 0;
        let roots = &mut Arc::make_mut(&mut self.extent).roots;
        for path in paths {
            let mut node = unshare(&mut roots[path[0]], &mut copies);
            for &i in &path[1..] {
                node = unshare(&mut node.children[i], &mut copies);
            }
            node.data = NodeData::text(new_value);
        }
        copies
    }
}

/// A modify widened to delete+insert of a fragment (§6.5): everything a
/// maintainer needs to run the delete round at `anchor`, then re-insert
/// `new_frag` (the pre-update fragment with the text change applied) at the
/// same source position.
pub struct WidenedModify {
    pub anchor: FlexKey,
    pub parent: FlexKey,
    pub pos: InsertPos,
    pub new_frag: Frag,
}

/// Plan the widening of a text modify at `target` into delete+insert of the
/// subtree rooted at `anchor` (an ancestor-or-self of `target`). Must be
/// called while the anchor is still in the store.
pub fn widen_modify(
    store: &Store,
    anchor: FlexKey,
    target: &FlexKey,
    new_value: &str,
) -> Result<WidenedModify, UpdateError> {
    let parent = anchor.parent().expect("bound anchor below the root");
    let pos = store.prev_sibling(&anchor).map_or(InsertPos::First, InsertPos::After);
    let mut frag = store
        .extract_frag(&anchor)
        .ok_or_else(|| UpdateError(format!("anchor {anchor} vanished")))?;
    // Locate the modified node inside the fragment while the anchor is
    // still in the store (child indices level by level).
    let rel = index_path(&store_pre_keys(store, &anchor, target), &anchor, target);
    replace_in_frag(&mut frag, &rel, new_value);
    Ok(WidenedModify { anchor, parent, pos, new_frag: frag })
}

/// Index path of `target` below `anchor` at extraction time (children
/// positions level by level), for locating it in the extracted fragment.
fn store_pre_keys(store: &Store, anchor: &FlexKey, target: &FlexKey) -> Vec<Vec<FlexKey>> {
    let mut out = Vec::new();
    let mut k = anchor.clone();
    for d in anchor.depth()..target.depth() {
        let kids: Vec<FlexKey> = store.children(&k).into_iter().map(|(c, _)| c).collect();
        out.push(kids);
        k = FlexKey::from_segs(target.segs()[..d + 1].to_vec());
    }
    out
}

/// Convert the level-by-level sibling lists into child indices.
fn index_path(levels: &[Vec<FlexKey>], anchor: &FlexKey, target: &FlexKey) -> Vec<usize> {
    let mut rel = Vec::new();
    for (d, kids) in levels.iter().enumerate() {
        let key_at = FlexKey::from_segs(target.segs()[..anchor.depth() + d + 1].to_vec());
        if let Some(i) = kids.iter().position(|k| *k == key_at) {
            rel.push(i);
        }
    }
    rel
}

/// Replace the text under the node addressed by child indices `rel` within
/// `frag` (empty path ⇒ the fragment root).
fn replace_in_frag(frag: &mut Frag, rel: &[usize], new_value: &str) {
    let mut node = frag;
    for &i in rel {
        node = &mut node.children[i];
    }
    match &mut node.data {
        NodeData::Text { value } => *value = new_value.to_string(),
        NodeData::Element { .. } => {
            if let Some(t) =
                node.children.iter_mut().find(|c| matches!(c.data, NodeData::Text { .. }))
            {
                t.data = NodeData::text(new_value);
            } else {
                node.children.push(Frag::text(new_value));
            }
        }
    }
}

/// Key of the text child of `target` (or `target` itself when a text node)
/// — the node `replace_text` rewrites in place.
pub fn text_node_key(store: &Store, target: &FlexKey) -> Option<FlexKey> {
    match store.node(target)? {
        n if matches!(n.data, NodeData::Text { .. }) => Some(target.clone()),
        _ => store
            .children(target)
            .into_iter()
            .find(|(_, n)| matches!(n.data, NodeData::Text { .. }))
            .map(|(k, _)| k),
    }
}

/// Child-index paths (from the root index in `path`) of every extent copy
/// of the base node `key` — base text copies can be exposed several times.
/// A base subtree is a copy of the store subtree under its own key, so one
/// whose key is not an ancestor of `key` is skipped whole.
fn find_paths(node: &VNode, key: &FlexKey, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if let SemBody::Base(k) = node.sem.identity() {
        if k == key {
            out.push(path.clone());
            return;
        }
        if !k.is_self_or_ancestor_of(key) {
            return;
        }
    }
    for (i, c) in node.children.iter().enumerate() {
        path.push(i);
        find_paths(c, key, path, out);
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> MaintStats {
        let d = |k: u64| Duration::from_nanos(seed * 1_000 + k);
        let exec = ExecStats {
            total: d(1),
            overriding: d(3),
            semid: d(4),
            final_sort: d(5),
            source_rows: seed * 17,
            index_probes: seed * 19,
        };
        MaintStats {
            validate: d(6),
            propagate: d(7),
            apply: d(8),
            exec,
            relevant: seed as usize,
            irrelevant: seed as usize * 3,
            fast_modifies: seed as usize * 7,
            extent_nodes_copied: seed * 23,
        }
    }

    /// Pooled rounds settle in nondeterministic order; the aggregation
    /// must not care. `merge` is field-wise `+`, so associativity and
    /// commutativity hold exactly (no floats involved).
    #[test]
    fn maint_stats_merge_is_associative_and_commutative() {
        let (a, b, c) = (sample(3), sample(11), sample(40));
        let mut ab_c = a;
        ab_c.merge(b);
        ab_c.merge(c);
        let mut bc = b;
        bc.merge(c);
        let mut a_bc = a;
        a_bc.merge(bc);
        assert_eq!(ab_c, a_bc, "associativity");
        let mut ab = a;
        ab.merge(b);
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab, ba, "commutativity");
    }

    /// Seeded LCG: the model test's only randomness.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 33) % n as u64) as usize
        }
    }

    /// Titles exposed flat, and grouped under a per-year node whose count
    /// is the number of books of that year — so deleting one book of a
    /// shared year decrements a count instead of removing a node. Titles
    /// are exposed content in both, which is what lets text modifies take
    /// the `patch_text_by_key` fast path.
    const MODEL_VIEWS: [&str; 2] = [
        r#"<r>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</r>"#,
        r#"<r>{ for $y in distinct-values(doc("bib.xml")/bib/book/@year) order by $y
              return <g Y="{$y}">{ for $b in doc("bib.xml")/bib/book
                                   where $b/@year = $y return $b/title }</g> }</r>"#,
    ];

    /// What recomputation must reproduce of a maintained extent: every
    /// node's identity, data and place in child order, and every count
    /// below the roots. Two things legitimately drift and are left out: a
    /// positional order key keeps the ordinal it was derived with (a
    /// delete does not renumber the siblings after it; the order is
    /// unchanged), and every delta adds one to the constructed wrapper
    /// root's count (its delta root is a count-1 derivation, not a
    /// zero-count carrier).
    fn shape(e: &ViewExtent) -> String {
        fn node(n: &VNode, count: bool, out: &mut String) {
            out.push_str(&format!("{:?} {:?} ", n.sem.identity(), n.data));
            if count {
                out.push_str(&format!("{} ", n.count));
            }
            out.push('[');
            for c in &n.children {
                node(c, true, out);
            }
            out.push(']');
        }
        let mut out = String::new();
        for r in &e.roots {
            node(r, false, &mut out);
        }
        out
    }

    /// Seeded copy-on-write model test: random inserts, deletes (among them
    /// count decrements of a shared year) and in-place text patches on
    /// maintained extents, with `extent_shared` handles taken and dropped at
    /// random. After every operation each held handle still encodes to the
    /// bytes captured when it was taken, and each live extent has the
    /// [`shape`] of its recomputation.
    #[test]
    fn model_cow_extent_random_ops_match_recompute() {
        for seed in [1, 2] {
            let mut rng = Lcg(seed);
            let mut store = Store::new();
            let seed_books: String = (0..6)
                .map(|i| format!(r#"<book year="{}"><title>S{i}</title></book>"#, 1990 + i % 3))
                .collect();
            store.load_doc("bib.xml", &format!("<bib>{seed_books}</bib>")).unwrap();
            let bib = store.doc_root("bib.xml").unwrap();
            let mut views: Vec<MaintView> = MODEL_VIEWS
                .iter()
                .map(|q| {
                    let mut v = MaintView::define(q).unwrap();
                    v.materialize(&store).unwrap();
                    v
                })
                .collect();
            // (view, handle, its bytes when taken)
            let mut held: Vec<(usize, Arc<ViewExtent>, Vec<u8>)> = Vec::new();
            let (mut decrements, mut patches, mut copies) = (0, 0, 0);
            for step in 0..200 {
                let books = store.children_named(&bib, "book");
                let year_of = |store: &Store, b: &FlexKey| {
                    store.node(b).unwrap().data.attr("year").map(str::to_string)
                };
                match rng.below(10) {
                    op if op < 4 || books.is_empty() => {
                        let pos = match (rng.below(3), books.is_empty()) {
                            (0, _) | (_, true) => InsertPos::First,
                            (1, _) => InsertPos::Last,
                            _ => InsertPos::After(books[rng.below(books.len())].clone()),
                        };
                        let frag = Frag::elem("book")
                            .attr("year", (1990 + rng.below(4)).to_string())
                            .child(Frag::elem("title").text_child(format!("T{step}")));
                        let key = store.insert_fragment(&bib, pos, &frag).unwrap();
                        for v in &mut views {
                            let (delta, _) = v
                                .propagate(&store, "bib.xml", std::slice::from_ref(&key), 1)
                                .unwrap();
                            copies += v.apply_delta(delta);
                        }
                    }
                    4..=6 => {
                        let victim = books[rng.below(books.len())].clone();
                        let year = year_of(&store, &victim);
                        decrements += usize::from(
                            books.iter().filter(|b| year_of(&store, b) == year).count() > 1,
                        );
                        let deltas: Vec<_> = views
                            .iter()
                            .map(|v| {
                                v.propagate(&store, "bib.xml", std::slice::from_ref(&victim), -1)
                                    .unwrap()
                                    .0
                            })
                            .collect();
                        store.delete_subtree(&victim);
                        for (v, delta) in views.iter_mut().zip(deltas) {
                            copies += v.apply_delta(delta);
                        }
                    }
                    _ => {
                        let book = &books[rng.below(books.len())];
                        let title = store.children_named(book, "title").remove(0);
                        let text = text_node_key(&store, &title).unwrap();
                        let value = format!("M{step}");
                        assert!(store.replace_text(&title, &value));
                        for v in &mut views {
                            copies += v.patch_text_by_key(&text, &value);
                        }
                        patches += 1;
                    }
                }
                if rng.below(3) == 0 {
                    let i = rng.below(views.len());
                    let handle = views[i].extent_shared();
                    let bytes = wire::to_vec(&*handle);
                    held.push((i, handle, bytes));
                }
                if !held.is_empty() && rng.below(4) == 0 {
                    held.swap_remove(rng.below(held.len()));
                }
                for (i, handle, bytes) in &held {
                    assert_eq!(
                        &wire::to_vec(&**handle),
                        bytes,
                        "seed {seed} step {step}: view {i} handle moved"
                    );
                }
                for (i, v) in views.iter().enumerate() {
                    let oracle = v.compute_extent(&store).unwrap();
                    assert_eq!(
                        shape(v.extent()),
                        shape(&oracle),
                        "seed {seed} step {step}: view {i} diverged"
                    );
                }
            }
            assert!(
                decrements > 0 && patches > 0 && copies > 0,
                "seed {seed}: {decrements} decrements, {patches} patches, {copies} copies"
            );
        }
    }
}

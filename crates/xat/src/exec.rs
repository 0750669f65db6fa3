//! The XAT executor: bottom-up evaluation of annotated plans over the
//! storage manager.
//!
//! Three of the dissertation's mechanisms are woven into execution:
//!
//! * **Order** (Ch. 3): operators never sort. Overriding-order keys are
//!   assigned only by Combine (Fig 3.3), XML Union (Fig 4.5) and Tagger;
//!   everything else just manipulates bags. The assignment cost is measured
//!   into [`ExecStats::overriding`] for the Figure 3.7–3.10 breakdowns.
//! * **Semantic identifiers** (Ch. 4): Tagger and GroupBy generate
//!   reproducible ids from the Context Schema (Table 4.2, Figs 4.3–4.5),
//!   timed into [`ExecStats::semid`] for Figures 4.9/4.10.
//! * **Counts** (Ch. 6): tuple counts follow Table 6.1 — sources emit 1,
//!   joins multiply, Distinct and GroupBy sum — and delta sources emit the
//!   update sign, which is Table 6.2's maintenance-time rule.
//!
//! Incremental maintenance plans execute on this same engine: a
//! [`crate::plan::OpKind::DeltaSource`] leaf emits the document root flagged
//! as *delta*, and navigation from delta-flagged items is restricted to the
//! registered update fragments — the algebraic equivalent of processing a
//! batch update tree (Ch. 5/7). Restriction is per-item (not per-document),
//! so self-join views (§7.5) behave correctly: the ΔS side is restricted
//! while the S side scans freely.

use crate::plan::{GroupFunc, OpKind, Operand, PatSlot, Pattern, Plan, Pred};
use crate::table::{ColInfo, Row, XatTable};
use crate::value::{Atomic, Cell, ConsId, Item, ItemRef, NavMode};
use flexkey::{FlexKey, LngAtom, OrdAtom, OrdKey, SemId};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use xmlstore::{NodeData, Store};
use xquery_lang::{AggFunc, Axis, CmpOp, NodeTest, Step};

/// Cost instrumentation matching the paper's breakdowns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total wall-clock execution time.
    pub total: Duration,
    /// Overriding-order key assignment (Combine / XML Union / Tagger).
    pub overriding: Duration,
    /// Semantic identifier generation (Figures 4.9/4.10).
    pub semid: Duration,
    /// Final (partial) sorting when materializing the result.
    pub final_sort: Duration,
    /// Tuples bound out of *stored* document state: every row a φ emits
    /// from a non-delta item, and every row rebuilt from an index answer.
    /// For an IMP term this is the work that should track the update's
    /// join neighbourhood, not the document.
    pub source_rows: u64,
    /// Path-value index lookups issued (`Store::nodes_by_value` calls).
    pub index_probes: u64,
}

impl ExecStats {
    /// Accumulate another run's statistics field by field.
    pub fn merge(&mut self, o: &ExecStats) {
        self.total += o.total;
        self.overriding += o.overriding;
        self.semid += o.semid;
        self.final_sort += o.final_sort;
        self.source_rows += o.source_rows;
        self.index_probes += o.index_probes;
    }
}

/// A constructed node skeleton (§3.3.1 "Constructed Nodes": only structure
/// and references are stored, never copies of the referenced data).
#[derive(Clone, Debug)]
pub struct ConsNode {
    pub sem: SemId,
    pub name: String,
    pub attrs: Vec<(String, String)>,
    pub children: Vec<Item>,
    pub count: i64,
}

/// Execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

type EResult<T> = Result<T, ExecError>;

/// The executor. Borrow a store, run plans.
pub struct Executor<'s> {
    pub store: &'s Store,
    pub stats: ExecStats,
    /// Constructed-node arena.
    pub cons: Vec<ConsNode>,
    /// Delta restriction: doc name → update-fragment root keys. Items
    /// flagged `delta` navigate only through these fragments.
    delta: HashMap<String, Vec<FlexKey>>,
    /// Sign emitted by DeltaSource rows (+1 inserts, −1 deletes).
    delta_sign: i64,
}

impl<'s> Executor<'s> {
    pub fn new(store: &'s Store) -> Executor<'s> {
        Executor {
            store,
            stats: ExecStats::default(),
            cons: Vec::new(),
            delta: HashMap::new(),
            delta_sign: 1,
        }
    }

    /// Register the update fragments of `doc` for an incremental maintenance
    /// plan, and the sign its DeltaSource rows carry.
    pub fn set_delta(&mut self, doc: &str, frags: Vec<FlexKey>, sign: i64) {
        self.delta.insert(doc.to_string(), frags);
        self.delta_sign = sign;
    }

    pub fn cons_node(&self, id: ConsId) -> &ConsNode {
        &self.cons[id.0 as usize]
    }

    /// Evaluate an annotated plan, returning its output table.
    ///
    /// Each evaluation also mirrors its [`ExecStats`] slice into the
    /// global `span/xat/*` histograms, so engine-stage costs (overriding
    /// order, semantic ids, final sort — the paper's Figure 3.7–4.10
    /// breakdowns) show up in any metrics snapshot.
    pub fn eval(&mut self, plan: &Plan) -> EResult<XatTable> {
        let before = self.stats;
        let t0 = Instant::now();
        let out = self.eval_inner(plan);
        let total = t0.elapsed();
        self.stats.total += total;
        obs::record_span("xat/total", total);
        obs::record_span("xat/overriding", self.stats.overriding.saturating_sub(before.overriding));
        obs::record_span("xat/semid", self.stats.semid.saturating_sub(before.semid));
        obs::record_span("xat/final_sort", self.stats.final_sort.saturating_sub(before.final_sort));
        out
    }

    fn eval_inner(&mut self, plan: &Plan) -> EResult<XatTable> {
        // Join-family operators control their own child evaluation order so
        // the delta side can semi-join-restrict the other side first.
        if matches!(plan.op, OpKind::Join { .. } | OpKind::LeftOuterJoin { .. }) {
            return self.eval_join_like(plan);
        }
        if let Some(out) = self.eval_indexed(plan)? {
            return Ok(out);
        }
        let mut inputs = Vec::with_capacity(plan.children.len());
        for c in &plan.children {
            inputs.push(self.eval_inner(c)?);
        }
        let mut out = XatTable::new(plan.schema.cols.clone());
        out.order_schema = plan.schema.order.clone();
        match &plan.op {
            OpKind::Unit => {
                out.rows.push(Row::new(Vec::new()));
            }
            OpKind::Source { doc, out: _ } => {
                let root = self
                    .store
                    .doc_handle(doc)
                    .ok_or_else(|| ExecError(format!("unknown document {doc}")))?;
                out.rows.push(Row::new(vec![Cell::one(Item::base(root))]));
            }
            OpKind::DeltaSource { doc, out: _ } => {
                // One tuple per batch, carrying the update sign; navigation
                // from it is restricted to the registered fragments.
                if self.delta.get(doc).is_some_and(|f| !f.is_empty()) {
                    let root = self
                        .store
                        .doc_handle(doc)
                        .ok_or_else(|| ExecError(format!("unknown document {doc}")))?;
                    let mut item = Item::base(root);
                    item.delta = NavMode::DeltaOnly;
                    out.rows.push(Row::with_count(vec![Cell::one(item)], self.delta_sign));
                }
            }
            OpKind::ExcludeSource { doc, out: _ } => {
                // The document state on the other side of the update:
                // navigation from this item skips the update fragments.
                let root = self
                    .store
                    .doc_handle(doc)
                    .ok_or_else(|| ExecError(format!("unknown document {doc}")))?;
                let mut item = Item::base(root);
                item.delta = NavMode::Exclude;
                out.rows.push(Row::new(vec![Cell::one(item)]));
            }
            OpKind::NavUnnest { col, steps, out: _ } => {
                let t = &inputs[0];
                let ci = t.col_idx(col).ok_or_else(|| ExecError(format!("no column ${col}")))?;
                for row in &t.rows {
                    for entry in row.cells[ci].items() {
                        let hits = self.eval_path(entry, steps);
                        if entry.delta != NavMode::DeltaOnly {
                            self.stats.source_rows += hits.len() as u64;
                        }
                        for hit in hits {
                            // §6.5-style classification of bound delta rows:
                            // a binding *inside* an update fragment exists on
                            // one side of the update only and keeps the batch
                            // sign; a binding that is an *ancestor* of a
                            // fragment exists in BOTH states, so its delta is
                            // the pair (post-derivation, +1) ⊎
                            // (pre-derivation, −1) — downstream navigation of
                            // each copy evaluates over the matching state,
                            // and deep-union fusion nets the content change
                            // (exposed copies, attributes, aggregates).
                            if hit.delta == NavMode::DeltaOnly {
                                if let Some(k) = hit.as_base() {
                                    let inside = self.restriction_for(k).is_some_and(|frags| {
                                        frags.iter().any(|f| f.is_self_or_ancestor_of(k))
                                    });
                                    if !inside {
                                        let store_is_post = self.delta_sign > 0;
                                        let (post_mode, pre_mode) = if store_is_post {
                                            (NavMode::Free, NavMode::Exclude)
                                        } else {
                                            (NavMode::Exclude, NavMode::Free)
                                        };
                                        let mag = row.count.abs().max(1);
                                        let mut post_hit = hit.clone();
                                        post_hit.delta = post_mode;
                                        let mut cells = row.cells.clone();
                                        cells.push(Cell::one(post_hit));
                                        out.rows.push(Row::with_count(cells, mag));
                                        let mut pre_hit = hit;
                                        pre_hit.delta = pre_mode;
                                        let mut cells = row.cells.clone();
                                        cells.push(Cell::one(pre_hit));
                                        out.rows.push(Row::with_count(cells, -mag));
                                        continue;
                                    }
                                }
                            }
                            let mut cells = row.cells.clone();
                            cells.push(Cell::one(hit));
                            out.rows.push(Row::with_count(cells, row.count));
                        }
                    }
                }
            }
            OpKind::NavCollection { col, steps, out: _ } => {
                let t = &inputs[0];
                let ci = t.col_idx(col).ok_or_else(|| ExecError(format!("no column ${col}")))?;
                for row in &t.rows {
                    let mut hits = Vec::new();
                    for entry in row.cells[ci].items() {
                        hits.extend(self.eval_path(entry, steps));
                    }
                    let mut cells = row.cells.clone();
                    cells.push(Cell::seq(hits));
                    out.rows.push(Row::with_count(cells, row.count));
                }
            }
            OpKind::Select { pred } => {
                let t = &inputs[0];
                for row in &t.rows {
                    if self.eval_pred(t, row, pred)? {
                        out.rows.push(row.clone());
                    }
                }
            }
            OpKind::Join { .. } | OpKind::LeftOuterJoin { .. } => {
                unreachable!("handled by eval_join_like")
            }
            OpKind::InSet { operand, values } => {
                let t = &inputs[0];
                let set: std::collections::HashSet<String> = values.iter().map(atom_key).collect();
                for row in &t.rows {
                    let vals = self.operand_values(t, row, operand)?;
                    if vals.iter().any(|v| set.contains(&atom_key(v))) {
                        out.rows.push(row.clone());
                    }
                }
            }
            OpKind::Cartesian => {
                let (l, r) = (&inputs[0], &inputs[1]);
                for lr in &l.rows {
                    for rr in &r.rows {
                        let mut cells = lr.cells.clone();
                        cells.extend(rr.cells.iter().cloned());
                        out.rows.push(Row::with_count(cells, lr.count * rr.count));
                    }
                }
            }
            OpKind::Distinct { col } => {
                // Implements `distinct-values`: the column is atomized, and
                // the count of a distinct value is the sum of the counts of
                // the tuples carrying it (the counting solution's rule for
                // duplicate elimination, Ch. 6).
                let t = &inputs[0];
                let ci = t.col_idx(col).ok_or_else(|| ExecError(format!("no column ${col}")))?;
                let mut seen: HashMap<String, usize> = HashMap::new();
                for row in &t.rows {
                    let val: String = row.cells[ci]
                        .items()
                        .iter()
                        .map(|it| item_atomic(it, self.store).0)
                        .collect::<Vec<_>>()
                        .join(" ");
                    match seen.get(&val) {
                        Some(&i) => out.rows[i].count += row.count,
                        None => {
                            seen.insert(val.clone(), out.rows.len());
                            // Project to the distinct value alone (see the
                            // annotation rule: re-rooted columns are dead).
                            out.rows
                                .push(Row::with_count(vec![Cell::one(Item::val(val))], row.count));
                        }
                    }
                }
            }
            OpKind::GroupBy { cols, func } => {
                self.group_by(&inputs[0], cols, func, &mut out)?;
            }
            OpKind::OrderBy { keys, out: _ } => {
                let t = &inputs[0];
                let kis: Vec<(usize, bool)> = keys
                    .iter()
                    .map(|(k, d)| {
                        t.col_idx(k)
                            .map(|i| (i, *d))
                            .ok_or_else(|| ExecError(format!("no column ${k}")))
                    })
                    .collect::<EResult<_>>()?;
                for row in &t.rows {
                    let mut ord = OrdKey::empty();
                    for &(i, desc) in &kis {
                        for item in row.cells[i].items() {
                            let atom = item_ord_value(item, self.store);
                            ord.push(if desc { atom.descending() } else { atom });
                        }
                    }
                    let mut cells = row.cells.clone();
                    cells.push(Cell::one(Item {
                        r: ItemRef::Val(Atomic::new("")),
                        ord: Some(ord),
                        count: 1,
                        abs: false,
                        delta: NavMode::Free,
                    }));
                    out.rows.push(Row::with_count(cells, row.count));
                }
            }
            OpKind::Combine { col } => {
                let t = &inputs[0];
                let ci = t.col_idx(col).ok_or_else(|| ExecError(format!("no column ${col}")))?;
                let items = self.combine_items(t, ci)?;
                out.rows.push(Row::new(vec![Cell::seq(items)]));
            }
            OpKind::Tagger { pattern, out: _ } => {
                self.tagger(&inputs[0], pattern, plan, &mut out)?;
            }
            OpKind::XmlUnion { a, b, out: _ } => {
                let t = &inputs[0];
                let (ai, bi) = match (t.col_idx(a), t.col_idx(b)) {
                    (Some(x), Some(y)) => (x, y),
                    _ => return Err(ExecError(format!("no column ${a}/${b}"))),
                };
                let t0 = Instant::now();
                for row in &t.rows {
                    let mut items = Vec::new();
                    for (branch, idx) in [(0usize, ai), (1, bi)] {
                        for it in row.cells[idx].items() {
                            let mut it = it.clone();
                            it.prefix_ord(OrdAtom::Key(FlexKey::root(flexkey::Seg::nth(branch))));
                            items.push(it);
                        }
                    }
                    let mut cells = row.cells.clone();
                    cells.push(Cell::seq(items));
                    out.rows.push(Row::with_count(cells, row.count));
                }
                self.stats.overriding += t0.elapsed();
            }
            OpKind::XmlUnique { col, out: _ } => {
                let t = &inputs[0];
                let ci = t.col_idx(col).ok_or_else(|| ExecError(format!("no column ${col}")))?;
                for row in &t.rows {
                    let mut seen: Vec<ItemRef> = Vec::new();
                    let mut items = Vec::new();
                    for it in row.cells[ci].items() {
                        if !seen.contains(&it.r) {
                            seen.push(it.r.clone());
                            let mut it = it.clone();
                            it.ord = None; // restore document order (§3.3.2)
                            items.push(it);
                        }
                    }
                    let mut cells = row.cells.clone();
                    cells.push(Cell::seq(items));
                    out.rows.push(Row::with_count(cells, row.count));
                }
            }
            OpKind::AggCol { col, func, out: _ } => {
                let t = &inputs[0];
                let ci = t.col_idx(col).ok_or_else(|| ExecError(format!("no column ${col}")))?;
                for row in &t.rows {
                    let vals: Vec<(Atomic, i64)> = row.cells[ci]
                        .items()
                        .iter()
                        .map(|it| (item_atomic(it, self.store), it.count.max(1)))
                        .collect();
                    let v = eval_agg(*func, &vals);
                    let mut cells = row.cells.clone();
                    cells.push(Cell::one(Item {
                        r: ItemRef::Val(v),
                        ord: None,
                        count: 1,
                        abs: false,
                        delta: NavMode::Free,
                    }));
                    out.rows.push(Row::with_count(cells, row.count));
                }
            }
            OpKind::Merge => {
                let (l, r) = (&inputs[0], &inputs[1]);
                match (l.n_rows(), r.n_rows()) {
                    (_, 1) => {
                        for lr in &l.rows {
                            let mut cells = lr.cells.clone();
                            cells.extend(r.rows[0].cells.iter().cloned());
                            out.rows.push(Row::with_count(cells, lr.count * r.rows[0].count));
                        }
                    }
                    (1, _) => {
                        for rr in &r.rows {
                            let mut cells = l.rows[0].cells.clone();
                            cells.extend(rr.cells.iter().cloned());
                            out.rows.push(Row::with_count(cells, l.rows[0].count * rr.count));
                        }
                    }
                    (a, b) if a == b => {
                        for (lr, rr) in l.rows.iter().zip(&r.rows) {
                            let mut cells = lr.cells.clone();
                            cells.extend(rr.cells.iter().cloned());
                            out.rows.push(Row::with_count(cells, lr.count * rr.count));
                        }
                    }
                    (a, b) => return Err(ExecError(format!("Merge of {a}x{b} tables"))),
                }
            }
        }
        Ok(out)
    }

    // ---- index access path ---------------------------------------------

    /// Answer a semi-join filter or an equality selection that sits on a
    /// [`SourceChain`] from the store's path-value index instead of
    /// navigating the whole document and filtering: probe the index once
    /// per wanted value, rebuild the chain's tuple for each node found,
    /// and keep those the operator's own predicate accepts. The rows are
    /// exactly the rows, in the same (document) order, that evaluating the
    /// chain and filtering would give; `None` whenever that cannot be
    /// promised — the plan has another shape, or the index declines — and
    /// the caller evaluates the plan the ordinary way.
    fn eval_indexed(&mut self, plan: &Plan) -> EResult<Option<XatTable>> {
        let (operand, wanted): (&Operand, Vec<&Atomic>) = match &plan.op {
            OpKind::InSet { operand, values } => (operand, values.iter().collect()),
            OpKind::Select { pred } => {
                let by_const = pred.conjuncts.iter().find_map(|c| match c {
                    (o, CmpOp::Eq, Operand::Const(v)) | (Operand::Const(v), CmpOp::Eq, o) => {
                        o.col().map(|_| (o, vec![v]))
                    }
                    _ => None,
                });
                match by_const {
                    Some(found) => found,
                    None => return Ok(None),
                }
            }
            _ => return Ok(None),
        };
        let input = &plan.children[0];
        let Some(chain) = SourceChain::of(input) else { return Ok(None) };
        // The operand must read the chain's last column; the path from the
        // document node to its value is the chain's steps, then its own.
        let below: &[Step] = match operand {
            Operand::Path { steps, .. } => steps,
            _ => &[],
        };
        let bound = chain.navs.iter().copied().flatten();
        let (Some(path), Some(handle)) =
            (Step::label_path(bound.clone().chain(below)), self.store.doc_handle(chain.doc))
        else {
            return Ok(None);
        };
        if operand.col() != Some(chain.top_col) {
            return Ok(None);
        }
        let path: Vec<&str> = path.iter().map(String::as_str).collect();

        // The deepest element the chain binds determines the tuple.
        let anchor_depth = handle.depth() + bound.filter(|s| s.binds_element()).count();
        let mut anchors: Vec<FlexKey> = Vec::new();
        for value in &wanted {
            self.stats.index_probes += 1;
            match self.store.nodes_by_value(chain.doc, &path, value.as_str()) {
                Some(nodes) => anchors.extend(nodes.iter().map(|k| k.prefix(anchor_depth))),
                None => return Ok(None),
            }
        }
        anchors.sort();
        anchors.dedup();
        if chain.mode == NavMode::Exclude {
            if let Some(frags) = self.delta.get(chain.doc) {
                anchors.retain(|a| !frags.iter().any(|f| f.is_self_or_ancestor_of(a)));
            }
        }

        let at = |key: FlexKey| Item { delta: chain.mode, ..Item::base(key) };
        let shape = XatTable::new(input.schema.cols.clone());
        let wanted: std::collections::HashSet<String> =
            wanted.iter().map(|v| atom_key(v)).collect();
        let mut out = XatTable::new(plan.schema.cols.clone());
        out.order_schema = plan.schema.order.clone();
        for anchor in anchors {
            let mut cells = vec![Cell::one(at(handle.clone()))];
            let mut depth = handle.depth();
            // A value column (the chain ends in an attribute step) is read
            // from the stored element, once per tuple.
            let mut values: Option<Vec<Item>> = None;
            for steps in &chain.navs {
                depth += steps.iter().filter(|s| s.binds_element()).count();
                let bound = at(anchor.prefix(depth));
                match steps.last().filter(|s| !s.binds_element()) {
                    Some(attr) => values = Some(self.eval_path(&bound, std::slice::from_ref(attr))),
                    None => cells.push(Cell::one(bound)),
                }
            }
            let tuples: Vec<Vec<Cell>> = match values {
                None => vec![cells],
                Some(values) => values
                    .into_iter()
                    .map(|v| cells.iter().cloned().chain([Cell::one(v)]).collect())
                    .collect(),
            };
            for cells in tuples {
                self.stats.source_rows += 1;
                let row = Row::new(cells);
                let keep = match &plan.op {
                    OpKind::Select { pred } => self.eval_pred(&shape, &row, pred)?,
                    _ => self
                        .operand_values(&shape, &row, operand)?
                        .iter()
                        .any(|v| wanted.contains(&atom_key(v))),
                };
                if keep {
                    out.rows.push(row);
                }
            }
        }
        Ok(Some(out))
    }

    // ---- navigation ---------------------------------------------------

    /// Evaluate location steps from one item. Delta-flagged items navigate
    /// only along paths into the registered update fragments; result items
    /// inherit the flag (the update-tree prefix-sharing semantics of Ch. 5).
    pub fn eval_path(&self, entry: &Item, steps: &[Step]) -> Vec<Item> {
        let mut frontier = vec![entry.clone()];
        for step in steps {
            let mut next = Vec::new();
            for item in &frontier {
                self.eval_step(item, step, &mut next);
            }
            frontier = next;
        }
        frontier
    }

    /// The update fragments to exclude when deep-copying the subtree at
    /// `key` under navigation mode `mode` (pre-state copies skip them).
    pub(crate) fn excluded_under(
        &self,
        key: &FlexKey,
        mode: crate::value::NavMode,
    ) -> Vec<FlexKey> {
        match mode {
            crate::value::NavMode::Exclude => {
                self.restriction_for(key).map(|f| f.to_vec()).unwrap_or_default()
            }
            _ => Vec::new(),
        }
    }

    fn restriction_for(&self, key: &FlexKey) -> Option<&[FlexKey]> {
        for (doc, frags) in &self.delta {
            if let Some(handle) = self.store.doc_handle(doc) {
                if handle.is_self_or_ancestor_of(key) {
                    return Some(frags);
                }
            }
        }
        None
    }

    fn eval_step(&self, item: &Item, step: &Step, out: &mut Vec<Item>) {
        match &item.r {
            ItemRef::Val(v) => {
                // text() over an already-atomic value is the identity.
                if matches!(step.test, NodeTest::Text) {
                    out.push(Item {
                        r: ItemRef::Val(v.clone()),
                        ord: None,
                        count: item.count,
                        abs: false,
                        delta: item.delta,
                    });
                }
            }
            // Constructed nodes are not re-navigated by the supported view
            // class (views navigate sources, not prior results).
            ItemRef::Cons(_) => {}
            ItemRef::Base(k) => {
                let restrict = match item.delta {
                    NavMode::Free => None,
                    NavMode::DeltaOnly | NavMode::Exclude => {
                        self.restriction_for(k).map(|f| (item.delta, f))
                    }
                };
                match (&step.axis, &step.test) {
                    (_, NodeTest::Attr(a)) => {
                        if let Some(v) = self.store.attr(k, a) {
                            out.push(Item {
                                r: ItemRef::Val(Atomic(v)),
                                ord: None,
                                count: item.count,
                                abs: false,
                                delta: item.delta,
                            });
                        }
                    }
                    (_, NodeTest::Text) => {
                        // Text nodes are real nodes with FlexKeys (§2.2.1
                        // "atomic values are treated as text nodes"), so a
                        // text() step yields keyed items — identity and
                        // document order preserved.
                        for (ck, n) in self.store.children(k) {
                            if matches!(n.data, NodeData::Text { .. }) {
                                out.push(Item {
                                    r: ItemRef::Base(ck),
                                    ord: None,
                                    count: item.count,
                                    abs: false,
                                    delta: item.delta,
                                });
                            }
                        }
                    }
                    (Axis::Child, test) => {
                        for ck in self.child_candidates(k, restrict) {
                            if self.name_matches(&ck, test) {
                                out.push(Item {
                                    r: ItemRef::Base(ck),
                                    ord: None,
                                    count: item.count,
                                    abs: false,
                                    delta: item.delta,
                                });
                            }
                        }
                    }
                    (Axis::Descendant, test) => {
                        for dk in self.descendant_candidates(k, restrict) {
                            if self.name_matches(&dk, test) {
                                out.push(Item {
                                    r: ItemRef::Base(dk),
                                    ord: None,
                                    count: item.count,
                                    abs: false,
                                    delta: item.delta,
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    fn name_matches(&self, key: &FlexKey, test: &NodeTest) -> bool {
        match self.store.node(key).map(|n| &n.data) {
            Some(NodeData::Element { name, .. }) => match test {
                NodeTest::Name(n) => name == n,
                NodeTest::Wildcard => true,
                _ => false,
            },
            _ => false,
        }
    }

    /// Children of `k` under a navigation mode. In `DeltaOnly` mode the
    /// executor never scans unrelated siblings: for each fragment below `k`,
    /// the unique child of `k` on the path to the fragment is computed from
    /// the keys alone, so maintenance cost scales with the update, not the
    /// document (§9.2's flat curves). In `Exclude` mode, fragment subtrees
    /// are filtered out (the document state on the other side of the update).
    fn child_candidates(
        &self,
        k: &FlexKey,
        restrict: Option<(NavMode, &[FlexKey])>,
    ) -> Vec<FlexKey> {
        match restrict {
            None | Some((NavMode::Free, _)) => {
                self.store.children(k).into_iter().map(|(c, _)| c).collect()
            }
            Some((NavMode::DeltaOnly, frags)) => {
                // Inside a fragment: scan freely (fragments are update-sized).
                if frags.iter().any(|f| f.is_self_or_ancestor_of(k)) {
                    return self.store.children(k).into_iter().map(|(c, _)| c).collect();
                }
                let mut set = std::collections::BTreeSet::new();
                for f in frags {
                    if k.is_ancestor_of(f) {
                        let child = FlexKey::from_segs(f.segs()[..k.depth() + 1].to_vec());
                        if self.store.node(&child).is_some() {
                            set.insert(child);
                        }
                    }
                }
                set.into_iter().collect()
            }
            Some((NavMode::Exclude, frags)) => self
                .store
                .children(k)
                .into_iter()
                .map(|(c, _)| c)
                .filter(|c| !frags.iter().any(|f| f.is_self_or_ancestor_of(c)))
                .collect(),
        }
    }

    fn descendant_candidates(
        &self,
        k: &FlexKey,
        restrict: Option<(NavMode, &[FlexKey])>,
    ) -> Vec<FlexKey> {
        match restrict {
            None | Some((NavMode::Free, _)) => {
                self.store.descendants(k).into_iter().map(|(c, _)| c).collect()
            }
            Some((NavMode::DeltaOnly, frags)) => {
                if frags.iter().any(|f| f.is_self_or_ancestor_of(k)) {
                    return self.store.descendants(k).into_iter().map(|(c, _)| c).collect();
                }
                let mut set = std::collections::BTreeSet::new();
                for f in frags {
                    if k.is_ancestor_of(f) {
                        // Nodes on the path strictly between k and f…
                        for d in k.depth() + 1..f.depth() {
                            let mid = FlexKey::from_segs(f.segs()[..d].to_vec());
                            if self.store.node(&mid).is_some() {
                                set.insert(mid);
                            }
                        }
                        // …the fragment root, and everything inside it.
                        if self.store.node(f).is_some() {
                            set.insert(f.clone());
                        }
                        for (d, _) in self.store.descendants(f) {
                            set.insert(d);
                        }
                    }
                }
                set.into_iter().collect()
            }
            Some((NavMode::Exclude, frags)) => self
                .store
                .descendants(k)
                .into_iter()
                .map(|(c, _)| c)
                .filter(|c| !frags.iter().any(|f| f.is_self_or_ancestor_of(c)))
                .collect(),
        }
    }

    // ---- predicates -----------------------------------------------------

    fn operand_values(&self, t: &XatTable, row: &Row, op: &Operand) -> EResult<Vec<Atomic>> {
        Ok(match op {
            Operand::Const(c) => vec![c.clone()],
            Operand::Col(c) => {
                let i = t.col_idx(c).ok_or_else(|| ExecError(format!("no column ${c}")))?;
                row.cells[i].items().iter().map(|it| item_atomic(it, self.store)).collect()
            }
            Operand::Path { col, steps } => {
                let i = t.col_idx(col).ok_or_else(|| ExecError(format!("no column ${col}")))?;
                let mut vals = Vec::new();
                for entry in row.cells[i].items() {
                    for hit in self.eval_path(entry, steps) {
                        vals.push(item_atomic(&hit, self.store));
                    }
                }
                vals
            }
        })
    }

    fn eval_pred(&self, t: &XatTable, row: &Row, pred: &Pred) -> EResult<bool> {
        for (l, op, r) in &pred.conjuncts {
            let lv = self.operand_values(t, row, l)?;
            let rv = self.operand_values(t, row, r)?;
            if !exists_cmp(&lv, *op, &rv) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ---- join -----------------------------------------------------------

    fn join(
        &mut self,
        l: &XatTable,
        r: &XatTable,
        pred: &Pred,
        outer: bool,
        out: &mut XatTable,
    ) -> EResult<()> {
        // Pick an equality conjunct with one side per input for hashing;
        // remaining conjuncts verify. The physical output order is arbitrary
        // — order is recovered from the Order Schema (§3.4.3, Fig 3.4).
        let is_left = |o: &Operand| o.col().is_some_and(|c| l.col_idx(c).is_some());
        let is_right = |o: &Operand| o.col().is_some_and(|c| r.col_idx(c).is_some());
        let hash_idx = pred.conjuncts.iter().position(|(a, op, b)| {
            *op == CmpOp::Eq && ((is_left(a) && is_right(b)) || (is_right(a) && is_left(b)))
        });
        match hash_idx {
            Some(hi) => {
                let (a, _, b) = &pred.conjuncts[hi];
                let (lop, rop) = if is_left(a) { (a, b) } else { (b, a) };
                let rest: Vec<_> = pred
                    .conjuncts
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != hi)
                    .map(|(_, c)| c.clone())
                    .collect();
                // Build hash on the right input.
                let mut index: HashMap<String, Vec<usize>> = HashMap::new();
                for (ri, rr) in r.rows.iter().enumerate() {
                    for v in self.operand_values(r, rr, rop)? {
                        index.entry(atom_key(&v)).or_default().push(ri);
                    }
                }
                for lr in &l.rows {
                    let mut matched = false;
                    let mut joined: Vec<usize> = Vec::new();
                    for v in self.operand_values(l, lr, lop)? {
                        if let Some(ris) = index.get(&atom_key(&v)) {
                            for &ri in ris {
                                if !joined.contains(&ri) {
                                    joined.push(ri);
                                }
                            }
                        }
                    }
                    for ri in joined {
                        let rr = &r.rows[ri];
                        if self.verify_rest(l, r, lr, rr, &rest)? {
                            matched = true;
                            let mut cells = lr.cells.clone();
                            cells.extend(rr.cells.iter().cloned());
                            out.rows.push(Row::with_count(cells, lr.count * rr.count));
                        }
                    }
                    if outer && !matched {
                        let mut cells = lr.cells.clone();
                        cells.extend(std::iter::repeat_n(Cell::Null, r.cols.len()));
                        out.rows.push(Row::with_count(cells, lr.count));
                    }
                }
            }
            None => {
                // Nested-loop fallback.
                for lr in &l.rows {
                    let mut matched = false;
                    for rr in &r.rows {
                        if self.verify_rest(l, r, lr, rr, &pred.conjuncts)? {
                            matched = true;
                            let mut cells = lr.cells.clone();
                            cells.extend(rr.cells.iter().cloned());
                            out.rows.push(Row::with_count(cells, lr.count * rr.count));
                        }
                    }
                    if outer && !matched {
                        let mut cells = lr.cells.clone();
                        cells.extend(std::iter::repeat_n(Cell::Null, r.cols.len()));
                        out.rows.push(Row::with_count(cells, lr.count));
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluate a Join / Left Outer Join with delta-aware child ordering
    /// and semi-join pushdown: the delta side (if any) is evaluated first,
    /// its join-key values restrict the other side via [`OpKind::InSet`]
    /// filters, and an empty delta short-circuits the other side entirely —
    /// keeping IMP cost proportional to the update, not the document
    /// (the paper's batch-update-tree efficiency argument, Ch. 5/9).
    fn eval_join_like(&mut self, plan: &Plan) -> EResult<XatTable> {
        let (pred, outer) = match &plan.op {
            OpKind::Join { pred } => (pred, false),
            OpKind::LeftOuterJoin { pred } => (pred, true),
            _ => unreachable!(),
        };
        let mut out = XatTable::new(plan.schema.cols.clone());
        out.order_schema = plan.schema.order.clone();
        let ldelta = plan.children[0].has_delta_source();
        let rdelta = plan.children[1].has_delta_source();
        match (ldelta, rdelta) {
            (false, false) => {
                // Inside an IMP term a side may already be restricted to
                // the delta's join partners by a pushed-down semi-join
                // filter. Evaluate that side first and restrict the other
                // with *its* keys, so the term touches the delta's join
                // neighbourhood only. (A left outer join keeps every left
                // row, so only its right side may be restricted this way.)
                let (lplan, rplan) = (&plan.children[0], &plan.children[1]);
                let (l, r) = if lplan.has_semifilter() {
                    let l = self.eval_inner(lplan)?;
                    let r = self.eval_inner(&self.semifiltered(rplan, &l, pred)?)?;
                    (l, r)
                } else if rplan.has_semifilter() && !outer {
                    let r = self.eval_inner(rplan)?;
                    let l = self.eval_inner(&self.semifiltered(lplan, &r, pred)?)?;
                    (l, r)
                } else {
                    (self.eval_inner(lplan)?, self.eval_inner(rplan)?)
                };
                self.join(&l, &r, pred, outer, &mut out)?;
            }
            (true, false) => {
                // Linear in the (delta) left input; restrict the right side
                // to join partners of the delta rows.
                let l = self.eval_inner(&plan.children[0])?;
                if l.n_rows() == 0 {
                    return Ok(out);
                }
                let rplan = self.semifiltered(&plan.children[1], &l, pred)?;
                let r = self.eval_inner(&rplan)?;
                self.join(&l, &r, pred, outer, &mut out)?;
            }
            (false, true) => {
                let r = self.eval_inner(&plan.children[1])?;
                if r.n_rows() == 0 {
                    return Ok(out);
                }
                let lplan = self.semifiltered(&plan.children[0], &r, pred)?;
                let l = self.eval_inner(&lplan)?;
                if outer {
                    self.loj_delta(&l, &r, &plan.children[1], pred, &mut out)?;
                } else {
                    self.join(&l, &r, pred, false, &mut out)?;
                }
            }
            (true, true) => {
                return Err(ExecError(
                    "both join inputs contain delta sources; IMP terms place Δ at one occurrence"
                        .into(),
                ));
            }
        }
        Ok(out)
    }

    /// Push semi-join filters into `other_plan` for every equality conjunct
    /// whose one side reads columns of the (already evaluated) `delta`
    /// table.
    fn semifiltered(&self, other_plan: &Plan, delta: &XatTable, pred: &Pred) -> EResult<Plan> {
        let mut plan = other_plan.clone();
        for (a, op, b) in &pred.conjuncts {
            if *op != CmpOp::Eq {
                continue;
            }
            let (d_op, o_op) = if a.col().is_some_and(|c| delta.col_idx(c).is_some()) {
                (a, b)
            } else if b.col().is_some_and(|c| delta.col_idx(c).is_some()) {
                (b, a)
            } else {
                continue;
            };
            let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
            let mut values: Vec<Atomic> = Vec::new();
            for row in &delta.rows {
                for v in self.operand_values(delta, row, d_op)? {
                    if seen.insert(atom_key(&v)) {
                        values.push(v);
                    }
                }
            }
            plan = plan.with_semifilter(o_op, &values);
        }
        Ok(plan)
    }

    /// The Left Outer Join delta rule (§7.4) for a delta flowing through the
    /// right input. `delta_b` is the evaluated right input (ΔB rows, signed
    /// counts); `right_plan` re-evaluates B's pre-/post-state by replacing
    /// its DeltaSource leaves. The stored state is post-update exactly when
    /// the registered delta sign is positive (inserts are applied to the
    /// store before propagation; deletes after, Ch. 7 protocol).
    fn loj_delta(
        &mut self,
        l: &XatTable,
        delta_b: &XatTable,
        right_plan: &Plan,
        pred: &Pred,
        out: &mut XatTable,
    ) -> EResult<()> {
        // 1. Joined delta rows: A ⋈ ΔB.
        self.join(l, delta_b, pred, false, out)?;
        // 2. Null-row transition corrections. Only left rows that match ΔB
        // can transition (a first/last match necessarily involves a Δ row),
        // and `l` has already been semi-join-restricted to those; the state
        // evaluation is restricted the same way. Only the *stored* state is
        // evaluated: the other state is derived by subtracting the ΔB rows
        // via ECC tuple matching (Theorem 4.3.1 — the Evaluation Context
        // Columns identify tuples across computations), saving one full
        // evaluation of the right subtree per IMP term.
        let store_is_post = self.delta_sign > 0;
        let b_stored_plan =
            self.semifiltered(&right_plan.delta_replaced(false), l, &swap_pred(pred))?;
        let b_stored = self.eval_inner(&b_stored_plan)?;
        let b_other = ecc_subtract(&b_stored, delta_b);
        let (b_pre, b_post) = if store_is_post { (b_other, b_stored) } else { (b_stored, b_other) };
        for lr in &l.rows {
            let pre = self.has_match(l, lr, &b_pre, pred)?;
            let post = self.has_match(l, lr, &b_post, pred)?;
            let sign = match (pre, post) {
                (true, false) => 1,  // lost its last match: null row appears
                (false, true) => -1, // gained a first match: null row disappears
                _ => continue,
            };
            let mut cells = lr.cells.clone();
            cells.extend(std::iter::repeat_n(Cell::Null, delta_b.cols.len()));
            out.rows.push(Row::with_count(cells, sign * lr.count.abs()));
        }
        Ok(())
    }

    fn has_match(&self, l: &XatTable, lr: &Row, b: &XatTable, pred: &Pred) -> EResult<bool> {
        for rr in &b.rows {
            if rr.count <= 0 {
                continue;
            }
            if self.verify_rest(l, b, lr, rr, &pred.conjuncts)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn verify_rest(
        &self,
        l: &XatTable,
        r: &XatTable,
        lr: &Row,
        rr: &Row,
        conjuncts: &[(Operand, CmpOp, Operand)],
    ) -> EResult<bool> {
        for (a, op, b) in conjuncts {
            let av = self.side_values(l, r, lr, rr, a)?;
            let bv = self.side_values(l, r, lr, rr, b)?;
            if !exists_cmp(&av, *op, &bv) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn side_values(
        &self,
        l: &XatTable,
        r: &XatTable,
        lr: &Row,
        rr: &Row,
        op: &Operand,
    ) -> EResult<Vec<Atomic>> {
        match op.col() {
            Some(c) if l.col_idx(c).is_some() => self.operand_values(l, lr, op),
            Some(_) => self.operand_values(r, rr, op),
            None => self.operand_values(l, lr, op),
        }
    }

    // ---- combine / group by / tagger -------------------------------------

    /// Collect all items of column `ci` across tuples, assigning overriding
    /// orders per the `combine` function of Fig 3.3 / Fig 4.3.
    fn combine_items(&mut self, t: &XatTable, ci: usize) -> EResult<Vec<Item>> {
        let t0 = Instant::now();
        let os: Vec<usize> = t.order_schema.clone();
        let col_in_os = os.iter().position(|&i| i == ci);
        let mut items = Vec::new();
        for row in &t.rows {
            for it in row.cells[ci].items() {
                let mut it = it.clone();
                match col_in_os {
                    Some(0) => {} // first order column: keys already order it
                    Some(i) => {
                        // compose(Π OST[1..=i] t)
                        let mut ord = OrdKey::empty();
                        for &oi in &os[..=i] {
                            ord = ord.compose(cell_order(&row.cells[oi]));
                        }
                        it.ord = Some(ord);
                    }
                    None => {
                        if os.is_empty() {
                            // No tuple order: mark locally unordered unless
                            // the item already carries one.
                        } else {
                            // compose(Π OST[1..m] t, order(k))
                            let mut ord = OrdKey::empty();
                            for &oi in &os {
                                ord = ord.compose(cell_order(&row.cells[oi]));
                            }
                            let own = it.order();
                            it.ord = Some(ord.compose(own));
                        }
                    }
                }
                it.count *= row.count;
                it.abs = true;
                items.push(it);
            }
        }
        self.stats.overriding += t0.elapsed();
        Ok(items)
    }

    fn group_by(
        &mut self,
        t: &XatTable,
        gcols: &[String],
        func: &GroupFunc,
        out: &mut XatTable,
    ) -> EResult<()> {
        let gis: Vec<usize> = gcols
            .iter()
            .map(|g| t.col_idx(g).ok_or_else(|| ExecError(format!("no column ${g}"))))
            .collect::<EResult<_>>()?;
        let fcol = match func {
            GroupFunc::Combine { col } | GroupFunc::Agg { col, .. } => {
                t.col_idx(col).ok_or_else(|| ExecError("group func column".into()))?
            }
        };
        // Value-based grouping.
        let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        // Grouping key: atomic values group by value, base nodes by node
        // identity, constructed nodes by their (reproducible) semantic id —
        // so groups align between initial computation and delta propagation.
        let value_key = |cell: &Cell| -> String {
            cell.items()
                .iter()
                .map(|it| match &it.r {
                    ItemRef::Val(v) => format!("v{v}"),
                    ItemRef::Base(k) => format!("k{k}"),
                    ItemRef::Cons(id) => format!("c{}", self.cons_node(*id).sem),
                })
                .collect::<Vec<_>>()
                .join("\u{2}")
        };
        for (ri, row) in t.rows.iter().enumerate() {
            let key: String =
                gis.iter().map(|&i| value_key(&row.cells[i])).collect::<Vec<_>>().join("\u{1}");
            match index.get(&key) {
                Some(&g) => groups[g].1.push(ri),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![ri]));
                }
            }
        }
        let os: Vec<usize> = t.order_schema.clone();
        for (_, rows) in groups {
            let first = &t.rows[rows[0]];
            let mut cells: Vec<Cell> = gis.iter().map(|&i| first.cells[i].clone()).collect();
            let gcount: i64 = rows.iter().map(|&ri| t.rows[ri].count).sum();
            match func {
                GroupFunc::Combine { .. } => {
                    // The nested Combine (§2.2.2 "GroupBy … Combine"): items
                    // of the group, with overriding order per Fig 4.3.
                    let t0 = Instant::now();
                    let mut items = Vec::new();
                    for &ri in &rows {
                        let row = &t.rows[ri];
                        for it in row.cells[fcol].items() {
                            let mut it = it.clone();
                            if !os.is_empty() {
                                let mut ord = OrdKey::empty();
                                for &oi in &os {
                                    ord = ord.compose(cell_order(&row.cells[oi]));
                                }
                                let own = it.order();
                                it.ord = Some(ord.compose(own));
                            }
                            it.count *= row.count;
                            it.abs = true;
                            items.push(it);
                        }
                    }
                    self.stats.overriding += t0.elapsed();
                    cells.push(Cell::seq(items));
                }
                GroupFunc::Agg { func, .. } => {
                    let mut vals: Vec<(Atomic, i64)> = Vec::new();
                    for &ri in &rows {
                        let row = &t.rows[ri];
                        for it in row.cells[fcol].items() {
                            vals.push((item_atomic(it, self.store), (it.count * row.count).max(1)));
                        }
                    }
                    let v = eval_agg(*func, &vals);
                    cells.push(Cell::one(Item {
                        r: ItemRef::Val(v),
                        ord: None,
                        count: 1,
                        abs: false,
                        delta: NavMode::Free,
                    }));
                }
            }
            out.rows.push(Row::with_count(cells, gcount));
        }
        Ok(())
    }

    fn tagger(
        &mut self,
        t: &XatTable,
        pattern: &Pattern,
        plan: &Plan,
        out: &mut XatTable,
    ) -> EResult<()> {
        let out_col = plan.schema.cols.last().expect("tagger output column");
        let multi_slot = pattern.content.len() > 1;
        for row in t.rows.iter() {
            // Resolve attributes.
            let mut attrs = Vec::with_capacity(pattern.attrs.len());
            for (k, slot) in &pattern.attrs {
                let v = match slot {
                    PatSlot::Text(s) => s.clone(),
                    PatSlot::Col(c) => {
                        let i = t.col_idx(c).ok_or_else(|| ExecError(format!("no column ${c}")))?;
                        row.cells[i]
                            .items()
                            .iter()
                            .map(|it| item_atomic(it, self.store).0)
                            .collect::<Vec<_>>()
                            .join(" ")
                    }
                };
                attrs.push((k.clone(), v));
            }
            // Collect children with slot-order prefixes (XML Union semantics).
            let t_over = Instant::now();
            let mut children = Vec::new();
            for (si, slot) in pattern.content.iter().enumerate() {
                match slot {
                    PatSlot::Text(s) => {
                        let mut it = Item::val(s.clone());
                        if multi_slot {
                            it.prefix_ord(OrdAtom::Key(FlexKey::root(flexkey::Seg::nth(si))));
                        }
                        children.push(it);
                    }
                    PatSlot::Col(c) => {
                        let i = t.col_idx(c).ok_or_else(|| ExecError(format!("no column ${c}")))?;
                        for it in row.cells[i].items() {
                            let mut it = it.clone();
                            if multi_slot {
                                it.prefix_ord(OrdAtom::Key(FlexKey::root(flexkey::Seg::nth(si))));
                            }
                            // Children keep *relative* multiplicities; the
                            // constructing tuple's count reaches them through
                            // the parent at materialization (Table 6.1).
                            children.push(it);
                        }
                    }
                }
            }
            self.stats.overriding += t_over.elapsed();
            // Generate the semantic identifier (composeNodeIds, Fig 4.4).
            let t_sem = Instant::now();
            let sem = self.compose_node_id(t, row, pattern, out_col);
            self.stats.semid += t_sem.elapsed();
            let count = row.count;
            let id = ConsId(self.cons.len() as u32);
            self.cons.push(ConsNode { sem, name: pattern.name.clone(), attrs, children, count });
            let mut cells = row.cells.clone();
            cells.push(Cell::one(Item::cons(id)));
            out.rows.push(Row::with_count(cells, row.count));
        }
        Ok(())
    }

    /// `composeNodeIds` (Fig 4.4): the id body comes from the content
    /// columns' lineage contexts resolved on this tuple; the order prefix
    /// from the output column's order context.
    fn compose_node_id(
        &self,
        t: &XatTable,
        row: &Row,
        pattern: &Pattern,
        out_col: &ColInfo,
    ) -> SemId {
        let content = pattern.content_cols();
        // The id body starts with the constructor's plan position (its
        // output column, stable across initial and IMP plans). This is our
        // realization of §4.2.2 footnote 3: Combine assigns the ambiguous
        // "*" lineage, and "when this collection is unioned or merged with
        // other results the Context … is expanded to reflect uniqueness" —
        // without it, two constructors over Star-lineage collections (or
        // two same-lineage siblings) would collide and wrongly fuse.
        let mut atoms = vec![LngAtom::Val(out_col.name.clone())];
        // The constructing tuple's identity — its Evaluation Context Columns
        // (Definition 4.2.3 / Theorem 4.3.1) — is part of every constructed
        // id: two tuples that differ in any ECC column construct *distinct*
        // result nodes even when the pattern's content columns coincide
        // (e.g. `<hit>{$e/price}</hit>` over a join: one node per ($b,$e)
        // pair, not per $e).
        let ecc = t.ecc();
        for &i in &ecc {
            lineage_atoms_of_cell(&row.cells[i], self, &mut atoms);
        }
        if content.is_empty() && ecc.is_empty() {
            atoms.push(LngAtom::Star);
        }
        for c in &content {
            self.resolve_lineage(t, row, c, &mut atoms);
        }
        let sem = SemId::constructed(atoms);
        match &out_col.cxt.ord {
            crate::context::OrdSpec::Null => sem.with_no_order(),
            crate::context::OrdSpec::Empty => sem,
            crate::context::OrdSpec::Cols(cols) => {
                let mut ord = OrdKey::empty();
                for c in cols {
                    if let Some(i) = t.col_idx(c) {
                        ord = ord.compose(cell_order(&row.cells[i]));
                    }
                }
                sem.with_ord(ord)
            }
        }
    }

    /// Resolve the lineage context of column `col` on `row` into id atoms
    /// (§4.2.1): through the column's lineage spec when it references other
    /// columns, or from the cell's own nodes when self-referential.
    fn resolve_lineage(&self, t: &XatTable, row: &Row, col: &str, out: &mut Vec<LngAtom>) {
        let Some(ci) = t.col_idx(col) else { return };
        match &t.cols[ci].cxt.lng {
            crate::context::LngSpec::Star => out.push(LngAtom::Star),
            crate::context::LngSpec::SelfRef => lineage_atoms_of_cell(&row.cells[ci], self, out),
            crate::context::LngSpec::Cols(refs) => {
                for r in refs {
                    match t.col_idx(&r.col) {
                        Some(i) => lineage_atoms_of_cell(&row.cells[i], self, out),
                        None => out.push(LngAtom::Null),
                    }
                }
            }
        }
    }
}

/// A plan subtree the path-value index can stand in for: a stored source
/// (`Source` or `ExcludeSource`) under a linear chain of φ operators, each
/// navigating plain child-axis name steps (a final attribute step allowed)
/// from the column the one below it bound. Every tuple of such a chain is
/// determined by the deepest element it binds.
struct SourceChain<'p> {
    doc: &'p str,
    /// How items of this occurrence navigate: `Free` or `Exclude`.
    mode: NavMode,
    /// The steps of the φ operators, from the source up.
    navs: Vec<&'p [Step]>,
    /// The column the chain binds last.
    top_col: &'p str,
}

impl<'p> SourceChain<'p> {
    fn of(top: &'p Plan) -> Option<SourceChain<'p>> {
        let source = |doc, mode, out| SourceChain { doc, mode, navs: Vec::new(), top_col: out };
        match &top.op {
            OpKind::Source { doc, out } => Some(source(doc, NavMode::Free, out)),
            OpKind::ExcludeSource { doc, out } => Some(source(doc, NavMode::Exclude, out)),
            OpKind::NavUnnest { col, steps, out } => {
                let mut chain = SourceChain::of(&top.children[0])?;
                if chain.top_col != col {
                    return None;
                }
                chain.navs.push(steps);
                chain.top_col = out;
                Some(chain)
            }
            _ => None,
        }
    }
}

/// Lineage atoms contributed by one cell: keys for base nodes, values for
/// atomics, the constructed node's own id body for constructed nodes.
fn lineage_atoms_of_cell(cell: &Cell, ex: &Executor<'_>, out: &mut Vec<LngAtom>) {
    if cell.is_null() {
        out.push(LngAtom::Null);
        return;
    }
    for it in cell.items() {
        match &it.r {
            ItemRef::Base(k) => out.push(LngAtom::Key(k.clone())),
            ItemRef::Val(v) => out.push(LngAtom::Val(v.0.clone())),
            ItemRef::Cons(id) => match &ex.cons_node(*id).sem.body {
                flexkey::semid::SemBody::Base(k) => out.push(LngAtom::Key(k.clone())),
                flexkey::semid::SemBody::Constructed(atoms) => out.extend(atoms.iter().cloned()),
            },
        }
    }
}

/// The order key represented by a (single-item) cell.
fn cell_order(cell: &Cell) -> OrdKey {
    match cell.as_one() {
        Some(it) => it.order(),
        None => OrdKey::empty(),
    }
}

/// The atomic value of an item (string value for base nodes).
pub fn item_atomic(item: &Item, store: &Store) -> Atomic {
    match &item.r {
        ItemRef::Val(v) => v.clone(),
        ItemRef::Base(k) => Atomic(store.string_value(k)),
        ItemRef::Cons(_) => Atomic::new(""),
    }
}

/// Order atom of an item for Order By keys.
fn item_ord_value(item: &Item, store: &Store) -> OrdAtom {
    item_atomic(item, store).ord_atom()
}

/// Existential comparison between two value sequences.
fn exists_cmp(a: &[Atomic], op: CmpOp, b: &[Atomic]) -> bool {
    a.iter().any(|x| {
        b.iter().any(|y| {
            let c = x.val_cmp(y);
            match op {
                CmpOp::Eq => c == Ordering::Equal,
                CmpOp::Ne => c != Ordering::Equal,
                CmpOp::Lt => c == Ordering::Less,
                CmpOp::Le => c != Ordering::Greater,
                CmpOp::Gt => c == Ordering::Greater,
                CmpOp::Ge => c != Ordering::Less,
            }
        })
    })
}

/// A predicate with each conjunct's operands swapped (so `semifiltered` can
/// treat the left table as the "delta" side when restricting B-state plans).
/// Remove from `base` the tuples that ECC-match a tuple of `delta`
/// (Definition 4.2.4): the stored right-input state minus the delta rows.
/// Each delta row cancels at most one base row.
fn ecc_subtract(base: &XatTable, delta: &XatTable) -> XatTable {
    let ecc = base.ecc();
    let key_of = |t: &XatTable, row: &Row| -> String {
        let mut s = String::new();
        for &i in &ecc {
            let Some(cell) = row.cells.get(i) else { continue };
            let _ = t;
            for it in cell.items() {
                match &it.r {
                    ItemRef::Base(k) => {
                        s.push('k');
                        s.push_str(&k.to_string());
                    }
                    ItemRef::Val(v) => {
                        s.push('v');
                        s.push_str(&v.0);
                    }
                    ItemRef::Cons(_) => s.push('c'),
                }
                s.push('\u{2}');
            }
            s.push('\u{1}');
        }
        s
    };
    let mut removals: HashMap<String, usize> = HashMap::new();
    for dr in &delta.rows {
        *removals.entry(key_of(delta, dr)).or_insert(0) += 1;
    }
    let mut out = XatTable::new(base.cols.clone());
    out.order_schema = base.order_schema.clone();
    for row in &base.rows {
        let k = key_of(base, row);
        if let Some(n) = removals.get_mut(&k) {
            if *n > 0 {
                *n -= 1;
                continue;
            }
        }
        out.rows.push(row.clone());
    }
    out
}

fn swap_pred(p: &Pred) -> Pred {
    Pred { conjuncts: p.conjuncts.iter().map(|(a, op, b)| (b.clone(), *op, a.clone())).collect() }
}

fn atom_key(a: &Atomic) -> String {
    // Numeric-aware hash key so 70 == 70.0 joins.
    match a.as_num() {
        Some(n) => format!("n{n}"),
        None => format!("s{}", a.0),
    }
}

/// Evaluate an aggregate over (value, multiplicity) pairs.
fn eval_agg(func: AggFunc, vals: &[(Atomic, i64)]) -> Atomic {
    match func {
        AggFunc::Count => Atomic::new(vals.iter().map(|(_, c)| *c).sum::<i64>().to_string()),
        AggFunc::Sum | AggFunc::Avg => {
            let mut sum = 0.0;
            let mut n = 0i64;
            for (v, c) in vals {
                if let Some(x) = v.as_num() {
                    sum += x * *c as f64;
                    n += *c;
                }
            }
            if func == AggFunc::Sum {
                Atomic::new(fmt_num(sum))
            } else if n > 0 {
                Atomic::new(fmt_num(sum / n as f64))
            } else {
                Atomic::new("")
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Atomic> = None;
            for (v, _) in vals {
                best = Some(match best {
                    None => v.clone(),
                    Some(b) => {
                        let keep_v = match func {
                            AggFunc::Min => v.val_cmp(&b) == Ordering::Less,
                            _ => v.val_cmp(&b) == Ordering::Greater,
                        };
                        if keep_v {
                            v.clone()
                        } else {
                            b
                        }
                    }
                });
            }
            best.unwrap_or_else(|| Atomic::new(""))
        }
    }
}

fn fmt_num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::annotate;

    const BIB: &str = r#"<bib>
        <book year="1994"><title>TCP/IP Illustrated</title></book>
        <book year="2000"><title>Data on the Web</title></book>
        <book year="1994.0"><title>Advanced Unix</title></book>
        <book><title>Undated</title></book>
    </bib>"#;

    const PRICES: &str = r#"<prices>
        <entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry>
        <entry><price>39.95</price><b-title>Data on the Web</b-title></entry>
        <entry><price>12.00</price><b-title>Data on the Web</b-title><b-title>Both</b-title></entry>
        <entry><price>55.48</price><b-title>Unlisted</b-title></entry>
    </prices>"#;

    const MIXED: &str = r#"<lib><item><name>plain</name></item>
                                <item><name>pla<b>in</b></name></item></lib>"#;

    fn store() -> Store {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        s.load_doc("prices.xml", PRICES).unwrap();
        s.load_doc("lib.xml", MIXED).unwrap();
        s
    }

    fn name(n: &str) -> Step {
        Step::child(NodeTest::Name(n.into()))
    }

    fn attr(n: &str) -> Step {
        Step::child(NodeTest::Attr(n.into()))
    }

    /// `source → φ steps → …`, one φ per entry of `navs`, binding `c1`, `c2`, ….
    fn chain(source: OpKind, navs: &[&[Step]]) -> Plan {
        let mut plan = Plan::leaf(source);
        for (i, steps) in navs.iter().enumerate() {
            let col = if i == 0 { "S".to_string() } else { format!("c{i}") };
            let op = OpKind::NavUnnest { col, steps: steps.to_vec(), out: format!("c{}", i + 1) };
            plan = Plan::unary(op, plan);
        }
        plan
    }

    fn source(doc: &str) -> OpKind {
        OpKind::Source { doc: doc.into(), out: "S".into() }
    }

    fn in_set(operand: Operand, values: &[&str], input: Plan) -> Plan {
        let values = values.iter().map(|v| Atomic::new(*v)).collect();
        let mut plan = Plan::unary(OpKind::InSet { operand, values }, input);
        annotate(&mut plan).unwrap();
        plan
    }

    /// The filter evaluated the ordinary way: the whole chain, then the
    /// operator's predicate row by row.
    fn scanned(ex: &mut Executor<'_>, plan: &Plan) -> Vec<Row> {
        let input = ex.eval_inner(&plan.children[0]).unwrap();
        let keep = |row: &Row| match &plan.op {
            OpKind::Select { pred } => ex.eval_pred(&input, row, pred).unwrap(),
            OpKind::InSet { operand, values } => {
                let got = ex.operand_values(&input, row, operand).unwrap();
                got.iter().any(|v| values.iter().any(|w| atom_key(v) == atom_key(w)))
            }
            _ => unreachable!(),
        };
        input.rows.iter().filter(|row| keep(row)).cloned().collect()
    }

    /// The index answers `plan` with exactly the scan's rows, in its order.
    fn assert_indexed(ex: &mut Executor<'_>, plan: &Plan, rows: usize) {
        let probes = ex.stats.index_probes;
        let indexed = ex.eval_indexed(plan).unwrap().expect("an index answer");
        let wanted = match &plan.op {
            OpKind::InSet { values, .. } => values.len() as u64,
            _ => 1,
        };
        assert_eq!(ex.stats.index_probes - probes, wanted, "one probe per wanted value");
        assert_eq!(indexed.rows, scanned(ex, plan));
        assert_eq!(indexed.rows.len(), rows);
        let whole = ex.eval_inner(plan).unwrap();
        assert_eq!((whole.rows, whole.order_schema), (indexed.rows, indexed.order_schema));
    }

    #[test]
    fn indexed_filters_return_the_scan_rows_in_scan_order() {
        let s = store();
        let mut ex = Executor::new(&s);
        let entries = [name("prices"), name("entry")];
        let b_title = Operand::Path { col: "c1".into(), steps: vec![name("b-title")] };

        // The semi-join filter of an IMP term: wanted values in any order,
        // present or not; an entry with two matching titles is one row.
        let wanted = ["Both", "Nobody's", "Data on the Web"];
        let plan = in_set(b_title.clone(), &wanted, chain(source("prices.xml"), &[&entries]));
        assert_indexed(&mut ex, &plan, 2);
        assert_indexed(&mut ex, &in_set(b_title.clone(), &[], plan.children[0].clone()), 0);

        // A value column bound by a second φ; years equal as numbers.
        let books = [name("bib"), name("book")];
        let years = chain(source("bib.xml"), &[&books, &[attr("year")]]);
        assert_indexed(&mut ex, &in_set(Operand::Col("c2".into()), &["1994"], years), 2);
        let years = chain(source("bib.xml"), &[&[name("bib"), name("book"), attr("year")]]);
        assert_indexed(&mut ex, &in_set(Operand::Col("c1".into()), &["1994", "2000"], years), 3);

        // An equality selection against a constant.
        let year = Operand::Path { col: "c1".into(), steps: vec![attr("year")] };
        let pred = Pred::eq(year, Operand::Const(Atomic::new("1994.00")));
        let mut select = Plan::unary(OpKind::Select { pred }, chain(source("bib.xml"), &[&books]));
        annotate(&mut select).unwrap();
        assert_indexed(&mut ex, &select, 2);
    }

    #[test]
    fn indexed_filter_skips_the_update_fragments_of_an_excluded_source() {
        let s = store();
        let entries = s.children_named(&s.doc_root("prices.xml").unwrap(), "entry");
        let mut ex = Executor::new(&s);
        ex.set_delta("prices.xml", vec![entries[1].clone()], 1);
        let b_title = Operand::Path { col: "c1".into(), steps: vec![name("b-title")] };
        let excluded = OpKind::ExcludeSource { doc: "prices.xml".into(), out: "S".into() };
        let input = chain(excluded, &[&[name("prices"), name("entry")]]);
        assert_indexed(&mut ex, &in_set(b_title, &["Data on the Web"], input), 1);
    }

    #[test]
    fn what_the_index_cannot_answer_is_scanned() {
        let s = store();
        let mut ex = Executor::new(&s);
        let item_name = Operand::Path { col: "c1".into(), steps: vec![name("name")] };
        let cases = [
            // Mixed content at the path: both names read "plain".
            (item_name, "plain", chain(source("lib.xml"), &[&[name("lib"), name("item")]]), 2),
            // The descendant axis.
            (
                Operand::Path { col: "c1".into(), steps: vec![name("title")] },
                "Undated",
                chain(source("bib.xml"), &[&[Step::descendant(NodeTest::Name("book".into()))]]),
                1,
            ),
            // An operand that is not the chain's last column.
            (
                Operand::Path { col: "S".into(), steps: vec![name("bib"), name("book")] },
                "Undated",
                chain(source("bib.xml"), &[&[name("bib")]]),
                1,
            ),
            // NaN equals nothing by key and every number by comparison.
            (
                Operand::Path { col: "c1".into(), steps: vec![attr("year")] },
                "NaN",
                chain(source("bib.xml"), &[&[name("bib"), name("book")]]),
                0,
            ),
        ];
        for (operand, value, input, rows) in cases {
            let plan = in_set(operand, &[value], input);
            assert!(ex.eval_indexed(&plan).unwrap().is_none(), "{plan}");
            assert_eq!(ex.eval_inner(&plan).unwrap().rows, scanned(&mut ex, &plan));
            assert_eq!(scanned(&mut ex, &plan).len(), rows, "{plan}");
        }
    }
}

//! XAT algebra plans: operator definitions (§2.2.2) and the schema
//! annotation pass that computes each table's **Order Schema** (Table 3.1)
//! and every column's **Context Schema** (Table 4.1).
//!
//! Annotation happens once, at plan build time — "this cost … does not
//! depend on the size of processed data" (§3.4.2) — and is timed separately
//! so the Figure 3.7–3.10 cost breakdowns can report it.

use crate::context::{ContextSchema, LngCol, LngSpec, OrdSpec};
use crate::table::ColInfo;
use crate::value::Atomic;
use std::fmt;
use xquery_lang::{AggFunc, CmpOp, NodeTest, Step};

/// A scalar operand in selection / join predicates.
#[derive(Clone, Debug, PartialEq)]
pub enum Operand {
    /// The value(s) of a column's cell.
    Col(String),
    /// Values reached by navigating `steps` from the column's node(s)
    /// (`$b/title`); comparison is existential over the resulting sequence.
    Path { col: String, steps: Vec<Step> },
    /// A constant.
    Const(Atomic),
}

impl Operand {
    /// Column this operand reads, if any.
    pub fn col(&self) -> Option<&str> {
        match self {
            Operand::Col(c) | Operand::Path { col: c, .. } => Some(c),
            Operand::Const(_) => None,
        }
    }
}

/// A conjunction of comparisons (the paper's ComparisonExpr `where` subset).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Pred {
    pub conjuncts: Vec<(Operand, CmpOp, Operand)>,
}

impl Pred {
    pub fn eq(l: Operand, r: Operand) -> Pred {
        Pred { conjuncts: vec![(l, CmpOp::Eq, r)] }
    }

    pub fn and(mut self, c: (Operand, CmpOp, Operand)) -> Pred {
        self.conjuncts.push(c);
        self
    }
}

/// One slot of a Tagger pattern: a column reference or literal text.
///
/// A multi-slot pattern subsumes the explicit `XML Union` chain the paper's
/// plans insert before a Tagger (Fig 2.2 operator #13): each slot receives a
/// fixed, plan-stable order prefix exactly as `assignColIdPrfx` (Fig 4.5)
/// would assign, so slot order — hence query-imposed construction order — is
/// reproducible across initial computation and delta propagation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatSlot {
    Col(String),
    Text(String),
}

/// A Tagger pattern: one element template (`<entry>{$col4}</entry>`). The
/// translator emits one Tagger per element constructor, as Rainbow does
/// ("the Tagger does not build the result hierarchy", §2.2.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pattern {
    pub name: String,
    /// Attributes: literal or single-column slots (`Y="{$y}"`).
    pub attrs: Vec<(String, PatSlot)>,
    pub content: Vec<PatSlot>,
}

impl Pattern {
    /// Columns referenced by content slots, in slot order.
    pub fn content_cols(&self) -> Vec<&str> {
        self.content
            .iter()
            .filter_map(|s| match s {
                PatSlot::Col(c) => Some(c.as_str()),
                PatSlot::Text(_) => None,
            })
            .collect()
    }

    /// Columns referenced anywhere (attributes first, then content).
    pub fn all_cols(&self) -> Vec<&str> {
        self.attrs
            .iter()
            .filter_map(|(_, s)| match s {
                PatSlot::Col(c) => Some(c.as_str()),
                PatSlot::Text(_) => None,
            })
            .chain(self.content_cols())
            .collect()
    }
}

/// The function applied inside a Group By (§2.2.2: "we mainly consider the
/// parameter func to be a Combine operator or an aggregate function").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroupFunc {
    /// Nest: combine the column's items into one sequence per group.
    Combine { col: String },
    /// Aggregate the column's values per group into `out`.
    Agg { func: AggFunc, col: String, out: String },
}

/// XAT operators (§2.2.2). Binary operators take their inputs from the plan
/// node's two children; unary ones from the single child.
#[derive(Clone, Debug, PartialEq)]
pub enum OpKind {
    /// Leaf: a single empty tuple — the translator's seed for constructors
    /// whose children are independent sub-queries (Fig 2.3's Merge pattern).
    Unit,
    /// Leaf: the whole document as a single-column, single-tuple table.
    Source { doc: String, out: String },
    /// Leaf for incremental maintenance plans: like `Source`, but navigation
    /// is restricted to the update fragments registered for `doc` in the
    /// executor's delta context — the algebraic encoding of processing the
    /// *batch update tree* through the view (Ch. 7).
    DeltaSource { doc: String, out: String },
    /// Leaf reading `doc` with the registered update fragments excluded —
    /// the document state "on the other side" of the update (pre-state for
    /// inserts, post-state for deletes). Needed by the telescoped
    /// propagation terms when a document occurs more than once in the view
    /// (§7.2, §7.5): `Δ(V) = Σᵢ V(S_pre^{<i}, Δᵢ, S_post^{>i})`.
    ExcludeSource { doc: String, out: String },
    /// φ — navigate + unnest (§2.2.2).
    NavUnnest { col: String, steps: Vec<Step>, out: String },
    /// Φ — navigate, keeping the result as one collection per input tuple.
    NavCollection { col: String, steps: Vec<Step>, out: String },
    /// σ.
    Select { pred: Pred },
    /// ⋈ (binary).
    Join { pred: Pred },
    /// ⟕ left outer join (binary).
    LeftOuterJoin { pred: Pred },
    /// × (binary).
    Cartesian,
    /// δ — duplicate elimination by value of `col`.
    Distinct { col: String },
    /// γ — value-based grouping with a Combine or aggregate function.
    GroupBy { cols: Vec<String>, func: GroupFunc },
    /// τ — produces an order-values column `out` from the listed key columns
    /// (bool = descending); does **not** physically sort (§3.4.3).
    OrderBy { keys: Vec<(String, bool)>, out: String },
    /// C — collapse the table to one tuple whose `col` cell holds every
    /// item, with overriding orders assigned per Fig 3.3 / Fig 4.3.
    Combine { col: String },
    /// T — construct new nodes from a pattern.
    Tagger { pattern: Pattern, out: String },
    /// ∪x — union two columns' sequences into `out` with column-id order
    /// prefixes (Fig 4.5).
    XmlUnion { a: String, b: String, out: String },
    /// υ — remove duplicates (by node identity) from sequences in `col`.
    XmlUnique { col: String, out: String },
    /// Per-tuple aggregate over the items of `col` (supports `count($x/p)`
    /// in return clauses).
    AggCol { col: String, func: AggFunc, out: String },
    /// M — merge two (usually single-tuple) tables side by side; a
    /// single-tuple side is broadcast.
    Merge,
    /// Semi-join filter: keep tuples whose operand values intersect the
    /// given set. Not part of the paper's surface algebra — it is the
    /// engine-level realization of processing *only* the update-relevant
    /// part of the non-delta join side, which the paper's update-tree
    /// propagation achieves implicitly. Inserted at execution time by the
    /// delta join rules; never produced by the translator.
    InSet { operand: Operand, values: Vec<Atomic> },
}

/// A plan node. `schema` is filled in by [`annotate`].
#[derive(Clone, Debug)]
pub struct Plan {
    pub op: OpKind,
    pub children: Vec<Plan>,
    pub schema: Schema,
}

/// Computed output schema of a plan node.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    pub cols: Vec<ColInfo>,
    /// Order Schema: indices into `cols` (Table 3.1).
    pub order: Vec<usize>,
}

impl Schema {
    pub fn col_idx(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.name == name)
    }

    pub fn col(&self, name: &str) -> Option<&ColInfo> {
        self.cols.iter().find(|c| c.name == name)
    }

    fn order_col_names(&self) -> Vec<String> {
        self.order.iter().map(|&i| self.cols[i].name.clone()).collect()
    }

    /// The order-determining column names for `col`: its own name when the
    /// ord spec is `()`, the listed columns otherwise, none when null.
    fn ord_cols_of(&self, name: &str) -> Vec<String> {
        match self.col(name).map(|c| &c.cxt.ord) {
            Some(OrdSpec::Empty) => vec![name.to_string()],
            Some(OrdSpec::Cols(c)) => c.clone(),
            _ => Vec::new(),
        }
    }

    /// One-level lineage resolution: the lineage columns of `col`, or `col`
    /// itself when self-referential.
    fn lng_cols_of(&self, name: &str) -> Vec<LngCol> {
        match self.col(name).map(|c| &c.cxt.lng) {
            Some(LngSpec::Cols(c)) => c.clone(),
            _ => vec![LngCol::plain(name)],
        }
    }
}

impl Plan {
    pub fn leaf(op: OpKind) -> Plan {
        Plan { op, children: Vec::new(), schema: Schema::default() }
    }

    pub fn unary(op: OpKind, child: Plan) -> Plan {
        Plan { op, children: vec![child], schema: Schema::default() }
    }

    pub fn binary(op: OpKind, left: Plan, right: Plan) -> Plan {
        Plan { op, children: vec![left, right], schema: Schema::default() }
    }

    /// Number of operators in the plan.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(Plan::size).sum::<usize>()
    }

    /// Source documents referenced by this plan (with duplicates removed),
    /// in leaf order.
    pub fn source_docs(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_docs(&mut out);
        out
    }

    fn collect_docs(&self, out: &mut Vec<String>) {
        if let OpKind::Source { doc, .. }
        | OpKind::DeltaSource { doc, .. }
        | OpKind::ExcludeSource { doc, .. } = &self.op
        {
            if !out.contains(doc) {
                out.push(doc.clone());
            }
        }
        for c in &self.children {
            c.collect_docs(out);
        }
    }

    /// Replace the `Source` leaves reading `doc` with `DeltaSource` leaves —
    /// the plan transformation that derives an Incremental Maintenance Plan
    /// (Ch. 7): `V(S1, S2) → V(ΔS1, S2)`. Correct on its own only when the
    /// document occurs once in the plan; for multiple occurrences use the
    /// telescoped [`Plan::imp_term`]s.
    pub fn with_delta_source(&self, doc: &str) -> Plan {
        let op = match &self.op {
            OpKind::Source { doc: d, out } if d == doc => {
                OpKind::DeltaSource { doc: d.clone(), out: out.clone() }
            }
            other => other.clone(),
        };
        Plan {
            op,
            children: self.children.iter().map(|c| c.with_delta_source(doc)).collect(),
            schema: self.schema.clone(),
        }
    }

    /// True if this subtree contains a `DeltaSource` leaf.
    pub fn has_delta_source(&self) -> bool {
        matches!(self.op, OpKind::DeltaSource { .. })
            || self.children.iter().any(Plan::has_delta_source)
    }

    /// True if this subtree contains a pushed-down semi-join filter
    /// ([`OpKind::InSet`]): it is already restricted to some delta's join
    /// partners.
    pub fn has_semifilter(&self) -> bool {
        matches!(self.op, OpKind::InSet { .. }) || self.children.iter().any(Plan::has_semifilter)
    }

    /// Replace every `DeltaSource` leaf by a plain `Source` (`false`) or an
    /// `ExcludeSource` (`true`) — used by the Left Outer Join delta rule
    /// (§7.4) to evaluate the right input's pre-/post-state.
    pub fn delta_replaced(&self, exclude: bool) -> Plan {
        let op = match &self.op {
            OpKind::DeltaSource { doc, out } => {
                if exclude {
                    OpKind::ExcludeSource { doc: doc.clone(), out: out.clone() }
                } else {
                    OpKind::Source { doc: doc.clone(), out: out.clone() }
                }
            }
            other => other.clone(),
        };
        Plan {
            op,
            children: self.children.iter().map(|c| c.delta_replaced(exclude)).collect(),
            schema: self.schema.clone(),
        }
    }

    /// Insert an [`OpKind::InSet`] semi-join filter at the deepest point of
    /// this plan where the operand's column exists (just above the operator
    /// that creates it), so navigation below stays cheap and everything
    /// above — joins, taggers, grouping — processes only update-relevant
    /// tuples.
    pub fn with_semifilter(&self, operand: &Operand, values: &[Atomic]) -> Plan {
        let Some(col) = operand.col() else { return self.clone() };
        if self.schema.col_idx(col).is_none() {
            return self.clone();
        }
        self.push_semifilter(col, operand, values)
    }

    fn push_semifilter(&self, col: &str, operand: &Operand, values: &[Atomic]) -> Plan {
        // Descend into the unique child still carrying the column.
        let carriers: Vec<usize> = self
            .children
            .iter()
            .enumerate()
            .filter(|(_, c)| c.schema.col_idx(col).is_some())
            .map(|(i, _)| i)
            .collect();
        if carriers.len() == 1 {
            let i = carriers[0];
            let mut out = self.clone();
            out.children[i] = out.children[i].push_semifilter(col, operand, values);
            return out;
        }
        // The column is created here (or ambiguous): filter right above.
        let schema = self.schema.clone();
        Plan {
            op: OpKind::InSet { operand: operand.clone(), values: values.to_vec() },
            children: vec![self.clone()],
            schema,
        }
    }

    /// Number of `Source` leaves reading `doc` (occurrences of the document
    /// in the view definition — 2 for self-join views, §7.5, and for views
    /// like Figure 1.2(a) whose outer and inner blocks both scan bib.xml).
    pub fn count_sources(&self, doc: &str) -> usize {
        let own = matches!(&self.op, OpKind::Source { doc: d, .. } if d == doc) as usize;
        own + self.children.iter().map(|c| c.count_sources(doc)).sum::<usize>()
    }

    /// The `term`-th telescoped incremental maintenance plan for `doc`
    /// (0-based, `term < count_sources(doc)`):
    ///
    /// ```text
    /// Δ(V) = Σᵢ V(S_pre at occurrences < i,  Δ at occurrence i,  S_post at occurrences > i)
    /// ```
    ///
    /// The store holds exactly one physical state — post-update when
    /// propagating inserts (apply first, then propagate), pre-update when
    /// propagating deletes (propagate first, then apply). `store_is_post`
    /// says which, and decides whether "the other state" (reached via
    /// [`OpKind::ExcludeSource`]) is needed before or after the Δ
    /// occurrence.
    pub fn imp_term(&self, doc: &str, term: usize, store_is_post: bool) -> Plan {
        let mut counter = 0usize;
        self.imp_term_walk(doc, term, store_is_post, &mut counter)
    }

    fn imp_term_walk(
        &self,
        doc: &str,
        term: usize,
        store_is_post: bool,
        counter: &mut usize,
    ) -> Plan {
        let op = match &self.op {
            OpKind::Source { doc: d, out } if d == doc => {
                let i = *counter;
                *counter += 1;
                if i == term {
                    OpKind::DeltaSource { doc: d.clone(), out: out.clone() }
                } else {
                    // Occurrences before the Δ see the pre-state, after it
                    // the post-state; whichever differs from the stored
                    // state is an ExcludeSource.
                    let needs_exclude = if store_is_post { i < term } else { i > term };
                    if needs_exclude {
                        OpKind::ExcludeSource { doc: d.clone(), out: out.clone() }
                    } else {
                        OpKind::Source { doc: d.clone(), out: out.clone() }
                    }
                }
            }
            other => other.clone(),
        };
        Plan {
            op,
            children: self
                .children
                .iter()
                .map(|c| c.imp_term_walk(doc, term, store_is_post, counter))
                .collect(),
            schema: self.schema.clone(),
        }
    }
}

/// `true` if every location step dereferences a value (attribute / text) —
/// such navigations keep the entry point's order and lineage (Table 3.1
/// category IV note and Table 4.1 category III special case).
pub fn is_value_path(steps: &[Step]) -> bool {
    !steps.is_empty() && steps.iter().all(|s| matches!(s.test, NodeTest::Attr(_) | NodeTest::Text))
}

/// Annotate a plan bottom-up: compute output columns, Context Schemas
/// (Table 4.1) and Order Schemas (Table 3.1).
///
/// Returns an error message for malformed plans (unknown columns etc.).
pub fn annotate(plan: &mut Plan) -> Result<(), String> {
    for c in &mut plan.children {
        annotate(c)?;
    }
    let schema = match &plan.op {
        OpKind::Unit => Schema::default(),
        OpKind::Source { out, .. }
        | OpKind::DeltaSource { out, .. }
        | OpKind::ExcludeSource { out, .. } => Schema {
            cols: vec![ColInfo { name: out.clone(), cxt: ContextSchema::source() }],
            order: Vec::new(),
        },
        OpKind::NavUnnest { col, steps, out } => {
            let input = &plan.children[0].schema;
            let in_idx =
                input.col_idx(col).ok_or_else(|| format!("NavUnnest: unknown column ${col}"))?;
            let mut cols = input.cols.clone();
            let value_nav = is_value_path(steps);
            let cxt = if value_nav {
                // Values inherit the entry point's order and lineage.
                let ord = match &input.col(col).unwrap().cxt.ord {
                    OrdSpec::Null => OrdSpec::Null,
                    OrdSpec::Empty => OrdSpec::Cols(vec![col.clone()]),
                    OrdSpec::Cols(c) => OrdSpec::Cols(c.clone()),
                };
                ContextSchema::new(ord, LngSpec::Cols(vec![LngCol::plain(col.clone())]))
            } else {
                // Category III: unnested nodes get self lineage; order is the
                // entry order composed with the new column (implicit in the
                // self lineage, so `()` when the entry has no imposed order).
                let ord = match &input.col(col).unwrap().cxt.ord {
                    OrdSpec::Null | OrdSpec::Empty => OrdSpec::Empty,
                    OrdSpec::Cols(c) => OrdSpec::Cols(c.clone()),
                };
                ContextSchema::new(ord, LngSpec::SelfRef)
            };
            cols.push(ColInfo { name: out.clone(), cxt });
            // Order Schema (Table 3.1 cat IV): append `out`, dropping the
            // entry column if it is the last order column; value navigations
            // keep the input Order Schema unchanged.
            let mut order = input.order.clone();
            if !value_nav {
                if order.last() == Some(&in_idx) {
                    order.pop();
                }
                order.push(cols.len() - 1);
            }
            Schema { cols, order }
        }
        OpKind::NavCollection { col, steps: _, out } => {
            let input = &plan.children[0].schema;
            let in_cxt =
                &input.col(col).ok_or_else(|| format!("NavCollection: unknown column ${col}"))?.cxt;
            // Category II: collections keep the entry's lineage and order.
            let ord = match &in_cxt.ord {
                OrdSpec::Null => OrdSpec::Null,
                OrdSpec::Empty => OrdSpec::Empty,
                OrdSpec::Cols(c) => OrdSpec::Cols(c.clone()),
            };
            let lng = LngSpec::Cols(input.lng_cols_of(col));
            let mut cols = input.cols.clone();
            cols.push(ColInfo { name: out.clone(), cxt: ContextSchema::new(ord, lng) });
            Schema { cols, order: input.order.clone() }
        }
        OpKind::Select { .. } | OpKind::InSet { .. } => plan.children[0].schema.clone(),
        OpKind::AggCol { col, out, .. } => {
            let input = &plan.children[0].schema;
            let lng = LngSpec::Cols(input.lng_cols_of(col));
            let mut cols = input.cols.clone();
            cols.push(ColInfo { name: out.clone(), cxt: ContextSchema::new(OrdSpec::Null, lng) });
            Schema { cols, order: input.order.clone() }
        }
        OpKind::Join { .. } | OpKind::LeftOuterJoin { .. } | OpKind::Cartesian => {
            let (l, r) = (&plan.children[0].schema, &plan.children[1].schema);
            let l_os = l.order_col_names();
            let r_os = r.order_col_names();
            let mut cols = Vec::with_capacity(l.cols.len() + r.cols.len());
            // Category IX: left columns get (own.ord + OS(T2)); right columns
            // get (OS(T1) + own.ord).
            for c in &l.cols {
                let own = l.ord_cols_of(&c.name);
                let composed: Vec<String> = dedup(own.into_iter().chain(r_os.iter().cloned()));
                cols.push(ColInfo {
                    name: c.name.clone(),
                    cxt: ContextSchema::new(cols_or_empty(composed, &c.name), c.cxt.lng.clone()),
                });
            }
            for c in &r.cols {
                let own = r.ord_cols_of(&c.name);
                let composed: Vec<String> = dedup(l_os.iter().cloned().chain(own));
                cols.push(ColInfo {
                    name: c.name.clone(),
                    cxt: ContextSchema::new(cols_or_empty(composed, &c.name), c.cxt.lng.clone()),
                });
            }
            // Order Schema (cat III): OS(T1) ++ OS(T2).
            let order =
                l.order.iter().copied().chain(r.order.iter().map(|&i| i + l.cols.len())).collect();
            Schema { cols, order }
        }
        OpKind::Distinct { col } => {
            let input = &plan.children[0].schema;
            if input.col_idx(col).is_none() {
                return Err(format!("Distinct: unknown column ${col}"));
            }
            // Category VIII: order destroyed (Table 3.1 cat II) and every
            // column re-rooted at the distinct column. Re-rooted columns
            // carry no usable identity (their cells belong to an arbitrary
            // representative tuple), so we project them away: the output is
            // the distinct column alone, with self lineage.
            let cols = vec![ColInfo {
                name: col.clone(),
                cxt: ContextSchema::new(OrdSpec::Null, LngSpec::SelfRef),
            }];
            Schema { cols, order: Vec::new() }
        }
        OpKind::GroupBy { cols: gcols, func } => {
            let input = &plan.children[0].schema;
            for g in gcols {
                if input.col_idx(g).is_none() {
                    return Err(format!("GroupBy: unknown column ${g}"));
                }
            }
            // Category VI (value-based): groups are identified by the values
            // of the grouping columns, which remain in the output — so the
            // grouping columns become self-lineage (they *are* the group
            // identity) and every other output column derives from them
            // (Fig 4.2 #15: `$col5 [$y]`). No order among value groups.
            let group_lng: Vec<LngCol> = gcols.iter().map(|g| LngCol::plain(g.clone())).collect();
            let mut cols: Vec<ColInfo> = gcols
                .iter()
                .map(|g| ColInfo {
                    name: g.clone(),
                    cxt: ContextSchema::new(OrdSpec::Null, LngSpec::SelfRef),
                })
                .collect();
            match func {
                GroupFunc::Combine { col } => {
                    if input.col_idx(col).is_none() {
                        return Err(format!("GroupBy/Combine: unknown column ${col}"));
                    }
                    cols.push(ColInfo {
                        name: col.clone(),
                        cxt: ContextSchema::new(OrdSpec::Null, LngSpec::Cols(group_lng)),
                    });
                }
                GroupFunc::Agg { out, col, .. } => {
                    if input.col_idx(col).is_none() {
                        return Err(format!("GroupBy/Agg: unknown column ${col}"));
                    }
                    cols.push(ColInfo {
                        name: out.clone(),
                        cxt: ContextSchema::new(OrdSpec::Null, LngSpec::Cols(group_lng)),
                    });
                }
            }
            Schema { cols, order: Vec::new() }
        }
        OpKind::OrderBy { keys, out } => {
            let input = &plan.children[0].schema;
            for (k, _) in keys {
                if input.col_idx(k).is_none() {
                    return Err(format!("OrderBy: unknown column ${k}"));
                }
            }
            // Category XI: all columns ordered by the new order-values column.
            let mut cols: Vec<ColInfo> = input
                .cols
                .iter()
                .map(|c| ColInfo {
                    name: c.name.clone(),
                    cxt: ContextSchema::new(OrdSpec::Cols(vec![out.clone()]), c.cxt.lng.clone()),
                })
                .collect();
            cols.push(ColInfo {
                name: out.clone(),
                cxt: ContextSchema::new(OrdSpec::Empty, LngSpec::SelfRef),
            });
            let order = vec![cols.len() - 1];
            Schema { cols, order }
        }
        OpKind::Combine { col } => {
            let input = &plan.children[0].schema;
            if input.col_idx(col).is_none() {
                return Err(format!("Combine: unknown column ${col}"));
            }
            // Category IV: single collection with the "All" lineage.
            Schema {
                cols: vec![ColInfo {
                    name: col.clone(),
                    cxt: ContextSchema::new(OrdSpec::Null, LngSpec::Star),
                }],
                order: Vec::new(),
            }
        }
        OpKind::Tagger { pattern, out } => {
            let input = &plan.children[0].schema;
            for c in pattern.all_cols() {
                if input.col_idx(c).is_none() {
                    return Err(format!("Tagger: unknown column ${c}"));
                }
            }
            // Category V: new nodes have self lineage; order follows the
            // content columns' order specs.
            let content = pattern.content_cols();
            let ord = if content.is_empty() {
                OrdSpec::Null
            } else {
                let mut acc: Option<OrdSpec> = None;
                for c in &content {
                    let o = &input.col(c).unwrap().cxt.ord;
                    acc = Some(match acc {
                        None => o.clone(),
                        Some(prev) => OrdSpec::concat(&prev, o),
                    });
                }
                acc.unwrap()
            };
            let mut cols = input.cols.clone();
            cols.push(ColInfo {
                name: out.clone(),
                cxt: ContextSchema::new(ord, LngSpec::SelfRef),
            });
            Schema { cols, order: input.order.clone() }
        }
        OpKind::XmlUnion { a, b, out } => {
            let input = &plan.children[0].schema;
            let (ca, cb) = match (input.col(a), input.col(b)) {
                (Some(x), Some(y)) => (x.clone(), y.clone()),
                _ => return Err(format!("XmlUnion: unknown column ${a} or ${b}")),
            };
            // Category VII: branch-annotated lineage; branch keys `b`, `c`
            // (the first two canonical segments) order the two inputs.
            let lng = LngSpec::Cols(dedup_lng(
                input
                    .lng_cols_of(a)
                    .into_iter()
                    .map(|mut l| {
                        l.branch.get_or_insert(flexkey::Seg::nth(0));
                        l
                    })
                    .chain(input.lng_cols_of(b).into_iter().map(|mut l| {
                        l.branch.get_or_insert(flexkey::Seg::nth(1));
                        l
                    })),
            ));
            let ord = if ca.cxt.ord.is_empty_spec() && cb.cxt.ord.is_empty_spec() {
                OrdSpec::Empty
            } else {
                OrdSpec::concat(&ca.cxt.ord, &cb.cxt.ord)
            };
            let mut cols = input.cols.clone();
            cols.push(ColInfo { name: out.clone(), cxt: ContextSchema::new(ord, lng) });
            Schema { cols, order: input.order.clone() }
        }
        OpKind::XmlUnique { col, out } => {
            let input = &plan.children[0].schema;
            let in_cxt =
                &input.col(col).ok_or_else(|| format!("XmlUnique: unknown column ${col}"))?.cxt;
            // Category II: document order restored, lineage preserved.
            let mut cols = input.cols.clone();
            cols.push(ColInfo {
                name: out.clone(),
                cxt: ContextSchema::new(OrdSpec::Empty, in_cxt.lng.clone()),
            });
            Schema { cols, order: input.order.clone() }
        }
        OpKind::Merge => {
            let (l, r) = (&plan.children[0].schema, &plan.children[1].schema);
            let mut cols = l.cols.clone();
            cols.extend(r.cols.iter().cloned());
            Schema { cols, order: Vec::new() }
        }
    };
    plan.schema = schema;
    Ok(())
}

fn cols_or_empty(cols: Vec<String>, own: &str) -> OrdSpec {
    if cols.is_empty() {
        OrdSpec::Null
    } else if cols.len() == 1 && cols[0] == own {
        OrdSpec::Empty
    } else {
        OrdSpec::Cols(cols)
    }
}

fn dedup(it: impl Iterator<Item = String>) -> Vec<String> {
    let mut out = Vec::new();
    for x in it {
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}

fn dedup_lng(it: impl Iterator<Item = LngCol>) -> Vec<LngCol> {
    let mut out: Vec<LngCol> = Vec::new();
    for x in it {
        if !out.iter().any(|y| y.col == x.col && y.branch == x.branch) {
            out.push(x);
        }
    }
    out
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(p: &Plan, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
            let pad = "  ".repeat(depth);
            let name = match &p.op {
                OpKind::Unit => "Unit".into(),
                OpKind::Source { doc, out } => format!("Source \"{doc}\" → ${out}"),
                OpKind::DeltaSource { doc, out } => format!("ΔSource \"{doc}\" → ${out}"),
                OpKind::ExcludeSource { doc, out } => format!("Source∖Δ \"{doc}\" → ${out}"),
                OpKind::NavUnnest { col, steps, out } => {
                    format!("φ ${col},{} → ${out}", fmt_steps(steps))
                }
                OpKind::NavCollection { col, steps, out } => {
                    format!("Φ ${col},{} → ${out}", fmt_steps(steps))
                }
                OpKind::Select { pred } => format!("σ {pred:?}"),
                OpKind::Join { pred } => format!("⋈ {pred:?}"),
                OpKind::LeftOuterJoin { pred } => format!("⟕ {pred:?}"),
                OpKind::Cartesian => "×".into(),
                OpKind::Distinct { col } => format!("δ ${col}"),
                OpKind::GroupBy { cols, func } => format!("γ {cols:?} {func:?}"),
                OpKind::OrderBy { keys, out } => format!("τ {keys:?} → ${out}"),
                OpKind::Combine { col } => format!("C ${col}"),
                OpKind::Tagger { pattern, out } => format!("T <{}> → ${out}", pattern.name),
                OpKind::XmlUnion { a, b, out } => format!("∪x ${a},${b} → ${out}"),
                OpKind::XmlUnique { col, out } => format!("υ ${col} → ${out}"),
                OpKind::AggCol { col, func, out } => format!("agg {func:?}(${col}) → ${out}"),
                OpKind::Merge => "M".into(),
                OpKind::InSet { operand, values } => {
                    format!("σ∈ {operand:?} in {} values", values.len())
                }
            };
            let order = p
                .schema
                .order
                .iter()
                .map(|&i| p.schema.cols[i].name.clone())
                .collect::<Vec<_>>()
                .join(",");
            writeln!(f, "{pad}{name}   [OS: {order}]")?;
            for c in &p.children {
                go(c, f, depth + 1)?;
            }
            Ok(())
        }
        go(self, f, 0)
    }
}

fn fmt_steps(steps: &[Step]) -> String {
    let mut s = String::new();
    for st in steps {
        s.push_str(match st.axis {
            xquery_lang::Axis::Child => "/",
            xquery_lang::Axis::Descendant => "//",
        });
        match &st.test {
            NodeTest::Name(n) => s.push_str(n),
            NodeTest::Attr(a) => {
                s.push('@');
                s.push_str(a);
            }
            NodeTest::Text => s.push_str("text()"),
            NodeTest::Wildcard => s.push('*'),
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use xquery_lang::Axis;

    fn step(name: &str) -> Step {
        Step::child(NodeTest::Name(name.into()))
    }

    fn src(doc: &str, out: &str) -> Plan {
        Plan::leaf(OpKind::Source { doc: doc.into(), out: out.into() })
    }

    #[test]
    fn source_schema() {
        let mut p = src("bib.xml", "S1");
        annotate(&mut p).unwrap();
        assert_eq!(p.schema.cols.len(), 1);
        assert_eq!(p.schema.cols[0].cxt.to_string(), "()[]");
        assert!(p.schema.order.is_empty());
    }

    #[test]
    fn nav_unnest_appends_order_schema() {
        let mut p = Plan::unary(
            OpKind::NavUnnest {
                col: "S1".into(),
                steps: vec![step("bib"), step("book")],
                out: "b".into(),
            },
            src("bib.xml", "S1"),
        );
        annotate(&mut p).unwrap();
        // $b: ()[]  (Fig 4.2 operator #5)
        assert_eq!(p.schema.col("b").unwrap().cxt.to_string(), "()[]");
        assert_eq!(p.schema.order, vec![1], "OS = ($b)");
    }

    #[test]
    fn value_nav_keeps_entry_lineage_and_order() {
        // φ $b,@year/text() → $col1 gets ()[$b]-style context (Fig 4.2 #6).
        let mut p = Plan::unary(
            OpKind::NavUnnest {
                col: "b".into(),
                steps: vec![Step::child(NodeTest::Attr("year".into()))],
                out: "col1".into(),
            },
            Plan::unary(
                OpKind::NavUnnest {
                    col: "S1".into(),
                    steps: vec![step("bib"), step("book")],
                    out: "b".into(),
                },
                src("bib.xml", "S1"),
            ),
        );
        annotate(&mut p).unwrap();
        let c = p.schema.col("col1").unwrap();
        assert_eq!(c.cxt.to_string(), "(b)[$b]");
        // OS unchanged: still ($b).
        assert_eq!(p.schema.order_col_names(), vec!["b"]);
    }

    #[test]
    fn join_composes_order_schemas() {
        // Join of books ($b) and entries ($e): OS = ($b, $e); $b gets
        // ($b,$e)[], $e gets ($b,$e)[] (Fig 4.2 #10).
        let left = Plan::unary(
            OpKind::NavUnnest {
                col: "S2".into(),
                steps: vec![step("bib"), step("book")],
                out: "b".into(),
            },
            src("bib.xml", "S2"),
        );
        let right = Plan::unary(
            OpKind::NavUnnest {
                col: "S3".into(),
                steps: vec![step("prices"), step("entry")],
                out: "e".into(),
            },
            src("prices.xml", "S3"),
        );
        let mut p = Plan::binary(
            OpKind::Join {
                pred: Pred::eq(
                    Operand::Path { col: "b".into(), steps: vec![step("title")] },
                    Operand::Path { col: "e".into(), steps: vec![step("b-title")] },
                ),
            },
            left,
            right,
        );
        annotate(&mut p).unwrap();
        assert_eq!(p.schema.col("b").unwrap().cxt.ord, OrdSpec::Cols(vec!["b".into(), "e".into()]));
        assert_eq!(p.schema.col("e").unwrap().cxt.ord, OrdSpec::Cols(vec!["b".into(), "e".into()]));
        assert_eq!(p.schema.order_col_names(), vec!["b", "e"]);
    }

    #[test]
    fn distinct_destroys_order_and_reroots_lineage() {
        let mut p = Plan::unary(
            OpKind::Distinct { col: "y".into() },
            Plan::unary(
                OpKind::NavUnnest {
                    col: "S1".into(),
                    steps: vec![
                        step("bib"),
                        step("book"),
                        Step::child(NodeTest::Attr("year".into())),
                    ],
                    out: "y".into(),
                },
                src("bib.xml", "S1"),
            ),
        );
        annotate(&mut p).unwrap();
        assert!(p.schema.order.is_empty());
        assert_eq!(p.schema.col("y").unwrap().cxt.to_string(), "[]");
        assert!(p.schema.col("y").unwrap().cxt.in_ecc());
    }

    #[test]
    fn group_by_assigns_group_lineage() {
        // γ$y(Combine $col5): $col5 gets [$y] (Fig 4.2 #15).
        let base = Plan::unary(
            OpKind::NavUnnest {
                col: "S1".into(),
                steps: vec![step("bib"), step("book")],
                out: "col5".into(),
            },
            src("bib.xml", "S1"),
        );
        let with_y = Plan::unary(
            OpKind::NavUnnest {
                col: "col5".into(),
                steps: vec![Step::child(NodeTest::Attr("year".into()))],
                out: "y".into(),
            },
            base,
        );
        let mut p = Plan::unary(
            OpKind::GroupBy {
                cols: vec!["y".into()],
                func: GroupFunc::Combine { col: "col5".into() },
            },
            with_y,
        );
        annotate(&mut p).unwrap();
        assert_eq!(p.schema.cols.len(), 2);
        // $y's lineage references $col5 (its entry), so the combined column's
        // lineage resolves through it.
        let c5 = p.schema.col("col5").unwrap();
        assert!(matches!(c5.cxt.lng, LngSpec::Cols(_)));
        assert!(c5.cxt.ord.is_null());
        assert!(p.schema.order.is_empty());
    }

    #[test]
    fn combine_collapses_to_star() {
        let mut p = Plan::unary(
            OpKind::Combine { col: "b".into() },
            Plan::unary(
                OpKind::NavUnnest {
                    col: "S1".into(),
                    steps: vec![step("bib"), step("book")],
                    out: "b".into(),
                },
                src("bib.xml", "S1"),
            ),
        );
        annotate(&mut p).unwrap();
        assert_eq!(p.schema.cols.len(), 1);
        assert_eq!(p.schema.col("b").unwrap().cxt.lng, LngSpec::Star);
    }

    #[test]
    fn order_by_introduces_order_values_column() {
        let mut p = Plan::unary(
            OpKind::OrderBy { keys: vec![("y".into(), false)], out: "__ord".into() },
            Plan::unary(
                OpKind::NavUnnest {
                    col: "S1".into(),
                    steps: vec![
                        step("bib"),
                        step("book"),
                        Step::child(NodeTest::Attr("year".into())),
                    ],
                    out: "y".into(),
                },
                src("bib.xml", "S1"),
            ),
        );
        annotate(&mut p).unwrap();
        assert_eq!(p.schema.order_col_names(), vec!["__ord"]);
        assert_eq!(p.schema.col("y").unwrap().cxt.ord, OrdSpec::Cols(vec!["__ord".into()]));
    }

    #[test]
    fn tagger_inherits_content_order_spec() {
        let base = Plan::unary(
            OpKind::NavUnnest {
                col: "S1".into(),
                steps: vec![step("bib"), step("book")],
                out: "b".into(),
            },
            src("bib.xml", "S1"),
        );
        let mut p = Plan::unary(
            OpKind::Tagger {
                pattern: Pattern {
                    name: "entry".into(),
                    attrs: vec![],
                    content: vec![PatSlot::Col("b".into())],
                },
                out: "col5".into(),
            },
            base,
        );
        annotate(&mut p).unwrap();
        let c = p.schema.col("col5").unwrap();
        assert_eq!(c.cxt.lng, LngSpec::SelfRef);
        assert_eq!(c.cxt.ord, OrdSpec::Empty);
    }

    #[test]
    fn xml_union_branches_lineage() {
        let base = Plan::unary(
            OpKind::NavUnnest {
                col: "S1".into(),
                steps: vec![step("bib"), step("book")],
                out: "b".into(),
            },
            src("bib.xml", "S1"),
        );
        let t = Plan::unary(
            OpKind::NavCollection { col: "b".into(), steps: vec![step("title")], out: "c2".into() },
            base,
        );
        let a = Plan::unary(
            OpKind::NavCollection {
                col: "b".into(),
                steps: vec![step("author")],
                out: "c3".into(),
            },
            t,
        );
        let mut p =
            Plan::unary(OpKind::XmlUnion { a: "c2".into(), b: "c3".into(), out: "c4".into() }, a);
        annotate(&mut p).unwrap();
        let c = p.schema.col("c4").unwrap();
        let LngSpec::Cols(lc) = &c.cxt.lng else { panic!() };
        assert_eq!(lc.len(), 2, "both resolve to $b but branch keys distinguish: {lc:?}");
        assert!(lc[0].branch.is_some() && lc[1].branch.is_some());
        assert_ne!(lc[0].branch, lc[1].branch);
    }

    #[test]
    fn delta_source_substitution() {
        let mut p = Plan::binary(OpKind::Cartesian, src("bib.xml", "S1"), src("prices.xml", "S2"));
        annotate(&mut p).unwrap();
        let d = p.with_delta_source("bib.xml");
        assert!(matches!(d.children[0].op, OpKind::DeltaSource { .. }));
        assert!(matches!(d.children[1].op, OpKind::Source { .. }));
        assert_eq!(p.source_docs(), vec!["bib.xml", "prices.xml"]);
    }

    #[test]
    fn unknown_column_is_an_error() {
        let mut p = Plan::unary(
            OpKind::NavUnnest { col: "nope".into(), steps: vec![step("x")], out: "o".into() },
            src("bib.xml", "S1"),
        );
        assert!(annotate(&mut p).is_err());
    }

    #[test]
    fn descendant_axis_formats() {
        let s = fmt_steps(&[Step {
            axis: Axis::Descendant,
            test: NodeTest::Name("person".into()),
            predicate: None,
        }]);
        assert_eq!(s, "//person");
    }
}

//! Abstract syntax for the XQuery subset of Figure 2.1.

use std::fmt;

/// Entry point of a path expression: a document or a bound variable
/// (after normalization every XPath "must have a variable or a document as
/// its entry point", §2.3.1 Rule 3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathSource {
    /// `doc("bib.xml")` / `document("bib.xml")`.
    Doc(String),
    /// `$b`.
    Var(String),
}

/// Axes supported by the paper (§2.1): child `/` and descendant `//`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    Child,
    Descendant,
}

/// Node tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeTest {
    /// Element name test.
    Name(String),
    /// Attribute access `@name`.
    Attr(String),
    /// `text()`.
    Text,
    /// `*`.
    Wildcard,
}

/// One location step, with an optional predicate (normalization hoists
/// comparison predicates into `where` clauses; positional predicates are only
/// permitted in update-target paths).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    pub axis: Axis,
    pub test: NodeTest,
    pub predicate: Option<StepPredicate>,
}

impl Step {
    pub fn child(test: NodeTest) -> Step {
        Step { axis: Axis::Child, test, predicate: None }
    }

    pub fn descendant(test: NodeTest) -> Step {
        Step { axis: Axis::Descendant, test, predicate: None }
    }

    /// This step as one label of a child-axis label path — the element
    /// name, or `@name` for an attribute — which is how the store's
    /// path-value index (`xmlstore::Store::nodes_by_value`) addresses
    /// nodes. `None` for anything a label cannot say: the descendant axis,
    /// `*`, `text()`, or a predicate.
    pub fn label(&self) -> Option<String> {
        match (&self.test, self.axis, &self.predicate) {
            (NodeTest::Name(name), Axis::Child, None) => Some(name.clone()),
            (NodeTest::Attr(name), _, None) => Some(format!("@{name}")),
            _ => None,
        }
    }

    /// `steps` as one label path (see [`Step::label`]): `None` if a step
    /// has no label, if an attribute step is not the last (nothing lies
    /// below an attribute), or if there are no steps.
    pub fn label_path<'a>(steps: impl IntoIterator<Item = &'a Step>) -> Option<Vec<String>> {
        let labels = steps.into_iter().map(Step::label).collect::<Option<Vec<_>>>()?;
        let (_, inner) = labels.split_last()?;
        inner.iter().all(|l| !l.starts_with('@')).then_some(labels)
    }

    /// Whether this step binds an element (not an attribute's value).
    pub fn binds_element(&self) -> bool {
        !matches!(self.test, NodeTest::Attr(_))
    }
}

/// A predicate attached to a location step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepPredicate {
    /// `[relative/path = "literal"]` — hoisted to `where` by normalization.
    Cmp { path: Vec<Step>, op: CmpOp, value: String },
    /// `[2]` — positional; only meaningful in update-target paths
    /// (Figure 1.3(a): `/bib/book[2]`). 1-based, as in XPath.
    Position(usize),
}

/// A (rooted) path expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathExpr {
    pub source: PathSource,
    pub steps: Vec<Step>,
}

impl PathExpr {
    pub fn new(source: PathSource, steps: Vec<Step>) -> PathExpr {
        PathExpr { source, steps }
    }
}

/// Comparison operators of the ComparisonExpr production.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Aggregate functions (§2.1: "some aggregate functions").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// Boolean conditions in `where` clauses: conjunctions of comparisons.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoolExpr {
    Cmp { lhs: Expr, op: CmpOp, rhs: Expr },
    And(Box<BoolExpr>, Box<BoolExpr>),
}

impl BoolExpr {
    /// Flatten a conjunction into its comparison leaves.
    pub fn conjuncts(&self) -> Vec<&BoolExpr> {
        match self {
            BoolExpr::And(a, b) => {
                let mut v = a.conjuncts();
                v.extend(b.conjuncts());
                v
            }
            leaf => vec![leaf],
        }
    }

    /// Re-assemble a conjunction from parts (`None` if empty).
    pub fn conjoin(parts: Vec<BoolExpr>) -> Option<BoolExpr> {
        parts.into_iter().reduce(|a, b| BoolExpr::And(Box::new(a), Box::new(b)))
    }
}

/// `order by` specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderSpec {
    pub expr: Expr,
    pub descending: bool,
}

/// One `for $v in <expr>` binding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForBind {
    pub var: String,
    pub source: Expr,
}

/// A FLWOR expression (after normalization, `let` clauses are gone).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Flwor {
    pub fors: Vec<ForBind>,
    pub lets: Vec<(String, Expr)>,
    pub where_: Option<BoolExpr>,
    pub order_by: Vec<OrderSpec>,
    pub ret: Option<Expr>,
}

/// Attribute value in a direct element constructor: literal text or an
/// embedded expression (`Y="{$y}"`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttrValue {
    Literal(String),
    Expr(Expr),
}

/// A direct element constructor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElemCons {
    pub name: String,
    pub attrs: Vec<(String, AttrValue)>,
    pub children: Vec<Expr>,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    Path(PathExpr),
    /// A bare variable reference `$v`.
    Var(String),
    /// `distinct-values(expr)`.
    DistinctValues(Box<Expr>),
    /// An aggregate function application.
    Agg {
        func: AggFunc,
        arg: Box<Expr>,
    },
    Flwor(Box<Flwor>),
    Elem(Box<ElemCons>),
    /// Comma sequence (`PrimaryExpr*` in constructors / return clauses).
    Seq(Vec<Expr>),
    /// String literal.
    Literal(String),
    /// Numeric literal (kept textual for faithful value semantics).
    Number(String),
}

impl Expr {
    /// Convenience: view as a path whose source is a variable.
    pub fn as_var_path(&self) -> Option<(&str, &[Step])> {
        match self {
            Expr::Var(v) => Some((v, &[])),
            Expr::Path(p) => match &p.source {
                PathSource::Var(v) => Some((v, &p.steps)),
                PathSource::Doc(_) => None,
            },
            _ => None,
        }
    }

    /// All free variables referenced by this expression.
    pub fn free_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_free_vars(&mut out);
        out
    }

    fn collect_free_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) => out.push(v.clone()),
            Expr::Path(p) => {
                if let PathSource::Var(v) = &p.source {
                    out.push(v.clone());
                }
            }
            Expr::DistinctValues(e) | Expr::Agg { arg: e, .. } => e.collect_free_vars(out),
            Expr::Seq(es) => es.iter().for_each(|e| e.collect_free_vars(out)),
            Expr::Elem(c) => {
                for (_, v) in &c.attrs {
                    if let AttrValue::Expr(e) = v {
                        e.collect_free_vars(out);
                    }
                }
                c.children.iter().for_each(|e| e.collect_free_vars(out));
            }
            Expr::Flwor(f) => {
                // Variables bound inside the FLWOR shadow outer ones.
                let mut inner = Vec::new();
                for b in &f.fors {
                    b.source.collect_free_vars(&mut inner);
                }
                for (_, e) in &f.lets {
                    e.collect_free_vars(&mut inner);
                }
                if let Some(w) = &f.where_ {
                    collect_bool_vars(w, &mut inner);
                }
                for o in &f.order_by {
                    o.expr.collect_free_vars(&mut inner);
                }
                if let Some(r) = &f.ret {
                    r.collect_free_vars(&mut inner);
                }
                let bound: Vec<&str> = f
                    .fors
                    .iter()
                    .map(|b| b.var.as_str())
                    .chain(f.lets.iter().map(|(v, _)| v.as_str()))
                    .collect();
                out.extend(inner.into_iter().filter(|v| !bound.contains(&v.as_str())));
            }
            Expr::Literal(_) | Expr::Number(_) => {}
        }
    }
}

pub(crate) fn collect_bool_vars(b: &BoolExpr, out: &mut Vec<String>) {
    match b {
        BoolExpr::Cmp { lhs, rhs, .. } => {
            lhs.collect_free_vars(out);
            rhs.collect_free_vars(out);
        }
        BoolExpr::And(a, c) => {
            collect_bool_vars(a, out);
            collect_bool_vars(c, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten() {
        let c1 = BoolExpr::Cmp {
            lhs: Expr::Var("a".into()),
            op: CmpOp::Eq,
            rhs: Expr::Literal("x".into()),
        };
        let c2 = BoolExpr::Cmp {
            lhs: Expr::Var("b".into()),
            op: CmpOp::Lt,
            rhs: Expr::Number("3".into()),
        };
        let c3 = BoolExpr::Cmp {
            lhs: Expr::Var("c".into()),
            op: CmpOp::Gt,
            rhs: Expr::Number("4".into()),
        };
        let all = BoolExpr::And(
            Box::new(BoolExpr::And(Box::new(c1.clone()), Box::new(c2.clone()))),
            Box::new(c3.clone()),
        );
        assert_eq!(all.conjuncts(), vec![&c1, &c2, &c3]);
        let rebuilt = BoolExpr::conjoin(vec![c1, c2, c3]).unwrap();
        assert_eq!(rebuilt.conjuncts().len(), 3);
    }

    #[test]
    fn free_vars_respect_binding() {
        // for $b in doc(...)/bib/book return <x>{$b/title}{$y}</x> — $y free, $b bound.
        let inner = Flwor {
            fors: vec![ForBind {
                var: "b".into(),
                source: Expr::Path(PathExpr::new(
                    PathSource::Doc("bib.xml".into()),
                    vec![Step::child(NodeTest::Name("bib".into()))],
                )),
            }],
            ret: Some(Expr::Seq(vec![
                Expr::Path(PathExpr::new(
                    PathSource::Var("b".into()),
                    vec![Step::child(NodeTest::Name("title".into()))],
                )),
                Expr::Var("y".into()),
            ])),
            ..Default::default()
        };
        let e = Expr::Flwor(Box::new(inner));
        assert_eq!(e.free_vars(), vec!["y".to_string()]);
    }

    #[test]
    fn as_var_path() {
        let p = Expr::Path(PathExpr::new(
            PathSource::Var("b".into()),
            vec![Step::child(NodeTest::Name("title".into()))],
        ));
        let (v, steps) = p.as_var_path().unwrap();
        assert_eq!(v, "b");
        assert_eq!(steps.len(), 1);
        assert!(Expr::Literal("x".into()).as_var_path().is_none());
    }
}

//! Source-level normalization (§2.3.1).
//!
//! * **Rule 1** — `let` elimination: the expression binding a let-variable is
//!   substituted for every occurrence of the variable. (Rainbow shares the
//!   computation via a DAG; we share via plan-level common-subexpression
//!   reuse in the translator.)
//! * **Rule 2** — multi-variable `for` clauses are split so each clause binds
//!   one variable. Our AST keeps them in one `Vec`, which is the split form.
//! * **Rule 3** — XPath comparison predicates are hoisted into `where`
//!   clauses of the enclosing FLWOR block, so every navigation is
//!   predicate-free and has a variable or document entry point. A predicate
//!   on a `for` binding source becomes a conjunct on that binding's variable;
//!   a standalone predicated path becomes a fresh single-variable FLWOR.

use crate::ast::*;

/// Normalize a query expression. Idempotent.
pub fn normalize(e: Expr) -> Expr {
    norm_expr(e, &[])
}

/// Substitution environment for let-inlining.
type Env<'a> = &'a [(String, Expr)];

fn lookup(env: Env, var: &str) -> Option<Expr> {
    env.iter().rev().find(|(v, _)| v == var).map(|(_, e)| e.clone())
}

fn norm_expr(e: Expr, env: Env) -> Expr {
    match e {
        Expr::Flwor(f) => norm_flwor(*f, env),
        Expr::Var(v) => lookup(env, &v).unwrap_or(Expr::Var(v)),
        Expr::Path(p) => norm_path(p, env),
        Expr::DistinctValues(inner) => Expr::DistinctValues(Box::new(norm_expr(*inner, env))),
        Expr::Agg { func, arg } => Expr::Agg { func, arg: Box::new(norm_expr(*arg, env)) },
        Expr::Seq(es) => Expr::Seq(es.into_iter().map(|x| norm_expr(x, env)).collect()),
        Expr::Elem(c) => {
            let ElemCons { name, attrs, children } = *c;
            Expr::Elem(Box::new(ElemCons {
                name,
                attrs: attrs
                    .into_iter()
                    .map(|(k, v)| {
                        let v = match v {
                            AttrValue::Expr(e) => AttrValue::Expr(norm_expr(e, env)),
                            lit => lit,
                        };
                        (k, v)
                    })
                    .collect(),
                children: children.into_iter().map(|x| norm_expr(x, env)).collect(),
            }))
        }
        lit @ (Expr::Literal(_) | Expr::Number(_)) => lit,
    }
}

/// Rewrite a path: substitute a let-bound variable entry point, and hoist
/// predicates (Rule 3) by wrapping into a fresh FLWOR when needed.
fn norm_path(p: PathExpr, env: Env) -> Expr {
    // Let-substitution on the entry point: $t/rest where $t := <expr>
    // becomes a path from <expr> when that is itself a path, or stays a
    // nested FLWOR navigation otherwise.
    let p = match &p.source {
        PathSource::Var(v) => match lookup(env, v) {
            Some(Expr::Path(base)) => {
                let mut steps = base.steps.clone();
                steps.extend(p.steps.clone());
                PathExpr { source: base.source, steps }
            }
            Some(Expr::Var(v2)) => PathExpr { source: PathSource::Var(v2), steps: p.steps },
            _ => p,
        },
        PathSource::Doc(_) => p,
    };
    // Hoist comparison predicates: split at the last predicated step:
    //   E1[pred]/rest  ⇒  for $fresh in E1 where $fresh/predpath op lit
    //                     return $fresh/rest
    // Applied innermost-first by recursing on the prefix.
    let cmp = |s: &Step| matches!(s.predicate, Some(StepPredicate::Cmp { .. }));
    let Some(idx) = p.steps.iter().rposition(cmp) else {
        return Expr::Path(p);
    };
    let mut prefix_steps = p.steps[..=idx].to_vec();
    let rest = p.steps[idx + 1..].to_vec();
    let Some(StepPredicate::Cmp { path, op, value }) = prefix_steps[idx].predicate.take() else {
        unreachable!()
    };
    let fresh = fresh_var(&p);
    let binding_src = norm_path(PathExpr { source: p.source.clone(), steps: prefix_steps }, env);
    let where_ = BoolExpr::Cmp {
        lhs: Expr::Path(PathExpr::new(PathSource::Var(fresh.clone()), path)),
        op,
        rhs: Expr::Literal(value),
    };
    let ret = if rest.is_empty() {
        Expr::Var(fresh.clone())
    } else {
        Expr::Path(PathExpr::new(PathSource::Var(fresh.clone()), rest))
    };
    Expr::Flwor(Box::new(Flwor {
        fors: vec![ForBind { var: fresh, source: binding_src }],
        lets: Vec::new(),
        where_: Some(where_),
        order_by: Vec::new(),
        ret: Some(ret),
    }))
}

fn fresh_var(p: &PathExpr) -> String {
    // Deterministic fresh name derived from the path's last named step.
    let base = p
        .steps
        .iter()
        .rev()
        .find_map(|s| match &s.test {
            NodeTest::Name(n) => Some(n.clone()),
            _ => None,
        })
        .unwrap_or_else(|| "x".to_string());
    format!("__{base}")
}

fn norm_flwor(mut f: Flwor, env: Env) -> Expr {
    // Rule 1: inline lets into a growing environment.
    let mut env2: Vec<(String, Expr)> = env.to_vec();
    for (v, e) in std::mem::take(&mut f.lets) {
        let e = norm_expr(e, &env2);
        env2.push((v, e));
    }
    // Rule 3 on binding sources; predicated binding sources become where
    // conjuncts on the bound variable rather than nested FLWORs.
    let mut extra_preds: Vec<BoolExpr> = Vec::new();
    let fors = std::mem::take(&mut f.fors)
        .into_iter()
        .map(|b| {
            let source = norm_expr(b.source, &env2);
            let source = match source {
                Expr::Flwor(inner) if is_predicate_hoist(&inner, &b.var) => {
                    // for $v in (for $f in E where P($f) return $f)
                    //   ⇒ for $v in E where P($v)
                    let Flwor { fors: inner_fors, where_, ret, .. } = *inner;
                    // xqcheck: allow(no-panic) — is_predicate_hoist matched one binding
                    let inner_bind = inner_fors.into_iter().next().unwrap();
                    if let Some(w) = where_ {
                        extra_preds.push(rename_bool(w, &inner_bind.var, &b.var));
                    }
                    match ret {
                        Some(Expr::Var(_)) => inner_bind.source,
                        Some(Expr::Path(p)) => {
                            // return $f/rest: splice rest onto the binding path
                            match inner_bind.source {
                                Expr::Path(mut base) => {
                                    base.steps.extend(p.steps);
                                    Expr::Path(base)
                                }
                                other => other,
                            }
                        }
                        _ => inner_bind.source,
                    }
                }
                s => s,
            };
            ForBind { var: b.var, source }
        })
        .collect();
    f.fors = fors;
    let mut where_ = f.where_.map(|w| norm_bool(w, &env2));
    for p in extra_preds {
        where_ = Some(match where_ {
            Some(w) => BoolExpr::And(Box::new(w), Box::new(p)),
            None => p,
        });
    }
    f.where_ = where_;
    f.order_by = f
        .order_by
        .into_iter()
        .map(|o| OrderSpec { expr: norm_expr(o.expr, &env2), descending: o.descending })
        .collect();
    f.ret = f.ret.map(|r| norm_expr(r, &env2));
    // A FLWOR with no for-bindings left (pure lets) reduces to its return.
    match f.ret {
        Some(ret) if f.fors.is_empty() => ret,
        _ => Expr::Flwor(Box::new(f)),
    }
}

/// Recognize the shape produced by predicate hoisting in [`norm_path`]:
/// a single-binding FLWOR whose return is the bound variable or a path on it.
fn is_predicate_hoist(f: &Flwor, _outer_var: &str) -> bool {
    f.fors.len() == 1
        && f.lets.is_empty()
        && f.order_by.is_empty()
        && f.fors[0].var.starts_with("__")
        && matches!(
            &f.ret,
            Some(Expr::Var(v)) if *v == f.fors[0].var
        )
        || (f.fors.len() == 1
            && f.lets.is_empty()
            && f.order_by.is_empty()
            && f.fors[0].var.starts_with("__")
            && matches!(
                &f.ret,
                Some(Expr::Path(p)) if p.source == PathSource::Var(f.fors[0].var.clone())
            ))
}

fn norm_bool(b: BoolExpr, env: Env) -> BoolExpr {
    match b {
        BoolExpr::Cmp { lhs, op, rhs } => {
            BoolExpr::Cmp { lhs: norm_expr(lhs, env), op, rhs: norm_expr(rhs, env) }
        }
        BoolExpr::And(a, c) => {
            BoolExpr::And(Box::new(norm_bool(*a, env)), Box::new(norm_bool(*c, env)))
        }
    }
}

fn rename_bool(b: BoolExpr, from: &str, to: &str) -> BoolExpr {
    match b {
        BoolExpr::Cmp { lhs, op, rhs } => {
            BoolExpr::Cmp { lhs: rename_expr(lhs, from, to), op, rhs: rename_expr(rhs, from, to) }
        }
        BoolExpr::And(a, c) => {
            BoolExpr::And(Box::new(rename_bool(*a, from, to)), Box::new(rename_bool(*c, from, to)))
        }
    }
}

fn rename_expr(e: Expr, from: &str, to: &str) -> Expr {
    match e {
        Expr::Var(v) if v == from => Expr::Var(to.to_string()),
        Expr::Path(mut p) => {
            if p.source == PathSource::Var(from.to_string()) {
                p.source = PathSource::Var(to.to_string());
            }
            Expr::Path(p)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn rule1_let_inlining() {
        let q = r#"let $t := doc("bib.xml")/bib/book return <r>{$t}</r>"#;
        let n = normalize(parse_query(q).unwrap());
        // The let disappears; $t is substituted in the return.
        let Expr::Elem(c) = n else { panic!("{n:?}") };
        assert!(matches!(&c.children[0], Expr::Path(p) if p.steps.len() == 2));
    }

    #[test]
    fn rule1_let_path_extension() {
        let q = r#"let $t := doc("bib.xml")/bib for $b in $t/book return $b"#;
        let n = normalize(parse_query(q).unwrap());
        let Expr::Flwor(f) = n else { panic!("{n:?}") };
        let Expr::Path(p) = &f.fors[0].source else { panic!() };
        assert_eq!(p.source, PathSource::Doc("bib.xml".into()));
        assert_eq!(p.steps.len(), 2);
    }

    #[test]
    fn rule3_predicate_hoisted_to_where() {
        let q = r#"for $b in doc("bib.xml")/bib/book[title = "Data on the Web"] return $b"#;
        let n = normalize(parse_query(q).unwrap());
        let Expr::Flwor(f) = n else { panic!("{n:?}") };
        // Binding source is now predicate-free…
        let Expr::Path(p) = &f.fors[0].source else { panic!() };
        assert!(p.steps.iter().all(|s| s.predicate.is_none()));
        // …and the predicate became a where conjunct on $b.
        let w = f.where_.as_ref().unwrap();
        let BoolExpr::Cmp { lhs, op: CmpOp::Eq, rhs } = w else { panic!("{w:?}") };
        let (v, steps) = lhs.as_var_path().unwrap();
        assert_eq!(v, "b");
        assert_eq!(steps[0].test, NodeTest::Name("title".into()));
        assert_eq!(rhs, &Expr::Literal("Data on the Web".into()));
    }

    #[test]
    fn rule3_standalone_predicated_path_becomes_flwor() {
        let q = r#"doc("bib.xml")/bib/book[title = "X"]/author"#;
        let n = normalize(parse_query(q).unwrap());
        let Expr::Flwor(f) = n else { panic!("{n:?}") };
        assert!(f.fors[0].var.starts_with("__"));
        assert!(f.where_.is_some());
        let Some(Expr::Path(ret)) = &f.ret else { panic!() };
        assert_eq!(ret.steps[0].test, NodeTest::Name("author".into()));
    }

    #[test]
    fn rule3_merges_with_existing_where() {
        let q = r#"for $b in doc("bib.xml")/bib/book[title = "X"]
                   where $b/@year = "1994" return $b"#;
        let n = normalize(parse_query(q).unwrap());
        let Expr::Flwor(f) = n else { panic!() };
        assert_eq!(f.where_.as_ref().unwrap().conjuncts().len(), 2);
    }

    #[test]
    fn normalization_is_idempotent() {
        let q = r#"let $t := doc("bib.xml")/bib
                   for $b in $t/book[title = "X"]
                   order by $b/@year
                   return <r>{$b/title}</r>"#;
        let n1 = normalize(parse_query(q).unwrap());
        let n2 = normalize(n1.clone());
        assert_eq!(n1, n2);
    }

    #[test]
    fn positional_predicates_left_alone() {
        // Positional predicates only occur in update-target paths; they are
        // not hoisted (they are not ComparisonExpr predicates).
        let q = r#"doc("bib.xml")/bib/book[2]"#;
        let n = normalize(parse_query(q).unwrap());
        let Expr::Path(p) = n else { panic!() };
        assert_eq!(p.steps[1].predicate, Some(StepPredicate::Position(2)));
    }
}

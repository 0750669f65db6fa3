//! Recursive-descent parser for the XQuery subset of Figure 2.1.
//!
//! The lexer is modal: inside direct element constructors, content is raw
//! text until `<` (nested constructor / close tag) or `{` (embedded
//! expression), mirroring XQuery's grammar. Keywords are matched
//! case-insensitively (the paper's own examples mix `for` and `FOR`).

use crate::ast::*;
use std::fmt;

/// A parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XQuery parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for QueryParseError {}

type PResult<T> = Result<T, QueryParseError>;

/// Parse a complete query expression.
pub fn parse_query(input: &str) -> PResult<Expr> {
    let mut p = P { b: input.as_bytes(), pos: 0 };
    p.ws();
    let e = p.expr_single()?;
    p.ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing content after query"));
    }
    Ok(e)
}

pub(crate) struct P<'a> {
    pub b: &'a [u8],
    pub pos: usize,
}

impl<'a> P<'a> {
    pub(crate) fn err(&self, m: impl Into<String>) -> QueryParseError {
        QueryParseError { offset: self.pos, message: m.into() }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    pub(crate) fn ws(&mut self) {
        loop {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                self.pos += 1;
            }
            // (: comments :)
            if self.b[self.pos..].starts_with(b"(:") {
                if let Some(end) = self.find(":)") {
                    self.pos = end + 2;
                    continue;
                }
            }
            break;
        }
    }

    fn find(&self, needle: &str) -> Option<usize> {
        let n = needle.as_bytes();
        (self.pos..=self.b.len().saturating_sub(n.len())).find(|&i| &self.b[i..i + n.len()] == n)
    }

    /// Case-insensitive keyword match with a word boundary after it.
    pub(crate) fn kw(&mut self, word: &str) -> bool {
        let w = word.as_bytes();
        if self.b.len() - self.pos < w.len() {
            return false;
        }
        let got = &self.b[self.pos..self.pos + w.len()];
        if !got.eq_ignore_ascii_case(w) {
            return false;
        }
        // boundary: next byte must not be a name char
        if let Some(&c) = self.b.get(self.pos + w.len()) {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' {
                return false;
            }
        }
        self.pos += w.len();
        self.ws();
        true
    }

    pub(crate) fn expect_tok(&mut self, tok: &str) -> PResult<()> {
        if self.b[self.pos..].starts_with(tok.as_bytes()) {
            self.pos += tok.len();
            self.ws();
            Ok(())
        } else {
            Err(self.err(format!("expected '{tok}'")))
        }
    }

    pub(crate) fn try_tok(&mut self, tok: &str) -> bool {
        if self.b[self.pos..].starts_with(tok.as_bytes()) {
            self.pos += tok.len();
            self.ws();
            true
        } else {
            false
        }
    }

    pub(crate) fn name(&mut self) -> PResult<String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.b[start..self.pos]).into_owned())
    }

    pub(crate) fn var(&mut self) -> PResult<String> {
        self.expect_raw(b'$')?;
        let n = self.name()?;
        self.ws();
        Ok(n)
    }

    fn expect_raw(&mut self, c: u8) -> PResult<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    pub(crate) fn string_lit(&mut self) -> PResult<String> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected string literal")),
        };
        self.pos += 1;
        let start = self.pos;
        while self.peek().is_some_and(|c| c != quote) {
            self.pos += 1;
        }
        if self.peek().is_none() {
            return Err(self.err("unterminated string literal"));
        }
        let s = String::from_utf8_lossy(&self.b[start..self.pos]).into_owned();
        self.pos += 1;
        self.ws();
        Ok(s)
    }

    /// Digits and dots, as written: the number form of a [`P::literal`].
    fn number_lit(&mut self) -> String {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit() || c == b'.') {
            self.pos += 1;
        }
        let n = String::from_utf8_lossy(&self.b[start..self.pos]).into_owned();
        self.ws();
        n
    }

    /// A predicate or replacement literal: a quoted string or a number.
    pub(crate) fn literal(&mut self) -> PResult<String> {
        match self.peek() {
            Some(b'"' | b'\'') => self.string_lit(),
            Some(c) if c.is_ascii_digit() => Ok(self.number_lit()),
            _ => Err(self.err("expected a quoted string or a number")),
        }
    }

    // ---- expressions -------------------------------------------------

    /// ExprSingle := FLWORExpr | comparison-free operand forms
    fn expr_single(&mut self) -> PResult<Expr> {
        if self.peeking_kw("for") || self.peeking_kw("let") {
            return Ok(Expr::Flwor(Box::new(self.flwor()?)));
        }
        self.operand()
    }

    fn peeking_kw(&self, word: &str) -> bool {
        let w = word.as_bytes();
        if self.b.len() - self.pos < w.len() {
            return false;
        }
        let got = &self.b[self.pos..self.pos + w.len()];
        got.eq_ignore_ascii_case(w)
            && self
                .b
                .get(self.pos + w.len())
                .is_none_or(|&c| !(c.is_ascii_alphanumeric() || c == b'_' || c == b'-'))
    }

    /// A primary operand: constructor, path, var, literal, function call.
    fn operand(&mut self) -> PResult<Expr> {
        match self.peek() {
            Some(b'<') => Ok(Expr::Elem(Box::new(self.elem_constructor()?))),
            Some(b'$') => {
                let v = self.var()?;
                let steps = self.steps()?;
                if steps.is_empty() {
                    Ok(Expr::Var(v))
                } else {
                    Ok(Expr::Path(PathExpr::new(PathSource::Var(v), steps)))
                }
            }
            Some(b'"') | Some(b'\'') => Ok(Expr::Literal(self.string_lit()?)),
            Some(c) if c.is_ascii_digit() => Ok(Expr::Number(self.number_lit())),
            Some(b'(') => {
                self.expect_tok("(")?;
                let e = self.expr_single()?;
                self.expect_tok(")")?;
                Ok(e)
            }
            _ => {
                // function call: doc(), document(), distinct-values(), aggregates
                let save = self.pos;
                let name = self.name()?;
                self.ws();
                match name.to_ascii_lowercase().as_str() {
                    "doc" | "document" => {
                        self.expect_tok("(")?;
                        let d = self.string_lit()?;
                        self.expect_tok(")")?;
                        let steps = self.steps()?;
                        Ok(Expr::Path(PathExpr::new(PathSource::Doc(d), steps)))
                    }
                    "distinct-values" => {
                        self.expect_tok("(")?;
                        let e = self.expr_single()?;
                        self.expect_tok(")")?;
                        Ok(Expr::DistinctValues(Box::new(e)))
                    }
                    "count" | "sum" | "avg" | "min" | "max" => {
                        let func = match name.to_ascii_lowercase().as_str() {
                            "count" => AggFunc::Count,
                            "sum" => AggFunc::Sum,
                            "avg" => AggFunc::Avg,
                            "min" => AggFunc::Min,
                            _ => AggFunc::Max,
                        };
                        self.expect_tok("(")?;
                        let e = self.expr_single()?;
                        self.expect_tok(")")?;
                        Ok(Expr::Agg { func, arg: Box::new(e) })
                    }
                    _ => {
                        self.pos = save;
                        Err(self.err(format!("unexpected token near '{name}'")))
                    }
                }
            }
        }
    }

    /// Location steps: (`/` | `//`) NodeTest Predicate? …
    pub(crate) fn steps(&mut self) -> PResult<Vec<Step>> {
        let mut steps = Vec::new();
        loop {
            let axis = if self.b[self.pos..].starts_with(b"//") {
                self.pos += 2;
                Axis::Descendant
            } else if self.peek() == Some(b'/') {
                self.pos += 1;
                Axis::Child
            } else {
                break;
            };
            let test = if self.peek() == Some(b'@') {
                self.pos += 1;
                NodeTest::Attr(self.name()?)
            } else if self.peek() == Some(b'*') {
                self.pos += 1;
                NodeTest::Wildcard
            } else {
                let n = self.name()?;
                if n == "text" && self.b[self.pos..].starts_with(b"()") {
                    self.pos += 2;
                    NodeTest::Text
                } else {
                    NodeTest::Name(n)
                }
            };
            let predicate =
                if self.peek() == Some(b'[') { Some(self.step_predicate()?) } else { None };
            steps.push(Step { axis, test, predicate });
        }
        self.ws();
        Ok(steps)
    }

    fn step_predicate(&mut self) -> PResult<StepPredicate> {
        self.expect_tok("[")?;
        // positional?
        if self.peek().is_some_and(|c| c.is_ascii_digit()) {
            let start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            let n: usize = std::str::from_utf8(&self.b[start..self.pos])
                .ok()
                .and_then(|digits| digits.parse().ok())
                .ok_or_else(|| self.err("bad position"))?;
            if n == 0 {
                return Err(self.err("positions are 1-based: [0] selects nothing"));
            }
            self.ws();
            self.expect_tok("]")?;
            return Ok(StepPredicate::Position(n));
        }
        // relative path comparison: path op "literal"
        let mut rel = Vec::new();
        loop {
            let axis = if self.b[self.pos..].starts_with(b"//") {
                self.pos += 2;
                Axis::Descendant
            } else if self.peek() == Some(b'/') {
                self.pos += 1;
                Axis::Child
            } else if rel.is_empty() {
                Axis::Child // first step may omit leading slash: [title = "x"]
            } else {
                break;
            };
            if self.peek() == Some(b'@') {
                self.pos += 1;
                rel.push(Step { axis, test: NodeTest::Attr(self.name()?), predicate: None });
            } else {
                let n = self.name()?;
                let test = if n == "text" && self.b[self.pos..].starts_with(b"()") {
                    self.pos += 2;
                    NodeTest::Text
                } else {
                    NodeTest::Name(n)
                };
                rel.push(Step { axis, test, predicate: None });
            }
            if self.peek() != Some(b'/') {
                break;
            }
        }
        self.ws();
        let op = self.cmp_op()?;
        let value = self.literal()?;
        self.expect_tok("]")?;
        Ok(StepPredicate::Cmp { path: rel, op, value })
    }

    fn cmp_op(&mut self) -> PResult<CmpOp> {
        for (tok, op) in [
            ("!=", CmpOp::Ne),
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("=", CmpOp::Eq),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
        ] {
            if self.try_tok(tok) {
                return Ok(op);
            }
        }
        Err(self.err("expected comparison operator"))
    }

    // ---- FLWOR -------------------------------------------------------

    fn flwor(&mut self) -> PResult<Flwor> {
        let mut f = Flwor::default();
        loop {
            if self.kw("for") {
                loop {
                    let var = self.var()?;
                    if !self.kw("in") {
                        return Err(self.err("expected 'in'"));
                    }
                    let source = self.expr_single()?;
                    f.fors.push(ForBind { var, source });
                    if !self.try_tok(",") {
                        break;
                    }
                    // allow optional `for` repetition after comma
                    self.kw("for");
                }
            } else if self.kw("let") {
                loop {
                    let var = self.var()?;
                    self.expect_tok(":=")?;
                    let e = self.expr_single()?;
                    f.lets.push((var, e));
                    if !self.try_tok(",") {
                        break;
                    }
                    self.kw("let");
                }
            } else {
                break;
            }
        }
        if f.fors.is_empty() && f.lets.is_empty() {
            return Err(self.err("expected 'for' or 'let'"));
        }
        if self.kw("where") {
            f.where_ = Some(self.bool_expr()?);
        }
        if self.kw("order") {
            if !self.kw("by") {
                return Err(self.err("expected 'by' after 'order'"));
            }
            loop {
                let expr = self.operand()?;
                let descending = if self.kw("descending") {
                    true
                } else {
                    self.kw("ascending");
                    false
                };
                f.order_by.push(OrderSpec { expr, descending });
                if !self.try_tok(",") {
                    break;
                }
            }
        }
        if !self.kw("return") {
            return Err(self.err("expected 'return'"));
        }
        f.ret = Some(self.expr_single()?);
        Ok(f)
    }

    pub(crate) fn bool_expr(&mut self) -> PResult<BoolExpr> {
        let mut acc = self.comparison()?;
        while self.kw("and") {
            let rhs = self.comparison()?;
            acc = BoolExpr::And(Box::new(acc), Box::new(rhs));
        }
        Ok(acc)
    }

    fn comparison(&mut self) -> PResult<BoolExpr> {
        let lhs = self.operand()?;
        let op = self.cmp_op()?;
        let rhs = self.operand()?;
        Ok(BoolExpr::Cmp { lhs, op, rhs })
    }

    // ---- direct element constructors ----------------------------------

    fn elem_constructor(&mut self) -> PResult<ElemCons> {
        self.expect_raw(b'<')?;
        let name = self.name()?;
        let mut attrs = Vec::new();
        loop {
            self.ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect_raw(b'>')?;
                    self.ws();
                    return Ok(ElemCons { name, attrs, children: Vec::new() });
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let k = self.name()?;
                    self.ws();
                    self.expect_raw(b'=')?;
                    self.ws();
                    attrs.push((k, self.attr_value()?));
                }
                None => return Err(self.err("unexpected end in constructor tag")),
            }
        }
        // Content mode.
        let mut children = Vec::new();
        loop {
            match self.peek() {
                Some(b'<') => {
                    if self.b[self.pos..].starts_with(b"</") {
                        self.pos += 2;
                        let close = self.name()?;
                        if close != name {
                            return Err(
                                self.err(format!("mismatched </{close}>, expected </{name}>"))
                            );
                        }
                        self.ws();
                        self.expect_raw(b'>')?;
                        self.ws();
                        return Ok(ElemCons { name, attrs, children });
                    }
                    children.push(Expr::Elem(Box::new(self.elem_constructor()?)));
                }
                Some(b'{') => {
                    self.pos += 1;
                    self.ws();
                    let mut exprs = vec![self.expr_single()?];
                    while self.try_tok(",") {
                        exprs.push(self.expr_single()?);
                    }
                    self.expect_tok("}")?;
                    children.push(match <[Expr; 1]>::try_from(exprs) {
                        Ok([e]) => e,
                        Err(exprs) => Expr::Seq(exprs),
                    });
                }
                Some(_) => {
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != b'<' && c != b'{') {
                        self.pos += 1;
                    }
                    let text = String::from_utf8_lossy(&self.b[start..self.pos]).into_owned();
                    let trimmed = text.trim();
                    if !trimmed.is_empty() {
                        children.push(Expr::Literal(trimmed.to_string()));
                    }
                }
                None => return Err(self.err(format!("unexpected end inside <{name}>"))),
            }
        }
    }

    /// Attribute value: `"literal"` or `"{expr}"` (optionally with
    /// surrounding literal text, which the paper's queries do not use).
    fn attr_value(&mut self) -> PResult<AttrValue> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.pos += 1;
        // embedded expression?
        let mut literal = String::new();
        let mut expr: Option<Expr> = None;
        loop {
            match self.peek() {
                Some(c) if c == quote => {
                    self.pos += 1;
                    self.ws();
                    break;
                }
                Some(b'{') => {
                    self.pos += 1;
                    self.ws();
                    let e = self.expr_single()?;
                    self.expect_tok("}")?;
                    if expr.is_some() {
                        return Err(self.err("multiple embedded expressions in one attribute"));
                    }
                    expr = Some(e);
                }
                Some(c) => {
                    literal.push(c as char);
                    self.pos += 1;
                }
                None => return Err(self.err("unterminated attribute value")),
            }
        }
        match expr {
            Some(e) if literal.trim().is_empty() => Ok(AttrValue::Expr(e)),
            Some(_) => Err(self.err("mixed literal/expression attribute values unsupported")),
            None => Ok(AttrValue::Literal(literal)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_path_query() {
        let e = parse_query(r#"doc("bib.xml")/bib/book"#).unwrap();
        match e {
            Expr::Path(p) => {
                assert_eq!(p.source, PathSource::Doc("bib.xml".into()));
                assert_eq!(p.steps.len(), 2);
                assert_eq!(p.steps[1].test, NodeTest::Name("book".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_descendant_axis_and_tests() {
        let e = parse_query(r#"doc("site.xml")//person/@id"#).unwrap();
        let Expr::Path(p) = e else { panic!() };
        assert_eq!(p.steps[0].axis, Axis::Descendant);
        assert_eq!(p.steps[1].test, NodeTest::Attr("id".into()));
        let e2 = parse_query(r#"doc("a.xml")/x/text()"#).unwrap();
        let Expr::Path(p2) = e2 else { panic!() };
        assert_eq!(p2.steps[1].test, NodeTest::Text);
    }

    #[test]
    fn parse_flat_flwor() {
        let q = r#"for $p in doc("site.xml")/people/person/profile return $p"#;
        let Expr::Flwor(f) = parse_query(q).unwrap() else { panic!() };
        assert_eq!(f.fors.len(), 1);
        assert_eq!(f.fors[0].var, "p");
        assert_eq!(f.ret, Some(Expr::Var("p".into())));
    }

    #[test]
    fn parse_multi_var_for_with_where() {
        let q = r#"for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
                   where $b/title = $e/b-title return $b"#;
        let Expr::Flwor(f) = parse_query(q).unwrap() else { panic!() };
        assert_eq!(f.fors.len(), 2);
        let w = f.where_.unwrap();
        assert_eq!(w.conjuncts().len(), 1);
    }

    #[test]
    fn parse_constructor_with_embedded_exprs() {
        let q = r#"<result>{ for $b in doc("bib.xml")/bib/book return <entry>{$b/title}</entry> }</result>"#;
        let Expr::Elem(c) = parse_query(q).unwrap() else { panic!() };
        assert_eq!(c.name, "result");
        assert_eq!(c.children.len(), 1);
        assert!(matches!(c.children[0], Expr::Flwor(_)));
    }

    #[test]
    fn parse_attr_expr_and_literal() {
        let q = r#"<yGroup Y="{$y}" kind="group"/>"#;
        let Expr::Elem(c) = parse_query(q).unwrap() else { panic!() };
        assert_eq!(c.attrs.len(), 2);
        assert_eq!(c.attrs[0].1, AttrValue::Expr(Expr::Var("y".into())));
        assert_eq!(c.attrs[1].1, AttrValue::Literal("group".into()));
    }

    #[test]
    fn parse_running_example_figure_1_2() {
        // The paper's running-example view (Figure 1.2(a)), canonical braces.
        let q = r#"
        <result>{
          for $y in distinct-values(doc("bib.xml")/bib/book/@year)
          order by $y
          return
            <yGroup Y="{$y}">
              <books>{
                for $b in doc("bib.xml")/bib/book,
                    $e in doc("prices.xml")/prices/entry
                where $y = $b/@year and $b/title = $e/b-title
                return <entry>{$b/title}{$e/price}</entry>
              }</books>
            </yGroup>
        }</result>"#;
        let Expr::Elem(root) = parse_query(q).unwrap() else { panic!() };
        assert_eq!(root.name, "result");
        let Expr::Flwor(outer) = &root.children[0] else { panic!() };
        assert!(matches!(outer.fors[0].source, Expr::DistinctValues(_)));
        assert_eq!(outer.order_by.len(), 1);
        let Some(Expr::Elem(ygroup)) = &outer.ret else { panic!() };
        assert_eq!(ygroup.name, "yGroup");
        let Expr::Elem(books) = &ygroup.children[0] else { panic!() };
        let Expr::Flwor(inner) = &books.children[0] else { panic!() };
        assert_eq!(inner.fors.len(), 2);
        assert_eq!(inner.where_.as_ref().unwrap().conjuncts().len(), 2);
        let Some(Expr::Elem(entry)) = &inner.ret else { panic!() };
        assert_eq!(entry.children.len(), 2);
    }

    #[test]
    fn parse_order_by_descending_and_lists() {
        let q = r#"for $c in doc("s.xml")/a/b order by $c/x descending, $c/y return $c"#;
        let Expr::Flwor(f) = parse_query(q).unwrap() else { panic!() };
        assert_eq!(f.order_by.len(), 2);
        assert!(f.order_by[0].descending);
        assert!(!f.order_by[1].descending);
    }

    #[test]
    fn parse_let_clause() {
        let q = r#"let $t := doc("bib.xml")/bib/book return <r>{$t}</r>"#;
        let Expr::Flwor(f) = parse_query(q).unwrap() else { panic!() };
        assert_eq!(f.lets.len(), 1);
        assert_eq!(f.lets[0].0, "t");
    }

    #[test]
    fn parse_path_predicates() {
        let q = r#"doc("bib.xml")/bib/book[title = "Data on the Web"]"#;
        let Expr::Path(p) = parse_query(q).unwrap() else { panic!() };
        let Some(StepPredicate::Cmp { path, op, value }) = &p.steps[1].predicate else { panic!() };
        assert_eq!(path.len(), 1);
        assert_eq!(*op, CmpOp::Eq);
        assert_eq!(value, "Data on the Web");
        // positional
        let q2 = r#"document("bib.xml")/bib/book[2]"#;
        let Expr::Path(p2) = parse_query(q2).unwrap() else { panic!() };
        assert_eq!(p2.steps[1].predicate, Some(StepPredicate::Position(2)));
    }

    #[test]
    fn parse_aggregates_and_distinct() {
        let q = r#"count(doc("s.xml")//person)"#;
        assert!(matches!(parse_query(q).unwrap(), Expr::Agg { func: AggFunc::Count, .. }));
        let q2 = r#"distinct-values(doc("s.xml")//city)"#;
        assert!(matches!(parse_query(q2).unwrap(), Expr::DistinctValues(_)));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_query("for $x in").is_err());
        assert!(parse_query(r#"<a>{$x}</b>"#).is_err());
        assert!(parse_query(r#"doc("x") extra"#).is_err());
        assert!(parse_query("").is_err());
    }

    #[test]
    fn uppercase_keywords_accepted() {
        let q = r#"FOR $p IN doc("s.xml")/people/person RETURN $p"#;
        assert!(matches!(parse_query(q).unwrap(), Expr::Flwor(_)));
    }

    #[test]
    fn comments_skipped() {
        let q = r#"(: the view :) for $p in doc("s.xml")/a (: inner :) return $p"#;
        assert!(parse_query(q).is_ok());
    }

    #[test]
    fn constructor_literal_text_content() {
        let q = r#"<greeting>hello world</greeting>"#;
        let Expr::Elem(c) = parse_query(q).unwrap() else { panic!() };
        assert_eq!(c.children, vec![Expr::Literal("hello world".into())]);
    }
}

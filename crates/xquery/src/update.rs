//! The script parser of the XQuery update language of \[TIHW01\], as used
//! for source updates (Figure 1.3):
//!
//! ```text
//! for $v in document("doc.xml")/path [where <cond>]
//! update $v {
//!     insert <fragment…/> (before | after) $v        -- or: into $v
//!   | delete $v[/path]
//!   | replace $v/path[/text()] with "literal"
//! }
//! ```
//!
//! (The braces are optional, matching the paper's own examples.) The target
//! binding path may use positional predicates (`/bib/book[2]`,
//! Figure 1.3(a)). Statements parse straight to [`UpdateOp`]s, through the
//! query parser's own literals, paths and conditions; the entry point is
//! [`crate::UpdateBatch::from_script`].

use crate::ast::{NodeTest, Step};
use crate::ops::{InsertPosition, OpAction, UpdateOp};
use crate::parser::{QueryParseError, P};

/// Parse a sequence of update statements (separated by whitespace or `;`).
pub(crate) fn parse_script(input: &str) -> Result<Vec<UpdateOp>, QueryParseError> {
    let mut p = P { b: input.as_bytes(), pos: 0 };
    let mut out = Vec::new();
    p.ws();
    while p.pos < p.b.len() {
        out.push(parse_one(&mut p)?);
        while p.try_tok(";") {}
    }
    Ok(out)
}

fn parse_one(p: &mut P) -> Result<UpdateOp, QueryParseError> {
    if !p.kw("for") {
        return Err(p.err("expected 'for' at start of update statement"));
    }
    let var = p.var()?;
    if !p.kw("in") {
        return Err(p.err("expected 'in'"));
    }
    // document("…")/path
    let fname = p.name()?;
    p.ws();
    if !matches!(fname.to_ascii_lowercase().as_str(), "doc" | "document") {
        return Err(p.err("expected doc(...) or document(...)"));
    }
    p.expect_tok("(")?;
    let doc = p.string_lit()?;
    p.expect_tok(")")?;
    let path = p.steps()?;
    let filter = if p.kw("where") { Some(p.bool_expr()?) } else { None };
    if !p.kw("update") {
        return Err(p.err("expected 'update'"));
    }
    same_var(p, &var, "update")?;
    // Optional braces around the action.
    let braced = p.try_tok("{");
    let action = parse_action(p, &var)?;
    if braced {
        p.expect_tok("}")?;
    }
    Ok(UpdateOp::from_parts(var, doc, path, filter, action))
}

fn parse_action(p: &mut P, var: &str) -> Result<OpAction, QueryParseError> {
    if p.kw("insert") {
        let fragment_xml = raw_fragment(p)?;
        let position = if p.kw("after") {
            InsertPosition::After
        } else if p.kw("before") {
            InsertPosition::Before
        } else if p.kw("into") {
            InsertPosition::Into
        } else {
            return Err(p.err("expected 'after', 'before' or 'into'"));
        };
        same_var(p, var, "position")?;
        Ok(OpAction::Insert { position, fragment_xml })
    } else if p.kw("delete") {
        same_var(p, var, "delete")?;
        Ok(OpAction::Delete { rel_path: p.steps()? })
    } else if p.kw("replace") {
        same_var(p, var, "replace")?;
        let mut rel_path = p.steps()?;
        // A trailing text() step addresses the text content; strip it.
        if matches!(rel_path.last(), Some(Step { test: NodeTest::Text, .. })) {
            rel_path.pop();
        }
        if !p.kw("with") {
            return Err(p.err("expected 'with'"));
        }
        Ok(OpAction::ReplaceText { rel_path, new_value: p.literal()? })
    } else {
        Err(p.err("expected 'insert', 'delete' or 'replace'"))
    }
}

/// The bound `$var` again, as the `role` target of the statement.
fn same_var(p: &mut P, var: &str, role: &str) -> Result<(), QueryParseError> {
    let v = p.var()?;
    if v != var {
        return Err(p.err(format!("{role} target ${v} does not match ${var}")));
    }
    Ok(())
}

/// Scan a raw XML fragment: from `<` to the matching close of the first
/// element, honoring nesting, self-closing tags and quoted attribute
/// values. The fragment is kept as text; `xmlstore::parse_document`
/// materializes it later.
fn raw_fragment(p: &mut P) -> Result<String, QueryParseError> {
    if p.peek() != Some(b'<') || p.b[p.pos..].starts_with(b"</") {
        return Err(p.err("expected XML fragment after 'insert'"));
    }
    let start = p.pos;
    let unterminated = |p: &P| p.err("unterminated XML fragment");
    // Open elements; the first tag opens, so a close tag never finds 0.
    let mut depth = 0usize;
    loop {
        // At a `<`: scan the tag to its `>`.
        let close = p.b[p.pos..].starts_with(b"</");
        let mut self_closing = false;
        loop {
            match p.peek().ok_or_else(|| unterminated(p))? {
                b'>' => break,
                b'/' => self_closing = p.b.get(p.pos + 1) == Some(&b'>'),
                q @ (b'"' | b'\'') => {
                    p.pos += 1;
                    while p.peek().ok_or_else(|| unterminated(p))? != q {
                        p.pos += 1;
                    }
                }
                _ => {}
            }
            p.pos += 1;
        }
        p.pos += 1;
        if close {
            depth -= 1;
        } else if !self_closing {
            depth += 1;
        }
        if depth == 0 {
            break;
        }
        // Text up to the next tag.
        while p.peek().ok_or_else(|| unterminated(p))? != b'<' {
            p.pos += 1;
        }
    }
    let xml = String::from_utf8_lossy(&p.b[start..p.pos]).into_owned();
    p.ws();
    Ok(xml)
}

#[cfg(test)]
mod tests {
    use crate::ast::{NodeTest, StepPredicate};
    use crate::ops::{InsertPosition, OpAction, OpKind, UpdateBatch, UpdateOp};
    use crate::parser::parse_query;

    fn parse(script: &str) -> Vec<UpdateOp> {
        UpdateBatch::from_script(script).unwrap().into_iter().collect()
    }

    #[test]
    fn parse_figure_1_3a_insert_after() {
        let u = r#"for $book in document("bib.xml")/bib/book[2]
            update $book
            insert <book year="1994"><title>Advanced programming in the Unix environment</title><author><last>Stevens</last><first>W.</first></author></book> after $book"#;
        let ops = parse(u);
        assert_eq!(ops.len(), 1);
        let op = &ops[0];
        assert_eq!(op.doc(), "bib.xml");
        assert_eq!(op.path()[1].predicate, Some(StepPredicate::Position(2)));
        let OpAction::Insert { position: InsertPosition::After, fragment_xml } = op.action() else {
            panic!()
        };
        assert!(fragment_xml.starts_with("<book year=\"1994\">"));
        assert!(fragment_xml.ends_with("</book>"));
    }

    #[test]
    fn parse_figure_1_3b_delete() {
        let u = r#"for $book in document("bib.xml")/bib/book
            where $book/title = "Data on the Web"
            update $book
            delete $book"#;
        let ops = parse(u);
        assert!(ops[0].filter_expr().is_some());
        assert_eq!(ops[0].action(), &OpAction::Delete { rel_path: vec![] });
    }

    #[test]
    fn parse_figure_1_3c_replace() {
        let u = r#"for $entry in document("prices.xml")/prices/entry
            where $entry/b-title = "TCP/IP Illustrated"
            update $entry
            replace $entry/price/text() with "70""#;
        let ops = parse(u);
        let OpAction::ReplaceText { rel_path, new_value } = ops[0].action() else { panic!() };
        assert_eq!(rel_path.len(), 1, "text() step stripped");
        assert_eq!(rel_path[0].test, NodeTest::Name("price".into()));
        assert_eq!(new_value, "70");
    }

    #[test]
    fn parse_batch_of_heterogeneous_updates() {
        let u = r#"
        for $b in doc("bib.xml")/bib/book[1] update $b insert <note>x</note> into $b ;
        for $b in doc("bib.xml")/bib/book where $b/@year = "2000" update $b delete $b ;
        for $e in doc("prices.xml")/prices/entry[1] update $e replace $e/price with "10"
        "#;
        let kinds: Vec<OpKind> = parse(u).iter().map(UpdateOp::kind).collect();
        assert_eq!(kinds, [OpKind::Insert, OpKind::Delete, OpKind::Modify]);
    }

    fn fragment(script: &str) -> String {
        let ops = parse(script);
        let OpAction::Insert { fragment_xml, .. } = ops[0].action() else { panic!() };
        fragment_xml.clone()
    }

    #[test]
    fn self_closing_fragment() {
        let u = r#"for $b in doc("bib.xml")/bib/book[1] update $b insert <flag set="1"/> into $b"#;
        assert_eq!(fragment(u), r#"<flag set="1"/>"#);
    }

    #[test]
    fn nested_fragment_with_gt_in_attr() {
        let u = r#"for $b in doc("b.xml")/r update $b insert <a t="x>y"><c/></a> into $b"#;
        assert_eq!(fragment(u), r#"<a t="x>y"><c/></a>"#);
    }

    #[test]
    fn errors() {
        for bad in [
            "for $b in doc(\"x\")/r update $c delete $c",
            "for $b in doc(\"x\")/r update $b explode $b",
            "update $b delete $b",
            "for $b in doc(\"x\")/r update $b insert </a> into $b",
            "for $b in doc(\"x\")/r update $b insert <a><b/> into $b",
            "for $b in doc(\"x\")/r update $b replace $b with \"open",
            "for $b in doc(\"x)/r update $b delete $b",
        ] {
            assert!(UpdateBatch::from_script(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn braced_action_accepted() {
        let u = r#"for $b in doc("x.xml")/r update $b { delete $b }"#;
        assert!(UpdateBatch::from_script(u).is_ok());
    }

    /// Every prefix of a valid script or view query is `Ok` or `Err`, never
    /// a panic.
    #[test]
    fn prefixes_never_panic() {
        let scripts = [
            r#"for $b in document("bib.xml")/bib/book[2] update $b insert <book year="1994"><title>Advanced</title></book> after $b"#,
            r#"for $b in doc("bib.xml")/bib/book where $b/title = "Data on the Web" and $b/@year > 1990 update $b delete $b"#,
            r#"for $b in doc('bib.xml')/bib/book where $b/@year = "1994" update $b { replace $b/title/text() with "TCP/IP 2e" }"#,
            r#"for $b in doc("bib.xml")/bib/book[title = "X"] update $b replace $b/price with 12.5 ; for $r in doc("bib.xml")/bib update $r insert <x a='>'/> into $r"#,
        ];
        let queries = [
            r#"<r>{ for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry where $b/title = $e/b-title order by $e/price descending return <p>{$b/title}{$e/price}</p> }</r>"#,
            r#"<r>{ for $y in distinct-values(doc("bib.xml")/bib/book/@year) let $n := count(doc("bib.xml")/bib/book) return <g y="{$y}">{$n}</g> }</r>"#,
        ];
        let prefixes =
            |s: &'static str| (0..s.len()).filter(|&i| s.is_char_boundary(i)).map(|i| &s[..i]);
        for s in scripts {
            assert_eq!(
                UpdateBatch::from_script(s).map(|b| b.len()),
                Ok(1 + s.matches(';').count())
            );
            prefixes(s).for_each(|pre| drop(UpdateBatch::from_script(pre)));
        }
        for q in queries {
            assert!(parse_query(q).is_ok(), "{q}");
            prefixes(q).for_each(|pre| drop(parse_query(pre)));
        }
    }
}

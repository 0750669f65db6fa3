//! [`wire`] codec impls for the typed update API and the expression AST it
//! embeds — an encoded [`UpdateBatch`] is **the WAL record payload**: the
//! durable journal stores exactly the ordered op sequence the maintenance
//! stack applies, so recovery replays through the same `apply_batch` path
//! as live ingestion.
//!
//! Encodings (enum tag bytes noted per type):
//!
//! * [`Axis`] — `0` Child, `1` Descendant;
//! * [`NodeTest`] — `0` Name, `1` Attr, `2` Text, `3` Wildcard;
//! * [`StepPredicate`] — `0` Cmp, `1` Position;
//! * [`PathSource`] — `0` Doc, `1` Var;
//! * [`CmpOp`] — `0`–`5` in declaration order;
//! * [`AggFunc`] — `0`–`4` in declaration order;
//! * [`BoolExpr`] — `0` Cmp, `1` And;
//! * [`AttrValue`] — `0` Literal, `1` Expr;
//! * [`Expr`] — `0` Path, `1` Var, `2` DistinctValues, `3` Agg,
//!   `4` Flwor, `5` Elem, `6` Seq, `7` Literal, `8` Number;
//! * [`InsertPosition`] — `0` Before, `1` After, `2` Into;
//! * [`OpAction`] — `0` Insert, `1` Delete, `2` ReplaceText;
//! * [`UpdateOp`] — var, doc, path, optional filter, action;
//! * [`UpdateBatch`] — op sequence in application order.
//!
//! The full [`Expr`] grammar is covered (not just the comparison subset
//! update filters use today), so any AST a parsed statement can carry
//! round-trips losslessly.

use crate::ast::{
    AggFunc, AttrValue, Axis, BoolExpr, CmpOp, ElemCons, Expr, Flwor, ForBind, NodeTest, OrderSpec,
    PathExpr, PathSource, Step, StepPredicate,
};
use crate::ops::{InsertPosition, OpAction, UpdateBatch, UpdateOp};
use wire::{put_slice, Decode, Encode, Reader, WireError};

impl Encode for Axis {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Axis::Child => 0,
            Axis::Descendant => 1,
        });
    }
}

impl Decode for Axis {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(Axis::Child),
            1 => Ok(Axis::Descendant),
            tag => Err(WireError::Tag { type_name: "Axis", tag }),
        }
    }
}

impl Encode for NodeTest {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NodeTest::Name(n) => {
                out.push(0);
                n.encode(out);
            }
            NodeTest::Attr(n) => {
                out.push(1);
                n.encode(out);
            }
            NodeTest::Text => out.push(2),
            NodeTest::Wildcard => out.push(3),
        }
    }
}

impl Decode for NodeTest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(NodeTest::Name(String::decode(r)?)),
            1 => Ok(NodeTest::Attr(String::decode(r)?)),
            2 => Ok(NodeTest::Text),
            3 => Ok(NodeTest::Wildcard),
            tag => Err(WireError::Tag { type_name: "NodeTest", tag }),
        }
    }
}

impl Encode for StepPredicate {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StepPredicate::Cmp { path, op, value } => {
                out.push(0);
                put_slice(out, path);
                op.encode(out);
                value.encode(out);
            }
            StepPredicate::Position(p) => {
                out.push(1);
                p.encode(out);
            }
        }
    }
}

impl Decode for StepPredicate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(StepPredicate::Cmp {
                path: Vec::<Step>::decode(r)?,
                op: CmpOp::decode(r)?,
                value: String::decode(r)?,
            }),
            1 => match usize::decode(r)? {
                0 => Err(WireError::Invalid("step position 0: positions are 1-based".into())),
                n => Ok(StepPredicate::Position(n)),
            },
            tag => Err(WireError::Tag { type_name: "StepPredicate", tag }),
        }
    }
}

impl Encode for Step {
    fn encode(&self, out: &mut Vec<u8>) {
        self.axis.encode(out);
        self.test.encode(out);
        self.predicate.encode(out);
    }
}

impl Decode for Step {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Step {
            axis: Axis::decode(r)?,
            test: NodeTest::decode(r)?,
            predicate: Option::<StepPredicate>::decode(r)?,
        })
    }
}

impl Encode for PathSource {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PathSource::Doc(d) => {
                out.push(0);
                d.encode(out);
            }
            PathSource::Var(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl Decode for PathSource {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(PathSource::Doc(String::decode(r)?)),
            1 => Ok(PathSource::Var(String::decode(r)?)),
            tag => Err(WireError::Tag { type_name: "PathSource", tag }),
        }
    }
}

impl Encode for PathExpr {
    fn encode(&self, out: &mut Vec<u8>) {
        self.source.encode(out);
        put_slice(out, &self.steps);
    }
}

impl Decode for PathExpr {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PathExpr { source: PathSource::decode(r)?, steps: Vec::<Step>::decode(r)? })
    }
}

impl Encode for CmpOp {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        });
    }
}

impl Decode for CmpOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.byte()? {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            5 => CmpOp::Ge,
            tag => return Err(WireError::Tag { type_name: "CmpOp", tag }),
        })
    }
}

impl Encode for AggFunc {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            AggFunc::Count => 0,
            AggFunc::Sum => 1,
            AggFunc::Avg => 2,
            AggFunc::Min => 3,
            AggFunc::Max => 4,
        });
    }
}

impl Decode for AggFunc {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.byte()? {
            0 => AggFunc::Count,
            1 => AggFunc::Sum,
            2 => AggFunc::Avg,
            3 => AggFunc::Min,
            4 => AggFunc::Max,
            tag => return Err(WireError::Tag { type_name: "AggFunc", tag }),
        })
    }
}

impl Encode for BoolExpr {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BoolExpr::Cmp { lhs, op, rhs } => {
                out.push(0);
                lhs.encode(out);
                op.encode(out);
                rhs.encode(out);
            }
            BoolExpr::And(a, b) => {
                out.push(1);
                a.encode(out);
                b.encode(out);
            }
        }
    }
}

impl Decode for BoolExpr {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(BoolExpr::Cmp {
                lhs: Expr::decode(r)?,
                op: CmpOp::decode(r)?,
                rhs: Expr::decode(r)?,
            }),
            1 => Ok(BoolExpr::And(Box::new(BoolExpr::decode(r)?), Box::new(BoolExpr::decode(r)?))),
            tag => Err(WireError::Tag { type_name: "BoolExpr", tag }),
        }
    }
}

impl Encode for OrderSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.expr.encode(out);
        self.descending.encode(out);
    }
}

impl Decode for OrderSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OrderSpec { expr: Expr::decode(r)?, descending: bool::decode(r)? })
    }
}

impl Encode for ForBind {
    fn encode(&self, out: &mut Vec<u8>) {
        self.var.encode(out);
        self.source.encode(out);
    }
}

impl Decode for ForBind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ForBind { var: String::decode(r)?, source: Expr::decode(r)? })
    }
}

impl Encode for Flwor {
    fn encode(&self, out: &mut Vec<u8>) {
        put_slice(out, &self.fors);
        put_slice(out, &self.lets);
        self.where_.encode(out);
        put_slice(out, &self.order_by);
        self.ret.encode(out);
    }
}

impl Decode for Flwor {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Flwor {
            fors: Vec::<ForBind>::decode(r)?,
            lets: Vec::<(String, Expr)>::decode(r)?,
            where_: Option::<BoolExpr>::decode(r)?,
            order_by: Vec::<OrderSpec>::decode(r)?,
            ret: Option::<Expr>::decode(r)?,
        })
    }
}

impl Encode for AttrValue {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AttrValue::Literal(s) => {
                out.push(0);
                s.encode(out);
            }
            AttrValue::Expr(e) => {
                out.push(1);
                e.encode(out);
            }
        }
    }
}

impl Decode for AttrValue {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(AttrValue::Literal(String::decode(r)?)),
            1 => Ok(AttrValue::Expr(Expr::decode(r)?)),
            tag => Err(WireError::Tag { type_name: "AttrValue", tag }),
        }
    }
}

impl Encode for ElemCons {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        put_slice(out, &self.attrs);
        put_slice(out, &self.children);
    }
}

impl Decode for ElemCons {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ElemCons {
            name: String::decode(r)?,
            attrs: Vec::<(String, AttrValue)>::decode(r)?,
            children: Vec::<Expr>::decode(r)?,
        })
    }
}

impl Encode for Expr {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Expr::Path(p) => {
                out.push(0);
                p.encode(out);
            }
            Expr::Var(v) => {
                out.push(1);
                v.encode(out);
            }
            Expr::DistinctValues(e) => {
                out.push(2);
                e.encode(out);
            }
            Expr::Agg { func, arg } => {
                out.push(3);
                func.encode(out);
                arg.encode(out);
            }
            Expr::Flwor(f) => {
                out.push(4);
                f.encode(out);
            }
            Expr::Elem(c) => {
                out.push(5);
                c.encode(out);
            }
            Expr::Seq(es) => {
                out.push(6);
                put_slice(out, es);
            }
            Expr::Literal(s) => {
                out.push(7);
                s.encode(out);
            }
            Expr::Number(n) => {
                out.push(8);
                n.encode(out);
            }
        }
    }
}

impl Decode for Expr {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(Expr::Path(PathExpr::decode(r)?)),
            1 => Ok(Expr::Var(String::decode(r)?)),
            2 => Ok(Expr::DistinctValues(Box::new(Expr::decode(r)?))),
            3 => Ok(Expr::Agg { func: AggFunc::decode(r)?, arg: Box::new(Expr::decode(r)?) }),
            4 => Ok(Expr::Flwor(Box::new(Flwor::decode(r)?))),
            5 => Ok(Expr::Elem(Box::new(ElemCons::decode(r)?))),
            6 => Ok(Expr::Seq(Vec::<Expr>::decode(r)?)),
            7 => Ok(Expr::Literal(String::decode(r)?)),
            8 => Ok(Expr::Number(String::decode(r)?)),
            tag => Err(WireError::Tag { type_name: "Expr", tag }),
        }
    }
}

impl Encode for InsertPosition {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            InsertPosition::Before => 0,
            InsertPosition::After => 1,
            InsertPosition::Into => 2,
        });
    }
}

impl Decode for InsertPosition {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.byte()? {
            0 => InsertPosition::Before,
            1 => InsertPosition::After,
            2 => InsertPosition::Into,
            tag => return Err(WireError::Tag { type_name: "InsertPosition", tag }),
        })
    }
}

impl Encode for OpAction {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            OpAction::Insert { position, fragment_xml } => {
                out.push(0);
                position.encode(out);
                fragment_xml.encode(out);
            }
            OpAction::Delete { rel_path } => {
                out.push(1);
                put_slice(out, rel_path);
            }
            OpAction::ReplaceText { rel_path, new_value } => {
                out.push(2);
                put_slice(out, rel_path);
                new_value.encode(out);
            }
        }
    }
}

impl Decode for OpAction {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(OpAction::Insert {
                position: InsertPosition::decode(r)?,
                fragment_xml: String::decode(r)?,
            }),
            1 => Ok(OpAction::Delete { rel_path: Vec::<Step>::decode(r)? }),
            2 => Ok(OpAction::ReplaceText {
                rel_path: Vec::<Step>::decode(r)?,
                new_value: String::decode(r)?,
            }),
            tag => Err(WireError::Tag { type_name: "OpAction", tag }),
        }
    }
}

impl Encode for UpdateOp {
    fn encode(&self, out: &mut Vec<u8>) {
        self.var().encode(out);
        self.doc().encode(out);
        put_slice(out, self.path());
        match self.filter_expr() {
            None => out.push(0),
            Some(f) => {
                out.push(1);
                f.encode(out);
            }
        }
        self.action().encode(out);
    }
}

impl Decode for UpdateOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let var = String::decode(r)?;
        let doc = String::decode(r)?;
        let path = Vec::<Step>::decode(r)?;
        let filter = Option::<BoolExpr>::decode(r)?;
        let action = OpAction::decode(r)?;
        Ok(UpdateOp::from_parts(var, doc, path, filter, action))
    }
}

impl Encode for UpdateBatch {
    fn encode(&self, out: &mut Vec<u8>) {
        put_slice(out, self.ops());
    }
}

impl Decode for UpdateBatch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Vec::<UpdateOp>::decode(r)?.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(wire::from_slice::<T>(&wire::to_vec(&v)).unwrap(), v);
    }

    #[test]
    fn builder_ops_roundtrip() {
        rt(UpdateOp::insert(
            "bib.xml",
            "/bib",
            InsertPosition::Into,
            "<book year=\"2001\"><title>New</title></book>",
        )
        .unwrap());
        rt(UpdateOp::delete("bib.xml", "/bib/book[2]").unwrap());
        rt(UpdateOp::replace_text("prices.xml", "/prices/entry", "price/text()", "9.99")
            .unwrap()
            .filter("b-title", CmpOp::Eq, "New")
            .unwrap());
    }

    #[test]
    fn parsed_batch_roundtrips_losslessly() {
        let batch = UpdateBatch::from_script(
            r#"for $u in doc("bib.xml")/bib update $u
               insert <book year="2001"><title>New</title></book> into $u ;
               for $b in document("bib.xml")//book
               where $b/@year = "1994" and $b/title = "X"
               update $b insert <note>n</note> after $b ;
               for $b in doc("bib.xml")/bib/book[2] update $b delete $b/title ;
               for $e in doc("prices.xml")/prices/entry where $e/b-title = "New"
               update $e replace $e/price/text() with "9.99""#,
        )
        .unwrap();
        let back: UpdateBatch = wire::from_slice(&wire::to_vec(&batch)).unwrap();
        assert_eq!(back, batch);
    }

    /// A script with every action form, braces, single quotes, both step
    /// predicates and a `where … and …`.
    const GOLDEN_SCRIPT: &str = r#"
        for $b in document("bib.xml")/bib/book[2] update $b
            insert <book year="1994"><title>Advanced</title></book> after $b ;
        for $b in doc('bib.xml')/bib/book[title = "X"] update $b
            { insert <note kind='n'>n</note> before $b } ;
        for $r in doc("bib.xml")/bib update $r insert <x a='>'/> into $r ;
        for $b in doc("bib.xml")/bib/book
            where $b/title = "Data on the Web" and $b/@year > 1990 update $b delete $b ;
        for $b in doc("bib.xml")/bib/book[1] update $b delete $b/title ;
        for $b in doc('bib.xml')/bib/book where $b/@year = '1994'
            update $b { replace $b/title/text() with 'TCP/IP 2e' } ;
        for $e in doc("prices.xml")/prices/entry[price >= 10] update $e
            replace $e/price with 12.5"#;

    /// The WAL record of [`GOLDEN_SCRIPT`], hex: journals written by
    /// earlier builds replay only while these bytes hold.
    const GOLDEN_HEX: &str = "\
        070162076269622e786d6c0200000362696200000004626f6f6b010102000001303c626f6f6b20796561723d\
        2231393934223e3c7469746c653e416476616e6365643c2f7469746c653e3c2f626f6f6b3e0162076269622e\
        786d6c0200000362696200000004626f6f6b0100010000057469746c6500000158000000173c6e6f7465206b\
        696e643d276e273e6e3c2f6e6f74653e0172076269622e786d6c01000003626962000000020a3c7820613d27\
        3e272f3e0162076269622e786d6c0200000362696200000004626f6f6b000101000001016201000005746974\
        6c650000070f44617461206f6e20746865205765620000010162010001047965617200040804313939300100\
        0162076269622e786d6c0200000362696200000004626f6f6b0101010001010000057469746c650001620762\
        69622e786d6c0200000362696200000004626f6f6b0001000001016201000104796561720000070431393934\
        02010000057469746c6500095443502f495020326501650a7072696365732e786d6c02000006707269636573\
        00000005656e747279010001000005707269636500050231300002010000057072696365000431322e35";

    #[test]
    fn parsed_batch_wal_bytes_are_golden() {
        let batch = UpdateBatch::from_script(GOLDEN_SCRIPT).unwrap();
        assert_eq!(batch.len(), 7);
        let hex: String = wire::to_vec(&batch).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_HEX);
    }

    #[test]
    fn full_expr_grammar_roundtrips() {
        // A query exercising FLWOR, distinct-values, aggregates, element
        // construction with embedded attributes, sequences, and order-by.
        let q = r#"<result>{
            for $y in distinct-values(doc("bib.xml")/bib/book/@year)
            order by $y descending
            return <yGroup Y="{$y}">
                <n>{ count(
                    for $b in doc("bib.xml")/bib/book
                    where $y = $b/@year and $b/title != "X"
                    return $b
                ) }</n>
                {"lit"}
            </yGroup>
        }</result>"#;
        let expr = crate::parser::parse_query(q).unwrap();
        rt(expr);
    }

    #[test]
    fn empty_batch_roundtrips() {
        rt(UpdateBatch::new());
    }

    /// `[0]` can neither be parsed nor built, so only hostile bytes carry
    /// it; it must not reach the resolver's `skip(n - 1)`.
    #[test]
    fn position_zero_rejected() {
        let bytes = wire::to_vec(&StepPredicate::Position(0));
        assert!(matches!(
            wire::from_slice::<StepPredicate>(&bytes).unwrap_err(),
            WireError::Invalid(_)
        ));
        rt(StepPredicate::Position(1));
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(
            wire::from_slice::<Expr>(&[99]).unwrap_err(),
            WireError::Tag { type_name: "Expr", tag: 99 }
        ));
        assert!(matches!(
            wire::from_slice::<OpAction>(&[7]).unwrap_err(),
            WireError::Tag { type_name: "OpAction", .. }
        ));
    }
}

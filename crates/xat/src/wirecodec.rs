//! [`wire`] codec impls for materialized extents — the snapshot layer
//! persists each view's [`ViewExtent`] verbatim (semantic ids, count
//! annotations, and result order), so recovery reinstalls extents without
//! recomputing them.
//!
//! Encodings:
//!
//! * [`VNode`] — semantic id + node data + signed count + child sequence
//!   (recursive, children in result order);
//! * [`ViewExtent`] — root sequence.
//!
//! The `Arc`s that let extent versions share nodes are transparent here:
//! an encoding never says which nodes were shared.

use crate::extent::{VNode, ViewExtent};
use flexkey::SemId;
use wire::{put_slice, Decode, Encode, Reader, WireError};
use xmlstore::NodeData;

impl Encode for VNode {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sem.encode(out);
        self.data.encode(out);
        self.count.encode(out);
        put_slice(out, &self.children);
    }
}

impl Decode for VNode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(VNode {
            sem: SemId::decode(r)?,
            data: NodeData::decode(r)?,
            count: r.i64()?,
            children: Vec::decode(r)?,
        })
    }
}

impl Encode for ViewExtent {
    fn encode(&self, out: &mut Vec<u8>) {
        put_slice(out, &self.roots);
    }
}

impl Decode for ViewExtent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ViewExtent { roots: Vec::decode(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexkey::{FlexKey, LngAtom, OrdAtom, OrdKey};
    use std::sync::Arc;

    fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(wire::from_slice::<T>(&wire::to_vec(&v)).unwrap(), v);
    }

    #[test]
    fn vnode_roundtrip_preserves_ids_counts_order() {
        let mut group = VNode::new(
            SemId::constructed(vec![LngAtom::Val("1994".into())])
                .with_ord(OrdKey::from_atom(OrdAtom::text("1994"))),
            NodeData::Element { name: "yGroup".into(), attrs: vec![("Y".into(), "1994".into())] },
        );
        group.count = 2;
        let mut title =
            VNode::new(SemId::base(FlexKey::parse("b.b.b").unwrap()), NodeData::element("title"));
        title.children.push(Arc::new(VNode::new(
            SemId::base(FlexKey::parse("b.b.b.b").unwrap()),
            NodeData::text("T"),
        )));
        group.children.push(Arc::new(title));
        rt(group.clone());
        rt(ViewExtent { roots: vec![Arc::new(group)] });
        rt(ViewExtent::default());
    }

    fn node(sem: SemId, data: NodeData, count: i64, kids: Vec<VNode>) -> VNode {
        VNode { sem, data, count, children: kids.into_iter().map(Arc::new).collect() }
    }

    fn golden_extent() -> ViewExtent {
        let key = |s: &str| FlexKey::parse(s).unwrap();
        let title = |k: &str, t: &str| {
            let text = node(SemId::base(key(&format!("{k}.b"))), NodeData::text(t), 1, vec![]);
            node(SemId::base(key(k)), NodeData::element("title"), 1, vec![text])
        };
        let group = |y: &str, count: i64, kids: Vec<VNode>| {
            let sem = SemId::constructed(vec![LngAtom::Val(y.into())])
                .with_ord(OrdKey::from_atom(OrdAtom::text(y)));
            let data =
                NodeData::Element { name: "yGroup".into(), attrs: vec![("Y".into(), y.into())] };
            let books = node(
                SemId::constructed(vec![LngAtom::Val(y.into()), LngAtom::Star]),
                NodeData::element("books"),
                count,
                kids,
            );
            node(sem, data, count, vec![books])
        };
        let root = node(
            SemId::constructed(vec![LngAtom::Star]),
            NodeData::element("result"),
            1,
            vec![
                group("1994", 2, vec![title("b.b", "TCP/IP"), title("b.d", "Data & <Web>")]),
                group("2000", 1, vec![title("b.f", "Advanced")]),
            ],
        );
        let stray = node(
            SemId::constructed(vec![LngAtom::Val("x".into())]).with_no_order(),
            NodeData::element("gone"),
            -1,
            vec![],
        );
        ViewExtent { roots: vec![Arc::new(root), Arc::new(stray)] }
    }

    /// The encoding of [`golden_extent`] as produced when children were
    /// still owned in place (`Vec<VNode>`): sharing nodes behind `Arc`s must
    /// not change a single byte of snapshots or read responses.
    const GOLDEN_HEX: &str = concat!(
        "02000101020006726573756c740002020201010431393934010101043139393400067947726f7570",
        "01015904313939340401000102010431393934020005626f6f6b7300040200000201620162000574",
        "69746c6500020100000301620162016201065443502f495002000000020162016400057469746c65",
        "000201000003016201640162010c446174612026203c5765623e0200020101043230303001010104",
        "3230303000067947726f757001015904323030300201000102010432303030020005626f6f6b7300",
        "02010000020162016600057469746c650002010000030162016601620108416476616e6365640200",
        "0101010101780004676f6e65000100",
    );

    #[test]
    fn shared_extent_encodes_to_the_owned_tree_bytes() {
        let extent = golden_extent();
        let hex: String = wire::to_vec(&extent).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_HEX);
        let bytes: Vec<u8> = (0..GOLDEN_HEX.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN_HEX[i..i + 2], 16).unwrap())
            .collect();
        let back: ViewExtent = wire::from_slice(&bytes).unwrap();
        assert_eq!(back, extent);
        assert_eq!(back.size(), 12);
    }

    #[test]
    fn extent_roundtrip_serializes_identically() {
        let mut root = VNode::new(SemId::constructed(vec![LngAtom::Star]), NodeData::element("r"));
        let mut del = VNode::new(
            SemId::constructed(vec![LngAtom::Val("x".into())]).with_no_order(),
            NodeData::element("gone"),
        );
        del.count = -1;
        root.children.push(Arc::new(del));
        let extent = ViewExtent { roots: vec![Arc::new(root)] };
        let back: ViewExtent = wire::from_slice(&wire::to_vec(&extent)).unwrap();
        assert_eq!(back.to_xml(), extent.to_xml());
        assert_eq!(back, extent);
    }
}

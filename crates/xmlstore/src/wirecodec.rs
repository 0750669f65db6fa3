//! [`wire`] codec impls for the XML model and the storage manager —
//! serialization lives with the types, so the snapshot layer can persist a
//! whole [`Store`] (documents, key maps, count annotations, and the
//! root-segment allocation cursor) without reaching into its internals.
//!
//! Encodings (enum tag bytes noted per type):
//!
//! * [`NodeData`] — `0` Element (name + attr pairs), `1` Text;
//! * [`Node`] — data + signed derivation count;
//! * [`Frag`] — data + count + child sequence (recursive);
//! * [`Doc`] — name, root key, FlexKey→Node entries in key order;
//! * [`Store`] — documents in name order + `next_root` cursor.
//!
//! Decoding re-validates what the in-memory constructors would: segment
//! alphabets come back through [`flexkey`]'s validating codec, strings
//! through UTF-8 checks. A document's node stream bulk-loads into pages;
//! a permuted or key-repeating (hand-crafted) stream is sorted first, the
//! last of equal keys winning, so it still yields a correctly ordered store.

use crate::frag::{Frag, NodeData};
use crate::store::{Doc, Node, Store};
use flexkey::FlexKey;
use std::collections::BTreeMap;
use wire::{put_slice, put_u64, Decode, Encode, Reader, WireError};

impl Encode for NodeData {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NodeData::Element { name, attrs } => {
                out.push(0);
                name.encode(out);
                put_slice(out, attrs);
            }
            NodeData::Text { value } => {
                out.push(1);
                value.encode(out);
            }
        }
    }
}

impl Decode for NodeData {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(NodeData::Element {
                name: String::decode(r)?,
                attrs: Vec::<(String, String)>::decode(r)?,
            }),
            1 => Ok(NodeData::Text { value: String::decode(r)? }),
            tag => Err(WireError::Tag { type_name: "NodeData", tag }),
        }
    }
}

impl Encode for Node {
    fn encode(&self, out: &mut Vec<u8>) {
        self.data.encode(out);
        self.count.encode(out);
    }
}

impl Decode for Node {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Node { data: NodeData::decode(r)?, count: r.i64()? })
    }
}

impl Encode for Frag {
    fn encode(&self, out: &mut Vec<u8>) {
        self.data.encode(out);
        self.count.encode(out);
        put_slice(out, &self.children);
    }
}

impl Decode for Frag {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Frag { data: NodeData::decode(r)?, count: r.i64()?, children: Vec::<Frag>::decode(r)? })
    }
}

impl Encode for Doc {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.root.encode(out);
        put_u64(out, self.len() as u64);
        for (k, n) in self.iter() {
            k.encode(out);
            n.encode(out);
        }
    }
}

impl Decode for Doc {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let name = String::decode(r)?;
        let root = FlexKey::decode(r)?;
        let n = r.len_prefix()?;
        let mut nodes = Vec::new();
        for _ in 0..n {
            nodes.push((FlexKey::decode(r)?, Node::decode(r)?));
        }
        Ok(Doc::from_parts(name, root, nodes))
    }
}

impl Encode for Store {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.docs().len() as u64);
        for doc in self.docs().values() {
            doc.encode(out);
        }
        self.next_root().encode(out);
    }
}

impl Decode for Store {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.len_prefix()?;
        let mut docs = BTreeMap::new();
        for _ in 0..n {
            let doc = Doc::decode(r)?;
            docs.insert(doc.name.clone(), doc);
        }
        let next_root = usize::decode(r)?;
        Ok(Store::from_parts(docs, next_root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::InsertPos;

    const BIB: &str = r#"<bib>
        <book year="1994"><title>TCP/IP Illustrated</title>
            <author><last>Stevens</last><first>W.</first></author></book>
        <book year="2000"><title>Data on the Web</title></book>
    </bib>"#;

    fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(wire::from_slice::<T>(&wire::to_vec(&v)).unwrap(), v);
    }

    #[test]
    fn node_data_and_frag_roundtrip() {
        rt(NodeData::element("book"));
        rt(NodeData::Element {
            name: "b".into(),
            attrs: vec![("year".into(), "1994".into()), ("id".into(), "x\"<&".into())],
        });
        rt(NodeData::text("some text with <markup> & entities"));
        rt(Node { data: NodeData::text("t"), count: -3 });
        rt(Frag::elem("book")
            .attr("year", "1994")
            .child(Frag::elem("title").text_child("TCP/IP Illustrated")));
    }

    #[test]
    fn store_roundtrip_is_same_content() {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        s.load_doc("prices.xml", "<prices><entry><price>9.95</price></entry></prices>").unwrap();
        let back: Store = wire::from_slice(&wire::to_vec(&s)).unwrap();
        assert!(s.same_content(&back));
        // The decoded store serves queries identically…
        assert_eq!(back.serialize_doc("bib.xml"), s.serialize_doc("bib.xml"));
        let bib = back.doc_root("bib.xml").unwrap();
        assert_eq!(back.children_named(&bib, "book").len(), 2);
        // …and allocates the *same* keys for future documents.
        let mut a = s.clone();
        let mut b = back.clone();
        let ka = a.load_doc("extra.xml", "<x/>").unwrap();
        let kb = b.load_doc("extra.xml", "<x/>").unwrap();
        assert_eq!(ka, kb, "next_root survived the roundtrip");
        assert!(a.same_content(&b));
    }

    #[test]
    fn same_content_discriminates() {
        let mut a = Store::new();
        a.load_doc("bib.xml", BIB).unwrap();
        let b = a.clone();
        assert!(a.same_content(&b));

        // Different text content.
        let mut c = b.clone();
        let root = c.doc_root("bib.xml").unwrap();
        let title = c.descendants_named(&root, "title")[0].clone();
        c.replace_text(&title, "Other");
        assert!(!a.same_content(&c));

        // Different node set.
        let mut d = b.clone();
        let root = d.doc_root("bib.xml").unwrap();
        let book = d.children_named(&root, "book")[0].clone();
        d.delete_subtree(&book);
        assert!(!a.same_content(&d));

        // Same XML, different key allocation state.
        let mut e = b.clone();
        let root = e.doc_root("bib.xml").unwrap();
        let inserted = e.insert_fragment(&root, InsertPos::Last, &Frag::elem("tmp")).unwrap();
        e.delete_subtree(&inserted);
        assert!(a.same_content(&e), "insert+delete restores content equality");

        // Different doc names.
        let mut f = Store::new();
        f.load_doc("other.xml", BIB).unwrap();
        assert!(!a.same_content(&f));
    }

    #[test]
    fn updated_store_roundtrips() {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        let root = s.doc_root("bib.xml").unwrap();
        let books = s.children_named(&root, "book");
        s.insert_fragment(
            &root,
            InsertPos::After(books[0].clone()),
            &Frag::elem("book").attr("year", "1997").child(Frag::elem("title").text_child("Mid")),
        )
        .unwrap();
        s.delete_subtree(&books[1]);
        s.replace_attr(&books[0], "year", "1995");
        let back: Store = wire::from_slice(&wire::to_vec(&s)).unwrap();
        assert!(s.same_content(&back));
    }

    /// A store whose bib.xml has been through inserts, a delete and page
    /// splits since it was loaded.
    fn updated_store() -> Store {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        s.load_doc("prices.xml", "<prices><entry><price>9.95</price></entry></prices>").unwrap();
        let root = s.doc_root("bib.xml").unwrap();
        let books = s.children_named(&root, "book");
        for i in 0..40 {
            let frag = Frag::elem("book")
                .attr("year", format!("{}", 1950 + i))
                .child(Frag::elem("title").text_child(format!("Book {i}")));
            s.insert_fragment(&root, InsertPos::After(books[0].clone()), &frag).unwrap();
        }
        s.delete_subtree(&books[1]);
        s
    }

    /// The `Doc` encoding before the node map was paged: its nodes in a
    /// `BTreeMap`, written name, root, count, then entries in key order.
    fn encode_btreemap_layout(s: &Store, out: &mut Vec<u8>) {
        put_u64(out, s.docs().len() as u64);
        for doc in s.docs().values() {
            let nodes: BTreeMap<&FlexKey, &Node> = doc.iter().collect();
            doc.name.encode(out);
            doc.root.encode(out);
            put_u64(out, nodes.len() as u64);
            for (k, n) in nodes {
                k.encode(out);
                n.encode(out);
            }
        }
        s.next_root().encode(out);
    }

    #[test]
    fn paged_store_encodes_the_btreemap_layout_bytes() {
        let s = updated_store();
        let mut old = Vec::new();
        encode_btreemap_layout(&s, &mut old);
        assert_eq!(wire::to_vec(&s), old, "snapshots keep their bytes");
        let back: Store = wire::from_slice(&old).unwrap();
        assert!(s.same_content(&back));
        back.docs().values().for_each(Doc::check_invariants);
    }

    /// The old decoder re-collected entries into a `BTreeMap`, so it took
    /// a permuted stream, and a repeated key kept its last node. The
    /// bulk-loading decoder must accept the same and build sound pages.
    #[test]
    fn unordered_and_repeated_node_streams_decode_like_the_btreemap_did() {
        let s = updated_store();
        let mut bytes = Vec::new();
        put_u64(&mut bytes, s.docs().len() as u64);
        for doc in s.docs().values() {
            let mut nodes: Vec<(&FlexKey, Node)> =
                doc.iter().map(|(k, n)| (k, n.clone())).collect();
            nodes.reverse();
            // A stale node under an existing key, early in the stream: the
            // later (true) one must win.
            nodes.insert(0, (&doc.root, Node { data: NodeData::text("stale"), count: 7 }));
            let (k, n) = nodes[nodes.len() / 2].clone();
            nodes.insert(1, (k, Node { count: n.count + 1, ..n }));
            doc.name.encode(&mut bytes);
            doc.root.encode(&mut bytes);
            put_u64(&mut bytes, nodes.len() as u64);
            for (k, n) in nodes {
                k.encode(&mut bytes);
                n.encode(&mut bytes);
            }
        }
        s.next_root().encode(&mut bytes);
        let back: Store = wire::from_slice(&bytes).unwrap();
        assert!(s.same_content(&back));
        back.docs().values().for_each(Doc::check_invariants);
        assert_eq!(wire::to_vec(&back), wire::to_vec(&s));
    }

    #[test]
    fn truncated_store_bytes_rejected() {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        let bytes = wire::to_vec(&s);
        // Every strict prefix must fail to decode — the snapshot layer
        // relies on decode failure (not garbage data) for torn files.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(wire::from_slice::<Store>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}

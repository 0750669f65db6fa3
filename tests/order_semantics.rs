//! Order-semantics integration tests (Chapter 3): the four order types the
//! paper distinguishes (§3.2) must hold in materialized views *and* survive
//! incremental maintenance.

use xqview::{ServiceStats, Store, UpdateBatch, ViewCatalog};

/// Parse `script` at the edge and maintain every view for it.
fn apply(cat: &mut ViewCatalog, script: &str) -> ServiceStats {
    cat.apply_batch(&UpdateBatch::from_script(script).unwrap()).unwrap().stats
}

/// One view is a one-view catalog.
fn one_view(store: Store, q: &str) -> ViewCatalog {
    let mut cat = ViewCatalog::new(store);
    cat.register("v", q).unwrap();
    cat
}

fn store() -> Store {
    let mut s = Store::new();
    s.load_doc(
        "lib.xml",
        r#"<lib>
            <item rank="3"><name>gamma</name><tags><t>x</t><t>y</t></tags></item>
            <item rank="1"><name>alpha</name><tags><t>p</t></tags></item>
            <item rank="2"><name>beta</name><tags><t>q</t><t>r</t></tags></item>
        </lib>"#,
    )
    .unwrap();
    s
}

#[test]
fn type1_document_order_is_default() {
    let cat = one_view(store(), r#"<r>{ for $i in doc("lib.xml")/lib/item return $i/name }</r>"#);
    assert_eq!(
        cat.extent_xml("v").unwrap(),
        "<r><name>gamma</name><name>alpha</name><name>beta</name></r>"
    );
}

#[test]
fn type2_order_by_overrides_document_order() {
    let cat = one_view(
        store(),
        r#"<r>{ for $i in doc("lib.xml")/lib/item order by $i/name return $i/name }</r>"#,
    );
    assert_eq!(
        cat.extent_xml("v").unwrap(),
        "<r><name>alpha</name><name>beta</name><name>gamma</name></r>"
    );
}

#[test]
fn type2_numeric_order_by() {
    let cat = one_view(
        store(),
        r#"<r>{ for $i in doc("lib.xml")/lib/item order by $i/@rank return $i/name }</r>"#,
    );
    assert_eq!(
        cat.extent_xml("v").unwrap(),
        "<r><name>alpha</name><name>beta</name><name>gamma</name></r>"
    );
}

#[test]
fn type3_for_nesting_gives_major_minor_order() {
    // Tags follow their item (major = item order, minor = tag order) even
    // though the items are reordered by the query.
    let cat = one_view(
        store(),
        r#"<r>{ for $i in doc("lib.xml")/lib/item, $t in $i/tags/t
               order by $i/name
               return $t }</r>"#,
    );
    assert_eq!(cat.extent_xml("v").unwrap(), "<r><t>p</t><t>q</t><t>r</t><t>x</t><t>y</t></r>");
}

#[test]
fn type4_return_clause_order_beats_document_order() {
    // The constructor lists name *after* tags although the source has name
    // first: query-imposed construction order wins (§3.2 type 4).
    let cat = one_view(
        store(),
        r#"<r>{ for $i in doc("lib.xml")/lib/item
               where $i/@rank = "1"
               return <e>{$i/tags}{$i/name}</e> }</r>"#,
    );
    let xml = cat.extent_xml("v").unwrap();
    let tags = xml.find("<tags>").unwrap();
    let name = xml.find("<name>").unwrap();
    assert!(tags < name, "{xml}");
}

#[test]
fn inner_document_order_preserved_inside_reordered_fragments() {
    // §3.2: explicit reordering "does not necessarily completely reorder"
    // — descendants of the sorted elements keep document order.
    let cat = one_view(
        store(),
        r#"<r>{ for $i in doc("lib.xml")/lib/item order by $i/name descending return $i }</r>"#,
    );
    let xml = cat.extent_xml("v").unwrap();
    // gamma sorts first under `descending`; its tags keep x-before-y.
    let g = xml.find("gamma").unwrap();
    let a = xml.find("alpha").unwrap();
    assert!(g < a);
    let x = xml.find("<t>x</t>").unwrap();
    let y = xml.find("<t>y</t>").unwrap();
    assert!(x < y);
}

#[test]
fn order_maintained_under_interleaving_inserts() {
    // Insert items whose names interleave the existing ones; the order-by
    // view must place them correctly without re-sorting the whole result.
    let mut cat = one_view(
        store(),
        r#"<r>{ for $i in doc("lib.xml")/lib/item order by $i/name return $i/name }</r>"#,
    );
    for name in ["aardvark", "delta", "alpaca", "zeta"] {
        let _ = apply(
            &mut cat,
            &format!(
                r#"for $l in document("lib.xml")/lib update $l
               insert <item rank="9"><name>{name}</name></item> into $l"#
            ),
        );
        cat.verify_all().unwrap_or_else(|e| panic!("after {name}: {e}"));
    }
    let xml = cat.extent_xml("v").unwrap();
    let pos = |s: &str| xml.find(s).unwrap();
    assert!(pos("aardvark") < pos("alpaca"));
    assert!(pos("alpaca") < pos("alpha"));
    assert!(pos("alpha") < pos("beta"));
    assert!(pos("delta") < pos("gamma"));
    assert!(pos("gamma") < pos("zeta"));
}

#[test]
fn document_order_maintained_for_mid_document_insert() {
    let mut cat =
        one_view(store(), r#"<r>{ for $i in doc("lib.xml")/lib/item return $i/name }</r>"#);
    // Insert between gamma and alpha (document positions 1 and 2).
    let _ = apply(
        &mut cat,
        r#"for $i in document("lib.xml")/lib/item[1]
           update $i insert <item rank="7"><name>middle</name></item> after $i"#,
    );
    assert_eq!(
        cat.extent_xml("v").unwrap(),
        "<r><name>gamma</name><name>middle</name><name>alpha</name><name>beta</name></r>"
    );
    cat.verify_all().unwrap();
}

#[test]
fn modify_of_order_key_repositions_fragment() {
    // Changing the value an order-by sorts on must move the element — the
    // modify touches a sensitive path, forcing the slow (delete+insert)
    // path, and the semantic-id order prefix changes with it.
    let mut cat = one_view(
        store(),
        r#"<r>{ for $i in doc("lib.xml")/lib/item order by $i/name return <n>{$i/name}</n> }</r>"#,
    );
    let _ = apply(
        &mut cat,
        r#"for $i in document("lib.xml")/lib/item
           where $i/@rank = "3"
           update $i replace $i/name/text() with "aaa-first""#,
    );
    let xml = cat.extent_xml("v").unwrap();
    assert!(xml.starts_with("<r><n><name>aaa-first</name></n>"), "{xml}");
    cat.verify_all().unwrap();
}

#[test]
fn mixed_sequence_return_keeps_slot_order() {
    let cat = one_view(
        store(),
        r#"<r>{ for $i in doc("lib.xml")/lib/item
               where $i/@rank = "2"
               return <e>{$i/name}{$i/@rank}{$i/tags}</e> }</r>"#,
    );
    let xml = cat.extent_xml("v").unwrap();
    let n = xml.find("<name>").unwrap();
    let r = xml.find("2").unwrap();
    let t = xml.find("<tags>").unwrap();
    assert!(n < r && r < t, "{xml}");
}

//! The counting solution for delete updates (Chapter 6): view nodes with
//! multiple derivations must survive partial deletes and disappear exactly
//! when their last derivation goes — including through joins, duplicate
//! join partners, and duplicate-elimination.

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

/// Two books share a title, and two entries share that title too: the join
/// derives 4 pairs; every view node has interesting multiplicities.
fn dup_store() -> Store {
    let mut s = Store::new();
    s.load_doc(
        "bib.xml",
        r#"<bib>
            <book year="1994"><title>Twin</title></book>
            <book year="1994"><title>Twin</title></book>
            <book year="2000"><title>Solo</title></book>
        </bib>"#,
    )
    .unwrap();
    s.load_doc(
        "prices.xml",
        r#"<prices>
            <entry><price>10</price><b-title>Twin</b-title></entry>
            <entry><price>20</price><b-title>Twin</b-title></entry>
            <entry><price>30</price><b-title>Solo</b-title></entry>
        </prices>"#,
    )
    .unwrap();
    s
}

const JOIN_VIEW: &str = r#"<r>{
    for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
    where $b/title = $e/b-title
    return <hit y="{$b/@year}">{$e/price}</hit>
}</r>"#;

const GROUPED_VIEW: &str = r#"<r>{
    for $y in distinct-values(doc("bib.xml")/bib/book/@year)
    return <g Y="{$y}">{
        for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
        where $y = $b/@year and $b/title = $e/b-title
        return $e/price
    }</g>
}</r>"#;

#[test]
fn join_multiplicities_survive_partial_delete() {
    let mut cat = one_view(dup_store(), JOIN_VIEW);
    // 2 Twin books × 2 Twin entries = 4 hits + 1 Solo hit.
    assert_eq!(cat.extent_xml("v").unwrap().matches("<hit").count(), 5);
    // Delete ONE Twin book: 2 hits remain from the other Twin book.
    let _ = apply(&mut cat, r#"for $b in document("bib.xml")/bib/book[1] update $b delete $b"#);
    assert_eq!(cat.extent_xml("v").unwrap().matches("<hit").count(), 3);
    cat.verify_all().unwrap();
    // Delete the second Twin book: only Solo remains.
    let _ = apply(
        &mut cat,
        r#"for $b in document("bib.xml")/bib/book where $b/title = "Twin" update $b delete $b"#,
    );
    assert_eq!(cat.extent_xml("v").unwrap().matches("<hit").count(), 1);
    assert!(cat.extent_xml("v").unwrap().contains("<price>30</price>"));
    cat.verify_all().unwrap();
}

#[test]
fn distinct_value_survives_until_last_witness_gone() {
    let mut cat = one_view(dup_store(), GROUPED_VIEW);
    assert!(cat.extent_xml("v").unwrap().contains(r#"<g Y="1994">"#));
    // Two 1994 books: deleting one keeps the group.
    let _ = apply(&mut cat, r#"for $b in document("bib.xml")/bib/book[1] update $b delete $b"#);
    assert!(
        cat.extent_xml("v").unwrap().contains(r#"<g Y="1994">"#),
        "{}",
        cat.extent_xml("v").unwrap()
    );
    cat.verify_all().unwrap();
    // Deleting the second removes the whole group fragment at once (§8.3.2).
    let _ = apply(
        &mut cat,
        r#"for $b in document("bib.xml")/bib/book where $b/@year = "1994" update $b delete $b"#,
    );
    assert!(!cat.extent_xml("v").unwrap().contains("1994"));
    cat.verify_all().unwrap();
}

#[test]
fn entry_side_deletes_decrement_join_hits() {
    let mut cat = one_view(dup_store(), JOIN_VIEW);
    // Delete one Twin entry: each Twin book loses one pairing (4 → 2).
    let _ = apply(
        &mut cat,
        r#"for $e in document("prices.xml")/prices/entry where $e/price = "10"
           update $e delete $e"#,
    );
    assert_eq!(cat.extent_xml("v").unwrap().matches("<hit").count(), 3);
    cat.verify_all().unwrap();
}

#[test]
fn reinsert_after_full_delete_recreates_nodes() {
    let mut cat = one_view(dup_store(), GROUPED_VIEW);
    let _ = apply(
        &mut cat,
        r#"for $b in document("bib.xml")/bib/book where $b/@year = "1994" update $b delete $b"#,
    );
    assert!(!cat.extent_xml("v").unwrap().contains("1994"));
    let _ = apply(
        &mut cat,
        r#"for $r in document("bib.xml")/bib update $r
           insert <book year="1994"><title>Twin</title></book> into $r"#,
    );
    // The group returns, with both Twin prices, count rebuilt from scratch.
    let xml = cat.extent_xml("v").unwrap();
    assert!(xml.contains(r#"<g Y="1994">"#), "{xml}");
    assert!(xml.contains("<price>10</price>") && xml.contains("<price>20</price>"));
    cat.verify_all().unwrap();
}

#[test]
fn insert_then_delete_across_batches_nets_zero() {
    // (Within one batch, all statements resolve against the same snapshot —
    // the paper's batch-update-tree semantics, §5.3 — so a delete cannot see
    // a same-batch insert. Across batches, insert-then-delete nets zero.)
    let mut cat = one_view(dup_store(), GROUPED_VIEW);
    let before = cat.extent_xml("v").unwrap();
    let _ = apply(
        &mut cat,
        r#"for $r in document("bib.xml")/bib update $r
           insert <book year="1977"><title>Ghost</title></book> into $r"#,
    );
    assert!(cat.extent_xml("v").unwrap().contains("1977"));
    let _ = apply(
        &mut cat,
        r#"for $b in document("bib.xml")/bib/book where $b/@year = "1977"
           update $b delete $b"#,
    );
    assert_eq!(cat.extent_xml("v").unwrap(), before);
    cat.verify_all().unwrap();
}

#[test]
fn update_inside_bound_fragment_adjusts_content_not_existence() {
    // §6.5 classification: inserting a node INSIDE a bound book fragment
    // re-derives the book's exposed copy without changing group counts.
    let mut s = Store::new();
    s.load_doc("bib.xml", r#"<bib><book year="1994"><title>Solo</title></book></bib>"#).unwrap();
    let mut cat = one_view(s, r#"<r>{ for $b in doc("bib.xml")/bib/book return $b }</r>"#);
    let _ = apply(
        &mut cat,
        r#"for $b in document("bib.xml")/bib/book[1]
           update $b insert <note>annotated</note> into $b"#,
    );
    let xml = cat.extent_xml("v").unwrap();
    assert_eq!(xml.matches("<book").count(), 1, "book still derived once: {xml}");
    assert!(xml.contains("<note>annotated</note>"));
    cat.verify_all().unwrap();
    // And deleting that inner node restores the original content.
    let _ =
        apply(&mut cat, r#"for $b in document("bib.xml")/bib/book[1] update $b delete $b/note"#);
    assert!(!cat.extent_xml("v").unwrap().contains("note"));
    cat.verify_all().unwrap();
}

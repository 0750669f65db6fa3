//! The paper's complete running example, end to end through the VPA
//! framework: Figure 1.1 documents, the Figure 1.2(a) view, the three
//! heterogeneous Figure 1.3 updates in one batch, and the Figure 1.4
//! expected refreshed extent.

use xqview::{ServiceStats, Store, UpdateBatch, ViewCatalog};

/// Parse `script` at the edge and maintain every view for it.
fn apply(cat: &mut ViewCatalog, script: &str) -> ServiceStats {
    cat.apply_batch(&UpdateBatch::from_script(script).unwrap()).unwrap().stats
}

const BIB: &str = r#"<bib>
    <book year="1994"><title>TCP/IP Illustrated</title>
        <author><last>Stevens</last><first>W.</first></author></book>
    <book year="2000"><title>Data on the Web</title>
        <author><last>Abiteboul</last><first>Serge</first></author></book>
</bib>"#;

const PRICES: &str = r#"<prices>
    <entry><price>39.95</price><b-title>Data on the Web</b-title></entry>
    <entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry>
    <entry><price>69.99</price><b-title>Advanced Programming in the Unix environment</b-title></entry>
</prices>"#;

const VIEW: &str = r#"<result>{
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

/// Figure 1.3's three updates, verbatim modulo whitespace.
const UPDATES: &str = r#"
for $book in document("bib.xml")/bib/book[2]
update $book
insert <book year="1994"><title>Advanced Programming in the Unix environment</title><author><last>Stevens</last><first>W.</first></author></book> after $book ;

for $book in document("bib.xml")/bib/book
where $book/title = "Data on the Web"
update $book
delete $book ;

for $entry in document("prices.xml")/prices/entry
where $entry/b-title = "TCP/IP Illustrated"
update $entry
replace $entry/price/text() with "70"
"#;

/// The running example as a one-view catalog (the view registered as "v").
fn running_example() -> ViewCatalog {
    let mut s = Store::new();
    s.load_doc("bib.xml", BIB).unwrap();
    s.load_doc("prices.xml", PRICES).unwrap();
    let mut cat = ViewCatalog::new(s);
    cat.register("v", VIEW).unwrap();
    cat
}

#[test]
fn initial_extent_matches_figure_1_2b() {
    let cat = running_example();
    assert_eq!(
        cat.extent_xml("v").unwrap(),
        concat!(
            r#"<result>"#,
            r#"<yGroup Y="1994"><books><entry><title>TCP/IP Illustrated</title><price>65.95</price></entry></books></yGroup>"#,
            r#"<yGroup Y="2000"><books><entry><title>Data on the Web</title><price>39.95</price></entry></books></yGroup>"#,
            r#"</result>"#
        ),
    );
}

#[test]
fn figure_1_3_batch_refreshes_to_figure_1_4() {
    let mut cat = running_example();
    let stats = apply(&mut cat, UPDATES);
    assert_eq!(stats.views_routed, 3);
    // Figure 1.4: one yGroup (1994) with the TCP/IP entry (price now 70)
    // followed by the new Advanced-Programming entry (69.99); the 2000
    // group is gone entirely.
    let expected = concat!(
        r#"<result>"#,
        r#"<yGroup Y="1994"><books>"#,
        r#"<entry><title>TCP/IP Illustrated</title><price>70</price></entry>"#,
        r#"<entry><title>Advanced Programming in the Unix environment</title><price>69.99</price></entry>"#,
        r#"</books></yGroup>"#,
        r#"</result>"#
    );
    assert_eq!(cat.extent_xml("v").unwrap(), expected);
    // And the refreshed extent equals recomputation over the updated
    // sources — the paper's correctness definition (§1.2).
    cat.verify_all().unwrap();
}

#[test]
fn updates_applied_one_at_a_time_match_recompute_at_each_step() {
    let mut cat = running_example();
    for stmt in UPDATES.split(';').filter(|s| !s.trim().is_empty()) {
        let _ = apply(&mut cat, stmt);
        cat.verify_all().unwrap_or_else(|e| panic!("after: {stmt}: {e}"));
    }
}

#[test]
fn figure_1_3a_insert_places_new_entry_in_document_order() {
    // §4.1: the new entry must come *second* in the 1994 group, because the
    // inserted book comes second among 1994 books in the source.
    let mut cat = running_example();
    let _ = apply(
        &mut cat,
        r#"for $book in document("bib.xml")/bib/book[2]
           update $book
           insert <book year="1994"><title>Advanced Programming in the Unix environment</title></book> after $book"#,
    );
    let xml = cat.extent_xml("v").unwrap();
    let tcp = xml.find("TCP/IP Illustrated").unwrap();
    let adv = xml.find("Advanced Programming").unwrap();
    assert!(tcp < adv, "source document order preserved in the group: {xml}");
    cat.verify_all().unwrap();
}

#[test]
fn figure_1_3b_delete_removes_entire_ygroup_fragment() {
    // §1.2: deleting the only 2000 book must delete the whole yGroup
    // fragment (root disconnect), not just the entry.
    let mut cat = running_example();
    let _ = apply(
        &mut cat,
        r#"for $book in document("bib.xml")/bib/book
           where $book/title = "Data on the Web"
           update $book delete $book"#,
    );
    let xml = cat.extent_xml("v").unwrap();
    assert!(!xml.contains("2000"), "{xml}");
    assert!(xml.contains(r#"<yGroup Y="1994">"#));
    cat.verify_all().unwrap();
}

#[test]
fn delete_one_of_two_books_keeps_shared_group() {
    // Multiple derivations (§1.2): with two 1994 books, deleting one keeps
    // the group — the counting solution at work.
    let mut cat = running_example();
    let _ = apply(
        &mut cat,
        r#"for $book in document("bib.xml")/bib/book[1]
           update $book
           insert <book year="1994"><title>Advanced Programming in the Unix environment</title></book> after $book"#,
    );
    cat.verify_all().unwrap();
    // Now delete the original 1994 book; the group must survive with the
    // other book's entry.
    let _ = apply(
        &mut cat,
        r#"for $book in document("bib.xml")/bib/book
           where $book/title = "TCP/IP Illustrated"
           update $book delete $book"#,
    );
    let xml = cat.extent_xml("v").unwrap();
    assert!(xml.contains(r#"<yGroup Y="1994">"#), "{xml}");
    assert!(xml.contains("Advanced Programming"));
    assert!(!xml.contains("TCP/IP"));
    cat.verify_all().unwrap();
}

#[test]
fn figure_1_3c_modify_takes_fast_path_or_matches_recompute() {
    let mut cat = running_example();
    let stats = apply(
        &mut cat,
        r#"for $entry in document("prices.xml")/prices/entry
               where $entry/b-title = "TCP/IP Illustrated"
               update $entry replace $entry/price/text() with "70""#,
    );
    let xml = cat.extent_xml("v").unwrap();
    assert!(xml.contains("<price>70</price>"), "{xml}");
    assert!(!xml.contains("65.95"));
    cat.verify_all().unwrap();
    // price text feeds no predicate in this view, so the in-place fast path
    // must have served it.
    assert_eq!(stats.fast_modifies, 1);
}

#[test]
fn modify_of_predicate_path_regroups_correctly() {
    // Replacing a *join-relevant* value (b-title) must move entries between
    // groups — the slow (delete+insert of the bound fragment) path.
    let mut cat = running_example();
    let _ = apply(
        &mut cat,
        r#"for $entry in document("prices.xml")/prices/entry
           where $entry/b-title = "TCP/IP Illustrated"
           update $entry replace $entry/b-title/text() with "Data on the Web""#,
    );
    let xml = cat.extent_xml("v").unwrap();
    cat.verify_all().unwrap();
    // The 65.95 entry now matches the 2000 book ("Data on the Web"), so the
    // 2000 group carries TWO entries; the 1994 book lost its only match, so
    // its group remains with an empty container (LOJ semantics).
    assert!(xml.contains(r#"<yGroup Y="1994"><books/></yGroup>"#), "{xml}");
    let g2000 = xml.split(r#"<yGroup Y="2000">"#).nth(1).expect("2000 group");
    assert!(g2000.contains("<price>39.95</price>"), "{xml}");
    assert!(g2000.contains("<price>65.95</price>"), "{xml}");
    // And the source really carries the new b-title.
    let prices = cat.store().serialize_doc("prices.xml").unwrap();
    assert_eq!(prices.matches("<b-title>Data on the Web</b-title>").count(), 2);
}

#[test]
fn irrelevant_updates_touch_sources_only() {
    let mut cat = running_example();
    let before = cat.extent_xml("v").unwrap();
    let stats = apply(
        &mut cat,
        r#"for $r in document("bib.xml")/bib
               update $r insert <journal><name>TODS</name></journal> into $r"#,
    );
    assert_eq!(stats.views_skipped, 1);
    assert_eq!(stats.views_routed, 0);
    assert_eq!(cat.extent_xml("v").unwrap(), before);
    // The source did change.
    assert!(cat.store().serialize_doc("bib.xml").unwrap().contains("TODS"));
    cat.verify_all().unwrap();
}

#[test]
fn mixed_large_batch_remains_consistent() {
    let mut cat = running_example();
    let script = r#"
      for $b in document("bib.xml")/bib/book[1]
      update $b insert <book year="2000"><title>Advanced Programming in the Unix environment</title></book> before $b ;

      for $e in document("prices.xml")/prices/entry
      where $e/price = "39.95"
      update $e delete $e ;

      for $b in document("bib.xml")/bib/book
      where $b/title = "TCP/IP Illustrated"
      update $b replace $b/title/text() with "TCP/IP Illustrated Vol 1"
    "#;
    let _ = apply(&mut cat, script);
    cat.verify_all().unwrap();
}

#[test]
fn repeated_insert_delete_cycles_stay_consistent() {
    let mut cat = running_example();
    for i in 0..6 {
        let year = if i % 2 == 0 { "1994" } else { "2001" };
        let _ = apply(
            &mut cat,
            &format!(
                r#"for $r in document("bib.xml")/bib
               update $r insert <book year="{year}"><title>Advanced Programming in the Unix environment</title></book> into $r"#,
            ),
        );
        cat.verify_all().unwrap_or_else(|e| panic!("after insert {i}: {e}"));
        if i % 3 == 2 {
            let _ = apply(
                &mut cat,
                r#"for $b in document("bib.xml")/bib/book
                   where $b/@year = "2001"
                   update $b delete $b"#,
            );
            cat.verify_all().unwrap_or_else(|e| panic!("after delete {i}: {e}"));
        }
    }
}

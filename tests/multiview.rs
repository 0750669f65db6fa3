//! The multi-view catalog end to end: ≥3 simultaneously registered views
//! (flat selection, two-document join, grouped/ordered) over shared
//! `bib.xml`/`prices.xml`, maintained through a sequence of heterogeneous
//! update scripts. After **every** script, every extent must equal its
//! from-scratch recomputation (§1.2 lifted to the service), and the
//! service statistics must prove that irrelevant views were skipped by the
//! SAPT relevancy routing rather than propagated to.

use xqview::{ServiceStats, Store, UpdateBatch, ViewCatalog};

/// Parse `script` at the edge and maintain every view for it.
fn apply(cat: &mut ViewCatalog, script: &str) -> ServiceStats {
    cat.apply_batch(&UpdateBatch::from_script(script).unwrap()).unwrap().stats
}

const FLAT_VIEW: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "1994"
  return <hit>{$b/title}</hit>
}</result>"#;

const JOIN_VIEW: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
  where $b/title = $e/b-title
  return <pair>{$b/title}{$e/price}</pair>
}</result>"#;

const GROUPED_VIEW: &str = r#"<result>{
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

const PRICES_ONLY_VIEW: &str = r#"<result>{
  for $e in doc("prices.xml")/prices/entry
  return <p>{$e/price}</p>
}</result>"#;

const BIB: &str = r#"<bib>
    <book year="1994"><title>TCP/IP Illustrated</title></book>
    <book year="2000"><title>Data on the Web</title></book>
    <book year="1994"><title>Advanced Unix</title></book>
</bib>"#;

const PRICES: &str = r#"<prices>
    <entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry>
    <entry><price>39.95</price><b-title>Data on the Web</b-title></entry>
    <entry><price>55.48</price><b-title>Unlisted Volume</b-title></entry>
</prices>"#;

fn shared_store() -> Store {
    let mut s = Store::new();
    s.load_doc("bib.xml", BIB).unwrap();
    s.load_doc("prices.xml", PRICES).unwrap();
    s
}

fn full_catalog() -> ViewCatalog {
    let mut cat = ViewCatalog::new(shared_store());
    cat.register("flat", FLAT_VIEW).unwrap();
    cat.register("join", JOIN_VIEW).unwrap();
    cat.register("grouped", GROUPED_VIEW).unwrap();
    cat.register("prices_only", PRICES_ONLY_VIEW).unwrap();
    cat
}

/// The update stream: inserts, deletes, and modifies over both documents.
const SCRIPTS: &[&str] = &[
    // Insert a book that joins an existing price entry.
    r#"for $r in document("bib.xml")/bib update $r
       insert <book year="1994"><title>Unlisted Volume</title></book> into $r"#,
    // prices.xml-only insert: must never propagate to bib-only views.
    r#"for $r in document("prices.xml")/prices update $r
       insert <entry><price>12.50</price><b-title>Advanced Unix</b-title></entry> into $r"#,
    // Content-only modify (price is exposed, never a predicate).
    r#"for $e in document("prices.xml")/prices/entry
       where $e/b-title = "TCP/IP Illustrated"
       update $e replace $e/price/text() with "70.00""#,
    // Join-sensitive modify: widens to the book fragment and re-routes.
    r#"for $b in document("bib.xml")/bib/book
       where $b/title = "Advanced Unix"
       update $b replace $b/title/text() with "Data on the Web""#,
    // Delete a book (affects flat/join/grouped, not prices_only).
    r#"for $b in document("bib.xml")/bib/book
       where $b/title = "TCP/IP Illustrated"
       update $b delete $b"#,
    // Delete a price entry.
    r#"for $e in document("prices.xml")/prices/entry
       where $e/b-title = "Unlisted Volume"
       update $e delete $e"#,
    // Mixed multi-statement batch over both documents.
    r#"for $r in document("bib.xml")/bib update $r
       insert <book year="2001"><title>Fresh Arrival</title></book> into $r ;
       for $r in document("prices.xml")/prices update $r
       insert <entry><price>20.00</price><b-title>Fresh Arrival</b-title></entry> into $r ;
       for $b in document("bib.xml")/bib/book where $b/@year = "2000"
       update $b delete $b"#,
];

#[test]
fn every_extent_equals_recompute_after_every_script() {
    let mut cat = full_catalog();
    cat.verify_all().expect("initial materialization");
    for (i, script) in SCRIPTS.iter().enumerate() {
        let _ = cat
            .apply_batch(&UpdateBatch::from_script(script).unwrap())
            .unwrap_or_else(|e| panic!("script {i} failed: {e}"));
        cat.verify_all().unwrap_or_else(|e| panic!("after script {i}: {e}"));
    }
    // Spot-check final content.
    assert!(cat.extent_xml("join").unwrap().contains("Fresh Arrival"));
    assert!(!cat.extent_xml("flat").unwrap().contains("TCP/IP Illustrated"));
}

#[test]
fn prices_update_never_propagates_to_bib_only_view() {
    let mut cat = full_catalog();
    let flat_before = cat.extent_xml("flat").unwrap();
    let batch = apply(
        &mut cat,
        r#"for $r in document("prices.xml")/prices update $r
               insert <entry><price>1.99</price><b-title>Cheap</b-title></entry> into $r"#,
    );
    // flat reads only bib.xml: skipped by the relevancy index.
    assert!(batch.views_skipped > 0, "irrelevant view count must be positive");
    assert_eq!(batch.views_routed, 3, "join, grouped, prices_only");
    assert_eq!(cat.extent_xml("flat").unwrap(), flat_before);
    cat.verify_all().unwrap();
}

#[test]
fn skipping_shows_up_in_cumulative_stats() {
    let mut cat = full_catalog();
    for script in SCRIPTS {
        let _ = apply(&mut cat, script);
    }
    let s = cat.stats();
    assert_eq!(s.batches, SCRIPTS.len());
    assert!(s.updates_seen >= SCRIPTS.len());
    assert!(s.views_skipped > 0, "at least one batch skipped an irrelevant view");
    assert!(s.views_routed > 0);
    assert!(s.fast_modifies >= 1, "price modify takes the fast path");
    assert!(s.widened_modifies >= 1, "title modify widens");
}

#[test]
fn catalog_agrees_with_independent_one_view_catalogs() {
    // The catalog over the shared store must produce extents identical to
    // N independent one-view catalogs each owning a private copy.
    let mut cat = full_catalog();
    let views = [
        ("flat", FLAT_VIEW),
        ("join", JOIN_VIEW),
        ("grouped", GROUPED_VIEW),
        ("prices_only", PRICES_ONLY_VIEW),
    ];
    let mut solos: Vec<(&str, ViewCatalog)> = views
        .into_iter()
        .map(|(name, q)| {
            let mut solo = ViewCatalog::new(shared_store());
            solo.register(name, q).unwrap();
            (name, solo)
        })
        .collect();
    for script in SCRIPTS {
        let _ = apply(&mut cat, script);
        for (name, solo) in &mut solos {
            let _ = apply(solo, script);
            assert_eq!(
                cat.extent_xml(name).unwrap(),
                solo.extent_xml(name).unwrap(),
                "catalog and one-view catalog diverged on {name}"
            );
            solo.verify_all().unwrap();
        }
    }
}

#[test]
fn register_and_drop_mid_stream() {
    let mut cat = full_catalog();
    let _ = apply(&mut cat, SCRIPTS[0]);
    cat.drop_view("grouped").unwrap();
    let _ = apply(&mut cat, SCRIPTS[1]);
    // A view registered mid-stream materializes over the *current* store.
    cat.register("grouped2", GROUPED_VIEW).unwrap();
    for script in &SCRIPTS[2..] {
        let _ = apply(&mut cat, script);
        cat.verify_all().unwrap();
    }
    assert_eq!(cat.view_names(), vec!["flat", "join", "prices_only", "grouped2"]);
}

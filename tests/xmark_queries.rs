//! The §3.5 experiment queries (Figure 3.6) over the XMark-like generator:
//! each query runs end to end, is deterministic, respects its order
//! semantics, and stays maintainable under updates.

use xqview::xat::translate::translate_query;
use xqview::{Executor, ServiceStats, Store, UpdateBatch, ViewCatalog};

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

fn site(people: usize) -> Store {
    let cfg = datagen::SiteConfig {
        people,
        closed_auctions: people / 2,
        open_auctions: people / 2,
        seed: 77,
    };
    let mut s = Store::new();
    s.load_doc("site.xml", &datagen::site_xml(&cfg)).unwrap();
    s
}

fn run(store: &Store, q: &str) -> String {
    let (plan, col) = translate_query(q).unwrap();
    let mut ex = Executor::new(store);
    let t = ex.eval(&plan).unwrap();
    let items = t.rows[0].cells[t.col_idx(&col).unwrap()].items().to_vec();
    ex.materialize(&items).unwrap().to_xml()
}

const Q1: &str =
    r#"<result>{ for $p in doc("site.xml")/site/people/person/profile return $p }</result>"#;

const Q2: &str = r#"<result>{
    for $c in distinct-values(doc("site.xml")/site/people/person/address/city)
    order by $c
    return <city>{$c}</city>
}</result>"#;

const Q3: &str = r#"<result>{
    for $p in doc("site.xml")/site/people/person,
        $c in doc("site.xml")/site/closed_auctions/closed_auction
    where $p/@id = $c/seller/@person
    return $c/date
}</result>"#;

const Q4: &str = r#"<result>
    <customers>{
        for $p in doc("site.xml")/site/people/person
        return <customer><location>{$p/address/city/text()}</location>{$p/name}</customer>
    }</customers>
    <open_bids>{
        for $oa in doc("site.xml")/site/open_auctions/open_auction
        return <bid>{$oa/reserve}{$oa/initial}</bid>
    }</open_bids>
</result>"#;

#[test]
fn q1_returns_profiles_in_document_order() {
    let s = site(30);
    let xml = run(&s, Q1);
    assert_eq!(xml.matches("<profile>").count() + xml.matches("<profile/>").count(), 30);
    // Document order: ages (one per profile) appear in generation order of
    // the education fields' owners — verify the profile count equals people
    // and the result is deterministic.
    assert_eq!(xml, run(&s, Q1));
}

#[test]
fn q2_cities_are_distinct_and_alphabetical() {
    let s = site(60);
    let xml = run(&s, Q2);
    let cities: Vec<&str> =
        xml.split("<city>").skip(1).map(|p| p.split("</city>").next().unwrap()).collect();
    let mut sorted = cities.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(cities, sorted, "order by + distinct-values");
    assert!(!cities.is_empty());
}

#[test]
fn q3_join_order_follows_person_major_auction_minor() {
    let s = site(40);
    let xml = run(&s, Q3);
    let n_dates = xml.matches("<date>").count();
    assert!(n_dates > 0, "some person sold something");
    assert_eq!(xml, run(&s, Q3), "deterministic under hash-join physical order (§3.4.3)");
}

#[test]
fn q4_construction_heavy_result_shape() {
    let s = site(25);
    let xml = run(&s, Q4);
    assert_eq!(xml.matches("<customer>").count(), 25);
    assert_eq!(xml.matches("<bid>").count(), 12);
    // Query-imposed order inside <customer>: location before name.
    let c = xml.split("<customer>").nth(1).unwrap();
    let loc = c.find("<location>").unwrap();
    let name = c.find("<name>").unwrap();
    assert!(loc < name);
    // Inside <bid>: reserve before initial (return-clause order, not
    // document order — the source has initial first).
    let b = xml.split("<bid>").nth(1).unwrap();
    assert!(b.find("<reserve>").unwrap() < b.find("<initial>").unwrap());
}

#[test]
fn q2_view_maintains_under_person_inserts() {
    let s = site(20);
    let mut cat = one_view(s, Q2);
    let _ = apply(
        &mut cat,
        r#"for $p in document("site.xml")/site/people
           update $p insert <person id="personX" income="1"><name>X</name>
           <address><street>1 A</street><city>AaNewCity</city><country>X</country></address>
           <profile><education>Other</education><gender>male</gender><business>No</business><age>9</age></profile>
           </person> into $p"#,
    );
    let xml = cat.extent_xml("v").unwrap();
    assert!(xml.starts_with("<result><city>AaNewCity</city>"), "new city sorts first: {xml}");
    cat.verify_all().unwrap();
}

#[test]
fn q3_join_view_maintains_under_auction_updates() {
    let s = site(20);
    let mut cat = one_view(s, Q3);
    let before_dates = cat.extent_xml("v").unwrap().matches("<date>").count();
    let _ = apply(
        &mut cat,
        r#"for $c in document("site.xml")/site/closed_auctions
           update $c insert <closed_auction><seller person="person0"/><buyer person="person1"/>
           <date>01/01/2099</date></closed_auction> into $c"#,
    );
    let xml = cat.extent_xml("v").unwrap();
    assert_eq!(xml.matches("<date>").count(), before_dates + 1);
    assert!(xml.contains("01/01/2099"));
    cat.verify_all().unwrap();
    // Self-join document (both sides read site.xml): delete the auction.
    let _ = apply(
        &mut cat,
        r#"for $a in document("site.xml")/site/closed_auctions/closed_auction
           where $a/date = "01/01/2099"
           update $a delete $a"#,
    );
    assert_eq!(cat.extent_xml("v").unwrap().matches("<date>").count(), before_dates);
    cat.verify_all().unwrap();
}

#[test]
fn q1_view_maintains_under_profile_modify() {
    let s = site(15);
    let mut cat = one_view(s, Q1);
    let _ = apply(
        &mut cat,
        r#"for $p in document("site.xml")/site/people/person[3]
           update $p replace $p/profile/age with "99""#,
    );
    assert!(cat.extent_xml("v").unwrap().contains("<age>99</age>"));
    cat.verify_all().unwrap();
}

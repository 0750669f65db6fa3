//! Coverage for the remaining language/operator surface: aggregate
//! functions (§2.1, §7.6), sequences in return clauses, descendant-axis
//! views, wildcard tests, Cartesian (uncorrelated multi-for) views — all
//! maintained incrementally and checked against the recompute oracle.

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
        "shop.xml",
        r#"<shop>
            <dept name="books">
                <sale><amount>10</amount></sale>
                <sale><amount>25</amount></sale>
            </dept>
            <dept name="music">
                <sale><amount>7</amount></sale>
                <sale><amount>3</amount></sale>
                <sale><amount>40</amount></sale>
            </dept>
        </shop>"#,
    )
    .unwrap();
    s
}

#[test]
fn per_tuple_count_aggregate() {
    let cat = one_view(
        store(),
        r#"<r>{ for $d in doc("shop.xml")/shop/dept
               return <dept n="{$d/@name}" sales="{count($d/sale)}"/> }</r>"#,
    );
    assert_eq!(
        cat.extent_xml("v").unwrap(),
        r#"<r><dept n="books" sales="2"/><dept n="music" sales="3"/></r>"#
    );
}

#[test]
fn count_aggregate_maintained_under_updates() {
    let mut cat = one_view(
        store(),
        r#"<r>{ for $d in doc("shop.xml")/shop/dept
               return <dept n="{$d/@name}" sales="{count($d/sale)}"/> }</r>"#,
    );
    let _ = apply(
        &mut cat,
        r#"for $d in document("shop.xml")/shop/dept
           where $d/@name = "books"
           update $d insert <sale><amount>99</amount></sale> into $d"#,
    );
    assert!(
        cat.extent_xml("v").unwrap().contains(r#"sales="3""#),
        "{}",
        cat.extent_xml("v").unwrap()
    );
    cat.verify_all().unwrap();
    let _ = apply(
        &mut cat,
        r#"for $d in document("shop.xml")/shop/dept
           where $d/@name = "music"
           update $d delete $d"#,
    );
    assert!(!cat.extent_xml("v").unwrap().contains("music"));
    cat.verify_all().unwrap();
}

#[test]
fn sum_min_max_avg_per_tuple() {
    let cat = one_view(
        store(),
        r#"<r>{ for $d in doc("shop.xml")/shop/dept
               return <d n="{$d/@name}" sum="{sum($d/sale/amount)}"
                         min="{min($d/sale/amount)}" max="{max($d/sale/amount)}"
                         avg="{avg($d/sale/amount)}"/> }</r>"#,
    );
    let xml = cat.extent_xml("v").unwrap();
    assert!(xml.contains(r#"n="books" sum="35" min="10" max="25" avg="17.5""#), "{xml}");
    assert!(xml.contains(r#"n="music" sum="50" min="3" max="40""#), "{xml}");
}

#[test]
fn top_level_aggregate_query() {
    let cat = one_view(store(), r#"<total n="{count(doc("shop.xml")/shop/dept/sale)}"/>"#);
    assert_eq!(cat.extent_xml("v").unwrap(), r#"<total n="5"/>"#);
}

#[test]
fn descendant_axis_view_maintained() {
    let mut cat =
        one_view(store(), r#"<amounts>{ for $a in doc("shop.xml")//amount return $a }</amounts>"#);
    assert_eq!(cat.extent_xml("v").unwrap().matches("<amount>").count(), 5);
    let _ = apply(
        &mut cat,
        r#"for $d in document("shop.xml")/shop/dept[1]
           update $d insert <sale><amount>123</amount></sale> into $d"#,
    );
    assert_eq!(cat.extent_xml("v").unwrap().matches("<amount>").count(), 6);
    assert!(cat.extent_xml("v").unwrap().contains("<amount>123</amount>"));
    cat.verify_all().unwrap();
}

#[test]
fn wildcard_step() {
    let cat = one_view(
        store(),
        r#"<r>{ for $x in doc("shop.xml")/shop/* return <got n="{$x/@name}"/> }</r>"#,
    );
    assert_eq!(cat.extent_xml("v").unwrap(), r#"<r><got n="books"/><got n="music"/></r>"#);
}

#[test]
fn cartesian_product_of_uncorrelated_bindings() {
    let mut s = Store::new();
    s.load_doc("a.xml", "<a><x>1</x><x>2</x></a>").unwrap();
    s.load_doc("b.xml", "<b><y>p</y><y>q</y></b>").unwrap();
    let cat = one_view(
        s,
        r#"<r>{ for $x in doc("a.xml")/a/x, $y in doc("b.xml")/b/y
               return <pair>{$x}{$y}</pair> }</r>"#,
    );
    let xml = cat.extent_xml("v").unwrap();
    assert_eq!(xml.matches("<pair>").count(), 4);
    // Major order on $x, minor on $y (§3.2 type 3).
    assert_eq!(
        xml,
        "<r><pair><x>1</x><y>p</y></pair><pair><x>1</x><y>q</y></pair>\
         <pair><x>2</x><y>p</y></pair><pair><x>2</x><y>q</y></pair></r>"
    );
}

#[test]
fn sequence_return_clause() {
    let cat = one_view(
        store(),
        r#"<r>{ for $d in doc("shop.xml")/shop/dept
               where $d/@name = "books"
               return <e>{$d/@name, count($d/sale)}</e> }</r>"#,
    );
    let xml = cat.extent_xml("v").unwrap();
    assert!(xml.contains("books"), "{xml}");
    assert!(xml.contains('2'), "{xml}");
}

#[test]
fn nested_uncorrelated_constructors() {
    let cat = one_view(store(), r#"<r><one><two><three>deep</three></two></one></r>"#);
    assert_eq!(cat.extent_xml("v").unwrap(), "<r><one><two><three>deep</three></two></one></r>");
}

#[test]
fn doubly_nested_correlated_groups() {
    // Two levels of correlated nesting (regions → cities → shops), each
    // level correlating with its immediate parent — the "complex nested
    // queries" class [LD00] could not handle. (Correlation with a
    // *grandparent* variable is outside the translator's subset.)
    let mut s = Store::new();
    s.load_doc(
        "geo.xml",
        r#"<geo>
            <city name="boston" region="east"/>
            <city name="worcester" region="east"/>
            <city name="denver" region="west"/>
            <shop city="boston" n="s1"/>
            <shop city="worcester" n="s2"/>
            <shop city="boston" n="s3"/>
        </geo>"#,
    )
    .unwrap();
    let mut cat = one_view(
        s,
        r#"<r>{
            for $rg in distinct-values(doc("geo.xml")/geo/city/@region)
            order by $rg
            return <region id="{$rg}">{
                for $c in doc("geo.xml")/geo/city
                where $rg = $c/@region
                return <city id="{$c/@name}">{
                    for $s in doc("geo.xml")/geo/shop
                    where $c/@name = $s/@city
                    return <shop id="{$s/@n}"/>
                }</city>
            }</region>
        }</r>"#,
    );
    let xml = cat.extent_xml("v").unwrap();
    cat.verify_all().unwrap();
    assert!(xml.contains(r#"<city id="boston"><shop id="s1"/><shop id="s3"/></city>"#), "{xml}");
    assert!(xml.contains(r#"<region id="west"><city id="denver"/></region>"#), "{xml}");
    // Maintain through an insert into a middle group…
    let _ = apply(
        &mut cat,
        r#"for $g in document("geo.xml")/geo
           update $g insert <shop city="worcester" n="s4"/> into $g"#,
    );
    cat.verify_all().unwrap();
    assert!(cat.extent_xml("v").unwrap().contains(r#"<shop id="s4"/>"#));
    // …and a delete that empties a city.
    let _ = apply(
        &mut cat,
        r#"for $s in document("geo.xml")/geo/shop
           where $s/@city = "boston"
           update $s delete $s"#,
    );
    cat.verify_all().unwrap();
}

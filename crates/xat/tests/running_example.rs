//! End-to-end executor tests on the paper's running example (Figures 1.1,
//! 1.2, 2.2): hand-built XAT plans over bib.xml / prices.xml, checked
//! against the view extent the paper shows, plus delta-plan (IMP) execution.

use xat::plan::{annotate, GroupFunc, OpKind, Operand, PatSlot, Pattern, Plan, Pred};
use xat::Executor;
use xmlstore::{Frag, InsertPos, Store};
use xquery_lang::{NodeTest, Step};

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

fn store() -> Store {
    let mut s = Store::new();
    s.load_doc("bib.xml", BIB).unwrap();
    s.load_doc("prices.xml", PRICES).unwrap();
    s
}

fn step(n: &str) -> Step {
    Step::child(NodeTest::Name(n.into()))
}

fn attr(n: &str) -> Step {
    Step::child(NodeTest::Attr(n.into()))
}

fn nav(child: Plan, col: &str, steps: Vec<Step>, out: &str) -> Plan {
    Plan::unary(OpKind::NavUnnest { col: col.into(), steps, out: out.into() }, child)
}

fn navc(child: Plan, col: &str, steps: Vec<Step>, out: &str) -> Plan {
    Plan::unary(OpKind::NavCollection { col: col.into(), steps, out: out.into() }, child)
}

fn source(doc: &str, out: &str) -> Plan {
    Plan::leaf(OpKind::Source { doc: doc.into(), out: out.into() })
}

fn tagger(
    child: Plan,
    name: &str,
    attrs: Vec<(&str, PatSlot)>,
    content: Vec<PatSlot>,
    out: &str,
) -> Plan {
    Plan::unary(
        OpKind::Tagger {
            pattern: Pattern {
                name: name.into(),
                attrs: attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
                content,
            },
            out: out.into(),
        },
        child,
    )
}

/// Hand-built Figure 2.2 plan for the Figure 1.2(a) view.
fn figure_2_2_plan() -> Plan {
    // Outer: distinct years.
    let outer = Plan::unary(
        OpKind::Distinct { col: "y".into() },
        nav(
            nav(source("bib.xml", "S1"), "S1", vec![step("bib"), step("book")], "b0"),
            "b0",
            vec![attr("year")],
            "y",
        ),
    );
    // Inner: books ⋈ entries on title = b-title.
    let books = nav(
        nav(source("bib.xml", "S2"), "S2", vec![step("bib"), step("book")], "b"),
        "b",
        vec![attr("year")],
        "col1",
    );
    let entries = nav(source("prices.xml", "S3"), "S3", vec![step("prices"), step("entry")], "e");
    let joined = Plan::binary(
        OpKind::Join {
            pred: Pred::eq(
                Operand::Path { col: "b".into(), steps: vec![step("title")] },
                Operand::Path { col: "e".into(), steps: vec![step("b-title")] },
            ),
        },
        books,
        entries,
    );
    // Navigate out title/price collections, union, tag <entry>.
    let col2 = navc(joined, "b", vec![step("title")], "col2");
    let col3 = navc(col2, "e", vec![step("price")], "col3");
    let col4 = Plan::unary(
        OpKind::XmlUnion { a: "col2".into(), b: "col3".into(), out: "col4".into() },
        col3,
    );
    let entry = tagger(col4, "entry", vec![], vec![PatSlot::Col("col4".into())], "col5");
    // LOJ distinct years with joined rows, group by $y, tag <books>.
    let loj = Plan::binary(
        OpKind::LeftOuterJoin {
            pred: Pred::eq(Operand::Col("y".into()), Operand::Col("col1".into())),
        },
        outer,
        entry,
    );
    let grouped = Plan::unary(
        OpKind::GroupBy { cols: vec!["y".into()], func: GroupFunc::Combine { col: "col5".into() } },
        loj,
    );
    let books_t = tagger(grouped, "books", vec![], vec![PatSlot::Col("col5".into())], "col6");
    let ordered = Plan::unary(
        OpKind::OrderBy { keys: vec![("y".into(), false)], out: "ord".into() },
        books_t,
    );
    let ygroup = tagger(
        ordered,
        "yGroup",
        vec![("Y", PatSlot::Col("y".into()))],
        vec![PatSlot::Col("col6".into())],
        "col7",
    );
    let combined = Plan::unary(OpKind::Combine { col: "col7".into() }, ygroup);
    tagger(combined, "result", vec![], vec![PatSlot::Col("col7".into())], "col8")
}

fn run_to_xml(store: &Store, plan: &mut Plan) -> String {
    annotate(plan).unwrap();
    let mut ex = Executor::new(store);
    let t = ex.eval(plan).unwrap();
    assert_eq!(t.n_rows(), 1);
    let items = t.rows[0].cells[t.col_idx("col8").unwrap()].items().to_vec();
    ex.materialize(&items).unwrap().to_xml()
}

const EXPECTED_FIG_1_2B: &str = concat!(
    r#"<result>"#,
    r#"<yGroup Y="1994"><books><entry><title>TCP/IP Illustrated</title><price>65.95</price></entry></books></yGroup>"#,
    r#"<yGroup Y="2000"><books><entry><title>Data on the Web</title><price>39.95</price></entry></books></yGroup>"#,
    r#"</result>"#
);

#[test]
fn initial_materialization_matches_figure_1_2b() {
    let s = store();
    let mut plan = figure_2_2_plan();
    assert_eq!(run_to_xml(&s, &mut plan), EXPECTED_FIG_1_2B);
}

#[test]
fn simple_retag_query() {
    // <result>{ for $b in doc("bib.xml")/bib/book return $b/title }</result>
    let s = store();
    let p = nav(source("bib.xml", "S1"), "S1", vec![step("bib"), step("book")], "b");
    let p = navc(p, "b", vec![step("title")], "t");
    let p = Plan::unary(OpKind::Combine { col: "t".into() }, p);
    let mut p = tagger(p, "result", vec![], vec![PatSlot::Col("t".into())], "r");
    annotate(&mut p).unwrap();
    let mut ex = Executor::new(&s);
    let t = ex.eval(&p).unwrap();
    let items = t.rows[0].cells[t.col_idx("r").unwrap()].items().to_vec();
    let xml = ex.materialize(&items).unwrap().to_xml();
    assert_eq!(
        xml,
        "<result><title>TCP/IP Illustrated</title><title>Data on the Web</title></result>"
    );
}

#[test]
fn order_recovered_from_order_schema_not_physical_order() {
    // Documents expose base nodes in document order even though the executor
    // never sorts intermediate tuples (§3.4.3 / Figure 3.4).
    let s = store();
    let p = nav(source("prices.xml", "S"), "S", vec![step("prices"), step("entry")], "e");
    let p = navc(p, "e", vec![step("price")], "pr");
    let p = Plan::unary(OpKind::Combine { col: "pr".into() }, p);
    let mut p = tagger(p, "r", vec![], vec![PatSlot::Col("pr".into())], "out");
    annotate(&mut p).unwrap();
    let mut ex = Executor::new(&s);
    let t = ex.eval(&p).unwrap();
    let items = t.rows[0].cells[t.col_idx("out").unwrap()].items().to_vec();
    let xml = ex.materialize(&items).unwrap().to_xml();
    assert_eq!(xml, "<r><price>39.95</price><price>65.95</price><price>69.99</price></r>");
}

#[test]
fn insert_delta_propagates_only_the_fragment() {
    // Figure 1.3(a) + Figure 4.1: insert a third book; the IMP over ΔS1
    // produces exactly the new entry under the 1994 group.
    let mut s = store();
    let bib = s.doc_root("bib.xml").unwrap();
    let books = s.children_named(&bib, "book");
    let frag = Frag::elem("book")
        .attr("year", "1994")
        .child(Frag::elem("title").text_child("Advanced Programming in the Unix environment"))
        .child(
            Frag::elem("author")
                .child(Frag::elem("last").text_child("Stevens"))
                .child(Frag::elem("first").text_child("W.")),
        );
    let new_key = s.insert_fragment(&bib, InsertPos::After(books[1].clone()), &frag).unwrap();

    let mut plan = figure_2_2_plan();
    annotate(&mut plan).unwrap();
    // Telescoped IMPs (bib.xml occurs twice): Σᵢ V(S_pre^{<i}, Δᵢ, S_post^{>i}).
    assert_eq!(plan.count_sources("bib.xml"), 2);
    let mut delta_roots = Vec::new();
    let mut ex = Executor::new(&s);
    ex.set_delta("bib.xml", vec![new_key], 1);
    for term in 0..2 {
        let imp = plan.imp_term("bib.xml", term, true);
        let t = ex.eval(&imp).unwrap();
        let items = t.rows[0].cells[t.col_idx("col8").unwrap()].items().to_vec();
        for r in ex.materialize_signed(&items).unwrap().roots {
            xat::extent::signed_union_siblings(&mut delta_roots, r);
        }
    }
    let delta_extent = xat::ViewExtent { roots: delta_roots };
    let xml = delta_extent.to_xml();
    // The delta tree targets the 1994 group only (Figure 4.1(c)): the new
    // entry appears, the 2000 group is never rebuilt. (Nodes of the affected
    // group may be re-derived with positive counts — the distinct-year
    // multiplicity for 1994 rose, and maintained counts track recomputation
    // exactly.)
    assert!(xml.contains(r#"<yGroup Y="1994">"#), "{xml}");
    assert!(!xml.contains(r#"<yGroup Y="2000">"#), "delta must not rebuild other groups: {xml}");
    assert!(xml.contains("<title>Advanced Programming in the Unix environment</title>"), "{xml}");
    assert!(xml.contains("<price>69.99</price>"), "{xml}");

    // The decisive check: applying the delta to the pre-update extent (deep
    // union, Ch. 8) refreshes it to exactly the recomputed view (the paper's
    // definition of correct maintenance, §1.2).
    let mut pre_store = store();
    let mut pre_plan = figure_2_2_plan();
    let before = {
        annotate(&mut pre_plan).unwrap();
        let mut e0 = Executor::new(&pre_store);
        let t0 = e0.eval(&pre_plan).unwrap();
        let items = t0.rows[0].cells[t0.col_idx("col8").unwrap()].items().to_vec();
        e0.materialize(&items).unwrap()
    };
    let mut refreshed = before.roots;
    for r in delta_extent.roots {
        xat::extent::deep_union_siblings(&mut refreshed, r);
    }
    let refreshed_xml = xat::ViewExtent { roots: refreshed }.to_xml();
    // Oracle: recompute over the updated store.
    pre_store = s;
    let mut oracle_plan = figure_2_2_plan();
    let oracle = run_to_xml(&pre_store, &mut oracle_plan);
    assert_eq!(refreshed_xml, oracle);
}

#[test]
fn full_recompute_after_insert_shows_fused_expectation() {
    // Oracle for the maintenance pipeline: recomputing over the updated
    // sources yields the Figure 4.1 expectation (new entry second in the
    // 1994 group, after the existing one — source document order).
    let mut s = store();
    let bib = s.doc_root("bib.xml").unwrap();
    let books = s.children_named(&bib, "book");
    let frag = Frag::elem("book")
        .attr("year", "1994")
        .child(Frag::elem("title").text_child("Advanced Programming in the Unix environment"));
    s.insert_fragment(&bib, InsertPos::After(books[1].clone()), &frag).unwrap();
    let mut plan = figure_2_2_plan();
    let xml = run_to_xml(&s, &mut plan);
    let i_tcp = xml.find("TCP/IP Illustrated").unwrap();
    let i_adv = xml.find("Advanced Programming").unwrap();
    let i_g2000 = xml.find(r#"<yGroup Y="2000">"#).unwrap();
    assert!(i_tcp < i_adv, "document order within the 1994 group");
    assert!(i_adv < i_g2000, "1994 group before 2000 group");
}

#[test]
fn delete_delta_carries_negative_counts() {
    // Figure 1.3(b): delete the "Data on the Web" book. Propagating the
    // delete over ΔS1 (before removing it from the source) produces the
    // fragment with count −1 at every node.
    let s = store();
    let bib = s.doc_root("bib.xml").unwrap();
    let books = s.children_named(&bib, "book");
    let victim = books[1].clone(); // year 2000, Data on the Web

    let mut plan = figure_2_2_plan();
    annotate(&mut plan).unwrap();
    let mut ex = Executor::new(&s);
    ex.set_delta("bib.xml", vec![victim], -1);
    let mut delta_roots = Vec::new();
    for term in 0..2 {
        let imp = plan.imp_term("bib.xml", term, false);
        let t = ex.eval(&imp).unwrap();
        let items = t.rows[0].cells[t.col_idx("col8").unwrap()].items().to_vec();
        for r in ex.materialize_signed(&items).unwrap().roots {
            xat::extent::signed_union_siblings(&mut delta_roots, r);
        }
    }
    // The 2000 group is present with net count −1 (telescoped terms: the
    // Δ-outer term contributes −1, the Δ-inner term nets 0 via the LOJ
    // null-row correction of §7.4).
    let root = &delta_roots[0];
    let g = root
        .children
        .iter()
        .find(|c| c.sem.to_string().contains("2000"))
        .expect("2000 group in delta");
    assert_eq!(g.count, -1);
    assert!(
        !root.children.iter().any(|c| c.sem.to_string().contains("1994")),
        "1994 group untouched"
    );
}

#[test]
fn exec_stats_are_populated() {
    let s = store();
    let mut plan = figure_2_2_plan();
    annotate(&mut plan).unwrap();
    let mut ex = Executor::new(&s);
    let t = ex.eval(&plan).unwrap();
    let items = t.rows[0].cells[t.col_idx("col8").unwrap()].items().to_vec();
    ex.materialize(&items).unwrap();
    assert!(ex.stats.total.as_nanos() > 0);
}

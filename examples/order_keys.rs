//! FlexKeys and semantic identifiers up close (Chapters 3 and 4): how
//! lexicographic order keys encode document order, survive skewed inserts
//! without relabeling, and how view nodes get reproducible identities.
//!
//! ```sh
//! cargo run --example order_keys
//! ```

use std::sync::Arc;

use xqview::xmlstore::InsertPos;
use xqview::{Frag, Store, ViewCatalog};

fn main() {
    // --- FlexKeys: identity + order + no relabeling (§3.3.1) -------------
    let mut store = Store::new();
    store
        .load_doc(
            "bib.xml",
            r#"<bib><book year="1994"><title>TCP/IP Illustrated</title></book>
                    <book year="2000"><title>Data on the Web</title></book></bib>"#,
        )
        .unwrap();
    let bib = store.doc_root("bib.xml").unwrap();
    println!("document keys (lexicographic = document order):");
    for (k, n) in store.descendants(&bib) {
        if let Some(name) = n.data.name() {
            println!("  {k:<12} <{name}>");
        }
    }

    // Squeeze 5 books between book[1] and book[2]: all existing keys stay.
    let books = store.children_named(&bib, "book");
    let before: Vec<String> = books.iter().map(|k| k.to_string()).collect();
    let mut anchor = books[0].clone();
    for i in 0..5 {
        let f = Frag::elem("book")
            .attr("year", "1995")
            .child(Frag::elem("title").text_child(format!("Interpolated {i}")));
        anchor = store.insert_fragment(&bib, InsertPos::After(anchor.clone()), &f).unwrap();
        println!("inserted between siblings → new key {anchor}");
    }
    let after: Vec<String> =
        store.children_named(&bib, "book").iter().map(|k| k.to_string()).collect();
    assert!(before.iter().all(|k| after.contains(k)), "no key was relabeled");
    println!("original keys untouched after skewed inserts  ✓\n");

    // --- Semantic identifiers: reproducible lineage+order ids (Ch. 4) ----
    let mut prices = String::from("<prices>");
    prices.push_str("<entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry>");
    prices.push_str("</prices>");
    store.load_doc("prices.xml", &prices).unwrap();
    let mut cat = ViewCatalog::new(store);
    cat.register(
        "v",
        r#"<result>{
            for $y in distinct-values(doc("bib.xml")/bib/book/@year)
            order by $y
            return <g Y="{$y}">{
                for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
                where $y = $b/@year and $b/title = $e/b-title
                return <entry>{$b/title}{$e/price}</entry>
            }</g>
        }</result>"#,
    )
    .unwrap();
    println!("view extent with semantic identifiers:");
    print_ids(&cat.view("v").unwrap().extent().roots, 1);
    println!("\nconstructed ids encode lineage (year values, source keys);");
    println!("base ids are FlexKeys — both reproducible across propagations.");
    cat.verify_all().unwrap();
}

fn print_ids(nodes: &[Arc<xqview::xat::VNode>], depth: usize) {
    for n in nodes {
        println!(
            "{:indent$}{:<10} sem = {}",
            "",
            n.data.name().unwrap_or("#text"),
            n.sem,
            indent = depth * 2
        );
        print_ids(&n.children, depth + 1);
    }
}

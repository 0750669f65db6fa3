//! Quickstart: the paper's running example, end to end.
//!
//! Loads the Figure 1.1 documents, defines the Figure 1.2(a) view, applies
//! the three heterogeneous Figure 1.3 updates, and prints the refreshed
//! extent (Figure 1.4) together with per-phase maintenance statistics.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use xqview::{Store, UpdateBatch, ViewCatalog};

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

fn main() {
    let mut store = Store::new();
    store.load_doc("bib.xml", BIB).unwrap();
    store.load_doc("prices.xml", PRICES).unwrap();

    // One view is a one-view catalog.
    let mut cat = ViewCatalog::new(store);
    cat.register("v", VIEW).unwrap();
    println!("== view plan (XAT algebra, Fig 2.2 shape) ==\n{}", cat.view("v").unwrap().plan());
    println!("== initial extent (Figure 1.2(b)) ==\n{}\n", pretty(&cat.extent_xml("v").unwrap()));

    let stats = cat.apply_batch(&UpdateBatch::from_script(UPDATES).unwrap()).unwrap().stats;
    println!("== refreshed extent (Figure 1.4) ==\n{}\n", pretty(&cat.extent_xml("v").unwrap()));
    println!("== maintenance statistics ==");
    println!("  relevant updates : {}", stats.views_routed);
    println!("  validate         : {:?}", stats.validate);
    println!("  propagate        : {:?}", stats.propagate);
    println!("  apply            : {:?}", stats.apply);
    println!("  fast modifies    : {}", stats.fast_modifies);

    // The paper's correctness criterion (§1.2).
    cat.verify_all().unwrap();
    println!("\nrefreshed view == recomputed view  ✓");
}

/// Tiny indenter for demo output.
fn pretty(xml: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    let mut chars = xml.chars().peekable();
    let mut buf = String::new();
    while let Some(c) = chars.next() {
        buf.push(c);
        if c == '>' {
            let is_close = buf.starts_with("</");
            let is_self = buf.ends_with("/>");
            if is_close {
                depth = depth.saturating_sub(1);
            }
            out.push_str(&"  ".repeat(depth));
            out.push_str(buf.trim());
            out.push('\n');
            if !is_close && !is_self && !buf.starts_with("<?") {
                depth += 1;
            }
            buf.clear();
        } else if c != '<' && chars.peek() == Some(&'<') {
            if !buf.trim().is_empty() {
                out.push_str(&"  ".repeat(depth));
                out.push_str(buf.trim());
                out.push('\n');
            }
            buf.clear();
        }
    }
    out
}

//! Stream-style incremental fusion (the paper's second motivating scenario,
//! §4.1): result fragments computed from data arriving one unit at a time
//! are fused into a continuously fresh materialized result — the semantic
//! identifiers make each newly computed piece land in exactly the right
//! place and order.
//!
//! ```sh
//! cargo run --example stream_fusion
//! ```

use xqview::{Store, UpdateBatch, ViewCatalog};

const VIEW: &str = r#"<dashboard>{
  for $c in distinct-values(doc("feed.xml")/feed/reading/@city)
  order by $c
  return
    <city name="{$c}">{
      for $r in doc("feed.xml")/feed/reading
      where $c = $r/@city
      return <t>{$r/temp}</t>
    }</city>
}</dashboard>"#;

fn main() {
    let mut store = Store::new();
    store.load_doc("feed.xml", "<feed></feed>").unwrap();
    let mut cat = ViewCatalog::new(store);
    cat.register("v", VIEW).unwrap();
    println!("empty feed  → {}\n", cat.extent_xml("v").unwrap());

    // Stream units arrive one at a time; each is one insert update that the
    // view absorbs incrementally.
    let readings = [
        ("Worcester", "21"),
        ("Boston", "19"),
        ("Worcester", "23"),
        ("Albany", "17"),
        ("Boston", "20"),
        ("Worcester", "22"),
    ];
    for (i, (city, temp)) in readings.iter().enumerate() {
        let unit = format!(
            r#"for $f in document("feed.xml")/feed update $f
               insert <reading city="{city}"><temp>{temp}</temp></reading> into $f"#
        );
        let _ = cat.apply_batch(&UpdateBatch::from_script(&unit).unwrap()).unwrap();
        println!("unit {i}: {city} {temp}°\n  → {}", cat.extent_xml("v").unwrap());
        cat.verify_all().unwrap();
    }

    // Late correction: a reading is retracted.
    let _ = cat
        .apply_batch(
            &UpdateBatch::from_script(
                r#"for $r in document("feed.xml")/feed/reading where $r/temp = "17"
           update $r delete $r"#,
            )
            .unwrap(),
        )
        .unwrap();
    println!("\nretract Albany 17°\n  → {}", cat.extent_xml("v").unwrap());
    cat.verify_all().unwrap();
    println!("\nall incremental states matched recomputation  ✓");
}

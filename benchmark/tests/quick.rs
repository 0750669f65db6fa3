//! Smoke test: a `--quick` run of both passes reports every named metric,
//! passes its correctness gates, and agrees with `BENCHMARK.json` on names
//! and units. Run it with `cargo test --release`: a debug build is an order
//! of magnitude slower.

#[path = "../src/metrics.rs"]
mod metrics;

use std::collections::BTreeMap;
use std::process::Command;

/// `name -> unit` of every `{"name": …, "unit": …}` object in `section`.
fn manifest_metrics(section: &str) -> BTreeMap<String, String> {
    let field = |obj: &str, key: &str| {
        let rest = &obj[obj.find(&format!("\"{key}\""))? + key.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    section.split('{').filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?))).collect()
}

#[test]
fn quick_run_reports_every_named_metric() {
    let out = Command::new(env!("CARGO_BIN_EXE_xqbench"))
        .args(["--quick", "--workload", "commit", "--seed", "5"])
        .output()
        .expect("run xqbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "xqbench --quick failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "result line: {last}");

    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("read BENCHMARK.json");
    let (head, per_layer) = manifest.split_once("\"per_layer\"").expect("per_layer key");
    let (_, end_to_end) = head.split_once("\"end_to_end\"").expect("end_to_end key");

    for (table, section) in [(metrics::END_TO_END, end_to_end), (metrics::PER_LAYER, per_layer)] {
        let declared = manifest_metrics(section);
        assert_eq!(
            declared.len(),
            table.len(),
            "BENCHMARK.json and src/metrics.rs differ in length"
        );
        for (name, unit, _) in table {
            assert_eq!(
                declared.get(*name).map(String::as_str),
                Some(*unit),
                "{name} in BENCHMARK.json"
            );
            let printed = format!("\"{name}\": {{\"value\": ");
            assert!(last.contains(&printed), "{name} missing from the result line");
            assert!(last.contains(&format!("\"unit\": \"{unit}\"")), "unit of {name}");
        }
    }
    for w in ["maintain", "commit", "read", "restart"] {
        assert!(manifest.contains(&format!("\"name\": \"{w}\"")), "workload {w} in BENCHMARK.json");
    }
    assert!(std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-commit.jsonl"))
        .exists());
}

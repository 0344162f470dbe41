//! `BENCHMARK.json` (the benchmark's published definition) and
//! `layers.json` (its layer map) must name exactly the metrics the binary
//! reports; `layers.json` names every workload of the binary, and
//! `BENCHMARK.json` the ones it marks as gated.

use scar_perfbench::args::Workload;
use scar_perfbench::run::{END_TO_END, PER_LAYER};
use serde::Value;

fn load(rel: &str) -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
    serde::parse_value(&text).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is not an array"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry has no {key}"))
}

fn names_units(doc: &Value, key: &str) -> Vec<(String, String)> {
    entries(doc, key)
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_binary() {
    let doc = load("../BENCHMARK.json");
    assert_eq!(names_units(&doc, "end_to_end"), table(&END_TO_END));
    assert_eq!(names_units(&doc, "per_layer"), table(&PER_LAYER));
    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let layers = load("layers.json");
    let gated: Vec<&str> = entries(&layers, "workloads")
        .iter()
        .filter(|w| {
            w.get("gated")
                .and_then(Value::as_bool)
                .expect("a gated flag")
        })
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, gated);
    let setup = entries(&doc, "end_to_end")
        .iter()
        .find(|m| field(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(field(setup, "better"), "lower");
}

#[test]
fn layer_map_covers_every_workload_and_metric() {
    let doc = load("layers.json");
    assert_eq!(names_units(&doc, "end_to_end"), table(&END_TO_END));
    assert_eq!(names_units(&doc, "per_layer"), table(&PER_LAYER));
    let workloads: Vec<(String, u64)> = entries(&doc, "workloads")
        .iter()
        .map(|w| {
            let seed = w.get("default_seed").and_then(Value::as_u64);
            (field(w, "name").to_string(), seed.expect("a default seed"))
        })
        .collect();
    let known: Vec<(String, u64)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.default_seed()))
        .collect();
    assert_eq!(workloads, known);
}

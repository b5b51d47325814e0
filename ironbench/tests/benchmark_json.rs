//! `BENCHMARK.json` at the repository root lists exactly the metrics the
//! benchmark prints, with the same units and in the same order.

use ironbench::metrics::{per_layer, END_TO_END};

/// The `(name, unit)` pairs of one metric array of `BENCHMARK.json`.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, f: &str| {
        let at = obj.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
        obj[at..at + obj[at..].find('"').unwrap()].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(section(&json, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(section(&json, "per_layer"), layers);
}

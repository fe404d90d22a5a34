//! `BENCHMARK.json` at the repo root must say what `spec.rs` says.

use hp_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};

/// The string value of `"key": "..."` inside one flat JSON object.
fn text<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let rest = object.split_once(&format!("\"{key}\": \""))?.1;
    rest.split_once('"').map(|(value, _)| value)
}

/// The flat objects of the array `"key": [ {...}, ... ]`, in order.
fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let array = json
        .split_once(&format!("\"{key}\": ["))
        .and_then(|(_, rest)| rest.split_once(']'))
        .map_or("", |(array, _)| array);
    array
        .split('{')
        .skip(1)
        .filter_map(|part| part.split_once('}').map(|(object, _)| object))
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");

    let workloads = objects(&json, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (object, shape) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(object, "name"), Some(shape.name));
        assert_eq!(text(object, "why"), Some(shape.why));
        assert!(shape.why.len() <= 200, "{}", shape.name);
    }

    let end_to_end = objects(&json, "end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (object, metric) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text(object, "name"), Some(metric.name));
        assert_eq!(text(object, "unit"), Some(metric.unit), "{}", metric.name);
        assert_eq!(
            text(object, "better"),
            Some(metric.better),
            "{}",
            metric.name
        );
        let bound: f64 = object
            .split_once("\"bound\": ")
            .and_then(|(_, rest)| rest.trim().parse().ok())
            .expect("a numeric bound");
        assert_eq!(bound, metric.bound, "{}", metric.name);
        // The issue's cap: an unsteady metric is resized or demoted, never
        // given a wider bound — except the set-up time, which the driver's
        // contract requires and lets go up to 0.25.
        let cap = if metric.name == "setup_s" { 0.25 } else { 0.10 };
        assert!(bound <= cap, "{}", metric.name);
    }
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));

    let per_layer = objects(&json, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (object, (name, unit, better)) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text(object, "name"), Some(*name));
        assert_eq!(text(object, "unit"), Some(*unit), "{name}");
        assert_eq!(text(object, "better"), Some(*better), "{name}");
    }

    let seconds: f64 = json
        .split_once("\"run_seconds\": ")
        .and_then(|(_, rest)| rest.split_once(','))
        .and_then(|(value, _)| value.trim().parse().ok())
        .expect("run_seconds");
    assert_eq!(seconds, hp_benchmark::spec::DEFAULT_SECONDS);
}

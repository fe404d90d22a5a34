//! A promtool-style lint for the Prometheus text expositions this
//! workspace renders — pure Rust, so the exposition contract is enforced
//! by `cargo test` instead of an external binary.
//!
//! Checked rules:
//!
//! * every sample belongs to a family whose `# HELP` and `# TYPE` lines
//!   both appeared before the first sample;
//! * no family is declared twice — this is what catches a duplicate
//!   metric family when the service and edge expositions are merged;
//! * `counter` families end in `_total`;
//! * every sample value parses as a float;
//! * for `histogram` families, per series (same labels modulo `le`):
//!   `le` bounds strictly increase, bucket counts are cumulative
//!   (non-decreasing), the last bucket is `+Inf`, `_count` equals the
//!   `+Inf` bucket, and `_sum` is present.
//!
//! OpenMetrics-style exemplar suffixes (`… # {trace_id="…"} 0.0123`)
//! are stripped before value parsing — the text format proper has no
//! exemplars, and this keeps the convention honest: exemplars may
//! decorate a sample but never replace or corrupt it.

use super::registry::{Family, Kind};
use std::collections::{HashMap, HashSet};

/// Lints `text`; returns one message per violation (empty = clean).
pub fn lint_prometheus(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    // family -> (has_help, type)
    let mut families: HashMap<String, (bool, Option<String>)> = HashMap::new();
    // histogram family -> series key -> bucket (le, count) in order
    let mut buckets: HashMap<String, HashMap<String, Vec<(f64, f64)>>> = HashMap::new();
    // histogram family -> series key -> _count / _sum values
    let mut counts: HashMap<String, HashMap<String, f64>> = HashMap::new();
    let mut sums: HashMap<String, HashSet<String>> = HashMap::new();

    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            let entry = families.entry(name.to_string()).or_insert((false, None));
            if entry.0 {
                errors.push(format!("line {lineno}: duplicate HELP for family `{name}`"));
            }
            entry.0 = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            let entry = families.entry(name.to_string()).or_insert((false, None));
            if entry.1.is_some() {
                errors.push(format!("line {lineno}: duplicate TYPE for family `{name}`"));
            }
            if kind == "counter" && !name.ends_with("_total") {
                errors.push(format!(
                    "line {lineno}: counter family `{name}` does not end in _total"
                ));
            }
            entry.1 = Some(kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }

        // Sample line: name{labels} value [# {exemplar-labels} value]
        let sample = match line.find(" # ") {
            Some(pos) => &line[..pos],
            None => line,
        };
        let (name, labels) = match sample.find('{') {
            Some(open) => {
                let close = match sample.rfind('}') {
                    Some(close) if close > open => close,
                    _ => {
                        errors.push(format!("line {lineno}: unterminated label set"));
                        continue;
                    }
                };
                (&sample[..open], &sample[open + 1..close])
            }
            None => (
                sample.split_whitespace().next().unwrap_or(""),
                Default::default(),
            ),
        };
        let value_text = sample
            .rsplit(|c: char| c.is_whitespace() || c == '}')
            .next()
            .unwrap_or("")
            .trim();
        let value = match parse_value(value_text) {
            Some(v) => v,
            None => {
                errors.push(format!(
                    "line {lineno}: sample value `{value_text}` is not a float"
                ));
                continue;
            }
        };

        // Resolve the sample to its family: histogram suffixes first.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                match families.get(base) {
                    Some((_, Some(kind))) if kind == "histogram" || kind == "summary" => Some(base),
                    _ => None,
                }
            })
            .unwrap_or(name);
        match families.get(family) {
            Some((true, Some(_))) => {}
            Some((false, _)) => {
                errors.push(format!(
                    "line {lineno}: sample `{name}` precedes HELP for family `{family}`"
                ));
            }
            Some((_, None)) => {
                errors.push(format!(
                    "line {lineno}: sample `{name}` precedes TYPE for family `{family}`"
                ));
            }
            None => {
                errors.push(format!(
                    "line {lineno}: sample `{name}` has no HELP/TYPE declaration"
                ));
            }
        }

        let is_histogram = matches!(
            families.get(family),
            Some((_, Some(kind))) if kind == "histogram"
        );
        if is_histogram && family != name {
            let series = series_key(labels);
            match name.strip_suffix("_bucket") {
                Some(_) => match le_bound(labels) {
                    Some(le) => buckets
                        .entry(family.to_string())
                        .or_default()
                        .entry(series)
                        .or_default()
                        .push((le, value)),
                    None => errors.push(format!(
                        "line {lineno}: histogram bucket `{name}` without an le label"
                    )),
                },
                None if name.ends_with("_count") => {
                    counts
                        .entry(family.to_string())
                        .or_default()
                        .insert(series, value);
                }
                None => {
                    sums.entry(family.to_string()).or_default().insert(series);
                }
            }
        }
    }

    for (family, series) in &buckets {
        for (key, le_counts) in series {
            let label = if key.is_empty() {
                family.clone()
            } else {
                format!("{family}{{{key}}}")
            };
            for pair in le_counts.windows(2) {
                if pair[1].0 <= pair[0].0 {
                    errors.push(format!(
                        "{label}: le bounds not strictly increasing ({} then {})",
                        pair[0].0, pair[1].0
                    ));
                }
                if pair[1].1 < pair[0].1 {
                    errors.push(format!(
                        "{label}: bucket counts not cumulative ({} then {})",
                        pair[0].1, pair[1].1
                    ));
                }
            }
            match le_counts.last() {
                Some((le, total)) if le.is_infinite() => {
                    let count = counts.get(family).and_then(|c| c.get(key));
                    match count {
                        Some(count) if (count - total).abs() < 0.5 => {}
                        Some(count) => {
                            errors.push(format!("{label}: _count {count} != +Inf bucket {total}"))
                        }
                        None => errors.push(format!("{label}: missing _count sample")),
                    }
                }
                _ => errors.push(format!("{label}: bucket series does not end at +Inf")),
            }
            if !sums.get(family).is_some_and(|s| s.contains(key)) {
                errors.push(format!("{label}: missing _sum sample"));
            }
        }
    }

    errors
}

/// Holds `text` against the families it should consist of, both ways:
/// every catalogue row appears with its `# HELP`, its `# TYPE` and at
/// least one sample, and every family `text` declares is a row (rows
/// sharing a name are one family). Returns one message per violation.
pub fn lint_catalogue(text: &str, catalogue: &[Family]) -> Vec<String> {
    let mut errors = Vec::new();
    for Family { name, help, kind } in catalogue {
        for header in [
            format!("# HELP {name} {help}"),
            format!("# TYPE {name} {kind}"),
        ] {
            if !text.lines().any(|line| line == header) {
                errors.push(format!("missing `{header}`"));
            }
        }
        let bucket = format!("{name}_bucket");
        let stem = if *kind == Kind::Histogram {
            bucket.as_str()
        } else {
            name
        };
        let sample = |line: &str| {
            let rest = line.strip_prefix(stem);
            rest.is_some_and(|rest| rest.starts_with(['{', ' ']))
        };
        if !text.lines().any(sample) {
            errors.push(format!("family `{name}` has no sample"));
        }
    }
    for declared in text.lines().filter_map(|line| line.strip_prefix("# TYPE ")) {
        let name = declared.split(' ').next().unwrap_or(declared);
        if !catalogue.iter().any(|family| family.name == name) {
            errors.push(format!("family `{name}` is not in the catalogue"));
        }
    }
    errors
}

/// The series identity of a label set with any `le` pair removed.
fn series_key(labels: &str) -> String {
    labels
        .split(',')
        .filter(|pair| !pair.trim_start().starts_with("le="))
        .collect::<Vec<_>>()
        .join(",")
}

/// The `le` bound of a bucket sample's label set.
fn le_bound(labels: &str) -> Option<f64> {
    labels.split(',').find_map(|pair| {
        let pair = pair.trim();
        let raw = pair.strip_prefix("le=\"")?.strip_suffix('"')?;
        parse_value(raw)
    })
}

fn parse_value(raw: &str) -> Option<f64> {
    match raw {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        _ => raw.parse::<f64>().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = "\
# HELP hp_x_total Things.
# TYPE hp_x_total counter
hp_x_total{shard=\"0\"} 3
hp_x_total{shard=\"1\"} 4
# HELP hp_lat_seconds Latency.
# TYPE hp_lat_seconds histogram
hp_lat_seconds_bucket{le=\"0.001\"} 1 # {trace_id=\"00000000000000ab\"} 0.0004
hp_lat_seconds_bucket{le=\"0.01\"} 3
hp_lat_seconds_bucket{le=\"+Inf\"} 4
hp_lat_seconds_sum 0.5
hp_lat_seconds_count 4
# HELP hp_state State.
# TYPE hp_state gauge
hp_state 1
";

    #[test]
    fn clean_exposition_passes() {
        let errors = lint_prometheus(CLEAN);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn labeled_histogram_series_lint_independently() {
        let text = "\
# HELP hp_w_seconds W.
# TYPE hp_w_seconds histogram
hp_w_seconds_bucket{shard=\"0\",le=\"0.001\"} 1
hp_w_seconds_bucket{shard=\"0\",le=\"+Inf\"} 2
hp_w_seconds_sum{shard=\"0\"} 0.1
hp_w_seconds_count{shard=\"0\"} 2
hp_w_seconds_bucket{shard=\"1\",le=\"0.004\"} 7
hp_w_seconds_bucket{shard=\"1\",le=\"+Inf\"} 7
hp_w_seconds_sum{shard=\"1\"} 0.2
hp_w_seconds_count{shard=\"1\"} 7
";
        let errors = lint_prometheus(text);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn missing_declarations_and_duplicates_are_caught() {
        let errors = lint_prometheus("hp_orphan 1\n");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("no HELP/TYPE"));

        let dup = "\
# HELP hp_a_total A.
# TYPE hp_a_total counter
hp_a_total 1
# HELP hp_a_total A again.
# TYPE hp_a_total counter
hp_a_total 2
";
        let errors = lint_prometheus(dup);
        assert!(
            errors.iter().any(|e| e.contains("duplicate HELP")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("duplicate TYPE")),
            "{errors:?}"
        );
    }

    #[test]
    fn histogram_violations_are_caught() {
        let text = "\
# HELP hp_h_seconds H.
# TYPE hp_h_seconds histogram
hp_h_seconds_bucket{le=\"0.01\"} 5
hp_h_seconds_bucket{le=\"0.001\"} 1
hp_h_seconds_sum 0.5
hp_h_seconds_count 9
";
        let errors = lint_prometheus(text);
        assert!(
            errors.iter().any(|e| e.contains("not strictly increasing")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("does not end at +Inf")),
            "{errors:?}"
        );

        let decumulative = "\
# HELP hp_h_seconds H.
# TYPE hp_h_seconds histogram
hp_h_seconds_bucket{le=\"0.001\"} 5
hp_h_seconds_bucket{le=\"0.01\"} 3
hp_h_seconds_bucket{le=\"+Inf\"} 6
hp_h_seconds_sum 0.5
hp_h_seconds_count 5
";
        let errors = lint_prometheus(decumulative);
        assert!(
            errors.iter().any(|e| e.contains("not cumulative")),
            "{errors:?}"
        );
        assert!(errors.iter().any(|e| e.contains("_count")), "{errors:?}");
    }

    #[test]
    fn counters_must_end_in_total_and_values_must_parse() {
        let text = "\
# HELP hp_bad Bad counter name.
# TYPE hp_bad counter
hp_bad 1
# HELP hp_g G.
# TYPE hp_g gauge
hp_g banana
";
        let errors = lint_prometheus(text);
        assert!(
            errors.iter().any(|e| e.contains("does not end in _total")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("not a float")),
            "{errors:?}"
        );
    }
}

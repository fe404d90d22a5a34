//! Metric values, the human-readable listing and the result line.

use crate::spec::{END_TO_END, PER_LAYER};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples behind the value (requests, repetitions or slices).
    pub n: u64,
}

/// The unit the metric tables give `name`.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, unit)| unit)
}

/// Prints one metric per line: name, value, unit, sample count.
pub fn print_metrics(metrics: &[Metric]) {
    for metric in metrics {
        println!(
            "  {:<44} {:>16.4} {:<6} n={}",
            metric.name,
            metric.value,
            unit_of(metric.name),
            metric.n
        );
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`. Values print with every digit `f64` carries.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name,
                unit_of(m.name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.8127,
                n: 3,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        // A non-finite value must not break the JSON.
        let line = result_line(
            false,
            1,
            1,
            &[Metric {
                name: "bench.restart_s",
                value: f64::NAN,
                n: 0,
            }],
        );
        assert!(
            line.contains("\"bench.restart_s\": {\"value\": 0, \"unit\": \"s\"}"),
            "{line}"
        );
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(crate::spec::WORKLOADS.iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            names.len(),
            "duplicate metric or workload name"
        );
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }
}

//! The machine-readable load report (`experiments/out/bench_edge.json`).
//!
//! Written by `edge-soak` and the `hp-load` CLI. Keep field names
//! stable: the report is the machine-readable record of a run.

use crate::runner::{LoadConfig, LoadOutcome};
use hp_service::obs::LatencySnapshot;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Renders one latency snapshot as a JSON object of milliseconds.
fn render_latency(out: &mut String, name: &str, snapshot: &LatencySnapshot) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let _ = write!(
        out,
        "\"{name}\":{{\"count\":{},\"mean_ms\":{:.4},\"p50_ms\":{:.4},\"p90_ms\":{:.4},\"p99_ms\":{:.4},\"max_ms\":{:.4}}}",
        snapshot.count,
        ms(snapshot.mean_ns()),
        ms(snapshot.quantile_ns(0.50)),
        ms(snapshot.quantile_ns(0.90)),
        ms(snapshot.quantile_ns(0.99)),
        ms(snapshot.max_ns),
    );
}

/// Renders the full report JSON.
pub fn render(config: &LoadConfig, outcome: &LoadOutcome) -> String {
    let mut out = String::with_capacity(2048);
    let _ = write!(
        out,
        "{{\n  \"config\":{{\"connections\":{},\"feedback_rate\":{},\"batch_size\":{},\"duration_secs\":{:.3},\"assess_every\":{},\"servers\":{},\"clients\":{},\"seed\":{}}},\n",
        config.connections,
        config.feedback_rate,
        config.batch_size,
        config.duration.as_secs_f64(),
        config.assess_every,
        config.mix.servers,
        config.mix.clients,
        config.mix.seed,
    );
    let _ = writeln!(
        out,
        "  \"feedbacks\":{{\"sent\":{},\"accepted\":{},\"shed\":{}}},",
        outcome.feedbacks_sent, outcome.feedbacks_accepted, outcome.feedbacks_shed,
    );
    let _ = writeln!(
        out,
        "  \"requests\":{{\"ingest\":{},\"ingest_rejections\":{},\"assess\":{},\"assess_degraded\":{},\"errors\":{},\"late_sends\":{}}},",
        outcome.ingest_requests,
        outcome.ingest_rejections,
        outcome.assess_requests,
        outcome.assess_degraded,
        outcome.errors,
        outcome.late_sends,
    );
    let _ = write!(
        out,
        "  \"elapsed_secs\":{:.3},\n  \"ingest_throughput_per_sec\":{:.1},\n  ",
        outcome.elapsed.as_secs_f64(),
        outcome.accepted_rate(),
    );
    render_latency(&mut out, "ingest_latency", &outcome.ingest_latency);
    out.push_str(",\n  ");
    render_latency(&mut out, "assess_latency", &outcome.assess_latency);
    let _ = write!(
        out,
        ",\n  \"assess_p99_ms\":{:.4}\n}}\n",
        outcome.assess_latency.quantile_ns(0.99) as f64 / 1e6
    );
    out
}

/// Writes the report, creating parent directories.
///
/// # Errors
///
/// Filesystem errors.
pub fn write(path: &Path, config: &LoadConfig, outcome: &LoadOutcome) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, render(config, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationMix;
    use std::time::Duration;

    #[test]
    fn report_contains_gate_fields() {
        let config = LoadConfig {
            addr: "127.0.0.1:1".parse().unwrap(),
            connections: 2,
            feedback_rate: 1000.0,
            batch_size: 100,
            duration: Duration::from_secs(1),
            assess_every: 5,
            mix: PopulationMix::paper_mix(10, 1000, 3),
        };
        let outcome = LoadOutcome {
            feedbacks_accepted: 900,
            elapsed: Duration::from_secs(1),
            ..LoadOutcome::default()
        };
        let text = render(&config, &outcome);
        for field in [
            "ingest_throughput_per_sec",
            "assess_p99_ms",
            "\"accepted\":900",
            "ingest_latency",
            "assess_latency",
            "late_sends",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
        assert!(hp_edge::wire::json_u64(&text, "sent").is_some());
    }
}

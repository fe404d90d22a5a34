//! Wire formats: the feedback line format for ingest bodies and the
//! JSON renderers for every response the edge emits.
//!
//! The crate is dependency-free, so both directions are hand-rolled and
//! deliberately small:
//!
//! * **Ingest bodies** are newline-separated `time,server,client,rating`
//!   records (`rating` ∈ `+ - 1 0`). One line parses to one
//!   [`Feedback`]; a body carries any number of lines, which is how the
//!   load harness sustains hundreds of thousands of feedbacks per second
//!   over a few hundred requests. Parsing has two paths with one
//!   meaning: a byte scanner reads the exact shape
//!   [`render_feedback_line`] writes in one pass, and every other line
//!   (comments, padding, CRLF, 20-digit values, errors) falls back to
//!   the `str` parser that defines the format. The tests hold the
//!   scanner to that parser, error for error.
//! * **Responses** are flat JSON objects rendered by string building.
//!   Trust values and phase-1 statistics additionally carry their raw
//!   IEEE-754 bits (`*_bits` fields, hex) so clients — and the e2e
//!   equivalence suite — can compare verdicts *bit-exactly*, which a
//!   decimal float round-trip cannot guarantee.
//!
//! The tiny `json_*` field extractors at the bottom exist for the tests
//! and `hp-load`, which need to read those flat objects back without a
//! JSON dependency. They are scanners for the exact shapes this module
//! produces, not a JSON parser.

use hp_core::twophase::Assessment;
use hp_core::{ClientId, Feedback, Rating, ServerId};
use hp_service::obs::{format_trace_id, SpanTree};
use hp_service::{
    BootStatus, CalibrationReadiness, DegradedAssessment, DegradedReason, IngestOutcome,
    TracedAssessment,
};
use std::sync::Arc;

/// Why an ingest body failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What was wrong with it.
    pub reason: &'static str,
}

/// Parses a newline-separated feedback body.
///
/// Each line is `time,server,client,rating` with `rating` one of
/// `+`/`1` (good) or `-`/`0` (bad). Blank lines and `#` comments are
/// skipped. The whole body is rejected on the first bad record —
/// partial ingest of a malformed batch would make the shed/accepted
/// accounting ambiguous.
///
/// Each line is first offered to a byte scanner that takes only the
/// shape [`render_feedback_line`] writes, reading the line and its
/// newline in one pass. A line it declines is cut at its newline and
/// read by the general `str` parser, which defines the format. The
/// scanner accepts only lines the general parser reads to the same
/// feedback, and lines are numbered as [`str::lines`] numbers them, so
/// the body's accept set, values and errors are exactly the general
/// parser's over `lines()`; only the time differs.
///
/// # Errors
///
/// [`ParseError`] pinpointing the first offending line.
pub fn parse_feedback_body(body: &[u8]) -> Result<Vec<Feedback>, ParseError> {
    let text = std::str::from_utf8(body).map_err(|_| ParseError {
        line: 0,
        reason: "body is not UTF-8",
    })?;
    let mut feedbacks = Vec::new();
    let mut at = 0;
    let mut line = 0;
    while at < text.len() {
        line += 1;
        if let Some((feedback, next)) = scan_canonical_line(body, at) {
            feedbacks.push(feedback);
            at = next;
            continue;
        }
        let end = text[at..].find('\n').map_or(text.len(), |i| at + i);
        let parsed = parse_line(&text[at..end]).map_err(|reason| ParseError { line, reason })?;
        feedbacks.extend(parsed);
        at = end + 1;
    }
    Ok(feedbacks)
}

/// The fast path: the line starting at `at`, if it has the exact shape
/// [`render_feedback_line`] writes — `digits,digits,digits,r` with 1–19
/// ASCII digits a field, no whitespace, `r` one of `+ - 1 0`, then `\n`
/// or the end of the body — read in one pass over its bytes. Returns
/// the feedback and the offset of the next line; `None` for any other
/// line, which [`parse_line`] then reads. Nineteen digits stay below
/// 10¹⁹ < `u64::MAX`, so the sums cannot overflow; a 20-digit field is
/// left to `parse_line`.
fn scan_canonical_line(body: &[u8], at: usize) -> Option<(Feedback, usize)> {
    let (time, at) = scan_field(body, at)?;
    let (server, at) = scan_field(body, at)?;
    let (client, at) = scan_field(body, at)?;
    let good = match body.get(at)? {
        b'+' | b'1' => true,
        b'-' | b'0' => false,
        _ => return None,
    };
    let next = match body.get(at + 1) {
        None => at + 1,
        Some(b'\n') => at + 2,
        Some(_) => return None,
    };
    Some((
        Feedback::new(
            time,
            ServerId::new(server),
            ClientId::new(client),
            Rating::from_good(good),
        ),
        next,
    ))
}

/// One canonical field at `at`: 1–19 ASCII digits and the comma after
/// them. Returns the value and the offset past the comma.
fn scan_field(body: &[u8], at: usize) -> Option<(u64, usize)> {
    let mut value = 0u64;
    for (len, &byte) in body.get(at..)?.iter().enumerate().take(20) {
        match byte {
            b'0'..=b'9' if len < 19 => value = value * 10 + u64::from(byte - b'0'),
            b',' if len > 0 => return Some((value, at + len + 1)),
            _ => return None,
        }
    }
    None
}

/// The general path, which defines the line format: `Ok(None)` for a
/// blank or `#` line, the feedback for a record, or why the record is
/// bad. Fields are trimmed of Unicode whitespace and parsed as `u64`,
/// so padding, a leading `+` and 20-digit values read here.
fn parse_line(raw: &str) -> Result<Option<Feedback>, &'static str> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split(',');
    let time = fields
        .next()
        .and_then(|f| f.trim().parse::<u64>().ok())
        .ok_or("bad time field")?;
    let server = fields
        .next()
        .and_then(|f| f.trim().parse::<u64>().ok())
        .ok_or("bad server field")?;
    let client = fields
        .next()
        .and_then(|f| f.trim().parse::<u64>().ok())
        .ok_or("bad client field")?;
    let rating = match fields.next().map(str::trim) {
        Some("+") | Some("1") => Rating::from_good(true),
        Some("-") | Some("0") => Rating::from_good(false),
        _ => return Err("bad rating field (want + - 1 0)"),
    };
    if fields.next().is_some() {
        return Err("trailing fields");
    }
    Ok(Some(Feedback::new(
        time,
        ServerId::new(server),
        ClientId::new(client),
        rating,
    )))
}

/// Renders one feedback in the ingest line format (the inverse of
/// [`parse_feedback_body`]); used by the load generator.
pub fn render_feedback_line(out: &mut String, feedback: &Feedback) {
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "{},{},{},{}",
        feedback.time,
        feedback.server.value(),
        feedback.client.value(),
        if feedback.is_good() { '+' } else { '-' }
    );
}

/// `{"accepted":N,"shed":M}`
pub fn render_ingest(outcome: &IngestOutcome) -> String {
    format!(
        "{{\"accepted\":{},\"shed\":{}}}",
        outcome.accepted, outcome.shed
    )
}

fn push_f64_with_bits(out: &mut String, name: &str, value: f64) {
    use std::fmt::Write;
    let _ = write!(
        out,
        ",\"{name}\":{value},\"{name}_bits\":\"{:016x}\"",
        value.to_bits()
    );
}

fn verdict_name(assessment: &Assessment) -> &'static str {
    match assessment {
        Assessment::Accepted { .. } => "accepted",
        Assessment::Rejected { .. } => "rejected",
        Assessment::NeedsReview { .. } => "needs_review",
    }
}

/// Renders a (fresh) assessment:
/// `{"server":S,"verdict":"accepted","degraded":false,"trust":…,"trust_bits":"…"}`
/// (`trust` is absent for rejections, which produce no trust value).
pub fn render_assessment(server: ServerId, assessment: &Assessment) -> String {
    let mut out = format!(
        "{{\"server\":{},\"verdict\":\"{}\",\"degraded\":false",
        server.value(),
        verdict_name(assessment)
    );
    if let Some(trust) = assessment.trust() {
        push_f64_with_bits(&mut out, "trust", trust.value());
    }
    out.push('}');
    out
}

/// Renders a degraded assessment: the verdict fields of
/// [`render_assessment`] plus `"degraded":true`, the exact staleness in
/// feedbacks, and why the fresh path did not answer.
pub fn render_degraded(server: ServerId, degraded: &DegradedAssessment) -> String {
    let reason = match degraded.reason {
        DegradedReason::DeadlineExceeded => "deadline_exceeded",
        DegradedReason::WorkerRestarting => "worker_restarting",
        DegradedReason::ShardUnavailable => "shard_unavailable",
    };
    let mut out = format!(
        "{{\"server\":{},\"verdict\":\"{}\",\"degraded\":true,\"staleness\":{},\"computed_at_version\":{},\"latest_version\":{},\"reason\":\"{}\"",
        server.value(),
        verdict_name(&degraded.assessment),
        degraded.staleness(),
        degraded.computed_at_version,
        degraded.latest_version,
        reason,
    );
    if let Some(trust) = degraded.assessment.trust() {
        push_f64_with_bits(&mut out, "trust", trust.value());
    }
    out.push('}');
    out
}

/// Renders a traced assessment: the fields of [`render_assessment`]
/// plus the audit record (scheme, phase-1 statistics with raw bits,
/// cache provenance).
pub fn render_traced(traced: &TracedAssessment) -> String {
    use std::fmt::Write;
    let trace = &traced.trace;
    let mut out = format!(
        "{{\"server\":{},\"verdict\":\"{}\",\"degraded\":false,\"scheme\":\"{}\",\"outcome\":\"{}\",\"transactions\":{},\"windows\":{},\"suffixes_tested\":{},\"confidence\":{},\"from_cache\":{}",
        trace.server.value(),
        verdict_name(&traced.assessment),
        trace.scheme,
        trace.outcome,
        trace.transactions,
        trace.windows,
        trace.suffixes_tested,
        trace.confidence,
        trace.from_cache,
    );
    if let Some(len) = trace.binding_suffix_len {
        let _ = write!(out, ",\"binding_suffix_len\":{len}");
    }
    if let Some(trust) = trace.trust {
        push_f64_with_bits(&mut out, "trust", trust);
    }
    if let Some(p_hat) = trace.p_hat {
        push_f64_with_bits(&mut out, "p_hat", p_hat);
    }
    if let Some(distance) = trace.distance {
        push_f64_with_bits(&mut out, "distance", distance);
    }
    if let Some(threshold) = trace.threshold {
        push_f64_with_bits(&mut out, "threshold", threshold);
    }
    if let Some(margin) = trace.margin {
        push_f64_with_bits(&mut out, "margin", margin);
    }
    out.push('}');
    out
}

/// Renders the batch-assess response: a JSON array of per-server
/// objects, errors rendered in place so one failed server does not
/// sink the batch.
pub fn render_batch(
    answers: &[(
        ServerId,
        Result<std::sync::Arc<Assessment>, hp_core::CoreError>,
    )],
) -> String {
    let mut out = String::from("[");
    for (idx, (server, answer)) in answers.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        match answer {
            Ok(assessment) => out.push_str(&render_assessment(*server, assessment)),
            Err(e) => out.push_str(&render_error_for(*server, &e.to_string())),
        }
    }
    out.push(']');
    out
}

/// `{"server":S,"error":"…"}`
fn render_error_for(server: ServerId, message: &str) -> String {
    format!(
        "{{\"server\":{},\"error\":\"{}\"}}",
        server.value(),
        escape(message)
    )
}

/// `{"error":"…","detail":"…"}`
pub fn render_error(error: &str, detail: &str) -> String {
    format!(
        "{{\"error\":\"{}\",\"detail\":\"{}\"}}",
        escape(error),
        escape(detail)
    )
}

/// `{"status":"…","shards":N,"failed_shards":M,…}` for `/healthz`.
/// `history_bytes` is the per-tier residency `(hot_suffix, spilled)` —
/// the runbook signal for sizing `--spill-budget-bytes`
/// (spilled counts fault-in cost, not disk usage). `calibration`
/// (absent while draining) reports whether the interpolated threshold
/// surface is configured and serving — the runbook signal for
/// `--calibration-tolerance`: `surface_configured` true with
/// `surface_ready` false means thresholds fall back to the oracle path.
pub fn render_health(
    status: &str,
    shards: usize,
    failed_shards: u64,
    shard_restarts: u64,
    tracked_servers: usize,
    history_bytes: (u64, u64),
    calibration: Option<CalibrationReadiness>,
) -> String {
    use std::fmt::Write;
    let (hot_suffix, spilled) = history_bytes;
    let mut out = format!(
        "{{\"status\":\"{status}\",\"shards\":{shards},\"failed_shards\":{failed_shards},\"shard_restarts\":{shard_restarts},\"tracked_servers\":{tracked_servers},\"history_bytes\":{{\"hot_suffix\":{hot_suffix},\"spilled\":{spilled}}}"
    );
    if let Some(cal) = calibration {
        let _ = write!(
            out,
            ",\"calibration\":{{\"surface_configured\":{},\"surface_ready\":{},\"cache_entries\":{}}}",
            cal.surface_configured, cal.surface_ready, cal.cache_entries,
        );
    }
    out.push('}');
    out
}

/// `/healthz` body while the service is still booting: recovery
/// progress, so an operator can tell a hung boot from a long journal
/// replay. `snapshot_loaded` says whether any shard recovered from a
/// snapshot (vs. full replay); `replayed_records`/`journal_records` is
/// the replay progress fraction.
pub fn render_warming_health(status: &str, boot: &BootStatus) -> String {
    format!(
        "{{\"status\":\"{status}\",\"snapshot_loaded\":{},\"snapshots_loaded\":{},\"replayed_records\":{},\"journal_records\":{},\"shards_ready\":{},\"shards_total\":{}}}",
        boot.snapshots_loaded > 0,
        boot.snapshots_loaded,
        boot.replayed_records,
        boot.journal_records,
        boot.shards_ready,
        boot.shards_total,
    )
}

/// Renders one span tree:
/// `{"trace":"…","endpoint":"/assess","seq":N,"total_ns":N,"stage_sum_ns":N,"detail":"…","spans":[…]}`.
/// Each span is `{"name":"…","start_ns":N,"duration_ns":N,"detail":"…"}`
/// with `start_ns` the offset from the request start; `detail` carries
/// verdict and cache/threshold provenance.
pub fn render_span_tree(tree: &SpanTree) -> String {
    use std::fmt::Write;
    let mut out = format!(
        "{{\"trace\":\"{}\",\"endpoint\":\"{}\",\"seq\":{},\"total_ns\":{},\"stage_sum_ns\":{},\"detail\":\"{}\",\"spans\":[",
        format_trace_id(tree.trace),
        escape(tree.endpoint),
        tree.seq,
        tree.total_ns,
        tree.stage_sum_ns(),
        escape(&tree.detail),
    );
    for (idx, span) in tree.spans.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"duration_ns\":{},\"detail\":\"{}\"}}",
            escape(span.name),
            span.start_ns,
            span.duration_ns,
            escape(&span.detail),
        );
    }
    out.push_str("]}");
    out
}

/// Renders the `/debug/slow` body: the slowest captured span trees per
/// endpoint, slowest first.
pub fn render_slow(slowest: &[(&'static str, Vec<Arc<SpanTree>>)]) -> String {
    let mut out = String::from("{\"endpoints\":[");
    for (idx, (endpoint, trees)) in slowest.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"endpoint\":\"{}\",\"slowest\":[",
            escape(endpoint)
        ));
        for (tdx, tree) in trees.iter().enumerate() {
            if tdx > 0 {
                out.push(',');
            }
            out.push_str(&render_span_tree(tree));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Renders the `/version` body. `service` carries the service's build
/// labels (trust model, shard count) once it is constructed; while
/// warming only the edge's own build identity is known.
pub fn render_version(state: &str, service: Option<(&str, usize)>) -> String {
    use std::fmt::Write;
    let mut out = format!(
        "{{\"name\":\"hp-edge\",\"version\":\"{}\",\"git\":\"{}\",\"state\":\"{}\"",
        env!("CARGO_PKG_VERSION"),
        option_env!("HP_GIT_HASH").unwrap_or("unknown"),
        escape(state),
    );
    if let Some((trust, shards)) = service {
        let _ = write!(out, ",\"trust\":\"{}\",\"shards\":{shards}", escape(trust));
    }
    out.push('}');
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---- flat-JSON field extraction (for tests and hp-load) ----

/// Extracts the raw value text of `"key":<value>` from a flat JSON
/// object rendered by this module. Not a JSON parser: it relies on the
/// renderers never nesting objects or embedding `,"key":` inside
/// strings.
pub fn json_raw<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let rest = &body[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else {
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// `json_raw` parsed as `u64`.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    json_raw(body, key)?.parse().ok()
}

/// The raw-bits twin of an `f64` field, decoded back to the exact
/// float: reads `"<key>_bits":"…"` as hex and transmutes.
pub fn json_f64_bits(body: &str, key: &str) -> Option<f64> {
    let bits = json_raw(body, &format!("{key}_bits"))?;
    u64::from_str_radix(bits, 16).ok().map(f64::from_bits)
}

/// `json_raw` as a string field.
pub fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    json_raw(body, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn feedback_body_round_trips() {
        let feedbacks = vec![
            Feedback::new(
                0,
                ServerId::new(1),
                ClientId::new(2),
                Rating::from_good(true),
            ),
            Feedback::new(
                1,
                ServerId::new(1),
                ClientId::new(3),
                Rating::from_good(false),
            ),
        ];
        let mut body = String::from("# header comment\n\n");
        for f in &feedbacks {
            render_feedback_line(&mut body, f);
        }
        assert_eq!(parse_feedback_body(body.as_bytes()).unwrap(), feedbacks);
    }

    #[test]
    fn accepts_numeric_ratings() {
        let parsed = parse_feedback_body(b"5,1,2,1\n6,1,2,0\n").unwrap();
        assert!(parsed[0].is_good());
        assert!(!parsed[1].is_good());
    }

    #[test]
    fn rejects_bad_records_with_line_numbers() {
        for (body, line) in [
            (&b"1,2,3,+\nbanana"[..], 2),
            (b"1,2,3,*", 1),
            (b"1,2,3", 1),
            (b"1,2,3,+,9", 1),
            (b"x,2,3,+", 1),
        ] {
            let err = parse_feedback_body(body).unwrap_err();
            assert_eq!(err.line, line, "body {:?}", std::str::from_utf8(body));
        }
        assert_eq!(parse_feedback_body(b"\xff\xfe").unwrap_err().line, 0);
    }

    fn fb(time: u64, server: u64, client: u64, good: bool) -> Feedback {
        Feedback::new(
            time,
            ServerId::new(server),
            ClientId::new(client),
            Rating::from_good(good),
        )
    }

    type Parsed = Result<Vec<Feedback>, ParseError>;

    fn bad(line: usize, reason: &'static str) -> Parsed {
        Err(ParseError { line, reason })
    }

    /// The body parser with the fast path taken out: every line of
    /// [`str::lines`] through `parse_line`, as bodies were read before
    /// the scanner existed.
    fn parse_body_by_str(body: &[u8]) -> Parsed {
        let text = std::str::from_utf8(body).map_err(|_| ParseError {
            line: 0,
            reason: "body is not UTF-8",
        })?;
        let mut feedbacks = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let parsed = parse_line(raw).map_err(|reason| ParseError {
                line: idx + 1,
                reason,
            })?;
            feedbacks.extend(parsed);
        }
        Ok(feedbacks)
    }

    /// The scanner on one line: what it reads when it takes the whole
    /// line, and `None` when it declines.
    fn scan(line: &[u8]) -> Option<Feedback> {
        scan_canonical_line(line, 0)
            .filter(|&(_, next)| next == line.len())
            .map(|(feedback, _)| feedback)
    }

    /// Lines off the renderer's shape, each with the result the `str`
    /// parser gave before the scanner existed, and whether the scanner
    /// takes it (it must decline all but the canonical ones).
    #[test]
    fn off_shape_lines_keep_their_results() {
        let cases: [(&[u8], Parsed); 16] = [
            (
                b"1,2,3,+\r\n4,5,6,-\r\n",
                Ok(vec![fb(1, 2, 3, true), fb(4, 5, 6, false)]),
            ),
            (b"1,2,3,+\r", Ok(vec![fb(1, 2, 3, true)])),
            (
                b"+5,1,2,+\n007,010,0,0\n",
                Ok(vec![fb(5, 1, 2, true), fb(7, 10, 0, false)]),
            ),
            (
                b"18446744073709551615,1,2,+\n",
                Ok(vec![fb(u64::MAX, 1, 2, true)]),
            ),
            (b"18446744073709551616,1,2,+\n", bad(1, "bad time field")),
            (b"99999999999999999999,1,2,+\n", bad(1, "bad time field")),
            (b"1,18446744073709551616,2,+\n", bad(1, "bad server field")),
            (b"  1 , 2 ,\t3 , +  \n", Ok(vec![fb(1, 2, 3, true)])),
            (
                "\u{a0}1\u{a0},2,3\u{a0},-\u{a0}\n".as_bytes(),
                Ok(vec![fb(1, 2, 3, false)]),
            ),
            (
                "# commentaire séparé ✓\n1,2,3,+\n".as_bytes(),
                Ok(vec![fb(1, 2, 3, true)]),
            ),
            (b"1,,3,+\n", bad(1, "bad server field")),
            (b"1,2,3,+,\n", bad(1, "trailing fields")),
            (b"1,2,3,\n", bad(1, "bad rating field (want + - 1 0)")),
            (b",2,3,+\n", bad(1, "bad time field")),
            (b"1,2,3,++\n", bad(1, "bad rating field (want + - 1 0)")),
            (b"1,2,3,+ \n", Ok(vec![fb(1, 2, 3, true)])),
        ];
        for (body, want) in cases {
            let shown = String::from_utf8_lossy(body);
            assert_eq!(parse_feedback_body(body), want, "{shown:?}");
            assert_eq!(parse_body_by_str(body), want, "{shown:?}");
        }
        // Which lines the scanner takes: only the canonical shape.
        for line in [
            &b"1,2,3,+"[..],
            b"007,010,0,0",
            b"9999999999999999999,0,0,-",
        ] {
            assert!(scan(line).is_some(), "{line:?}");
        }
        for line in [
            &b"1,2,3,+\r"[..],
            b"+5,1,2,+",
            b"18446744073709551615,1,2,+",
            b"99999999999999999999,1,2,+",
            b" 1,2,3,+",
            b"1,2,3,+ ",
            b"1,,3,+",
            b"1,2,3,+,",
            b"1,2,3,",
            b"1,2,3,++",
            b"# 1,2,3,+",
            b"",
        ] {
            assert!(scan(line).is_none(), "{line:?}");
        }
    }

    /// A feedback field of any magnitude: uniform in its digit count,
    /// not its value, so short and 19- and 20-digit numbers all occur.
    fn magnitude() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0u32..64).prop_map(|(raw, shift)| raw >> shift)
    }

    /// A line that is mostly the ingest format's own bytes, so the
    /// scanner sees near misses as well as noise.
    fn near_line() -> impl Strategy<Value = Vec<u8>> {
        const ALPHABET: &[u8] = b"0123456789,,,,+-\r \t#";
        vec((any::<bool>(), any::<u8>()), 0..48).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(raw, b)| {
                    if raw {
                        b
                    } else {
                        ALPHABET[usize::from(b) % ALPHABET.len()]
                    }
                })
                .collect()
        })
    }

    proptest! {
        /// Whenever the scanner takes a line, the `str` parser reads the
        /// same feedback from it; and a body of such lines — arbitrary,
        /// near misses, or rendered lines cut, flipped or grown — parses
        /// to exactly what the `str` parser alone returns, error for
        /// error.
        #[test]
        fn canonical_line_scan_survives_hostile_bytes(
            rendered in (magnitude(), magnitude(), magnitude(), any::<bool>()),
            mangle in (0u8..4, any::<usize>(), any::<u8>()),
            near in near_line(),
            raw in vec(any::<u8>(), 0..48),
        ) {
            let (time, server, client, good) = rendered;
            let mut line = String::new();
            render_feedback_line(&mut line, &fb(time, server, client, good));
            let mut cut = line.into_bytes();
            let (kind, at, byte) = mangle;
            match kind {
                0 => cut.truncate(at % (cut.len() + 1)),
                1 => {
                    let at = at % cut.len();
                    cut[at] ^= byte.max(1);
                }
                2 => cut.insert(at % (cut.len() + 1), byte),
                _ => {}
            }
            for bytes in [&cut[..], &near[..], &raw[..]] {
                if let Some((feedback, next)) = scan_canonical_line(bytes, 0) {
                    let line = &bytes[..next];
                    let text = std::str::from_utf8(line.strip_suffix(b"\n").unwrap_or(line));
                    prop_assert!(text.is_ok(), "scanner took non-UTF-8 {:?}", line);
                    prop_assert_eq!(parse_line(text.unwrap_or_default()), Ok(Some(feedback)));
                }
                prop_assert_eq!(parse_feedback_body(bytes), parse_body_by_str(bytes));
            }
            let body = [&cut[..], b"\n", &near[..], b"\r\n", &raw[..]].concat();
            prop_assert_eq!(parse_feedback_body(&body), parse_body_by_str(&body));
        }

        /// Every line the renderer writes takes the fast path when its
        /// fields are below 10^19, which the scanner reads without
        /// overflow; a field of 20 digits reads the same through the
        /// `str` parser.
        #[test]
        fn rendered_lines_take_the_fast_path(
            rendered in (magnitude(), magnitude(), magnitude(), any::<bool>()),
        ) {
            let (time, server, client, good) = rendered;
            let feedback = fb(time, server, client, good);
            let mut line = String::new();
            render_feedback_line(&mut line, &feedback);
            let scanned = scan_canonical_line(line.as_bytes(), 0);
            if [time, server, client].iter().all(|&v| v < 10_000_000_000_000_000_000) {
                prop_assert_eq!(scanned, Some((feedback, line.len())));
            } else {
                prop_assert_eq!(scanned, None);
                prop_assert_eq!(parse_line(line.trim_end()), Ok(Some(feedback)));
            }
        }
    }

    proptest! {
        /// A rendered body parses back to the feedbacks it was rendered
        /// from; cut, flipped or grown anywhere, it parses, or its error
        /// names a line the body has (0 for a body that is not UTF-8) —
        /// and it never panics.
        #[test]
        fn parse_feedback_body_survives_hostile_bytes(
            records in vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()), 0..12),
            small in any::<bool>(),
            mangle in (0u8..3, any::<usize>(), any::<u8>()),
        ) {
            let feedbacks: Vec<Feedback> = records
                .into_iter()
                .map(|(time, server, client, good)| {
                    // Short numbers too, so a cut or flip can leave a digit.
                    let id = |raw: u64| if small { raw % 100 } else { raw };
                    let (server, client) = (ServerId::new(id(server)), ClientId::new(id(client)));
                    Feedback::new(id(time), server, client, Rating::from_good(good))
                })
                .collect();
            let mut body = String::new();
            for feedback in &feedbacks {
                render_feedback_line(&mut body, feedback);
            }
            prop_assert_eq!(parse_feedback_body(body.as_bytes()), Ok(feedbacks));

            let mut bytes = body.into_bytes();
            let (kind, at, byte) = mangle;
            match kind {
                0 => bytes.truncate(at % (bytes.len() + 1)),
                1 if !bytes.is_empty() => {
                    let at = at % bytes.len();
                    bytes[at] ^= byte.max(1);
                }
                _ => bytes.insert(at % (bytes.len() + 1), byte),
            }
            prop_assert_eq!(parse_feedback_body(&bytes), parse_body_by_str(&bytes));
            let lines = bytes.split(|&b| b == b'\n').count();
            if let Err(e) = parse_feedback_body(&bytes) {
                prop_assert!(e.line <= lines, "line {} of {lines}: {}", e.line, e.reason);
            }
        }
    }

    #[test]
    fn json_extraction_reads_back_rendered_fields() {
        let outcome = IngestOutcome {
            accepted: 12,
            shed: 3,
        };
        let body = render_ingest(&outcome);
        assert_eq!(json_u64(&body, "accepted"), Some(12));
        assert_eq!(json_u64(&body, "shed"), Some(3));

        let health = render_health(
            "ready",
            4,
            0,
            1,
            900,
            (4096, 8192),
            Some(CalibrationReadiness {
                surface_configured: true,
                surface_ready: true,
                cache_entries: 615,
            }),
        );
        assert_eq!(json_str(&health, "status"), Some("ready"));
        assert_eq!(json_u64(&health, "shards"), Some(4));
        assert_eq!(json_u64(&health, "shard_restarts"), Some(1));
        assert_eq!(json_u64(&health, "hot_suffix"), Some(4096));
        assert_eq!(json_u64(&health, "summary"), None);
        assert_eq!(json_u64(&health, "spilled"), Some(8192));
        assert_eq!(json_str(&health, "surface_configured"), Some("true"));
        assert_eq!(json_str(&health, "surface_ready"), Some("true"));
        assert_eq!(json_u64(&health, "cache_entries"), Some(615));

        let draining = render_health("draining", 0, 0, 0, 0, (0, 0), None);
        assert!(!draining.contains("calibration"), "{draining}");

        let warming = render_warming_health(
            "warming",
            &BootStatus {
                journal_records: 1000,
                replayed_records: 400,
                snapshots_loaded: 1,
                shards_total: 2,
                shards_ready: 1,
            },
        );
        assert_eq!(json_str(&warming, "status"), Some("warming"));
        assert_eq!(json_str(&warming, "snapshot_loaded"), Some("true"));
        assert_eq!(json_u64(&warming, "replayed_records"), Some(400));
        assert_eq!(json_u64(&warming, "journal_records"), Some(1000));
        assert_eq!(json_u64(&warming, "shards_ready"), Some(1));
        assert_eq!(json_u64(&warming, "shards_total"), Some(2));
    }

    #[test]
    fn trust_bits_round_trip_exactly() {
        // A value with no short decimal representation.
        let trust = 0.1f64 + 0.2f64.powi(3);
        let body = format!(
            "{{\"trust\":{trust},\"trust_bits\":\"{:016x}\"}}",
            trust.to_bits()
        );
        assert_eq!(json_f64_bits(&body, "trust"), Some(trust));
        assert_eq!(
            json_f64_bits(&body, "trust").unwrap().to_bits(),
            trust.to_bits()
        );
    }

    #[test]
    fn error_rendering_escapes_quotes() {
        let body = render_error("bad request", "line 3: got \"banana\"");
        assert!(body.contains("\\\"banana\\\""));
        assert_eq!(json_str(&body, "error"), Some("bad request"));
    }

    #[test]
    fn span_trees_render_with_hex_trace_and_stage_sum() {
        use hp_service::obs::SpanRecord;
        let tree = SpanTree {
            trace: 0xab,
            seq: 7,
            endpoint: "/assess",
            total_ns: 5_000,
            detail: "verdict=accepted cache_hit=true".into(),
            spans: vec![
                SpanRecord {
                    name: "edge_read",
                    start_ns: 0,
                    duration_ns: 1_000,
                    detail: "".into(),
                },
                SpanRecord {
                    name: "queue_wait",
                    start_ns: 1_000,
                    duration_ns: 3_000,
                    detail: "shard=1".into(),
                },
            ],
        };
        let body = render_span_tree(&tree);
        assert_eq!(json_str(&body, "trace"), Some("00000000000000ab"));
        assert_eq!(json_u64(&body, "total_ns"), Some(5_000));
        assert_eq!(json_u64(&body, "stage_sum_ns"), Some(4_000));
        assert!(body.contains("\"name\":\"queue_wait\""), "{body}");
        assert!(body.contains("\"detail\":\"shard=1\""), "{body}");

        let slow = render_slow(&[("/assess", vec![Arc::new(tree)]), ("/ingest", vec![])]);
        assert!(slow.contains("\"endpoint\":\"/assess\""), "{slow}");
        assert!(slow.contains("\"slowest\":[]"), "{slow}");
    }

    #[test]
    fn version_renders_edge_and_service_identity() {
        let body = render_version("ready", Some(("weighted(λ=0.9)", 4)));
        assert_eq!(json_str(&body, "name"), Some("hp-edge"));
        assert_eq!(json_str(&body, "state"), Some("ready"));
        assert_eq!(json_u64(&body, "shards"), Some(4));
        assert!(body.contains("\"version\":\""));
        let warming = render_version("warming", None);
        assert!(!warming.contains("shards"), "{warming}");
    }
}

//! Schema validation for `panorama-trace-v1` JSON exports.
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `TRACE001` | error | the document is not valid JSON |
//! | `TRACE002` | error | missing or unknown `schema` field |
//! | `TRACE003` | error | missing or mistyped top-level field |
//! | `TRACE004` | error | malformed event (missing/mistyped field, or `end_ns < start_ns`) |
//! | `TRACE005` | error | events out of `(candidate, seq)` merge order |
//! | `TRACE006` | warn | top-level phases cover less than 90% of `wall_ns` |
//!
//! The trace writer ([`panorama_trace::TraceReport::to_json`]) always
//! produces clean output; these checks guard the other direction —
//! hand-edited fixtures, truncated artifact uploads, and future writers —
//! so CI can fail fast on a corrupt trace artifact.

use crate::report_fields::err;
use crate::{Diagnostic, Diagnostics, Entity, Severity};
use panorama_trace::json::{self, Json};

/// Minimum share of `wall_ns` the top-level phases must cover before
/// `TRACE006` fires. Matches the pipeline's acceptance bar (phases within
/// 10% of end-to-end wall-clock).
const MIN_TOP_LEVEL_COVERAGE: f64 = 0.90;

/// Validates a `panorama-trace-v1` document, appending findings to `out`.
/// Returns early on unparseable JSON or a wrong schema — field checks on
/// an arbitrary document would only produce noise.
pub fn lint_trace_json(text: &str, out: &mut Diagnostics) {
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            out.push(err(
                "TRACE001",
                Entity::Global,
                format!("invalid JSON: {e}"),
            ));
            return;
        }
    };
    match doc.get("schema").and_then(Json::as_str) {
        Some("panorama-trace-v1") => {}
        Some(other) => {
            out.push(err(
                "TRACE002",
                Entity::Global,
                format!("unknown schema `{other}` (expected `panorama-trace-v1`)"),
            ));
            return;
        }
        None => {
            out.push(err(
                "TRACE002",
                Entity::Global,
                "missing `schema` field (expected `panorama-trace-v1`)",
            ));
            return;
        }
    }

    for field in ["kernel", "arch", "mapper"] {
        if doc.get(field).and_then(Json::as_str).is_none() {
            out.push(err(
                "TRACE003",
                Entity::Global,
                format!("top-level field `{field}` missing or not a string"),
            ));
        }
    }
    for field in ["threads", "wall_ns"] {
        if doc.get(field).and_then(Json::as_f64).is_none() {
            out.push(err(
                "TRACE003",
                Entity::Global,
                format!("top-level field `{field}` missing or not a number"),
            ));
        }
    }
    let Some(events) = doc.get("events").and_then(Json::as_arr) else {
        out.push(err(
            "TRACE003",
            Entity::Global,
            "top-level field `events` missing or not an array",
        ));
        return;
    };

    let mut last_key: Option<(u64, u64)> = None;
    let mut top_level_ns = 0u64;
    for (i, event) in events.iter().enumerate() {
        let Some(fields) = lint_event(event, i, out) else {
            // a malformed event has no trustworthy merge key or width
            last_key = None;
            continue;
        };
        let (candidate, seq, start_ns, end_ns, phase) = fields;
        if !phase.contains('.') {
            top_level_ns += end_ns.saturating_sub(start_ns);
        }
        let key = (candidate, seq);
        if let Some(last) = last_key {
            if key <= last {
                out.push(err(
                    "TRACE005",
                    Entity::Event(i),
                    format!(
                        "events out of merge order: (candidate {}, seq {}) after \
                         (candidate {}, seq {})",
                        display_candidate(candidate),
                        seq,
                        display_candidate(last.0),
                        last.1
                    ),
                ));
            }
        }
        last_key = Some(key);
    }

    let wall_ns = doc.get("wall_ns").and_then(Json::as_f64).unwrap_or(0.0);
    if wall_ns > 0.0 && !events.is_empty() {
        let coverage = top_level_ns as f64 / wall_ns;
        if coverage < MIN_TOP_LEVEL_COVERAGE {
            out.push(
                Diagnostic::new(
                    "TRACE006",
                    Severity::Warn,
                    Entity::Global,
                    format!(
                        "top-level phases cover only {:.1}% of wall_ns (expected >= {:.0}%)",
                        coverage * 100.0,
                        MIN_TOP_LEVEL_COVERAGE * 100.0
                    ),
                )
                .with_help("the trace may be truncated, or a pipeline phase is not instrumented"),
            );
        }
    }
}

/// Checks one event object; returns `(candidate, seq, start_ns, end_ns,
/// phase)` when well-formed enough to feed the order/coverage checks.
/// A `null` candidate (pipeline-level event) maps to `u64::MAX`, matching
/// the writer's sort position.
fn lint_event<'a>(
    event: &'a Json,
    i: usize,
    out: &mut Diagnostics,
) -> Option<(u64, u64, u64, u64, &'a str)> {
    let mut broken = false;
    let phase = event.get("phase").and_then(Json::as_str);
    if phase.is_none() {
        out.push(err(
            "TRACE004",
            Entity::Event(i),
            "`phase` missing or not a string",
        ));
        broken = true;
    }
    let candidate = match event.get("candidate") {
        Some(Json::Null) => Some(u64::MAX),
        Some(v) => match v.as_f64() {
            Some(n) if n >= 0.0 => Some(n as u64),
            _ => None,
        },
        None => None,
    };
    if candidate.is_none() {
        out.push(err(
            "TRACE004",
            Entity::Event(i),
            "`candidate` missing or not null/non-negative number",
        ));
        broken = true;
    }
    let mut nums = [0u64; 3];
    for (slot, field) in ["seq", "start_ns", "end_ns"].iter().enumerate() {
        match event.get(field).and_then(Json::as_f64) {
            Some(n) if n >= 0.0 => nums[slot] = n as u64,
            _ => {
                out.push(err(
                    "TRACE004",
                    Entity::Event(i),
                    format!("`{field}` missing or not a non-negative number"),
                ));
                broken = true;
            }
        }
    }
    if event.get("stable").and_then(Json::as_bool).is_none() {
        out.push(err(
            "TRACE004",
            Entity::Event(i),
            "`stable` missing or not a boolean",
        ));
        broken = true;
    }
    if event.get("counters").and_then(Json::as_obj).is_none() {
        out.push(err(
            "TRACE004",
            Entity::Event(i),
            "`counters` missing or not an object",
        ));
        broken = true;
    }
    let [seq, start_ns, end_ns] = nums;
    if !broken && end_ns < start_ns {
        out.push(err(
            "TRACE004",
            Entity::Event(i),
            format!("span ends before it starts (start_ns {start_ns}, end_ns {end_ns})"),
        ));
        broken = true;
    }
    if broken {
        None
    } else {
        Some((candidate?, seq, start_ns, end_ns, phase?))
    }
}

fn display_candidate(candidate: u64) -> String {
    if candidate == u64::MAX {
        "null".into()
    } else {
        candidate.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_trace::{TraceEvent, TraceReport, NO_CANDIDATE};

    fn lint(text: &str) -> Diagnostics {
        let mut diags = Diagnostics::new();
        lint_trace_json(text, &mut diags);
        diags
    }

    fn codes(diags: &Diagnostics) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    fn sample_report() -> TraceReport {
        TraceReport {
            kernel: "fir".into(),
            arch: "8x8".into(),
            mapper: "SPR*".into(),
            threads: 2,
            wall_ns: 1_000_000,
            events: vec![
                TraceEvent {
                    phase: "spr.route",
                    candidate: 0,
                    seq: 5,
                    start_ns: 100,
                    end_ns: 200,
                    counters: vec![("ii", 3)],
                    stable: true,
                },
                TraceEvent {
                    phase: "map",
                    candidate: NO_CANDIDATE,
                    seq: 0,
                    start_ns: 0,
                    end_ns: 950_000,
                    counters: vec![],
                    stable: true,
                },
            ],
        }
    }

    #[test]
    fn writer_output_is_clean() {
        let diags = lint(&sample_report().to_json());
        assert!(diags.is_empty(), "{}", diags.render_human());
    }

    #[test]
    fn invalid_json_is_trace001() {
        assert_eq!(codes(&lint("{not json")), vec!["TRACE001"]);
    }

    #[test]
    fn wrong_or_missing_schema_is_trace002() {
        assert_eq!(codes(&lint(r#"{"schema": "bogus-v9"}"#)), vec!["TRACE002"]);
        assert_eq!(codes(&lint(r#"{"kernel": "fir"}"#)), vec!["TRACE002"]);
    }

    #[test]
    fn missing_top_level_fields_are_trace003() {
        let diags = lint(r#"{"schema": "panorama-trace-v1", "kernel": "fir"}"#);
        let found = codes(&diags);
        assert!(found.iter().all(|c| *c == "TRACE003"), "{found:?}");
        // arch, mapper, threads, wall_ns, events all missing
        assert_eq!(found.len(), 5);
    }

    #[test]
    fn malformed_events_are_trace004() {
        let mut text = sample_report().to_json();
        text = text.replace("\"stable\": true", "\"stable\": 1");
        let diags = lint(&text);
        assert!(
            codes(&diags).contains(&"TRACE004"),
            "{}",
            diags.render_human()
        );

        // a span that ends before it starts
        let mut report = sample_report();
        report.events[0].start_ns = 300;
        let diags = lint(&report.to_json());
        assert!(codes(&diags).contains(&"TRACE004"));
    }

    #[test]
    fn merge_order_violation_is_trace005() {
        let mut report = sample_report();
        report.events.swap(0, 1); // NO_CANDIDATE first: out of order
        let diags = lint(&report.to_json());
        assert_eq!(codes(&diags), vec!["TRACE005"]);
    }

    #[test]
    fn low_coverage_is_trace006_warning() {
        let mut report = sample_report();
        report.events[1].end_ns = 100_000; // top-level covers 10%
        let diags = lint(&report.to_json());
        assert_eq!(codes(&diags), vec!["TRACE006"]);
        assert!(!diags.has_errors());
    }
}

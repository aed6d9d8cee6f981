//! Schema and invariant validation for `panorama-exec-v1` JSON.
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `EXEC001` | error | invalid JSON, wrong `schema`, or missing/mistyped field |
//! | `EXEC002` | error | a vector records a value-level divergence between machine and reference |
//! | `EXEC003` | error | conservation broken: status, checked totals or vector rows inconsistent |
//!
//! An exec report is the written verdict of the data-level differential
//! oracle: the cycle-accurate machine replaying the configware must
//! produce the exact token stream the DFG reference interpreter
//! computes. `EXEC002` makes a recorded divergence a lint *error*, so a
//! CI pipeline that lints its exec reports cannot silently ship a
//! semantically wrong encoder. `EXEC003` guards the report's own
//! arithmetic: a `pass` status must be backed by divergence-free vector
//! rows whose checked counts cover every (op, iteration) token.

use crate::report_fields::{err, uint};
use crate::{Diagnostics, Entity};
use panorama_trace::json::{self, Json};

/// The schema this linter validates (mirrored by `panorama_sim::exec`).
pub const EXEC_SCHEMA: &str = "panorama-exec-v1";

/// The five input-vector families every report must carry, in order.
const VECTORS: &[&str] = &["seeded", "zeros", "ones", "i32-min", "i32-max"];

/// `EXEC001`: schema and field shape. Returns `false` when the report is
/// too malformed for the invariant checks to be meaningful.
fn check_shape(doc: &Json, out: &mut Diagnostics) -> bool {
    match doc.get("schema").and_then(Json::as_str) {
        Some(EXEC_SCHEMA) => {}
        Some(other) => {
            out.push(err(
                "EXEC001",
                Entity::Global,
                format!("unknown schema `{other}` (expected `{EXEC_SCHEMA}`)"),
            ));
            return false;
        }
        None => {
            out.push(err(
                "EXEC001",
                Entity::Global,
                format!("missing `schema` field (expected `{EXEC_SCHEMA}`)"),
            ));
            return false;
        }
    }
    let mut ok = true;
    for field in ["kernel", "arch", "mapper"] {
        if doc.get(field).and_then(Json::as_str).is_none() {
            out.push(err(
                "EXEC001",
                Entity::Global,
                format!("`{field}` missing or not a string"),
            ));
            ok = false;
        }
    }
    for field in ["ii", "iterations", "seed", "ops", "stores", "checked"] {
        if uint(doc, field).is_none() {
            out.push(err(
                "EXEC001",
                Entity::Global,
                format!("`{field}` missing or not a non-negative integer"),
            ));
            ok = false;
        }
    }
    match doc.get("status").and_then(Json::as_str) {
        Some("pass" | "fail") => {}
        _ => {
            out.push(err(
                "EXEC001",
                Entity::Global,
                "`status` missing or not `pass`/`fail`",
            ));
            ok = false;
        }
    }
    match doc.get("vectors").and_then(Json::as_arr) {
        Some(rows) => {
            for (i, row) in rows.iter().enumerate() {
                if row.get("vector").and_then(Json::as_str).is_none() {
                    out.push(err(
                        "EXEC001",
                        Entity::Event(i),
                        "vector row missing `vector` name",
                    ));
                    ok = false;
                }
                for field in ["checked", "output_tokens"] {
                    if uint(row, field).is_none() {
                        out.push(err(
                            "EXEC001",
                            Entity::Event(i),
                            format!("vector row `{field}` missing or not a non-negative integer"),
                        ));
                        ok = false;
                    }
                }
                if row.get("output_digest").and_then(Json::as_str).is_none() {
                    out.push(err(
                        "EXEC001",
                        Entity::Event(i),
                        "vector row `output_digest` missing or not a string",
                    ));
                    ok = false;
                }
                let divergence_ok =
                    matches!(row.get("divergence"), Some(Json::Null | Json::Str(_)));
                if !divergence_ok {
                    out.push(err(
                        "EXEC001",
                        Entity::Event(i),
                        "vector row `divergence` missing or not null/string",
                    ));
                    ok = false;
                }
            }
        }
        None => {
            out.push(err(
                "EXEC001",
                Entity::Global,
                "`vectors` missing or not an array",
            ));
            ok = false;
        }
    }
    ok
}

/// `EXEC002`: every recorded divergence is an error finding.
fn check_divergences(doc: &Json, out: &mut Diagnostics) {
    let Some(rows) = doc.get("vectors").and_then(Json::as_arr) else {
        return;
    };
    for (i, row) in rows.iter().enumerate() {
        if let Some(msg) = row.get("divergence").and_then(Json::as_str) {
            let vector = row.get("vector").and_then(Json::as_str).unwrap_or("?");
            out.push(err(
                "EXEC002",
                Entity::Event(i),
                format!("`{vector}` vector diverged from the reference: {msg}"),
            ));
        }
    }
}

/// `EXEC003`: the report's own conservation laws.
fn check_conservation(doc: &Json, out: &mut Diagnostics) {
    let Some(rows) = doc.get("vectors").and_then(Json::as_arr) else {
        return;
    };
    let names: Vec<&str> = rows
        .iter()
        .filter_map(|r| r.get("vector").and_then(Json::as_str))
        .collect();
    if names != VECTORS {
        out.push(err(
            "EXEC003",
            Entity::Global,
            format!(
                "vector rows [{}] do not match the required families [{}]",
                names.join(", "),
                VECTORS.join(", ")
            ),
        ));
    }
    let ops = uint(doc, "ops").unwrap_or(0);
    let stores = uint(doc, "stores").unwrap_or(0);
    let iterations = uint(doc, "iterations").unwrap_or(0);
    let mut divergences = 0usize;
    let mut checked_sum = 0u64;
    for (i, row) in rows.iter().enumerate() {
        let vector = row.get("vector").and_then(Json::as_str).unwrap_or("?");
        let checked = uint(row, "checked").unwrap_or(0);
        checked_sum += checked;
        let diverged = row.get("divergence").and_then(Json::as_str).is_some();
        if diverged {
            divergences += 1;
        } else if checked != ops * iterations {
            out.push(err(
                "EXEC003",
                Entity::Event(i),
                format!(
                    "`{vector}` checked {checked} tokens but a clean vector must cover \
                     ops x iterations = {}",
                    ops * iterations
                ),
            ));
        }
        let tokens = uint(row, "output_tokens").unwrap_or(0);
        if tokens != stores * iterations {
            out.push(err(
                "EXEC003",
                Entity::Event(i),
                format!(
                    "`{vector}` streams {tokens} output tokens but stores x iterations = {}",
                    stores * iterations
                ),
            ));
        }
    }
    if let Some(total) = uint(doc, "checked") {
        if total != checked_sum {
            out.push(err(
                "EXEC003",
                Entity::Global,
                format!("`checked` {total} does not equal the vector sum {checked_sum}"),
            ));
        }
    }
    let status = doc.get("status").and_then(Json::as_str).unwrap_or("?");
    if status == "pass" && divergences > 0 {
        out.push(err(
            "EXEC003",
            Entity::Global,
            format!("status `pass` but {divergences} vector(s) record a divergence"),
        ));
    }
    if status == "fail" && divergences == 0 {
        out.push(err(
            "EXEC003",
            Entity::Global,
            "status `fail` but no vector records a divergence",
        ));
    }
}

/// Validates a `panorama-exec-v1` document, appending findings to `out`.
pub fn lint_exec_json(text: &str, out: &mut Diagnostics) {
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            out.push(err("EXEC001", Entity::Global, format!("invalid JSON: {e}")));
            return;
        }
    };
    if check_shape(&doc, out) {
        check_divergences(&doc, out);
        check_conservation(&doc, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(status: &str, divergence: &str) -> String {
        format!(
            "{{\"schema\": \"{EXEC_SCHEMA}\", \"kernel\": \"fir\", \"arch\": \"4x4\", \
             \"mapper\": \"spr\", \"ii\": 2, \"iterations\": 4, \"seed\": 42, \"ops\": 3, \
             \"stores\": 1, \"status\": \"{status}\", \"checked\": {checked}, \"vectors\": [\
               {{\"vector\": \"seeded\", \"checked\": 12, \"output_tokens\": 4, \
                 \"output_digest\": \"0x1\", \"divergence\": {divergence}}},\
               {{\"vector\": \"zeros\", \"checked\": 12, \"output_tokens\": 4, \
                 \"output_digest\": \"0x2\", \"divergence\": null}},\
               {{\"vector\": \"ones\", \"checked\": 12, \"output_tokens\": 4, \
                 \"output_digest\": \"0x3\", \"divergence\": null}},\
               {{\"vector\": \"i32-min\", \"checked\": 12, \"output_tokens\": 4, \
                 \"output_digest\": \"0x4\", \"divergence\": null}},\
               {{\"vector\": \"i32-max\", \"checked\": 12, \"output_tokens\": 4, \
                 \"output_digest\": \"0x5\", \"divergence\": null}}]}}",
            checked = 60
        )
    }

    fn run(text: &str) -> Vec<String> {
        let mut diags = Diagnostics::new();
        lint_exec_json(text, &mut diags);
        diags.iter().map(|d| d.code.to_string()).collect()
    }

    #[test]
    fn clean_report_passes() {
        assert!(run(&report("pass", "null")).is_empty());
    }

    #[test]
    fn malformed_documents_hit_exec001() {
        assert_eq!(run("{nope"), ["EXEC001"]);
        assert_eq!(run("{\"schema\": \"nope\"}"), ["EXEC001"]);
        let missing = report("pass", "null").replace("\"ii\": 2, ", "");
        assert!(run(&missing).contains(&"EXEC001".to_string()));
        let bad_row = report("pass", "null").replace("\"output_digest\": \"0x3\", ", "");
        assert!(run(&bad_row).contains(&"EXEC001".to_string()));
    }

    #[test]
    fn divergences_hit_exec002() {
        let codes = run(&report(
            "fail",
            "\"op #2 iteration 1: machine 0x0 != reference 0x1\"",
        ));
        assert!(codes.contains(&"EXEC002".to_string()), "{codes:?}");
        assert!(!codes.contains(&"EXEC003".to_string()), "{codes:?}");
    }

    #[test]
    fn inconsistent_reports_hit_exec003() {
        // status pass but a divergence recorded
        let codes = run(&report("pass", "\"boom\""));
        assert!(codes.contains(&"EXEC003".to_string()), "{codes:?}");
        // status fail but nothing diverged
        let codes = run(&report("fail", "null"));
        assert_eq!(codes, ["EXEC003"]);
        // clean vector with short coverage
        let short = report("pass", "null").replace(
            "{\"vector\": \"zeros\", \"checked\": 12,",
            "{\"vector\": \"zeros\", \"checked\": 7,",
        );
        assert!(run(&short).contains(&"EXEC003".to_string()));
        // checked total out of step with the vector sum
        let bad_total = report("pass", "null").replace("\"checked\": 60,", "\"checked\": 59,");
        assert!(run(&bad_total).contains(&"EXEC003".to_string()));
        // a missing vector family
        let dropped = report("pass", "null").replace(
            "{\"vector\": \"ones\", \"checked\": 12, \"output_tokens\": 4, \
                 \"output_digest\": \"0x3\", \"divergence\": null},",
            "",
        );
        assert!(run(&dropped).contains(&"EXEC003".to_string()));
        // wrong output-token count
        let bad_tokens = report("pass", "null").replace(
            "\"checked\": 12, \"output_tokens\": 4, \
                 \"output_digest\": \"0x5\"",
            "\"checked\": 12, \"output_tokens\": 3, \
                 \"output_digest\": \"0x5\"",
        );
        assert!(run(&bad_tokens).contains(&"EXEC003".to_string()));
    }
}

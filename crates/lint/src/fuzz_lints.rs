//! Schema and invariant validation for `panorama-fuzz-v2` JSON.
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `FUZZ001` | error | invalid JSON, wrong `schema`, or missing/mistyped field |
//! | `FUZZ002` | error | tally conservation broken, or two reports of the same budget differ (determinism violation) |
//! | `FUZZ003` | error/warn | corpus files skipped or failing replay (error); report carries no corpus section at all (warn) |
//!
//! The fuzz harness is deterministic by construction: a report is a pure
//! function of `(seed, cases, max_nodes)`. `FUZZ002` therefore demands —
//! when the input is a JSON array of reports — that any two uncancelled
//! reports with an identical budget be *structurally identical*, not
//! merely consistent. It also checks the per-report conservation laws:
//! every oracle's `checks == pass + fail + skip`, the failure list is as
//! long as the fail tallies plus crashes, and `completed <= cases`.

use crate::report_fields::{err, uint};
use crate::{Diagnostic, Diagnostics, Entity, Severity};
use panorama_trace::json::{self, Json};

/// The schema this linter validates (mirrored by `panorama-fuzz`).
pub const FUZZ_SCHEMA: &str = "panorama-fuzz-v2";

/// The five oracles every report must tally, in report order.
const ORACLES: &[&str] = &["verify", "simulate", "exec", "exact_ii", "rewrite"];

/// `FUZZ001`: schema and field shape. Returns `false` when the report is
/// too malformed for the invariant checks to be meaningful.
fn check_shape(doc: &Json, at: Entity, out: &mut Diagnostics) -> bool {
    match doc.get("schema").and_then(Json::as_str) {
        Some(FUZZ_SCHEMA) => {}
        Some(other) => {
            out.push(err(
                "FUZZ001",
                at,
                format!("unknown schema `{other}` (expected `{FUZZ_SCHEMA}`)"),
            ));
            return false;
        }
        None => {
            out.push(err(
                "FUZZ001",
                at,
                format!("missing `schema` field (expected `{FUZZ_SCHEMA}`)"),
            ));
            return false;
        }
    }
    let mut ok = true;
    for field in ["seed", "cases", "max_nodes", "completed", "crashes"] {
        if uint(doc, field).is_none() {
            out.push(err(
                "FUZZ001",
                at.clone(),
                format!("`{field}` missing or not a non-negative integer"),
            ));
            ok = false;
        }
    }
    if doc.get("cancelled").and_then(Json::as_bool).is_none() {
        out.push(err(
            "FUZZ001",
            at.clone(),
            "`cancelled` missing or not a boolean",
        ));
        ok = false;
    }
    match doc.get("oracles").and_then(Json::as_arr) {
        Some(rows) => {
            let mut names: Vec<&str> = Vec::new();
            for row in rows {
                match row.get("oracle").and_then(Json::as_str) {
                    Some(name) => names.push(name),
                    None => {
                        out.push(err(
                            "FUZZ001",
                            at.clone(),
                            "oracle row missing `oracle` name",
                        ));
                        ok = false;
                    }
                }
                for field in ["checks", "pass", "fail", "skip"] {
                    if uint(row, field).is_none() {
                        out.push(err(
                            "FUZZ001",
                            at.clone(),
                            format!("oracle row `{field}` missing or not a non-negative integer"),
                        ));
                        ok = false;
                    }
                }
            }
            for required in ORACLES {
                if !names.contains(required) {
                    out.push(err(
                        "FUZZ001",
                        at.clone(),
                        format!("no tally row for oracle `{required}`"),
                    ));
                    ok = false;
                }
            }
        }
        None => {
            out.push(err(
                "FUZZ001",
                at.clone(),
                "`oracles` missing or not an array",
            ));
            ok = false;
        }
    }
    if doc.get("backends").and_then(Json::as_arr).is_none() {
        out.push(err(
            "FUZZ001",
            at.clone(),
            "`backends` missing or not an array",
        ));
        ok = false;
    }
    if doc.get("failures").and_then(Json::as_arr).is_none() {
        out.push(err("FUZZ001", at, "`failures` missing or not an array"));
        ok = false;
    }
    ok
}

/// `FUZZ002` (single report): the tally conservation laws.
fn check_conservation(doc: &Json, at: Entity, out: &mut Diagnostics) {
    let mut total_fails = uint(doc, "crashes").unwrap_or(0);
    if let Some(rows) = doc.get("oracles").and_then(Json::as_arr) {
        for row in rows {
            let name = row.get("oracle").and_then(Json::as_str).unwrap_or("?");
            let (checks, pass, fail, skip) = (
                uint(row, "checks").unwrap_or(0),
                uint(row, "pass").unwrap_or(0),
                uint(row, "fail").unwrap_or(0),
                uint(row, "skip").unwrap_or(0),
            );
            if checks != pass + fail + skip {
                out.push(err(
                    "FUZZ002",
                    at.clone(),
                    format!(
                        "oracle `{name}`: checks {checks} != pass {pass} + fail {fail} + skip {skip}"
                    ),
                ));
            }
            total_fails += fail;
        }
    }
    if let Some(failures) = doc.get("failures").and_then(Json::as_arr) {
        if failures.len() as u64 != total_fails {
            out.push(err(
                "FUZZ002",
                at.clone(),
                format!(
                    "{} failure record(s) but the tallies account for {total_fails} (oracle fails + crashes)",
                    failures.len()
                ),
            ));
        }
    }
    let (completed, cases) = (
        uint(doc, "completed").unwrap_or(0),
        uint(doc, "cases").unwrap_or(0),
    );
    if completed > cases {
        out.push(err(
            "FUZZ002",
            at.clone(),
            format!("completed {completed} exceeds the case budget {cases}"),
        ));
    }
    if completed < cases && doc.get("cancelled").and_then(Json::as_bool) == Some(false) {
        out.push(err(
            "FUZZ002",
            at,
            format!("only {completed}/{cases} cases ran but the report is not marked cancelled"),
        ));
    }
}

/// `FUZZ003`: corpus replay coverage.
fn check_corpus(doc: &Json, at: Entity, out: &mut Diagnostics) {
    let Some(corpus) = doc.get("corpus") else {
        out.push(Diagnostic::new(
            "FUZZ003",
            Severity::Warn,
            at,
            "report has no `corpus` section: the regression corpus was not replayed",
        ));
        return;
    };
    let (total, replayed, failed) = (
        uint(corpus, "total").unwrap_or(0),
        uint(corpus, "replayed").unwrap_or(0),
        uint(corpus, "failed").unwrap_or(0),
    );
    if replayed != total {
        out.push(err(
            "FUZZ003",
            at.clone(),
            format!("only {replayed}/{total} corpus file(s) replayed — the rest did not parse"),
        ));
    }
    if failed > 0 {
        let detail = corpus
            .get("failures")
            .and_then(Json::as_arr)
            .map(|rows| {
                rows.iter()
                    .filter_map(Json::as_str)
                    .collect::<Vec<_>>()
                    .join("; ")
            })
            .unwrap_or_default();
        out.push(err(
            "FUZZ003",
            at,
            format!("{failed} corpus case(s) failed replay: {detail}"),
        ));
    }
}

/// `FUZZ002` (report pairs): identical budgets must yield identical
/// reports — the harness's core determinism claim.
fn check_determinism(prev: &Json, cur: &Json, at: Entity, out: &mut Diagnostics) {
    let budget = |d: &Json| (uint(d, "seed"), uint(d, "cases"), uint(d, "max_nodes"));
    if budget(prev) != budget(cur) {
        return;
    }
    let cancelled = |d: &Json| d.get("cancelled").and_then(Json::as_bool).unwrap_or(false);
    if cancelled(prev) || cancelled(cur) {
        return; // a wall-clock cap legitimately truncates a run
    }
    // The corpus section depends on the directory contents, not the
    // budget; compare everything else.
    let strip = |d: &Json| {
        let mut m = d.as_obj().map(<[_]>::to_vec).unwrap_or_default();
        m.retain(|(k, _)| k != "corpus");
        m
    };
    if strip(prev) != strip(cur) {
        out.push(err(
            "FUZZ002",
            at,
            format!(
                "two reports with seed {} and identical budgets differ: the harness is not deterministic",
                uint(cur, "seed").unwrap_or(0)
            ),
        ));
    }
}

/// Validates a `panorama-fuzz-v2` document — either one report object or
/// a JSON array of reports (e.g. two runs of the same seed, for the
/// determinism check) — appending findings to `out`.
pub fn lint_fuzz_json(text: &str, out: &mut Diagnostics) {
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            out.push(err("FUZZ001", Entity::Global, format!("invalid JSON: {e}")));
            return;
        }
    };
    let reports: Vec<&Json> = match doc.as_arr() {
        Some(arr) => arr.iter().collect(),
        None => vec![&doc],
    };
    if reports.is_empty() {
        out.push(err("FUZZ001", Entity::Global, "empty report array"));
        return;
    }
    let single = reports.len() == 1;
    let mut shaped: Vec<Option<&Json>> = Vec::with_capacity(reports.len());
    for (i, report) in reports.iter().enumerate() {
        let at = if single {
            Entity::Global
        } else {
            Entity::Event(i)
        };
        if check_shape(report, at.clone(), out) {
            check_conservation(report, at.clone(), out);
            check_corpus(report, at, out);
            shaped.push(Some(report));
        } else {
            shaped.push(None);
        }
    }
    for i in 1..shaped.len() {
        if let (Some(prev), Some(cur)) = (shaped[i - 1], shaped[i]) {
            check_determinism(prev, cur, Entity::Event(i), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(seed: u64, completed: u64, fails: u64, corpus: &str) -> String {
        let failures: Vec<String> = (0..fails)
            .map(|i| {
                format!(
                    "{{\"case\": {i}, \"backend\": \"spr\", \"oracle\": \"verify\", \
                     \"message\": \"m\", \"arch\": \"4x4\", \"arch_text\": \"cgra 4 4\", \
                     \"original_ops\": 9, \"minimized_ops\": 2, \"shrink_steps\": 3, \
                     \"repro\": \"dfg x\"}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"{FUZZ_SCHEMA}\", \"seed\": {seed}, \"cases\": {completed}, \
             \"max_nodes\": 48, \"completed\": {completed}, \"cancelled\": false, \"crashes\": 0, \
             \"oracles\": [\
               {{\"oracle\": \"verify\", \"checks\": {c2}, \"pass\": {vp}, \"fail\": {fails}, \"skip\": 0}},\
               {{\"oracle\": \"simulate\", \"checks\": {c2}, \"pass\": {c2}, \"fail\": 0, \"skip\": 0}},\
               {{\"oracle\": \"exec\", \"checks\": {c2}, \"pass\": {c2}, \"fail\": 0, \"skip\": 0}},\
               {{\"oracle\": \"exact_ii\", \"checks\": {completed}, \"pass\": 0, \"fail\": 0, \"skip\": {completed}}},\
               {{\"oracle\": \"rewrite\", \"checks\": {completed}, \"pass\": {completed}, \"fail\": 0, \"skip\": 0}}],\
             \"backends\": [\
               {{\"backend\": \"spr\", \"mapped\": {completed}, \"unmapped\": 0}},\
               {{\"backend\": \"ultrafast\", \"mapped\": {completed}, \"unmapped\": 0}}],\
             \"failures\": [{failures}]{corpus}}}",
            c2 = completed * 2,
            vp = completed * 2 - fails,
            failures = failures.join(",")
        )
    }

    const CLEAN_CORPUS: &str =
        ", \"corpus\": {\"total\": 3, \"replayed\": 3, \"failed\": 0, \"failures\": []}";

    fn run(text: &str) -> Vec<String> {
        let mut diags = Diagnostics::new();
        lint_fuzz_json(text, &mut diags);
        diags.iter().map(|d| d.code.to_string()).collect()
    }

    #[test]
    fn clean_report_passes() {
        assert!(run(&report(42, 5, 0, CLEAN_CORPUS)).is_empty());
        // A clean failure-bearing report is still *valid*.
        assert!(run(&report(42, 5, 2, CLEAN_CORPUS)).is_empty());
    }

    #[test]
    fn bad_json_schema_and_fields_hit_fuzz001() {
        assert_eq!(run("{nope"), ["FUZZ001"]);
        assert_eq!(run("{\"schema\": \"nope\"}"), ["FUZZ001"]);
        let missing = report(1, 2, 0, CLEAN_CORPUS).replace("\"seed\": 1, ", "");
        assert!(run(&missing).contains(&"FUZZ001".to_string()));
        let no_row = report(1, 2, 0, CLEAN_CORPUS).replace(
            "{\"oracle\": \"exact_ii\", \"checks\": 2, \"pass\": 0, \"fail\": 0, \"skip\": 2}",
            "",
        );
        assert!(run(&no_row).contains(&"FUZZ001".to_string()));
    }

    #[test]
    fn broken_conservation_hits_fuzz002() {
        // checks != pass+fail+skip (the exact_ii row is the only one with skip 5)
        let bad = report(1, 5, 0, CLEAN_CORPUS).replace("\"skip\": 5}", "\"skip\": 4}");
        assert_eq!(run(&bad), ["FUZZ002"]);
        // failure records out of step with the tallies
        let bad = report(1, 5, 2, CLEAN_CORPUS).replace("\"crashes\": 0", "\"crashes\": 1");
        assert_eq!(run(&bad), ["FUZZ002"]);
        // short run not marked cancelled
        let bad = report(1, 5, 0, CLEAN_CORPUS).replace("\"completed\": 5", "\"completed\": 3");
        assert_eq!(run(&bad), ["FUZZ002"]);
    }

    #[test]
    fn determinism_violation_across_reports_hits_fuzz002() {
        let a = report(42, 5, 0, CLEAN_CORPUS);
        let b = report(42, 5, 2, CLEAN_CORPUS);
        let codes = run(&format!("[{a},{b}]"));
        assert_eq!(codes, ["FUZZ002"]);
        // Identical reports are clean, even as an array.
        assert!(run(&format!("[{a},{a}]")).is_empty());
        // Different seeds are not comparable.
        let c = report(7, 5, 0, CLEAN_CORPUS);
        assert!(run(&format!("[{a},{c}]")).is_empty());
    }

    #[test]
    fn corpus_gaps_hit_fuzz003() {
        // No corpus section at all: a warning.
        let mut diags = Diagnostics::new();
        lint_fuzz_json(&report(1, 2, 0, ""), &mut diags);
        let warns: Vec<_> = diags.iter().filter(|d| d.code == "FUZZ003").collect();
        assert_eq!(warns.len(), 1);
        assert_eq!(warns[0].severity, Severity::Warn);
        // Unparsed or failing corpus files: errors.
        let bad = ", \"corpus\": {\"total\": 3, \"replayed\": 2, \"failed\": 1, \
                   \"failures\": [\"x.dfg: bad DFG text\"]}";
        let codes = run(&report(1, 2, 0, bad));
        assert_eq!(codes, ["FUZZ003", "FUZZ003"]);
    }
}

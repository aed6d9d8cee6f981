//! The `panorama-exec-v1` report: a deterministic JSON document
//! describing one data-level execution of a kernel's configware.
//!
//! Reports are timestamp-free and byte-identical across runs with the
//! same inputs, so CI can gate determinism with a plain `cmp` of two
//! runs. `panorama lint --report` validates them via the EXEC lint
//! codes.

use super::ExecOutcome;
use panorama_trace::json::escape;
use std::fmt::Write as _;

/// Schema tag carried by every exec report.
pub const EXEC_SCHEMA: &str = "panorama-exec-v1";

/// Renders `outcome` as a `panorama-exec-v1` JSON document.
///
/// `kernel`, `arch` and `mapper` identify the compiled artifact; they
/// appear verbatim (escaped) in the report.
pub fn exec_report_json(kernel: &str, arch: &str, mapper: &str, outcome: &ExecOutcome) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{EXEC_SCHEMA}\",");
    let _ = writeln!(out, "  \"kernel\": \"{}\",", escape(kernel));
    let _ = writeln!(out, "  \"arch\": \"{}\",", escape(arch));
    let _ = writeln!(out, "  \"mapper\": \"{}\",", escape(mapper));
    let _ = writeln!(out, "  \"ii\": {},", outcome.ii);
    let _ = writeln!(out, "  \"iterations\": {},", outcome.iterations);
    let _ = writeln!(out, "  \"seed\": {},", outcome.seed);
    let _ = writeln!(out, "  \"ops\": {},", outcome.ops);
    let _ = writeln!(out, "  \"stores\": {},", outcome.stores);
    let status = if outcome.passed() { "pass" } else { "fail" };
    let _ = writeln!(out, "  \"status\": \"{status}\",");
    let _ = writeln!(out, "  \"checked\": {},", outcome.checked_total());
    out.push_str("  \"vectors\": [\n");
    let last = outcome.vectors.len().saturating_sub(1);
    for (i, v) in outcome.vectors.iter().enumerate() {
        let divergence = v
            .divergence
            .as_ref()
            .map_or_else(|| "null".to_string(), |msg| format!("\"{}\"", escape(msg)));
        let _ = write!(
            out,
            "    {{\"vector\": \"{}\", \"checked\": {}, \"output_tokens\": {}, \
             \"output_digest\": \"{:#018x}\", \"divergence\": {}}}",
            v.vector, v.checked, v.output_tokens, v.output_digest, divergence
        );
        out.push_str(if i == last { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecOptions};
    use panorama_arch::{Cgra, CgraConfig};
    use panorama_dfg::{kernels, KernelId, KernelScale};
    use panorama_mapper::{LowerLevelMapper, SprMapper};

    #[test]
    fn report_is_deterministic_and_tagged() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let mapping = SprMapper::default().map(&dfg, &cgra, None).unwrap();
        let opts = ExecOptions::default();
        let a = execute(&dfg, &cgra, &mapping, &opts).unwrap();
        let b = execute(&dfg, &cgra, &mapping, &opts).unwrap();
        let ja = exec_report_json("fir", "4x4", "spr", &a);
        let jb = exec_report_json("fir", "4x4", "spr", &b);
        assert_eq!(ja, jb, "same seed must render byte-identically");
        assert!(ja.contains("\"schema\": \"panorama-exec-v1\""));
        assert!(ja.contains("\"status\": \"pass\""));
        assert!(ja.contains("\"vector\": \"seeded\""));
        assert!(ja.contains("\"vector\": \"i32-max\""));
    }
}

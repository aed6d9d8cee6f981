//! Helpers shared by the report linters (exec, fuzz, sat, serve, trace).

use crate::{Diagnostic, Entity, Severity};
use panorama_trace::json::Json;

/// An error-severity finding, the severity of every schema violation.
pub(crate) fn err(code: &'static str, entity: Entity, message: impl Into<String>) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, entity, message)
}

/// `obj.field` as a non-negative integer; `None` when the field is
/// missing, not a number, negative or fractional.
pub(crate) fn uint(obj: &Json, field: &str) -> Option<u64> {
    let v = obj.get(field)?.as_f64()?;
    if v < 0.0 || v.fract() != 0.0 {
        return None;
    }
    Some(v as u64)
}

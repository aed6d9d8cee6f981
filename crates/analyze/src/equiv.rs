//! Equivalence checking between an original DFG and its optimized
//! rewrite, using the reference interpreter as the oracle.
//!
//! The rewriter returns an explicit old-op → new-op mapping, so the
//! protocol is exact rather than heuristic:
//!
//! 1. every *observable* op (a `Store`, or any sink — an op with no
//!    consumers) must survive the rewrite (map to some optimized op);
//! 2. every surviving op must compute byte-identical values to its image
//!    in every interpreted iteration.
//!
//! This is strictly stronger than comparing observable outputs alone: a
//! CSE victim must agree with its representative, a folded op with its
//! constant. Non-observable ops may be dropped (dead-code elimination)
//! but never altered.

use panorama_dfg::{Dfg, OpId, OpKind};
use panorama_sim::interpret;
use panorama_sim::semantics::Hashed;
use std::error::Error;
use std::fmt;

/// Equivalence violation found by [`check_mapped`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivError {
    /// The map does not have one entry per original op.
    MapArity {
        /// Ops in the original graph.
        ops: usize,
        /// Entries in the supplied map.
        entries: usize,
    },
    /// An observable op (store or sink) was rewritten away.
    ObservableDropped {
        /// The dropped op's id in the original graph.
        op: OpId,
        /// The dropped op's name.
        name: String,
    },
    /// A surviving op disagrees with its image in some iteration.
    ValueMismatch {
        /// The op's id in the original graph.
        original: OpId,
        /// Its image in the optimized graph.
        optimized: OpId,
        /// First iteration where the values diverge.
        iteration: usize,
        /// Value the original computes.
        expected: u64,
        /// Value the optimized image computes.
        got: u64,
    },
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivError::MapArity { ops, entries } => {
                write!(f, "{entries} map entr(ies) for {ops} op(s)")
            }
            EquivError::ObservableDropped { op, name } => {
                write!(f, "observable op {op} ({name}) was rewritten away")
            }
            EquivError::ValueMismatch {
                original,
                optimized,
                iteration,
                expected,
                got,
            } => write!(
                f,
                "op {original} -> {optimized} diverges in iteration \
                 {iteration}: expected {expected:#x}, got {got:#x}"
            ),
        }
    }
}

impl Error for EquivError {}

/// Whether `op` is observable: a `Store`, or a sink (no outgoing edges).
/// Observable ops are the DFG's outputs; a semantics-preserving rewrite
/// must keep each one and its per-iteration values.
pub fn is_observable(dfg: &Dfg, op: OpId) -> bool {
    dfg.op(op).kind == OpKind::Store || dfg.graph().outgoing(op).next().is_none()
}

/// Checks that `optimized` is equivalent to `original` under `map`
/// (old-op → new-op, `None` for removed ops) by interpreting both for
/// `iterations` iterations.
///
/// # Errors
///
/// Returns the first violation in ascending original-op order; see
/// [`EquivError`].
///
/// # Panics
///
/// Panics when a map entry points outside `optimized` (the rewriter
/// never produces such a map).
pub fn check_mapped(
    original: &Dfg,
    optimized: &Dfg,
    map: &[Option<OpId>],
    iterations: usize,
) -> Result<(), EquivError> {
    if map.len() != original.num_ops() {
        return Err(EquivError::MapArity {
            ops: original.num_ops(),
            entries: map.len(),
        });
    }
    let before = interpret(original, &Hashed, iterations);
    let after = interpret(optimized, &Hashed, iterations);
    for op in original.op_ids() {
        match map[op.index()] {
            Some(image) => {
                for iter in 0..iterations {
                    let expected = before.value(op, iter);
                    let got = after.value(image, iter);
                    if expected != got {
                        return Err(EquivError::ValueMismatch {
                            original: op,
                            optimized: image,
                            iteration: iter,
                            expected,
                            got,
                        });
                    }
                }
            }
            None => {
                if is_observable(original, op) {
                    return Err(EquivError::ObservableDropped {
                        op,
                        name: original.op(op).name.clone(),
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_dfg::rewrite::{apply_with_map, OpRewrite};
    use panorama_dfg::DfgBuilder;

    fn dupes() -> Dfg {
        let mut b = DfgBuilder::new("t");
        let l = b.op(OpKind::Load, "x");
        let a1 = b.op(OpKind::Add, "a1");
        let a2 = b.op(OpKind::Add, "a2");
        let s = b.op(OpKind::Store, "s");
        b.data(l, a1);
        b.data(l, a2);
        b.data(a1, s);
        b.data(a2, s);
        b.build().unwrap()
    }

    #[test]
    fn merging_equivalent_ops_passes() {
        let dfg = dupes();
        let a1 = OpId::from_index(1);
        let actions = vec![
            OpRewrite::Keep,
            OpRewrite::Keep,
            OpRewrite::ReplaceBy(a1),
            OpRewrite::Keep,
        ];
        let (out, map) = apply_with_map(&dfg, &actions).unwrap();
        check_mapped(&dfg, &out, &map, 4).unwrap();
    }

    #[test]
    fn merging_inequivalent_ops_is_caught() {
        // a2 is a Mul, not an Add: replacing it by a1 changes values
        let mut b = DfgBuilder::new("t");
        let l = b.op(OpKind::Load, "x");
        let a1 = b.op(OpKind::Add, "a1");
        let a2 = b.op(OpKind::Mul, "a2");
        let s = b.op(OpKind::Store, "s");
        b.data(l, a1);
        b.data(l, a2);
        b.data(a1, s);
        b.data(a2, s);
        let dfg = b.build().unwrap();
        let actions = vec![
            OpRewrite::Keep,
            OpRewrite::Keep,
            OpRewrite::ReplaceBy(a1),
            OpRewrite::Keep,
        ];
        let (out, map) = apply_with_map(&dfg, &actions).unwrap();
        // the store's inputs changed (a2's multiset slot now holds a1's
        // value), so the store itself diverges
        assert!(matches!(
            check_mapped(&dfg, &out, &map, 3),
            Err(EquivError::ValueMismatch { .. })
        ));
    }

    #[test]
    fn dropping_an_observable_is_caught() {
        let dfg = dupes();
        let map = vec![
            Some(OpId::from_index(0)),
            Some(OpId::from_index(1)),
            Some(OpId::from_index(2)),
            None,
        ];
        assert!(matches!(
            check_mapped(&dfg, &dfg, &map, 2),
            Err(EquivError::ObservableDropped { .. })
        ));
        assert!(matches!(
            check_mapped(&dfg, &dfg, &[], 2),
            Err(EquivError::MapArity { .. })
        ));
    }

    #[test]
    fn observability_is_store_or_sink() {
        let dfg = dupes();
        assert!(!is_observable(&dfg, OpId::from_index(0)));
        assert!(is_observable(&dfg, OpId::from_index(3)));
        let mut b = DfgBuilder::new("s");
        let l = b.op(OpKind::Load, "x");
        let sink = b.op(OpKind::Add, "a");
        b.data(l, sink);
        let g = b.build().unwrap();
        assert!(is_observable(&g, sink), "non-store sinks are observable");
    }
}

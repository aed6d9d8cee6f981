//! Dynamic validation of CGRA mappings: one DFG reference interpreter,
//! generic over its value [`semantics`], and two machines checked against
//! it.
//!
//! [`Mapping::verify`](panorama_mapper::Mapping::verify) checks a mapping
//! *statically* — placement legality, route connectivity/timing, per-slot
//! capacities. This crate adds the dynamic checks:
//!
//! - [`simulate`] replays the mapping's *routes*: it runs several loop
//!   iterations through the pipelined schedule, tracks which value
//!   occupies every physical resource at every absolute cycle, and fails
//!   on any collision of **different** values (the classic modulo-wrap
//!   hazard: a value living longer than II cycles colliding with the next
//!   iteration's instance in the same register), naming the resource and
//!   the cycle. Loop-invariant constants share resources legally.
//! - [`exec::execute`] replays the emitted *configware* on a
//!   data-carrying model of the fabric under concrete input vectors and
//!   compares every token against the interpreter.
//!
//! # Examples
//!
//! ```
//! use panorama_arch::{Cgra, CgraConfig};
//! use panorama_dfg::{kernels, KernelId, KernelScale};
//! use panorama_mapper::{LowerLevelMapper, SprMapper};
//! use panorama_sim::simulate;
//!
//! let cgra = Cgra::new(CgraConfig::small_4x4())?;
//! let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
//! let mapping = SprMapper::default().map(&dfg, &cgra, None)?;
//! let report = simulate(&dfg, &cgra, &mapping, 4)?;
//! assert_eq!(report.iterations, 4);
//! assert!(report.fu_utilization > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
mod interp;
mod machine;
pub mod semantics;

pub use interp::{interpret, Interpretation};
pub use machine::{simulate, SimError, SimReport};

use panorama_dfg::Dfg;
use panorama_mapper::{Mapping, Route};
use std::fmt;

/// A mapping whose op or route table does not line up with the DFG it is
/// replayed against. Indexing into it would read garbage (or panic), so
/// both machines reject it up front; the differential fuzzer exercises
/// exactly this class of truncated or foreign mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeMismatch {
    /// Ops in the mapping.
    pub ops: usize,
    /// Ops in the DFG.
    pub expected_ops: usize,
    /// Routes in the mapping.
    pub deps: usize,
    /// Dependencies in the DFG.
    pub expected_deps: usize,
}

impl ShapeMismatch {
    /// Checks that `mapping` places every op of `dfg` and carries one of
    /// `routes` per dependence.
    fn check(dfg: &Dfg, mapping: &Mapping, routes: &[Route]) -> Result<(), ShapeMismatch> {
        let ops = mapping.assignments().count();
        if ops == dfg.num_ops() && routes.len() == dfg.num_deps() {
            return Ok(());
        }
        Err(ShapeMismatch {
            ops,
            expected_ops: dfg.num_ops(),
            deps: routes.len(),
            expected_deps: dfg.num_deps(),
        })
    }
}

impl fmt::Display for ShapeMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mapping shape mismatch: {} ops / {} routes vs DFG with {} ops / {} deps",
            self.ops, self.deps, self.expected_ops, self.expected_deps
        )
    }
}

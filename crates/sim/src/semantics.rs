//! The value semantics the reference interpreter and both machines run
//! under.
//!
//! A [`Semantics`] decides two things: what a `Load` observes in an
//! iteration, and what a computational op makes of its operands. Constants
//! and pre-loop recurrence values ([`const_value`], [`initial_value`]) are
//! shared by every semantics, and [`op_value`] dispatches between the
//! three classes. Two implementations exist:
//!
//! - [`Hashed`] — a structure-free, commutative mix. Actual arithmetic is
//!   irrelevant to *routing* correctness; what matters is that every
//!   value is a deterministic, input-sensitive function of its operands,
//!   so any mis-delivered operand changes the observed result. A computed
//!   value depends only on the op kind and the operand values, a load only
//!   on its name and the iteration, and a constant only on its name (or
//!   explicit immediate). Node ids never enter the mix, which is what lets
//!   the `panorama-analyze` rewriter renumber, merge and fold operations
//!   while the interpreter still certifies the result equivalent. Route
//!   replay ([`crate::simulate`]) uses it too.
//! - [`InputVectors`] — concrete wrapping two's-complement arithmetic on
//!   one of the [`VectorKind`] input families, used by configware replay
//!   ([`crate::exec`]): a configware encoder that selects the wrong
//!   operand, drops a token, or latches a register one cycle late produces
//!   a concretely wrong number.
//!
//! Operands arrive in the op's incoming-edge order, the same order
//! `Configware` records its [`panorama_mapper::OperandSel`]s in. `Hashed`
//! ignores that order (CGRA operand ports are unordered in the routing
//! model); `InputVectors` does not.
//!
//! ## Edge-case policy of the concrete arithmetic
//!
//! - All arithmetic wraps (two's complement); overflow is never a fault.
//! - Shift amounts are masked to the word width (`amount & 63`), the
//!   hardware wrap rule, so "shift by ≥ width" is well defined.
//! - The DFG op set has **no division op** (single-cycle ALU, per the
//!   paper), so the canonical division edge cases (`x / 0`,
//!   `INT_MIN / -1`) have no carrier; their overflow analogs (wrapping
//!   negation of `i64::MIN`, full-width shifts) are covered instead.

use panorama_dfg::{Op, OpKind};

/// What loads observe and what computational ops compute.
pub trait Semantics {
    /// The word the load named `name` observes in `iteration` (fresh data
    /// arrives every loop iteration).
    fn load(&self, name: &str, iteration: u64) -> u64;

    /// The value a computational op of `kind` produces from its operands,
    /// in dependence order. `Load` and `Const` never reach here (they are
    /// dispatched in [`op_value`]).
    fn compute(&self, kind: OpKind, operands: &[u64]) -> u64;
}

/// SplitMix64 finaliser: a cheap, high-quality 64-bit mixer.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The loop-invariant value a `Const` operation materialises: its
/// explicit immediate when present, otherwise a hash of its name.
pub fn const_value(op: &Op) -> u64 {
    op.imm.unwrap_or_else(|| mix(hash_str(&op.name)))
}

/// The value an operation named `name` carried from before the loop
/// started (back edges reaching "negative" iterations — the preloaded
/// recurrence register).
pub fn initial_value(name: &str) -> u64 {
    mix(hash_str(name) ^ 0xDEAD_BEEF)
}

/// The value `op` produces in `iteration` under `sem`, given its operand
/// values in dependence order.
pub fn op_value(sem: &impl Semantics, op: &Op, iteration: u64, operands: &[u64]) -> u64 {
    match op.kind {
        OpKind::Const => const_value(op),
        OpKind::Load => sem.load(&op.name, iteration),
        kind => sem.compute(kind, operands),
    }
}

/// The structure-free hash semantics: collision-resistant, commutative
/// and multiplicity-sensitive.
#[derive(Debug, Clone, Copy)]
pub struct Hashed;

impl Semantics for Hashed {
    fn load(&self, name: &str, iteration: u64) -> u64 {
        mix(hash_str(name) ^ mix(iteration.wrapping_add(1)))
    }

    fn compute(&self, kind: OpKind, operands: &[u64]) -> u64 {
        let tag = mix((kind.mnemonic().len() as u64) ^ hash_str(kind.mnemonic()));
        let folded = operands
            .iter()
            .fold(0u64, |acc, &v| acc.wrapping_add(mix(v)));
        mix(tag ^ folded)
    }
}

/// The deterministic input-vector families every kernel is executed
/// under: one seeded pseudo-random stream plus the boundary vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorKind {
    /// Per-(load, iteration) pseudo-random words derived from the seed.
    Seeded,
    /// Every load observes 0 in every iteration.
    Zeros,
    /// Every load observes 1 in every iteration.
    Ones,
    /// Every load observes `i32::MIN` (sign-extended) — the negative
    /// overflow boundary.
    I32Min,
    /// Every load observes `i32::MAX` — the positive overflow boundary.
    I32Max,
}

impl VectorKind {
    /// All vector families, in the order execution runs them.
    pub const ALL: [VectorKind; 5] = [
        VectorKind::Seeded,
        VectorKind::Zeros,
        VectorKind::Ones,
        VectorKind::I32Min,
        VectorKind::I32Max,
    ];

    /// Stable name used in reports and error messages.
    pub fn name(self) -> &'static str {
        match self {
            VectorKind::Seeded => "seeded",
            VectorKind::Zeros => "zeros",
            VectorKind::Ones => "ones",
            VectorKind::I32Min => "i32-min",
            VectorKind::I32Max => "i32-max",
        }
    }
}

/// The concrete semantics: what every `Load` observes in every iteration
/// under one input-vector family, and real wrapping ALU arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct InputVectors {
    kind: VectorKind,
    seed: u64,
}

impl InputVectors {
    /// Input vectors of `kind`; `seed` only matters for
    /// [`VectorKind::Seeded`].
    pub fn new(kind: VectorKind, seed: u64) -> InputVectors {
        InputVectors { kind, seed }
    }
}

impl Semantics for InputVectors {
    fn load(&self, name: &str, iteration: u64) -> u64 {
        match self.kind {
            VectorKind::Seeded => mix(self.seed ^ hash_str(name) ^ mix(iteration.wrapping_add(1))),
            VectorKind::Zeros => 0,
            VectorKind::Ones => 1,
            VectorKind::I32Min => i64::from(i32::MIN) as u64,
            VectorKind::I32Max => i64::from(i32::MAX) as u64,
        }
    }

    fn compute(&self, kind: OpKind, operands: &[u64]) -> u64 {
        let mut it = operands.iter().copied();
        match kind {
            OpKind::Add => operands.iter().fold(0u64, |a, &v| a.wrapping_add(v)),
            OpKind::Sub => {
                let first = it.next().unwrap_or(0);
                it.fold(first, u64::wrapping_sub)
            }
            OpKind::Mul => operands.iter().fold(1u64, |a, &v| a.wrapping_mul(v)),
            OpKind::Shift => {
                let first = it.next().unwrap_or(0);
                // the amount is masked to the word width — hardware wrap rule
                it.fold(first, |a, v| a << (v & 63))
            }
            OpKind::Logic => operands.iter().fold(!0u64, |a, &v| a & v),
            OpKind::Cmp => {
                let first = it.next().unwrap_or(0);
                it.fold(first, |a, v| u64::from((a as i64) < (v as i64)))
            }
            OpKind::Select => {
                let c = operands.first().copied().unwrap_or(0);
                let t = operands.get(1).copied().unwrap_or(0);
                let e = operands.get(2).copied().unwrap_or(0);
                if c != 0 {
                    t
                } else {
                    e
                }
            }
            // a store streams its operands out; its token folds all of them
            // so the output digest is sensitive to every stored input
            OpKind::Store => operands.iter().fold(0u64, |a, &v| a ^ v),
            OpKind::Load | OpKind::Const => unreachable!("dispatched in op_value"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_do_not_depend_on_structure() {
        // Two adds over the same operand values agree, whatever their
        // names — the property CSE relies on.
        let a = Hashed.compute(OpKind::Add, &[1, 2]);
        let b = Hashed.compute(OpKind::Add, &[2, 1]);
        assert_eq!(a, b, "operand order must not matter");
        let c = Hashed.compute(OpKind::Sub, &[1, 2]);
        assert_ne!(a, c, "kind must matter");
        // ... but multiplicity does: add(x, x) != add(x).
        let once = Hashed.compute(OpKind::Add, &[7]);
        let twice = Hashed.compute(OpKind::Add, &[7, 7]);
        assert_ne!(once, twice);
    }

    #[test]
    fn const_immediate_is_exact() {
        let op = Op::constant("c", 1234);
        assert_eq!(const_value(&op), 1234);
        let named = Op::new(OpKind::Const, "c");
        assert_ne!(const_value(&named), 1234 + 1); // name-derived, stable
        assert_eq!(const_value(&named), const_value(&named));
    }

    #[test]
    fn loads_are_name_and_iteration_sensitive() {
        assert_ne!(Hashed.load("a", 0), Hashed.load("a", 1));
        assert_ne!(Hashed.load("a", 0), Hashed.load("b", 0));
        assert_ne!(initial_value("a"), initial_value("b"));
    }

    fn concrete(kind: OpKind, operands: &[u64]) -> u64 {
        InputVectors::new(VectorKind::Zeros, 0).compute(kind, operands)
    }

    #[test]
    fn arithmetic_wraps_instead_of_trapping() {
        assert_eq!(concrete(OpKind::Add, &[u64::MAX, 1]), 0);
        assert_eq!(concrete(OpKind::Sub, &[0, 1]), u64::MAX);
        assert_eq!(concrete(OpKind::Mul, &[1u64 << 63, 2]), 0);
        // negating i64::MIN wraps back to itself — the division-free
        // analog of the INT_MIN / -1 overflow case
        assert_eq!(
            concrete(OpKind::Sub, &[0, i64::MIN as u64]),
            i64::MIN as u64
        );
    }

    #[test]
    fn shift_amounts_mask_to_word_width() {
        assert_eq!(
            concrete(OpKind::Shift, &[1, 64]),
            1,
            "shl 64 wraps to shl 0"
        );
        assert_eq!(
            concrete(OpKind::Shift, &[1, 65]),
            2,
            "shl 65 wraps to shl 1"
        );
        assert_eq!(concrete(OpKind::Shift, &[3, 63]), 1u64 << 63);
    }

    #[test]
    fn operand_order_matters_for_noncommutative_kinds() {
        assert_ne!(
            concrete(OpKind::Sub, &[5, 3]),
            concrete(OpKind::Sub, &[3, 5])
        );
        assert_ne!(
            concrete(OpKind::Cmp, &[5, 3]),
            concrete(OpKind::Cmp, &[3, 5])
        );
        assert_ne!(
            concrete(OpKind::Select, &[1, 10, 20]),
            concrete(OpKind::Select, &[1, 20, 10])
        );
    }

    #[test]
    fn vectors_are_deterministic_and_distinct() {
        let a = InputVectors::new(VectorKind::Seeded, 42);
        let b = InputVectors::new(VectorKind::Seeded, 42);
        assert_eq!(a.load("x", 3), b.load("x", 3));
        let c = InputVectors::new(VectorKind::Seeded, 43);
        assert_ne!(a.load("x", 3), c.load("x", 3));
        assert_ne!(a.load("x", 0), a.load("x", 1));
        assert_ne!(a.load("x", 0), a.load("y", 0));
        let min = InputVectors::new(VectorKind::I32Min, 0);
        assert_eq!(min.load("x", 9), 0xFFFF_FFFF_8000_0000);
    }
}

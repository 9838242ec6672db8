//! Derived objects: high-level objects implemented from base primitives.
//!
//! The paper's space bounds are all relative to which *base* objects a
//! protocol consumes. This module makes the base/derived distinction a
//! first-class citizen: an [`ObjectProgram`] is a per-process
//! sub-state-machine that compiles one high-level operation into a bounded
//! sequence of base-object steps. The simulator layer
//! (`swapcons_sim::derived::LayeredProtocol`) flattens a protocol over
//! derived objects onto the base-object set, so the engine, checker, and
//! canonicalization layers see only base objects — and the space accounting
//! prices the construction honestly (the base set, not the derived facade).
//!
//! The flagship program is [`AspnesOneBitSwap`], Aspnes's construction of a
//! linearizable wait-free **one-bit swap object** from a **single max
//! register** and an **array of test-and-set bits** (*A one-bit swap object
//! using test-and-sets and a max register*; see PAPERS.md). Each swap
//! operation takes at most **three** base-object steps:
//!
//! 1. `MaxRead` the alternation counter `m`. The derived object's value
//!    after `t` alternations is `(init + t) mod 2`. If the value being
//!    swapped in equals the current value, the operation is *invisible* —
//!    it returns immediately (one step), linearized at the read.
//! 2. Otherwise `TestAndSet` the bit `T[t+1]` to claim alternation `t+1`.
//!    Every contender for `T[t+1]` read `m = t` and carries the *same*
//!    value (the complement of the current one), so the loser may linearize
//!    immediately after the winner: the winner displaces the old value, the
//!    loser displaces the value both of them carried.
//! 3. `MaxWrite(t+1)` into `m`. Winners *and* losers publish — a loser
//!    that returned without helping would let a later fast-path read
//!    observe the pre-alternation value after the alternation completed,
//!    violating real-time order.
//!
//! Alternations are claimed in order with no gaps: to contend for `T[t+2]`
//! a process must have read `m >= t+1`, which requires `T[t+1]` to have
//! been won and published. The TAS array is sized by the alternation
//! budget (at most one alternation per nontrivial high-level operation).
//!
//! These invariants are *checked*, not trusted: the simulator layer
//! model-checks linearizability of the derived swap against the atomic
//! swap spec via the `chain_consistent` discipline
//! (`swapcons_objects::linearize`) over every interleaving of small
//! scripts, and runs consensus-from-swap on both stacks with verdict
//! parity.

use std::fmt;
use std::hash::Hash;

use crate::op::{HistorylessOp, ObjectOp, Response};
use crate::schema::{Domain, ObjectSchema};

/// The outcome of advancing an [`ObjectProgram`] by one base-object step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramStep<Pc, R> {
    /// The program needs more base-object steps; resume from this counter.
    Continue(Pc),
    /// The high-level operation completed with this response.
    Return(R),
}

/// A per-process sub-state-machine implementing one derived object from a
/// set of base objects.
///
/// A program is *deterministic* and *bounded*: `compile` maps a high-level
/// operation to a start program counter, `poised` names the base operation
/// the counter is poised to apply, and `observe` consumes the base response,
/// either continuing or returning the high-level response. Base values are
/// integer domain points (`u64`) so that derived constructions compose with
/// the simulator's schema checking unchanged.
pub trait ObjectProgram {
    /// The program-counter type: where a process stands mid-operation.
    type Pc: Clone + Eq + Hash + fmt::Debug + Send + Sync;

    /// The schema of the *derived* object this program implements.
    fn object_schema(&self) -> ObjectSchema;

    /// Number of base objects backing one derived object.
    fn num_base_objects(&self) -> usize;

    /// Schema of base object `idx` (`0..num_base_objects()`).
    fn base_schema(&self, idx: usize) -> ObjectSchema;

    /// Initial value of base object `idx`.
    fn initial_base_value(&self, idx: usize) -> u64;

    /// Compile a high-level operation into a start program counter.
    ///
    /// # Panics
    ///
    /// Panics when the operation is not permitted by
    /// [`object_schema`](ObjectProgram::object_schema) — the simulator
    /// validates high-level operations against the derived schema before
    /// compiling them.
    fn compile(&self, op: &ObjectOp<u64>) -> Self::Pc;

    /// The base object (by local index) and base operation the program is
    /// poised to apply at `pc`.
    fn poised(&self, pc: &Self::Pc) -> (usize, ObjectOp<u64>);

    /// Consume the response to the poised base operation.
    fn observe(&self, pc: Self::Pc, resp: Response<u64>) -> ProgramStep<Self::Pc, Response<u64>>;

    /// An upper bound on base-object steps per high-level operation — the
    /// wait-freedom certificate of the construction.
    fn max_steps_per_op(&self) -> usize;

    /// Run one high-level operation to completion against base values held
    /// in `base` (the sequential reference semantics), returning the
    /// high-level response and the number of base steps taken.
    ///
    /// This is the atomic (uninterleaved) execution; the simulator's layered
    /// protocol interleaves the same program across processes.
    fn run_op_sequential(&self, base: &mut [u64], op: &ObjectOp<u64>) -> (Response<u64>, usize) {
        let bound = self.max_steps_per_op();
        let mut pc = self.compile(op);
        let mut steps = 0usize;
        loop {
            let (idx, base_op) = self.poised(&pc);
            let resp = apply_to_point(&base_op, &mut base[idx]);
            steps += 1;
            match self.observe(pc, resp) {
                ProgramStep::Continue(next) => {
                    assert!(
                        steps < bound,
                        "program exceeded its declared step bound {bound}"
                    );
                    pc = next;
                }
                ProgramStep::Return(r) => return (r, steps),
            }
        }
    }
}

/// Apply an operation to an integer-valued object slot — the reference
/// semantics of every [`ObjectOp`] kind over domain points. The simulator's
/// step paths implement the same semantics generically over protocol value
/// types; this concrete form is what derived-object programs and their
/// tests run against.
pub fn apply_to_point(op: &ObjectOp<u64>, slot: &mut u64) -> Response<u64> {
    match op {
        ObjectOp::Historyless(HistorylessOp::Read) => Response::to_read(*slot),
        ObjectOp::Historyless(HistorylessOp::Write(v)) => {
            *slot = *v;
            Response::to_write()
        }
        ObjectOp::Historyless(HistorylessOp::Swap(v)) => {
            let prev = std::mem::replace(slot, *v);
            Response::to_swap(prev)
        }
        ObjectOp::TestAndSet(v) => {
            let won = *slot == 0;
            if won {
                *slot = *v;
            }
            Response::to_test_and_set(won)
        }
        ObjectOp::MaxWrite(v) => {
            if *v > *slot {
                *slot = *v;
            }
            Response::to_max_write()
        }
        ObjectOp::MaxRead => Response::to_max_read(*slot),
    }
}

/// Aspnes's one-bit swap object from a single max register and an array of
/// test-and-set bits. See the module docs for the construction.
///
/// Base object layout: index `0` is the max register `m` (the alternation
/// counter, domain `{0, …, capacity}`); index `j` for `j in 1..=capacity`
/// is the test-and-set bit `T[j]` claiming alternation `j`.
///
/// `capacity` is the alternation budget: an upper bound on the number of
/// *nontrivial* high-level operations ever applied to the derived object
/// (each alternation is claimed by at most one of them). Exceeding it is a
/// deterministic panic, never silent wraparound.
///
/// # Example
///
/// ```
/// use swapcons_objects::{AspnesOneBitSwap, ObjectOp, ObjectProgram, Response};
///
/// let program = AspnesOneBitSwap::new(2, 0);
/// let mut base = program.initial_base_values();
/// // Swapping in the complement alternates the bit in three base steps…
/// assert_eq!(
///     program.run_op_sequential(&mut base, &ObjectOp::swap(1)),
///     (Response::to_swap(0), 3),
/// );
/// // …and swapping in the current value collapses to a single read.
/// assert_eq!(
///     program.run_op_sequential(&mut base, &ObjectOp::swap(1)),
///     (Response::to_swap(1), 1),
/// );
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AspnesOneBitSwap {
    capacity: usize,
    init: u64,
}

/// Program counter of [`AspnesOneBitSwap`]. The embedded values are the
/// operand bit `v`, the alternation count `t` read from the max register,
/// and whether the high-level operation was a `Write` (response is an
/// acknowledgement) rather than a `Swap`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AspnesPc {
    /// Step 1 of a swap/write: `MaxRead` the alternation counter.
    ReadAlternations {
        /// The bit being swapped in.
        v: u64,
        /// Whether to acknowledge instead of returning the displaced bit.
        ack: bool,
    },
    /// Step 2: claim alternation `t + 1` with `TestAndSet` on `T[t+1]`.
    Claim {
        /// The bit being swapped in.
        v: u64,
        /// The alternation count read in step 1.
        t: u64,
        /// Whether to acknowledge instead of returning the displaced bit.
        ack: bool,
    },
    /// Step 3: publish the alternation with `MaxWrite(t + 1)`, then return.
    Publish {
        /// The displaced bit to return.
        ret: u64,
        /// The alternation index being published.
        t1: u64,
        /// Whether to acknowledge instead of returning the displaced bit.
        ack: bool,
    },
    /// The single step of a read: `MaxRead` the counter, return its parity.
    ReadMax,
}

impl AspnesOneBitSwap {
    /// A one-bit swap program with the given alternation budget and initial
    /// bit (`0` or `1`).
    pub fn new(capacity: usize, init: u64) -> Self {
        assert!(init <= 1, "a one-bit swap holds 0 or 1, got {init}");
        AspnesOneBitSwap { capacity, init }
    }

    /// The alternation budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The derived object's initial bit.
    pub fn init(&self) -> u64 {
        self.init
    }

    /// The derived object's value after `t` alternations.
    fn value_after(&self, t: u64) -> u64 {
        (self.init + t) % 2
    }

    /// Initial values of all base objects, in layout order.
    pub fn initial_base_values(&self) -> Vec<u64> {
        (0..self.num_base_objects())
            .map(|i| self.initial_base_value(i))
            .collect()
    }
}

impl ObjectProgram for AspnesOneBitSwap {
    type Pc = AspnesPc;

    fn object_schema(&self) -> ObjectSchema {
        ObjectSchema::readable_binary_swap()
    }

    fn num_base_objects(&self) -> usize {
        1 + self.capacity
    }

    fn base_schema(&self, idx: usize) -> ObjectSchema {
        assert!(
            idx < self.num_base_objects(),
            "base index {idx} out of range"
        );
        if idx == 0 {
            ObjectSchema::max_register(Domain::Bounded(self.capacity as u64 + 1))
        } else {
            ObjectSchema::test_and_set()
        }
    }

    fn initial_base_value(&self, idx: usize) -> u64 {
        assert!(
            idx < self.num_base_objects(),
            "base index {idx} out of range"
        );
        0
    }

    fn compile(&self, op: &ObjectOp<u64>) -> AspnesPc {
        match op {
            ObjectOp::Historyless(HistorylessOp::Read) => AspnesPc::ReadMax,
            ObjectOp::Historyless(HistorylessOp::Swap(v)) => {
                assert!(*v <= 1, "one-bit swap operand must be 0 or 1, got {v}");
                AspnesPc::ReadAlternations { v: *v, ack: false }
            }
            ObjectOp::Historyless(HistorylessOp::Write(v)) => {
                assert!(*v <= 1, "one-bit swap operand must be 0 or 1, got {v}");
                AspnesPc::ReadAlternations { v: *v, ack: true }
            }
            other => panic!("one-bit swap does not support {other:?}"),
        }
    }

    fn poised(&self, pc: &AspnesPc) -> (usize, ObjectOp<u64>) {
        match pc {
            AspnesPc::ReadAlternations { .. } | AspnesPc::ReadMax => (0, ObjectOp::MaxRead),
            AspnesPc::Claim { t, .. } => {
                let j = t + 1;
                assert!(
                    j <= self.capacity as u64,
                    "alternation budget exceeded: claiming alternation {j} \
                     with capacity {} — size the TAS array by the number of \
                     nontrivial operations",
                    self.capacity
                );
                (j as usize, ObjectOp::TestAndSet(1))
            }
            AspnesPc::Publish { t1, .. } => (0, ObjectOp::MaxWrite(*t1)),
        }
    }

    fn observe(&self, pc: AspnesPc, resp: Response<u64>) -> ProgramStep<AspnesPc, Response<u64>> {
        match pc {
            AspnesPc::ReadAlternations { v, ack } => {
                let t = resp.expect_value("max-read returns the alternation count");
                if v == self.value_after(t) {
                    // Invisible swap: the operand equals the current bit, so
                    // the operation linearizes at the read and changes
                    // nothing.
                    ProgramStep::Return(if ack {
                        Response::to_write()
                    } else {
                        Response::to_swap(v)
                    })
                } else {
                    ProgramStep::Continue(AspnesPc::Claim { v, t, ack })
                }
            }
            AspnesPc::Claim { v, t, ack } => {
                let won = resp.expect_won("test-and-set returns a verdict");
                // Winner: displaces the pre-alternation bit. Loser: every
                // contender for T[t+1] carried the same operand v, so it
                // linearizes right after the winner and displaces v.
                let ret = if won { self.value_after(t) } else { v };
                ProgramStep::Continue(AspnesPc::Publish {
                    ret,
                    t1: t + 1,
                    ack,
                })
            }
            AspnesPc::Publish { ret, ack, .. } => {
                debug_assert_eq!(resp, Response::Ack);
                ProgramStep::Return(if ack {
                    Response::to_write()
                } else {
                    Response::to_swap(ret)
                })
            }
            AspnesPc::ReadMax => {
                let t = resp.expect_value("max-read returns the alternation count");
                ProgramStep::Return(Response::to_read(self.value_after(t)))
            }
        }
    }

    fn max_steps_per_op(&self) -> usize {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::ReadableSwapCell;

    /// Sequentially, the derived swap must be indistinguishable from an
    /// atomic readable binary swap cell: same responses, op by op.
    fn check_sequential_agreement(init: u64, script: &[ObjectOp<u64>]) {
        let program = AspnesOneBitSwap::new(script.len(), init);
        let mut base = program.initial_base_values();
        let mut cell = ReadableSwapCell::new(init);
        for (i, op) in script.iter().enumerate() {
            let (derived, steps) = program.run_op_sequential(&mut base, op);
            let atomic = match op.as_historyless() {
                Some(h) => cell.apply(h),
                None => panic!("script must be historyless"),
            };
            assert_eq!(derived, atomic, "op {i} ({op:?}) diverged");
            assert!(steps <= program.max_steps_per_op());
        }
    }

    #[test]
    fn sequential_agreement_with_atomic_cell() {
        use ObjectOp as O;
        for init in [0, 1] {
            check_sequential_agreement(
                init,
                &[
                    O::swap(1),
                    O::swap(1),
                    O::read(),
                    O::swap(0),
                    O::read(),
                    O::swap(0),
                    O::swap(1),
                    O::write(0),
                    O::read(),
                    O::swap(0),
                ],
            );
        }
    }

    #[test]
    fn sequential_agreement_exhaustive_short_scripts() {
        // Every script of length 3 over {swap 0, swap 1, read}, both inits.
        let alphabet = [ObjectOp::swap(0), ObjectOp::swap(1), ObjectOp::read()];
        for init in [0u64, 1] {
            for a in &alphabet {
                for b in &alphabet {
                    for c in &alphabet {
                        check_sequential_agreement(init, &[a.clone(), b.clone(), c.clone()]);
                    }
                }
            }
        }
    }

    #[test]
    fn worst_case_step_count_is_exactly_three() {
        // Pinned regression: an alternating swap costs exactly 3 base steps
        // (read, claim, publish); an invisible swap costs exactly 1; a read
        // costs exactly 1. This is the construction's headline bound.
        let program = AspnesOneBitSwap::new(4, 0);
        let mut base = program.initial_base_values();
        let (_, steps) = program.run_op_sequential(&mut base, &ObjectOp::swap(1));
        assert_eq!(steps, 3, "alternating swap");
        let (_, steps) = program.run_op_sequential(&mut base, &ObjectOp::swap(1));
        assert_eq!(steps, 1, "invisible swap");
        let (_, steps) = program.run_op_sequential(&mut base, &ObjectOp::read());
        assert_eq!(steps, 1, "read");
        let (_, steps) = program.run_op_sequential(&mut base, &ObjectOp::swap(0));
        assert_eq!(steps, 3, "alternating swap back");
        assert_eq!(program.max_steps_per_op(), 3);
    }

    #[test]
    fn base_layout_prices_the_construction() {
        let program = AspnesOneBitSwap::new(3, 0);
        assert_eq!(program.num_base_objects(), 4);
        let m = program.base_schema(0);
        assert_eq!(m.kind(), crate::ObjectKind::MaxRegister);
        assert_eq!(m.domain(), Domain::Bounded(4));
        assert!(!m.kind().is_historyless());
        for j in 1..=3 {
            let t = program.base_schema(j);
            assert_eq!(t, ObjectSchema::test_and_set());
            assert!(t.kind().is_historyless());
            assert_eq!(program.initial_base_value(j), 0);
        }
        assert_eq!(
            program.object_schema(),
            ObjectSchema::readable_binary_swap()
        );
        assert_eq!(program.initial_base_values(), vec![0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "alternation budget exceeded")]
    fn exceeding_the_alternation_budget_panics() {
        let program = AspnesOneBitSwap::new(1, 0);
        let mut base = program.initial_base_values();
        let _ = program.run_op_sequential(&mut base, &ObjectOp::swap(1));
        // Budget spent: the next alternation must claim T[2], which does
        // not exist.
        let _ = program.run_op_sequential(&mut base, &ObjectOp::swap(0));
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn compiling_a_foreign_op_panics() {
        let _ = AspnesOneBitSwap::new(1, 0).compile(&ObjectOp::MaxRead);
    }

    #[test]
    fn writes_collapse_like_swaps() {
        let program = AspnesOneBitSwap::new(2, 0);
        let mut base = program.initial_base_values();
        let (r, steps) = program.run_op_sequential(&mut base, &ObjectOp::write(1));
        assert_eq!(r, Response::Ack);
        assert_eq!(steps, 3);
        let (r, steps) = program.run_op_sequential(&mut base, &ObjectOp::write(1));
        assert_eq!(r, Response::Ack);
        assert_eq!(steps, 1);
        let (r, _) = program.run_op_sequential(&mut base, &ObjectOp::read());
        assert_eq!(r, Response::Value(1));
    }

    #[test]
    fn reference_point_semantics() {
        let mut slot = 0u64;
        assert_eq!(
            apply_to_point(&ObjectOp::TestAndSet(1), &mut slot),
            Response::Won(true)
        );
        assert_eq!(slot, 1);
        assert_eq!(
            apply_to_point(&ObjectOp::TestAndSet(1), &mut slot),
            Response::Won(false)
        );
        let mut slot = 3u64;
        assert_eq!(
            apply_to_point(&ObjectOp::MaxWrite(2), &mut slot),
            Response::Ack
        );
        assert_eq!(slot, 3, "max-write below the current value is a no-op");
        assert_eq!(
            apply_to_point(&ObjectOp::MaxWrite(5), &mut slot),
            Response::Ack
        );
        assert_eq!(slot, 5);
        assert_eq!(
            apply_to_point(&ObjectOp::MaxRead, &mut slot),
            Response::Value(5)
        );
        assert_eq!(
            apply_to_point(&ObjectOp::swap(9), &mut slot),
            Response::Value(5)
        );
        assert_eq!(slot, 9);
    }
}

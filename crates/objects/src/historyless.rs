//! Simulation of arbitrary historyless objects by readable swap objects.
//!
//! The paper (Section 1, citing Ellen, Fatourou, Ruppert \[14\]) relies on the
//! fact that **any historyless object can be simulated by a readable swap
//! object with the same domain**, and any historyless object that supports
//! only nontrivial operations can be simulated by a (non-readable) swap
//! object. This is what lets lower bounds proved for (readable) swap objects
//! transfer to the whole historyless class (Corollaries 19 and 23).
//!
//! The construction is direct. A historyless object's value is determined by
//! the last nontrivial operation applied, so each nontrivial operation `op`
//! denotes a constant *target value* `w(op)`, and its response is a function
//! of the value it displaced. Therefore:
//!
//! * a nontrivial `op` is simulated by `Swap(w(op))`, computing the response
//!   from the swapped-out value;
//! * a trivial `op` is simulated by `Read`, computing the response from the
//!   observed value.
//!
//! [`HistorylessSpec`] captures a historyless type abstractly, and
//! [`SimulatedHistoryless`] runs it over a [`ReadableSwapCell`]. Unit tests
//! check the simulation against the directly-implemented cells for registers
//! and test-and-set.

use std::fmt::Debug;

use crate::cell::ReadableSwapCell;

/// Abstract description of a historyless object type.
///
/// Implementors describe, for each operation descriptor:
/// * whether it is trivial,
/// * the constant value it installs if nontrivial ([`HistorylessSpec::target_value`]),
/// * and the response computed from the displaced/observed value.
pub trait HistorylessSpec {
    /// The object's value type.
    type Value: Clone + Debug;
    /// Operation descriptors (operation name + arguments).
    type Op: Clone + Debug;
    /// Responses returned to callers.
    type Resp: Clone + Debug + PartialEq;

    /// Whether `op` can never modify the object's value.
    fn is_trivial(&self, op: &Self::Op) -> bool;

    /// The value the object holds after `op`, for nontrivial `op`.
    ///
    /// Must return `None` exactly when `op` is trivial. The value must not
    /// depend on the object's current state — that is the historyless
    /// property, and [`SimulatedHistoryless`] debug-asserts consistency with
    /// [`HistorylessSpec::is_trivial`].
    fn target_value(&self, op: &Self::Op) -> Option<Self::Value>;

    /// The response to `op` given the value it observed (for trivial ops) or
    /// displaced (for nontrivial ops).
    fn response(&self, op: &Self::Op, observed: &Self::Value) -> Self::Resp;
}

/// A historyless object executed over a single readable swap object, per the
/// \[14\] simulation.
///
/// # Example
///
/// ```
/// use swapcons_objects::historyless::{SimulatedHistoryless, TestAndSetSpec, TasOp};
///
/// let mut tas = SimulatedHistoryless::new(TestAndSetSpec, false);
/// assert_eq!(tas.apply(&TasOp::TestAndSet), true);  // won
/// assert_eq!(tas.apply(&TasOp::TestAndSet), false); // lost
/// assert_eq!(tas.apply(&TasOp::Read), false);       // read sees "set"? see TasOp docs
/// ```
#[derive(Clone, Debug)]
pub struct SimulatedHistoryless<S: HistorylessSpec> {
    spec: S,
    cell: ReadableSwapCell<S::Value>,
}

impl<S: HistorylessSpec> SimulatedHistoryless<S> {
    /// Create the simulation with the given spec and initial value.
    pub fn new(spec: S, initial: S::Value) -> Self {
        SimulatedHistoryless {
            spec,
            cell: ReadableSwapCell::new(initial),
        }
    }

    /// Apply `op`, using exactly one readable-swap operation.
    pub fn apply(&mut self, op: &S::Op) -> S::Resp {
        match self.spec.target_value(op) {
            Some(target) => {
                debug_assert!(!self.spec.is_trivial(op));
                let displaced = self.cell.swap(target);
                self.spec.response(op, &displaced)
            }
            None => {
                debug_assert!(self.spec.is_trivial(op));
                let observed = self.cell.read();
                self.spec.response(op, &observed)
            }
        }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &S {
        &self.spec
    }

    /// System-level peek at the value.
    #[cfg(test)]
    fn peek(&self) -> S::Value {
        self.cell.read()
    }
}

/// Operations of a test-and-set object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TasOp {
    /// Nontrivial: set the object; respond `true` iff it was previously
    /// unset (the caller "won").
    TestAndSet,
    /// Trivial: respond with `true` iff the object is still *unset*. (The
    /// polarity matches [`TasOp::TestAndSet`]: `true` means "a test-and-set
    /// now would win".)
    Read,
}

/// [`HistorylessSpec`] for a test-and-set object with value type `bool`
/// (`false` = unset).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TestAndSetSpec;

impl HistorylessSpec for TestAndSetSpec {
    type Value = bool;
    type Op = TasOp;
    type Resp = bool;

    fn is_trivial(&self, op: &TasOp) -> bool {
        matches!(op, TasOp::Read)
    }

    fn target_value(&self, op: &TasOp) -> Option<bool> {
        match op {
            TasOp::TestAndSet => Some(true),
            TasOp::Read => None,
        }
    }

    fn response(&self, op: &TasOp, observed: &bool) -> bool {
        match op {
            // Won iff previously unset.
            TasOp::TestAndSet => !*observed,
            // "Would a test-and-set win now?"
            TasOp::Read => !*observed,
        }
    }
}

/// Operations of a register with values in `V`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegisterOp<V> {
    /// Trivial: return the current value.
    Read,
    /// Nontrivial: set the value; the response is an uninformative `None`.
    Write(V),
}

/// [`HistorylessSpec`] for a `u64` register. The response type is
/// `Option<u64>`: `Some(v)` for reads, `None` (ack) for writes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegisterSpec;

impl HistorylessSpec for RegisterSpec {
    type Value = u64;
    type Op = RegisterOp<u64>;
    type Resp = Option<u64>;

    fn is_trivial(&self, op: &Self::Op) -> bool {
        matches!(op, RegisterOp::Read)
    }

    fn target_value(&self, op: &Self::Op) -> Option<u64> {
        match op {
            RegisterOp::Read => None,
            RegisterOp::Write(v) => Some(*v),
        }
    }

    fn response(&self, op: &Self::Op, observed: &u64) -> Option<u64> {
        match op {
            RegisterOp::Read => Some(*observed),
            RegisterOp::Write(_) => None,
        }
    }
}

/// Operations of a fetch-and-store (swap) object — included to close the
/// loop: the simulation of a swap object by a readable swap object is the
/// identity embedding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchAndStoreOp<V>(pub V);

/// [`HistorylessSpec`] for a fetch-and-store (swap) object over `u64`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchAndStoreSpec;

impl HistorylessSpec for FetchAndStoreSpec {
    type Value = u64;
    type Op = FetchAndStoreOp<u64>;
    type Resp = u64;

    fn is_trivial(&self, _op: &Self::Op) -> bool {
        false
    }

    fn target_value(&self, op: &Self::Op) -> Option<u64> {
        Some(op.0)
    }

    fn response(&self, _op: &Self::Op, observed: &u64) -> u64 {
        *observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{RegisterCell, SwapCell, TasCell};

    #[test]
    fn simulated_tas_matches_direct_tas() {
        let mut direct = TasCell::new();
        let mut sim = SimulatedHistoryless::new(TestAndSetSpec, false);
        // Interleave reads and test-and-sets; responses must agree.
        assert_eq!(sim.apply(&TasOp::Read), !direct.read());
        assert_eq!(sim.apply(&TasOp::TestAndSet), direct.test_and_set());
        assert_eq!(sim.apply(&TasOp::TestAndSet), direct.test_and_set());
        assert_eq!(sim.apply(&TasOp::Read), !direct.read());
    }

    #[test]
    fn simulated_register_matches_direct_register() {
        let mut direct = RegisterCell::new(0u64);
        let mut sim = SimulatedHistoryless::new(RegisterSpec, 0u64);
        let script = [
            RegisterOp::Read,
            RegisterOp::Write(3),
            RegisterOp::Read,
            RegisterOp::Write(9),
            RegisterOp::Write(11),
            RegisterOp::Read,
        ];
        for op in &script {
            let expected = match op {
                RegisterOp::Read => Some(direct.read()),
                RegisterOp::Write(v) => {
                    direct.write(*v);
                    None
                }
            };
            assert_eq!(sim.apply(op), expected);
        }
    }

    #[test]
    fn simulated_swap_matches_direct_swap() {
        let mut direct = SwapCell::new(0u64);
        let mut sim = SimulatedHistoryless::new(FetchAndStoreSpec, 0u64);
        for v in [5u64, 2, 2, 19, 0] {
            assert_eq!(sim.apply(&FetchAndStoreOp(v)), direct.swap(v));
        }
    }

    #[test]
    fn simulation_uses_same_domain() {
        // The simulation stores the historyless object's value directly, so
        // a binary historyless object yields a binary readable swap object —
        // the domain-preservation property Corollaries 19/23 depend on.
        let mut sim = SimulatedHistoryless::new(TestAndSetSpec, false);
        sim.apply(&TasOp::TestAndSet);
        // Value space is exactly {false, true}.
        assert!(sim.peek());
    }

    #[test]
    fn tas_read_polarity() {
        let mut sim = SimulatedHistoryless::new(TestAndSetSpec, false);
        assert!(sim.apply(&TasOp::Read), "unset: a TAS would win");
        sim.apply(&TasOp::TestAndSet);
        assert!(!sim.apply(&TasOp::Read), "set: a TAS would lose");
    }
}

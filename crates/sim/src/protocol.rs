//! The [`Protocol`] trait: deterministic per-process state machines over
//! shared historyless objects.
//!
//! A protocol corresponds to the paper's notion of a (deterministic)
//! algorithm: for every configuration and process, it specifies the next
//! operation the process is *poised* to apply (Section 2), and how the
//! process's state evolves after receiving the response. Determinism is what
//! the lower-bound adversaries exploit — an obstruction-free algorithm is a
//! nondeterministic solo-terminating algorithm that happens to be
//! deterministic, and all constructions in the paper's proofs replay
//! deterministic solo executions.

use std::fmt::Debug;
use std::hash::Hash;

use swapcons_objects::{ObjectOp, ObjectSchema, Response};

use crate::canon::{Renaming, Symmetry};
use crate::ids::{ObjectId, ProcessId};
use crate::task::KSetTask;

/// Values storable in simulated objects.
///
/// The simulator is generic over the object value type so that Algorithm 1's
/// composite values (lap-counter array + process identifier) can be stored
/// directly. Bounded-domain enforcement (Section 5's objects) applies to
/// values that expose an integer *domain point*; composite values return
/// `None` and may only inhabit unbounded-domain objects.
///
/// Values are `Send + Sync` so configurations can cross threads; values are
/// plain data, so the bound is vacuous in practice.
pub trait SimValue: Clone + Eq + Hash + Debug + Send + Sync {
    /// The integer the value denotes, when the value type embeds into a
    /// bounded integer domain. Used by [`crate::Configuration`] to enforce
    /// [`swapcons_objects::Domain::Bounded`] schemas.
    fn domain_point(&self) -> Option<u64> {
        None
    }
}

impl SimValue for u64 {
    fn domain_point(&self) -> Option<u64> {
        Some(*self)
    }
}

impl SimValue for bool {
    fn domain_point(&self) -> Option<u64> {
        Some(u64::from(*self))
    }
}

// Composite values (no integer domain point). `Option<V>` is the idiomatic
// representation of a "⊥ or payload" object value, as in the paper's
// 2-process consensus from one swap object.
impl<V: SimValue> SimValue for Option<V> {}

impl<A: SimValue, B: SimValue> SimValue for (A, B) {}

/// Result of a process absorbing the response to its poised operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Transition<S> {
    /// The process continues with a new state.
    Continue(S),
    /// The process decides the given value and terminates (takes no further
    /// steps — the paper's processes output once and stop participating).
    Decide(u64),
}

/// A deterministic algorithm in the asynchronous shared-memory model.
///
/// Implementations must be **deterministic**: `poised` and `observe` must be
/// pure functions of their arguments. All simulator facilities (replay,
/// model checking, the lower-bound adversaries) rely on this.
///
/// The object set is fixed up front ([`Protocol::schemas`]); the simulator
/// enforces that every operation conforms to the schema of the object it
/// targets, so an algorithm's claimed object kinds (the Table 1 row it
/// belongs to) are machine-checked on every step.
///
/// Protocols are `Sync` (and their states `Send + Sync`): a protocol is an
/// immutable *description* of an algorithm, so one `&P` can be shared
/// across threads. Every protocol in the workspace is plain data, so the
/// bounds cost nothing.
pub trait Protocol: Sync {
    /// Per-process local state.
    type State: Clone + Eq + Hash + Debug + Send + Sync;
    /// Object value type.
    type Value: SimValue;

    /// Human-readable name (used in reports and benchmark output).
    fn name(&self) -> String;

    /// The task this protocol solves, with its parameters.
    fn task(&self) -> KSetTask;

    /// Number of processes (`n`).
    fn num_processes(&self) -> usize {
        self.task().n
    }

    /// Number of shared objects. This count is the protocol's **space
    /// complexity** — the quantity all of the paper's bounds are about
    /// (priced per-kind via [`Protocol::schema`]; for protocols over
    /// *derived* objects, what counts is the flattened base-object set the
    /// engine actually simulates, never the derived facade).
    fn num_objects(&self) -> usize;

    /// Capability schema of object `obj` (`0..num_objects()`).
    ///
    /// [`crate::Configuration::step`] consults this once per simulated step
    /// — it is the hottest schema path in the workspace, which is why the
    /// per-object accessor is the required method and the vector form
    /// ([`Protocol::schemas`]) is derived from it, not the other way
    /// around.
    fn schema(&self, obj: ObjectId) -> ObjectSchema;

    /// Capability schemas of all shared objects, materialized. Derived from
    /// [`Protocol::schema`]; prefer the per-object accessor on hot paths.
    fn schemas(&self) -> Vec<ObjectSchema> {
        ObjectId::all(self.num_objects())
            .map(|obj| self.schema(obj))
            .collect()
    }

    /// Initial value of object `obj` (the paper's initial configuration
    /// defines object values before any steps).
    fn initial_value(&self, obj: ObjectId) -> Self::Value;

    /// Initial state of process `pid` with input `input`.
    fn initial_state(&self, pid: ProcessId, input: u64) -> Self::State;

    /// A decision made by `pid` without taking any steps, if the protocol
    /// assigns one. The paper's k-set agreement constructions use this
    /// ("the remaining `2k-n` processes simply decide their input values");
    /// most protocols return `None` for every process.
    fn initial_decision(&self, _pid: ProcessId, _input: u64) -> Option<u64> {
        None
    }

    /// The operation the process is poised to apply in a state. Must be
    /// deterministic.
    ///
    /// Protocols over historyless objects build the operation with
    /// [`swapcons_objects::HistorylessOp`] and convert with `.into()`; the
    /// full [`ObjectOp`] hierarchy additionally admits the
    /// read-modify-write kinds (test-and-set, max-register read/write) that
    /// flattened derived-object protocols step through.
    fn poised(&self, state: &Self::State) -> (ObjectId, ObjectOp<Self::Value>);

    /// Absorb the response to the poised operation, producing the next state
    /// or a decision. Must be deterministic.
    fn observe(
        &self,
        state: Self::State,
        response: Response<Self::Value>,
    ) -> Transition<Self::State>;

    /// The protocol's declared symmetry group, used by the exploration
    /// engines to search the quotient state space (see [`crate::canon`]).
    ///
    /// The default declares **no symmetry**, which is always sound. A
    /// protocol overriding this must uphold the *equivariance contract* for
    /// every renaming `g = (π, σ)` its declaration admits:
    ///
    /// * initial configurations are fixed: renaming the initial state of
    ///   process `i` with input `v` yields the initial state of `π(i)` with
    ///   input `σ(v)`, and likewise for initial object values;
    /// * steps commute: `g · step(C, p) = step(g·C, π(p))` for every
    ///   configuration `C` and running process `p` (with object slots
    ///   permuted by [`Protocol::rename_object`]).
    ///
    /// [`crate::canon::assert_equivariant`] brute-force checks the contract;
    /// every protocol test suite in the workspace calls it.
    fn symmetry(&self) -> Symmetry {
        Symmetry::none()
    }

    /// Rewrite a local state under a renaming: map every embedded process id
    /// through [`Renaming::pid`] and every embedded *task input value*
    /// through [`Renaming::value`] (nothing else — counters, positions, and
    /// flags are structural, not nominal).
    ///
    /// The default clones unchanged, which is correct exactly when states
    /// embed neither process ids nor (for value-symmetric declarations)
    /// input values.
    fn rename_state(&self, state: &Self::State, renaming: &Renaming) -> Self::State {
        let _ = renaming;
        state.clone()
    }

    /// Rewrite an object value under a renaming — same rules as
    /// [`Protocol::rename_state`]. `obj` identifies the *source* object, so
    /// protocols can treat slots with different roles differently (e.g. a
    /// proposal register rewrites input values, a flag does not). The
    /// renamed value must still satisfy the destination object's schema
    /// (debug-asserted by the canonicalizer).
    fn rename_value(&self, obj: ObjectId, value: &Self::Value, renaming: &Renaming) -> Self::Value {
        let _ = (obj, renaming);
        value.clone()
    }

    /// The object permutation applied by a renaming. Must be a permutation
    /// mapping each object to one with an identical schema
    /// ([`crate::canon::assert_equivariant`] checks both).
    ///
    /// The default returns the renaming's **declared** object component
    /// ([`Renaming::object`]) — the permutation
    /// [`crate::Canonicalizer::for_inputs`] composed from the protocol's
    /// [`crate::canon::ObjectClasses`] declarations (identity for protocols
    /// without any). Override it only when the object permutation is a
    /// *function of `π`* rather than a declarable class structure —
    /// single-writer registers moving with their writer pid, as in
    /// `TasConsensus`.
    fn rename_object(&self, obj: ObjectId, renaming: &Renaming) -> ObjectId {
        renaming.object(obj)
    }
}

/// Blanket impl so `&P` can be passed wherever a protocol is expected.
impl<P: Protocol + ?Sized> Protocol for &P {
    type State = P::State;
    type Value = P::Value;

    fn name(&self) -> String {
        (**self).name()
    }
    fn task(&self) -> KSetTask {
        (**self).task()
    }
    fn num_objects(&self) -> usize {
        (**self).num_objects()
    }
    fn schema(&self, obj: ObjectId) -> ObjectSchema {
        (**self).schema(obj)
    }
    fn schemas(&self) -> Vec<ObjectSchema> {
        (**self).schemas()
    }
    fn initial_value(&self, obj: ObjectId) -> Self::Value {
        (**self).initial_value(obj)
    }
    fn initial_state(&self, pid: ProcessId, input: u64) -> Self::State {
        (**self).initial_state(pid, input)
    }
    fn initial_decision(&self, pid: ProcessId, input: u64) -> Option<u64> {
        (**self).initial_decision(pid, input)
    }
    fn poised(&self, state: &Self::State) -> (ObjectId, ObjectOp<Self::Value>) {
        (**self).poised(state)
    }
    fn observe(
        &self,
        state: Self::State,
        response: Response<Self::Value>,
    ) -> Transition<Self::State> {
        (**self).observe(state, response)
    }
    fn symmetry(&self) -> Symmetry {
        (**self).symmetry()
    }
    fn rename_state(&self, state: &Self::State, renaming: &Renaming) -> Self::State {
        (**self).rename_state(state, renaming)
    }
    fn rename_value(&self, obj: ObjectId, value: &Self::Value, renaming: &Renaming) -> Self::Value {
        (**self).rename_value(obj, value, renaming)
    }
    fn rename_object(&self, obj: ObjectId, renaming: &Renaming) -> ObjectId {
        (**self).rename_object(obj, renaming)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_domain_point_is_identity() {
        assert_eq!(5u64.domain_point(), Some(5));
    }

    #[test]
    fn bool_domain_point() {
        assert_eq!(false.domain_point(), Some(0));
        assert_eq!(true.domain_point(), Some(1));
    }
}

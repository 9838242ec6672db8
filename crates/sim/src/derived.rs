//! Layered protocols: flattening derived objects onto their base-object
//! implementations.
//!
//! The paper's space bounds price the **base objects** a protocol actually
//! consumes. [`LayeredProtocol`] makes that accounting honest for protocols
//! written against *derived* objects (see
//! [`swapcons_objects::derived`]): it wraps an inner protocol together with
//! an [`ObjectProgram`] per high-level object and presents the engine,
//! checker, and canonicalization layers with the **flattened base-object
//! set** — every simulated step is a base-object step, every schema the
//! engine validates is a base schema, and [`Protocol::num_objects`] counts
//! base objects, never the derived facade.
//!
//! A process of the layered protocol is the inner process plus an optional
//! **frame**: the program counter of the derived operation it is currently
//! mid-flight in. When the frame is empty, the process's next poised base
//! operation is obtained by compiling the inner protocol's poised high-level
//! operation (deterministically, so [`Protocol::poised`] remains a pure
//! function); when the frame is live, the process resumes the program where
//! it left off. Interleavings of *base* steps across processes are exactly
//! the executions the derived construction must survive — which is what the
//! linearizability gate below model-checks.
//!
//! # The linearizability gate
//!
//! [`SwapScripts`] is a harness protocol: each process runs a fixed script
//! of high-level swap/read operations against a single one-bit swap object
//! and decides an integer encoding its response sequence. Exploring *all*
//! interleavings with the engine and collecting the terminal decision
//! profiles ([`swap_outcome_profiles`]) yields the complete set of
//! observable outcome profiles of the object implementation. The gate then
//! checks, for the derived implementation
//! ([`swapcons_objects::AspnesOneBitSwap`] under [`LayeredProtocol`]):
//!
//! * every derived profile is **chain-consistent** — the operations
//!   linearize as a swap chain ([`chain_consistent`], reads modeled as
//!   identity edges `r → r`); and
//! * the derived profile set is a **subset of the native profile set** (the
//!   same scripts over an atomic one-bit swap object). Native profiles are
//!   exactly the outcomes an atomic swap admits under program-order
//!   respecting interleavings, so the inclusion is linearizability against
//!   the concurrent specification, not merely value conservation.

use std::collections::BTreeSet;

use swapcons_objects::linearize::{chain_consistent, SwapOp};
use swapcons_objects::{
    AspnesOneBitSwap, HistorylessOp, ObjectOp, ObjectProgram, ObjectSchema, ProgramStep, Response,
};

use crate::canon::DedupSet;
use crate::canon::{Renaming, Symmetry};
use crate::config::Configuration;
use crate::engine::{AllRunning, Budget, Control, Engine, Lifo, NodeCtx, Visitor};
use crate::ids::{Action, ObjectId, ProcessId};
use crate::protocol::{Protocol, Transition};
use crate::search::ScheduleArena;
use crate::task::KSetTask;

/// A protocol over derived objects, flattened onto the base-object set.
///
/// Each high-level object of the inner protocol is either **derived**
/// (backed by an [`ObjectProgram`], occupying a contiguous range of base
/// slots) or **native** (passed through unchanged, occupying one slot).
/// The flattened layout concatenates the per-object ranges in object order.
///
/// The inner protocol's value type must be `u64` — derived base objects
/// hold integer domain points, and the two kinds share one object array.
#[derive(Clone, Debug)]
pub struct LayeredProtocol<P, G> {
    inner: P,
    /// One entry per inner object: the implementing program, or `None` for
    /// a native pass-through slot.
    programs: Vec<Option<G>>,
    /// `base_start[h]` is the first flattened slot of inner object `h`;
    /// the last entry is the total base-object count.
    base_start: Vec<usize>,
}

/// State of a layered process: the inner state plus the in-flight derived
/// operation's program counter (`None` between high-level operations).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LayeredState<S, Pc> {
    /// The inner protocol's process state.
    pub inner: S,
    /// `(inner object index, program counter)` of the derived operation in
    /// progress, if any.
    pub frame: Option<(usize, Pc)>,
}

impl<P, G> LayeredProtocol<P, G>
where
    P: Protocol<Value = u64>,
    G: ObjectProgram,
{
    /// Layer `inner` over the given per-object programs (`None` = native
    /// pass-through).
    ///
    /// # Panics
    ///
    /// Panics if the program count differs from the inner object count, or
    /// if a program's derived schema differs from the schema the inner
    /// protocol declares for that object (the derived facade must offer
    /// exactly the capabilities the inner protocol was checked against).
    pub fn new(inner: P, programs: Vec<Option<G>>) -> Self {
        assert_eq!(
            programs.len(),
            inner.num_objects(),
            "one program slot per inner object"
        );
        let mut base_start = Vec::with_capacity(programs.len() + 1);
        let mut next = 0usize;
        for (h, program) in programs.iter().enumerate() {
            base_start.push(next);
            match program {
                Some(p) => {
                    assert_eq!(
                        p.object_schema(),
                        inner.schema(ObjectId(h)),
                        "program for object {h} implements a different schema \
                         than the inner protocol declares"
                    );
                    next += p.num_base_objects();
                }
                None => next += 1,
            }
        }
        base_start.push(next);
        LayeredProtocol {
            inner,
            programs,
            base_start,
        }
    }

    /// The inner protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The flattened slot of base object `offset` within inner object `h`.
    fn flat(&self, h: usize, offset: usize) -> ObjectId {
        debug_assert!(self.base_start[h] + offset < self.base_start[h + 1]);
        ObjectId(self.base_start[h] + offset)
    }

    /// Decompose a flattened slot into `(inner object index, offset)`.
    fn decompose(&self, obj: ObjectId) -> (usize, usize) {
        let i = obj.index();
        assert!(
            i < *self.base_start.last().unwrap(),
            "object {obj} out of range"
        );
        // partition_point: first h with base_start[h] > i, minus one.
        let h = self.base_start.partition_point(|&s| s <= i) - 1;
        (h, i - self.base_start[h])
    }
}

impl<P> LayeredProtocol<P, AspnesOneBitSwap>
where
    P: Protocol<Value = u64>,
{
    /// Layer `inner` with **every** object derived as an
    /// [`AspnesOneBitSwap`] with the given alternation budget. Every inner
    /// object must be a readable binary swap; each program's initial bit is
    /// the inner object's initial value.
    pub fn derive_swaps(inner: P, capacity: usize) -> Self {
        let programs = (0..inner.num_objects())
            .map(|h| {
                let init = inner.initial_value(ObjectId(h));
                Some(AspnesOneBitSwap::new(capacity, init))
            })
            .collect();
        LayeredProtocol::new(inner, programs)
    }
}

impl<P, G> Protocol for LayeredProtocol<P, G>
where
    P: Protocol<Value = u64>,
    G: ObjectProgram + Sync,
{
    type State = LayeredState<P::State, G::Pc>;
    type Value = u64;

    fn name(&self) -> String {
        format!("{} [flattened onto base objects]", self.inner.name())
    }

    fn task(&self) -> KSetTask {
        self.inner.task()
    }

    fn num_objects(&self) -> usize {
        *self.base_start.last().unwrap()
    }

    fn schema(&self, obj: ObjectId) -> ObjectSchema {
        let (h, offset) = self.decompose(obj);
        match &self.programs[h] {
            Some(program) => program.base_schema(offset),
            None => self.inner.schema(ObjectId(h)),
        }
    }

    fn initial_value(&self, obj: ObjectId) -> u64 {
        let (h, offset) = self.decompose(obj);
        match &self.programs[h] {
            Some(program) => program.initial_base_value(offset),
            None => self.inner.initial_value(ObjectId(h)),
        }
    }

    fn initial_state(&self, pid: ProcessId, input: u64) -> Self::State {
        LayeredState {
            inner: self.inner.initial_state(pid, input),
            frame: None,
        }
    }

    fn initial_decision(&self, pid: ProcessId, input: u64) -> Option<u64> {
        self.inner.initial_decision(pid, input)
    }

    fn poised(&self, state: &Self::State) -> (ObjectId, ObjectOp<u64>) {
        let (hobj, op) = self.inner.poised(&state.inner);
        let h = hobj.index();
        match &self.programs[h] {
            None => (self.flat(h, 0), op),
            Some(program) => {
                // Between high-level operations the start counter is
                // recomputed by compiling the inner protocol's poised
                // operation — both are deterministic, so `poised` stays a
                // pure function of the state.
                let pc = match &state.frame {
                    Some((fh, pc)) => {
                        debug_assert_eq!(*fh, h, "frame does not match the poised object");
                        pc.clone()
                    }
                    None => program.compile(&op),
                };
                let (offset, base_op) = program.poised(&pc);
                (self.flat(h, offset), base_op)
            }
        }
    }

    fn observe(&self, state: Self::State, response: Response<u64>) -> Transition<Self::State> {
        let (hobj, op) = self.inner.poised(&state.inner);
        let h = hobj.index();
        match &self.programs[h] {
            None => match self.inner.observe(state.inner, response) {
                Transition::Continue(inner) => {
                    Transition::Continue(LayeredState { inner, frame: None })
                }
                Transition::Decide(d) => Transition::Decide(d),
            },
            Some(program) => {
                let pc = match state.frame {
                    Some((fh, pc)) => {
                        debug_assert_eq!(fh, h, "frame does not match the poised object");
                        pc
                    }
                    None => program.compile(&op),
                };
                match program.observe(pc, response) {
                    ProgramStep::Continue(next) => Transition::Continue(LayeredState {
                        inner: state.inner,
                        frame: Some((h, next)),
                    }),
                    ProgramStep::Return(high) => match self.inner.observe(state.inner, high) {
                        Transition::Continue(inner) => {
                            Transition::Continue(LayeredState { inner, frame: None })
                        }
                        Transition::Decide(d) => Transition::Decide(d),
                    },
                }
            }
        }
    }

    /// The inner protocol's **process** symmetry, lifted. Value
    /// interchangeability and declared object classes are deliberately
    /// dropped: program counters embed operand bits and the flattened
    /// object array reshapes declared blocks, so only renamings whose
    /// object motion is a function of `π` (the inner protocol's
    /// [`Protocol::rename_object`] override) lift soundly.
    fn symmetry(&self) -> Symmetry {
        Symmetry::process_classes(self.inner.symmetry().classes().to_vec())
    }

    fn rename_state(&self, state: &Self::State, renaming: &Renaming) -> Self::State {
        LayeredState {
            inner: self.inner.rename_state(&state.inner, renaming),
            // The frame follows its object: process π(p) is mid-flight on
            // the renamed object, at the same program counter (counters
            // embed alternation counts and operand bits — structural under
            // a process-only renaming).
            frame: state.frame.as_ref().map(|(h, pc)| {
                (
                    self.inner.rename_object(ObjectId(*h), renaming).index(),
                    pc.clone(),
                )
            }),
        }
    }

    fn rename_value(&self, obj: ObjectId, value: &u64, renaming: &Renaming) -> u64 {
        let (h, _) = self.decompose(obj);
        match &self.programs[h] {
            // Base values are alternation counts and claim bits —
            // structural, never renamed.
            Some(_) => *value,
            None => self.inner.rename_value(ObjectId(h), value, renaming),
        }
    }

    fn rename_object(&self, obj: ObjectId, renaming: &Renaming) -> ObjectId {
        let (h, offset) = self.decompose(obj);
        let dst = self.inner.rename_object(ObjectId(h), renaming).index();
        debug_assert!(
            self.base_start[dst + 1] - self.base_start[dst]
                == self.base_start[h + 1] - self.base_start[h],
            "renaming moves object {h} onto {dst}, whose base range differs"
        );
        self.flat(dst, offset)
    }
}

/// Harness protocol for the linearizability gate: each process applies a
/// fixed script of high-level operations (`Swap`/`Read` with one-bit
/// operands) to a single one-bit swap object — object `0` — and decides an
/// integer encoding its full response sequence:
/// `(1 << len) | response bits, first response in the highest bit`.
///
/// Layer it with [`LayeredProtocol::derive_swaps`] to obtain the same
/// scripts over the Aspnes construction; [`swap_outcome_profiles`] collects
/// the terminal decision profiles of either stack.
#[derive(Clone, Debug)]
pub struct SwapScripts {
    init: u64,
    scripts: Vec<Vec<ObjectOp<u64>>>,
}

impl SwapScripts {
    /// A harness over the given per-process scripts and initial bit.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-swap/read script, or operands outside
    /// `{0, 1}` (the derived object under test is a *one-bit* swap).
    pub fn new(init: u64, scripts: Vec<Vec<ObjectOp<u64>>>) -> Self {
        assert!(init <= 1, "the object under test holds one bit");
        assert!(!scripts.is_empty(), "at least one process");
        for script in &scripts {
            assert!(!script.is_empty(), "scripts must be non-empty");
            for op in script {
                match op.as_historyless() {
                    Some(HistorylessOp::Read) => {}
                    Some(HistorylessOp::Swap(v)) if *v <= 1 => {}
                    _ => panic!("scripts are swap/read with one-bit operands, got {op:?}"),
                }
            }
        }
        SwapScripts { init, scripts }
    }

    /// The scripts under test.
    pub fn scripts(&self) -> &[Vec<ObjectOp<u64>>] {
        &self.scripts
    }

    /// Decode one process's decision back into completed swap operations,
    /// with reads modeled as identity edges `r → r` (a read returning `r`
    /// linearizes exactly where a `Swap(r)` returning `r` would).
    pub fn decode_ops(&self, pid: usize, decision: u64) -> Vec<SwapOp<u64>> {
        let script = &self.scripts[pid];
        let len = script.len();
        assert_eq!(
            decision >> len,
            1,
            "decision {decision:#b} has a bad marker"
        );
        script
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let returned = (decision >> (len - 1 - i)) & 1;
                match op.as_historyless() {
                    Some(HistorylessOp::Swap(v)) => SwapOp::new(*v, returned),
                    Some(HistorylessOp::Read) => SwapOp::new(returned, returned),
                    _ => unreachable!("constructor validated the script"),
                }
            })
            .collect()
    }

    /// Whether a terminal decision profile linearizes as a swap chain from
    /// the initial bit ([`chain_consistent`] over the decoded operations of
    /// every process).
    pub fn profile_chain_consistent(&self, profile: &[u64]) -> bool {
        let ops: Vec<SwapOp<u64>> = profile
            .iter()
            .enumerate()
            .flat_map(|(pid, &d)| self.decode_ops(pid, d))
            .collect();
        chain_consistent(&self.init, &ops)
    }
}

/// Per-process harness state: position in the script and the response bits
/// accumulated so far.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ScriptState {
    /// The process running the script (scripts are per-process).
    pub pid: usize,
    /// Next script position.
    pub pos: usize,
    /// Responses received so far, first response in the highest bit.
    pub bits: u64,
}

impl Protocol for SwapScripts {
    type State = ScriptState;
    type Value = u64;

    fn name(&self) -> String {
        "swap-script linearizability harness".into()
    }

    fn task(&self) -> KSetTask {
        // The harness is not a k-set agreement protocol; decisions encode
        // response logs. The task is never checked (the gate drives the
        // engine directly), but `n` sizes the configurations.
        KSetTask::new(self.scripts.len(), self.scripts.len(), 1)
    }

    fn num_objects(&self) -> usize {
        1
    }

    fn schema(&self, _obj: ObjectId) -> ObjectSchema {
        ObjectSchema::readable_binary_swap()
    }

    fn initial_value(&self, _obj: ObjectId) -> u64 {
        self.init
    }

    fn initial_state(&self, pid: ProcessId, _input: u64) -> ScriptState {
        ScriptState {
            pid: pid.index(),
            pos: 0,
            bits: 0,
        }
    }

    fn poised(&self, state: &ScriptState) -> (ObjectId, ObjectOp<u64>) {
        (ObjectId(0), self.scripts[state.pid][state.pos].clone())
    }

    fn observe(&self, state: ScriptState, response: Response<u64>) -> Transition<ScriptState> {
        let bit = response.expect_value("swap and read both return the bit") & 1;
        let bits = (state.bits << 1) | bit;
        let pos = state.pos + 1;
        if pos == self.scripts[state.pid].len() {
            Transition::Decide((1 << pos) | bits)
        } else {
            Transition::Continue(ScriptState { pos, bits, ..state })
        }
    }
}

/// Collects the decision profile of every terminal configuration.
struct TerminalProfiles {
    profiles: BTreeSet<Vec<u64>>,
}

impl<P: Protocol> Visitor<P> for TerminalProfiles {
    fn enter(
        &mut self,
        _protocol: &P,
        config: &Configuration<P>,
        _ctx: &NodeCtx<'_>,
        candidates: &[Action],
    ) -> Control {
        if candidates.is_empty() && config.all_decided() {
            self.profiles.insert(
                config
                    .decisions_iter()
                    .map(|d| d.expect("all decided"))
                    .collect(),
            );
        }
        Control::Continue
    }
}

/// Exhaustively explore every interleaving of `protocol` from the all-zero
/// input vector and return the set of terminal decision profiles (one
/// decision per process, in process order).
///
/// # Panics
///
/// Panics if the search exhausts `max_states` before completing — the gate
/// is only meaningful over the *complete* profile set.
pub fn swap_outcome_profiles<P: Protocol>(protocol: &P, max_states: usize) -> BTreeSet<Vec<u64>> {
    let inputs = vec![0u64; protocol.num_processes()];
    let root = Configuration::initial(protocol, &inputs).expect("valid inputs");
    let mut dedup = DedupSet::exact(max_states.min(1 << 12));
    let mut arena = ScheduleArena::new();
    let mut visitor = TerminalProfiles {
        profiles: BTreeSet::new(),
    };
    let stats = Engine::new(Budget::new(usize::MAX, max_states)).run(
        protocol,
        root,
        &mut dedup,
        &mut arena,
        &mut AllRunning,
        &mut Lifo::new(),
        &mut visitor,
    );
    assert!(
        stats.complete(),
        "profile collection must be exhaustive (visited {} states)",
        stats.states
    );
    visitor.profiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::assert_equivariant;

    fn swap(v: u64) -> ObjectOp<u64> {
        ObjectOp::swap(v)
    }

    fn read() -> ObjectOp<u64> {
        ObjectOp::read()
    }

    /// The gate proper: for the given scripts, the derived stack's outcome
    /// profiles must all be chain-consistent and a subset of the native
    /// (atomic) stack's profiles.
    fn check_gate(init: u64, scripts: Vec<Vec<ObjectOp<u64>>>, capacity: usize) {
        let native = SwapScripts::new(init, scripts.clone());
        let native_profiles = swap_outcome_profiles(&native, 1 << 20);
        let derived = LayeredProtocol::derive_swaps(SwapScripts::new(init, scripts), capacity);
        let derived_profiles = swap_outcome_profiles(&derived, 1 << 20);
        assert!(!derived_profiles.is_empty());
        for profile in &derived_profiles {
            assert!(
                native.profile_chain_consistent(profile),
                "derived profile {profile:?} does not linearize as a swap chain"
            );
            assert!(
                native_profiles.contains(profile),
                "derived profile {profile:?} is not an atomic-swap outcome"
            );
        }
        // Sanity on the spec side: the atomic object trivially linearizes.
        for profile in &native_profiles {
            assert!(native.profile_chain_consistent(profile));
        }
    }

    #[test]
    fn derived_swap_linearizes_two_contending_swappers() {
        // Both processes force an alternation on the same bit; the classic
        // winner/loser race through TestAndSet plus help-publish.
        check_gate(0, vec![vec![swap(1), swap(0)], vec![swap(1), read()]], 4);
    }

    #[test]
    fn derived_swap_linearizes_invisible_fast_paths() {
        // Swapping in the current bit takes the one-step invisible path;
        // interleaved with a visible swap it must still linearize.
        check_gate(0, vec![vec![swap(0), swap(1)], vec![swap(0), read()]], 4);
        check_gate(1, vec![vec![swap(1)], vec![swap(0), swap(1)]], 4);
    }

    #[test]
    fn derived_swap_linearizes_three_processes() {
        check_gate(
            0,
            vec![vec![swap(1)], vec![swap(0)], vec![read(), swap(1)]],
            6,
        );
    }

    #[test]
    fn native_pass_through_is_identity() {
        // Layering with no programs at all must not change the protocol's
        // observable behavior or its object pricing.
        let scripts = vec![vec![swap(1), read()], vec![swap(0)]];
        let native = SwapScripts::new(0, scripts.clone());
        let layered: LayeredProtocol<_, AspnesOneBitSwap> =
            LayeredProtocol::new(SwapScripts::new(0, scripts), vec![None]);
        assert_eq!(layered.num_objects(), native.num_objects());
        assert_eq!(layered.schema(ObjectId(0)), native.schema(ObjectId(0)));
        assert_eq!(
            swap_outcome_profiles(&layered, 1 << 16),
            swap_outcome_profiles(&native, 1 << 16)
        );
    }

    #[test]
    fn flattened_layout_prices_the_base_set() {
        // One derived one-bit swap with capacity 3 = 1 max register + 3 TAS
        // bits. That, not the facade, is the space the engine accounts.
        let derived = LayeredProtocol::derive_swaps(SwapScripts::new(0, vec![vec![swap(1)]]), 3);
        assert_eq!(derived.num_objects(), 4);
        assert_eq!(
            derived.schema(ObjectId(0)).kind(),
            swapcons_objects::ObjectKind::MaxRegister
        );
        for j in 1..4 {
            assert_eq!(derived.schema(ObjectId(j)), ObjectSchema::test_and_set());
            assert!(derived.schema(ObjectId(j)).kind().is_historyless());
        }
        assert_eq!(derived.initial_value(ObjectId(0)), 0);
    }

    #[test]
    fn layered_harness_is_equivariant() {
        // The lifted (trivial, here: scripts are per-process) symmetry obeys
        // the equivariance contract, mid-frame states included.
        let derived = LayeredProtocol::derive_swaps(
            SwapScripts::new(0, vec![vec![swap(1), swap(0)], vec![swap(1)]]),
            4,
        );
        assert_equivariant(&derived, &[0, 0], 8, 8);
    }

    #[test]
    #[should_panic(expected = "different schema")]
    fn schema_mismatch_is_rejected() {
        // The harness object is a readable binary swap; a program whose
        // derived facade differs (wrong initial bit is fine — wrong schema
        // is not, which we provoke with a mismatching inner) must be caught.
        struct WideSwap(SwapScripts);
        impl Protocol for WideSwap {
            type State = ScriptState;
            type Value = u64;
            fn name(&self) -> String {
                self.0.name()
            }
            fn task(&self) -> KSetTask {
                self.0.task()
            }
            fn num_objects(&self) -> usize {
                1
            }
            fn schema(&self, _obj: ObjectId) -> ObjectSchema {
                ObjectSchema::swap()
            }
            fn initial_value(&self, obj: ObjectId) -> u64 {
                self.0.initial_value(obj)
            }
            fn initial_state(&self, pid: ProcessId, input: u64) -> ScriptState {
                self.0.initial_state(pid, input)
            }
            fn poised(&self, state: &ScriptState) -> (ObjectId, ObjectOp<u64>) {
                self.0.poised(state)
            }
            fn observe(&self, state: ScriptState, r: Response<u64>) -> Transition<ScriptState> {
                self.0.observe(state, r)
            }
        }
        let inner = WideSwap(SwapScripts::new(0, vec![vec![swap(1)]]));
        let _ = LayeredProtocol::new(inner, vec![Some(AspnesOneBitSwap::new(2, 0))]);
    }

    #[test]
    fn decode_round_trips_response_bits() {
        let harness = SwapScripts::new(0, vec![vec![swap(1), read(), swap(0)]]);
        // Responses 0, 1, 1 -> decision 0b1_011.
        let ops = harness.decode_ops(0, 0b1011);
        assert_eq!(
            ops,
            vec![
                SwapOp::new(1, 0),
                SwapOp::new(1, 1), // read 1 modeled as identity edge
                SwapOp::new(0, 1),
            ]
        );
        assert!(harness.profile_chain_consistent(&[0b1011]));
        // Response 1 to the first swap would claim a bit nobody installed.
        assert!(!harness.profile_chain_consistent(&[0b1111]));
    }
}

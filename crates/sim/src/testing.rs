//! Small reference protocols used by the simulator's own tests, doctests,
//! and the model checker's self-tests.
//!
//! [`TwoProcessSwapConsensus`] is a *paper algorithm*: Section 1 describes
//! the simple wait-free 2-process consensus algorithm from a single swap
//! object ("The swap object initially contains a special value ⊥ … Both
//! processes swap their input value into the object. The process that
//! receives the response ⊥ decides its input value and the other process
//! decides the value it obtained"). It is re-exported by `swapcons-core` as
//! the building block of the pairs k-set agreement construction.
//!
//! [`SelfishConsensus`] is deliberately **incorrect** (each process decides
//! its own input) — it exists so tests can confirm the model checker
//! actually catches agreement violations. [`PanickingConsensus`] panics in
//! every transition, so tests can confirm that every search isolates a
//! panicking protocol instead of propagating the panic.
//!
//! [`reference`](mod@reference) is a deliberately naive explorer that shares none of the
//! engine's machinery, for differential tests that hold the engine to it.

use swapcons_objects::{HistorylessOp, ObjectOp, ObjectSchema, Response};

use crate::canon::{Renaming, Symmetry};
use crate::ids::{ObjectId, ProcessId};
use crate::protocol::{Protocol, SimValue, Transition};
use crate::task::KSetTask;

/// Value stored in the 2-process consensus swap object: `⊥` or an input.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TwoProcConsensusValue {
    /// The initial value `⊥`, which cannot be any process's input.
    Bot,
    /// An input value swapped in by a process.
    Input(u64),
}

impl SimValue for TwoProcConsensusValue {}

/// The paper's wait-free 2-process consensus algorithm from one swap object.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TwoProcessSwapConsensus;

/// State of a process in [`TwoProcessSwapConsensus`]: it has not yet swapped.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TwoProcState {
    /// The process's input.
    pub input: u64,
}

impl Protocol for TwoProcessSwapConsensus {
    type State = TwoProcState;
    type Value = TwoProcConsensusValue;

    fn name(&self) -> String {
        "two-process consensus from one swap object".into()
    }

    fn task(&self) -> KSetTask {
        // 2 processes, consensus, inputs in {0,…,15} (any m works; the
        // algorithm is input-oblivious).
        KSetTask::new(2, 1, 16)
    }

    fn num_objects(&self) -> usize {
        1
    }

    fn schema(&self, _obj: ObjectId) -> ObjectSchema {
        ObjectSchema::swap()
    }

    fn initial_value(&self, _obj: ObjectId) -> TwoProcConsensusValue {
        TwoProcConsensusValue::Bot
    }

    fn initial_state(&self, _pid: ProcessId, input: u64) -> TwoProcState {
        TwoProcState { input }
    }

    fn poised(&self, state: &TwoProcState) -> (ObjectId, ObjectOp<TwoProcConsensusValue>) {
        (
            ObjectId(0),
            HistorylessOp::Swap(TwoProcConsensusValue::Input(state.input)).into(),
        )
    }

    fn observe(
        &self,
        state: TwoProcState,
        response: Response<TwoProcConsensusValue>,
    ) -> Transition<TwoProcState> {
        match response.expect_value("swap always returns the previous value") {
            TwoProcConsensusValue::Bot => Transition::Decide(state.input),
            TwoProcConsensusValue::Input(v) => Transition::Decide(v),
        }
    }

    // Fully symmetric: the algorithm never inspects a process id, and values
    // are only moved, never compared against constants (⊥ is not a value).
    fn symmetry(&self) -> Symmetry {
        Symmetry::full_process(2).with_interchangeable_values()
    }

    fn rename_state(&self, state: &TwoProcState, renaming: &Renaming) -> TwoProcState {
        TwoProcState {
            input: renaming.value(state.input),
        }
    }

    fn rename_value(
        &self,
        _obj: ObjectId,
        value: &TwoProcConsensusValue,
        renaming: &Renaming,
    ) -> TwoProcConsensusValue {
        match value {
            TwoProcConsensusValue::Bot => TwoProcConsensusValue::Bot,
            TwoProcConsensusValue::Input(v) => TwoProcConsensusValue::Input(renaming.value(*v)),
        }
    }
}

/// A deliberately broken "consensus" protocol: each process reads a shared
/// register once and then decides **its own input**. Violates agreement
/// whenever two inputs differ. Used to test violation detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelfishConsensus {
    /// Number of processes.
    pub n: usize,
}

/// State of a process in [`SelfishConsensus`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SelfishState {
    /// The process's input.
    pub input: u64,
}

impl Protocol for SelfishConsensus {
    type State = SelfishState;
    type Value = u64;

    fn name(&self) -> String {
        format!("selfish (broken) consensus, n={}", self.n)
    }

    fn task(&self) -> KSetTask {
        KSetTask::consensus(self.n)
    }

    fn num_objects(&self) -> usize {
        1
    }

    fn schema(&self, _obj: ObjectId) -> ObjectSchema {
        ObjectSchema::register()
    }

    fn initial_value(&self, _obj: ObjectId) -> u64 {
        0
    }

    fn initial_state(&self, _pid: ProcessId, input: u64) -> SelfishState {
        SelfishState { input }
    }

    fn poised(&self, _state: &SelfishState) -> (ObjectId, ObjectOp<u64>) {
        (ObjectId(0), ObjectOp::read())
    }

    fn observe(&self, state: SelfishState, _response: Response<u64>) -> Transition<SelfishState> {
        Transition::Decide(state.input)
    }

    // Even a broken protocol can be symmetric: every process does the same
    // (wrong) thing. The shared register holds the constant 0 — not an input
    // value — so the default identity `rename_value` is correct.
    fn symmetry(&self) -> Symmetry {
        Symmetry::full_process(self.n).with_interchangeable_values()
    }

    fn rename_state(&self, state: &SelfishState, renaming: &Renaming) -> SelfishState {
        SelfishState {
            input: renaming.value(state.input),
        }
    }
}

/// [`TwoProcessSwapConsensus`] with a worst-case protocol bug: every
/// `observe` panics with "injected protocol bug".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PanickingConsensus;

impl Protocol for PanickingConsensus {
    type State = TwoProcState;
    type Value = TwoProcConsensusValue;

    fn name(&self) -> String {
        "two-process consensus whose every transition panics".into()
    }

    fn task(&self) -> KSetTask {
        TwoProcessSwapConsensus.task()
    }

    fn num_objects(&self) -> usize {
        TwoProcessSwapConsensus.num_objects()
    }

    fn schema(&self, obj: ObjectId) -> ObjectSchema {
        TwoProcessSwapConsensus.schema(obj)
    }

    fn initial_value(&self, obj: ObjectId) -> TwoProcConsensusValue {
        TwoProcessSwapConsensus.initial_value(obj)
    }

    fn initial_state(&self, pid: ProcessId, input: u64) -> TwoProcState {
        TwoProcessSwapConsensus.initial_state(pid, input)
    }

    fn poised(&self, state: &TwoProcState) -> (ObjectId, ObjectOp<TwoProcConsensusValue>) {
        TwoProcessSwapConsensus.poised(state)
    }

    fn observe(
        &self,
        _state: TwoProcState,
        _response: Response<TwoProcConsensusValue>,
    ) -> Transition<TwoProcState> {
        panic!("injected protocol bug")
    }
}

/// A naive reference explorer: a discovery-time LIFO depth-first search
/// over fully materialized configurations in a std [`HashSet`], with no
/// interned records, no copy-on-write undo, no schedule arena, no symmetry
/// reduction and no budget beyond a hard cap.
///
/// It pushes each node's children in the engine's candidate order — steps
/// by ascending pid, then (while fewer than `max_failures` processes have
/// crashed) crashes by ascending pid — and pops last-in first-out, so it
/// discovers a state first along the same path as
/// [`crate::engine::Engine`] with [`crate::engine::Lifo`] and
/// [`crate::engine::CrashBounded`] over [`crate::engine::AllRunning`].
/// Its counts therefore equal the engine's exact counts even on
/// depth-bounded searches.
///
/// [`HashSet`]: std::collections::HashSet
pub mod reference {
    use std::collections::HashSet;

    use crate::config::Configuration;
    use crate::protocol::Protocol;

    /// What a reference search reached.
    #[derive(Debug)]
    pub struct Reached<P: Protocol> {
        /// Every configuration discovered, the root included.
        pub states: HashSet<Configuration<P>>,
        /// The discovered configurations in which no process can step.
        pub terminal: HashSet<Configuration<P>>,
    }

    /// Every configuration reachable from `inputs` within `max_depth`
    /// actions and with at most `max_failures` crashes.
    ///
    /// # Panics
    ///
    /// Panics if the inputs are invalid, if the simulator rejects a step
    /// (a protocol bug the engine would report), or if more than `cap`
    /// states are discovered.
    pub fn explore<P: Protocol>(
        protocol: &P,
        inputs: &[u64],
        max_depth: usize,
        max_failures: usize,
        cap: usize,
    ) -> Reached<P> {
        let root = Configuration::initial(protocol, inputs).expect("valid inputs");
        let mut reached = Reached {
            states: HashSet::from([root.clone()]),
            terminal: HashSet::new(),
        };
        let mut stack = vec![(root, 0)];
        while let Some((config, depth)) = stack.pop() {
            let running = config.running();
            if running.is_empty() {
                reached.terminal.insert(config);
                continue;
            }
            if depth >= max_depth {
                continue;
            }
            let crashes = if config.num_crashed() < max_failures {
                running.as_slice()
            } else {
                &[]
            };
            let steps = running.iter().map(|&p| {
                let mut child = config.clone();
                child.step_quiet(protocol, p).expect("a legal step");
                child
            });
            let crashed = crashes.iter().map(|&p| {
                let mut child = config.clone();
                child.crash(p).expect("a running process can crash");
                child
            });
            for child in steps.chain(crashed) {
                if reached.states.insert(child.clone()) {
                    assert!(reached.states.len() <= cap, "more than {cap} states");
                    stack.push((child, depth + 1));
                }
            }
        }
        reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::runner;

    #[test]
    fn two_process_consensus_all_interleavings() {
        // Only two schedules matter (p0 first or p1 first); check both for
        // all distinct input pairs.
        for (a, b) in [(0u64, 1u64), (3, 9), (5, 5)] {
            for first in [0usize, 1] {
                let second = 1 - first;
                let mut c = Configuration::initial(&TwoProcessSwapConsensus, &[a, b]).unwrap();
                c.step(&TwoProcessSwapConsensus, ProcessId(first)).unwrap();
                c.step(&TwoProcessSwapConsensus, ProcessId(second)).unwrap();
                let inputs = [a, b];
                let winner = inputs[first];
                assert_eq!(c.decision(ProcessId(first)), Some(winner));
                assert_eq!(c.decision(ProcessId(second)), Some(winner));
            }
        }
    }

    #[test]
    fn two_process_consensus_is_wait_free_two_steps() {
        // Wait-freedom with a concrete bound: each process decides in
        // exactly 1 own step regardless of schedule.
        let mut c = Configuration::initial(&TwoProcessSwapConsensus, &[2, 7]).unwrap();
        let out = runner::run(
            &TwoProcessSwapConsensus,
            &mut c,
            &mut crate::scheduler::RoundRobin::new(),
            5,
        )
        .unwrap();
        assert_eq!(out.steps, 2);
        assert!(out.all_decided);
    }

    #[test]
    fn selfish_consensus_violates_agreement() {
        let p = SelfishConsensus { n: 2 };
        let mut c = Configuration::initial(&p, &[0, 1]).unwrap();
        c.step(&p, ProcessId(0)).unwrap();
        c.step(&p, ProcessId(1)).unwrap();
        assert_eq!(c.decided_values().len(), 2, "two distinct values decided");
        assert!(p.task().check_agreement(&c.decisions()).is_err());
    }
}

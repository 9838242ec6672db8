//! Mutants that the paper's space lower bound predicts must fail.
//!
//! Algorithm 1 solves k-set agreement among `n` processes with `n - k` swap
//! objects. [`Undersized`] runs it unchanged but demands `j`-agreement for
//! some `j < k`. Theorem 10 says any obstruction-free `j`-set agreement
//! protocol from swap objects needs at least `⌈n/j⌉ - 1` of them
//! ([`Table1Row::KSetSwap`]). Where `n - k` is below that bound, the mutant
//! cannot be both safe and obstruction-free, so the model checker must find
//! an agreement violation or a process that does not decide within
//! Lemma 8's `8(n - k)` solo steps, with a witness that replays.

use swapcons::core::SwapKSet;
use swapcons::lower::Table1Row;
use swapcons::objects::{ObjectOp, ObjectSchema, Response};
use swapcons::sim::explore::{CheckReport, ModelChecker, ViolationKind};
use swapcons::sim::runner::{self, SoloRunError};
use swapcons::sim::task::TaskViolation;
use swapcons::sim::{
    Configuration, KSetTask, ObjectId, ProcessId, Protocol, Renaming, Symmetry, Transition,
};

/// `SwapKSet::new(n, k, j + 1)` in every respect but its task, which
/// demands `j`-agreement.
struct Undersized {
    inner: SwapKSet,
    j: usize,
}

impl Undersized {
    fn new(n: usize, k: usize, j: usize) -> Self {
        Undersized {
            inner: SwapKSet::new(n, k, (j + 1) as u64),
            j,
        }
    }
}

impl Protocol for Undersized {
    type State = <SwapKSet as Protocol>::State;
    type Value = <SwapKSet as Protocol>::Value;

    fn name(&self) -> String {
        format!("{} demanding {}-agreement", self.inner.name(), self.j)
    }
    fn task(&self) -> KSetTask {
        let task = self.inner.task();
        KSetTask::new(task.n, self.j, task.m)
    }
    fn num_processes(&self) -> usize {
        self.inner.num_processes()
    }
    fn num_objects(&self) -> usize {
        self.inner.num_objects()
    }
    fn schema(&self, obj: ObjectId) -> ObjectSchema {
        self.inner.schema(obj)
    }
    fn schemas(&self) -> Vec<ObjectSchema> {
        self.inner.schemas()
    }
    fn initial_value(&self, obj: ObjectId) -> Self::Value {
        self.inner.initial_value(obj)
    }
    fn initial_state(&self, pid: ProcessId, input: u64) -> Self::State {
        self.inner.initial_state(pid, input)
    }
    fn initial_decision(&self, pid: ProcessId, input: u64) -> Option<u64> {
        self.inner.initial_decision(pid, input)
    }
    fn poised(&self, state: &Self::State) -> (ObjectId, ObjectOp<Self::Value>) {
        self.inner.poised(state)
    }
    fn observe(
        &self,
        state: Self::State,
        response: Response<Self::Value>,
    ) -> Transition<Self::State> {
        self.inner.observe(state, response)
    }
    fn symmetry(&self) -> Symmetry {
        self.inner.symmetry()
    }
    fn rename_state(&self, state: &Self::State, renaming: &Renaming) -> Self::State {
        self.inner.rename_state(state, renaming)
    }
    fn rename_value(&self, obj: ObjectId, value: &Self::Value, renaming: &Renaming) -> Self::Value {
        self.inner.rename_value(obj, value, renaming)
    }
    fn rename_object(&self, obj: ObjectId, renaming: &Renaming) -> ObjectId {
        self.inner.rename_object(obj, renaming)
    }
}

/// Check the mutant for `(n, k, j)` on inputs `i mod (j + 1)` with
/// Lemma 8's solo budget for its `n - k` objects.
fn check(n: usize, k: usize, j: usize) -> (Undersized, Vec<u64>, CheckReport) {
    let p = Undersized::new(n, k, j);
    let inputs: Vec<u64> = (0..n).map(|i| (i % (j + 1)) as u64).collect();
    let report = ModelChecker::new(30, 2_000_000)
        .with_solo_budget(8 * (n - k))
        .check(&p, &inputs);
    (p, inputs, report)
}

#[test]
fn too_few_objects_for_j_agreement_are_caught() {
    let bound = Table1Row::KSetSwap.lower_bound();
    for (n, k, j) in [(3, 2, 1), (4, 2, 1), (4, 3, 1)] {
        assert!(
            ((n - k) as f64) < bound.at(n, j, 0),
            "({n}, {k}, {j}): Theorem 10 must predict a failure"
        );
        let (p, inputs, report) = check(n, k, j);
        assert!(
            report.violation.is_some(),
            "({n}, {k}, {j}) must fail: {report}"
        );
        println!("({n}, {k}, {j}): {report}");
        let v = report.violation.unwrap();
        let mut replay = Configuration::initial(&p, &inputs).unwrap();
        runner::replay_actions(&p, &mut replay, &v.schedule).unwrap();
        match v.kind {
            ViolationKind::Task(TaskViolation::Agreement { .. }) => {
                assert!(
                    p.task()
                        .check_decisions(&inputs, replay.decisions_iter())
                        .is_err(),
                    "({n}, {k}, {j}): the witness must reach the violation: {v}"
                );
            }
            ViolationKind::SoloTermination { pid, budget } => {
                assert!(
                    matches!(
                        runner::solo_run(&p, &mut replay, pid, budget),
                        Err(SoloRunError::BudgetExhausted { .. })
                    ),
                    "({n}, {k}, {j}): the witness must strand {pid}: {v}"
                );
            }
            other => panic!("({n}, {k}, {j}): expected agreement or solo termination, got {other}"),
        }
    }
}

/// `(4, 3, 2)`: one object, and Theorem 10 asks for `⌈4/2⌉ - 1 = 1`, so
/// the bound predicts nothing. Printed, not asserted:
/// `cargo test --release --test mutants -- --ignored --nocapture`.
#[test]
#[ignore = "the bound predicts no failure; about 3 s in release"]
fn bound_silent_instance() {
    let bound = Table1Row::KSetSwap.lower_bound();
    assert!(((4 - 3) as f64) >= bound.at(4, 2, 0));
    let (_, _, report) = check(4, 3, 2);
    println!("(4, 3, 2): {report}");
}

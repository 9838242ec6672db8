//! The interleaving explorer: DFS over schedules with optional dynamic
//! partial-order reduction and preemption bounding.
//!
//! [`Checker::check`] runs a closure under the controlled scheduler once
//! per explored interleaving. Each execution is driven by a *plan* — the
//! chosen-thread sequence of the DFS stack prefix being revisited — and
//! extends the stack with fresh nodes past the plan. After an execution,
//! the search backtracks to the deepest node with an unexplored choice,
//! truncates the stack below it, and replays.
//!
//! In [`Mode::Dpor`] the backtrack sets are computed dynamically
//! (Flanagan–Godefroid): when step `i` by thread `p` conflicts with an
//! earlier step `j` not already ordered before `p` by happens-before, a
//! backtrack point is added at `j`'s pre-state. Sleep sets prune
//! executions that only permute independent steps of already-explored
//! subtrees. In [`Mode::FullEnumeration`] every enabled thread is a
//! backtrack choice at every step — the ground truth the reduction is
//! checked against in the parity tests.
//!
//! With a preemption bound, a context switch away from a still-enabled
//! thread costs one unit of the budget; switches at disabled or finished
//! threads are free. Bounded DPOR uses conservative backtrack sets (all
//! enabled threads at the conflicting step), which keeps the reduction
//! sound under the bound at the price of less pruning.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::Arc;

use crate::op::{conflicts, may_be_coenabled, ObjId, Op};
use crate::runtime::{self, ExecInner, Failure, FailureKind, Status};
use crate::vclock::{Tid, VClock};

/// Search strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Explore every interleaving (up to the preemption bound). Ground
    /// truth; exponential.
    FullEnumeration,
    /// Dynamic partial-order reduction with sleep sets: explores at least
    /// one interleaving per Mazurkiewicz trace — same verdicts, far fewer
    /// executions.
    Dpor,
}

/// Exact exploration budgets. Exceeding one stops the search with
/// `complete = false` in the report — truncation is always visible, never
/// silent.
#[derive(Clone, Copy, Debug)]
pub struct CheckBudget {
    /// Maximum executions (complete, sleep-set-blocked, and truncated all
    /// count against it).
    pub max_executions: u64,
    /// Per-execution step cap; an execution hitting it is aborted and
    /// counted in `truncated`.
    pub max_steps_per_execution: u64,
    /// Maximum context switches away from a still-enabled thread, or
    /// `None` for unbounded. Bounding makes spin-loop programs finite.
    pub preemption_bound: Option<u32>,
}

impl Default for CheckBudget {
    fn default() -> Self {
        CheckBudget {
            max_executions: 200_000,
            max_steps_per_execution: 20_000,
            preemption_bound: None,
        }
    }
}

/// The interleaving checker: a mode plus budgets.
#[derive(Clone, Copy, Debug)]
pub struct Checker {
    pub mode: Mode,
    pub budget: CheckBudget,
}

/// What the search found.
#[derive(Debug)]
pub struct CheckReport<V> {
    /// Complete executions explored (each a distinct interleaving).
    pub interleavings: u64,
    /// Executions abandoned by sleep sets as provably redundant (DPOR
    /// only; not counted in `interleavings`).
    pub sleep_blocked: u64,
    /// Executions cut by `max_steps_per_execution`.
    pub truncated: u64,
    /// Steps where the preemption bound forced re-running a sleeping
    /// thread (redundant but required for soundness under the bound).
    pub forced_redundant: u64,
    /// Backtrack choices skipped because taking them would exceed the
    /// preemption bound.
    pub bound_skips: u64,
    /// Distinct outcomes of the checked closure across all interleavings.
    pub outcomes: Vec<V>,
    /// The first failure (race, deadlock, or panic), with its schedule.
    pub failure: Option<Failure>,
    /// `false` iff a budget stopped the search before the state space was
    /// exhausted.
    pub complete: bool,
}

impl<V> CheckReport<V> {
    /// No race, deadlock, or panic in any explored interleaving.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Result of replaying one schedule.
#[derive(Debug)]
pub struct ReplayReport<V> {
    /// The closure's return value, if the execution ran to completion.
    pub outcome: Option<V>,
    /// The failure reproduced by the schedule, if any.
    pub failure: Option<Failure>,
}

/// One frame of the DFS stack: the pre-state of a step and the choice
/// taken from it.
struct Node {
    chosen: Tid,
    chosen_op: Op,
    /// Enabled `(thread, pending op)` pairs at this pre-state.
    enabled: Vec<(Tid, Op)>,
    /// Choices whose subtrees are fully explored, with the op each ran.
    done: HashMap<Tid, Op>,
    /// Threads that must (eventually) be tried from this pre-state.
    backtrack: HashSet<Tid>,
    /// Sleep set at this pre-state: choices provably redundant here.
    sleep: HashMap<Tid, Op>,
    /// Thread of the previous step (for preemption accounting).
    prev: Option<Tid>,
    /// Preemptions spent on the path strictly before this node's choice.
    preempt_before: u32,
    /// The chosen thread's per-thread step number at this step (the DPOR
    /// clock timestamps compare against it).
    seq: u32,
}

/// How one execution ended.
enum ExecEnd {
    Done,
    SleepBlocked,
    Truncated,
    Failed,
}

/// Post-quiescence view of an execution: who is parked on what.
struct StepView {
    /// Enabled poised threads with their pending ops, in tid order.
    enabled: Vec<(Tid, Op)>,
    /// Poised but currently blocked (lock held, join target running).
    blocked: usize,
    /// Threads not yet finished (poised, blocked, or unspawned children).
    unfinished: usize,
}

fn snapshot(exec: &ExecInner) -> StepView {
    let st = exec.state.lock().unwrap();
    let mut view = StepView {
        enabled: Vec::new(),
        blocked: 0,
        unfinished: 0,
    };
    for (i, t) in st.threads.iter().enumerate() {
        match t.status {
            Status::Finished => {}
            Status::Poised => {
                view.unfinished += 1;
                let op = t.pending.expect("poised thread declared an op");
                if runtime::op_enabled(&st, &op) {
                    view.enabled.push((Tid(i), op));
                } else {
                    view.blocked += 1;
                }
            }
            // Starting (unspawned child) or Running — the latter cannot
            // appear post-quiescence; both count as live.
            _ => view.unfinished += 1,
        }
    }
    view
}

fn has_failure(exec: &ExecInner) -> bool {
    exec.state.lock().unwrap().failure.is_some()
}

fn record_deadlock(exec: &ExecInner) {
    let mut st = exec.state.lock().unwrap();
    let schedule = st.schedule.clone();
    st.failure.get_or_insert(Failure {
        kind: FailureKind::Deadlock,
        schedule,
    });
    st.aborting = true;
    exec.cv.notify_all();
}

/// Preemption cost of choosing `chosen` after `prev`: 1 iff this switches
/// away from a thread that could have continued.
fn switch_cost(prev: Option<Tid>, enabled: &[(Tid, Op)], chosen: Tid) -> u32 {
    match prev {
        Some(p) if p != chosen && enabled.iter().any(|&(t, _)| t == p) => 1,
        _ => 0,
    }
}

fn bound_allows(
    bound: Option<u32>,
    preempt_before: u32,
    prev: Option<Tid>,
    enabled: &[(Tid, Op)],
    cand: Tid,
) -> bool {
    match bound {
        None => true,
        Some(b) => preempt_before + switch_cost(prev, enabled, cand) <= b,
    }
}

/// Per-object clocks for the trace happens-before relation: modifying ops
/// order against everything; non-modifying ops (loads, read-locks) order
/// only against modifications. Collapsing both into one clock would
/// spuriously order independent reads through each other, suppressing
/// backtrack points the reduction needs (observed as DPOR losing RwLock
/// reader/writer outcomes).
#[derive(Default)]
struct ObjClocks {
    modified: VClock,
    read: VClock,
}

/// Per-execution DPOR clock state: vector clocks over *per-thread step
/// numbers* (not the detector's clocks — those order synchronization; these
/// order trace steps for the backtrack condition).
struct DporClocks {
    threads: Vec<VClock>,
    objects: HashMap<ObjId, ObjClocks>,
    steps: Vec<u32>,
}

impl DporClocks {
    fn new() -> Self {
        DporClocks {
            threads: vec![VClock::new()],
            objects: HashMap::new(),
            steps: vec![0],
        }
    }

    fn ensure(&mut self, t: Tid) {
        if self.threads.len() <= t.0 {
            self.threads.resize_with(t.0 + 1, VClock::new);
            self.steps.resize(t.0 + 1, 0);
        }
    }

    /// Advance for one executed step; returns the step's per-thread seq.
    fn advance(&mut self, t: Tid, op: &Op) -> u32 {
        self.ensure(t);
        self.steps[t.0] += 1;
        let seq = self.steps[t.0];
        let mut cv = self.threads[t.0].clone();
        if let Some(o) = op.obj() {
            let oc = self.objects.entry(o).or_default();
            cv.join(&oc.modified);
            if op.modifies() {
                cv.join(&oc.read);
            }
        }
        cv.set(t, seq);
        match *op {
            Op::Spawn(child) => {
                self.ensure(child);
                self.threads[child.0] = cv.clone();
            }
            Op::Join(target) => {
                self.ensure(target);
                let tc = self.threads[target.0].clone();
                cv.join(&tc);
            }
            _ => {}
        }
        if let Some(o) = op.obj() {
            let oc = self.objects.entry(o).or_default();
            if op.modifies() {
                oc.modified = cv.clone();
            } else {
                oc.read.join(&cv);
            }
        }
        self.threads[t.0] = cv;
        seq
    }
}

impl Checker {
    /// A checker in `mode` with default budgets.
    pub fn new(mode: Mode) -> Self {
        Checker {
            mode,
            budget: CheckBudget::default(),
        }
    }

    /// Builder: set the preemption bound.
    pub fn with_preemption_bound(mut self, b: u32) -> Self {
        self.budget.preemption_bound = Some(b);
        self
    }

    /// Builder: set the execution cap.
    pub fn with_max_executions(mut self, m: u64) -> Self {
        self.budget.max_executions = m;
        self
    }

    /// Explore the interleavings of `f` per the mode and budgets.
    ///
    /// `f` is run once per interleaving; it must be deterministic apart
    /// from scheduling (same choices ⇒ same ops), which holds for any
    /// program whose nondeterminism comes only from the shim types.
    pub fn check<V, F>(&self, f: F) -> CheckReport<V>
    where
        V: Eq + Hash + Send + 'static,
        F: Fn() -> V + Sync,
    {
        let bound = self.budget.preemption_bound;
        let mut stack: Vec<Node> = Vec::new();
        let mut outcome_set: HashSet<V> = HashSet::new();
        let mut rpt = CheckReport {
            interleavings: 0,
            sleep_blocked: 0,
            truncated: 0,
            forced_redundant: 0,
            bound_skips: 0,
            outcomes: Vec::new(),
            failure: None,
            complete: true,
        };

        'search: loop {
            if rpt.interleavings + rpt.sleep_blocked + rpt.truncated >= self.budget.max_executions {
                rpt.complete = false;
                break;
            }

            // ---- one execution: replay the stack prefix, extend fresh ----
            let replay_len = stack.len();
            let exec = ExecInner::new();
            let mut end = ExecEnd::Done;
            let mut clocks = DporClocks::new();
            let mut cur_sleep: HashMap<Tid, Op> = HashMap::new();
            let mut cur_prev: Option<Tid> = None;
            let mut cur_preempt: u32 = 0;

            std::thread::scope(|scope| {
                let _root = runtime::run_root(scope, Arc::clone(&exec), &f);
                let mut depth = 0usize;
                loop {
                    runtime::wait_quiescent(&exec);
                    if has_failure(&exec) {
                        end = ExecEnd::Failed;
                        break;
                    }
                    let view = snapshot(&exec);
                    if view.unfinished == 0 {
                        break;
                    }
                    if view.enabled.is_empty() {
                        record_deadlock(&exec);
                        end = ExecEnd::Failed;
                        break;
                    }
                    if depth as u64 >= self.budget.max_steps_per_execution {
                        end = ExecEnd::Truncated;
                        runtime::abort_execution(&exec);
                        break;
                    }

                    if depth >= replay_len {
                        // Fresh frontier: create the node, choosing a
                        // thread that is enabled, awake, and affordable.
                        let candidates: Vec<Tid> = view
                            .enabled
                            .iter()
                            .map(|&(t, _)| t)
                            .filter(|t| !cur_sleep.contains_key(t))
                            .filter(|&t| {
                                bound_allows(bound, cur_preempt, cur_prev, &view.enabled, t)
                            })
                            .collect();
                        // Prefer continuing the previous thread: switches
                        // are what the preemption bound rations.
                        let pick = cur_prev
                            .filter(|p| candidates.contains(p))
                            .or_else(|| candidates.first().copied());
                        let pick = match pick {
                            Some(p) => p,
                            None => {
                                // Everything affordable is asleep. Under a
                                // bound we must keep running the previous
                                // thread even though its subtree is
                                // explored (abandoning here would lose
                                // schedules the bound still admits).
                                if let Some(p) = cur_prev.filter(|&p| {
                                    bound.is_some() && view.enabled.iter().any(|&(t, _)| t == p)
                                }) {
                                    rpt.forced_redundant += 1;
                                    p
                                } else {
                                    end = ExecEnd::SleepBlocked;
                                    runtime::abort_execution(&exec);
                                    break;
                                }
                            }
                        };
                        let chosen_op = view
                            .enabled
                            .iter()
                            .find(|&&(t, _)| t == pick)
                            .expect("picked thread is enabled")
                            .1;
                        let backtrack: HashSet<Tid> = match self.mode {
                            Mode::Dpor => std::iter::once(pick).collect(),
                            Mode::FullEnumeration => view.enabled.iter().map(|&(t, _)| t).collect(),
                        };
                        stack.push(Node {
                            chosen: pick,
                            chosen_op,
                            enabled: view.enabled.clone(),
                            done: HashMap::new(),
                            backtrack,
                            sleep: cur_sleep.clone(),
                            prev: cur_prev,
                            preempt_before: cur_preempt,
                            seq: 0, // filled in below
                        });
                    }

                    let chosen = stack[depth].chosen;
                    let op = runtime::grant_step(&exec, chosen);
                    debug_assert_eq!(
                        op, stack[depth].chosen_op,
                        "deterministic replay: same choices must yield the same ops"
                    );

                    // DPOR: find the latest conflicting, possibly-co-enabled
                    // step not already ordered before this one, and plant
                    // a backtrack point at its pre-state. Steps that
                    // conflict but can never be co-enabled (an unlock vs
                    // the next acquisition) are skipped, not stopped at —
                    // the reorderable step lies behind them.
                    if self.mode == Mode::Dpor {
                        if op.obj().is_some() {
                            let target = (0..depth).rev().find(|&j| {
                                let nj = &stack[j];
                                nj.chosen != chosen
                                    && conflicts(&nj.chosen_op, &op)
                                    && may_be_coenabled(&nj.chosen_op, &op)
                                    && nj.seq > clocks.threads[chosen.0].get(nj.chosen)
                            });
                            if let Some(j) = target {
                                let conservative = bound.is_some()
                                    || !stack[j].enabled.iter().any(|&(t, _)| t == chosen);
                                let add: Vec<Tid> = if conservative {
                                    stack[j].enabled.iter().map(|&(t, _)| t).collect()
                                } else {
                                    vec![chosen]
                                };
                                stack[j].backtrack.extend(add);
                            }
                        }
                        stack[depth].seq = clocks.advance(chosen, &op);
                    }

                    // Sleep, preemption, and prev roll forward. A step
                    // wakes every sleeper whose pending op it conflicts
                    // with; previously-explored siblings at this node go
                    // to sleep for the subtree below. Sleep sets are part
                    // of the reduction — full enumeration must visit every
                    // schedule, so there they stay empty.
                    {
                        let n = &stack[depth];
                        if self.mode == Mode::Dpor {
                            let mut next_sleep = n.sleep.clone();
                            for (&t, &o) in &n.done {
                                next_sleep.insert(t, o);
                            }
                            next_sleep.retain(|_, so| !conflicts(so, &op));
                            next_sleep.remove(&chosen);
                            cur_sleep = next_sleep;
                        }
                        cur_preempt = n.preempt_before + switch_cost(n.prev, &n.enabled, chosen);
                        cur_prev = Some(chosen);
                    }
                    depth += 1;
                }
                runtime::wait_quiescent(&exec);
                runtime::drain_os_threads(&exec);
            });

            match end {
                ExecEnd::Done => {
                    rpt.interleavings += 1;
                    let mut st = exec.state.lock().unwrap();
                    if let Some(b) = st.threads[0].result.take() {
                        let v = *b.downcast::<V>().expect("root closure outcome type");
                        outcome_set.insert(v);
                    }
                }
                ExecEnd::SleepBlocked => rpt.sleep_blocked += 1,
                ExecEnd::Truncated => {
                    rpt.truncated += 1;
                    rpt.complete = false;
                }
                ExecEnd::Failed => {
                    rpt.failure = exec.state.lock().unwrap().failure.take();
                    break 'search;
                }
            }

            // ---- backtrack: deepest node with an affordable new choice ----
            loop {
                let Some(n) = stack.last_mut() else {
                    break 'search; // state space exhausted
                };
                let candidates: Vec<Tid> = n
                    .backtrack
                    .iter()
                    .copied()
                    .filter(|t| *t != n.chosen && !n.done.contains_key(t))
                    .filter(|t| !n.sleep.contains_key(t))
                    .collect();
                let next = candidates
                    .iter()
                    .copied()
                    .filter(|&t| bound_allows(bound, n.preempt_before, n.prev, &n.enabled, t))
                    .min();
                match next {
                    Some(next) => {
                        let old_op = n.chosen_op;
                        n.done.insert(n.chosen, old_op);
                        n.chosen = next;
                        n.chosen_op = n
                            .enabled
                            .iter()
                            .find(|&&(t, _)| t == next)
                            .expect("backtrack choices are enabled at their node")
                            .1;
                        break;
                    }
                    None => {
                        // Whatever remains is blocked by the bound alone.
                        rpt.bound_skips += candidates.len() as u64;
                        stack.pop();
                    }
                }
            }
        }

        rpt.outcomes = outcome_set.into_iter().collect();
        rpt
    }

    /// Re-run `f` under one specific schedule (e.g. a
    /// [`Failure::schedule`] counterexample). Steps past the end of the
    /// schedule pick the lowest enabled thread deterministically.
    ///
    /// Panics if the schedule names a thread that is not enabled at its
    /// step — schedules only replay against the program that produced
    /// them.
    pub fn replay<V, F>(&self, f: F, schedule: &[Tid]) -> ReplayReport<V>
    where
        V: Send + 'static,
        F: Fn() -> V + Sync,
    {
        let exec = ExecInner::new();
        std::thread::scope(|scope| {
            let _root = runtime::run_root(scope, Arc::clone(&exec), &f);
            let mut i = 0usize;
            loop {
                runtime::wait_quiescent(&exec);
                if has_failure(&exec) {
                    break;
                }
                let view = snapshot(&exec);
                if view.unfinished == 0 {
                    break;
                }
                if view.enabled.is_empty() {
                    record_deadlock(&exec);
                    break;
                }
                if i as u64 >= self.budget.max_steps_per_execution {
                    runtime::abort_execution(&exec);
                    break;
                }
                let chosen = match schedule.get(i) {
                    Some(&t) => {
                        assert!(
                            view.enabled.iter().any(|&(tt, _)| tt == t),
                            "replay schedule step {i}: {t} is not enabled"
                        );
                        t
                    }
                    None => view.enabled[0].0,
                };
                i += 1;
                runtime::grant_step(&exec, chosen);
            }
            runtime::wait_quiescent(&exec);
            runtime::drain_os_threads(&exec);
        });
        let mut st = exec.state.lock().unwrap();
        let failure = st.failure.take();
        let outcome = st.threads[0]
            .result
            .take()
            .and_then(|b| b.downcast::<V>().ok())
            .map(|b| *b);
        ReplayReport { outcome, failure }
    }
}

//! Exhaustive model checking of small protocol instances.
//!
//! [`ModelChecker`] performs a depth-first search over *all* schedules from
//! an initial configuration, de-duplicating configurations (two schedules
//! that lead to the same configuration explore a single subtree). On every
//! reachable configuration it checks the task's safety predicates —
//! k-agreement and validity — and, optionally, solo termination within a
//! step budget from every reachable configuration, which is precisely
//! obstruction-freedom restricted to the explored region (and for Algorithm 1
//! the paper's Lemma 8 gives the concrete budget `8(n-k)`).
//!
//! Racing-style algorithms have unbounded state spaces (lap counters grow
//! under contention), so exploration is bounded by depth and state count;
//! [`CheckReport::complete`] records whether either cutoff actually
//! discarded work. A report with `complete == true` and no
//! violation is an exhaustive proof of safety for that instance;
//! `complete == false` is a bounded certificate.
//!
//! # Architecture
//!
//! The checker is a thin client of the shared search core
//! ([`crate::engine`]): the engine owns the hot loop — discovery-time
//! dedup over packed records ([`crate::canon::DedupSet`]), parent-pointer
//! schedule arenas, copy-on-write scratch children with delta-restore, and
//! exact budget accounting — while this module contributes only the
//! checker's strategies: the [`AllRunning`] expansion policy, a LIFO
//! frontier, and a visitor that evaluates safety plus solo termination on
//! every visited configuration. The visitor's solo memo keys on the ids of
//! the node's record in the visited set, so a search keeps one identity
//! per state.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::time::Duration;

use fxhash::{FxHashMap, FxHashSet};

use crate::canon::{self, Canonicalizer, DedupSet};
use crate::config::{Configuration, SimError};
use crate::engine::{
    panic_message, AllRunning, Budget, Checkpointing, Control, CrashBounded, EdgeCtx, Engine, Lifo,
    NodeCtx, ResumeError, SearchImage, Visitor,
};
use crate::ids::{Action, ProcessId};
use crate::protocol::Protocol;
use crate::runner::{solo_run, SoloRunError};
use crate::search::ScheduleArena;
use crate::snapshot::{read_snapshot, write_snapshot, RunMeta, SnapshotError};
use crate::task::{KSetTask, TaskViolation};

/// Bounded-exhaustive schedule explorer.
#[derive(Clone, Copy, Debug)]
pub struct ModelChecker {
    /// Maximum schedule length explored from the initial configuration.
    pub max_depth: usize,
    /// Maximum number of distinct configurations visited.
    pub max_states: usize,
    /// If set, verify from every visited configuration that every running
    /// process decides within this many solo steps (obstruction-freedom).
    pub solo_budget: Option<usize>,
    /// Search the quotient state space modulo the protocol's declared
    /// symmetry group: explore one representative per orbit (sound for
    /// every property the checker tests — see [`crate::canon`]).
    pub symmetry_reduction: bool,
    /// Answer solo-termination checks without a solo run where that is
    /// sound: from a memo of the (local state, object values) pairs known to
    /// decide, keyed by their ids in the node's record in the visited set
    /// (so a memo serves one run; [`ModelChecker::check_all_inputs`] starts
    /// one per input vector), and by inheritance — at a node this run
    /// discovered through `Step(p)`, `p`'s check is the tail of the check
    /// its parent passed, and after `Crash(q)`, which changes nothing a
    /// solo run reads, every check is. Inherited checks count as
    /// [`CheckReport::solo_memo_hits`].
    /// On by default; `false` is the naive reference in which every check
    /// runs a solo run.
    pub solo_memo: bool,
    /// Crash-injection failure budget `f`: from every configuration, in
    /// addition to every running process's step, the search also takes a
    /// crash transition for every running process as long as fewer than `f`
    /// processes have crashed — so the explored space covers *every* crash
    /// pattern with at most `f` failures. `0` (the default) disables crash
    /// injection and explores exactly the failure-free space.
    pub max_failures: usize,
    /// Optional wall-clock deadline for the whole search. Expiry is
    /// graceful: the run returns a partial report with
    /// [`CheckReport::deadline_truncated`] set (never a hang, never an
    /// abort).
    pub deadline: Option<Duration>,
    /// If set, verify *wait-freedom* with this per-process step bound: from
    /// the initial configuration, every process must decide within this many
    /// of its *own* steps no matter how the other processes are scheduled
    /// — including schedules where up to `max_failures` of them crash. This
    /// is strictly stronger than the solo check (`solo_budget`), which only
    /// covers executions where the process runs alone.
    pub wait_free_bound: Option<usize>,
}

impl ModelChecker {
    /// A checker with the given depth and state bounds and no solo
    /// checking.
    pub fn new(max_depth: usize, max_states: usize) -> Self {
        ModelChecker {
            max_depth,
            max_states,
            solo_budget: None,
            symmetry_reduction: false,
            solo_memo: true,
            max_failures: 0,
            deadline: None,
            wait_free_bound: None,
        }
    }

    /// Enable solo-termination (obstruction-freedom) checking with the given
    /// per-run step budget.
    pub fn with_solo_budget(mut self, budget: usize) -> Self {
        self.solo_budget = Some(budget);
        self
    }

    /// Search the quotient space modulo the protocol's declared symmetry
    /// group ([`Protocol::symmetry`]): visited-set membership is decided per
    /// *orbit*, so permuted twins of an explored configuration are never
    /// re-explored. Verdicts are unchanged (the checked properties are
    /// renaming-invariant and witness schedules remain real schedules);
    /// state counts shrink by up to the group order.
    pub fn with_symmetry_reduction(mut self) -> Self {
        self.symmetry_reduction = true;
        self
    }

    /// Disable the (sound, default-on) solo-outcome memo and verdict
    /// inheritance ([`ModelChecker::solo_memo`]): every solo-termination
    /// check runs a solo run and [`CheckReport::solo_memo_hits`] stays `0`.
    /// The naive reference for A/B measurement and differential tests.
    pub fn without_solo_memo(mut self) -> Self {
        self.solo_memo = false;
        self
    }

    /// Enable exhaustive crash injection with failure budget `f`: the
    /// search additionally takes, from every configuration with fewer than
    /// `f` crashed processes, a crash transition for each running process.
    /// Witness schedules then interleave steps and crashes ([`Action`]).
    pub fn with_max_failures(mut self, f: usize) -> Self {
        self.max_failures = f;
        self
    }

    /// Bound the whole check by wall-clock time; see
    /// [`ModelChecker::deadline`].
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enable wait-freedom checking with the given per-process own-step
    /// bound; see [`ModelChecker::wait_free_bound`]. Crash adversaries obey
    /// [`ModelChecker::max_failures`] (and never crash the process under
    /// test — a crashed process trivially takes no more steps).
    pub fn with_wait_free_bound(mut self, bound: usize) -> Self {
        self.wait_free_bound = Some(bound);
        self
    }

    /// Explore all schedules from the initial configuration for `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if the initial configuration cannot be constructed (bad inputs
    /// are a usage error in test code).
    pub fn check<P: Protocol>(&self, protocol: &P, inputs: &[u64]) -> CheckReport {
        self.run_engine(protocol, inputs, None, None)
            .expect("fresh runs cannot fail to resume")
    }

    /// The single engine-driving core behind [`ModelChecker::check`],
    /// [`ModelChecker::check_paused`], [`ModelChecker::resume`], and the
    /// snapshot-file entry points: build dedup/arena/visitor, run (or
    /// resume) the engine under the configured crash and time budgets, then
    /// — if the safety sweep finished uninterrupted and clean — run the
    /// wait-freedom product search.
    fn run_engine<P: Protocol>(
        &self,
        protocol: &P,
        inputs: &[u64],
        resume_from: Option<&SearchImage>,
        ckpt: Option<Checkpointing<'_>>,
    ) -> Result<CheckReport, ResumeError> {
        let initial =
            Configuration::initial(protocol, inputs).expect("model checker requires valid inputs");
        // Pre-size the visited set toward the state budget (clamped: tiny
        // protocols should not pay megabytes up front).
        let capacity = self.max_states.min(1 << 14);
        let mut visited: DedupSet<P> = if self.symmetry_reduction {
            DedupSet::reduced(Canonicalizer::for_inputs(protocol, inputs), capacity)
        } else {
            DedupSet::exact(capacity)
        };
        let mut arena = ScheduleArena::new();
        let mut visitor = CheckVisitor {
            task: protocol.task(),
            inputs,
            solo_budget: self.solo_budget,
            solo_memo: self.solo_memo,
            // A resumed run continues the image's arena: nodes below its
            // length were entered by another run, perhaps with another
            // solo budget, so nothing is inherited there.
            first_new_node: resume_from.map_or(0, |image| image.arena.len()),
            decides: FxHashSet::default(),
            solo_scratch: None,
            solo_checks: 0,
            solo_memo_hits: 0,
            violation: None,
        };
        let mut engine = Engine::new(Budget::new(self.max_depth, self.max_states));
        if let Some(deadline) = self.deadline {
            engine = engine.with_deadline(deadline);
        }
        // `f = 0` makes `CrashBounded` the identity wrapper, so the
        // failure-free checker takes this same path.
        let mut expansion = CrashBounded::new(AllRunning, self.max_failures);
        let stats = match resume_from {
            None => engine.run_with(
                protocol,
                initial.clone(),
                &mut visited,
                &mut arena,
                &mut expansion,
                &mut Lifo::new(),
                &mut visitor,
                ckpt,
            ),
            Some(image) => engine.resume(
                protocol,
                initial.clone(),
                image,
                &mut visited,
                &mut arena,
                &mut expansion,
                &mut Lifo::new(),
                &mut visitor,
                ckpt,
            )?,
        };
        let mut violation = visitor.violation;
        let mut complete = stats.complete();
        // Wait-freedom runs only once the safety sweep ran to its natural
        // end (an interrupted run re-checks it after the resumed leg, so
        // the final verdict is identical either way).
        if violation.is_none() && !stats.deadline_truncated && !stats.paused {
            if let Some(bound) = self.wait_free_bound {
                let (wf_violation, wf_complete) = wait_free_counterexample(
                    protocol,
                    &initial,
                    bound,
                    self.max_failures,
                    self.max_states,
                );
                violation = wf_violation;
                complete &= wf_complete;
            }
        }
        Ok(CheckReport {
            states: stats.states,
            terminal_states: stats.terminal_states,
            complete,
            deepest: stats.deepest,
            peak_frontier: stats.peak_frontier,
            symmetry_group: visited.group_order(),
            symmetry_degraded: visited.degraded(),
            solo_checks: visitor.solo_checks,
            solo_memo_hits: visitor.solo_memo_hits,
            deadline_truncated: stats.deadline_truncated,
            paused: stats.paused,
            violation,
        })
    }

    /// [`ModelChecker::check`] that pauses itself after roughly
    /// `pause_after` visited states, returning the partial report and the
    /// in-memory [`SearchImage`] to hand to [`ModelChecker::resume`]. If the
    /// search finishes before the first snapshot fires, the image is `None`
    /// and the report is final.
    pub fn check_paused<P: Protocol>(
        &self,
        protocol: &P,
        inputs: &[u64],
        pause_after: usize,
    ) -> (CheckReport, Option<SearchImage>) {
        let mut image = None;
        let mut sink = |img: &SearchImage| {
            image = Some(img.clone());
            Control::Stop
        };
        let report = self
            .run_engine(
                protocol,
                inputs,
                None,
                Some(Checkpointing {
                    interval: pause_after,
                    sink: &mut sink,
                }),
            )
            .expect("fresh runs cannot fail to resume");
        if report.paused {
            (report, image)
        } else {
            // Finished before the first snapshot (or exactly at it): the
            // report is already final, no resume needed.
            (report, None)
        }
    }

    /// Resume a check from an in-memory [`SearchImage`] (produced by
    /// [`ModelChecker::check_paused`] or a [`Checkpointing`] sink) and run
    /// it to the end. The final report has full parity with an
    /// uninterrupted [`ModelChecker::check`]: identical verdict and
    /// identical state counts.
    ///
    /// # Errors
    ///
    /// [`ResumeError`] if the image is internally inconsistent or does not
    /// belong to this checker's parameters.
    pub fn resume<P: Protocol>(
        &self,
        protocol: &P,
        inputs: &[u64],
        image: &SearchImage,
    ) -> Result<CheckReport, ResumeError> {
        self.run_engine(protocol, inputs, Some(image), None)
    }

    /// The [`RunMeta`] identifying this checker's run over `protocol` and
    /// `inputs` — written into every snapshot and verified on resume.
    fn run_meta<P: Protocol>(&self, protocol: &P, inputs: &[u64]) -> RunMeta {
        RunMeta {
            protocol_name: protocol.name().to_string(),
            inputs: inputs.to_vec(),
            max_depth: self.max_depth as u64,
            max_states: self.max_states as u64,
            symmetry_reduction: self.symmetry_reduction,
            solo_budget: self.solo_budget.map_or(u64::MAX, |b| b as u64),
            max_failures: self.max_failures as u64,
        }
    }

    /// [`ModelChecker::check`] that writes a checksummed snapshot file to
    /// `path` every `interval` visited states (and once more on deadline
    /// expiry), so a killed process can pick up from the last snapshot with
    /// [`ModelChecker::resume_from_file`]. Snapshot writes are atomic
    /// (write-to-temp, fsync, rename) — a crash mid-write never corrupts an
    /// existing snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] if a snapshot write fails (the search itself still
    /// runs to completion; the error is reported afterwards).
    pub fn check_with_snapshot_file<P: Protocol>(
        &self,
        protocol: &P,
        inputs: &[u64],
        path: &Path,
        interval: usize,
    ) -> Result<CheckReport, SnapshotError> {
        let meta = self.run_meta(protocol, inputs);
        self.run_with_snapshot_file(protocol, inputs, &meta, None, path, interval)
    }

    /// Resume a check from a snapshot file written by
    /// [`ModelChecker::check_with_snapshot_file`], continuing to snapshot to
    /// the same `path`. The stored [`RunMeta`] must match this checker's
    /// parameters; mismatches, corruption, version skew, and internally
    /// inconsistent images are all rejected with a typed error — never a
    /// panic, never a silent wrong verdict.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] for file/bytes-layer failures and meta mismatches;
    /// semantic [`ResumeError`]s surface as [`SnapshotError::Corrupt`].
    pub fn resume_from_file<P: Protocol>(
        &self,
        protocol: &P,
        inputs: &[u64],
        path: &Path,
        interval: usize,
    ) -> Result<CheckReport, SnapshotError> {
        let (stored, image) = read_snapshot(path)?;
        let meta = self.run_meta(protocol, inputs);
        stored.ensure_matches(&meta)?;
        self.run_with_snapshot_file(protocol, inputs, &meta, Some(&image), path, interval)
    }

    /// The snapshot-file core of [`ModelChecker::check_with_snapshot_file`]
    /// and [`ModelChecker::resume_from_file`]: run (or resume) the engine,
    /// writing `meta` and the current image to `path` every `interval`
    /// visited states. The first write error is reported after the search
    /// ends; later snapshots are skipped.
    fn run_with_snapshot_file<P: Protocol>(
        &self,
        protocol: &P,
        inputs: &[u64],
        meta: &RunMeta,
        resume_from: Option<&SearchImage>,
        path: &Path,
        interval: usize,
    ) -> Result<CheckReport, SnapshotError> {
        let mut write_error = None;
        let mut sink = |img: &SearchImage| {
            if write_error.is_none() {
                if let Err(e) = write_snapshot(path, meta, img) {
                    write_error = Some(e);
                }
            }
            Control::Continue
        };
        let report = self
            .run_engine(
                protocol,
                inputs,
                resume_from,
                Some(Checkpointing {
                    interval,
                    sink: &mut sink,
                }),
            )
            .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        match write_error {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Check every input assignment of the protocol's task (all `m^n`
    /// vectors; under symmetry reduction, one representative per input-orbit
    /// — validity and agreement are invariant under the protocol's declared
    /// renamings, so the skipped vectors cannot change the verdict). Returns
    /// the first failing report, or the last successful one with aggregate
    /// counts. Each vector is a [`ModelChecker::check`] of its own, so the
    /// solo memo starts empty for each: its keys are ids in one run's
    /// visited set.
    pub fn check_all_inputs<P: Protocol>(&self, protocol: &P) -> CheckReport {
        let task = protocol.task();
        let symmetry = protocol.symmetry();
        let mut aggregate = CheckReport {
            states: 0,
            terminal_states: 0,
            complete: true,
            deepest: 0,
            peak_frontier: 0,
            symmetry_group: 1,
            symmetry_degraded: false,
            solo_checks: 0,
            solo_memo_hits: 0,
            deadline_truncated: false,
            paused: false,
            violation: None,
        };
        let mut inputs = vec![0u64; task.n];
        loop {
            if !self.symmetry_reduction || canon::inputs_are_canonical(&symmetry, &inputs) {
                let report = self.check(protocol, &inputs);
                aggregate.states += report.states;
                aggregate.terminal_states += report.terminal_states;
                aggregate.complete &= report.complete;
                aggregate.deepest = aggregate.deepest.max(report.deepest);
                aggregate.peak_frontier = aggregate.peak_frontier.max(report.peak_frontier);
                aggregate.symmetry_group = aggregate.symmetry_group.max(report.symmetry_group);
                aggregate.symmetry_degraded |= report.symmetry_degraded;
                aggregate.solo_checks += report.solo_checks;
                aggregate.solo_memo_hits += report.solo_memo_hits;
                aggregate.deadline_truncated |= report.deadline_truncated;
                aggregate.paused |= report.paused;
                if report.violation.is_some() {
                    aggregate.violation = report.violation;
                    return aggregate;
                }
            }
            // Advance the input vector like an odometer in base m.
            let mut i = 0;
            loop {
                if i == task.n {
                    return aggregate;
                }
                inputs[i] += 1;
                if inputs[i] < task.m {
                    break;
                }
                inputs[i] = 0;
                i += 1;
            }
        }
    }
}

/// The model checker's per-state strategy: safety predicates on every
/// visited configuration, plus the (memoized) solo-termination check.
struct CheckVisitor<'a, P: Protocol> {
    task: KSetTask,
    inputs: &'a [u64],
    solo_budget: Option<usize>,
    solo_memo: bool,
    /// Arena length when this run started: nodes from here on were
    /// discovered, and their parents entered, by this run.
    first_new_node: usize,
    /// The solo runs known to decide, each as the `(status id of p, objects
    /// id)` pair read from its node's record in the visited set. The pair
    /// names `p`'s local state and the object values, the complete
    /// determinant of `p`'s solo run, so a hit is sound by construction.
    /// Only deciding runs are recorded: any other outcome ends the search.
    decides: FxHashSet<(u32, u32)>,
    /// Scratch configuration recycled between hypothetical solo runs.
    solo_scratch: Option<Configuration<P>>,
    solo_checks: usize,
    solo_memo_hits: usize,
    violation: Option<FoundViolation>,
}

impl<P: Protocol> CheckVisitor<'_, P> {
    /// The violation `config` exhibits, if any: first the safety predicates
    /// on the configuration, then (when `solo_budget` is set) the
    /// obstruction-freedom check — every running process decides solo.
    ///
    /// With the memo on, a check is answered without a solo run in two
    /// sound ways. *Inheritance*: the engine enters a node before it pushes
    /// the node's children, so a node this run discovered through
    /// `Step(p)` has a parent whose check for `p` passed; `p`'s solo run
    /// from here is the tail of that run and decides within one step
    /// fewer. Through `Crash(q)` no running state and no object changed, so
    /// every check passed at the parent. *The memo*: a solo outcome depends
    /// only on the process's local state and the object values, which the
    /// node's record in the visited set names by id, and `decides` holds
    /// the id pairs known to decide. A node without a record (a root the
    /// set already held) runs its checks. Misses run on the recycled
    /// scratch configuration, with the engine's panic isolation:
    /// a panicking protocol becomes a [`ViolationKind::Internal`] violation
    /// and the poisoned scratch is dropped. Under [`AllRunning`] the step
    /// candidates are exactly the running processes; crash candidates
    /// injected by [`CrashBounded`] are skipped — a crashed process has no
    /// solo run to check.
    fn violation_kind(
        &mut self,
        protocol: &P,
        config: &Configuration<P>,
        ctx: &NodeCtx<'_>,
        candidates: &[Action],
    ) -> Option<ViolationKind> {
        if let Err(v) = self
            .task
            .check_decisions(self.inputs, config.decisions_iter())
        {
            return Some(ViolationKind::Task(v));
        }
        let budget = self.solo_budget?;
        let inherited = if self.solo_memo && ctx.node.to_raw() as usize >= self.first_new_node {
            ctx.action()
        } else {
            None
        };
        let record = ctx.record().filter(|_| self.solo_memo);
        for pid in candidates.iter().filter_map(|a| match *a {
            Action::Step(p) => Some(p),
            Action::Crash(_) => None,
        }) {
            self.solo_checks += 1;
            if matches!(inherited, Some(Action::Crash(_))) || inherited == Some(Action::Step(pid)) {
                self.solo_memo_hits += 1;
                continue;
            }
            let key = record.map(|r| (r[1 + pid.index()], r[0]));
            if key.is_some_and(|key| self.decides.contains(&key)) {
                self.solo_memo_hits += 1;
                continue;
            }
            let scratch = match &mut self.solo_scratch {
                Some(s) => {
                    s.clone_state_from(config);
                    s
                }
                None => self.solo_scratch.insert(config.clone()),
            };
            let run = match panic::catch_unwind(AssertUnwindSafe(|| {
                solo_run(protocol, scratch, pid, budget)
            })) {
                Ok(run) => run,
                Err(payload) => {
                    // The panicking step may have half-mutated the scratch:
                    // poisoned, drop it.
                    self.solo_scratch = None;
                    Err(SoloRunError::Sim(SimError::Panicked {
                        process: pid,
                        message: panic_message(payload),
                    }))
                }
            };
            match run {
                Ok(_) => {
                    if let Some(key) = key {
                        self.decides.insert(key);
                    }
                }
                Err(SoloRunError::BudgetExhausted { .. }) => {
                    return Some(ViolationKind::SoloTermination { pid, budget })
                }
                Err(e) => return Some(ViolationKind::Internal(e.to_string())),
            }
        }
        None
    }
}

impl<P: Protocol> Visitor<P> for CheckVisitor<'_, P> {
    fn enter(
        &mut self,
        protocol: &P,
        config: &Configuration<P>,
        ctx: &NodeCtx<'_>,
        candidates: &[Action],
    ) -> Control {
        let Some(kind) = self.violation_kind(protocol, config, ctx, candidates) else {
            return Control::Continue;
        };
        // The witness schedule is materialized only now, on the cold path.
        self.violation = Some(FoundViolation {
            kind,
            schedule: ctx.actions(),
        });
        Control::Stop
    }

    fn step_error(&mut self, _protocol: &P, error: SimError, ctx: &mut EdgeCtx<'_>) -> Control {
        // The simulator rejected a step (or the protocol panicked inside
        // it, surfaced as [`SimError::Panicked`] by the engine's
        // isolation): a protocol bug, reported with the schedule that
        // reaches it.
        self.violation = Some(FoundViolation {
            kind: ViolationKind::Internal(error.to_string()),
            schedule: ctx.actions(),
        });
        Control::Stop
    }
}

/// Result of a model-checking run.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Distinct configurations visited.
    pub states: usize,
    /// Configurations in which every process has decided.
    pub terminal_states: usize,
    /// `true` if no depth or state cutoff discarded work: the search
    /// was exhaustive. Draining the stack *exactly* at the state budget
    /// without skipping anything still counts as exhaustive.
    pub complete: bool,
    /// Length of the longest schedule explored.
    pub deepest: usize,
    /// Largest pending-frontier size observed (memory high-water mark).
    pub peak_frontier: usize,
    /// Order of the symmetry group the visited set deduplicated by (1 = no
    /// reduction; `states` then counts orbits, not raw configurations).
    pub symmetry_group: usize,
    /// Whether the dedup group is a **degraded subgroup** of the protocol's
    /// declared symmetry — the declaration exceeded
    /// [`MAX_GROUP_ORDER`](crate::canon::MAX_GROUP_ORDER) (a maximal
    /// subgroup under the cap was kept) or was inconsistent with the
    /// instance (trivial group). The verdict stays sound either way; the
    /// flag exists so a declared-but-lost reduction is reported instead of
    /// silently running wider than declared.
    pub symmetry_degraded: bool,
    /// Solo-termination checks made: one per running process at each
    /// entered node when a solo budget is set, however it was answered.
    pub solo_checks: usize,
    /// Solo-termination checks answered without a solo run: from the run's
    /// memo, or inherited from the parent's check
    /// ([`ModelChecker::solo_memo`]). At most `solo_checks`; `0` with the
    /// memo off.
    pub solo_memo_hits: usize,
    /// The wall-clock deadline expired with work still pending. Recoverable
    /// with checkpoint/resume, unlike the hard budget cutoffs.
    pub deadline_truncated: bool,
    /// A checkpoint sink paused the run ([`ModelChecker::check_paused`]);
    /// hand the returned image to [`ModelChecker::resume`] to finish.
    pub paused: bool,
    /// The first violation found, if any, with a witnessing schedule.
    pub violation: Option<FoundViolation>,
}

impl CheckReport {
    /// Whether the check passed (no violation found).
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }

    /// Whether the check passed *and* explored the full reachable space.
    /// (State dedup is always exact, so a complete passing run is a proof.)
    pub fn proves_safety(&self) -> bool {
        self.passed() && self.complete
    }

    /// Whether two runs reached the same *verdict*: same pass/fail, same
    /// exhaustiveness, and (when violating) the same kind of violation.
    /// State counts are deliberately excluded — a symmetry-reduced run
    /// explores fewer states by design; the point is that it concludes the
    /// same thing.
    pub fn same_verdict(&self, other: &CheckReport) -> bool {
        self.passed() == other.passed()
            && self.complete == other.complete
            && match (&self.violation, &other.violation) {
                (None, None) => true,
                (Some(a), Some(b)) => {
                    std::mem::discriminant(&a.kind) == std::mem::discriminant(&b.kind)
                }
                _ => false,
            }
    }

    /// Whether two runs made the same search: the same states, terminal
    /// states, deepest schedule, peak frontier, completeness and solo
    /// checks, and the same first violation with the same witness. This
    /// holds between runs that differ only in how they answer solo checks
    /// (the memo on or off); [`CheckReport::solo_memo_hits`] is excluded,
    /// since it counts how checks were answered, not what was checked.
    pub fn same_search(&self, other: &CheckReport) -> bool {
        self.states == other.states
            && self.terminal_states == other.terminal_states
            && self.deepest == other.deepest
            && self.peak_frontier == other.peak_frontier
            && self.complete == other.complete
            && self.solo_checks == other.solo_checks
            && self.violation == other.violation
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states ({} terminal), deepest schedule {}, {}{}{}",
            self.states,
            self.terminal_states,
            self.deepest,
            match (&self.violation, self.complete) {
                (Some(v), _) => format!("VIOLATION: {v}"),
                (None, true) => "exhaustive, no violations".to_string(),
                (None, false) if self.paused => "paused (resumable), no violations".to_string(),
                (None, false) if self.deadline_truncated => {
                    "deadline expired (resumable), no violations".to_string()
                }
                (None, false) => "bounded (cutoff hit), no violations".to_string(),
            },
            if self.symmetry_group > 1 {
                format!(" [symmetry-reduced /{}]", self.symmetry_group)
            } else {
                String::new()
            },
            if self.symmetry_degraded {
                " [symmetry-degraded: only a subgroup of the declared group applied]"
            } else {
                ""
            }
        )
    }
}

/// A violation discovered by the model checker, with the schedule that
/// reaches the violating configuration from the initial one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FoundViolation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// The witnessing schedule from the initial configuration: steps and —
    /// under crash injection — crash transitions (`†p` in debug output).
    /// Replay it with [`crate::runner::replay_actions`].
    pub schedule: Vec<Action>,
}

impl fmt::Display for FoundViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} via schedule {:?}", self.kind, self.schedule)
    }
}

/// Kinds of model-checking violations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A task safety predicate failed (agreement or validity).
    Task(TaskViolation),
    /// A process failed to decide within the solo budget
    /// (obstruction-freedom violation within the explored region).
    SoloTermination {
        /// The stuck process.
        pid: ProcessId,
        /// The exhausted budget.
        budget: usize,
    },
    /// A process can be kept undecided past its wait-freedom bound by a
    /// schedule of the *other* processes (possibly crashing some of them):
    /// the protocol is not wait-free with this bound. The witnessing
    /// schedule is minimal in length (BFS order).
    WaitFree {
        /// The starved process.
        pid: ProcessId,
        /// The own-step bound it exceeded without deciding.
        bound: usize,
    },
    /// The simulator rejected a step (protocol bug, e.g. schema violation).
    Internal(String),
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::Task(v) => write!(f, "task violation: {v}"),
            ViolationKind::SoloTermination { pid, budget } => {
                write!(f, "{pid} did not decide within {budget} solo steps")
            }
            ViolationKind::WaitFree { pid, bound } => {
                write!(
                    f,
                    "{pid} kept undecided beyond {bound} of its own steps (not wait-free)"
                )
            }
            ViolationKind::Internal(msg) => write!(f, "internal: {msg}"),
        }
    }
}

/// Exhaustive wait-freedom check for one instance: for every process `p`,
/// search the product space of (configuration, number of own steps `p` has
/// taken while undecided) under the full adversary — any running process may
/// step, and any running process other than `p` may crash while fewer than
/// `max_failures` have crashed. A state where `p` is still undecided after
/// `bound` own steps is a counterexample; reaching `p`'s decision prunes the
/// branch. BFS order makes the returned witness schedule minimal in length.
///
/// Soundness of the pruning: whether `p` can be starved from a
/// configuration depends only on the configuration and on how many own
/// steps `p` has already spent, and more spent steps is strictly worse for
/// `p` — so per configuration only the *maximum* `j` seen needs expanding
/// (max-`j` dominance), in a map keyed by the configuration itself (hash
/// quality never decides the verdict).
///
/// This search runs past the safety sweep's depth horizon, so it isolates
/// protocol faults the way the engine does: a step the simulator rejects,
/// or one whose protocol code panics, is a [`ViolationKind::Internal`]
/// violation with the schedule through the failing action.
///
/// Returns the first counterexample (or `None`) plus a completeness flag:
/// `false` means the `max_states` budget cut the product search short and a
/// clean verdict is only a bounded certificate.
fn wait_free_counterexample<P: Protocol>(
    protocol: &P,
    initial: &Configuration<P>,
    bound: usize,
    max_failures: usize,
    max_states: usize,
) -> (Option<FoundViolation>, bool) {
    let n = initial.num_processes();
    let mut complete = true;
    let mut visited_total = 0usize;
    for p in (0..n).map(ProcessId) {
        if initial.decision(p).is_some() {
            continue;
        }
        // Dominance map: config -> max own-steps seen.
        let mut seen: FxHashMap<Configuration<P>, usize> = FxHashMap::default();
        let mut arena = ScheduleArena::new();
        let mut queue: VecDeque<(Configuration<P>, usize, crate::search::NodeId)> = VecDeque::new();
        queue.push_back((initial.clone(), 0, ScheduleArena::ROOT));
        seen.insert(initial.clone(), 0);
        let mut running = Vec::new();
        while let Some((config, own, node)) = queue.pop_front() {
            visited_total += 1;
            if visited_total > max_states {
                complete = false;
                break;
            }
            if config.decision(p).is_some() {
                continue; // `p` decided on this branch: wait-freedom held.
            }
            if own >= bound {
                return (
                    Some(FoundViolation {
                        kind: ViolationKind::WaitFree { pid: p, bound },
                        schedule: arena.actions(node),
                    }),
                    complete,
                );
            }
            config.running_into(&mut running);
            let crash_allowed = config.num_crashed() < max_failures;
            let internal = |arena: &mut ScheduleArena, action: Action, error: SimError| {
                let failing = arena.child_action(node, action);
                Some(FoundViolation {
                    kind: ViolationKind::Internal(error.to_string()),
                    schedule: arena.actions(failing),
                })
            };
            for &q in &running {
                let mut child = config.clone();
                let stepped =
                    panic::catch_unwind(AssertUnwindSafe(|| child.step_quiet(protocol, q)))
                        .unwrap_or_else(|payload| {
                            Err(SimError::Panicked {
                                process: q,
                                message: panic_message(payload),
                            })
                        });
                match stepped {
                    Err(e) => return (internal(&mut arena, Action::Step(q), e), complete),
                    // `p` just decided: nothing left to starve.
                    Ok(Some(_)) if q == p => continue,
                    Ok(_) => {}
                }
                let own_after = own + usize::from(q == p);
                if dominates_insert(&mut seen, &child, own_after) {
                    let child_node = arena.child(node, q);
                    queue.push_back((child, own_after, child_node));
                }
                if crash_allowed && q != p {
                    let mut crashed = config.clone();
                    if let Err(e) = crashed.crash(q) {
                        return (internal(&mut arena, Action::Crash(q), e), complete);
                    }
                    if dominates_insert(&mut seen, &crashed, own) {
                        let crash_node = arena.child_action(node, Action::Crash(q));
                        queue.push_back((crashed, own, crash_node));
                    }
                }
            }
        }
    }
    (None, complete)
}

/// Insert `(config, own)` into the wait-free dominance map unless an entry
/// with the same configuration and `own' >= own` is already present.
/// Returns whether the entry was new (i.e. worth expanding).
fn dominates_insert<P: Protocol>(
    seen: &mut FxHashMap<Configuration<P>, usize>,
    config: &Configuration<P>,
    own: usize,
) -> bool {
    if let Some(max_own) = seen.get_mut(config) {
        if *max_own >= own {
            return false;
        }
        *max_own = own;
        return true;
    }
    seen.insert(config.clone(), own);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{SelfishConsensus, TwoProcessSwapConsensus};

    #[test]
    fn two_process_consensus_is_exhaustively_safe() {
        let report = ModelChecker::new(10, 10_000)
            .with_solo_budget(4)
            .check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(report.proves_safety(), "{report}");
        assert!(report.terminal_states > 0);
    }

    #[test]
    fn two_process_consensus_all_inputs() {
        // 16^2 input vectors, each fully explored.
        let report = ModelChecker::new(10, 10_000).check_all_inputs(&TwoProcessSwapConsensus);
        assert!(report.proves_safety(), "{report}");
    }

    #[test]
    fn selfish_consensus_caught_with_witness() {
        let report = ModelChecker::new(10, 10_000).check(&SelfishConsensus { n: 2 }, &[0, 1]);
        assert!(report.to_string().contains("VIOLATION"));
        let violation = report
            .violation
            .expect("must catch the agreement violation");
        assert!(matches!(
            violation.kind,
            ViolationKind::Task(TaskViolation::Agreement { .. })
        ));
        assert!(!violation.schedule.is_empty());
    }

    #[test]
    fn selfish_consensus_with_equal_inputs_passes() {
        // With equal inputs the broken protocol cannot disagree.
        let report = ModelChecker::new(10, 10_000).check(&SelfishConsensus { n: 2 }, &[1, 1]);
        assert!(report.proves_safety(), "{report}");
    }

    #[test]
    fn cutoffs_mark_report_incomplete() {
        let report = ModelChecker::new(1, 10_000).check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(report.passed());
        assert!(!report.complete, "depth 1 cannot cover 2-step executions");
        assert!(!report.proves_safety());
    }

    #[test]
    fn exact_state_budget_is_still_exhaustive() {
        // Calibrate: how many states does the full space have?
        let full = ModelChecker::new(10, 10_000).check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(full.proves_safety(), "{full}");
        // A budget of exactly that many states drains the stack at the
        // bound without skipping anything: the verdict must stay
        // "exhaustive", not a spurious "bounded".
        let exact = ModelChecker::new(10, full.states).check(&TwoProcessSwapConsensus, &[0, 1]);
        assert_eq!(exact.states, full.states);
        assert!(
            exact.complete,
            "search that drains exactly at the bound is exhaustive: {exact}"
        );
        // One state fewer genuinely truncates.
        let under = ModelChecker::new(10, full.states - 1).check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(!under.complete, "{under}");
        assert!(under.states < full.states);
    }

    #[test]
    fn state_dedup_keeps_counts_small() {
        // Both schedules of the 2-process protocol converge; visited-state
        // dedup should keep the total tiny.
        let report = ModelChecker::new(10, 10_000).check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(report.states <= 8, "states = {}", report.states);
        // Both children of the initial configuration wait on the stack.
        assert_eq!(report.peak_frontier, 2, "{report}");
    }

    #[test]
    fn symmetry_reduction_same_verdict_fewer_states() {
        // The hand-computable orbit count: TwoProcessSwapConsensus from
        // [0, 1] reaches 5 configurations — initial, two mids (one process
        // decided), two terminals (winner 0 or winner 1). The swap-both
        // renaming pairs up the mids and pairs up the terminals, so the
        // quotient has 3 orbits.
        let full = ModelChecker::new(10, 10_000).check(&TwoProcessSwapConsensus, &[0, 1]);
        let reduced = ModelChecker::new(10, 10_000)
            .with_symmetry_reduction()
            .check(&TwoProcessSwapConsensus, &[0, 1]);
        assert_eq!(full.states, 5, "{full}");
        assert_eq!(reduced.states, 3, "{reduced}");
        assert_eq!(reduced.symmetry_group, 2);
        assert!(full.same_verdict(&reduced));
        assert!(reduced.proves_safety(), "{reduced}");
        // Unanimous inputs: one terminal only (4 full states), mids still
        // pair up — 3 orbits again.
        let full = ModelChecker::new(10, 10_000).check(&TwoProcessSwapConsensus, &[5, 5]);
        let reduced = ModelChecker::new(10, 10_000)
            .with_symmetry_reduction()
            .check(&TwoProcessSwapConsensus, &[5, 5]);
        assert_eq!((full.states, reduced.states), (4, 3));
        assert!(full.same_verdict(&reduced));
    }

    #[test]
    fn symmetry_reduction_collapses_input_orbits() {
        // 16^2 = 256 input vectors; modulo process + value renaming exactly
        // two orbits remain ([0,0] and [0,1]).
        let full = ModelChecker::new(10, 10_000).check_all_inputs(&TwoProcessSwapConsensus);
        let reduced = ModelChecker::new(10, 10_000)
            .with_symmetry_reduction()
            .check_all_inputs(&TwoProcessSwapConsensus);
        assert!(full.same_verdict(&reduced));
        assert!(reduced.proves_safety(), "{reduced}");
        assert_eq!(reduced.states, 3 + 3, "two input orbits, three orbits each");
        assert!(full.states >= 40 * reduced.states, "{full} vs {reduced}");
    }

    #[test]
    fn symmetry_reduction_still_catches_violations() {
        let full = ModelChecker::new(10, 10_000).check(&SelfishConsensus { n: 2 }, &[0, 1]);
        let reduced = ModelChecker::new(10, 10_000)
            .with_symmetry_reduction()
            .check(&SelfishConsensus { n: 2 }, &[0, 1]);
        assert!(full.same_verdict(&reduced), "{full} vs {reduced}");
        let violation = reduced.violation.expect("agreement violation");
        assert!(matches!(
            violation.kind,
            ViolationKind::Task(TaskViolation::Agreement { .. })
        ));
        // The witness schedule is a REAL schedule: replaying it from the
        // initial configuration reproduces the violation.
        let mut replay = Configuration::initial(&SelfishConsensus { n: 2 }, &[0, 1]).unwrap();
        crate::runner::replay_actions(&SelfishConsensus { n: 2 }, &mut replay, &violation.schedule)
            .unwrap();
        assert_eq!(replay.decided_values().len(), 2, "violation reproduced");
    }

    #[test]
    fn over_cap_declaration_is_reported_not_silent() {
        // SelfishConsensus at n=8 declares S8 x S2 (order 80640), far over
        // MAX_GROUP_ORDER. The checker must degrade to a subgroup under the
        // cap (the S7 prefix, order 5040) and *say so* in the report — a
        // silently-unreduced run would look identical to a reduced one on a
        // passing verdict.
        let p = SelfishConsensus { n: 8 };
        let inputs = [1u64; 8];
        let full = ModelChecker::new(10, 10_000).check(&p, &inputs);
        let reduced = ModelChecker::new(10, 10_000)
            .with_symmetry_reduction()
            .check(&p, &inputs);
        assert!(reduced.symmetry_degraded, "{reduced}");
        assert_eq!(reduced.symmetry_group, 5040, "{reduced}");
        assert!(
            reduced.to_string().contains("symmetry-degraded"),
            "{reduced}"
        );
        // The degraded subgroup is still a genuine symmetry: same verdict,
        // fewer states than the unreduced run.
        assert!(full.same_verdict(&reduced), "{full} vs {reduced}");
        assert!(reduced.proves_safety(), "{reduced}");
        assert!(reduced.states < full.states, "{full} vs {reduced}");
        // Violations survive the degrade too.
        let bad = ModelChecker::new(10, 10_000)
            .with_symmetry_reduction()
            .check(&p, &[0, 1, 1, 1, 1, 1, 1, 1]);
        assert!(bad.symmetry_degraded);
        assert!(bad.violation.is_some(), "{bad}");
        // An undegraded protocol never sets the flag.
        let clean = ModelChecker::new(10, 10_000)
            .with_symmetry_reduction()
            .check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(!clean.symmetry_degraded, "{clean}");
    }

    /// `TwoProcessSwapConsensus` declaring one class of three processes
    /// for its two: a declaration inconsistent with the instance.
    struct MisdeclaredTwoProcess;

    impl Protocol for MisdeclaredTwoProcess {
        type State = <TwoProcessSwapConsensus as Protocol>::State;
        type Value = <TwoProcessSwapConsensus as Protocol>::Value;

        fn name(&self) -> String {
            "two-process consensus declaring three processes".into()
        }

        fn task(&self) -> KSetTask {
            TwoProcessSwapConsensus.task()
        }

        fn num_objects(&self) -> usize {
            TwoProcessSwapConsensus.num_objects()
        }

        fn schema(&self, obj: crate::ObjectId) -> swapcons_objects::ObjectSchema {
            TwoProcessSwapConsensus.schema(obj)
        }

        fn initial_value(&self, obj: crate::ObjectId) -> Self::Value {
            TwoProcessSwapConsensus.initial_value(obj)
        }

        fn initial_state(&self, pid: ProcessId, input: u64) -> Self::State {
            TwoProcessSwapConsensus.initial_state(pid, input)
        }

        fn poised(
            &self,
            state: &Self::State,
        ) -> (crate::ObjectId, swapcons_objects::ObjectOp<Self::Value>) {
            TwoProcessSwapConsensus.poised(state)
        }

        fn observe(
            &self,
            state: Self::State,
            response: swapcons_objects::Response<Self::Value>,
        ) -> crate::Transition<Self::State> {
            TwoProcessSwapConsensus.observe(state, response)
        }

        fn symmetry(&self) -> crate::Symmetry {
            crate::Symmetry::full_process(3)
        }
    }

    #[test]
    fn inconsistent_declaration_tag_does_not_blame_the_cap() {
        // The declaration names a process the instance does not have, so
        // the group drops to trivial — degraded, but no cap is involved.
        let p = MisdeclaredTwoProcess;
        let full = ModelChecker::new(10, 10_000).check(&p, &[0, 1]);
        let reduced = ModelChecker::new(10, 10_000)
            .with_symmetry_reduction()
            .check(&p, &[0, 1]);
        assert_eq!(reduced.symmetry_group, 1, "{reduced}");
        assert!(reduced.symmetry_degraded, "{reduced}");
        assert_eq!((full.states, reduced.states), (5, 5));
        let shown = reduced.to_string();
        assert!(shown.contains("symmetry-degraded"), "{shown}");
        assert!(!shown.contains("cap"), "{shown}");
    }

    #[test]
    fn complete_passing_run_proves_safety() {
        let exact = ModelChecker::new(10, 10_000).check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(exact.proves_safety(), "{exact}");
    }

    #[test]
    fn solo_memo_hits_accumulate_without_changing_the_verdict() {
        // Equal inputs give both processes identical (state, objects) keys,
        // so the second solo check of every configuration is a memo hit.
        let with_memo = ModelChecker::new(10, 10_000)
            .with_solo_budget(4)
            .check(&TwoProcessSwapConsensus, &[1, 1]);
        let without = ModelChecker::new(10, 10_000)
            .with_solo_budget(4)
            .without_solo_memo()
            .check(&TwoProcessSwapConsensus, &[1, 1]);
        assert!(
            with_memo.same_search(&without),
            "{with_memo:?} vs {without:?}"
        );
        assert!(with_memo.solo_memo_hits > 0, "{with_memo}");
        assert!(with_memo.solo_memo_hits <= with_memo.solo_checks);
        assert_eq!(without.solo_memo_hits, 0);
        // A memoized run still catches solo violations.
        let stuck = ModelChecker::new(10, 10_000)
            .with_solo_budget(0)
            .check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(matches!(
            stuck.violation.as_ref().map(|v| &v.kind),
            Some(ViolationKind::SoloTermination { .. })
        ));
    }

    #[test]
    fn crash_children_inherit_every_solo_check() {
        // From [0, 1] the root checks both processes and each of the two
        // mid configurations the process that did not step: 4 checks, none
        // answered without a run (new states, new object vector). f = 1
        // adds the two crash children, whose one check each is inherited:
        // a crash changes no running state and no object.
        let checks = |f| {
            let r = ModelChecker::new(10, 10_000)
                .with_solo_budget(4)
                .with_max_failures(f)
                .check(&TwoProcessSwapConsensus, &[0, 1]);
            assert!(r.proves_safety(), "{r}");
            (r.solo_checks, r.solo_memo_hits)
        };
        assert_eq!(checks(0), (4, 0));
        assert_eq!(checks(1), (6, 2));
        // Without a budget nothing is checked.
        let unchecked = ModelChecker::new(10, 10_000).check(&TwoProcessSwapConsensus, &[0, 1]);
        assert_eq!(unchecked.solo_checks, 0);
    }

    #[test]
    fn panicking_solo_run_is_an_internal_violation() {
        // The root's solo check runs before the engine steps anything, so
        // only the checker's own isolation stands between a panicking
        // protocol and the caller.
        use crate::testing::PanickingConsensus;
        for checker in [
            ModelChecker::new(10, 10_000).with_solo_budget(4),
            ModelChecker::new(10, 10_000)
                .with_solo_budget(4)
                .without_solo_memo(),
        ] {
            let report = checker.check(&PanickingConsensus, &[0, 1]);
            let v = report.violation.expect("the panic must be reported");
            match &v.kind {
                ViolationKind::Internal(msg) => {
                    assert!(msg.contains("p0 panicked: injected protocol bug"), "{msg}");
                }
                other => panic!("expected an internal violation, got {other}"),
            }
            assert!(v.schedule.is_empty(), "found at the root: {v}");
        }
    }

    #[test]
    fn solo_budget_violation_detected() {
        // With a budget of 0 steps, nobody can decide: every configuration
        // with a running process violates the solo check.
        let report = ModelChecker::new(10, 10_000)
            .with_solo_budget(0)
            .check(&TwoProcessSwapConsensus, &[0, 1]);
        let v = report.violation.expect("budget 0 must be violated");
        assert!(matches!(
            v.kind,
            ViolationKind::SoloTermination { budget: 0, .. }
        ));
    }

    #[test]
    fn crash_injection_explores_strictly_more_states() {
        // With f = 1 the search additionally reaches every configuration
        // with one crashed process; with f = 0 it is exactly the
        // failure-free search.
        let plain = ModelChecker::new(10, 10_000).check(&TwoProcessSwapConsensus, &[0, 1]);
        let crashy = ModelChecker::new(10, 10_000)
            .with_max_failures(1)
            .check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(plain.proves_safety() && crashy.proves_safety());
        assert!(
            crashy.states > plain.states,
            "crash patterns must add states: {} vs {}",
            crashy.states,
            plain.states
        );
        let zero = ModelChecker::new(10, 10_000)
            .with_max_failures(0)
            .check(&TwoProcessSwapConsensus, &[0, 1]);
        assert_eq!(zero.states, plain.states, "f = 0 is the identity");
    }

    #[test]
    fn crash_injection_with_symmetry_reduction_has_verdict_parity() {
        let full = ModelChecker::new(10, 10_000)
            .with_max_failures(1)
            .with_solo_budget(4)
            .check(&TwoProcessSwapConsensus, &[0, 1]);
        let reduced = ModelChecker::new(10, 10_000)
            .with_max_failures(1)
            .with_solo_budget(4)
            .with_symmetry_reduction()
            .check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(full.same_verdict(&reduced), "{full} vs {reduced}");
        assert!(reduced.proves_safety(), "{reduced}");
        assert!(
            reduced.states < full.states,
            "crashed-set-aware renamings still reduce: {full} vs {reduced}"
        );
    }

    #[test]
    fn crash_violation_witness_replays_with_actions() {
        // The broken protocol still violates agreement under crash
        // injection, and the witness — an Action schedule, possibly with
        // crash transitions — replays to the violation.
        let report = ModelChecker::new(10, 50_000)
            .with_max_failures(1)
            .check(&SelfishConsensus { n: 2 }, &[0, 1]);
        let violation = report.violation.expect("agreement violation");
        let mut replay = Configuration::initial(&SelfishConsensus { n: 2 }, &[0, 1]).unwrap();
        crate::runner::replay_actions(&SelfishConsensus { n: 2 }, &mut replay, &violation.schedule)
            .unwrap();
        assert_eq!(replay.decided_values().len(), 2, "violation reproduced");
    }

    #[test]
    fn two_process_consensus_is_wait_free_even_under_a_crash() {
        // The paper's base fact: one swap object solves 2-process
        // consensus *wait-free* — every process decides within exactly one
        // of its own steps under any schedule and any single crash.
        let report = ModelChecker::new(10, 10_000)
            .with_max_failures(1)
            .with_wait_free_bound(1)
            .check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(report.proves_safety(), "{report}");
    }

    #[test]
    fn wait_free_bound_zero_is_immediately_violated() {
        // Degenerate pin of the semantics: with a bound of 0 own steps,
        // the initial configuration itself is the (empty-schedule, minimal)
        // counterexample for the first undecided process.
        let report = ModelChecker::new(10, 10_000)
            .with_wait_free_bound(0)
            .check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(report.to_string().contains("not wait-free"), "{report}");
        let v = report.violation.expect("bound 0 must be violated");
        match &v.kind {
            ViolationKind::WaitFree { pid, bound } => {
                assert_eq!((*pid, *bound), (ProcessId(0), 0));
            }
            other => panic!("expected a wait-freedom violation, got {other}"),
        }
        assert!(v.schedule.is_empty(), "BFS witness is minimal");
    }

    #[test]
    fn wait_free_search_reports_a_panicking_step() {
        // Depth 0 keeps the safety sweep at the root, so only the
        // wait-freedom search steps the protocol.
        use crate::testing::PanickingConsensus;
        let report = ModelChecker::new(0, 100)
            .with_wait_free_bound(3)
            .check(&PanickingConsensus, &[0, 1]);
        let v = report.violation.expect("the panic must be reported");
        match &v.kind {
            ViolationKind::Internal(msg) => {
                assert!(msg.contains("p0 panicked: injected protocol bug"), "{msg}");
            }
            other => panic!("expected an internal violation, got {other}"),
        }
        assert_eq!(v.schedule, [Action::Step(ProcessId(0))]);
    }

    /// [`SelfishConsensus`] declared over a swap object it only reads: the
    /// simulator rejects every step with a schema error.
    struct ReadsASwap;

    impl Protocol for ReadsASwap {
        type State = <SelfishConsensus as Protocol>::State;
        type Value = u64;

        fn name(&self) -> String {
            "reads a swap object".into()
        }

        fn task(&self) -> KSetTask {
            KSetTask::consensus(2)
        }

        fn num_objects(&self) -> usize {
            1
        }

        fn schema(&self, _obj: crate::ObjectId) -> swapcons_objects::ObjectSchema {
            swapcons_objects::ObjectSchema::swap()
        }

        fn initial_value(&self, obj: crate::ObjectId) -> u64 {
            SelfishConsensus { n: 2 }.initial_value(obj)
        }

        fn initial_state(&self, pid: ProcessId, input: u64) -> Self::State {
            SelfishConsensus { n: 2 }.initial_state(pid, input)
        }

        fn poised(
            &self,
            state: &Self::State,
        ) -> (crate::ObjectId, swapcons_objects::ObjectOp<u64>) {
            SelfishConsensus { n: 2 }.poised(state)
        }

        fn observe(
            &self,
            state: Self::State,
            response: swapcons_objects::Response<u64>,
        ) -> crate::Transition<Self::State> {
            SelfishConsensus { n: 2 }.observe(state, response)
        }
    }

    #[test]
    fn wait_free_search_reports_a_schema_error() {
        let report = ModelChecker::new(0, 100)
            .with_wait_free_bound(3)
            .check(&ReadsASwap, &[0, 1]);
        let v = report.violation.expect("the schema error must be reported");
        match &v.kind {
            ViolationKind::Internal(msg) => {
                assert!(msg.contains("p0 violated schema of"), "{msg}");
            }
            other => panic!("expected an internal violation, got {other}"),
        }
        assert_eq!(v.schedule, [Action::Step(ProcessId(0))]);
    }

    #[test]
    fn zero_deadline_reports_resumable_truncation() {
        let report = ModelChecker::new(10, 10_000)
            .with_deadline(Duration::ZERO)
            .check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(report.passed());
        assert!(report.deadline_truncated, "{report}");
        assert!(!report.complete);
        assert!(!report.proves_safety());
        assert!(report.to_string().contains("deadline expired"), "{report}");
    }

    #[test]
    fn checker_pause_and_resume_have_verdict_and_count_parity() {
        let checker = ModelChecker::new(10, 10_000)
            .with_solo_budget(4)
            .with_max_failures(1);
        let baseline = checker.check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(baseline.proves_safety(), "{baseline}");
        let (partial, image) = checker.check_paused(&TwoProcessSwapConsensus, &[0, 1], 2);
        assert!(partial.paused, "{partial}");
        assert!(partial.states < baseline.states);
        assert!(partial.to_string().contains("paused"), "{partial}");
        let image = image.expect("paused run must yield an image");
        let resumed = checker
            .resume(&TwoProcessSwapConsensus, &[0, 1], &image)
            .unwrap();
        assert!(baseline.same_verdict(&resumed), "{baseline} vs {resumed}");
        assert_eq!(resumed.states, baseline.states, "state-count parity");
        assert_eq!(resumed.terminal_states, baseline.terminal_states);
        assert_eq!(resumed.deepest, baseline.deepest);
        assert!(resumed.proves_safety(), "{resumed}");
    }

    #[test]
    fn checker_pause_and_resume_parity_under_symmetry_reduction() {
        // The subtle half of the parity guarantee: resuming re-inserts the
        // discovered configurations in discovery order, so the quotient
        // search picks the same orbit representatives and the resumed
        // verdict and orbit counts match the uninterrupted run exactly.
        let checker = ModelChecker::new(10, 10_000)
            .with_max_failures(1)
            .with_symmetry_reduction();
        let baseline = checker.check(&TwoProcessSwapConsensus, &[0, 1]);
        let (partial, image) = checker.check_paused(&TwoProcessSwapConsensus, &[0, 1], 2);
        assert!(partial.paused);
        let resumed = checker
            .resume(&TwoProcessSwapConsensus, &[0, 1], &image.unwrap())
            .unwrap();
        assert_eq!(resumed.states, baseline.states);
        assert!(baseline.same_verdict(&resumed));
        assert_eq!(resumed.symmetry_group, baseline.symmetry_group);
    }

    #[test]
    fn snapshot_file_checkpointing_and_file_resume() {
        let dir = std::env::temp_dir().join(format!("swck-explore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checker.swck");
        let checker = ModelChecker::new(10, 10_000).with_max_failures(1);
        let baseline = checker.check(&TwoProcessSwapConsensus, &[0, 1]);
        let filed = checker
            .check_with_snapshot_file(&TwoProcessSwapConsensus, &[0, 1], &path, 2)
            .unwrap();
        assert!(baseline.same_verdict(&filed));
        assert_eq!(filed.states, baseline.states);
        assert!(path.exists(), "snapshots were written");
        // Resuming from the last on-disk snapshot re-runs the tail and
        // reaches the identical verdict and counts.
        let resumed = checker
            .resume_from_file(&TwoProcessSwapConsensus, &[0, 1], &path, 2)
            .unwrap();
        assert!(baseline.same_verdict(&resumed));
        assert_eq!(resumed.states, baseline.states);
        // A checker with different parameters refuses the snapshot.
        let other = ModelChecker::new(10, 9_999).with_max_failures(1);
        let err = other
            .resume_from_file(&TwoProcessSwapConsensus, &[0, 1], &path, 2)
            .unwrap_err();
        assert!(matches!(err, SnapshotError::MetaMismatch(_)), "got {err:?}");
        // So does one over different inputs.
        let err = checker
            .resume_from_file(&TwoProcessSwapConsensus, &[1, 0], &path, 2)
            .unwrap_err();
        assert!(matches!(err, SnapshotError::MetaMismatch(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_pid_is_a_typed_resume_error() {
        let dir = std::env::temp_dir().join(format!("swck-badpid-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checker.swck");
        let checker = ModelChecker::new(10, 10_000).with_max_failures(1);
        let (_, image) = checker.check_paused(&TwoProcessSwapConsensus, &[0, 1], 2);
        let mut image = image.expect("pauses before the end");
        // A well-formed arena edge naming p5 in a two-process run.
        let bad = image.arena.child(ScheduleArena::ROOT, ProcessId(5));
        image.frontier.push(bad);
        let err = checker
            .resume(&TwoProcessSwapConsensus, &[0, 1], &image)
            .unwrap_err();
        assert!(err.reason.contains("2 processes"), "{err}");
        write_snapshot(
            &path,
            &checker.run_meta(&TwoProcessSwapConsensus, &[0, 1]),
            &image,
        )
        .unwrap();
        let err = checker
            .resume_from_file(&TwoProcessSwapConsensus, &[0, 1], &path, 2)
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "got {err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutated_snapshots_with_valid_checksums_never_panic_resume() {
        // The checksum guards against accidental damage only: an edited
        // payload re-wrapped with a fresh checksum reaches the decoder and
        // the engine. Every such image must resume or fail with a typed
        // error — never panic.
        use crate::snapshot::{from_snapshot_bytes, to_snapshot_bytes};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let p = SelfishConsensus { n: 3 };
        let inputs = [1, 1, 1];
        let checker = ModelChecker::new(10, 10_000)
            .with_solo_budget(2)
            .with_max_failures(1);
        let (_, image) = checker.check_paused(&p, &inputs, 4);
        let bytes = to_snapshot_bytes(
            &checker.run_meta(&p, &inputs),
            &image.expect("pauses before the end"),
        );
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let (mut decoded, mut panics) = (0, 0);
        for _ in 0..4_000 {
            let mut payload = bytes[24..].to_vec();
            for _ in 0..rng.gen_range(1..5) {
                let at = rng.gen_range(0..payload.len());
                payload[at] = rng.gen_range(0..256u64) as u8;
            }
            let mut mutated = bytes[..16].to_vec();
            mutated.extend_from_slice(&fxhash::hash64(&payload).to_le_bytes());
            mutated.extend_from_slice(&payload);
            let Ok((_, image)) = from_snapshot_bytes(&mutated) else {
                continue;
            };
            decoded += 1;
            let resumed = std::panic::catch_unwind(|| checker.resume(&p, &inputs, &image));
            panics += usize::from(resumed.is_err());
        }
        assert!(decoded > 1_000, "too few mutants decoded: {decoded}");
        assert_eq!(panics, 0, "{panics} of {decoded} decoded mutants panicked");
    }
}

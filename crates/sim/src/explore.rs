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
//! under contention), so exploration is bounded by depth, state count, and
//! (optionally) frontier size; [`CheckReport::complete`] records whether any
//! cutoff actually discarded work. A report with `complete == true` and no
//! violation is an exhaustive proof of safety for that instance;
//! `complete == false` is a bounded certificate.
//!
//! # Architecture
//!
//! The checker is a thin client of the shared search core
//! ([`crate::engine`]): the engine owns the hot loop — fingerprint-keyed
//! discovery-time dedup ([`crate::canon::DedupSet`]), parent-pointer
//! schedule arenas, copy-on-write scratch children with delta-restore, and
//! exact budget accounting — while this module contributes only the
//! checker's strategies: the [`AllRunning`] expansion policy, a LIFO
//! frontier, and a visitor that evaluates safety plus (memoized) solo
//! termination on every visited configuration.

use std::collections::VecDeque;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use crate::canon::{self, Canonicalizer, DedupSet};
use crate::config::Configuration;
use crate::engine::{
    AllRunning, Budget, Checkpointing, Control, CrashBounded, EdgeCtx, Engine, Fifo, Lifo, NodeCtx,
    ResumeError, SearchImage, SearchStats, Visitor,
};
use crate::ids::{Action, ProcessId};
use crate::protocol::Protocol;
use crate::runner::{solo_run, SoloRunError};
use crate::search::{PrehashedMap, ScheduleArena};
use crate::shard::{run_sharded, ShardOptions, ShardVisitor, StripedDedup, WitnessRef};
use crate::snapshot::{read_snapshot, write_snapshot, RunMeta, SnapshotError};
use crate::task::{KSetTask, TaskViolation};

/// Bounded-exhaustive schedule explorer.
#[derive(Clone, Copy, Debug)]
pub struct ModelChecker {
    /// Maximum schedule length explored from the initial configuration.
    pub max_depth: usize,
    /// Maximum number of distinct configurations visited.
    pub max_states: usize,
    /// Maximum DFS frontier (pending-stack) size; exceeding it drops the
    /// would-be children and marks the report incomplete, bounding memory
    /// even when `max_states` alone would not.
    pub max_frontier: usize,
    /// If set, verify from every visited configuration that every running
    /// process decides within this many solo steps (obstruction-freedom).
    pub solo_budget: Option<usize>,
    /// Search the quotient state space modulo the protocol's declared
    /// symmetry group: explore one representative per orbit (sound for
    /// every property the checker tests — see [`crate::canon`]).
    pub symmetry_reduction: bool,
    /// Memoize solo-termination outcomes keyed on (local state, object
    /// values) — sound, on by default; disable for A/B measurement.
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
    /// Worker threads for the safety sweep. `1` (the default) runs the
    /// sequential engine; `t > 1` runs the work-stealing sharded driver
    /// ([`crate::shard`]) with **verdict parity**: identical pass/fail and
    /// — on complete searches — identical state counts, in both exact and
    /// symmetry-reduced modes. Resumed legs always run sequentially (in
    /// FIFO order, preserving the sharded run's wave discipline), so a
    /// checkpointed sharded run finishes to the same report.
    pub threads: usize,
}

impl ModelChecker {
    /// A checker with the given depth and state bounds, an unbounded
    /// frontier, and no solo checking.
    pub fn new(max_depth: usize, max_states: usize) -> Self {
        ModelChecker {
            max_depth,
            max_states,
            max_frontier: usize::MAX,
            solo_budget: None,
            symmetry_reduction: false,
            solo_memo: true,
            max_failures: 0,
            deadline: None,
            wait_free_bound: None,
            threads: 1,
        }
    }

    /// Enable solo-termination (obstruction-freedom) checking with the given
    /// per-run step budget.
    pub fn with_solo_budget(mut self, budget: usize) -> Self {
        self.solo_budget = Some(budget);
        self
    }

    /// Bound the DFS frontier: at most `frontier` configurations pending at
    /// once. Searches that hit the bound degrade predictably — they finish
    /// with `complete == false` instead of growing memory without limit.
    pub fn with_frontier_budget(mut self, frontier: usize) -> Self {
        self.max_frontier = frontier;
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

    /// Disable the (sound, default-on) solo-outcome memo — for A/B
    /// measurement of the memo itself.
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

    /// Shard the safety sweep across `threads` workers; see
    /// [`ModelChecker::threads`]. `1` restores the sequential engine.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is `0` or exceeds
    /// [`MAX_THREADS`](crate::shard::MAX_THREADS).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(
            (1..=crate::shard::MAX_THREADS).contains(&threads),
            "thread count must be in 1..={}",
            crate::shard::MAX_THREADS
        );
        self.threads = threads;
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
        let mut memo = SoloMemo::new();
        self.check_with_memo(protocol, inputs, &mut memo)
    }

    /// [`ModelChecker::check`] with a caller-provided solo memo, so
    /// [`ModelChecker::check_all_inputs`] shares one memo across every input
    /// vector (solo outcomes depend only on local state and object values,
    /// never on the input vector).
    fn check_with_memo<P: Protocol>(
        &self,
        protocol: &P,
        inputs: &[u64],
        memo: &mut SoloMemo<P>,
    ) -> CheckReport {
        self.run_engine(protocol, inputs, memo, None, None)
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
        memo: &mut SoloMemo<P>,
        resume_from: Option<&SearchImage>,
        ckpt: Option<Checkpointing<'_>>,
    ) -> Result<CheckReport, ResumeError> {
        let initial =
            Configuration::initial(protocol, inputs).expect("model checker requires valid inputs");
        let (stats, sweep_violation, solo_memo_hits, symmetry_group, symmetry_degraded) =
            if self.threads > 1 && resume_from.is_none() {
                self.sharded_sweep(protocol, inputs, &initial, memo, ckpt)
            } else {
                // Pre-size the visited set toward the state budget (clamped:
                // tiny protocols should not pay megabytes up front).
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
                    memo,
                    solo_scratch: None,
                    solo_memo_hits: 0,
                    violation: None,
                };
                let mut engine = Engine::new(Budget {
                    max_depth: self.max_depth,
                    max_states: self.max_states,
                    max_frontier: self.max_frontier,
                });
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
                    // A resumed sharded image is a depth-ordered wave snapshot:
                    // finishing it in FIFO order preserves the min-depth
                    // discovery invariant, so the completed report matches an
                    // uninterrupted sharded run. Resume itself stays sequential.
                    Some(image) if self.threads > 1 => engine.resume(
                        protocol,
                        initial.clone(),
                        image,
                        &mut visited,
                        &mut arena,
                        &mut expansion,
                        &mut Fifo::new(),
                        &mut visitor,
                        ckpt,
                    )?,
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
                (
                    stats,
                    visitor.violation,
                    visitor.solo_memo_hits,
                    visited.group_order(),
                    visited.degraded(),
                )
            };
        let mut violation = sweep_violation;
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
            symmetry_group,
            symmetry_degraded,
            solo_memo_hits,
            deadline_truncated: stats.deadline_truncated,
            paused: stats.paused,
            violation,
        })
    }

    /// The work-stealing leg of [`ModelChecker::run_engine`]: shard the
    /// safety sweep across `self.threads` workers over a [`StripedDedup`]
    /// built from the same dedup template the sequential path would use.
    /// Each worker carries its own checker visitor layered over the shared
    /// solo-termination memo; after the join, worker memos fold back into
    /// the caller's memo, hit counters are summed, and the reported
    /// violation is the deterministic minimum across workers (kind rank,
    /// then schedule length, then lexicographic schedule).
    fn sharded_sweep<P: Protocol>(
        &self,
        protocol: &P,
        inputs: &[u64],
        initial: &Configuration<P>,
        memo: &mut SoloMemo<P>,
        ckpt: Option<Checkpointing<'_>>,
    ) -> (SearchStats, Option<FoundViolation>, usize, usize, bool) {
        let capacity = self.max_states.min(1 << 14);
        let template: DedupSet<P> = if self.symmetry_reduction {
            DedupSet::reduced(Canonicalizer::for_inputs(protocol, inputs), capacity)
        } else {
            DedupSet::exact(capacity)
        };
        // More stripes than workers keeps lock contention low without
        // affecting results (stripe assignment is a pure function of the
        // fingerprint, so the partition is deterministic).
        let striped = StripedDedup::new(template, (self.threads * 8).min(64), self.max_states);
        let mut visitors: Vec<ShardCheckVisitor<'_, P>> = (0..self.threads)
            .map(|_| ShardCheckVisitor {
                task: protocol.task(),
                inputs,
                solo_budget: self.solo_budget,
                solo_memo: self.solo_memo,
                cache: LayeredMemo {
                    base: &*memo,
                    local: SoloMemo::new(),
                },
                solo_scratch: None,
                solo_memo_hits: 0,
                violation: None,
            })
            .collect();
        let opts = ShardOptions {
            threads: self.threads,
            budget: Budget {
                max_depth: self.max_depth,
                max_states: self.max_states,
                max_frontier: self.max_frontier,
            },
            deadline: self.deadline,
        };
        let stats = run_sharded(
            protocol,
            initial.clone(),
            &striped,
            &opts,
            || CrashBounded::new(AllRunning, self.max_failures),
            &mut visitors,
            ckpt,
        );
        let group_order = striped.group_order();
        let group_degraded = striped.degraded();
        let mut hits = 0;
        let mut violation: Option<FoundViolation> = None;
        let mut locals = Vec::with_capacity(visitors.len());
        for worker in visitors {
            hits += worker.solo_memo_hits;
            violation = merge_violations(violation, worker.violation);
            locals.push(worker.cache.local);
        }
        for local in locals {
            memo.merge(local);
        }
        (stats, violation, hits, group_order, group_degraded)
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
        let mut memo = SoloMemo::new();
        let mut image = None;
        let mut sink = |img: &SearchImage| {
            image = Some(img.clone());
            Control::Stop
        };
        let report = self
            .run_engine(
                protocol,
                inputs,
                &mut memo,
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
        let mut memo = SoloMemo::new();
        self.run_engine(protocol, inputs, &mut memo, Some(image), None)
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
        let mut memo = SoloMemo::new();
        let mut write_error = None;
        let mut sink = |img: &SearchImage| {
            if write_error.is_none() {
                if let Err(e) = write_snapshot(path, &meta, img) {
                    write_error = Some(e);
                }
            }
            Control::Continue
        };
        let report = self
            .run_engine(
                protocol,
                inputs,
                &mut memo,
                None,
                Some(Checkpointing {
                    interval,
                    sink: &mut sink,
                }),
            )
            .expect("fresh runs cannot fail to resume");
        match write_error {
            Some(e) => Err(e),
            None => Ok(report),
        }
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
        let (meta, image) = read_snapshot(path)?;
        meta.ensure_matches(&self.run_meta(protocol, inputs))?;
        let current = self.run_meta(protocol, inputs);
        let mut memo = SoloMemo::new();
        let mut write_error = None;
        let mut sink = |img: &SearchImage| {
            if write_error.is_none() {
                if let Err(e) = write_snapshot(path, &current, img) {
                    write_error = Some(e);
                }
            }
            Control::Continue
        };
        let report = self
            .run_engine(
                protocol,
                inputs,
                &mut memo,
                Some(&image),
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
    /// counts.
    pub fn check_all_inputs<P: Protocol>(&self, protocol: &P) -> CheckReport {
        let task = protocol.task();
        let symmetry = protocol.symmetry();
        let mut memo = SoloMemo::new();
        let mut aggregate = CheckReport {
            states: 0,
            terminal_states: 0,
            complete: true,
            deepest: 0,
            peak_frontier: 0,
            symmetry_group: 1,
            symmetry_degraded: false,
            solo_memo_hits: 0,
            deadline_truncated: false,
            paused: false,
            violation: None,
        };
        let mut inputs = vec![0u64; task.n];
        loop {
            if !self.symmetry_reduction || canon::inputs_are_canonical(&symmetry, &inputs) {
                let report = self.check_with_memo(protocol, &inputs, &mut memo);
                aggregate.states += report.states;
                aggregate.terminal_states += report.terminal_states;
                aggregate.complete &= report.complete;
                aggregate.deepest = aggregate.deepest.max(report.deepest);
                aggregate.peak_frontier = aggregate.peak_frontier.max(report.peak_frontier);
                aggregate.symmetry_group = aggregate.symmetry_group.max(report.symmetry_group);
                aggregate.symmetry_degraded |= report.symmetry_degraded;
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
    memo: &'a mut SoloMemo<P>,
    /// Scratch configuration recycled between hypothetical solo runs.
    solo_scratch: Option<Configuration<P>>,
    solo_memo_hits: usize,
    violation: Option<FoundViolation>,
}

impl<P: Protocol> Visitor<P> for CheckVisitor<'_, P> {
    fn enter(
        &mut self,
        protocol: &P,
        config: &Configuration<P>,
        ctx: &NodeCtx<'_>,
        candidates: &[Action],
    ) -> Control {
        if let Some(v) = evaluate_state(
            &self.task,
            self.inputs,
            self.solo_budget,
            self.solo_memo,
            protocol,
            config,
            candidates,
            &mut *self.memo,
            &mut self.solo_scratch,
            &mut self.solo_memo_hits,
            &mut || ctx.actions(),
        ) {
            self.violation = Some(v);
            return Control::Stop;
        }
        Control::Continue
    }

    fn step_error(
        &mut self,
        _protocol: &P,
        error: crate::config::SimError,
        ctx: &mut EdgeCtx<'_>,
    ) -> Control {
        // The simulator rejected a step (or the protocol panicked inside
        // it, surfaced as [`crate::config::SimError::Panicked`] by the
        // engine's isolation): a protocol bug, reported with the schedule
        // that reaches it.
        self.violation = Some(FoundViolation {
            kind: ViolationKind::Internal(error.to_string()),
            schedule: ctx.actions(),
        });
        Control::Stop
    }
}

/// Per-worker strategy for the sharded sweep: the same per-state checks as
/// [`CheckVisitor`], with witnesses materialized from the sharded arenas
/// and solo-memo traffic routed through a thread-local [`LayeredMemo`].
struct ShardCheckVisitor<'a, P: Protocol> {
    task: KSetTask,
    inputs: &'a [u64],
    solo_budget: Option<usize>,
    solo_memo: bool,
    cache: LayeredMemo<'a, P>,
    solo_scratch: Option<Configuration<P>>,
    solo_memo_hits: usize,
    violation: Option<FoundViolation>,
}

impl<P: Protocol> ShardVisitor<P> for ShardCheckVisitor<'_, P> {
    fn enter(
        &mut self,
        protocol: &P,
        config: &Configuration<P>,
        witness: &WitnessRef<'_>,
        candidates: &[Action],
    ) -> Control {
        if let Some(v) = evaluate_state(
            &self.task,
            self.inputs,
            self.solo_budget,
            self.solo_memo,
            protocol,
            config,
            candidates,
            &mut self.cache,
            &mut self.solo_scratch,
            &mut self.solo_memo_hits,
            &mut || witness.actions(),
        ) {
            self.violation = Some(v);
            return Control::Stop;
        }
        Control::Continue
    }

    fn step_error(
        &mut self,
        _protocol: &P,
        error: crate::config::SimError,
        witness: &WitnessRef<'_>,
    ) -> Control {
        // Same contract as the sequential visitor's `step_error`.
        self.violation = Some(FoundViolation {
            kind: ViolationKind::Internal(error.to_string()),
            schedule: witness.actions(),
        });
        Control::Stop
    }
}

/// Per-state evaluation shared by the sequential and sharded checker
/// visitors.
///
/// First the safety predicates on the configuration, then (when
/// `solo_budget` is set) the obstruction-freedom check: every running
/// process decides solo. The solo outcome depends only on the process's
/// local state and the object values, so it is memoized on exactly that
/// key (with the visited sets' exact-fallback discipline); misses run on
/// the recycled scratch configuration, not a fresh clone. Under
/// [`AllRunning`] the step candidates are exactly the running processes;
/// crash candidates injected by [`CrashBounded`] are skipped — a crashed
/// process has no solo run to check. `witness` materializes the reaching
/// schedule only when a violation is actually reported.
#[allow(clippy::too_many_arguments)]
fn evaluate_state<P: Protocol>(
    task: &KSetTask,
    inputs: &[u64],
    solo_budget: Option<usize>,
    use_memo: bool,
    protocol: &P,
    config: &Configuration<P>,
    candidates: &[Action],
    cache: &mut dyn SoloCache<P>,
    solo_scratch: &mut Option<Configuration<P>>,
    solo_memo_hits: &mut usize,
    witness: &mut dyn FnMut() -> Vec<Action>,
) -> Option<FoundViolation> {
    if let Err(v) = task.check_decisions(inputs, config.decisions_iter()) {
        return Some(FoundViolation {
            kind: ViolationKind::Task(v),
            schedule: witness(),
        });
    }
    if let Some(budget) = solo_budget {
        for pid in candidates.iter().filter_map(|a| match *a {
            Action::Step(p) => Some(p),
            Action::Crash(_) => None,
        }) {
            let state = config.state(pid).expect("running implies a state");
            let outcome = match use_memo.then(|| cache.lookup(state, config)).flatten() {
                Some(cached) => {
                    *solo_memo_hits += 1;
                    cached
                }
                None => {
                    let scratch = match solo_scratch {
                        Some(s) => {
                            s.clone_state_from(config);
                            s
                        }
                        None => solo_scratch.insert(config.clone()),
                    };
                    let outcome = match solo_run(protocol, scratch, pid, budget) {
                        Ok(_) => SoloVerdict::Decides,
                        Err(SoloRunError::BudgetExhausted { .. }) => SoloVerdict::Stuck,
                        Err(e) => SoloVerdict::Error(Arc::from(e.to_string().as_str())),
                    };
                    if use_memo {
                        cache.store(state.clone(), config, outcome.clone());
                    }
                    outcome
                }
            };
            match outcome {
                SoloVerdict::Decides => {}
                SoloVerdict::Stuck => {
                    return Some(FoundViolation {
                        kind: ViolationKind::SoloTermination { pid, budget },
                        schedule: witness(),
                    });
                }
                SoloVerdict::Error(msg) => {
                    return Some(FoundViolation {
                        kind: ViolationKind::Internal(msg.to_string()),
                        schedule: witness(),
                    });
                }
            }
        }
    }
    None
}

/// Deterministically pick between two candidate violations: kind rank
/// (task violations strongest), then schedule length, then lexicographic
/// comparison of the schedules. Sharded workers race to different
/// witnesses; this merge makes the reported one independent of thread
/// scheduling whenever the same set of violations is found.
fn merge_violations(
    a: Option<FoundViolation>,
    b: Option<FoundViolation>,
) -> Option<FoundViolation> {
    fn kind_rank(kind: &ViolationKind) -> u8 {
        match kind {
            ViolationKind::Task(_) => 0,
            ViolationKind::SoloTermination { .. } => 1,
            ViolationKind::WaitFree { .. } => 2,
            ViolationKind::Internal(_) => 3,
        }
    }
    fn schedule_key(schedule: &[Action]) -> Vec<(bool, usize)> {
        schedule
            .iter()
            .map(|a| (matches!(a, Action::Crash(_)), a.pid().0))
            .collect()
    }
    match (a, b) {
        (None, other) | (other, None) => other,
        (Some(x), Some(y)) => {
            let keep_x = (
                kind_rank(&x.kind),
                x.schedule.len(),
                schedule_key(&x.schedule),
            ) <= (
                kind_rank(&y.kind),
                y.schedule.len(),
                schedule_key(&y.schedule),
            );
            Some(if keep_x { x } else { y })
        }
    }
}

/// Memoized outcome of one solo run.
#[derive(Clone, Debug, PartialEq, Eq)]
enum SoloVerdict {
    /// Decided within the budget.
    Decides,
    /// Exhausted the budget (an obstruction-freedom violation within the
    /// explored region).
    Stuck,
    /// The simulator rejected a step (protocol bug); shared message.
    Error(Arc<str>),
}

/// Memo of solo-run outcomes keyed on `(local state, object values)` — the
/// complete determinants of a solo execution (the paper's solo runs read
/// nothing else), so the cache is sound by construction. Same discipline as
/// the visited sets: an FxHash fingerprint selects a bucket, exact equality
/// on the key decides a hit, so correctness never rests on hash quality.
/// Object vectors are stored as copy-on-write handles (refcount bumps, no
/// value copies).
/// One memo entry: the solo-determining key plus the cached verdict.
type SoloMemoEntry<P> = (
    <P as Protocol>::State,
    Arc<[<P as Protocol>::Value]>,
    SoloVerdict,
);

struct SoloMemo<P: Protocol> {
    buckets: PrehashedMap<Vec<SoloMemoEntry<P>>>,
}

impl<P: Protocol> SoloMemo<P> {
    fn new() -> Self {
        SoloMemo {
            buckets: PrehashedMap::default(),
        }
    }

    fn key(state: &P::State, config: &Configuration<P>) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = fxhash::FxHasher::default();
        state.hash(&mut h);
        config.object_values().hash(&mut h);
        h.finish()
    }

    fn get(&self, state: &P::State, config: &Configuration<P>) -> Option<SoloVerdict> {
        let bucket = self.buckets.get(&Self::key(state, config))?;
        bucket
            .iter()
            .find(|(s, objects, _)| s == state && objects[..] == *config.object_values())
            .map(|(_, _, verdict)| verdict.clone())
    }

    fn put(&mut self, state: P::State, config: &Configuration<P>, verdict: SoloVerdict) {
        self.buckets
            .entry(Self::key(&state, config))
            .or_default()
            .push((state, Arc::clone(config.objects_handle()), verdict));
    }

    /// Fold another memo into this one (absorbing a sharded worker's local
    /// overlay after the join). Keys already present keep their entry: the
    /// verdict for a given key is deterministic, so which copy survives is
    /// immaterial.
    fn merge(&mut self, other: SoloMemo<P>) {
        for (key, entries) in other.buckets {
            let bucket = self.buckets.entry(key).or_default();
            for (state, objects, verdict) in entries {
                if !bucket
                    .iter()
                    .any(|(s, o, _)| *s == state && o[..] == objects[..])
                {
                    bucket.push((state, objects, verdict));
                }
            }
        }
    }
}

/// Solo-memo access abstracted over the sequential visitor (one mutable
/// memo) and the sharded workers (a shared read-only base under a
/// thread-local overlay).
trait SoloCache<P: Protocol> {
    fn lookup(&self, state: &P::State, config: &Configuration<P>) -> Option<SoloVerdict>;
    fn store(&mut self, state: P::State, config: &Configuration<P>, verdict: SoloVerdict);
}

impl<P: Protocol> SoloCache<P> for SoloMemo<P> {
    fn lookup(&self, state: &P::State, config: &Configuration<P>) -> Option<SoloVerdict> {
        self.get(state, config)
    }

    fn store(&mut self, state: P::State, config: &Configuration<P>, verdict: SoloVerdict) {
        self.put(state, config, verdict);
    }
}

/// Two-level solo memo for sharded workers: lookups consult the shared
/// base (results accumulated by earlier runs or inputs) and then the
/// worker-local overlay; new verdicts land in the overlay only, so workers
/// never contend on the memo. [`SoloMemo::merge`] folds overlays back into
/// the base after the join.
struct LayeredMemo<'a, P: Protocol> {
    base: &'a SoloMemo<P>,
    local: SoloMemo<P>,
}

impl<P: Protocol> SoloCache<P> for LayeredMemo<'_, P> {
    fn lookup(&self, state: &P::State, config: &Configuration<P>) -> Option<SoloVerdict> {
        self.base
            .get(state, config)
            .or_else(|| self.local.get(state, config))
    }

    fn store(&mut self, state: P::State, config: &Configuration<P>, verdict: SoloVerdict) {
        self.local.put(state, config, verdict);
    }
}

/// Result of a model-checking run.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Distinct configurations visited.
    pub states: usize,
    /// Configurations in which every process has decided.
    pub terminal_states: usize,
    /// `true` if no depth/state/frontier cutoff discarded work: the search
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
    /// Solo-termination checks answered from the memo instead of re-run.
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
                " [symmetry-degraded: declared group exceeds the cap]"
            } else {
                ""
            }
        )
    }
}

/// A violation discovered by the model checker, with the schedule that
/// reaches the violating configuration from the initial one.
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug)]
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
/// (max-`j` dominance), keyed by [`Configuration::fingerprint`] with an
/// exact-equality fallback (hash quality never decides the verdict).
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
        // Dominance map: fingerprint bucket -> (config, max own-steps seen).
        let mut seen: PrehashedMap<Vec<(Configuration<P>, usize)>> = PrehashedMap::default();
        let mut arena = ScheduleArena::new();
        let mut queue: VecDeque<(Configuration<P>, usize, crate::search::NodeId)> = VecDeque::new();
        queue.push_back((initial.clone(), 0, ScheduleArena::ROOT));
        seen.entry(initial.fingerprint())
            .or_default()
            .push((initial.clone(), 0));
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
            for &q in &running {
                let mut child = config.clone();
                if child
                    .step_quiet(protocol, q)
                    .expect("wait-free search stepped a running process")
                    .is_some()
                    && q == p
                {
                    continue; // `p` just decided: nothing left to starve.
                }
                let own_after = own + usize::from(q == p);
                if dominates_insert(&mut seen, &child, own_after) {
                    let child_node = arena.child(node, q);
                    queue.push_back((child, own_after, child_node));
                }
                if crash_allowed && q != p {
                    let mut crashed = config.clone();
                    crashed
                        .crash(q)
                        .expect("wait-free search crashed a running process");
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
    seen: &mut PrehashedMap<Vec<(Configuration<P>, usize)>>,
    config: &Configuration<P>,
    own: usize,
) -> bool {
    let bucket = seen.entry(config.fingerprint()).or_default();
    for (existing, max_own) in bucket.iter_mut() {
        if existing == config {
            if *max_own >= own {
                return false;
            }
            *max_own = own;
            return true;
        }
    }
    bucket.push((config.clone(), own));
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
    fn frontier_budget_degrades_predictably() {
        let unbounded = ModelChecker::new(10, 10_000).check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(unbounded.peak_frontier >= 2, "{unbounded}");
        // A frontier of 1 cannot hold both children of the initial
        // configuration: the search must finish, report incomplete, and
        // respect the bound.
        let bounded = ModelChecker::new(10, 10_000)
            .with_frontier_budget(1)
            .check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(bounded.passed());
        assert!(
            !bounded.complete,
            "dropped frontier entries must be reported"
        );
        assert!(bounded.peak_frontier <= 1, "{bounded}");
        assert!(bounded.states < unbounded.states);
    }

    #[test]
    fn state_dedup_keeps_counts_small() {
        // Both schedules of the 2-process protocol converge; visited-state
        // dedup should keep the total tiny.
        let report = ModelChecker::new(10, 10_000).check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(report.states <= 8, "states = {}", report.states);
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
        assert!(with_memo.same_verdict(&without));
        assert_eq!(with_memo.states, without.states);
        assert!(with_memo.solo_memo_hits > 0, "{with_memo}");
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

    /// Everything `same_verdict` compares plus the exact counters that must
    /// agree between a sequential and a sharded complete run.
    #[allow(clippy::type_complexity)]
    fn full_parity_view(
        r: &CheckReport,
    ) -> (bool, usize, usize, bool, usize, usize, bool, bool, bool) {
        (
            r.passed(),
            r.states,
            r.terminal_states,
            r.complete,
            r.deepest,
            r.symmetry_group,
            r.symmetry_degraded,
            r.deadline_truncated,
            r.paused,
        )
    }

    #[test]
    fn sharded_checker_matches_sequential_report() {
        for symmetry in [false, true] {
            let mut base = ModelChecker::new(10, 10_000)
                .with_solo_budget(4)
                .with_max_failures(1);
            base.symmetry_reduction = symmetry;
            let sequential = base.check(&TwoProcessSwapConsensus, &[0, 1]);
            assert!(sequential.proves_safety(), "{sequential}");
            for threads in [2, 4] {
                let sharded = base
                    .with_threads(threads)
                    .check(&TwoProcessSwapConsensus, &[0, 1]);
                assert_eq!(
                    full_parity_view(&sharded),
                    full_parity_view(&sequential),
                    "threads={threads} symmetry={symmetry}"
                );
            }
        }
    }

    #[test]
    fn sharded_checker_catches_the_same_violation_kind() {
        let sequential = ModelChecker::new(10, 10_000).check(&SelfishConsensus { n: 2 }, &[0, 1]);
        let sharded = ModelChecker::new(10, 10_000)
            .with_threads(2)
            .check(&SelfishConsensus { n: 2 }, &[0, 1]);
        let seq_kind = sequential.violation.expect("sequential catches it").kind;
        let shard_kind = sharded.violation.expect("sharded catches it").kind;
        assert!(matches!(
            (&seq_kind, &shard_kind),
            (
                ViolationKind::Task(TaskViolation::Agreement { .. }),
                ViolationKind::Task(TaskViolation::Agreement { .. })
            )
        ));
    }

    #[test]
    fn sharded_solo_memo_survives_the_join() {
        // Two back-to-back sharded checks share one memo through
        // `check_with_memo`'s caller — `check_all_inputs` exercises that
        // path; here the merged overlays must produce hits on the second
        // run of the identical input vector.
        let checker = ModelChecker::new(10, 10_000)
            .with_solo_budget(4)
            .with_threads(2);
        let mut memo = SoloMemo::new();
        let first = checker
            .run_engine(&TwoProcessSwapConsensus, &[0, 1], &mut memo, None, None)
            .unwrap();
        let second = checker
            .run_engine(&TwoProcessSwapConsensus, &[0, 1], &mut memo, None, None)
            .unwrap();
        assert!(first.proves_safety() && second.proves_safety());
        assert!(
            second.solo_memo_hits > first.solo_memo_hits,
            "first={} second={}",
            first.solo_memo_hits,
            second.solo_memo_hits
        );
    }

    #[test]
    fn sharded_check_all_inputs_matches_sequential() {
        let sequential = ModelChecker::new(10, 10_000)
            .with_solo_budget(4)
            .check_all_inputs(&TwoProcessSwapConsensus);
        let sharded = ModelChecker::new(10, 10_000)
            .with_solo_budget(4)
            .with_threads(2)
            .check_all_inputs(&TwoProcessSwapConsensus);
        assert_eq!(full_parity_view(&sharded), full_parity_view(&sequential));
    }

    #[test]
    fn sharded_pause_resumes_to_the_sequential_report() {
        let sequential = ModelChecker::new(10, 10_000).check(&TwoProcessSwapConsensus, &[0, 1]);
        let checker = ModelChecker::new(10, 10_000).with_threads(2);
        let (partial, image) = checker.check_paused(&TwoProcessSwapConsensus, &[0, 1], 2);
        let image = image.expect("2 states pauses well before the end");
        assert!(partial.paused && !partial.complete);
        assert!(partial.states < sequential.states);
        // The resumed leg runs sequentially (FIFO) over the drained waves
        // and lands on the exact sequential totals.
        let resumed = checker
            .resume(&TwoProcessSwapConsensus, &[0, 1], &image)
            .unwrap();
        assert_eq!(full_parity_view(&resumed), full_parity_view(&sequential));
    }

    #[test]
    fn sharded_zero_deadline_reports_an_empty_truncated_run() {
        let report = ModelChecker::new(10, 10_000)
            .with_threads(2)
            .with_deadline(Duration::ZERO)
            .check(&TwoProcessSwapConsensus, &[0, 1]);
        assert!(report.deadline_truncated && !report.complete && !report.paused);
        assert_eq!(report.states, 0);
        assert!(report.passed(), "no violation can be found without work");
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_is_rejected() {
        let _ = ModelChecker::new(10, 10_000).with_threads(0);
    }
}

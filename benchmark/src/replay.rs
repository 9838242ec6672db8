//! The traced replay: the engine's search loop rebuilt from the library's
//! public layer functions, with exact counts on every edge and timers on a
//! deterministic sample.
//!
//! It mirrors `swapcons_sim::engine::Engine::run` step for step — LIFO
//! frontier, discovery-time dedup through a `DedupSet`, one
//! `ScheduleArena` node per kept edge, children generated on a recycled
//! scratch configuration with `step_quiet_undoable`/`undo_step` — so its
//! state count must equal the engine's, which the caller checks. Only the
//! engine's private pieces (panic isolation, the checker's solo memo) are
//! left out; their cost stays in the residual.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use swapcons_sim::canon::{CanonicalVisitedSet, DedupSet};
use swapcons_sim::runner::{solo_run_cloned, SoloRunError};
use swapcons_sim::search::{NodeId, ScheduleArena};
use swapcons_sim::{Action, Configuration, KSetTask, ProcessId, Protocol};

use crate::spans::{SpanId, Spans};

/// One edge or node in this many is timed.
pub const SAMPLE: u64 = 64;

/// Busy time of one layer over its timed samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timer {
    ns: u64,
    samples: u64,
}

impl Timer {
    /// Mean ns per timed call, less the cost of reading the clock.
    pub fn mean_ns(&self, clock_ns: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        (self.ns as f64 / self.samples as f64 - clock_ns).max(0.0)
    }
}

/// Per-layer counts and timers accumulated over every replayed search.
#[derive(Debug, Default)]
pub struct Profile {
    /// Whether sampled edges and nodes are timed; an untimed replay
    /// measures what the timers themselves cost.
    pub timed: bool,
    /// Nodes dequeued (the engine's `states`).
    pub nodes: u64,
    /// Edges generated.
    pub edges: u64,
    /// Edges whose child was new.
    pub new: u64,
    /// Exact-fallback comparisons made by the dedup sets.
    pub fallback: u64,
    /// Solo-termination checks the checker makes (one per running process
    /// per node), counted on every node.
    pub solo_checks: u64,
    /// `clone_state_from` (when the scratch left sync) plus
    /// `step_quiet_undoable`.
    pub step: Timer,
    /// `undo_step` on a duplicate child.
    pub undo: Timer,
    /// Cloning a new child onto the frontier.
    pub keep: Timer,
    /// `DedupSet::insert`.
    pub insert: Timer,
    /// `ScheduleArena::child_action`.
    pub arena: Timer,
    /// `orbit_key_pruned` on a side set over the run group.
    pub key: Timer,
    /// `KSetTask::check_decisions`.
    pub task: Timer,
    /// `runner::solo_run_cloned`.
    pub solo: Timer,
}

impl Profile {
    fn time<T>(
        timer: &mut Timer,
        sampled: bool,
        spans: &mut Spans,
        name: &'static str,
        parent: SpanId,
        job: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        if !sampled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        timer.ns += end.duration_since(start).as_nanos() as u64;
        timer.samples += 1;
        spans.record(name, start, end, parent, job);
        out
    }

    /// Time one call of `f` as a sample of `timer` (used for calls the
    /// caller makes outside the search loop).
    pub fn time_call<T>(
        timer: &mut Timer,
        spans: &mut Spans,
        name: &'static str,
        parent: SpanId,
        job: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        Self::time(timer, true, spans, name, parent, job, f)
    }
}

/// Which processes may step from a node.
#[derive(Clone, Copy, Debug)]
pub enum Expand<'a> {
    /// Every running process (the model checker).
    AllRunning,
    /// The running members of a process group (the valency oracle).
    Group(&'a [ProcessId]),
}

/// What the search evaluates.
#[derive(Debug)]
pub enum Visit<'a> {
    /// The model checker: the task's predicates on every node, and, when
    /// the checker checks solo termination, one solo check per running
    /// process (counted on every node, run and timed on sampled ones). A
    /// checker without solo checks still has solo runs timed on sampled
    /// nodes, as a probe of the runner layer on this workload's states.
    Check {
        /// The task.
        task: KSetTask,
        /// The run's inputs.
        inputs: &'a [u64],
        /// Solo-run budget, and whether the checker really checks it.
        solo: (usize, bool),
    },
    /// The valency oracle: values decided on generated edges, stopping once
    /// two are known. The task predicates are timed on sampled nodes as a
    /// probe.
    Oracle {
        /// Values decided so far (seeded with the solo fast path's).
        values: BTreeSet<u64>,
    },
}

/// Counts of one replayed search, comparable with the engine's report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Distinct configurations (orbits) in the dedup set.
    pub states: usize,
    /// Nodes dequeued.
    pub visited: usize,
    /// Dequeued nodes with no candidates.
    pub terminal: usize,
    /// Longest schedule dequeued.
    pub deepest: usize,
    /// Largest frontier after a node's expansion.
    pub peak_frontier: usize,
    /// A node with candidates sat at the depth bound.
    pub depth_truncated: bool,
    /// A new child was dropped at the state bound.
    pub budget_truncated: bool,
    /// The oracle stopped on bivalence.
    pub stopped: bool,
}

/// Budgets and policies of one replayed search.
#[derive(Clone, Copy, Debug)]
pub struct Search<'a> {
    /// Depth bound.
    pub max_depth: usize,
    /// State bound.
    pub max_states: usize,
    /// Expansion policy.
    pub expand: Expand<'a>,
}

/// Replay one search from `root` into `dedup`, accumulating into `prof`.
/// `key_probe` is a side set whose orbit key is timed on sampled edges.
///
/// # Errors
///
/// A step the simulator rejects, a task violation, or a failed solo check:
/// each means the engine's verdict would not be a pass.
#[allow(clippy::too_many_arguments)]
pub fn replay<P: Protocol>(
    protocol: &P,
    root: Configuration<P>,
    dedup: &mut DedupSet<P>,
    key_probe: &CanonicalVisitedSet<P>,
    search: Search<'_>,
    visit: &mut Visit<'_>,
    prof: &mut Profile,
    spans: &mut Spans,
    parent: SpanId,
    job: u32,
) -> Result<Outcome, String> {
    let span = spans.open("replay", parent, job);
    let mut out = Outcome {
        peak_frontier: 1,
        ..Outcome::default()
    };
    let mut arena = ScheduleArena::new();
    let mut frontier: Vec<(Configuration<P>, NodeId)> = Vec::new();
    dedup.insert(protocol, &root);
    frontier.push((root, ScheduleArena::ROOT));
    let mut candidates: Vec<Action> = Vec::new();
    let mut scratch: Option<Configuration<P>> = None;
    while let Some((config, node)) = frontier.pop() {
        out.visited += 1;
        let depth = arena.depth(node);
        out.deepest = out.deepest.max(depth);
        match search.expand {
            Expand::AllRunning => config.running_actions_into(&mut candidates),
            Expand::Group(group) => {
                candidates.clear();
                candidates.extend(
                    group
                        .iter()
                        .copied()
                        .filter(|&p| config.decision(p).is_none() && !config.is_crashed(p))
                        .map(Action::Step),
                );
            }
        }
        let sampled = prof.timed && prof.nodes.is_multiple_of(SAMPLE);
        prof.nodes += 1;
        let node_span = if sampled {
            spans.open("node", span, job)
        } else {
            Spans::NONE
        };
        match visit {
            Visit::Check {
                task,
                inputs,
                solo: (budget, checked),
            } => {
                Profile::time(
                    &mut prof.task,
                    sampled,
                    spans,
                    "task.check",
                    node_span,
                    job,
                    || task.check_decisions(inputs, config.decisions_iter()),
                )
                .map_err(|v| format!("task violation: {v}"))?;
                for &action in &candidates {
                    let Action::Step(pid) = action else { continue };
                    prof.solo_checks += u64::from(*checked);
                    if !sampled {
                        continue;
                    }
                    let result = Profile::time(
                        &mut prof.solo,
                        true,
                        spans,
                        "runner.solo",
                        node_span,
                        job,
                        || solo_run_cloned(protocol, &config, pid, *budget).map(|(o, _)| o),
                    );
                    match result {
                        Ok(_) => {}
                        Err(SoloRunError::BudgetExhausted { .. }) if !*checked => {}
                        Err(e) => return Err(format!("solo run of {pid}: {e}")),
                    }
                }
            }
            Visit::Oracle { values } => {
                if values.len() >= 2 {
                    spans.close(node_span);
                    out.stopped = true;
                    break;
                }
                let task = protocol.task();
                let ok = Profile::time(
                    &mut prof.task,
                    sampled,
                    spans,
                    "task.check",
                    node_span,
                    job,
                    || task.check_decisions(config.inputs(), config.decisions_iter()),
                );
                black_box(ok.is_ok());
            }
        }
        spans.close(node_span);
        if candidates.is_empty() {
            out.terminal += 1;
            continue;
        }
        if depth >= search.max_depth {
            out.depth_truncated = true;
            continue;
        }
        let mut synced = false;
        for &action in &candidates {
            let Action::Step(pid) = action else {
                return Err("crash edges are not replayed".into());
            };
            let sampled = prof.timed && prof.edges.is_multiple_of(SAMPLE);
            prof.edges += 1;
            let edge_span = if sampled {
                spans.open("edge", span, job)
            } else {
                Spans::NONE
            };
            let child = scratch.get_or_insert_with(|| config.clone());
            let (decided, undo) = Profile::time(
                &mut prof.step,
                sampled,
                spans,
                "config.step",
                edge_span,
                job,
                || {
                    if !synced {
                        child.clone_state_from(&config);
                    }
                    child.step_quiet_undoable(protocol, pid)
                },
            )
            .map_err(|e| format!("step of {pid} rejected: {e}"))?;
            synced = true;
            if dedup.len() >= search.max_states {
                if !dedup.contains(protocol, child) {
                    out.budget_truncated = true;
                }
                child.undo_step(undo);
                spans.close(edge_span);
                continue;
            }
            let is_new = Profile::time(
                &mut prof.insert,
                sampled,
                spans,
                "dedup.insert",
                edge_span,
                job,
                || dedup.insert(protocol, child),
            );
            if let (Visit::Oracle { values }, Some(v)) = (&mut *visit, decided) {
                values.insert(v);
            }
            if sampled {
                let start = Instant::now();
                black_box(key_probe.orbit_key_pruned(protocol, child));
                let end = Instant::now();
                prof.key.ns += end.duration_since(start).as_nanos() as u64;
                prof.key.samples += 1;
                spans.record("canon.key", start, end, edge_span, job);
            }
            if is_new {
                prof.new += 1;
                let child_node = Profile::time(
                    &mut prof.arena,
                    sampled,
                    spans,
                    "search.arena",
                    edge_span,
                    job,
                    || arena.child_action(node, action),
                );
                Profile::time(
                    &mut prof.keep,
                    sampled,
                    spans,
                    "config.keep",
                    edge_span,
                    job,
                    || frontier.push((child.clone(), child_node)),
                );
                synced = false;
            } else {
                Profile::time(
                    &mut prof.undo,
                    sampled,
                    spans,
                    "config.undo",
                    edge_span,
                    job,
                    || child.undo_step(undo),
                );
            }
            spans.close(edge_span);
        }
        out.peak_frontier = out.peak_frontier.max(frontier.len());
    }
    out.states = dedup.len();
    prof.fallback += dedup.fallback_comparisons() as u64;
    spans.close(span);
    Ok(out)
}

/// What a timed sample reads when nothing runs between its two clock
/// reads: the mean over many empty samples, subtracted from every layer's
/// mean.
pub fn clock_ns() -> f64 {
    const SAMPLES: u32 = 100_000;
    let mut total = 0u128;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        let end = black_box(Instant::now());
        total += end.duration_since(start).as_nanos();
    }
    total as f64 / f64::from(SAMPLES)
}

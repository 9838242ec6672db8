//! The strategy-driven search core shared by every exhaustive exploration
//! in the workspace.
//!
//! [`ModelChecker`](crate::explore::ModelChecker), the lower-bound valency
//! oracle and [`AdversarySynthesis`] all run this one loop.
//! [`Engine::run`] walks the configuration graph of a protocol,
//! deduplicating at **discovery time** through a [`DedupSet`] (one
//! configuration per symmetry orbit; the trivial group gives exact dedup),
//! recording one [`ScheduleArena`] node per kept edge,
//! generating candidate children on a recycled scratch configuration with
//! [`step_quiet_undoable`](crate::Configuration::step_quiet_undoable) /
//! [`undo_step`](crate::Configuration::undo_step) delta-restore, and
//! enforcing exact depth and state budgets with a uniform completeness
//! verdict ([`SearchStats::complete`]). Each frontier entry carries its
//! record's handle in the dedup set, so a child's record is built from its
//! parent's: only the components the edge changed are interned again.
//!
//! The engine is parameterized by three strategies:
//!
//! * an **expansion policy** ([`Expansion`]) — which processes may step
//!   from a node: [`AllRunning`] for the model checker, [`GroupRestricted`]
//!   for the valency oracle, [`CrashBounded`] around either to add crash
//!   transitions;
//! * a **frontier order** ([`Frontier`]) — [`Lifo`] gives the DFS of the
//!   checker and the oracle; [`AdversarySynthesis`] pops the pending
//!   configuration with the highest objective first, which is what makes
//!   the lap-maximizing and Lemma 8 pressure adversaries searches instead
//!   of hand-coded schedules;
//! * a **visitor** ([`Visitor`]) — per-state and per-edge verdicts: safety
//!   plus solo termination for the checker, decided-value collection with
//!   early bivalence exit for the oracle. ([`AdversarySynthesis`] tracks
//!   its objective in the *frontier* instead, where the score is already
//!   being computed for the priority order.)
//!
//! # Budget discipline
//!
//! All accounting happens when a configuration is *discovered*, never when
//! it is popped: each configuration is probed exactly once, the
//! frontier never holds duplicates, and a child generated while a budget is
//! exhausted marks the search incomplete only if it is genuinely new — a
//! search whose post-budget children are all duplicates drained exactly at
//! the bound and is still exhaustive.
//!
//! # Writing a new search
//!
//! Pick (or write) one strategy of each kind and hand them to
//! [`Engine::run`]; the strategies keep whatever result the search is
//! after. [`synthesize`] is the worked example: a best-first frontier that
//! scores and records the extremum at discovery time turns the engine into
//! an adversary synthesizer returning the schedule maximizing a
//! caller-defined objective as a replayable witness.
//!
//! # Crash transitions
//!
//! Edges are [`Action`]s, not bare process ids: an expansion policy may
//! emit crash transitions alongside steps. [`CrashBounded`] wraps any inner
//! policy and adds a `Crash(p)` edge for every step candidate `p` while
//! fewer than `max_failures` processes have crashed, which makes the engine
//! enumerate **every crash pattern up to the failure budget** — the model
//! the paper's wait-free/obstruction-free distinction lives in.
//!
//! # Fault tolerance of the engine itself
//!
//! Three engine-level safeguards make long searches interruption-safe:
//! a wall-clock [`Engine::with_deadline`] (graceful partial
//! [`SearchStats`] with `deadline_truncated` set, never an unbounded run),
//! panic isolation around protocol `step` calls (a panicking transition is
//! reported to [`Visitor::step_error`] as [`SimError::Panicked`] and the
//! poisoned scratch child is discarded — the engine never aborts), and
//! checkpoint/resume ([`Checkpointing`], [`SearchImage`],
//! [`Engine::resume`]) with a parity guarantee: a resumed search visits
//! exactly the states, in exactly the order, the uninterrupted search would
//! have.
//!
//! The steps that clients take outside this loop are isolated the same
//! way: the model checker's solo-termination runs report a panicking
//! protocol as an internal violation with the node's schedule, its
//! wait-freedom search reports a panicking or rejected step as an internal
//! violation with the schedule through that step, and the valency
//! oracle's solo fast path drops a panicking member, so the search meets
//! the same panic as a skipped edge.

use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::canon::{DedupSet, NONE};
use crate::config::{Configuration, SimError};
use crate::ids::{Action, ProcessId};
use crate::protocol::Protocol;
use crate::search::{NodeId, ScheduleArena};

/// Exact search budgets, enforced at discovery time.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Maximum schedule length explored from the root.
    pub max_depth: usize,
    /// Maximum number of distinct configurations (orbits, under reduction)
    /// discovered. Every frontier entry is a discovered configuration, so
    /// this bounds the frontier too.
    pub max_states: usize,
}

impl Budget {
    /// A budget with the given depth and state bounds.
    pub fn new(max_depth: usize, max_states: usize) -> Self {
        Budget {
            max_depth,
            max_states,
        }
    }
}

/// Aggregate counters of one engine run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes dequeued and visited.
    pub states: usize,
    /// Visited nodes with no expansion candidates.
    pub terminal_states: usize,
    /// Length of the longest schedule visited.
    pub deepest: usize,
    /// Largest frontier size observed (memory high-water mark).
    pub peak_frontier: usize,
    /// Whether the visitor stopped the search early ([`Control::Stop`]).
    pub stopped: bool,
    /// A node with expansion candidates sat at the depth horizon: deeper
    /// schedules exist but were not explored.
    pub depth_truncated: bool,
    /// A genuinely new configuration was discarded because the state
    /// budget was exhausted (or a step error was skipped).
    pub budget_truncated: bool,
    /// The wall-clock deadline ([`Engine::with_deadline`]) expired with
    /// work still pending. Unlike `budget_truncated` this is recoverable:
    /// resuming from a checkpoint clears it.
    pub deadline_truncated: bool,
    /// A [`Checkpointing`] sink asked the search to pause. Like
    /// `deadline_truncated`, cleared on resume.
    pub paused: bool,
}

impl SearchStats {
    fn fresh() -> Self {
        SearchStats {
            states: 0,
            terminal_states: 0,
            deepest: 0,
            peak_frontier: 1,
            stopped: false,
            depth_truncated: false,
            budget_truncated: false,
            deadline_truncated: false,
            paused: false,
        }
    }

    /// `true` if no depth or state cutoff (or skipped step error)
    /// discarded work and no deadline or pause interrupted the run: the
    /// search covered the whole reachable space.
    pub fn complete(&self) -> bool {
        !self.depth_truncated && !self.budget_truncated && !self.deadline_truncated && !self.paused
    }
}

/// Flow control returned by visitor hooks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep searching.
    Continue,
    /// Abort the search now; [`Engine::run`] returns with
    /// [`SearchStats::stopped`] set (the checker found a violation, the
    /// oracle established bivalence).
    Stop,
}

/// Which transitions may be taken from a node.
pub trait Expansion<P: Protocol> {
    /// Fill `out` (cleared first by the caller contract being: the engine
    /// passes a cleared buffer) with the candidate actions, in the
    /// order their edges should be generated.
    fn candidates(&mut self, protocol: &P, config: &Configuration<P>, out: &mut Vec<Action>);
}

/// Expand every running (undecided, uncrashed) process — the model
/// checker's policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllRunning;

impl<P: Protocol> Expansion<P> for AllRunning {
    fn candidates(&mut self, _protocol: &P, config: &Configuration<P>, out: &mut Vec<Action>) {
        config.running_actions_into(out);
    }
}

/// Expand only the still-running members of a fixed process group — the
/// valency oracle's group-only executions. (Filters on *running* status,
/// not merely "no decision": a crashed process has no decision either but
/// must never step.)
#[derive(Clone, Copy, Debug)]
pub struct GroupRestricted<'a>(pub &'a [ProcessId]);

impl<P: Protocol> Expansion<P> for GroupRestricted<'_> {
    fn candidates(&mut self, _protocol: &P, config: &Configuration<P>, out: &mut Vec<Action>) {
        out.extend(
            self.0
                .iter()
                .copied()
                .filter(|&p| config.decision(p).is_none() && !config.is_crashed(p))
                .map(Action::Step),
        );
    }
}

/// Crash-bounded wrapper: alongside every step candidate the inner policy
/// emits, offer crashing that process — as long as fewer than
/// `max_failures` processes have crashed so far. The engine then
/// exhaustively enumerates **every crash pattern up to the failure budget**
/// interleaved with every schedule, which is exactly the adversary class
/// wait-freedom quantifies over.
///
/// Crash edges are appended after the inner candidates, so a crash-free
/// exploration is a strict prefix of the crash-injected one at every node
/// (DFS order diverges only into the crash branches).
#[derive(Clone, Copy, Debug)]
pub struct CrashBounded<E> {
    /// The wrapped policy producing the step candidates.
    pub inner: E,
    /// Maximum number of processes the adversary may crash (the paper's
    /// `f`). `0` makes this wrapper the identity.
    pub max_failures: usize,
}

impl<E> CrashBounded<E> {
    /// Wrap `inner`, budgeting the adversary at `max_failures` crashes.
    pub fn new(inner: E, max_failures: usize) -> Self {
        CrashBounded {
            inner,
            max_failures,
        }
    }
}

impl<P: Protocol, E: Expansion<P>> Expansion<P> for CrashBounded<E> {
    fn candidates(&mut self, protocol: &P, config: &Configuration<P>, out: &mut Vec<Action>) {
        self.inner.candidates(protocol, config, out);
        if config.num_crashed() >= self.max_failures {
            return;
        }
        // Crash exactly the processes the inner policy lets step: crashing
        // a process the policy would never schedule only removes moves the
        // search was not going to take, so those branches are redundant.
        let steps = out.len();
        for i in 0..steps {
            if let Action::Step(p) = out[i] {
                out.push(Action::Crash(p));
            }
        }
    }
}

/// Order in which discovered configurations are visited.
///
/// An entry is a configuration, its arena node, and the handle of its
/// record in the search's [`DedupSet`], which the frontier hands back
/// unread.
pub trait Frontier<P: Protocol> {
    /// Enqueue a freshly discovered configuration.
    fn push(&mut self, protocol: &P, config: Configuration<P>, node: NodeId, handle: u32);
    /// Dequeue the next configuration to visit.
    fn pop(&mut self) -> Option<(Configuration<P>, NodeId, u32)>;
    /// Number of pending configurations.
    fn len(&self) -> usize;
    /// Whether nothing is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The pending node ids in *push order* (the order re-pushing them
    /// reproduces this frontier), for checkpointing. Frontiers that cannot
    /// reproduce their order (or choose not to support snapshots) return
    /// `None`; [`Lifo`] — the exhaustive clients' order — supports it.
    fn pending_nodes(&self) -> Option<Vec<NodeId>> {
        None
    }
}

/// Plain LIFO stack: depth-first search, the default order of both
/// rebuilt clients.
#[derive(Debug)]
pub struct Lifo<P: Protocol>(Vec<(Configuration<P>, NodeId, u32)>);

impl<P: Protocol> Lifo<P> {
    /// An empty stack.
    pub fn new() -> Self {
        Lifo(Vec::new())
    }
}

impl<P: Protocol> Default for Lifo<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Protocol> Frontier<P> for Lifo<P> {
    fn push(&mut self, _protocol: &P, config: Configuration<P>, node: NodeId, handle: u32) {
        self.0.push((config, node, handle));
    }

    fn pop(&mut self) -> Option<(Configuration<P>, NodeId, u32)> {
        self.0.pop()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn pending_nodes(&self) -> Option<Vec<NodeId>> {
        Some(self.0.iter().map(|(_, node, _)| *node).collect())
    }
}

/// One pending entry of a [`SynthFrontier`]: ordered by score, ties broken
/// toward the most recently discovered entry (DFS-like bias), so traversal
/// order is deterministic.
struct Scored<P: Protocol> {
    score: u64,
    seq: u64,
    config: Configuration<P>,
    node: NodeId,
    handle: u32,
}

impl<P: Protocol> PartialEq for Scored<P> {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.seq == other.seq
    }
}

impl<P: Protocol> Eq for Scored<P> {}

impl<P: Protocol> PartialOrd for Scored<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<P: Protocol> Ord for Scored<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.score, self.seq).cmp(&(other.score, other.seq))
    }
}

/// The extremum an [`AdversarySynthesis`] search has found so far.
struct Best<P: Protocol> {
    score: u64,
    node: NodeId,
    config: Configuration<P>,
}

/// Best-first frontier of [`AdversarySynthesis`]: pops the highest-scoring
/// pending configuration first, and records the extremum at push time, so
/// the objective runs once per configuration (scoring can be expensive —
/// the Lemma 8 pressure objective runs solo executions).
struct SynthFrontier<'o, P: Protocol, O> {
    heap: BinaryHeap<Scored<P>>,
    objective: &'o O,
    seq: u64,
    best: Option<Best<P>>,
}

impl<'o, P: Protocol, O> SynthFrontier<'o, P, O> {
    fn new(objective: &'o O) -> Self {
        SynthFrontier {
            heap: BinaryHeap::new(),
            objective,
            seq: 0,
            best: None,
        }
    }
}

impl<P: Protocol, O: Fn(&P, &Configuration<P>) -> u64> Frontier<P> for SynthFrontier<'_, P, O> {
    fn push(&mut self, protocol: &P, config: Configuration<P>, node: NodeId, handle: u32) {
        let score = (self.objective)(protocol, &config);
        if self.best.as_ref().is_none_or(|b| score > b.score) {
            self.best = Some(Best {
                score,
                node,
                config: config.clone(),
            });
        }
        self.seq += 1;
        self.heap.push(Scored {
            score,
            seq: self.seq,
            config,
            node,
            handle,
        });
    }

    fn pop(&mut self) -> Option<(Configuration<P>, NodeId, u32)> {
        self.heap.pop().map(|s| (s.config, s.node, s.handle))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Read-only view of a visited node, handed to [`Visitor::enter`].
#[derive(Debug)]
pub struct NodeCtx<'a> {
    arena: &'a ScheduleArena,
    record: Option<&'a [u32]>,
    /// The node's arena id.
    pub node: NodeId,
    /// The node's depth (schedule length from the root).
    pub depth: usize,
}

impl NodeCtx<'_> {
    /// Materialize the schedule from the root to this node — the cold
    /// witness path. Crash transitions project to their process id; use
    /// [`NodeCtx::actions`] when the distinction matters.
    pub fn schedule(&self) -> Vec<ProcessId> {
        self.arena.schedule(self.node)
    }

    /// Materialize the full action sequence (steps *and* crashes) from the
    /// root to this node.
    pub fn actions(&self) -> Vec<Action> {
        self.arena.actions(self.node)
    }

    /// The transition that discovered this node (`None` at the root).
    pub(crate) fn action(&self) -> Option<Action> {
        self.arena.action(self.node)
    }

    /// The node's record in the search's [`DedupSet`]: its object vector's
    /// id, then one status id per process. `None` only for a root the set
    /// already held, which has no record of its own.
    pub(crate) fn record(&self) -> Option<&[u32]> {
        self.record
    }
}

/// View of one generated edge, handed to [`Visitor::edge`] and
/// [`Visitor::step_error`]. The edge's arena node is created lazily — only
/// searches that actually need a witness for the edge pay for it.
#[derive(Debug)]
pub struct EdgeCtx<'a> {
    arena: &'a mut ScheduleArena,
    parent: NodeId,
    action: Action,
    node: Option<NodeId>,
}

impl EdgeCtx<'_> {
    /// The edge's transition.
    pub fn action(&self) -> Action {
        self.action
    }

    /// The process the edge steps — or crashes; see [`EdgeCtx::action`].
    pub fn pid(&self) -> ProcessId {
        self.action.pid()
    }

    /// The edge's arena node, created on first use.
    pub fn node(&mut self) -> NodeId {
        let (arena, parent, action) = (&mut *self.arena, self.parent, self.action);
        *self
            .node
            .get_or_insert_with(|| arena.child_action(parent, action))
    }

    /// Materialize the schedule from the root through this edge (pid
    /// projection; see [`EdgeCtx::actions`] for crash fidelity).
    pub fn schedule(&mut self) -> Vec<ProcessId> {
        let node = self.node();
        self.arena.schedule(node)
    }

    /// Materialize the full action sequence from the root through this
    /// edge.
    pub fn actions(&mut self) -> Vec<Action> {
        let node = self.node();
        self.arena.actions(node)
    }
}

/// Per-state and per-edge verdicts of a search.
///
/// Hook order per dequeued node: `enter` (with the node's expansion
/// candidates already computed), then — unless the node is terminal or
/// depth-cut — one `edge` (or `step_error`) call per candidate.
pub trait Visitor<P: Protocol> {
    /// Called once per dequeued node. `candidates` is what the expansion
    /// policy returned for this node (empty means terminal).
    fn enter(
        &mut self,
        protocol: &P,
        config: &Configuration<P>,
        ctx: &NodeCtx<'_>,
        candidates: &[Action],
    ) -> Control;

    /// Called for every generated edge within budget, including edges to
    /// already-known configurations (`is_new == false`), before the child
    /// is enqueued. `decided` is the decision the step produced, if any
    /// (always `None` for crash edges).
    fn edge(
        &mut self,
        _protocol: &P,
        _child: &Configuration<P>,
        _decided: Option<u64>,
        _is_new: bool,
        _ctx: &mut EdgeCtx<'_>,
    ) -> Control {
        Control::Continue
    }

    /// Called when the simulator rejects a candidate step — or when the
    /// protocol's step *panics* (reported as [`SimError::Panicked`]; the
    /// poisoned scratch child is discarded before this hook runs, so the
    /// search state is intact either way). Returning [`Control::Continue`]
    /// skips the edge and marks the search incomplete (the oracle's
    /// policy); returning [`Control::Stop`] aborts (the checker records a
    /// protocol-bug violation).
    fn step_error(&mut self, _protocol: &P, _error: SimError, _ctx: &mut EdgeCtx<'_>) -> Control {
        Control::Stop
    }
}

/// A serializable image of an in-flight search — everything needed to
/// resume it with full parity, minus the configurations themselves (which
/// are generic and are rebuilt by replaying each node's action schedule
/// from the root).
///
/// Produced by [`Checkpointing`] sinks; consumed by [`Engine::resume`].
/// The byte-level encoding and the checksummed snapshot-file format live in
/// [`crate::snapshot`].
#[derive(Clone, Debug)]
pub struct SearchImage {
    /// Counters as of the snapshot; resuming continues from them.
    pub stats: SearchStats,
    /// The schedule arena: one node per kept edge, crash bits included.
    pub arena: ScheduleArena,
    /// Every discovered node in **discovery order**, root first. Resuming
    /// re-inserts them into the dedup set in this exact order, which — under
    /// symmetry reduction — reproduces the same orbit representatives and
    /// therefore the same future dedup verdicts as the uninterrupted run.
    pub discovery: Vec<NodeId>,
    /// The pending frontier in push order ([`Frontier::pending_nodes`]).
    pub frontier: Vec<NodeId>,
}

impl SearchImage {
    /// The image of a search in progress, for a [`Checkpointing`] sink.
    fn capture<P: Protocol, F: Frontier<P>>(
        stats: &SearchStats,
        arena: &ScheduleArena,
        discovery: &[NodeId],
        frontier: &F,
    ) -> Self {
        SearchImage {
            stats: *stats,
            arena: arena.clone(),
            discovery: discovery.to_vec(),
            frontier: frontier
                .pending_nodes()
                .expect("checkpointing requires a frontier with pending_nodes support"),
        }
    }
}

/// Periodic snapshot hook for [`Engine::run_with`]: after every `interval`
/// visited states (and once more on deadline expiry) the engine hands a
/// fresh [`SearchImage`] to `sink`. The sink returning [`Control::Stop`]
/// *pauses* the search — [`SearchStats::paused`] is set and the run
/// returns; resume later with [`Engine::resume`].
pub struct Checkpointing<'s> {
    /// Snapshot every this many visited states (`0` is treated as `1`).
    pub interval: usize,
    /// Receives each snapshot.
    pub sink: &'s mut dyn FnMut(&SearchImage) -> Control,
}

impl fmt::Debug for Checkpointing<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpointing")
            .field("interval", &self.interval)
            .finish_non_exhaustive()
    }
}

/// A [`SearchImage`] that cannot seed a resumed search — internally
/// inconsistent (dangling node ids, replay failures, dedup mismatches).
/// Distinct from [`crate::snapshot::SnapshotError`], which covers the
/// file/bytes layer; this is the semantic layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeError {
    /// What was wrong with the image.
    pub reason: String,
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot resume search: {}", self.reason)
    }
}

impl std::error::Error for ResumeError {}

impl ResumeError {
    fn new(reason: impl Into<String>) -> Self {
        ResumeError {
            reason: reason.into(),
        }
    }
}

/// The search core. Owns only the budgets and the optional wall-clock
/// deadline; dedup set, arena, and strategies are caller state so clients
/// can keep using them after the run (materializing witness schedules,
/// reading orbit counts).
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    /// The run's budgets.
    pub budget: Budget,
    /// Optional wall-clock deadline; see [`Engine::with_deadline`].
    pub deadline: Option<Duration>,
}

impl Engine {
    /// An engine with the given budget and no deadline.
    pub fn new(budget: Budget) -> Self {
        Engine {
            budget,
            deadline: None,
        }
    }

    /// Bound the run by wall-clock time. When the deadline expires the run
    /// returns gracefully with partial [`SearchStats`] and
    /// `deadline_truncated` set (and, if checkpointing, takes a final
    /// snapshot first) — never an abort, never an unbounded run.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Search the configuration graph from `root`.
    ///
    /// The root is inserted into `dedup` (if not already present) and
    /// visited first; every further configuration is discovered through the
    /// expansion policy, deduplicated at discovery time, and visited in the
    /// frontier's order.
    #[allow(clippy::too_many_arguments)]
    pub fn run<P, E, F, V>(
        &self,
        protocol: &P,
        root: Configuration<P>,
        dedup: &mut DedupSet<P>,
        arena: &mut ScheduleArena,
        expansion: &mut E,
        frontier: &mut F,
        visitor: &mut V,
    ) -> SearchStats
    where
        P: Protocol,
        E: Expansion<P>,
        F: Frontier<P>,
        V: Visitor<P>,
    {
        self.run_with(
            protocol, root, dedup, arena, expansion, frontier, visitor, None,
        )
    }

    /// [`Engine::run`] with optional periodic checkpointing. Requires a
    /// frontier supporting [`Frontier::pending_nodes`] when `ckpt` is
    /// `Some` (the snapshot must capture the pending work).
    #[allow(clippy::too_many_arguments)]
    pub fn run_with<P, E, F, V>(
        &self,
        protocol: &P,
        root: Configuration<P>,
        dedup: &mut DedupSet<P>,
        arena: &mut ScheduleArena,
        expansion: &mut E,
        frontier: &mut F,
        visitor: &mut V,
        ckpt: Option<Checkpointing<'_>>,
    ) -> SearchStats
    where
        P: Protocol,
        E: Expansion<P>,
        F: Frontier<P>,
        V: Visitor<P>,
    {
        // A root the set already holds (or holds an orbit twin of) has no
        // record of its own: its children intern every component.
        let handle = dedup.insert_interned(protocol, &root);
        frontier.push(protocol, root, ScheduleArena::ROOT, handle.unwrap_or(NONE));
        self.run_impl(
            protocol,
            dedup,
            arena,
            expansion,
            frontier,
            visitor,
            SearchStats::fresh(),
            vec![ScheduleArena::ROOT],
            ckpt,
        )
    }

    /// Resume a search from a [`SearchImage`] with full parity: the resumed
    /// run visits exactly the states, in exactly the order, the
    /// uninterrupted run would have, and ends with identical stats
    /// (up to the cleared `deadline_truncated`/`paused` interruption flags).
    ///
    /// `root` must be the same initial configuration, and `dedup`, `arena`,
    /// `frontier` must be freshly constructed with the same parameters
    /// (same reduction mode, same order) as the interrupted run; the
    /// visitor and expansion must be re-created by the caller likewise.
    /// Discovered configurations are rebuilt by replaying each node's
    /// action schedule from the root and re-inserted in the original
    /// discovery order, which under symmetry reduction reproduces the same
    /// orbit representatives — this is what makes the parity guarantee
    /// hold rather than merely approximate.
    ///
    /// # Errors
    ///
    /// [`ResumeError`] if the image is internally inconsistent: dangling
    /// node ids, actions naming a process outside the run, schedules that
    /// fail to replay, discovery entries that deduplicate against each
    /// other, or a non-empty `dedup`/`frontier`.
    #[allow(clippy::too_many_arguments)]
    pub fn resume<P, E, F, V>(
        &self,
        protocol: &P,
        root: Configuration<P>,
        image: &SearchImage,
        dedup: &mut DedupSet<P>,
        arena: &mut ScheduleArena,
        expansion: &mut E,
        frontier: &mut F,
        visitor: &mut V,
        ckpt: Option<Checkpointing<'_>>,
    ) -> Result<SearchStats, ResumeError>
    where
        P: Protocol,
        E: Expansion<P>,
        F: Frontier<P>,
        V: Visitor<P>,
    {
        if !dedup.is_empty() || !frontier.is_empty() {
            return Err(ResumeError::new(
                "resume requires a fresh dedup set and frontier",
            ));
        }
        if image.discovery.first() != Some(&ScheduleArena::ROOT) {
            return Err(ResumeError::new("discovery order must start at the root"));
        }
        let node_ok =
            |n: NodeId| n == ScheduleArena::ROOT || (n.to_raw() as usize) < image.arena.len();
        if let Some(bad) = image
            .discovery
            .iter()
            .chain(image.frontier.iter())
            .find(|&&n| !node_ok(n))
        {
            return Err(ResumeError::new(format!(
                "node id {} out of range (arena has {} nodes)",
                bad.to_raw(),
                image.arena.len()
            )));
        }
        // Replay indexes process slots by pid, so an action naming a
        // process outside the run must be refused before anything replays.
        let n = root.num_processes();
        let nodes = (0..u32::MAX).take(image.arena.len()).map(NodeId::from_raw);
        if let Some((node, action)) = nodes
            .filter_map(|node| Some((node, image.arena.action(node)?)))
            .find(|(_, action)| action.pid().index() >= n)
        {
            return Err(ResumeError::new(format!(
                "arena node {} names {action:?}, but the run has {n} processes",
                node.to_raw()
            )));
        }
        let rebuild = |node: NodeId| -> Result<Configuration<P>, ResumeError> {
            let mut config = root.clone();
            crate::runner::replay_actions(protocol, &mut config, &image.arena.actions(node))
                .map_err(|e| {
                    ResumeError::new(format!(
                        "schedule of node {} does not replay: {e}",
                        node.to_raw()
                    ))
                })?;
            Ok(config)
        };
        // Re-inserted in discovery order, the i-th discovered node gets
        // handle i, as in the interrupted run.
        let mut handles: HashMap<NodeId, u32> = HashMap::with_capacity(image.discovery.len());
        for &node in &image.discovery {
            let config = if node == ScheduleArena::ROOT {
                root.clone()
            } else {
                rebuild(node)?
            };
            let handle = dedup.insert_interned(protocol, &config).ok_or_else(|| {
                ResumeError::new(format!(
                    "discovery entry {} deduplicates against an earlier one",
                    node.to_raw()
                ))
            })?;
            handles.insert(node, handle);
        }
        for &node in &image.frontier {
            let config = if node == ScheduleArena::ROOT {
                root.clone()
            } else {
                rebuild(node)?
            };
            let handle = handles.get(&node).copied().unwrap_or(NONE);
            frontier.push(protocol, config, node, handle);
        }
        *arena = image.arena.clone();
        let mut stats = image.stats;
        stats.deadline_truncated = false;
        stats.paused = false;
        Ok(self.run_impl(
            protocol,
            dedup,
            arena,
            expansion,
            frontier,
            visitor,
            stats,
            image.discovery.clone(),
            ckpt,
        ))
    }

    /// The shared search loop: `run_with` seeds a fresh search, `resume`
    /// seeds a restored one; both continue here.
    #[allow(clippy::too_many_arguments)]
    fn run_impl<P, E, F, V>(
        &self,
        protocol: &P,
        dedup: &mut DedupSet<P>,
        arena: &mut ScheduleArena,
        expansion: &mut E,
        frontier: &mut F,
        visitor: &mut V,
        mut stats: SearchStats,
        mut discovery: Vec<NodeId>,
        mut ckpt: Option<Checkpointing<'_>>,
    ) -> SearchStats
    where
        P: Protocol,
        E: Expansion<P>,
        F: Frontier<P>,
        V: Visitor<P>,
    {
        let started = Instant::now();
        // Scratch buffers reused across nodes: the expansion candidates and
        // one configuration recycled between candidate children. A child is
        // generated by stepping the scratch in place and — when it is
        // rejected (duplicate or over budget) — *delta-restored*: the undo
        // token rolls back exactly the two mutated slots, so rejected
        // children cost O(1) element writes instead of a state re-copy.
        let mut candidates: Vec<Action> = Vec::new();
        let mut child_scratch: Option<Configuration<P>> = None;
        loop {
            if let Some(deadline) = self.deadline {
                if started.elapsed() >= deadline && !frontier.is_empty() {
                    stats.deadline_truncated = true;
                    if let Some(ckpt) = ckpt.as_mut() {
                        // Final snapshot so the interrupted run is
                        // resumable; its verdict (pause or not) no longer
                        // matters — the run is ending either way.
                        let image = SearchImage::capture(&stats, arena, &discovery, frontier);
                        let _ = (ckpt.sink)(&image);
                    }
                    return stats;
                }
            }
            let Some((config, node, handle)) = frontier.pop() else {
                break;
            };
            stats.states += 1;
            let depth = arena.depth(node);
            stats.deepest = stats.deepest.max(depth);
            candidates.clear();
            expansion.candidates(protocol, &config, &mut candidates);
            let ctx = NodeCtx {
                arena,
                record: dedup.record(handle),
                node,
                depth,
            };
            if visitor.enter(protocol, &config, &ctx, &candidates) == Control::Stop {
                stats.stopped = true;
                return stats;
            }
            if candidates.is_empty() {
                stats.terminal_states += 1;
                self.maybe_checkpoint(&mut stats, arena, &discovery, frontier, &mut ckpt);
                if stats.paused {
                    return stats;
                }
                continue;
            }
            if depth >= self.budget.max_depth {
                stats.depth_truncated = true;
                self.maybe_checkpoint(&mut stats, arena, &discovery, frontier, &mut ckpt);
                if stats.paused {
                    return stats;
                }
                continue;
            }
            // `true` while the scratch holds exactly `config`'s state (so
            // the next candidate can step it directly); cleared when a kept
            // child leaves the scratch sharing storage with the frontier.
            let mut scratch_synced = false;
            for &action in &candidates {
                let child = match &mut child_scratch {
                    Some(s) => s,
                    None => child_scratch.insert(config.clone()),
                };
                if !scratch_synced {
                    child.clone_state_from(&config);
                }
                scratch_synced = true;
                let stepped = match action {
                    Action::Step(pid) => {
                        // Panic isolation: a protocol whose transition
                        // function panics poisons only this scratch child,
                        // which is discarded below — the search itself
                        // survives and reports through `step_error`.
                        match panic::catch_unwind(AssertUnwindSafe(|| {
                            child.step_quiet_undoable(protocol, pid)
                        })) {
                            Ok(result) => result,
                            Err(payload) => Err(SimError::Panicked {
                                process: pid,
                                message: panic_message(payload),
                            }),
                        }
                    }
                    Action::Crash(pid) => child.crash(pid).map(|undo| (None, undo)),
                };
                match stepped {
                    Ok((decided, undo)) => {
                        if dedup.len() >= self.budget.max_states {
                            // The budget is exhausted: a child that is
                            // already known costs nothing to discard, but an
                            // *undiscovered* one is genuinely skipped work.
                            if !dedup.contains(protocol, child) {
                                stats.budget_truncated = true;
                            }
                            child.undo_step(undo);
                            continue;
                        }
                        // The child's record is `handle`'s with the
                        // stepped process's status and (if the step wrote
                        // one) the object vector interned again.
                        let child_handle = dedup.insert_child(
                            protocol,
                            handle,
                            child,
                            action.pid(),
                            undo.wrote_object(),
                        );
                        let is_new = child_handle.is_some();
                        let mut edge = EdgeCtx {
                            arena,
                            parent: node,
                            action,
                            node: None,
                        };
                        if visitor.edge(protocol, child, decided, is_new, &mut edge)
                            == Control::Stop
                        {
                            stats.stopped = true;
                            return stats;
                        }
                        if let Some(child_handle) = child_handle {
                            let child_node = edge.node();
                            if ckpt.is_some() {
                                discovery.push(child_node);
                            }
                            frontier.push(protocol, child.clone(), child_node, child_handle);
                            scratch_synced = false;
                        } else {
                            child.undo_step(undo);
                        }
                    }
                    Err(e) => {
                        if matches!(e, SimError::Panicked { .. }) {
                            // The panicking step may have half-mutated the
                            // scratch: poisoned, drop it. (A schema
                            // rejection or crash error mutates nothing and
                            // keeps the scratch synced.)
                            child_scratch = None;
                            scratch_synced = false;
                        }
                        let mut edge = EdgeCtx {
                            arena,
                            parent: node,
                            action,
                            node: None,
                        };
                        match visitor.step_error(protocol, e, &mut edge) {
                            Control::Stop => {
                                stats.stopped = true;
                                return stats;
                            }
                            Control::Continue => stats.budget_truncated = true,
                        }
                    }
                }
            }
            stats.peak_frontier = stats.peak_frontier.max(frontier.len());
            self.maybe_checkpoint(&mut stats, arena, &discovery, frontier, &mut ckpt);
            if stats.paused {
                return stats;
            }
        }
        stats
    }

    /// Snapshot after every `interval` visited states; sets
    /// [`SearchStats::paused`] when the sink asks to stop.
    fn maybe_checkpoint<P: Protocol, F: Frontier<P>>(
        &self,
        stats: &mut SearchStats,
        arena: &ScheduleArena,
        discovery: &[NodeId],
        frontier: &F,
        ckpt: &mut Option<Checkpointing<'_>>,
    ) {
        let Some(ckpt) = ckpt.as_mut() else {
            return;
        };
        if !stats.states.is_multiple_of(ckpt.interval.max(1)) {
            return;
        }
        let image = SearchImage::capture(stats, arena, discovery, frontier);
        if (ckpt.sink)(&image) == Control::Stop {
            stats.paused = true;
        }
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Result of an [`AdversarySynthesis`] search: the extremal schedule as a
/// replayable witness.
#[derive(Clone, Debug)]
pub struct SynthesisReport<P: Protocol> {
    /// The best objective value found.
    pub best_score: u64,
    /// A schedule reaching a configuration with that objective value —
    /// replaying it from the initial configuration reproduces
    /// [`SynthesisReport::config`].
    pub schedule: Vec<ProcessId>,
    /// The extremal configuration itself.
    pub config: Configuration<P>,
    /// Distinct configurations explored.
    pub states: usize,
    /// Whether the whole (depth-bounded) space was covered; `false` means
    /// the state budget truncated the search, so a better schedule may
    /// exist within the depth bound.
    pub complete: bool,
    /// Longest schedule explored.
    pub deepest: usize,
}

/// Searches for the schedule maximizing a protocol-defined objective — the
/// adversary *synthesis* loop of the Lemma 9 playbook: instead of
/// hand-coding a nasty scheduler (cf.
/// [`LapLeadChasing`](crate::scheduler::LapLeadChasing)), ask the engine
/// for the worst reachable configuration and return the schedule that
/// produces it.
///
/// The search is best-first on the objective (so high-scoring regions are
/// reached before the state budget runs out) and exact: every configuration
/// within the depth and state budgets is visited once, deduplicated
/// exactly, so with ample budgets the returned schedule is the true
/// depth-bounded maximum.
///
/// # Example
///
/// ```
/// use swapcons_sim::engine::AdversarySynthesis;
/// use swapcons_sim::testing::TwoProcessSwapConsensus;
/// use swapcons_sim::Configuration;
///
/// // "Most undecided processes" — maximized before anyone swaps.
/// let initial = Configuration::initial(&TwoProcessSwapConsensus, &[0, 1]).unwrap();
/// let report = AdversarySynthesis::new(4, 1_000)
///     .maximize(&TwoProcessSwapConsensus, &initial, |_, c| {
///         c.running().len() as u64
///     });
/// assert_eq!(report.best_score, 2);
/// assert!(report.schedule.is_empty(), "the initial configuration wins");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct AdversarySynthesis {
    /// Search budgets.
    pub budget: Budget,
}

impl AdversarySynthesis {
    /// A synthesizer exploring to the given depth and state budget.
    pub fn new(max_depth: usize, max_states: usize) -> Self {
        AdversarySynthesis {
            budget: Budget::new(max_depth, max_states),
        }
    }

    /// Search all schedules from `initial` (up to the budgets) for the
    /// configuration maximizing `objective`, and return it with its
    /// schedule.
    ///
    /// The objective is evaluated exactly once per discovered
    /// configuration: the frontier scores entries for its priority order
    /// and tracks the maximum at the same time. Ties keep the
    /// first-discovered configuration, which is deterministic.
    pub fn maximize<P: Protocol>(
        &self,
        protocol: &P,
        initial: &Configuration<P>,
        objective: impl Fn(&P, &Configuration<P>) -> u64,
    ) -> SynthesisReport<P> {
        /// Nothing to check per state; a rejected step is skipped work
        /// (marks the search incomplete), never a silent abort.
        struct SynthVisitor;
        impl<P: Protocol> Visitor<P> for SynthVisitor {
            fn enter(
                &mut self,
                _protocol: &P,
                _config: &Configuration<P>,
                _ctx: &NodeCtx<'_>,
                _candidates: &[Action],
            ) -> Control {
                Control::Continue
            }

            fn step_error(
                &mut self,
                _protocol: &P,
                _error: SimError,
                _ctx: &mut EdgeCtx<'_>,
            ) -> Control {
                Control::Continue
            }
        }

        let capacity = self.budget.max_states.min(1 << 14);
        let mut dedup: DedupSet<P> = DedupSet::exact(capacity);
        let mut arena = ScheduleArena::new();
        let mut frontier = SynthFrontier::new(&objective);
        let stats = Engine::new(self.budget).run(
            protocol,
            initial.clone(),
            &mut dedup,
            &mut arena,
            &mut AllRunning,
            &mut frontier,
            &mut SynthVisitor,
        );
        let best = frontier.best.expect("the root is always discovered");
        SynthesisReport {
            best_score: best.score,
            schedule: arena.schedule(best.node),
            config: best.config,
            states: dedup.len(),
            // The depth horizon *defines* a synthesis search (racing
            // protocols are unbounded); only the state budget — or a
            // skipped step error — genuinely truncates it.
            complete: !stats.budget_truncated,
            deepest: stats.deepest,
        }
    }
}

/// Convenience: [`AdversarySynthesis::maximize`] from an input vector.
///
/// # Panics
///
/// Panics if the inputs are invalid for the protocol's task.
pub fn synthesize<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    max_depth: usize,
    max_states: usize,
    objective: impl Fn(&P, &Configuration<P>) -> u64,
) -> SynthesisReport<P> {
    let initial = Configuration::initial(protocol, inputs)
        .expect("adversary synthesis requires valid inputs");
    AdversarySynthesis::new(max_depth, max_states).maximize(protocol, &initial, objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use crate::testing::TwoProcessSwapConsensus;

    fn init(inputs: &[u64]) -> Configuration<TwoProcessSwapConsensus> {
        Configuration::initial(&TwoProcessSwapConsensus, inputs).unwrap()
    }

    /// A visitor that records visit order and nothing else.
    struct Recorder {
        depths: Vec<usize>,
    }

    impl<P: Protocol> Visitor<P> for Recorder {
        fn enter(
            &mut self,
            _protocol: &P,
            _config: &Configuration<P>,
            ctx: &NodeCtx<'_>,
            _candidates: &[Action],
        ) -> Control {
            self.depths.push(ctx.depth);
            Control::Continue
        }
    }

    #[test]
    fn lifo_engine_covers_the_two_process_space() {
        let mut dedup = DedupSet::exact(16);
        let mut arena = ScheduleArena::new();
        let mut visitor = Recorder { depths: Vec::new() };
        let stats = Engine::new(Budget::new(10, 10_000)).run(
            &TwoProcessSwapConsensus,
            init(&[0, 1]),
            &mut dedup,
            &mut arena,
            &mut AllRunning,
            &mut Lifo::new(),
            &mut visitor,
        );
        // The known space: 5 configurations (initial, two mids, two
        // terminals), all reachable within depth 2.
        assert_eq!(stats.states, 5);
        assert_eq!(dedup.len(), 5);
        assert!(stats.complete());
        assert!(!stats.stopped);
        assert_eq!(stats.deepest, 2);
        assert_eq!(stats.terminal_states, 2);
        assert_eq!(visitor.depths.len(), 5);
    }

    #[test]
    fn a_root_the_set_already_holds_is_expanded_by_its_own_record() {
        // The set stores p0's step first and then the root, so the run
        // finds its root present, with no record handed to it: the root's
        // children must be probed by their own records, not by ones built
        // from the record stored first.
        let p = TwoProcessSwapConsensus;
        let root = init(&[0, 1]);
        let mut first = root.clone();
        first.step(&p, ProcessId(0)).unwrap();
        let mut dedup = DedupSet::exact(16);
        assert!(dedup.insert(&p, &first) && dedup.insert(&p, &root));
        let stats = Engine::new(Budget::new(10, 10_000)).run(
            &p,
            root.clone(),
            &mut dedup,
            &mut ScheduleArena::new(),
            &mut AllRunning,
            &mut Lifo::new(),
            &mut Recorder { depths: Vec::new() },
        );
        // The root, p1's step, and p0's step after it; p0's step from
        // the root was known.
        assert_eq!((stats.states, dedup.len()), (3, 4));
        let mut last = root;
        last.step(&p, ProcessId(1)).unwrap();
        assert!(dedup.contains(&p, &last));
        last.step(&p, ProcessId(0)).unwrap();
        assert!(dedup.contains(&p, &last));
    }

    #[test]
    fn group_restricted_expansion_limits_the_walk() {
        let mut dedup = DedupSet::exact(16);
        let mut arena = ScheduleArena::new();
        let mut visitor = Recorder { depths: Vec::new() };
        let group = [ProcessId(0)];
        let stats = Engine::new(Budget::new(10, 10_000)).run(
            &TwoProcessSwapConsensus,
            init(&[0, 1]),
            &mut dedup,
            &mut arena,
            &mut GroupRestricted(&group),
            &mut Lifo::new(),
            &mut visitor,
        );
        // p0-only executions: initial and the configuration after p0's
        // single swap. p1 never steps.
        assert_eq!(stats.states, 2);
        assert!(stats.complete());
    }

    #[test]
    fn exact_state_budget_still_reports_complete() {
        // The budget-accounting discipline, pinned at the engine level: a
        // budget of exactly the space size drains without skipping work.
        let mut dedup = DedupSet::exact(16);
        let mut arena = ScheduleArena::new();
        let stats = Engine::new(Budget::new(10, 5)).run(
            &TwoProcessSwapConsensus,
            init(&[0, 1]),
            &mut dedup,
            &mut arena,
            &mut AllRunning,
            &mut Lifo::new(),
            &mut Recorder { depths: Vec::new() },
        );
        assert_eq!(stats.states, 5);
        assert!(stats.complete(), "exactly-sized budget is still exhaustive");
        assert!(!stats.budget_truncated);
        let mut dedup = DedupSet::exact(16);
        let mut arena = ScheduleArena::new();
        let stats = Engine::new(Budget::new(10, 4)).run(
            &TwoProcessSwapConsensus,
            init(&[0, 1]),
            &mut dedup,
            &mut arena,
            &mut AllRunning,
            &mut Lifo::new(),
            &mut Recorder { depths: Vec::new() },
        );
        assert!(!stats.complete(), "one state fewer genuinely truncates");
        assert!(stats.budget_truncated && !stats.depth_truncated);
    }

    #[test]
    fn stop_from_enter_aborts_immediately() {
        struct StopAtDepth1;
        impl<P: Protocol> Visitor<P> for StopAtDepth1 {
            fn enter(
                &mut self,
                _p: &P,
                _c: &Configuration<P>,
                ctx: &NodeCtx<'_>,
                _cands: &[Action],
            ) -> Control {
                if ctx.depth >= 1 {
                    Control::Stop
                } else {
                    Control::Continue
                }
            }
        }
        let mut dedup = DedupSet::exact(16);
        let mut arena = ScheduleArena::new();
        let stats = Engine::new(Budget::new(10, 10_000)).run(
            &TwoProcessSwapConsensus,
            init(&[0, 1]),
            &mut dedup,
            &mut arena,
            &mut AllRunning,
            &mut Lifo::new(),
            &mut StopAtDepth1,
        );
        assert!(stats.stopped);
        assert!(stats.states < 5);
    }

    #[test]
    fn edge_hook_sees_duplicates_and_decisions() {
        struct EdgeLog {
            decided_edges: usize,
            duplicate_edges: usize,
            schedules_ok: bool,
        }
        impl<P: Protocol> Visitor<P> for EdgeLog {
            fn enter(
                &mut self,
                _p: &P,
                _c: &Configuration<P>,
                _ctx: &NodeCtx<'_>,
                _cands: &[Action],
            ) -> Control {
                Control::Continue
            }
            fn edge(
                &mut self,
                _p: &P,
                _child: &Configuration<P>,
                decided: Option<u64>,
                is_new: bool,
                ctx: &mut EdgeCtx<'_>,
            ) -> Control {
                if decided.is_some() {
                    self.decided_edges += 1;
                    let schedule = ctx.schedule();
                    self.schedules_ok &= schedule.last() == Some(&ctx.pid());
                }
                if !is_new {
                    self.duplicate_edges += 1;
                }
                Control::Continue
            }
        }
        let mut visitor = EdgeLog {
            decided_edges: 0,
            duplicate_edges: 0,
            schedules_ok: true,
        };
        let mut dedup = DedupSet::exact(16);
        let mut arena = ScheduleArena::new();
        // Unanimous inputs: the two schedule orders converge on the same
        // terminal, so the second order's last edge is a duplicate.
        Engine::new(Budget::new(10, 10_000)).run(
            &TwoProcessSwapConsensus,
            init(&[1, 1]),
            &mut dedup,
            &mut arena,
            &mut AllRunning,
            &mut Lifo::new(),
            &mut visitor,
        );
        // Every edge in this protocol decides; the two orders converge on
        // duplicate terminals.
        assert!(visitor.decided_edges >= 4, "{}", visitor.decided_edges);
        assert!(visitor.duplicate_edges >= 1);
        assert!(visitor.schedules_ok, "edge schedules end with the edge pid");
    }

    #[test]
    fn best_first_visits_high_scores_before_low() {
        // The synthesis frontier pops the highest score first and breaks
        // ties toward the latest push. Score = number of decided processes.
        let p = TwoProcessSwapConsensus;
        let decided = |_: &TwoProcessSwapConsensus, c: &Configuration<_>| {
            c.decisions_iter().flatten().count() as u64
        };
        let step = |c: &Configuration<_>, pid| {
            let mut c = c.clone();
            c.step(&p, ProcessId(pid)).unwrap();
            c
        };
        let root = init(&[0, 1]);
        let (mid0, mid1) = (step(&root, 0), step(&root, 1));
        let done = step(&mid0, 1);
        let mut frontier = SynthFrontier::new(&decided);
        for (i, c) in [mid0, root, done, mid1].into_iter().enumerate() {
            frontier.push(&p, c, NodeId::from_raw(i as u32), 10 + i as u32);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| frontier.pop())
            .map(|(_, node, handle)| {
                assert_eq!(handle, 10 + node.to_raw(), "an entry keeps its handle");
                node.to_raw()
            })
            .collect();
        assert_eq!(popped, [2, 3, 0, 1], "scores 2, 1, 1, 0; the later 1 first");
        let best = frontier.best.expect("pushes record the extremum");
        assert_eq!((best.score, best.node.to_raw()), (2, 2));
    }

    #[test]
    fn synthesis_returns_a_replayable_extremal_schedule() {
        // Objective: number of decided processes. The maximum (2) is
        // reached by any length-2 schedule; the witness must replay to the
        // reported configuration.
        let report = synthesize(&TwoProcessSwapConsensus, &[0, 1], 10, 10_000, |_, c| {
            c.decisions_iter().flatten().count() as u64
        });
        assert_eq!(report.best_score, 2);
        assert_eq!(report.schedule.len(), 2);
        assert!(report.complete);
        assert_eq!(report.states, 5);
        let mut replay = init(&[0, 1]);
        runner::replay(&TwoProcessSwapConsensus, &mut replay, &report.schedule).unwrap();
        assert_eq!(replay, report.config, "witness replays to the extremum");
    }

    #[test]
    fn synthesis_objective_zero_keeps_the_root() {
        let report = synthesize(&TwoProcessSwapConsensus, &[3, 4], 10, 10_000, |_, _| 0);
        assert_eq!(report.best_score, 0);
        assert!(report.schedule.is_empty(), "ties keep the first visit");
    }

    #[test]
    fn synthesis_truncation_is_reported() {
        let report = synthesize(&TwoProcessSwapConsensus, &[0, 1], 10, 3, |_, c| {
            c.decisions_iter().flatten().count() as u64
        });
        assert!(!report.complete);
        assert!(report.states <= 3);
    }

    #[test]
    fn crash_bounded_zero_failures_is_the_identity() {
        let mut dedup = DedupSet::exact(16);
        let mut arena = ScheduleArena::new();
        let stats = Engine::new(Budget::new(10, 10_000)).run(
            &TwoProcessSwapConsensus,
            init(&[0, 1]),
            &mut dedup,
            &mut arena,
            &mut CrashBounded::new(AllRunning, 0),
            &mut Lifo::new(),
            &mut Recorder { depths: Vec::new() },
        );
        assert_eq!(stats.states, 5, "f = 0 explores the crash-free space");
        assert!(stats.complete());
    }

    #[test]
    fn crash_bounded_enumerates_every_crash_pattern() {
        struct CrashCensus {
            crashed_configs: usize,
            max_crashed: usize,
        }
        impl<P: Protocol> Visitor<P> for CrashCensus {
            fn enter(
                &mut self,
                _p: &P,
                c: &Configuration<P>,
                _ctx: &NodeCtx<'_>,
                _cands: &[Action],
            ) -> Control {
                let crashed = c.num_crashed();
                if crashed > 0 {
                    self.crashed_configs += 1;
                }
                self.max_crashed = self.max_crashed.max(crashed);
                Control::Continue
            }
        }
        let mut visitor = CrashCensus {
            crashed_configs: 0,
            max_crashed: 0,
        };
        let mut dedup = DedupSet::exact(64);
        let mut arena = ScheduleArena::new();
        let stats = Engine::new(Budget::new(10, 10_000)).run(
            &TwoProcessSwapConsensus,
            init(&[0, 1]),
            &mut dedup,
            &mut arena,
            &mut CrashBounded::new(AllRunning, 1),
            &mut Lifo::new(),
            &mut visitor,
        );
        assert!(stats.complete());
        assert!(
            stats.states > 5,
            "crash injection must enlarge the space: {}",
            stats.states
        );
        assert!(
            visitor.crashed_configs > 0,
            "crashed configurations visited"
        );
        assert_eq!(visitor.max_crashed, 1, "failure budget respected");
    }

    #[test]
    fn zero_deadline_truncates_gracefully() {
        let mut dedup = DedupSet::exact(16);
        let mut arena = ScheduleArena::new();
        let stats = Engine::new(Budget::new(10, 10_000))
            .with_deadline(Duration::ZERO)
            .run(
                &TwoProcessSwapConsensus,
                init(&[0, 1]),
                &mut dedup,
                &mut arena,
                &mut AllRunning,
                &mut Lifo::new(),
                &mut Recorder { depths: Vec::new() },
            );
        assert!(stats.deadline_truncated);
        assert!(!stats.complete());
        assert!(!stats.stopped, "a deadline is not a visitor abort");
        assert_eq!(stats.states, 0, "expired before the first visit");
    }

    #[test]
    fn panicking_step_is_isolated_and_reported() {
        use crate::testing::PanickingConsensus;

        struct PanicLog {
            panics: Vec<(ProcessId, String)>,
        }
        impl Visitor<PanickingConsensus> for PanicLog {
            fn enter(
                &mut self,
                _p: &PanickingConsensus,
                _c: &Configuration<PanickingConsensus>,
                _ctx: &NodeCtx<'_>,
                _cands: &[Action],
            ) -> Control {
                Control::Continue
            }
            fn step_error(
                &mut self,
                _p: &PanickingConsensus,
                error: SimError,
                ctx: &mut EdgeCtx<'_>,
            ) -> Control {
                if let SimError::Panicked { process, message } = error {
                    self.panics.push((process, message));
                    assert_eq!(ctx.pid(), self.panics.last().unwrap().0);
                }
                Control::Continue
            }
        }

        let root = Configuration::initial(&PanickingConsensus, &[0, 1]).unwrap();
        let mut dedup = DedupSet::exact(16);
        let mut arena = ScheduleArena::new();
        let mut visitor = PanicLog { panics: Vec::new() };
        let stats = Engine::new(Budget::new(10, 10_000)).run(
            &PanickingConsensus,
            root,
            &mut dedup,
            &mut arena,
            &mut AllRunning,
            &mut Lifo::new(),
            &mut visitor,
        );
        assert!(!stats.stopped, "Continue from step_error keeps searching");
        assert_eq!(stats.states, 1, "only the root is reachable");
        assert!(stats.budget_truncated, "skipped edges mark incompleteness");
        assert_eq!(visitor.panics.len(), 2, "both processes' steps panicked");
        assert!(visitor.panics[0].1.contains("injected protocol bug"));
    }

    #[test]
    fn pause_and_resume_have_full_parity() {
        // Uninterrupted baseline.
        let mut dedup = DedupSet::exact(64);
        let mut arena = ScheduleArena::new();
        let mut baseline_visitor = Recorder { depths: Vec::new() };
        let baseline = Engine::new(Budget::new(10, 10_000)).run(
            &TwoProcessSwapConsensus,
            init(&[0, 1]),
            &mut dedup,
            &mut arena,
            &mut CrashBounded::new(AllRunning, 1),
            &mut Lifo::new(),
            &mut baseline_visitor,
        );
        let baseline_states = dedup.len();

        // Interrupted run: pause at the first snapshot (after 2 states).
        let mut image: Option<SearchImage> = None;
        let mut sink = |img: &SearchImage| {
            image = Some(img.clone());
            Control::Stop
        };
        let mut dedup2 = DedupSet::exact(64);
        let mut arena2 = ScheduleArena::new();
        let mut first_visitor = Recorder { depths: Vec::new() };
        let paused = Engine::new(Budget::new(10, 10_000)).run_with(
            &TwoProcessSwapConsensus,
            init(&[0, 1]),
            &mut dedup2,
            &mut arena2,
            &mut CrashBounded::new(AllRunning, 1),
            &mut Lifo::new(),
            &mut first_visitor,
            Some(Checkpointing {
                interval: 2,
                sink: &mut sink,
            }),
        );
        assert!(paused.paused);
        assert!(!paused.complete());
        assert_eq!(paused.states, 2);
        let image = image.expect("a snapshot was taken");
        assert_eq!(image.stats.states, 2);

        // Resume with entirely fresh state.
        let mut dedup3 = DedupSet::exact(64);
        let mut arena3 = ScheduleArena::new();
        let mut resumed_visitor = Recorder { depths: Vec::new() };
        let resumed = Engine::new(Budget::new(10, 10_000))
            .resume(
                &TwoProcessSwapConsensus,
                init(&[0, 1]),
                &image,
                &mut dedup3,
                &mut arena3,
                &mut CrashBounded::new(AllRunning, 1),
                &mut Lifo::new(),
                &mut resumed_visitor,
                None,
            )
            .unwrap();
        assert_eq!(resumed, baseline, "stats parity");
        assert_eq!(dedup3.len(), baseline_states, "state-count parity");
        // The resumed run visits exactly the not-yet-visited suffix, in the
        // same order.
        assert_eq!(
            first_visitor.depths.len() + resumed_visitor.depths.len(),
            baseline_visitor.depths.len()
        );
        assert_eq!(
            resumed_visitor.depths,
            baseline_visitor.depths[first_visitor.depths.len()..]
        );
    }

    #[test]
    fn resume_rejects_inconsistent_images() {
        let mut image: Option<SearchImage> = None;
        let mut sink = |img: &SearchImage| {
            image = Some(img.clone());
            Control::Stop
        };
        let mut dedup = DedupSet::exact(64);
        let mut arena = ScheduleArena::new();
        Engine::new(Budget::new(10, 10_000)).run_with(
            &TwoProcessSwapConsensus,
            init(&[0, 1]),
            &mut dedup,
            &mut arena,
            &mut AllRunning,
            &mut Lifo::new(),
            &mut Recorder { depths: Vec::new() },
            Some(Checkpointing {
                interval: 1,
                sink: &mut sink,
            }),
        );
        let good = image.unwrap();

        let resume = |img: &SearchImage| {
            let mut dedup = DedupSet::exact(64);
            let mut arena = ScheduleArena::new();
            Engine::new(Budget::new(10, 10_000)).resume(
                &TwoProcessSwapConsensus,
                init(&[0, 1]),
                img,
                &mut dedup,
                &mut arena,
                &mut AllRunning,
                &mut Lifo::new(),
                &mut Recorder { depths: Vec::new() },
                None,
            )
        };
        assert!(resume(&good).is_ok());

        // Dangling frontier node.
        let mut bad = good.clone();
        bad.frontier.push(NodeId::from_raw(9_999));
        assert!(resume(&bad).unwrap_err().reason.contains("out of range"));

        // Discovery not rooted.
        let mut bad = good.clone();
        bad.discovery.remove(0);
        assert!(resume(&bad)
            .unwrap_err()
            .reason
            .contains("start at the root"));

        // Duplicate discovery entry.
        let mut bad = good.clone();
        let last = *bad.discovery.last().unwrap();
        bad.discovery.push(last);
        assert!(resume(&bad).unwrap_err().reason.contains("deduplicates"));
    }

    #[test]
    fn resume_rejects_actions_naming_processes_outside_the_run() {
        // A well-formed arena whose edges name p2 in a two-process run:
        // replay would index past the process slots, so resume must refuse
        // the image up front.
        for action in [Action::Step(ProcessId(2)), Action::Crash(ProcessId(7))] {
            let mut arena = ScheduleArena::new();
            let node = arena.child_action(ScheduleArena::ROOT, action);
            let image = SearchImage {
                stats: SearchStats::fresh(),
                arena,
                discovery: vec![ScheduleArena::ROOT, node],
                frontier: vec![node],
            };
            let err = Engine::new(Budget::new(10, 10_000))
                .resume(
                    &TwoProcessSwapConsensus,
                    init(&[0, 1]),
                    &image,
                    &mut DedupSet::exact(16),
                    &mut ScheduleArena::new(),
                    &mut AllRunning,
                    &mut Lifo::new(),
                    &mut Recorder { depths: Vec::new() },
                    None,
                )
                .unwrap_err();
            assert!(err.reason.contains("2 processes"), "{err}");
        }
    }
}

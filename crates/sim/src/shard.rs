//! Sharded (multi-worker) search driver: work-stealing exploration with
//! sequential-parity guarantees.
//!
//! This module is the engine's parallel mode (ROADMAP item 1). It keeps the
//! exploration *semantics* of [`crate::engine`] — the same per-node hook
//! order, the same exact budget discipline, the same witness materialization
//! — while spreading node expansion across a pool of `std::thread` workers
//! (the vendored [`workpool`] crate; the build is offline, so no
//! rayon/crossbeam).
//!
//! # Threading model: depth-synchronized waves
//!
//! Workers drain one **wave** (all frontier entries at the current depth) in
//! parallel through per-worker deques with steal-half balancing. Children
//! discovered during wave `d` are deduplicated globally (see
//! [`StripedDedup`]) and accumulated in per-worker *next-wave* buffers; when
//! the pool's pending-work counter reaches zero the workers rendezvous at a
//! barrier and a single leader swaps the buffers in as wave `d + 1`. The
//! wave discipline is what makes the parallel search **deterministic** where
//! it matters:
//!
//! * every configuration is discovered at its *minimum* depth, independent
//!   of thread count and steal order — so the per-wave discovered sets, and
//!   with them `states`, `terminal_states`, `deepest`, and the truncation
//!   flags of [`SearchStats`], are reproducible run to run;
//! * on a **complete** search those counters equal the sequential engine's
//!   exactly (the reachable set does not depend on exploration order), which
//!   is the parity the CI gate enforces for `with_threads(t)`, t ∈ {1,2,4};
//! * a checkpoint drained mid-run (see below) resumes — sequentially, FIFO —
//!   to the byte-identical report of the uninterrupted sharded run.
//!
//! `peak_frontier` is the one deliberately *approximate* counter (a
//! high-water mark sampled through an atomic); it is excluded from every
//! parity gate, exactly as it is excluded from the checkpoint-resume
//! parity tests.
//!
//! # Global termination
//!
//! "Every deque is empty" is **not** a sound wave-end signal: a steal-half
//! holds items in a private buffer mid-transfer. Wave end is therefore
//! detected by quiescence of [`workpool::WorkQueues::pending`] — a counter
//! incremented at publication and decremented only after a node is fully
//! *processed*. The stripe-lock + work-counter protocol is model-checked by
//! the `swapcons-conc` DPOR checker (`crates/conc/tests/stripe_pool.rs`).
//!
//! # Checkpoints, deadlines, and stops
//!
//! All world-stopping events funnel through one rendezvous: a worker that
//! wants one (checkpoint cadence reached, wall-clock deadline expired,
//! visitor said [`Control::Stop`], or wave drained) raises a shared flag;
//! every worker parks at a barrier; the leader (worker 0) performs the
//! single-threaded action — draining a [`SearchImage`], marking
//! `deadline_truncated` (exactly once, satisfying the
//! [`Engine::with_deadline`](crate::engine::Engine::with_deadline) contract
//! in sharded mode), swapping waves, or finalizing — and releases the pool.
//! Because every in-flight node completes before its worker parks, the
//! drained image is a *consistent* sequential image: the arena re-sorted by
//! (depth, owner, index), discovery order root-first, and the frontier
//! ordered shallowest-first so a FIFO resume preserves the min-depth
//! invariant.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use workpool::WorkQueues;

use crate::canon::DedupSet;
use crate::config::{Configuration, SimError};
use crate::engine::{
    panic_message, Budget, Checkpointing, Control, Expansion, SearchImage, SearchStats,
};
use crate::ids::{Action, ProcessId};
use crate::protocol::Protocol;
use crate::search::{NodeId, ScheduleArena};

/// Maximum worker count: the owner tag of a `GNode` packs into 5 bits.
pub const MAX_THREADS: usize = 32;

/// Bits of a packed [`GNode`] holding the node's local index.
const IDX_BITS: u32 = 27;

/// A global node id: owner shard in the top 5 bits, index into that shard's
/// arena in the low 27. `u32::MAX` is the root (empty schedule), mirroring
/// [`ScheduleArena::ROOT`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GNode(u32);

impl GNode {
    /// The root of the schedule tree (no owner; depth 0).
    const ROOT: GNode = GNode(u32::MAX);

    fn pack(owner: usize, idx: usize) -> GNode {
        assert!(owner < MAX_THREADS, "owner tag fits 5 bits");
        assert!(idx < (1 << IDX_BITS), "shard arena overflow");
        let raw = ((owner as u32) << IDX_BITS) | idx as u32;
        assert!(raw != u32::MAX, "packed id collides with the root sentinel");
        GNode(raw)
    }

    fn owner(self) -> usize {
        (self.0 >> IDX_BITS) as usize
    }

    fn idx(self) -> usize {
        (self.0 & ((1 << IDX_BITS) - 1)) as usize
    }
}

/// Per-shard schedule arenas with owner-tagged node ids: each worker appends
/// nodes under its own (uncontended) lock, and witness materialization walks
/// parent chains across shards locking one shard at a time — never two at
/// once, so there is no lock-order deadlock.
struct ShardedArenas {
    /// One arena per worker: `(parent, packed action, depth)` per node, the
    /// packed-action format of [`ScheduleArena::raw_nodes`].
    shards: Vec<Mutex<Vec<(GNode, u32, u32)>>>,
}

impl ShardedArenas {
    fn new(workers: usize) -> Self {
        ShardedArenas {
            shards: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Append the edge `parent --action-->` to `owner`'s shard.
    fn record(&self, owner: usize, parent: GNode, action: Action, depth: u32) -> GNode {
        let mut shard = self.shards[owner].lock().expect("shard poisoned");
        let idx = shard.len();
        shard.push((parent, ScheduleArena::encode_action(action), depth));
        GNode::pack(owner, idx)
    }

    /// Materialize the action sequence from the root to `node` — the cold
    /// witness path, locking one shard per hop.
    fn actions_of(&self, node: GNode) -> Vec<Action> {
        let mut out = Vec::new();
        let mut cur = node;
        while cur != GNode::ROOT {
            let (parent, tagged) = {
                let shard = self.shards[cur.owner()].lock().expect("shard poisoned");
                let (parent, tagged, _) = shard[cur.idx()];
                (parent, tagged)
            };
            out.push(ScheduleArena::decode_action(tagged));
            cur = parent;
        }
        out.reverse();
        out
    }
}

/// Outcome of a bounded striped insert — the sharded counterpart of the
/// sequential engine's budget-check-then-insert sequence, folded into one
/// atomic decision per configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StripedInsert {
    /// Genuinely new and within the state budget: the caller fires the
    /// `edge(is_new = true)` hook and enqueues the child.
    New,
    /// Already present, budget not exhausted: the caller fires the
    /// `edge(is_new = false)` hook (the sequential engine calls `edge` for
    /// every in-budget duplicate too).
    Duplicate,
    /// Would have been new, but the state budget is exhausted: the caller
    /// sets `budget_truncated` and drops the child without any hook —
    /// mirroring the sequential engine, which checks the budget *before*
    /// the edge call.
    BudgetNew,
    /// A duplicate probed at/over the state budget: dropped without a hook
    /// and **without** setting `budget_truncated`, which is what keeps an
    /// exactly-`max_states` space `complete = true` (pinned since PR 2).
    BudgetDuplicate,
}

/// A striped, lock-sharded [`DedupSet`] with an exact global state budget.
///
/// One **keyer** instance computes routing keys — for symmetry-reduced
/// searches that means the [`CanonicalVisitedSet`](crate::canon::CanonicalVisitedSet)
/// orbit key, whose lazily built `OnceLock` inverse-permutation tables are
/// thereby shared read-only across all workers (its slot-hash memo is shared
/// too, behind a lock a busy worker skips rather than waits on). The key (an
/// orbit invariant, masked by the collision-forcing test hook exactly as in
/// the sequential sets) selects a stripe; each stripe is an independent copy
/// of the underlying set (same mode, group, and mask) behind its own mutex,
/// preserving the exact-fallback discipline per stripe.
///
/// The state budget is a global atomic reserved by compare-and-swap
/// *before* a new configuration is stored, so `len()` can never exceed
/// `max_states` and the `complete` flag stays exact at the boundary.
pub struct StripedDedup<P: Protocol> {
    keyer: DedupSet<P>,
    stripes: Vec<Mutex<DedupSet<P>>>,
    discovered: AtomicUsize,
    max_states: usize,
}

impl<P: Protocol> StripedDedup<P> {
    /// Build a striped set from a freshly configured (empty) `template`:
    /// the template becomes the shared keyer, and each of the `stripes`
    /// stripes is an empty clone of its mode/group/mask.
    ///
    /// # Panics
    ///
    /// Panics if `stripes == 0` or `template` is non-empty.
    pub fn new(template: DedupSet<P>, stripes: usize, max_states: usize) -> Self {
        assert!(stripes > 0, "need at least one stripe");
        assert!(template.is_empty(), "the stripe template must be empty");
        StripedDedup {
            stripes: (0..stripes)
                .map(|_| Mutex::new(template.stripe_clone()))
                .collect(),
            keyer: template,
            discovered: AtomicUsize::new(0),
            max_states,
        }
    }

    fn stripe_of(&self, key: u64) -> &Mutex<DedupSet<P>> {
        &self.stripes[(key % self.stripes.len() as u64) as usize]
    }

    /// Insert the root configuration, bypassing the state budget — the
    /// sequential engine seeds its dedup set with the root unconditionally,
    /// and parity requires the same here (even for `max_states == 0`).
    pub fn insert_root(&self, protocol: &P, config: &Configuration<P>) {
        let key = self.keyer.key_of(protocol, config);
        let fresh = self
            .stripe_of(key)
            .lock()
            .expect("stripe poisoned")
            .insert_prekeyed(key, protocol, config);
        assert!(fresh, "the root must be the first insert");
        self.discovered.fetch_add(1, Ordering::SeqCst);
    }

    /// Budget-bounded insert; see [`StripedInsert`] for the four outcomes
    /// and how they mirror the sequential engine's order of checks.
    ///
    /// The only cross-stripe coupling is the budget counter, and it is
    /// exact: a slot is reserved by CAS before the store, so concurrent
    /// inserts can never overshoot `max_states`. (At the budget *boundary*
    /// the `Duplicate`/`BudgetDuplicate` classification reads the counter
    /// non-transactionally; both outcomes are observable only on searches
    /// that are already incomplete, so no `complete = true` verdict ever
    /// depends on the race.)
    pub fn insert(&self, protocol: &P, config: &Configuration<P>) -> StripedInsert {
        let key = self.keyer.key_of(protocol, config);
        let mut stripe = self.stripe_of(key).lock().expect("stripe poisoned");
        if stripe.contains_prekeyed(key, protocol, config) {
            return if self.discovered.load(Ordering::SeqCst) >= self.max_states {
                StripedInsert::BudgetDuplicate
            } else {
                StripedInsert::Duplicate
            };
        }
        let reserved = self
            .discovered
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| {
                (d < self.max_states).then_some(d + 1)
            });
        match reserved {
            Ok(_) => {
                let fresh = stripe.insert_prekeyed(key, protocol, config);
                debug_assert!(fresh, "insert under the stripe lock after a miss");
                StripedInsert::New
            }
            Err(_) => StripedInsert::BudgetNew,
        }
    }

    /// Whether the configuration (or its orbit) is already present.
    pub fn contains(&self, protocol: &P, config: &Configuration<P>) -> bool {
        let key = self.keyer.key_of(protocol, config);
        self.stripe_of(key)
            .lock()
            .expect("stripe poisoned")
            .contains_prekeyed(key, protocol, config)
    }

    /// Distinct configurations (orbits) inserted, across all stripes.
    pub fn len(&self) -> usize {
        self.discovered.load(Ordering::SeqCst)
    }

    /// Whether nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Order of the dedup group (1 for exact mode).
    pub fn group_order(&self) -> usize {
        self.keyer.group_order()
    }

    /// Whether the dedup group is a degraded subgroup of the declared
    /// symmetry (see [`crate::Canonicalizer::degraded`]).
    pub fn degraded(&self) -> bool {
        self.keyer.degraded()
    }

    /// Exact-equality fallback comparisons summed across stripes.
    pub fn fallback_comparisons(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("stripe poisoned").fallback_comparisons())
            .sum()
    }

    /// Per-stripe fallback counters, for the forced-collision tests.
    #[cfg(test)]
    fn stripe_fallbacks(&self) -> Vec<usize> {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("stripe poisoned").fallback_comparisons())
            .collect()
    }
}

impl<P: Protocol> std::fmt::Debug for StripedDedup<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripedDedup")
            .field("stripes", &self.stripes.len())
            .field("len", &self.len())
            .field("max_states", &self.max_states)
            .finish()
    }
}

/// Wall-clock deadline shared across the worker pool. Any worker may
/// *raise* it (compare-and-swap, so detection is announced once); only the
/// rendezvous leader *marks* `deadline_truncated` — in its single-threaded
/// section, hence exactly once — and only if work was actually pending, the
/// same condition the sequential loop applies.
struct DeadlineState {
    started: Instant,
    limit: Option<Duration>,
    raised: AtomicBool,
}

impl DeadlineState {
    fn new(limit: Option<Duration>) -> Self {
        DeadlineState {
            started: Instant::now(),
            limit,
            raised: AtomicBool::new(false),
        }
    }

    fn expired(&self) -> bool {
        self.limit.is_some_and(|d| self.started.elapsed() >= d)
    }

    fn raise(&self) {
        let _ = self
            .raised
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst);
    }

    fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }
}

/// Read-only view of a node's position in the sharded schedule tree, handed
/// to [`ShardVisitor`] hooks. Materializing the schedule walks the
/// cross-shard parent chain (locking one shard at a time); like the
/// sequential engine's lazy `EdgeCtx`, nothing is allocated unless a hook
/// actually asks for a witness.
pub struct WitnessRef<'a> {
    arenas: &'a ShardedArenas,
    node: GNode,
    /// For edge hooks: the action appended after `node`'s own chain (the
    /// edge's arena node may not exist — duplicate edges never get one).
    action: Option<Action>,
}

impl WitnessRef<'_> {
    /// The action sequence from the root to (and including, for edge hooks)
    /// this position — replayable via [`crate::runner::replay_actions`].
    pub fn actions(&self) -> Vec<Action> {
        let mut out = self.arenas.actions_of(self.node);
        if let Some(action) = self.action {
            out.push(action);
        }
        out
    }

    /// The schedule (pid projection of [`WitnessRef::actions`]).
    pub fn schedule(&self) -> Vec<ProcessId> {
        self.actions().iter().map(|a| a.pid()).collect()
    }
}

impl std::fmt::Debug for WitnessRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WitnessRef")
            .field("node", &self.node)
            .field("action", &self.action)
            .finish()
    }
}

/// Per-worker visitor for the sharded driver — the counterpart of
/// [`crate::engine::Visitor`], with the same hook order per processed node:
/// `enter` (with expansion candidates), then one `edge` or `step_error`
/// call per in-budget candidate. Each worker owns one visitor; the caller
/// merges worker results after the join.
pub trait ShardVisitor<P: Protocol>: Send {
    /// Called once per claimed node.
    fn enter(
        &mut self,
        protocol: &P,
        config: &Configuration<P>,
        witness: &WitnessRef<'_>,
        candidates: &[Action],
    ) -> Control;

    /// Called for every generated in-budget edge, including edges to
    /// already-known configurations (`is_new == false`), before the child
    /// is enqueued. `decided` is always `None` for crash edges.
    fn edge(
        &mut self,
        _protocol: &P,
        _child: &Configuration<P>,
        _decided: Option<u64>,
        _is_new: bool,
        _witness: &WitnessRef<'_>,
    ) -> Control {
        Control::Continue
    }

    /// Called when the simulator rejects a candidate step (or the protocol
    /// panics). `Continue` skips the edge and marks the search incomplete;
    /// `Stop` aborts.
    fn step_error(
        &mut self,
        _protocol: &P,
        _error: SimError,
        _witness: &WitnessRef<'_>,
    ) -> Control {
        Control::Stop
    }
}

/// Options for [`run_sharded`].
#[derive(Debug)]
pub struct ShardOptions {
    /// Worker count (2..=[`MAX_THREADS`]; a single-threaded caller should
    /// use the sequential engine instead).
    pub threads: usize,
    /// Exact search budgets, identical in meaning to the sequential
    /// engine's. The frontier bound is enforced against the global pending
    /// count; at the exact boundary the check is best-effort (it can bind
    /// one child early or late vs the sequential order), which only affects
    /// searches that are already incomplete.
    pub budget: Budget,
    /// Wall-clock deadline; see `DeadlineState` on the exactly-once
    /// `deadline_truncated` discipline.
    pub deadline: Option<Duration>,
}

/// A claimed work item: the configuration, its global node id, and its
/// (minimum) depth.
type Item<P> = (Configuration<P>, GNode, u32);

/// All cross-worker state of one sharded run.
struct Shared<'a, P: Protocol> {
    pool: WorkQueues<Item<P>>,
    /// Per-worker next-wave buffers; swapped into the pool by the leader at
    /// wave end.
    next: Vec<Mutex<Vec<Item<P>>>>,
    arenas: ShardedArenas,
    dedup: &'a StripedDedup<P>,
    barrier: Barrier,
    deadline: DeadlineState,
    budget: Budget,
    // Deterministic counters (see the module docs for why).
    states: AtomicUsize,
    terminal: AtomicUsize,
    deepest: AtomicUsize,
    // Approximate high-water mark; excluded from parity.
    in_frontier: AtomicUsize,
    peak_frontier: AtomicUsize,
    // Checkpoint cadence: next `states` threshold that triggers a drain
    // (usize::MAX when checkpointing is off).
    next_checkpoint_at: AtomicUsize,
    ckpt_interval: usize,
    // Rendezvous protocol.
    world: AtomicBool,
    done: AtomicBool,
    ckpt_due: AtomicBool,
    // Stats flags, hoisted into shared state.
    stopped: AtomicBool,
    depth_truncated: AtomicBool,
    budget_truncated: AtomicBool,
    deadline_truncated: AtomicBool,
    paused: AtomicBool,
}

impl<P: Protocol> Shared<'_, P> {
    /// Ask for a rendezvous: every worker parks at the barrier as soon as
    /// it finishes its current node.
    fn propose_world(&self) {
        self.world.store(true, Ordering::SeqCst);
    }

    /// Total items parked in next-wave buffers.
    fn next_len(&self) -> usize {
        self.next
            .iter()
            .map(|b| b.lock().expect("buffer poisoned").len())
            .sum()
    }

    /// Drain the current (stopped) world into a sequential [`SearchImage`].
    /// Only the rendezvous leader calls this, while every other worker is
    /// parked — so all locks are uncontended and the pending counter equals
    /// the sum of deque lengths exactly.
    fn drain_image(&self, deadline_truncated: bool) -> SearchImage {
        // Snapshot every shard arena and establish the sequential order:
        // (depth, owner, local index). Parents have strictly smaller depth,
        // so they sort before their children, which is exactly the
        // invariant `ScheduleArena::from_raw_nodes` validates.
        let shards: Vec<Vec<(GNode, u32, u32)>> = self
            .arenas
            .shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").clone())
            .collect();
        let mut order: Vec<(u32, usize, usize)> = shards
            .iter()
            .enumerate()
            .flat_map(|(owner, nodes)| {
                nodes
                    .iter()
                    .enumerate()
                    .map(move |(idx, &(_, _, depth))| (depth, owner, idx))
            })
            .collect();
        order.sort_unstable();
        let mut new_ids: Vec<Vec<u32>> = shards.iter().map(|s| vec![u32::MAX; s.len()]).collect();
        for (seq, &(_, owner, idx)) in order.iter().enumerate() {
            new_ids[owner][idx] = u32::try_from(seq).expect("arena fits u32");
        }
        let remap = |node: GNode| -> NodeId {
            if node == GNode::ROOT {
                ScheduleArena::ROOT
            } else {
                NodeId::from_raw(new_ids[node.owner()][node.idx()])
            }
        };
        let raw: Vec<(NodeId, u32, u32)> = order
            .iter()
            .map(|&(depth, owner, idx)| {
                let (parent, tagged, _) = shards[owner][idx];
                (remap(parent), tagged, depth)
            })
            .collect();
        let total = raw.len();
        let arena = ScheduleArena::from_raw_nodes(raw)
            .expect("sharded drain produces a depth-sorted, acyclic arena");
        // Every arena node is a distinct discovered configuration (orbit) —
        // duplicate edges never create nodes — so discovery order is just
        // the sorted arena order, root first.
        let discovery: Vec<NodeId> = std::iter::once(ScheduleArena::ROOT)
            .chain((0..total).map(|i| NodeId::from_raw(i as u32)))
            .collect();
        // Frontier: current-wave remnants first (all at depth d), then the
        // next-wave buffers (all at depth d+1) — shallowest-first, so a
        // FIFO resume preserves the min-depth invariant.
        let mut frontier: Vec<NodeId> = Vec::new();
        for deque in self.pool.freeze() {
            frontier.extend(deque.into_iter().map(|(_, node, _)| remap(node)));
        }
        for buffer in &self.next {
            let buffer = buffer.lock().expect("buffer poisoned");
            frontier.extend(buffer.iter().map(|&(_, node, _)| remap(node)));
        }
        let stats = SearchStats {
            states: self.states.load(Ordering::SeqCst),
            terminal_states: self.terminal.load(Ordering::SeqCst),
            deepest: self.deepest.load(Ordering::SeqCst),
            peak_frontier: self.peak_frontier.load(Ordering::SeqCst).max(1),
            stopped: false,
            depth_truncated: self.depth_truncated.load(Ordering::SeqCst),
            budget_truncated: self.budget_truncated.load(Ordering::SeqCst),
            deadline_truncated,
            paused: false,
        };
        SearchImage {
            stats,
            arena,
            discovery,
            frontier,
        }
    }
}

/// Run a sharded search from `root`, calling one [`ShardVisitor`] per
/// worker, and return the merged [`SearchStats`]. The root is inserted into
/// `dedup` here (pass a fresh set); `visitors.len()` selects the worker
/// count and must equal `opts.threads`.
///
/// See the module docs for the determinism and parity guarantees. The
/// checkpoint `sink`, when present, observes drained sequential images on
/// roughly the configured cadence (the sharded cadence is approximate: the
/// drain lands at the first rendezvous after the threshold is crossed);
/// returning [`Control::Stop`] from the sink pauses the run with
/// `paused = true`, exactly like the sequential engine.
///
/// # Panics
///
/// Panics if `opts.threads` is not in `2..=MAX_THREADS` or does not match
/// `visitors.len()`.
pub fn run_sharded<P, E, V>(
    protocol: &P,
    root: Configuration<P>,
    dedup: &StripedDedup<P>,
    opts: &ShardOptions,
    make_expansion: impl Fn() -> E,
    visitors: &mut [V],
    ckpt: Option<Checkpointing<'_>>,
) -> SearchStats
where
    P: Protocol,
    E: Expansion<P> + Send,
    V: ShardVisitor<P>,
{
    let threads = opts.threads;
    assert!(
        (2..=MAX_THREADS).contains(&threads),
        "sharded runs take 2..={MAX_THREADS} workers (got {threads}); use the sequential engine for 1"
    );
    assert!(visitors.len() == threads, "one visitor per worker");
    let ckpt_interval = ckpt.as_ref().map_or(0, |c| c.interval.max(1));
    let shared = Shared {
        pool: WorkQueues::new(threads),
        next: (0..threads).map(|_| Mutex::new(Vec::new())).collect(),
        arenas: ShardedArenas::new(threads),
        dedup,
        barrier: Barrier::new(threads),
        deadline: DeadlineState::new(opts.deadline),
        budget: opts.budget,
        states: AtomicUsize::new(0),
        terminal: AtomicUsize::new(0),
        deepest: AtomicUsize::new(0),
        in_frontier: AtomicUsize::new(1),
        peak_frontier: AtomicUsize::new(1),
        next_checkpoint_at: AtomicUsize::new(if ckpt.is_some() {
            ckpt_interval
        } else {
            usize::MAX
        }),
        ckpt_interval,
        world: AtomicBool::new(false),
        done: AtomicBool::new(false),
        ckpt_due: AtomicBool::new(false),
        stopped: AtomicBool::new(false),
        depth_truncated: AtomicBool::new(false),
        budget_truncated: AtomicBool::new(false),
        deadline_truncated: AtomicBool::new(false),
        paused: AtomicBool::new(false),
    };
    dedup.insert_root(protocol, &root);
    shared.pool.push(0, (root, GNode::ROOT, 0));
    let mut ckpt_slot = ckpt;
    std::thread::scope(|scope| {
        for (w, visitor) in visitors.iter_mut().enumerate() {
            let shared = &shared;
            let expansion = make_expansion();
            let ckpt_for_leader = if w == 0 { ckpt_slot.take() } else { None };
            scope.spawn(move || {
                worker_loop(w, protocol, shared, expansion, visitor, ckpt_for_leader)
            });
        }
    });
    SearchStats {
        states: shared.states.load(Ordering::SeqCst),
        terminal_states: shared.terminal.load(Ordering::SeqCst),
        deepest: shared.deepest.load(Ordering::SeqCst),
        peak_frontier: shared.peak_frontier.load(Ordering::SeqCst).max(1),
        stopped: shared.stopped.load(Ordering::SeqCst),
        depth_truncated: shared.depth_truncated.load(Ordering::SeqCst),
        budget_truncated: shared.budget_truncated.load(Ordering::SeqCst),
        deadline_truncated: shared.deadline_truncated.load(Ordering::SeqCst),
        paused: shared.paused.load(Ordering::SeqCst),
    }
}

/// One worker's drain loop; worker 0 doubles as the rendezvous leader.
fn worker_loop<P, E, V>(
    w: usize,
    protocol: &P,
    shared: &Shared<'_, P>,
    mut expansion: E,
    visitor: &mut V,
    mut ckpt: Option<Checkpointing<'_>>,
) where
    P: Protocol,
    E: Expansion<P> + Send,
    V: ShardVisitor<P>,
{
    let mut candidates: Vec<Action> = Vec::new();
    let mut child_scratch: Option<Configuration<P>> = None;
    loop {
        if shared.world.load(Ordering::SeqCst) {
            if rendezvous(w, shared, &mut ckpt) {
                return;
            }
            continue;
        }
        // Satellite-6 deadline hoist: checked in shared worker state before
        // every claim, mirroring the sequential loop's check before every
        // pop. Whether it actually truncates (work pending) or the search
        // just finished in time is decided by the leader.
        if shared.deadline.expired() {
            shared.deadline.raise();
            shared.propose_world();
            continue;
        }
        match shared.pool.pop(w) {
            None => {
                if shared.pool.pending() == 0 {
                    // Wave drained (the counter proves no steal holds items
                    // privately): rendezvous for the swap.
                    shared.propose_world();
                } else {
                    std::thread::yield_now();
                }
            }
            Some((config, gnode, depth)) => {
                shared.in_frontier.fetch_sub(1, Ordering::SeqCst);
                let control = process_node(
                    w,
                    protocol,
                    shared,
                    &mut expansion,
                    visitor,
                    &mut candidates,
                    &mut child_scratch,
                    config,
                    gnode,
                    depth,
                );
                shared.pool.complete_one();
                if control == Control::Stop {
                    shared.stopped.store(true, Ordering::SeqCst);
                    shared.propose_world();
                } else if shared.states.load(Ordering::SeqCst)
                    >= shared.next_checkpoint_at.load(Ordering::SeqCst)
                {
                    shared.ckpt_due.store(true, Ordering::SeqCst);
                    shared.propose_world();
                }
            }
        }
    }
}

/// Process one claimed node: the sharded mirror of the sequential engine's
/// per-node body — same hook order, same budget-before-edge discipline,
/// same copy-on-write scratch-child reuse, same panic containment.
#[allow(clippy::too_many_arguments)]
fn process_node<P, E, V>(
    w: usize,
    protocol: &P,
    shared: &Shared<'_, P>,
    expansion: &mut E,
    visitor: &mut V,
    candidates: &mut Vec<Action>,
    child_scratch: &mut Option<Configuration<P>>,
    config: Configuration<P>,
    gnode: GNode,
    depth: u32,
) -> Control
where
    P: Protocol,
    E: Expansion<P>,
    V: ShardVisitor<P>,
{
    shared.states.fetch_add(1, Ordering::SeqCst);
    shared.deepest.fetch_max(depth as usize, Ordering::SeqCst);
    candidates.clear();
    expansion.candidates(protocol, &config, candidates);
    let witness = WitnessRef {
        arenas: &shared.arenas,
        node: gnode,
        action: None,
    };
    if visitor.enter(protocol, &config, &witness, candidates) == Control::Stop {
        return Control::Stop;
    }
    if candidates.is_empty() {
        shared.terminal.fetch_add(1, Ordering::SeqCst);
        return Control::Continue;
    }
    if depth as usize >= shared.budget.max_depth {
        shared.depth_truncated.store(true, Ordering::SeqCst);
        return Control::Continue;
    }
    let mut scratch_synced = false;
    for &action in candidates.iter() {
        let child = match child_scratch {
            Some(child) => {
                if !scratch_synced {
                    child.clone_state_from(&config);
                }
                child
            }
            None => child_scratch.insert(config.clone()),
        };
        scratch_synced = true;
        let stepped = match action {
            Action::Step(pid) => {
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
                // Budget checks first, exactly as sequentially: a child
                // probed while a budget binds gets no edge hook, and only a
                // genuinely new one marks the search truncated.
                if shared.in_frontier.load(Ordering::SeqCst) >= shared.budget.max_frontier {
                    if !shared.dedup.contains(protocol, child) {
                        shared.budget_truncated.store(true, Ordering::SeqCst);
                    }
                    child.undo_step(undo);
                    continue;
                }
                match shared.dedup.insert(protocol, child) {
                    StripedInsert::BudgetNew => {
                        shared.budget_truncated.store(true, Ordering::SeqCst);
                        child.undo_step(undo);
                    }
                    StripedInsert::BudgetDuplicate => {
                        child.undo_step(undo);
                    }
                    StripedInsert::Duplicate => {
                        let witness = WitnessRef {
                            arenas: &shared.arenas,
                            node: gnode,
                            action: Some(action),
                        };
                        if visitor.edge(protocol, child, decided, false, &witness) == Control::Stop
                        {
                            return Control::Stop;
                        }
                        child.undo_step(undo);
                    }
                    StripedInsert::New => {
                        let child_gnode = shared.arenas.record(w, gnode, action, depth + 1);
                        let witness = WitnessRef {
                            arenas: &shared.arenas,
                            node: child_gnode,
                            action: None,
                        };
                        if visitor.edge(protocol, child, decided, true, &witness) == Control::Stop {
                            return Control::Stop;
                        }
                        shared.next[w].lock().expect("buffer poisoned").push((
                            child.clone(),
                            child_gnode,
                            depth + 1,
                        ));
                        let now = shared.in_frontier.fetch_add(1, Ordering::SeqCst) + 1;
                        shared.peak_frontier.fetch_max(now, Ordering::SeqCst);
                        scratch_synced = false;
                    }
                }
            }
            Err(error) => {
                if matches!(error, SimError::Panicked { .. }) {
                    // The scratch child may hold torn state: discard it.
                    *child_scratch = None;
                }
                let witness = WitnessRef {
                    arenas: &shared.arenas,
                    node: gnode,
                    action: Some(action),
                };
                match visitor.step_error(protocol, error, &witness) {
                    Control::Stop => return Control::Stop,
                    Control::Continue => {
                        shared.budget_truncated.store(true, Ordering::SeqCst);
                    }
                }
            }
        }
    }
    Control::Continue
}

/// Park at the barrier; worker 0 executes the world operation
/// single-threadedly between the two waits. Returns `true` when the run is
/// over and the worker should exit.
fn rendezvous<P: Protocol>(
    w: usize,
    shared: &Shared<'_, P>,
    ckpt: &mut Option<Checkpointing<'_>>,
) -> bool {
    shared.barrier.wait();
    if w == 0 {
        leader_step(shared, ckpt);
    }
    shared.barrier.wait();
    shared.done.load(Ordering::SeqCst)
}

/// The leader's single-threaded world operation, in priority order: stop >
/// deadline > checkpoint > wave swap. Conditions that lose the rendezvous
/// (e.g. a wave end pre-empted by a checkpoint) are still true afterwards
/// and simply re-trigger the next rendezvous.
fn leader_step<P: Protocol>(shared: &Shared<'_, P>, ckpt: &mut Option<Checkpointing<'_>>) {
    if shared.stopped.load(Ordering::SeqCst) {
        // A visitor aborted: return immediately, no final snapshot —
        // mirroring the sequential engine's early return.
        shared.done.store(true, Ordering::SeqCst);
        return release(shared);
    }
    if shared.deadline.is_raised() {
        let remaining = shared.pool.pending() + shared.next_len();
        if remaining > 0 {
            // The single place — and single thread — that marks the
            // truncation, so the flag is set exactly once per run.
            shared.deadline_truncated.store(true, Ordering::SeqCst);
            if let Some(ck) = ckpt.as_mut() {
                // Final resumable snapshot, verdict ignored (mirrors the
                // sequential deadline path).
                let image = shared.drain_image(true);
                let _ = (ck.sink)(&image);
            }
            shared.done.store(true, Ordering::SeqCst);
            return release(shared);
        }
        // Deadline hit with nothing pending: the search finished in time;
        // fall through to the wave logic, which will finalize cleanly.
    }
    if shared.ckpt_due.swap(false, Ordering::SeqCst) {
        if let Some(ck) = ckpt.as_mut() {
            let image = shared.drain_image(false);
            match (ck.sink)(&image) {
                Control::Continue => {
                    let states = shared.states.load(Ordering::SeqCst);
                    let mut next = shared.next_checkpoint_at.load(Ordering::SeqCst);
                    while next <= states {
                        next = next.saturating_add(shared.ckpt_interval);
                    }
                    shared.next_checkpoint_at.store(next, Ordering::SeqCst);
                }
                Control::Stop => {
                    shared.paused.store(true, Ordering::SeqCst);
                    shared.done.store(true, Ordering::SeqCst);
                    return release(shared);
                }
            }
        }
    }
    if shared.pool.pending() == 0 {
        // Wave end: swap every worker's next-wave buffer into its own
        // deque (steals rebalance from there). An empty swap means the
        // search is exhausted.
        let mut moved = 0usize;
        for (owner, buffer) in shared.next.iter().enumerate() {
            let items: Vec<_> = std::mem::take(&mut *buffer.lock().expect("buffer poisoned"));
            moved += items.len();
            for item in items {
                shared.pool.push(owner, item);
            }
        }
        if moved == 0 {
            shared.done.store(true, Ordering::SeqCst);
        }
    }
    release(shared)
}

/// Re-open the world (unless the run is over) — always called by the
/// leader before the releasing barrier wait.
fn release<P: Protocol>(shared: &Shared<'_, P>) {
    if !shared.done.load(Ordering::SeqCst) {
        shared.world.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::DedupSet;
    use crate::engine::{AllRunning, Engine, Lifo, NodeCtx, Visitor};
    use crate::search::VisitedSet;
    use crate::testing::TwoProcessSwapConsensus;
    use proptest::prelude::*;

    fn cfg(a: u64, b: u64) -> Configuration<TwoProcessSwapConsensus> {
        Configuration::initial(&TwoProcessSwapConsensus, &[a, b]).expect("valid inputs")
    }

    #[test]
    fn gnode_packing_round_trips() {
        for owner in [0, 1, 7, MAX_THREADS - 1] {
            for idx in [0usize, 1, 1234, (1 << IDX_BITS) - 1] {
                if owner == MAX_THREADS - 1 && idx == (1 << IDX_BITS) - 1 {
                    // The one forbidden combination: it would collide with
                    // the root sentinel, and `pack` asserts against it.
                    continue;
                }
                let g = GNode::pack(owner, idx);
                assert_eq!(g.owner(), owner);
                assert_eq!(g.idx(), idx);
                assert_ne!(g, GNode::ROOT);
            }
        }
    }

    #[test]
    fn striped_budget_outcomes_are_exact_at_the_boundary() {
        let p = &TwoProcessSwapConsensus;
        let striped = StripedDedup::new(DedupSet::exact(8), 4, 3);
        striped.insert_root(p, &cfg(0, 0));
        assert_eq!(striped.insert(p, &cfg(0, 1)), StripedInsert::New);
        assert_eq!(striped.insert(p, &cfg(0, 1)), StripedInsert::Duplicate);
        assert_eq!(striped.insert(p, &cfg(0, 2)), StripedInsert::New);
        // Budget full at exactly max_states = 3.
        assert_eq!(striped.insert(p, &cfg(0, 3)), StripedInsert::BudgetNew);
        assert_eq!(
            striped.insert(p, &cfg(0, 2)),
            StripedInsert::BudgetDuplicate
        );
        assert_eq!(striped.len(), 3);
        assert!(striped.contains(p, &cfg(0, 2)));
        assert!(!striped.contains(p, &cfg(0, 3)));
    }

    #[test]
    fn root_insert_bypasses_a_zero_budget() {
        let p = &TwoProcessSwapConsensus;
        let striped = StripedDedup::new(DedupSet::exact(2), 2, 0);
        striped.insert_root(p, &cfg(0, 0));
        assert_eq!(striped.len(), 1);
        assert!(striped.contains(p, &cfg(0, 0)));
        assert_eq!(striped.insert(p, &cfg(0, 1)), StripedInsert::BudgetNew);
    }

    #[test]
    fn forced_collisions_exercise_the_exact_fallback_in_every_stripe() {
        // Mask fingerprints down to two bits: with four stripes, stripe i
        // receives exactly the configurations whose masked key is i, and
        // every insert beyond the first per stripe must run the exact
        // (full-equality) fallback scan.
        let p = &TwoProcessSwapConsensus;
        let striped = StripedDedup::new(
            DedupSet::Exact(VisitedSet::with_fingerprint_mask(0b11)),
            4,
            usize::MAX,
        );
        let mut inserted = 0usize;
        for a in 0..10 {
            for b in 0..10 {
                assert_eq!(striped.insert(p, &cfg(a, b)), StripedInsert::New);
                inserted += 1;
            }
        }
        // Exactness survives the collisions: every configuration is stored
        // and duplicates are still recognized.
        assert_eq!(striped.len(), inserted);
        for a in 0..10 {
            assert_eq!(striped.insert(p, &cfg(a, a)), StripedInsert::Duplicate);
        }
        let per_stripe = striped.stripe_fallbacks();
        assert_eq!(per_stripe.len(), 4);
        for (i, &fallbacks) in per_stripe.iter().enumerate() {
            assert!(fallbacks > 0, "stripe {i} never hit the exact fallback");
        }
    }

    proptest! {
        /// The union of the stripes equals the sequential set, for random
        /// insert batches, random stripe counts, and concurrent inserters.
        #[test]
        fn striped_contents_match_sequential(
            pairs in proptest::collection::vec((0u64..6, 0u64..6), 1..48),
            stripes in 1usize..6,
            workers in 2usize..5,
        ) {
            let p = &TwoProcessSwapConsensus;
            let mut reference = DedupSet::exact(64);
            for &(a, b) in &pairs {
                reference.insert(p, &cfg(a, b));
            }
            let striped = StripedDedup::new(DedupSet::exact(64), stripes, usize::MAX);
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let striped = &striped;
                    let pairs = &pairs;
                    scope.spawn(move || {
                        for &(a, b) in pairs.iter().skip(w).step_by(workers) {
                            striped.insert(p, &cfg(a, b));
                        }
                    });
                }
            });
            prop_assert_eq!(striped.len(), reference.len());
            for &(a, b) in &pairs {
                prop_assert!(striped.contains(p, &cfg(a, b)));
            }
            prop_assert!(!striped.contains(p, &cfg(9, 9)));
        }
    }

    /// A visitor that accepts everything — both sequentially and sharded —
    /// so runs compare raw search stats.
    struct Accept;

    impl Visitor<TwoProcessSwapConsensus> for Accept {
        fn enter(
            &mut self,
            _: &TwoProcessSwapConsensus,
            _: &Configuration<TwoProcessSwapConsensus>,
            _: &NodeCtx<'_>,
            _: &[Action],
        ) -> Control {
            Control::Continue
        }
    }

    impl ShardVisitor<TwoProcessSwapConsensus> for Accept {
        fn enter(
            &mut self,
            _: &TwoProcessSwapConsensus,
            _: &Configuration<TwoProcessSwapConsensus>,
            _: &WitnessRef<'_>,
            _: &[Action],
        ) -> Control {
            Control::Continue
        }
    }

    fn sequential_stats(budget: Budget) -> SearchStats {
        let mut dedup = DedupSet::exact(128);
        let mut arena = ScheduleArena::new();
        Engine::new(budget).run(
            &TwoProcessSwapConsensus,
            cfg(0, 1),
            &mut dedup,
            &mut arena,
            &mut AllRunning,
            &mut Lifo::new(),
            &mut Accept,
        )
    }

    fn sharded_stats(budget: Budget, threads: usize) -> SearchStats {
        let striped = StripedDedup::new(DedupSet::exact(128), 8, budget.max_states);
        let mut visitors: Vec<Accept> = (0..threads).map(|_| Accept).collect();
        run_sharded(
            &TwoProcessSwapConsensus,
            cfg(0, 1),
            &striped,
            &ShardOptions {
                threads,
                budget,
                deadline: None,
            },
            || AllRunning,
            &mut visitors,
            None,
        )
    }

    /// Everything but the order-dependent high-water mark.
    fn parity_view(s: SearchStats) -> (usize, usize, usize, bool, bool, bool, bool, bool) {
        (
            s.states,
            s.terminal_states,
            s.deepest,
            s.stopped,
            s.depth_truncated,
            s.budget_truncated,
            s.deadline_truncated,
            s.paused,
        )
    }

    #[test]
    fn sharded_complete_search_matches_sequential_stats() {
        let budget = Budget::new(16, 100_000);
        let seq = sequential_stats(budget);
        assert!(seq.complete(), "the two-process space is tiny");
        for threads in [2, 3, 4] {
            let shard = sharded_stats(budget, threads);
            assert_eq!(parity_view(shard), parity_view(seq), "threads = {threads}");
        }
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        let budget = Budget::new(16, 100_000);
        let first = sharded_stats(budget, 4);
        for _ in 0..2 {
            assert_eq!(parity_view(sharded_stats(budget, 4)), parity_view(first));
        }
    }

    #[test]
    fn exactly_max_states_stays_complete_in_sharded_mode() {
        let exact = sequential_stats(Budget::new(16, 100_000)).states;
        let seq = sequential_stats(Budget::new(16, exact));
        assert!(
            seq.complete(),
            "exactly-max spaces stay complete (PR 2 pin)"
        );
        let shard = sharded_stats(Budget::new(16, exact), 2);
        assert_eq!(parity_view(shard), parity_view(seq));
        let truncated = sharded_stats(Budget::new(16, exact - 1), 2);
        assert!(truncated.budget_truncated, "one fewer state must truncate");
    }

    #[test]
    fn zero_deadline_truncates_before_any_work() {
        let striped = StripedDedup::new(DedupSet::exact(16), 2, 100_000);
        let mut visitors = vec![Accept, Accept];
        let mut images: Vec<SearchImage> = Vec::new();
        let mut sink = |image: &SearchImage| {
            images.push(SearchImage {
                stats: image.stats,
                arena: image.arena.clone(),
                discovery: image.discovery.clone(),
                frontier: image.frontier.clone(),
            });
            Control::Continue
        };
        let stats = run_sharded(
            &TwoProcessSwapConsensus,
            cfg(0, 1),
            &striped,
            &ShardOptions {
                threads: 2,
                budget: Budget::new(16, 100_000),
                deadline: Some(Duration::ZERO),
            },
            || AllRunning,
            &mut visitors,
            Some(Checkpointing {
                interval: 1,
                sink: &mut sink,
            }),
        );
        assert_eq!(stats.states, 0, "no node may be claimed past the deadline");
        assert!(stats.deadline_truncated);
        assert!(!stats.paused);
        // The final forced snapshot is resumable: the whole search is still
        // pending, as exactly one frontier entry (the root).
        let last = images
            .last()
            .expect("deadline path forces a final snapshot");
        assert!(last.stats.deadline_truncated);
        assert_eq!(last.frontier.len(), 1);
        assert_eq!(last.frontier[0], ScheduleArena::ROOT);
    }
}

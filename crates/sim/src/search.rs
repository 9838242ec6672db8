//! Shared infrastructure for the exhaustive searches: a parent-pointer
//! arena for schedule reconstruction, the map type under the visited
//! set's indexes, and the interning table behind its records and the solo
//! memo.
//!
//! These are storage primitives underneath the strategy-driven search core
//! ([`crate::engine`]), which owns the exploration loop that the model
//! checker ([`crate::explore::ModelChecker`]), the lower-bound valency
//! oracle, and the adversary synthesizer all run on. The explored graphs'
//! nodes are [`crate::Configuration`]s.
//!
//! * **Visited states.** [`crate::canon::DedupSet`] stores each state as a
//!   packed record of interned component ids, and keys it on a 64-bit
//!   FxHash of the record folded to 32 bits, in a map whose hasher passes
//!   that key through instead of hashing it again. It confirms every hit
//!   by comparing records, so exactness never depends on hash quality.
//! * **Schedules.** Storing `Vec<ProcessId>` schedules in every stack/queue
//!   frame is `O(depth)` memory traffic per explored edge.
//!   [`ScheduleArena`] stores one `(parent, pid)` node per edge and
//!   materializes a schedule only when a witness is actually needed (a
//!   violation or a decision), which is the rare path.

use std::borrow::Borrow;
use std::hash::Hash;

use crate::ids::{Action, ProcessId};

/// Pass-through hasher for keys that are already hashes: the visited set's
/// keys are FxHash record keys and orbit keys (folded to 32 bits), so
/// re-hashing them buys nothing.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PrehashedKey(u64);

impl std::hash::Hasher for PrehashedKey {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PrehashedKey only accepts u64 and u32 keys");
    }

    fn write_u32(&mut self, key: u32) {
        self.write_u64(u64::from(key));
    }

    fn write_u64(&mut self, key: u64) {
        // One multiply to spread entropy into the low bits the hash table
        // indexes by (FxHash's final multiply leaves them weaker).
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type PrehashedMap<V> =
    std::collections::HashMap<u64, V, std::hash::BuildHasherDefault<PrehashedKey>>;

/// An interning table: each distinct key gets a `u32` id once, in order of
/// first sight, and an id reads its key back. A hit is confirmed by
/// equality on the key, so ids never depend on hash quality. Nothing is
/// allocated until the first key is interned.
pub(crate) struct Interned<K> {
    ids: fxhash::FxHashMap<K, u32>,
    keys: Vec<K>,
}

impl<K: Hash + Eq + Clone> Interned<K> {
    pub(crate) fn new() -> Self {
        Interned {
            ids: fxhash::FxHashMap::default(),
            keys: Vec::new(),
        }
    }

    /// The id of `key`, interning `own()` — an owned copy of `key` — on
    /// first sight.
    pub(crate) fn id<Q>(&mut self, key: &Q, own: impl FnOnce() -> K) -> u32
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = u32::try_from(self.keys.len()).expect("fewer than 2^32 interned keys");
        let owned = own();
        self.ids.insert(owned.clone(), id);
        self.keys.push(owned);
        id
    }

    /// The id of `key`, if it was interned.
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<u32>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.ids.get(key).copied()
    }

    /// The key of `id`.
    pub(crate) fn key(&self, id: u32) -> &K {
        &self.keys[id as usize]
    }

    /// Distinct keys interned.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Index of a node in a [`ScheduleArena`]. The root (empty schedule) is
/// [`ScheduleArena::ROOT`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The raw index, for snapshot serialization (crate-internal).
    pub(crate) fn to_raw(self) -> u32 {
        self.0
    }

    /// Rebuild from a raw index, for snapshot deserialization
    /// (crate-internal; callers validate range against the arena).
    pub(crate) fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }
}

/// A parent-pointer tree of schedule extensions.
///
/// Each explored edge `parent --action--> child` records one arena node; the
/// schedule reaching a node is reconstructed by walking parent pointers,
/// paying `O(depth)` exactly once per *witness* instead of once per *edge*.
/// Actions are either normal steps or crash transitions
/// ([`crate::Action`]); crash edges are tagged in a high bit of the packed
/// pid, so the node stays 12 bytes.
///
/// # Example
///
/// ```
/// use swapcons_sim::search::ScheduleArena;
/// use swapcons_sim::{Action, ProcessId};
///
/// let mut arena = ScheduleArena::new();
/// let a = arena.child(ScheduleArena::ROOT, ProcessId(0));
/// let b = arena.child_action(a, Action::Crash(ProcessId(1)));
/// assert_eq!(arena.depth(b), 2);
/// assert_eq!(arena.schedule(b), vec![ProcessId(0), ProcessId(1)]);
/// assert_eq!(
///     arena.actions(b),
///     vec![Action::Step(ProcessId(0)), Action::Crash(ProcessId(1))],
/// );
/// assert_eq!(arena.schedule(ScheduleArena::ROOT), vec![]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ScheduleArena {
    /// `(parent, tagged pid, depth)` per node, packed to 12 bytes; depth is
    /// cached so the hot path (depth cutoff tests) never walks the chain.
    /// The pid's [`ScheduleArena::CRASH_BIT`] marks a crash edge.
    nodes: Vec<(NodeId, u32, u32)>,
}

impl ScheduleArena {
    /// The root node: the empty schedule.
    pub const ROOT: NodeId = NodeId(u32::MAX);

    /// High bit of the packed pid marking a crash edge.
    const CRASH_BIT: u32 = 1 << 31;

    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the step edge `parent --pid-->` and return the child's id —
    /// shorthand for [`ScheduleArena::child_action`] with a step action.
    ///
    /// # Panics
    ///
    /// Panics if the arena exceeds `u32::MAX - 1` nodes or `pid` exceeds
    /// `2^31 - 1` (far beyond any explorable instance).
    pub fn child(&mut self, parent: NodeId, pid: ProcessId) -> NodeId {
        self.child_action(parent, Action::Step(pid))
    }

    /// Record the edge `parent --action-->` and return the child's id.
    ///
    /// # Panics
    ///
    /// Panics if the arena exceeds `u32::MAX - 1` nodes or the pid exceeds
    /// `2^31 - 1` (far beyond any explorable instance).
    pub fn child_action(&mut self, parent: NodeId, action: Action) -> NodeId {
        let depth = self.depth(parent) as u32 + 1;
        let tagged = Self::encode_action(action);
        self.nodes.push((parent, tagged, depth));
        let id = u32::try_from(self.nodes.len() - 1).expect("arena fits u32");
        assert!(id != u32::MAX, "arena full");
        NodeId(id)
    }

    /// Schedule length at `node` (0 for the root).
    pub fn depth(&self, node: NodeId) -> usize {
        if node == Self::ROOT {
            0
        } else {
            self.nodes[node.0 as usize].2 as usize
        }
    }

    /// Encode an action into the packed-pid form of
    /// [`ScheduleArena::raw_nodes`].
    fn encode_action(action: Action) -> u32 {
        let pid32 = u32::try_from(action.pid().index()).expect("process id fits u32");
        assert!(pid32 & Self::CRASH_BIT == 0, "process id fits 31 bits");
        if action.is_crash() {
            pid32 | Self::CRASH_BIT
        } else {
            pid32
        }
    }

    /// Decode one packed pid back into its action.
    fn decode(tagged: u32) -> Action {
        let pid = ProcessId((tagged & !Self::CRASH_BIT) as usize);
        if tagged & Self::CRASH_BIT != 0 {
            Action::Crash(pid)
        } else {
            Action::Step(pid)
        }
    }

    /// Materialize the schedule from the root to `node` as process ids —
    /// the cold path, called only when a witness must be reported. Crash
    /// edges contribute the crashing process's id; use
    /// [`ScheduleArena::actions`] when the step/crash distinction matters
    /// (it always does for replay of crash-injected searches).
    pub fn schedule(&self, node: NodeId) -> Vec<ProcessId> {
        self.actions(node).iter().map(|a| a.pid()).collect()
    }

    /// Materialize the action sequence from the root to `node` — like
    /// [`ScheduleArena::schedule`] but keeping crash transitions distinct,
    /// so the result replays exactly via
    /// [`crate::runner::replay_actions`].
    pub fn actions(&self, node: NodeId) -> Vec<Action> {
        let mut out = Vec::with_capacity(self.depth(node));
        let mut cur = node;
        while cur != Self::ROOT {
            let (parent, tagged, _) = self.nodes[cur.0 as usize];
            out.push(Self::decode(tagged));
            cur = parent;
        }
        out.reverse();
        out
    }

    /// The action labelling the edge into `node` (`None` for the root).
    pub fn action(&self, node: NodeId) -> Option<Action> {
        if node == Self::ROOT {
            None
        } else {
            Some(Self::decode(self.nodes[node.0 as usize].1))
        }
    }

    /// Number of recorded edges.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no edge has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The raw node table, for snapshot serialization (crate-internal).
    pub(crate) fn raw_nodes(&self) -> &[(NodeId, u32, u32)] {
        &self.nodes
    }

    /// Rebuild an arena from a raw node table, validating the parent-pointer
    /// and cached-depth invariants (crate-internal; snapshot decoding must
    /// never construct an arena whose accessors could panic or loop).
    pub(crate) fn from_raw_nodes(nodes: Vec<(NodeId, u32, u32)>) -> Result<Self, String> {
        for (i, &(parent, _, depth)) in nodes.iter().enumerate() {
            let parent_depth = if parent == Self::ROOT {
                0
            } else {
                // Parents must precede children: guarantees acyclicity.
                if parent.0 as usize >= i {
                    return Err(format!(
                        "arena node {i} has forward or self parent {}",
                        parent.0
                    ));
                }
                nodes[parent.0 as usize].2
            };
            if depth != parent_depth + 1 {
                return Err(format!(
                    "arena node {i} caches depth {depth}, parent implies {}",
                    parent_depth + 1
                ));
            }
        }
        Ok(ScheduleArena { nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::DedupSet;
    use crate::config::Configuration;
    use crate::ids::ProcessId;
    use crate::testing::TwoProcessSwapConsensus;

    const P: TwoProcessSwapConsensus = TwoProcessSwapConsensus;

    fn init(inputs: &[u64]) -> Configuration<TwoProcessSwapConsensus> {
        Configuration::initial(&P, inputs).unwrap()
    }

    #[test]
    fn visited_set_dedups_equal_configurations() {
        let mut set = DedupSet::exact(8);
        let a = init(&[0, 1]);
        assert!(set.insert(&P, &a));
        assert!(
            !set.insert(&P, &a.clone()),
            "clone is the same configuration"
        );
        let mut b = init(&[0, 1]);
        assert!(!set.insert(&P, &b), "equal content, different storage");
        b.step(&P, ProcessId(0)).unwrap();
        assert!(set.insert(&P, &b), "stepped configuration is new");
        assert_eq!(set.len(), 2);
        assert!(set.contains(&P, &a) && set.contains(&P, &b));
    }

    #[test]
    fn collision_guard_exact_fallback_is_exercised() {
        // Mask 0 forces EVERY configuration into one chain: the set must
        // still distinguish distinct states, via full-equality comparisons.
        let mut set = DedupSet::exact(8).with_fingerprint_mask(0);
        let a = init(&[0, 1]);
        let mut b = init(&[0, 1]);
        b.step(&P, ProcessId(0)).unwrap();
        let mut c = b.clone();
        c.step(&P, ProcessId(1)).unwrap();
        assert!(set.insert(&P, &a));
        assert!(set.insert(&P, &b), "colliding record keys, distinct states");
        assert!(set.insert(&P, &c));
        assert_eq!(set.len(), 3);
        assert!(!set.insert(&P, &a) && !set.insert(&P, &b) && !set.insert(&P, &c));
        assert!(
            set.fallback_comparisons() > 0,
            "the exact-state fallback path must have been taken"
        );
        assert!(set.contains(&P, &a) && set.contains(&P, &b) && set.contains(&P, &c));
    }

    #[test]
    fn unmasked_probes_rarely_fall_back() {
        // With real 64-bit record keys, distinct small states should not
        // collide; fallback comparisons come only from duplicate probes.
        let mut set = DedupSet::exact(8);
        let a = init(&[0, 1]);
        let mut b = a.clone();
        b.step(&P, ProcessId(0)).unwrap();
        assert!(set.insert(&P, &a));
        assert!(set.insert(&P, &b));
        assert_eq!(set.fallback_comparisons(), 0);
        assert!(!set.insert(&P, &b));
        assert_eq!(set.fallback_comparisons(), 1, "one compare per duplicate");
    }

    #[test]
    fn arena_reconstructs_schedules() {
        let mut arena = ScheduleArena::new();
        assert!(arena.is_empty());
        let a = arena.child(ScheduleArena::ROOT, ProcessId(1));
        let b = arena.child(a, ProcessId(0));
        let c = arena.child(a, ProcessId(2)); // sibling branch
        assert_eq!(arena.depth(ScheduleArena::ROOT), 0);
        assert_eq!(arena.depth(b), 2);
        assert_eq!(arena.schedule(b), vec![ProcessId(1), ProcessId(0)]);
        assert_eq!(arena.schedule(c), vec![ProcessId(1), ProcessId(2)]);
        assert_eq!(arena.len(), 3);
    }

    #[test]
    fn arena_round_trips_crash_edges() {
        let mut arena = ScheduleArena::new();
        let a = arena.child_action(ScheduleArena::ROOT, Action::Crash(ProcessId(2)));
        let b = arena.child(a, ProcessId(0));
        assert_eq!(arena.action(a), Some(Action::Crash(ProcessId(2))));
        assert_eq!(arena.action(b), Some(Action::Step(ProcessId(0))));
        assert_eq!(arena.action(ScheduleArena::ROOT), None);
        assert_eq!(
            arena.actions(b),
            vec![Action::Crash(ProcessId(2)), Action::Step(ProcessId(0))]
        );
        // The pid projection keeps crash entries (as bare pids).
        assert_eq!(arena.schedule(b), vec![ProcessId(2), ProcessId(0)]);
        assert_eq!(arena.depth(b), 2);
    }

    #[test]
    fn arena_raw_round_trip_validates() {
        let mut arena = ScheduleArena::new();
        let a = arena.child(ScheduleArena::ROOT, ProcessId(0));
        let _ = arena.child_action(a, Action::Crash(ProcessId(1)));
        let rebuilt = ScheduleArena::from_raw_nodes(arena.raw_nodes().to_vec()).unwrap();
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(rebuilt.actions(NodeId(1)), arena.actions(NodeId(1)));
        // Forward parent pointers and inconsistent depths are rejected.
        assert!(ScheduleArena::from_raw_nodes(vec![(NodeId(0), 0, 1)]).is_err());
        assert!(ScheduleArena::from_raw_nodes(vec![(NodeId(5), 0, 1)]).is_err());
        assert!(ScheduleArena::from_raw_nodes(vec![(ScheduleArena::ROOT, 0, 7)]).is_err());
    }
}

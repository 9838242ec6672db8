//! Symmetry declarations and canonicalization — quotient-space search.
//!
//! The paper's arguments are stated *up to renaming* of processes and input
//! values (valency, the Lemma 9/14b coverings, the Section 5 adversaries all
//! survive consistent relabeling), yet a naive explorer enumerates every
//! permuted twin of every configuration. This module lets a protocol declare
//! its symmetry group ([`Symmetry`], via [`crate::Protocol::symmetry`]) and
//! gives the exploration engines an orbit-keyed visited set so they search
//! **one representative per orbit** instead of the whole orbit.
//!
//! # The group of a run
//!
//! A [`Renaming`] is a simultaneous permutation `π` of process ids, `σ` of
//! task input values, and `τ` of object slots. It acts on a configuration by
//! moving process `i`'s status to slot `π(i)` and object `o`'s value to slot
//! `τ(o)` (rewriting embedded ids and values via the protocol's
//! [`rename_state`]/[`rename_value`]/[`rename_object`] hooks) and rewriting
//! decisions `v ↦ σ(v)`. For the action to map a *fixed run* —
//! `ModelChecker::check(protocol, inputs)` explores from one concrete input
//! vector — onto itself, the renaming must stabilize the input assignment:
//! `σ(inputs[i]) = inputs[π(i)]` for every `i`. [`Canonicalizer::for_inputs`]
//! enumerates exactly these renamings: `π` ranges over the protocol's
//! declared interchangeable process classes *composed with the process
//! motion of any process-coupled object-class permutation*, `σ` is *derived*
//! from `π` and the inputs (identity for protocols without value symmetry),
//! and `τ` is the object permutation the declaration couples to them — a
//! value-coupled class ([`ObjectClasses::value_coupled`]) moves its blocks
//! wherever `σ` sends their value labels (`BinaryRacing`'s two tracks swap
//! exactly when `σ` swaps the two track values), while a process-coupled
//! class ([`ObjectClasses::process_coupled`]) is enumerated directly and
//! drags its owner process classes along (`PairsKSet`'s pair swap moves the
//! pair's swap object *and* both partners together). Protocols whose object
//! permutation is a function of `π` alone (single-writer registers moving
//! with their writer, as in `TasConsensus`) keep expressing it through a
//! [`rename_object`] override instead of a declaration.
//!
//! # Soundness
//!
//! Dedup-by-orbit is sound for the properties the engines check because all
//! of them are renaming-invariant: agreement counts distinct decisions (a
//! bijection `σ` preserves the count), validity compares decisions against
//! the input *multiset* (stabilized by construction), and solo termination
//! is step-for-step equivariant. Crucially the searches keep exploring
//! **real** configurations (the first-discovered representative of each
//! orbit) — witness schedules remain genuine, replayable schedules — and
//! membership is *exact*: [`CanonicalVisitedSet`] first looks a probe up by
//! its plain fingerprint and confirms a literal duplicate by equality, and
//! otherwise keys on the orbit-minimal image key (found by a pruned
//! stabilizer-chain search, not a full group scan) and compares the probe
//! with every representative under that key under every group element,
//! mirroring [`VisitedSet`]'s discipline, so soundness never rests on hash
//! quality.
//!
//! The hooks come with an equivariance contract (see [`crate::Protocol`]);
//! [`assert_equivariant`] brute-force checks it on random executions and is
//! called from every protocol's test suite.
//!
//! [`rename_state`]: crate::Protocol::rename_state
//! [`rename_value`]: crate::Protocol::rename_value
//! [`rename_object`]: crate::Protocol::rename_object
//! [`VisitedSet`]: crate::search::VisitedSet

use std::sync::Arc;

use crate::config::Configuration;
use crate::ids::{ObjectId, ProcessId};
use crate::protocol::{Protocol, SimValue};
use crate::search::{PrehashedMap, VisitedSet};
use crate::ProcStatus;

/// Largest renaming group [`Canonicalizer::for_inputs`] will enumerate
/// (7! — far beyond the instance sizes the explorers handle).
///
/// The order is computed on the **composed product**: the factorials of the
/// process classes multiplied by the factorials of every process-coupled
/// object class's block count. (Value-coupled object permutations are
/// *derived* from `σ`, never independently enumerated, so they contribute no
/// factor.) A declaration exceeding the cap degrades **gracefully**: the
/// enumeration keeps a maximal genuine *subgroup* within the budget —
/// factors claim budget largest-first, each contributing the symmetric
/// group on the longest prefix of its members that still fits — instead of
/// dropping symmetry entirely. Any subgroup yields sound (merely coarser)
/// orbit dedup, and the degrade is reported ([`Canonicalizer::degraded`],
/// surfaced as `CheckReport::symmetry_degraded`) rather than silent.
pub const MAX_GROUP_ORDER: usize = 5040;

/// A declaration of interchangeable **object blocks** and the coupling that
/// ties their permutation `τ` to the rest of a renaming.
///
/// Blocks map **slot-for-slot**: if block `j` goes to block `τ(j)`, the
/// `s`-th object of block `j` lands in the `s`-th slot of block `τ(j)` (all
/// blocks of one class must therefore have the same length, and every pair
/// of corresponding objects the same schema — [`assert_equivariant`] checks
/// the latter).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectClasses {
    /// The interchangeable blocks, each a list of object ids in slot order.
    blocks: Vec<Vec<ObjectId>>,
    coupling: ObjectCoupling,
}

/// How an [`ObjectClasses`] permutation is induced or enumerated.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ObjectCoupling {
    /// `τ` is forced by the value renaming: block `j` carries the data of
    /// input value `labels[j]`, so it moves to the block labeled
    /// `σ(labels[j])`. Renamings whose `σ` does not map the label set onto
    /// itself are discarded (they are not symmetries).
    Values { labels: Vec<u64> },
    /// `τ` is enumerated directly and drags processes with it: `π` maps
    /// `owners[j]` slot-for-slot onto `owners[τ(j)]` (within-class
    /// permutations from [`Symmetry::process_classes`] compose on top).
    Processes { owners: Vec<Vec<ProcessId>> },
}

impl ObjectClasses {
    /// Blocks whose permutation is induced by the value renaming: block `j`
    /// holds the data of input value `labels[j]` (the two tracks of
    /// `BinaryRacing`, labeled by the preference value each track races
    /// for), so a renaming moves block `j` onto the block labeled
    /// `σ(labels[j])` — and is discarded entirely if `σ` moves a label off
    /// the label set. Only meaningful together with
    /// [`Symmetry::with_interchangeable_values`]; with `σ = id` the blocks
    /// never move.
    ///
    /// # Panics
    ///
    /// Panics if the shape is malformed: fewer labels than blocks, duplicate
    /// labels, overlapping or unequal-length blocks.
    pub fn value_coupled(blocks: Vec<Vec<ObjectId>>, labels: Vec<u64>) -> Self {
        assert_eq!(blocks.len(), labels.len(), "one label per block");
        let mut seen = std::collections::BTreeSet::new();
        assert!(
            labels.iter().all(|&l| seen.insert(l)),
            "block labels must be distinct"
        );
        let class = ObjectClasses {
            blocks,
            coupling: ObjectCoupling::Values { labels },
        };
        class.assert_block_shape();
        class
    }

    /// Blocks permuted freely (enumerated), each dragging its **owner
    /// process class** with it: moving block `j` to block `τ(j)` maps
    /// `owners[j]` slot-for-slot onto `owners[τ(j)]` (`PairsKSet`: pair
    /// `j`'s swap object owns the pair `{2j, 2j+1}`). Each owner list must
    /// either coincide with a declared process class or be disjoint from
    /// all of them, and all owner lists of one object class must be of the
    /// same kind — [`Canonicalizer::for_inputs`] degrades to trivial
    /// otherwise, because mixing the two would break the group structure of
    /// the composed renamings.
    ///
    /// # Panics
    ///
    /// Panics if the shape is malformed: owner count ≠ block count, unequal
    /// owner lengths, overlapping owners, or overlapping/unequal blocks.
    pub fn process_coupled(blocks: Vec<Vec<ObjectId>>, owners: Vec<Vec<ProcessId>>) -> Self {
        assert_eq!(blocks.len(), owners.len(), "one owner list per block");
        assert!(
            owners.windows(2).all(|w| w[0].len() == w[1].len()),
            "owner lists must have equal lengths (they map slot-for-slot)"
        );
        let mut seen = std::collections::BTreeSet::new();
        for owner in &owners {
            for &p in owner {
                assert!(seen.insert(p), "owner lists must be disjoint: {p}");
            }
        }
        let class = ObjectClasses {
            blocks,
            coupling: ObjectCoupling::Processes { owners },
        };
        class.assert_block_shape();
        class
    }

    fn assert_block_shape(&self) {
        assert!(
            self.blocks.windows(2).all(|w| w[0].len() == w[1].len()),
            "blocks of one class must have equal lengths (they map slot-for-slot)"
        );
        let mut seen = std::collections::BTreeSet::new();
        for block in &self.blocks {
            for &o in block {
                assert!(seen.insert(o), "blocks must be disjoint: {o}");
            }
        }
    }

    /// Whether this class can never move an object (fewer than two blocks).
    fn is_trivial(&self) -> bool {
        self.blocks.len() < 2
    }

    /// One past the largest object id any block mentions.
    fn max_object_bound(&self) -> usize {
        self.blocks
            .iter()
            .flatten()
            .map(|o| o.index() + 1)
            .max()
            .unwrap_or(0)
    }
}

/// A protocol's declared symmetry group.
///
/// Three components, compounded by [`Canonicalizer::for_inputs`]:
///
/// * **process classes** — disjoint sets of interchangeable process ids.
///   Processes in the same class may be permuted arbitrarily (given a
///   consistent input relabeling); processes in no class are fixed.
/// * **interchangeable values** — whether the protocol is oblivious to the
///   identity of task input values (it moves and compares them but never
///   orders, indexes by, or arithmetically combines them), so any
///   permutation of `{0, …, m-1}` maps executions to executions.
/// * **interchangeable object classes** ([`ObjectClasses`]) — blocks of
///   objects whose permutation `τ` is coupled to the rest of the renaming:
///   induced by `σ` (value-coupled) or enumerated together with the owner
///   process classes it drags along (process-coupled).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Symmetry {
    classes: Vec<Vec<ProcessId>>,
    values_interchangeable: bool,
    object_classes: Vec<ObjectClasses>,
}

impl Symmetry {
    /// No declared symmetry: canonicalization is the identity and reduction
    /// is a no-op. The safe default for any protocol.
    pub fn none() -> Self {
        Symmetry {
            classes: Vec::new(),
            values_interchangeable: false,
            object_classes: Vec::new(),
        }
    }

    /// All `n` processes are interchangeable (protocols whose code never
    /// special-cases a process id's *role*; ids embedded in states or object
    /// values are fine — the rename hooks rewrite them).
    pub fn full_process(n: usize) -> Self {
        Symmetry {
            classes: vec![ProcessId::all(n).collect()],
            values_interchangeable: false,
            object_classes: Vec::new(),
        }
    }

    /// Interchangeability restricted to the given disjoint classes
    /// (e.g. the pairing construction: partners within a pair are
    /// interchangeable, pairs are not).
    ///
    /// # Panics
    ///
    /// Panics if the classes overlap.
    pub fn process_classes(classes: Vec<Vec<ProcessId>>) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        for class in &classes {
            for &p in class {
                assert!(seen.insert(p), "process classes must be disjoint: {p}");
            }
        }
        Symmetry {
            classes,
            values_interchangeable: false,
            object_classes: Vec::new(),
        }
    }

    /// Additionally declare the input-value domain fully interchangeable.
    #[must_use]
    pub fn with_interchangeable_values(mut self) -> Self {
        self.values_interchangeable = true;
        self
    }

    /// Additionally declare a class of interchangeable object blocks (may be
    /// called repeatedly; the classes' blocks must be mutually disjoint,
    /// checked at enumeration time).
    #[must_use]
    pub fn with_object_classes(mut self, class: ObjectClasses) -> Self {
        self.object_classes.push(class);
        self
    }

    /// The declared process classes.
    pub fn classes(&self) -> &[Vec<ProcessId>] {
        &self.classes
    }

    /// Whether input values are declared interchangeable.
    pub fn values_interchangeable(&self) -> bool {
        self.values_interchangeable
    }

    /// The declared interchangeable object classes.
    pub fn object_classes(&self) -> &[ObjectClasses] {
        &self.object_classes
    }

    /// Whether the declaration admits no nontrivial renaming at all.
    /// (A value-coupled object class is counted through
    /// `values_interchangeable`: with `σ` pinned to the identity its blocks
    /// can never move.)
    pub fn is_trivial(&self) -> bool {
        !self.values_interchangeable
            && self.classes.iter().all(|c| c.len() < 2)
            && self
                .object_classes
                .iter()
                .all(|c| c.is_trivial() || matches!(c.coupling, ObjectCoupling::Values { .. }))
    }
}

/// A simultaneous renaming `(π, σ, τ)` of process ids, input values, and
/// object slots.
///
/// Obtained from [`Canonicalizer::for_inputs`]; protocols receive it in
/// their rename hooks and apply [`Renaming::pid`] to every embedded process
/// id, [`Renaming::value`] to every embedded *task input value*, and
/// [`Renaming::object`] to every embedded object id (and to nothing else —
/// lap counts, rounds, scan positions, flags are untouched).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Renaming {
    /// `pid_map[i]` is the image of `ProcessId(i)`.
    pid_map: Vec<ProcessId>,
    /// `value_map[v]` is the image of input value `v` (length = task `m`).
    value_map: Vec<u64>,
    /// `obj_map[o]` is the image of `ObjectId(o)`; objects past the end are
    /// fixed (an empty map is the identity — the common case for protocols
    /// without declared object classes). Protocols whose object permutation
    /// is a function of `π` alone override
    /// [`rename_object`](crate::Protocol::rename_object) and never consult
    /// this.
    obj_map: Vec<ObjectId>,
}

impl Renaming {
    /// The identity renaming for `n` processes and `m` values.
    pub fn identity(n: usize, m: u64) -> Self {
        Renaming {
            pid_map: ProcessId::all(n).collect(),
            value_map: (0..m).collect(),
            obj_map: Vec::new(),
        }
    }

    /// Image of a process id.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for the renaming's instance.
    pub fn pid(&self, p: ProcessId) -> ProcessId {
        self.pid_map[p.index()]
    }

    /// Image of a task input value. Values outside `{0, …, m-1}` are fixed
    /// (they cannot be input values, so no renaming touches them).
    pub fn value(&self, v: u64) -> u64 {
        self.value_map.get(v as usize).copied().unwrap_or(v)
    }

    /// Image of an object slot under the renaming's declared object
    /// permutation `τ`. This is what the default
    /// [`rename_object`](crate::Protocol::rename_object) returns; protocols
    /// whose object roles follow `π` (single-writer registers) override the
    /// hook and compute the image from [`Renaming::pid`] instead.
    pub fn object(&self, o: ObjectId) -> ObjectId {
        self.obj_map.get(o.index()).copied().unwrap_or(o)
    }

    /// Whether all three components are the identity.
    pub fn is_identity(&self) -> bool {
        self.is_value_identity()
            && self.is_object_identity()
            && self.pid_map.iter().enumerate().all(|(i, p)| p.index() == i)
    }

    /// Whether the declared object component is the identity (`τ = id`).
    /// Says nothing about `rename_object` overrides, which derive their
    /// permutation from `π`.
    pub fn is_object_identity(&self) -> bool {
        self.obj_map
            .iter()
            .enumerate()
            .all(|(o, &d)| d.index() == o)
    }

    /// Whether the value component is the identity (`σ = id`) — under such
    /// a renaming decided-value witnesses transfer verbatim between
    /// orbit-equal configurations. (The valency oracle no longer requires
    /// this: its stabilizer subgroup admits `σ ≠ id` renamings fixing the
    /// queried configuration and closes the witness set under them
    /// afterwards.)
    pub fn is_value_identity(&self) -> bool {
        self.value_map
            .iter()
            .enumerate()
            .all(|(v, &w)| v as u64 == w)
    }

    /// Whether `π` maps the given process set into itself (hence, being a
    /// bijection, onto itself) — required for group-restricted searches.
    pub fn stabilizes(&self, group: &[ProcessId]) -> bool {
        group.iter().all(|&p| group.contains(&self.pid(p)))
    }
}

/// Apply a renaming to a configuration, producing the renamed twin.
///
/// Process `i`'s status moves to slot `π(i)`: running states are rewritten
/// by [`Protocol::rename_state`], decisions by `σ`. Object `o`'s value moves
/// to slot [`Protocol::rename_object`]`(o)`, rewritten by
/// [`Protocol::rename_value`]. The input vector is unchanged — renamings
/// from [`Canonicalizer::for_inputs`] stabilize it by construction (debug
/// asserted).
///
/// # Panics
///
/// Panics if the protocol's `rename_object` is not a permutation (two
/// objects mapped to the same slot) — a broken symmetry declaration.
pub fn apply_renaming<P: Protocol>(
    protocol: &P,
    g: &Renaming,
    config: &Configuration<P>,
) -> Configuration<P> {
    let n = config.num_processes();
    let b = config.num_objects();
    let mut objects: Vec<Option<P::Value>> = (0..b).map(|_| None).collect();
    for i in 0..b {
        let src = ObjectId(i);
        let dst = protocol.rename_object(src, g);
        let renamed = protocol.rename_value(src, config.value(src), g);
        // Schema discipline: a relabeled value must still inhabit the
        // *destination* object's declared domain (renaming never launders an
        // out-of-domain value into a bounded object).
        debug_assert!(
            protocol
                .schema(dst)
                .check_domain_point(renamed.domain_point())
                .is_ok(),
            "rename_value pushed {src} out of the domain of {dst}"
        );
        let slot = &mut objects[dst.index()];
        assert!(
            slot.is_none(),
            "rename_object is not a permutation: {dst} hit twice"
        );
        *slot = Some(renamed);
    }
    let mut procs: Vec<Option<ProcStatus<P::State>>> = (0..n).map(|_| None).collect();
    for i in 0..n {
        let src = ProcessId(i);
        let dst = g.pid(src);
        let renamed = match config.status(src) {
            ProcStatus::Running(s) => ProcStatus::Running(protocol.rename_state(s, g)),
            ProcStatus::Decided(v) => ProcStatus::Decided(g.value(*v)),
            // A crash carries no state: the renamed process is crashed at
            // π(i), so renamings respect crashed-process sets.
            ProcStatus::Crashed => ProcStatus::Crashed,
        };
        let slot = &mut procs[dst.index()];
        assert!(slot.is_none(), "pid renaming is not a permutation: {dst}");
        *slot = Some(renamed);
    }
    debug_assert!(
        config
            .inputs()
            .iter()
            .enumerate()
            .all(|(i, &v)| g.value(v) == config.inputs()[g.pid(ProcessId(i)).index()]),
        "renaming does not stabilize the run's input assignment"
    );
    Configuration::from_parts(
        objects
            .into_iter()
            .map(|o| o.expect("permutation"))
            .collect(),
        procs.into_iter().map(|p| p.expect("permutation")).collect(),
        Arc::clone(config.inputs_handle()),
    )
}

/// The renaming group of one run: every `(π, σ)` compatible with the
/// protocol's declared [`Symmetry`] *and* the run's concrete input vector.
///
/// Plain data (no configuration state): build once per `check`/`query` and
/// hand to a [`CanonicalVisitedSet`].
#[derive(Clone, Debug, Default)]
pub struct Canonicalizer {
    /// The non-identity group elements (the identity is implicit).
    renamings: Vec<Renaming>,
    /// Whether the enumerated group is a proper subgroup of the *declared*
    /// one — the declaration exceeded [`MAX_GROUP_ORDER`] (prefix subgroups
    /// were kept) or was inconsistent with the instance (degraded to
    /// trivial). Reduction stays sound either way, but a degraded run
    /// explores more orbits than the declaration promised, so the engines
    /// surface the flag in their reports.
    degraded: bool,
}

impl Canonicalizer {
    /// A trivial canonicalizer (identity group): reduction is a no-op.
    pub fn trivial() -> Self {
        Canonicalizer::default()
    }

    /// Enumerate the renaming group of a run of `protocol` from `inputs`.
    ///
    /// For every permutation `π` drawn from the declared process classes
    /// (composed with the owner motion of every process-coupled object
    /// class), the value map `σ` is forced by `σ(inputs[i]) = inputs[π(i)]`:
    /// protocols without value symmetry require `σ = id` (so `π` must
    /// preserve inputs exactly); value-symmetric protocols accept any `π`
    /// for which the forced map is well-defined and injective, extended by
    /// the identity off the appearing values. The object permutation `τ` is
    /// then the composition of the enumerated process-coupled block moves
    /// with the moves `σ` induces on the value-coupled classes; a `σ` that
    /// moves a value-coupled label off its label set invalidates the whole
    /// renaming (it is not a symmetry).
    ///
    /// Class structures whose **composed** group would exceed
    /// [`MAX_GROUP_ORDER`] degrade gracefully to a maximal subgroup within
    /// the cap (see [`MAX_GROUP_ORDER`]); a declaration inconsistent with
    /// the instance degrades to the trivial group. Both are always sound —
    /// any subgroup gives exact, merely coarser, orbit dedup — and both set
    /// [`Canonicalizer::degraded`] so reports can surface the lost
    /// reduction instead of silently running wider than declared.
    pub fn for_inputs<P: Protocol>(protocol: &P, inputs: &[u64]) -> Self {
        let sym = protocol.symmetry();
        let task = protocol.task();
        if sym.is_trivial() || inputs.len() != task.n {
            return Canonicalizer::trivial();
        }
        if sym
            .classes()
            .iter()
            .any(|c| c.iter().any(|p| p.index() >= task.n))
            || !object_classes_valid(&sym, task.n, protocol.num_objects())
        {
            // An inconsistent declaration cannot be partially honored: no
            // subset of its renamings is known to be a symmetry. Degrade to
            // trivial, but flag it — a declared-but-lost group must show up
            // in `CheckReport`, not vanish.
            return Canonicalizer {
                renamings: Vec::new(),
                degraded: true,
            };
        }
        let SkeletonSet {
            skeletons,
            degraded,
        } = enumerate_skeletons(&sym, task.n);
        let mut renamings = Vec::new();
        for skeleton in skeletons {
            let Some(value_map) = derive_value_map(
                inputs,
                &skeleton.pid_map,
                sym.values_interchangeable(),
                task.m,
            ) else {
                continue;
            };
            let mut obj_map = skeleton.obj_map;
            if compose_value_coupled_moves(&sym, &value_map, &mut obj_map).is_none() {
                continue; // σ moves a label off its label set: not a symmetry
            }
            let g = Renaming {
                pid_map: skeleton.pid_map,
                value_map,
                obj_map,
            };
            if !g.is_identity() {
                // The identity is implicit.
                renamings.push(g);
            }
        }
        Canonicalizer {
            renamings,
            degraded,
        }
    }

    /// Order of the group, including the identity.
    pub fn group_order(&self) -> usize {
        self.renamings.len() + 1
    }

    /// Whether the enumerated group is a proper subgroup of the declared
    /// one (cap exceeded, or declaration inconsistent with the instance).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Whether only the identity survived (no reduction possible).
    pub fn is_trivial(&self) -> bool {
        self.renamings.is_empty()
    }

    /// The non-identity group elements.
    pub fn renamings(&self) -> &[Renaming] {
        &self.renamings
    }

    /// Keep only the renamings satisfying `keep`. The caller's predicate
    /// must carve out a **subgroup** (closed under composition and
    /// inverse) for the result to remain sound as a dedup group — e.g. the
    /// valency oracle retains the stabilizer of its query: renamings that
    /// fix the queried configuration exactly and map the queried process
    /// group onto itself.
    pub fn retain(&mut self, keep: impl FnMut(&Renaming) -> bool) {
        self.renamings.retain(keep);
    }
}

/// All permutations of `0..k` (k! of them), as index vectors.
fn index_permutations(k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    let mut used = vec![false; k];
    fn recurse(k: usize, used: &mut [bool], current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for i in 0..k {
            if !used[i] {
                used[i] = true;
                current.push(i);
                recurse(k, used, current, out);
                current.pop();
                used[i] = false;
            }
        }
    }
    recurse(k, &mut used, &mut current, &mut out);
    out
}

/// Validate the object-class declarations against the instance: blocks
/// mutually disjoint across classes and within the object range, owner pids
/// within the process range, and every process-coupled owner list either
/// **exactly** a declared process class or **disjoint from all** declared
/// classes — uniformly so across one object class (all owner lists of one
/// kind, never a mix). Both restrictions exist because the enumerated
/// renamings must form a group: block moves must map within-class
/// permutations onto within-class permutations, which holds precisely when
/// a move permutes whole declared classes among themselves (every owner a
/// class) or touches no class at all (every owner class-free). A mixed
/// class would conjugate a within-class permutation onto a permutation of
/// class-free processes, which the enumeration never generates — the
/// resulting set would not be closed under composition. Owner lists of
/// *different* object classes must not overlap either — two classes
/// dragging the same process would compose into process motions outside
/// the enumerated set the same way.
fn object_classes_valid(sym: &Symmetry, n: usize, num_objects: usize) -> bool {
    let mut seen = vec![false; num_objects];
    let mut owned = vec![false; n];
    for class in sym.object_classes() {
        for &o in class.blocks.iter().flatten() {
            if o.index() >= num_objects || std::mem::replace(&mut seen[o.index()], true) {
                return false;
            }
        }
        let ObjectCoupling::Processes { owners } = &class.coupling else {
            continue;
        };
        // `true` = this class's owners are declared classes, `false` =
        // they avoid all declared classes; fixed by the first owner list.
        let mut class_kind: Option<bool> = None;
        for owner in owners {
            if owner.iter().any(|p| p.index() >= n) {
                return false;
            }
            if owner
                .iter()
                .any(|p| std::mem::replace(&mut owned[p.index()], true))
            {
                return false;
            }
            let owner_set: std::collections::BTreeSet<ProcessId> = owner.iter().copied().collect();
            let matches_a_class = sym
                .classes()
                .iter()
                .any(|c| c.len() == owner.len() && c.iter().all(|p| owner_set.contains(p)));
            let disjoint_from_all = sym
                .classes()
                .iter()
                .all(|c| c.iter().all(|p| !owner_set.contains(p)));
            let kind = if matches_a_class {
                true
            } else if disjoint_from_all {
                false
            } else {
                return false;
            };
            if *class_kind.get_or_insert(kind) != kind {
                return false;
            }
        }
    }
    true
}

/// One enumerated pre-`σ` component of a renaming: a pid map composed from
/// the within-class permutations and the process-coupled block moves, plus
/// the object motion of the latter. (Value-coupled object motion is derived
/// from `σ` afterwards.)
struct Skeleton {
    pid_map: Vec<ProcessId>,
    obj_map: Vec<ObjectId>,
}

/// The enumerable skeletons of a declaration, after fitting under the cap.
struct SkeletonSet {
    skeletons: Vec<Skeleton>,
    /// Whether the cap trimmed any factor: the enumerated set generates a
    /// proper subgroup of the declared group.
    degraded: bool,
}

/// How many leading elements of each enumerated factor (process classes in
/// declaration order, then process-coupled object classes) survive the
/// [`MAX_GROUP_ORDER`] budget. Factors claim budget from largest to
/// smallest (stable on declaration order for ties); each keeps the
/// symmetric group on the longest prefix of its members whose factorial
/// still fits the running product. Prefix symmetric groups on disjoint
/// supports multiply into a genuine subgroup of the declared group, so the
/// trimmed enumeration stays a sound dedup group — unlike an arbitrary
/// truncation of the element list, which would not be closed under
/// composition.
fn fit_factors_under_cap(factor_sizes: &[usize]) -> (Vec<usize>, bool) {
    let mut by_size: Vec<usize> = (0..factor_sizes.len()).collect();
    by_size.sort_by_key(|&i| (std::cmp::Reverse(factor_sizes[i]), i));
    let mut kept = vec![0usize; factor_sizes.len()];
    let mut order: usize = 1;
    let mut degraded = false;
    for i in by_size {
        let len = factor_sizes[i];
        let mut keep = len.min(1);
        while keep < len {
            match order.checked_mul(keep + 1) {
                Some(next) if next <= MAX_GROUP_ORDER => {
                    order = next;
                    keep += 1;
                }
                _ => break,
            }
        }
        kept[i] = keep;
        degraded |= keep < len;
    }
    (kept, degraded)
}

/// All skeletons drawn from the declaration: the product over process
/// classes of the symmetric group on each class, composed with the product
/// over process-coupled object classes of the block permutations (each
/// dragging its owner lists slot-for-slot). Declarations whose composed
/// product exceeds [`MAX_GROUP_ORDER`] are trimmed to the maximal prefix
/// subgroup fitting the cap ([`fit_factors_under_cap`]) and flagged.
fn enumerate_skeletons(sym: &Symmetry, n: usize) -> SkeletonSet {
    let factor_sizes: Vec<usize> = sym
        .classes()
        .iter()
        .map(Vec::len)
        .chain(
            sym.object_classes()
                .iter()
                .filter(|c| matches!(c.coupling, ObjectCoupling::Processes { .. }))
                .map(|c| c.blocks.len()),
        )
        .collect();
    let (kept, degraded) = fit_factors_under_cap(&factor_sizes);
    // Objects past every declared block are fixed by all skeletons; sizing
    // the maps to the declared bound keeps undeclared protocols at the
    // empty (identity) object map.
    let object_bound = sym
        .object_classes()
        .iter()
        .map(ObjectClasses::max_object_bound)
        .max()
        .unwrap_or(0);
    let mut maps = vec![Skeleton {
        pid_map: ProcessId::all(n).collect(),
        obj_map: ObjectId::all(object_bound).collect(),
    }];
    let mut factor = 0;
    for class in sym.classes() {
        let k = kept[factor].min(class.len());
        factor += 1;
        if k < 2 {
            continue;
        }
        // Only the first `k` members of the class permute; the rest stay
        // fixed (the prefix subgroup the cap left affordable).
        let perms = index_permutations(k);
        let mut next = Vec::with_capacity(maps.len() * perms.len());
        for skeleton in &maps {
            for perm in &perms {
                let mut composed = skeleton.pid_map.clone();
                for (i, &j) in perm.iter().enumerate() {
                    composed[class[i].index()] = skeleton.pid_map[class[j].index()];
                }
                next.push(Skeleton {
                    pid_map: composed,
                    obj_map: skeleton.obj_map.clone(),
                });
            }
        }
        maps = next;
    }
    for class in sym.object_classes() {
        let ObjectCoupling::Processes { owners } = &class.coupling else {
            continue;
        };
        let k = kept[factor].min(class.blocks.len());
        factor += 1;
        if k < 2 {
            continue;
        }
        let perms = index_permutations(k);
        let mut next = Vec::with_capacity(maps.len() * perms.len());
        for skeleton in &maps {
            for perm in &perms {
                let mut pid_map = skeleton.pid_map.clone();
                let mut obj_map = skeleton.obj_map.clone();
                for (j, &tj) in perm.iter().enumerate() {
                    for (s, &p) in owners[j].iter().enumerate() {
                        pid_map[p.index()] = skeleton.pid_map[owners[tj][s].index()];
                    }
                    for (s, &o) in class.blocks[j].iter().enumerate() {
                        obj_map[o.index()] = skeleton.obj_map[class.blocks[tj][s].index()];
                    }
                }
                next.push(Skeleton { pid_map, obj_map });
            }
        }
        maps = next;
    }
    SkeletonSet {
        skeletons: maps,
        degraded,
    }
}

/// Compose into `obj_map` the block moves `σ` induces on the value-coupled
/// classes: block `j` (labeled `labels[j]`) moves to the block labeled
/// `σ(labels[j])`. `None` if `σ` sends a label off its label set — such a
/// renaming is not a symmetry and must be discarded whole.
fn compose_value_coupled_moves(
    sym: &Symmetry,
    value_map: &[u64],
    obj_map: &mut [ObjectId],
) -> Option<()> {
    for class in sym.object_classes() {
        let ObjectCoupling::Values { labels } = &class.coupling else {
            continue;
        };
        for (j, &label) in labels.iter().enumerate() {
            let image = value_map.get(label as usize).copied().unwrap_or(label);
            let tj = labels.iter().position(|&l| l == image)?;
            // Value- and process-coupled blocks are disjoint (validated), so
            // this never overwrites a process-coupled move.
            for (s, &o) in class.blocks[j].iter().enumerate() {
                obj_map[o.index()] = class.blocks[tj][s];
            }
        }
    }
    Some(())
}

/// The value map forced by `σ(inputs[i]) = inputs[π(i)]`, or `None` if `π`
/// is incompatible with the input assignment.
fn derive_value_map(
    inputs: &[u64],
    pid_map: &[ProcessId],
    values_interchangeable: bool,
    m: u64,
) -> Option<Vec<u64>> {
    if !values_interchangeable {
        // σ must be the identity: π has to preserve inputs exactly.
        return inputs
            .iter()
            .enumerate()
            .all(|(i, &v)| inputs[pid_map[i].index()] == v)
            .then(|| (0..m).collect());
    }
    let mut partial: Vec<Option<u64>> = vec![None; m as usize];
    for (i, &a) in inputs.iter().enumerate() {
        let b = inputs[pid_map[i].index()];
        match partial[a as usize] {
            None => partial[a as usize] = Some(b),
            Some(x) if x == b => {}
            Some(_) => return None, // inconsistent: no σ exists for this π
        }
    }
    // Injectivity on the appearing values (images are appearing values, so
    // the identity extension below stays a permutation of {0, …, m-1}).
    let mut hit = vec![false; m as usize];
    for image in partial.iter().flatten() {
        if std::mem::replace(&mut hit[*image as usize], true) {
            return None;
        }
    }
    Some(
        partial
            .iter()
            .enumerate()
            .map(|(v, w)| w.unwrap_or(v as u64))
            .collect(),
    )
}

/// The canonical representative of an input vector's orbit under the
/// declared symmetry: the lexicographic minimum over class (and
/// process-coupled block) permutations of the permuted vector, additionally
/// value-normalized by first occurrence when values are interchangeable and
/// the implied `σ` keeps every value-coupled label set intact.
/// `check_all_inputs` under reduction visits exactly the vectors that are
/// their own canonical form — sound because every candidate is the image of
/// `inputs` under a genuine protocol symmetry and the identity is always a
/// candidate, so every orbit contains a self-canonical vector.
pub fn canonical_input_vector(sym: &Symmetry, inputs: &[u64]) -> Vec<u64> {
    let n = inputs.len();
    // The same (possibly cap-trimmed) subgroup `for_inputs` enumerates:
    // grid skipping and per-run dedup must agree on the group, or a skipped
    // vector's representative might not be explored.
    let skeletons = enumerate_skeletons(sym, n).skeletons;
    let mut best: Option<Vec<u64>> = None;
    let consider = |candidate: Vec<u64>, best: &mut Option<Vec<u64>>| {
        if best.as_ref().is_none_or(|b| candidate < *b) {
            *best = Some(candidate);
        }
    };
    for skeleton in &skeletons {
        let mut candidate = vec![0u64; n];
        for (i, &v) in inputs.iter().enumerate() {
            candidate[skeleton.pid_map[i].index()] = v;
        }
        if sym.values_interchangeable() {
            let mut normalized = candidate.clone();
            let value_map = normalize_first_occurrence(&mut normalized);
            if value_map_respects_labels(sym, &value_map) {
                consider(normalized, &mut best);
            }
        }
        // σ = id is always a compatible value component (and normalization,
        // when permitted, never beats the un-normalized candidate upward —
        // first-occurrence values are pointwise ≤ the originals).
        consider(candidate, &mut best);
    }
    best.expect("the identity permutation always yields a candidate")
}

/// Whether `inputs` is the canonical representative of its orbit.
pub fn inputs_are_canonical(sym: &Symmetry, inputs: &[u64]) -> bool {
    canonical_input_vector(sym, inputs) == inputs
}

/// Rename values to `0, 1, 2, …` in order of first appearance, returning
/// the applied `(from, to)` pairs.
fn normalize_first_occurrence(v: &mut [u64]) -> Vec<(u64, u64)> {
    let mut map: Vec<(u64, u64)> = Vec::new();
    for x in v.iter_mut() {
        let renamed = match map.iter().find(|(from, _)| from == x) {
            Some(&(_, to)) => to,
            None => {
                let to = map.len() as u64;
                map.push((*x, to));
                to
            }
        };
        *x = renamed;
    }
    map
}

/// Whether a partial value map extends to a permutation stabilizing every
/// value-coupled label set: each mapped pair must stay on the same side of
/// each label set (membership preserved ⟹ the unmapped remainders of each
/// set have equal sizes, so a stabilizing extension exists).
fn value_map_respects_labels(sym: &Symmetry, value_map: &[(u64, u64)]) -> bool {
    sym.object_classes()
        .iter()
        .all(|class| match &class.coupling {
            ObjectCoupling::Values { labels } => value_map
                .iter()
                .all(|(from, to)| labels.contains(from) == labels.contains(to)),
            ObjectCoupling::Processes { .. } => true,
        })
}

/// Inverse-permutation tables for the incremental orbit-key path, one row
/// per candidate (row 0 the identity, row `i + 1` renaming `i`), so an
/// image's slots can be read off in destination order — no renamed
/// configuration is ever materialized on the hot path.
#[derive(Clone, Debug)]
struct RenamingTables {
    n: usize,
    b: usize,
    /// `inv_pid[c * n + d]` is the source process whose status candidate
    /// `c` moves into slot `d`.
    inv_pid: Vec<u32>,
    /// `inv_obj[c * b + d]` is the source object whose value candidate `c`
    /// moves into slot `d`.
    inv_obj: Vec<u32>,
}

impl RenamingTables {
    fn pid_src(&self, cand: usize, dst: usize) -> usize {
        self.inv_pid[cand * self.n + dst] as usize
    }

    fn obj_src(&self, cand: usize, dst: usize) -> usize {
        self.inv_obj[cand * self.b + dst] as usize
    }
}

/// Candidate id of the identity in the minimal-image search and in the
/// tables; candidate `i + 1` is renaming `i`.
const IDENTITY_CANDIDATE: u32 = 0;

/// End of a bucket chain, and the "not memoized" row.
const NONE: u32 = u32::MAX;

/// Most slot hashes one set memoizes (8 MiB of rows). Statuses first seen
/// past the bound are hashed directly.
const MEMO_SLOT_HASHES: usize = 1 << 20;

/// Smallest group order whose orbit keys read the slot-hash memo. Below it
/// the chain search evaluates so few candidates per slot that finding a
/// status's row costs more than hashing its images directly.
const MEMO_MIN_GROUP_ORDER: usize = 6;

/// FxHash of one process status — a slot hash of the identity image.
fn status_hash<S: std::hash::Hash>(status: &ProcStatus<S>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = fxhash::FxHasher::default();
    status.hash(&mut h);
    h.finish()
}

/// FxHash of `g · status`, the status renamed in place.
fn renamed_status_hash<P: Protocol>(
    protocol: &P,
    status: &ProcStatus<P::State>,
    g: &Renaming,
) -> u64 {
    match status {
        ProcStatus::Running(s) => status_hash(&ProcStatus::Running(protocol.rename_state(s, g))),
        ProcStatus::Decided(v) => status_hash(&ProcStatus::<P::State>::Decided(g.value(*v))),
        ProcStatus::Crashed => status_hash(&ProcStatus::<P::State>::Crashed),
    }
}

/// Process-slot hashes memoized per distinct status. Row `r` holds, for
/// every candidate `c`, the hash of `c · statuses[r]` at column `c` — what
/// the chain search needs for any slot that status is moved into — so a
/// slot evaluation is a table load instead of a `rename_state` plus a hash.
/// A row is found by the status's own hash (its identity column) and
/// confirmed by status equality. A status whose hash already names another
/// status's row, or one first seen once the memo holds
/// [`MEMO_SLOT_HASHES`], gets no row and is hashed directly.
struct SlotMemo<P: Protocol> {
    rows: PrehashedMap<u32>,
    statuses: Vec<ProcStatus<P::State>>,
    /// Row-major, `group order` columns per row.
    hashes: Vec<u64>,
}

impl<P: Protocol> SlotMemo<P> {
    fn new() -> Self {
        SlotMemo {
            rows: PrehashedMap::default(),
            statuses: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// The row of `status` (whose hash is `hash`), built on first sight, or
    /// [`NONE`] if the status gets no row.
    fn row(
        &mut self,
        protocol: &P,
        renamings: &[Renaming],
        status: &ProcStatus<P::State>,
        hash: u64,
    ) -> u32 {
        if let Some(&row) = self.rows.get(&hash) {
            return if self.statuses[row as usize] == *status {
                row
            } else {
                NONE
            };
        }
        let width = renamings.len() + 1;
        if self.hashes.len() + width > MEMO_SLOT_HASHES {
            return NONE;
        }
        // A rename hook that panicked mid-row left a partial row behind;
        // drop it so every row stays aligned.
        self.hashes.truncate(self.statuses.len() * width);
        self.hashes.push(hash);
        self.hashes.extend(
            renamings
                .iter()
                .map(|g| renamed_status_hash(protocol, status, g)),
        );
        let row = self.statuses.len() as u32;
        self.statuses.push(status.clone());
        self.rows.insert(hash, row);
        row
    }
}

/// A visited set over symmetry *orbits* with exact membership.
///
/// Each stored representative is a cheap copy-on-write clone of a *real*
/// configuration the search visited, held once and addressed by a `u32`
/// handle from two indexes. A probe is decided in two steps:
///
/// 1. **Exact index.** The probe's plain [`Configuration::fingerprint`]
///    names at most one representative; if that representative equals the
///    probe, the probe is a literal duplicate and no orbit key is computed.
///    A fingerprint naming a different configuration falls through to step
///    2, so the index needs no collision lists.
/// 2. **Orbit index.** The orbit key — the lexicographically smallest
///    per-slot hash sequence any group element can give the configuration
///    (an orbit invariant), folded to a `u64` — names a chain of
///    representatives, and the probe is compared with each one under every
///    group element. A miss stores the probe as a new representative.
///
/// Every "present" answer is confirmed by equality, so — exactly as with
/// [`VisitedSet`] — membership never depends on hash quality.
///
/// # The pruned minimal-image search
///
/// The key is computed without materializing the orbit and without
/// visiting most of the group. Per-renaming inverse permutation tables
/// (built once, on first probe) let each image be read off slot by slot in
/// destination order; the search walks destination slots as the base of a
/// stabilizer chain, carrying the set of candidates that still achieve the
/// minimal slot-hash prefix. At each slot every live candidate hashes only
/// that slot of its image; candidates above the minimum are pruned (their
/// whole branch of the backtrack tree dies — the prefix-cutoff rule), and
/// the survivors are exactly the coset of the minimal-prefix stabilizer.
/// Generic configurations collapse to a single candidate after one or two
/// slots, so the cost is ~|G| single-slot hashes plus a geometric tail —
/// versus |G| *full* image fingerprints for the pre-chain scan (kept as
/// [`CanonicalVisitedSet::orbit_key_unpruned`], the parity baseline).
///
/// For groups of order at least 6, process-slot hashes come from a per-set
/// memo with one row per distinct process status, holding the hash of that
/// status under every group element; a slot evaluation is then a table
/// load. The memo is bounded (2^20 slot hashes) and sits behind a lock that
/// a busy sharded worker skips rather than waits on, hashing directly;
/// either way the key is the same, bit for bit.
pub struct CanonicalVisitedSet<P: Protocol> {
    renamings: Vec<Renaming>,
    /// Whether the group is a cap- or validity-degraded subgroup of the
    /// declaration (see [`Canonicalizer::degraded`]).
    degraded: bool,
    /// Inverse-permutation tables; built lazily on the first probe (the
    /// object permutation needs the protocol, which `new` does not see).
    tables: std::sync::OnceLock<RenamingTables>,
    memo: std::sync::Mutex<SlotMemo<P>>,
    /// The stored representatives, addressed by handle.
    reps: Vec<Configuration<P>>,
    /// `next[h]`: the handle after `h` in its orbit-key chain, or [`NONE`].
    next: Vec<u32>,
    /// Orbit key → first representative of the chain.
    orbits: PrehashedMap<u32>,
    /// Plain fingerprint → a representative with that fingerprint.
    exact: PrehashedMap<u32>,
    mask: u64,
    fallback_comparisons: usize,
    index_hits: usize,
    orbit_keys: usize,
}

std::thread_local! {
    /// Scratch buffers for the minimal-image search: the live candidate
    /// set, the next-level set, and the memo row of each process. Thread-
    /// local rather than per-set because the sharded path ([`crate::shard`])
    /// computes keys through one *shared* keyer from many workers at once —
    /// probes are `&self` and must not contend on common scratch.
    static MIN_IMAGE_SCRATCH: std::cell::RefCell<(Vec<u32>, Vec<u32>, Vec<u32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

impl<P: Protocol> CanonicalVisitedSet<P> {
    /// An empty set deduplicating modulo `canon`'s group.
    pub fn new(canon: Canonicalizer) -> Self {
        CanonicalVisitedSet {
            renamings: canon.renamings,
            degraded: canon.degraded,
            tables: std::sync::OnceLock::new(),
            memo: std::sync::Mutex::new(SlotMemo::new()),
            reps: Vec::new(),
            next: Vec::new(),
            orbits: PrehashedMap::default(),
            exact: PrehashedMap::default(),
            mask: u64::MAX,
            fallback_comparisons: 0,
            index_hits: 0,
            orbit_keys: 0,
        }
    }

    /// Pre-size both indexes for roughly `expected` orbits.
    #[must_use]
    pub fn with_capacity(mut self, expected: usize) -> Self {
        self.orbits.reserve(expected);
        self.exact.reserve(expected);
        self
    }

    /// Mask orbit keys and fingerprints before use — the collision-forcing
    /// diagnostic hook, mirroring [`VisitedSet::with_fingerprint_mask`].
    #[must_use]
    pub fn with_fingerprint_mask(mut self, mask: u64) -> Self {
        self.mask = mask;
        self
    }

    /// Order of the dedup group (1 = no reduction).
    pub fn group_order(&self) -> usize {
        self.renamings.len() + 1
    }

    /// Whether the group is a degraded subgroup of the protocol's declared
    /// symmetry (see [`Canonicalizer::degraded`]).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The inverse-permutation tables, built on first use. The object
    /// permutation (and hence the tables) depends only on the protocol and
    /// the group, both fixed for the lifetime of a set.
    ///
    /// # Panics
    ///
    /// Panics if the protocol's `rename_object` is not a permutation — a
    /// broken symmetry declaration.
    fn tables(&self, protocol: &P, config: &Configuration<P>) -> &RenamingTables {
        self.tables.get_or_init(|| {
            let n = config.num_processes();
            let b = config.num_objects();
            let mut inv_pid: Vec<u32> = (0..n as u32).collect();
            let mut inv_obj: Vec<u32> = (0..b as u32).collect();
            for g in &self.renamings {
                let row = inv_pid.len();
                inv_pid.resize(row + n, NONE);
                for i in 0..n {
                    let dst = g.pid(ProcessId(i));
                    let slot = &mut inv_pid[row + dst.index()];
                    assert!(*slot == NONE, "pid renaming is not a permutation: {dst}");
                    *slot = i as u32;
                }
                let row = inv_obj.len();
                inv_obj.resize(row + b, NONE);
                for i in 0..b {
                    let dst = protocol.rename_object(ObjectId(i), g);
                    assert!(
                        dst.index() < b,
                        "rename_object is not a permutation: {dst} is out of range"
                    );
                    let slot = &mut inv_obj[row + dst.index()];
                    assert!(
                        *slot == NONE,
                        "rename_object is not a permutation: {dst} hit twice"
                    );
                    *slot = i as u32;
                }
            }
            RenamingTables {
                n,
                b,
                inv_pid,
                inv_obj,
            }
        })
    }

    /// The slot-hash memo, if this group uses one and no other thread holds
    /// it.
    fn memo(&self) -> Option<std::sync::MutexGuard<'_, SlotMemo<P>>> {
        use std::sync::TryLockError;
        if self.group_order() < MEMO_MIN_GROUP_ORDER {
            return None;
        }
        match self.memo.try_lock() {
            Ok(memo) => Some(memo),
            // Rows are only ever completed whole (see `SlotMemo::row`), so a
            // memo whose holder panicked is still consistent.
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            // A concurrent sharded worker holds it: hash directly.
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Hash of the value landing in **object** slot `dst` of the image
    /// `cand · config` (the configuration's own slot for the identity
    /// candidate) — read through the inverse tables, no image materialized.
    fn object_slot_hash(
        protocol: &P,
        config: &Configuration<P>,
        renamings: &[Renaming],
        tables: &RenamingTables,
        cand: u32,
        dst: usize,
    ) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = fxhash::FxHasher::default();
        if cand == IDENTITY_CANDIDATE {
            config.value(ObjectId(dst)).hash(&mut h);
        } else {
            let g = &renamings[cand as usize - 1];
            let src = ObjectId(tables.obj_src(cand as usize, dst));
            protocol
                .rename_value(src, config.value(src), g)
                .hash(&mut h);
        }
        h.finish()
    }

    /// Hash of the status landing in **process** slot `dst` of the image
    /// `cand · config`.
    fn process_slot_hash(
        protocol: &P,
        config: &Configuration<P>,
        renamings: &[Renaming],
        tables: &RenamingTables,
        cand: u32,
        dst: usize,
    ) -> u64 {
        if cand == IDENTITY_CANDIDATE {
            status_hash(config.status(ProcessId(dst)))
        } else {
            let src = ProcessId(tables.pid_src(cand as usize, dst));
            renamed_status_hash(protocol, config.status(src), &renamings[cand as usize - 1])
        }
    }

    /// One refinement level of the minimal-image search: hash the current
    /// slot for every live candidate, keep exactly the minimum achievers
    /// (the coset of the minimal-prefix stabilizer), and return the
    /// minimum. Candidates above the minimum are pruned here — the
    /// prefix-cutoff rule — and never evaluated on later slots. A single
    /// survivor short-circuits: the rest of the key is forced.
    fn refine(
        live: &mut Vec<u32>,
        next: &mut Vec<u32>,
        mut slot_hash: impl FnMut(u32) -> u64,
    ) -> u64 {
        if live.len() == 1 {
            return slot_hash(live[0]);
        }
        let mut min = u64::MAX;
        next.clear();
        for &cand in live.iter() {
            let hv = slot_hash(cand);
            if hv < min {
                min = hv;
                next.clear();
                next.push(cand);
            } else if hv == min {
                next.push(cand);
            }
        }
        std::mem::swap(live, next);
        min
    }

    /// The orbit's bucket key: the fold of the lexicographically minimal
    /// per-slot hash sequence over the orbit (identity included), masked —
    /// an orbit invariant, computed by the pruned stabilizer-chain search
    /// (see the type-level docs) with no image materialized.
    fn orbit_key(&self, protocol: &P, config: &Configuration<P>) -> u64 {
        use std::hash::Hasher;
        let tables = self.tables(protocol, config);
        let renamings = &self.renamings;
        let width = renamings.len() + 1;
        let b = config.num_objects();
        let n = config.num_processes();
        MIN_IMAGE_SCRATCH.with(|scratch| {
            let (live, next, rows) = &mut *scratch.borrow_mut();
            live.clear();
            live.extend(0..width as u32);
            // Base order: **process slots first**, then object slots.
            // Process states carry the per-pid payload (lap counters, local
            // views) and split the candidate set within a slot or two;
            // object slots are often σ-invariant across the whole group
            // (e.g. any unanimous-input run, where σ = id), so leading with
            // them would pay |G| hashes per slot without pruning anything.
            let mut h = fxhash::FxHasher::default();
            h.write_usize(n);
            // The memo is held for the process slots only.
            if let Some(mut memo) = self.memo() {
                rows.clear();
                rows.extend((0..n).map(|src| {
                    let status = config.status(ProcessId(src));
                    memo.row(protocol, renamings, status, status_hash(status))
                }));
                let memo = &*memo;
                for dst in 0..n {
                    let min = Self::refine(live, next, |cand| {
                        match rows[tables.pid_src(cand as usize, dst)] {
                            NONE => Self::process_slot_hash(
                                protocol, config, renamings, tables, cand, dst,
                            ),
                            row => memo.hashes[row as usize * width + cand as usize],
                        }
                    });
                    h.write_u64(min);
                }
            } else {
                for dst in 0..n {
                    let min = Self::refine(live, next, |cand| {
                        Self::process_slot_hash(protocol, config, renamings, tables, cand, dst)
                    });
                    h.write_u64(min);
                }
            }
            h.write_usize(b);
            for dst in 0..b {
                let min = Self::refine(live, next, |cand| {
                    Self::object_slot_hash(protocol, config, renamings, tables, cand, dst)
                });
                h.write_u64(min);
            }
            h.finish() & self.mask
        })
    }

    /// Full-|G| reference for the pruned search: every candidate's complete
    /// slot-hash sequence, hashed directly, lexicographic minimum, folded
    /// exactly as [`CanonicalVisitedSet::orbit_key`] folds it. This is the
    /// pre-chain scan's O(|G| · (b + n)) cost profile, kept **test-only**
    /// as the parity baseline for `tests/canon_soundness.rs` — never on a
    /// hot path.
    #[doc(hidden)]
    pub fn orbit_key_unpruned(&self, protocol: &P, config: &Configuration<P>) -> u64 {
        use std::hash::Hasher;
        let tables = self.tables(protocol, config);
        let renamings = &self.renamings;
        let b = config.num_objects();
        let n = config.num_processes();
        let sequence = |cand: u32| -> Vec<u64> {
            (0..n)
                .map(|dst| Self::process_slot_hash(protocol, config, renamings, tables, cand, dst))
                .chain((0..b).map(|dst| {
                    Self::object_slot_hash(protocol, config, renamings, tables, cand, dst)
                }))
                .collect()
        };
        let best = (0..self.group_order() as u32)
            .map(sequence)
            .min()
            .expect("the identity is a candidate");
        let mut h = fxhash::FxHasher::default();
        h.write_usize(n);
        for &slot in &best[..n] {
            h.write_u64(slot);
        }
        h.write_usize(b);
        for &slot in &best[n..] {
            h.write_u64(slot);
        }
        h.finish() & self.mask
    }

    /// The pruned orbit key — exposed for the brute-force parity suite
    /// (`tests/canon_soundness.rs`) only; engines go through
    /// [`CanonicalVisitedSet::insert`]/[`CanonicalVisitedSet::contains`].
    #[doc(hidden)]
    pub fn orbit_key_pruned(&self, protocol: &P, config: &Configuration<P>) -> u64 {
        self.orbit_key(protocol, config)
    }

    /// Whether `g · config == stored` for candidate `cand` (not the
    /// identity), compared slot by slot through the inverse tables with
    /// early exit on the first mismatch — no image materialized. Process
    /// slots go first for the same reason the chain search walks them
    /// first: they carry the per-pid payload and reject a wrong renaming
    /// within a slot or two, while object slots are often identical across
    /// the whole group.
    fn renamed_eq(
        protocol: &P,
        config: &Configuration<P>,
        stored: &Configuration<P>,
        g: &Renaming,
        t: &RenamingTables,
        cand: usize,
    ) -> bool {
        for dst in 0..t.n {
            let src = ProcessId(t.pid_src(cand, dst));
            let eq = match (config.status(src), stored.status(ProcessId(dst))) {
                (ProcStatus::Running(s), ProcStatus::Running(d)) => {
                    &protocol.rename_state(s, g) == d
                }
                (ProcStatus::Decided(v), ProcStatus::Decided(d)) => g.value(*v) == *d,
                (ProcStatus::Crashed, ProcStatus::Crashed) => true,
                _ => false,
            };
            if !eq {
                return false;
            }
        }
        for dst in 0..t.b {
            let src = ObjectId(t.obj_src(cand, dst));
            if protocol.rename_value(src, config.value(src), g) != *stored.value(ObjectId(dst)) {
                return false;
            }
        }
        true
    }

    /// Whether some member of `config`'s orbit equals `stored` — the orbit
    /// fallback. Each candidate renaming is tested by [`Self::renamed_eq`]'s
    /// slot-wise early-exit comparison instead of materializing the image:
    /// a wrong renaming costs about one rename call, not a full
    /// configuration clone.
    fn orbit_matches(
        &self,
        protocol: &P,
        stored: &Configuration<P>,
        config: &Configuration<P>,
    ) -> bool {
        if stored == config {
            return true;
        }
        let tables = self.tables(protocol, config);
        self.renamings
            .iter()
            .enumerate()
            .any(|(i, g)| Self::renamed_eq(protocol, config, stored, g, tables, i + 1))
    }

    /// The (masked) exact-index key of `config`.
    fn fingerprint(&self, config: &Configuration<P>) -> u64 {
        config.fingerprint() & self.mask
    }

    /// Whether the exact index names a representative equal to `config`.
    fn index_hit(&self, fingerprint: u64, config: &Configuration<P>) -> bool {
        self.exact
            .get(&fingerprint)
            .is_some_and(|&rep| self.reps[rep as usize] == *config)
    }

    /// The orbit's (masked) bucket key — exposed crate-internally so the
    /// striped sharded set ([`crate::shard`]) can compute orbit keys through
    /// **one** shared instance (whose lazily built tables and memo are then
    /// shared across workers) and route each insert to a stripe. Orbit keys
    /// are orbit invariants, so every member of an orbit lands in the same
    /// stripe.
    pub(crate) fn key_of(&self, protocol: &P, config: &Configuration<P>) -> u64 {
        self.orbit_key(protocol, config)
    }

    /// An empty set over the same group and mask — the stripe factory for
    /// [`crate::shard`]. The stripe keeps its own copy of the renamings for
    /// the orbit fallback (which builds the stripe's own inverse tables on
    /// first use); keys are still only ever computed through the shared
    /// keyer.
    pub(crate) fn stripe_clone(&self) -> Self {
        CanonicalVisitedSet::new(Canonicalizer {
            renamings: self.renamings.clone(),
            degraded: self.degraded,
        })
        .with_fingerprint_mask(self.mask)
    }

    /// Insert `config`'s orbit, returning `true` if no member of the orbit
    /// was already present. A literal duplicate of a stored representative
    /// is answered by the exact index without computing an orbit key.
    pub fn insert(&mut self, protocol: &P, config: &Configuration<P>) -> bool {
        self.insert_keyed_by(protocol, config, |set| set.orbit_key(protocol, config))
    }

    /// [`CanonicalVisitedSet::insert`] with the orbit key already computed
    /// (the sharded set computes keys through its shared keyer, outside the
    /// stripe lock). Probes past the exact index count as orbit keys here.
    pub(crate) fn insert_prekeyed(
        &mut self,
        key: u64,
        protocol: &P,
        config: &Configuration<P>,
    ) -> bool {
        self.insert_keyed_by(protocol, config, |_| key)
    }

    /// The two-step insert. `key_of` is called only when the exact index
    /// does not answer the probe; the orbit index is then probed once, and
    /// a miss stores `config` as a new representative in both indexes.
    ///
    /// Kept out of line: inlined, it made `DedupSet::insert` too large to
    /// inline into the engine's edge loop, which slowed exact searches.
    #[inline(never)]
    fn insert_keyed_by(
        &mut self,
        protocol: &P,
        config: &Configuration<P>,
        key_of: impl FnOnce(&Self) -> u64,
    ) -> bool {
        use std::collections::hash_map::Entry;
        let fingerprint = self.fingerprint(config);
        if self.index_hit(fingerprint, config) {
            self.index_hits += 1;
            return false;
        }
        self.orbit_keys += 1;
        let key = key_of(self);
        let handle = u32::try_from(self.reps.len())
            .ok()
            .filter(|&h| h != NONE)
            .expect("orbit count fits u32");
        match self.orbits.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(handle);
            }
            Entry::Occupied(slot) => {
                let mut at = *slot.get();
                loop {
                    self.fallback_comparisons += 1;
                    if self.orbit_matches(protocol, &self.reps[at as usize], config) {
                        return false;
                    }
                    match self.next[at as usize] {
                        NONE => break,
                        after => at = after,
                    }
                }
                self.next[at as usize] = handle;
            }
        }
        self.reps.push(config.clone());
        self.next.push(NONE);
        // Keep the first representative under a shared fingerprint; later
        // ones are still found through the orbit index.
        self.exact.entry(fingerprint).or_insert(handle);
        true
    }

    /// Whether some member of `config`'s orbit is present. (A rare-path
    /// probe — the engines call it only once a budget is exhausted — so it
    /// does not move the counters, which count insert probes.)
    pub fn contains(&self, protocol: &P, config: &Configuration<P>) -> bool {
        self.contains_keyed_by(protocol, config, || self.orbit_key(protocol, config))
    }

    /// [`CanonicalVisitedSet::contains`] with the orbit key already
    /// computed.
    pub(crate) fn contains_prekeyed(
        &self,
        key: u64,
        protocol: &P,
        config: &Configuration<P>,
    ) -> bool {
        self.contains_keyed_by(protocol, config, || key)
    }

    /// The two-step membership test; `key` is called only past the exact
    /// index.
    fn contains_keyed_by(
        &self,
        protocol: &P,
        config: &Configuration<P>,
        key: impl FnOnce() -> u64,
    ) -> bool {
        if self.index_hit(self.fingerprint(config), config) {
            return true;
        }
        let mut at = self.orbits.get(&key()).copied().unwrap_or(NONE);
        while let Some(rep) = self.reps.get(at as usize) {
            if self.orbit_matches(protocol, rep, config) {
                return true;
            }
            at = self.next[at as usize];
        }
        false
    }

    /// Number of distinct orbits inserted.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// Orbit comparisons against stored representatives — one per chain
    /// member an orbit-index hit was compared with.
    pub fn fallback_comparisons(&self) -> usize {
        self.fallback_comparisons
    }

    /// Insert probes answered by the exact index: literal copies of a
    /// stored representative, decided without an orbit key.
    pub fn index_hits(&self) -> usize {
        self.index_hits
    }

    /// Insert probes that went past the exact index to the orbit index,
    /// each needing an orbit key. With [`Self::index_hits`] this sums to
    /// the number of insert probes.
    pub fn orbit_keys(&self) -> usize {
        self.orbit_keys
    }
}

impl<P: Protocol> std::fmt::Debug for CanonicalVisitedSet<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CanonicalVisitedSet")
            .field("len", &self.len())
            .field("group_order", &self.group_order())
            .field("fallback_comparisons", &self.fallback_comparisons)
            .field("index_hits", &self.index_hits)
            .field("orbit_keys", &self.orbit_keys)
            .finish()
    }
}

/// The dedup front-end shared by the exploration engines: exact or reduced
/// — one insert/contains surface so `ModelChecker` and `ValencyOracle` stay
/// mode-agnostic.
// One set per search, moved a handful of times: boxing the larger reduced
// variant would only add an indirection to every probe.
#[allow(clippy::large_enum_variant)]
pub enum DedupSet<P: Protocol> {
    /// Plain exact visited set (the default).
    Exact(VisitedSet<P>),
    /// Orbit-keyed set: one representative explored per symmetry orbit.
    Reduced(CanonicalVisitedSet<P>),
}

impl<P: Protocol> DedupSet<P> {
    /// An exact set pre-sized for `expected` configurations.
    pub fn exact(expected: usize) -> Self {
        DedupSet::Exact(VisitedSet::with_capacity(expected))
    }

    /// A reduced set for `canon`'s group; degrades to exact when the group
    /// is trivial (so the orbit machinery costs nothing when it buys
    /// nothing). A trivial-but-**degraded** group (an inconsistent
    /// declaration) stays `Reduced` so the flag survives into reports —
    /// with zero renamings the orbit machinery is plain exact dedup.
    pub fn reduced(canon: Canonicalizer, expected: usize) -> Self {
        if canon.is_trivial() && !canon.degraded() {
            DedupSet::exact(expected)
        } else {
            DedupSet::Reduced(CanonicalVisitedSet::new(canon).with_capacity(expected))
        }
    }

    /// Insert, returning `true` if the configuration (or its orbit) is new.
    pub fn insert(&mut self, protocol: &P, config: &Configuration<P>) -> bool {
        match self {
            DedupSet::Exact(set) => set.insert(config),
            DedupSet::Reduced(set) => set.insert(protocol, config),
        }
    }

    /// Membership test.
    pub fn contains(&self, protocol: &P, config: &Configuration<P>) -> bool {
        match self {
            DedupSet::Exact(set) => set.contains(config),
            DedupSet::Reduced(set) => set.contains(protocol, config),
        }
    }

    /// Distinct configurations (orbits) inserted.
    pub fn len(&self) -> usize {
        match self {
            DedupSet::Exact(set) => set.len(),
            DedupSet::Reduced(set) => set.len(),
        }
    }

    /// Whether nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Order of the dedup group (1 for the exact modes).
    pub fn group_order(&self) -> usize {
        match self {
            DedupSet::Exact(_) => 1,
            DedupSet::Reduced(set) => set.group_order(),
        }
    }

    /// Whether the dedup group is a degraded subgroup of the protocol's
    /// declared symmetry (see [`Canonicalizer::degraded`]; always `false`
    /// for exact sets).
    pub fn degraded(&self) -> bool {
        match self {
            DedupSet::Exact(_) => false,
            DedupSet::Reduced(set) => set.degraded(),
        }
    }

    /// Exact-equality comparisons performed by the fallback paths.
    pub fn fallback_comparisons(&self) -> usize {
        match self {
            DedupSet::Exact(set) => set.fallback_comparisons(),
            DedupSet::Reduced(set) => set.fallback_comparisons(),
        }
    }

    /// Insert probes a reduced set answered from its exact index, without
    /// an orbit key (see [`CanonicalVisitedSet::index_hits`]; 0 for exact
    /// sets).
    pub fn index_hits(&self) -> usize {
        match self {
            DedupSet::Exact(_) => 0,
            DedupSet::Reduced(set) => set.index_hits(),
        }
    }

    /// Insert probes for which a reduced set computed an orbit key (see
    /// [`CanonicalVisitedSet::orbit_keys`]; 0 for exact sets).
    pub fn orbit_keys(&self) -> usize {
        match self {
            DedupSet::Exact(_) => 0,
            DedupSet::Reduced(set) => set.orbit_keys(),
        }
    }

    /// The configuration's (orbit) bucket key — the routing key of the
    /// striped sharded set ([`crate::shard`]). Crate-internal.
    pub(crate) fn key_of(&self, protocol: &P, config: &Configuration<P>) -> u64 {
        match self {
            DedupSet::Exact(set) => set.key_of(config),
            DedupSet::Reduced(set) => set.key_of(protocol, config),
        }
    }

    /// An empty set with the same mode, group, and mask — the stripe factory
    /// for [`crate::shard`]. Crate-internal.
    pub(crate) fn stripe_clone(&self) -> Self {
        match self {
            DedupSet::Exact(set) => DedupSet::Exact(set.stripe_clone()),
            DedupSet::Reduced(set) => DedupSet::Reduced(set.stripe_clone()),
        }
    }

    /// Insert with the routing key already computed. Crate-internal.
    pub(crate) fn insert_prekeyed(
        &mut self,
        key: u64,
        protocol: &P,
        config: &Configuration<P>,
    ) -> bool {
        match self {
            DedupSet::Exact(set) => set.insert_prekeyed(key, config),
            DedupSet::Reduced(set) => set.insert_prekeyed(key, protocol, config),
        }
    }

    /// Membership with the routing key already computed. Crate-internal.
    pub(crate) fn contains_prekeyed(
        &self,
        key: u64,
        protocol: &P,
        config: &Configuration<P>,
    ) -> bool {
        match self {
            DedupSet::Exact(set) => set.contains_prekeyed(key, config),
            DedupSet::Reduced(set) => set.contains_prekeyed(key, protocol, config),
        }
    }
}

impl<P: Protocol> std::fmt::Debug for DedupSet<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DedupSet::Exact(set) => f.debug_tuple("Exact").field(set).finish(),
            DedupSet::Reduced(set) => f.debug_tuple("Reduced").field(set).finish(),
        }
    }
}

/// Brute-force check of a protocol's symmetry declaration: for every
/// renaming in the run group of `inputs`, verify that the renaming fixes the
/// initial configuration and commutes with every step along seeded-random
/// executions (`g · step(C, p) = step(g·C, π(p))`). Panics with a diagnostic
/// on the first violation — call it from protocol test suites whenever a
/// symmetry declaration or a rename hook changes.
///
/// # Panics
///
/// Panics if the declaration is not equivariant (or `inputs` are invalid).
pub fn assert_equivariant<P: Protocol>(protocol: &P, inputs: &[u64], steps: usize, seeds: u64) {
    use rand::{Rng, SeedableRng};
    let canon = Canonicalizer::for_inputs(protocol, inputs);
    let initial = Configuration::initial(protocol, inputs).expect("valid inputs");
    let num_objects = protocol.num_objects();
    for g in canon.renamings() {
        // The object component (declared τ or a rename_object override) must
        // be a schema-preserving permutation — a renamed configuration must
        // make every operation legal on its new slot.
        let mut hit = vec![false; num_objects];
        for o in (0..num_objects).map(ObjectId) {
            let dst = protocol.rename_object(o, g);
            assert!(
                dst.index() < num_objects && !std::mem::replace(&mut hit[dst.index()], true),
                "renaming {g:?}: rename_object is not a permutation at {o}"
            );
            assert!(
                protocol.schema(o) == protocol.schema(dst),
                "renaming {g:?} moves {o} onto {dst}, whose schema differs"
            );
        }
        assert!(
            apply_renaming(protocol, g, &initial) == initial,
            "renaming {g:?} does not fix the initial configuration for inputs {inputs:?}"
        );
    }
    let mut running = Vec::new();
    for seed in 0..seeds {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut config = initial.clone();
        for step in 0..steps {
            config.running_into(&mut running);
            if running.is_empty() {
                break;
            }
            let p = running[rng.gen_range(0..running.len())];
            // Occasionally crash instead of stepping (keeping at least one
            // process running): renamings must also commute with crash
            // transitions — `g · crash(C, p) = crash(g·C, π(p))` — so the
            // symmetry-reduced search respects crashed-process sets.
            let crash = running.len() > 1 && rng.gen_range(0..4) == 0;
            for g in canon.renamings() {
                let mut renamed_then_stepped = apply_renaming(protocol, g, &config);
                // Poised operations must commute kind-for-kind: the renamed
                // process is poised on the renamed object with an operation
                // of the same kind (and the same triviality — this is what
                // extends the contract to the read-modify-write kinds:
                // renaming may rewrite a swap's payload, but it must never
                // turn a test-and-set into a max-write or a max-read into
                // anything nontrivial).
                {
                    let (obj, op) = protocol.poised(config.state(p).expect("p is running"));
                    let (robj, rop) = protocol.poised(
                        renamed_then_stepped
                            .state(g.pid(p))
                            .expect("renamed p is running"),
                    );
                    assert!(
                        robj == protocol.rename_object(obj, g),
                        "renaming {g:?}: process {p} poised on {obj} is renamed \
                         to a process poised on {robj}"
                    );
                    assert!(
                        rop.kind() == op.kind(),
                        "renaming {g:?}: process {p} poised to {:?} is renamed \
                         to a process poised to {:?}",
                        op.kind(),
                        rop.kind()
                    );
                }
                let mut original = config.clone();
                if crash {
                    renamed_then_stepped
                        .crash(g.pid(p))
                        .expect("renamed crash must be legal");
                    original.crash(p).expect("crash must be legal");
                } else {
                    renamed_then_stepped
                        .step_quiet(protocol, g.pid(p))
                        .expect("renamed step must be legal");
                    original
                        .step_quiet(protocol, p)
                        .expect("step must be legal");
                }
                let stepped_then_renamed = apply_renaming(protocol, g, &original);
                assert!(
                    renamed_then_stepped == stepped_then_renamed,
                    "equivariance violated at seed {seed}, step {step}, \
                     process {p}, crash {crash}, renaming {g:?}"
                );
            }
            if crash {
                config.crash(p).expect("crash must be legal");
            } else {
                config.step_quiet(protocol, p).expect("step must be legal");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TwoProcessSwapConsensus;

    fn init(inputs: &[u64]) -> Configuration<TwoProcessSwapConsensus> {
        Configuration::initial(&TwoProcessSwapConsensus, inputs).unwrap()
    }

    #[test]
    fn symmetry_constructors() {
        assert!(Symmetry::none().is_trivial());
        let full = Symmetry::full_process(3);
        assert!(!full.is_trivial());
        assert_eq!(full.classes().len(), 1);
        assert!(Symmetry::process_classes(vec![vec![ProcessId(0)]]).is_trivial());
        assert!(Symmetry::process_classes(vec![])
            .with_interchangeable_values()
            .values_interchangeable());
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_classes_rejected() {
        let _ = Symmetry::process_classes(vec![
            vec![ProcessId(0), ProcessId(1)],
            vec![ProcessId(1), ProcessId(2)],
        ]);
    }

    #[test]
    #[should_panic(expected = "blocks must be disjoint")]
    fn overlapping_blocks_rejected() {
        let _ = ObjectClasses::value_coupled(
            vec![
                vec![ObjectId(0), ObjectId(1)],
                vec![ObjectId(1), ObjectId(2)],
            ],
            vec![0, 1],
        );
    }

    #[test]
    #[should_panic(expected = "one label per block")]
    fn label_count_mismatch_rejected() {
        let _ = ObjectClasses::value_coupled(vec![vec![ObjectId(0)], vec![ObjectId(1)]], vec![0]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn unequal_blocks_rejected() {
        let _ = ObjectClasses::process_coupled(
            vec![vec![ObjectId(0), ObjectId(1)], vec![ObjectId(2)]],
            vec![vec![], vec![]],
        );
    }

    #[test]
    fn object_symmetry_flips_triviality() {
        // A process-coupled class with two blocks admits a renaming even
        // with no process classes and no value symmetry; a value-coupled
        // class alone does not (σ is pinned to the identity).
        let blocks = || vec![vec![ObjectId(0)], vec![ObjectId(1)]];
        let free = Symmetry::none().with_object_classes(ObjectClasses::process_coupled(
            blocks(),
            vec![vec![], vec![]],
        ));
        assert!(!free.is_trivial());
        let value_coupled_only = Symmetry::none()
            .with_object_classes(ObjectClasses::value_coupled(blocks(), vec![0, 1]));
        assert!(value_coupled_only.is_trivial());
        assert!(!value_coupled_only
            .clone()
            .with_interchangeable_values()
            .is_trivial());
    }

    #[test]
    fn renaming_object_component_defaults_to_identity() {
        let id = Renaming::identity(2, 4);
        assert!(id.is_object_identity());
        assert_eq!(id.object(ObjectId(7)), ObjectId(7), "out of range = fixed");
    }

    #[test]
    fn composed_group_order_degrades_gracefully() {
        // 8 freely interchangeable blocks would be 8! = 40320 > 5040: the
        // cap keeps the prefix subgroup S₇ on the first seven blocks and
        // flags the degrade instead of dropping symmetry whole.
        let big: Vec<Vec<ObjectId>> = (0..8).map(|i| vec![ObjectId(i)]).collect();
        let sym = Symmetry::none()
            .with_object_classes(ObjectClasses::process_coupled(big, vec![Vec::new(); 8]));
        let set = enumerate_skeletons(&sym, 2);
        assert!(set.degraded);
        assert_eq!(set.skeletons.len(), 5040);
        // 7 blocks are exactly 5040 — fully enumerated, no degrade.
        let edge: Vec<Vec<ObjectId>> = (0..7).map(|i| vec![ObjectId(i)]).collect();
        let sym = Symmetry::none()
            .with_object_classes(ObjectClasses::process_coupled(edge, vec![Vec::new(); 7]));
        let set = enumerate_skeletons(&sym, 2);
        assert!(!set.degraded);
        assert_eq!(set.skeletons.len(), 5040);
        // Composed factors: 3! × 7! overflows; the larger factor claims the
        // budget first (S₇ fits exactly) and the process class degrades to
        // fixed points.
        let seven: Vec<Vec<ObjectId>> = (0..7).map(|i| vec![ObjectId(i)]).collect();
        let sym = Symmetry::full_process(3)
            .with_object_classes(ObjectClasses::process_coupled(seven, vec![Vec::new(); 7]));
        let set = enumerate_skeletons(&sym, 3);
        assert!(set.degraded);
        assert_eq!(set.skeletons.len(), 5040);
    }

    #[test]
    fn cap_budget_is_claimed_largest_first() {
        // [3, 8]: the 8-element factor claims S₇ (exactly 5040) and leaves
        // nothing for the 3-element one — largest-first beats declaration
        // order, which would settle for 3! × S₆ = 4320.
        let (kept, degraded) = fit_factors_under_cap(&[3, 8]);
        assert_eq!(kept, vec![1, 7]);
        assert!(degraded);
        // [4, 4]: 24 × 24 = 576 fits whole.
        let (kept, degraded) = fit_factors_under_cap(&[4, 4]);
        assert_eq!(kept, vec![4, 4]);
        assert!(!degraded);
        // [4, 4, 4]: 24³ overflows — the third factor keeps the prefix S₃
        // (24 · 24 · 6 = 3456 ≤ 5040, × 4 would burst).
        let (kept, degraded) = fit_factors_under_cap(&[4, 4, 4]);
        assert_eq!(kept, vec![4, 4, 3]);
        assert!(degraded);
        // Degenerate factors pass through untouched.
        let (kept, degraded) = fit_factors_under_cap(&[0, 1, 2]);
        assert_eq!(kept, vec![0, 1, 2]);
        assert!(!degraded);
    }

    #[test]
    fn inconsistent_declarations_degrade_to_flagged_trivial() {
        // An owner list overlapping a declared class without equaling it is
        // not partially honorable: the group degrades to trivial but the
        // canonicalizer reports it, and `DedupSet::reduced` keeps the
        // flagged (exact-behaving) reduced set instead of silently going
        // exact.
        let sym = Symmetry::process_classes(vec![vec![ProcessId(0), ProcessId(1)]])
            .with_object_classes(ObjectClasses::process_coupled(
                vec![vec![ObjectId(0)], vec![ObjectId(1)]],
                vec![vec![ProcessId(0)], vec![ProcessId(2)]],
            ));
        assert!(!object_classes_valid(&sym, 3, 2));
        let degraded_trivial = Canonicalizer {
            renamings: Vec::new(),
            degraded: true,
        };
        let set: DedupSet<TwoProcessSwapConsensus> = DedupSet::reduced(degraded_trivial, 8);
        assert!(matches!(set, DedupSet::Reduced(_)));
        assert_eq!(set.group_order(), 1);
        assert!(set.degraded());
    }

    #[test]
    fn owner_lists_must_match_or_avoid_declared_classes() {
        // owners[0] overlaps the declared class {p0, p1} without equaling
        // it: the composed renamings would not form a group, so the
        // enumeration must degrade to trivial.
        let sym = Symmetry::process_classes(vec![vec![ProcessId(0), ProcessId(1)]])
            .with_object_classes(ObjectClasses::process_coupled(
                vec![vec![ObjectId(0)], vec![ObjectId(1)]],
                vec![vec![ProcessId(0)], vec![ProcessId(2)]],
            ));
        assert!(!object_classes_valid(&sym, 3, 2));
        // Owner lists that are exactly declared classes pass.
        let sym = Symmetry::process_classes(vec![
            vec![ProcessId(0), ProcessId(1)],
            vec![ProcessId(2), ProcessId(3)],
        ])
        .with_object_classes(ObjectClasses::process_coupled(
            vec![vec![ObjectId(0)], vec![ObjectId(1)]],
            vec![
                vec![ProcessId(0), ProcessId(1)],
                vec![ProcessId(2), ProcessId(3)],
            ],
        ));
        assert!(object_classes_valid(&sym, 4, 2));
        // Owner lists disjoint from every class pass too.
        let sym = Symmetry::process_classes(vec![vec![ProcessId(0), ProcessId(1)]])
            .with_object_classes(ObjectClasses::process_coupled(
                vec![vec![ObjectId(0)], vec![ObjectId(1)]],
                vec![vec![ProcessId(2)], vec![ProcessId(3)]],
            ));
        assert!(object_classes_valid(&sym, 4, 2));
        // Mixing the two kinds within one object class is rejected: a block
        // move would conjugate the {p0, p1} within-class swap onto a
        // {p2, p3} permutation the enumeration never generates, so the
        // renamings would not be closed under composition.
        let sym = Symmetry::process_classes(vec![vec![ProcessId(0), ProcessId(1)]])
            .with_object_classes(ObjectClasses::process_coupled(
                vec![vec![ObjectId(0)], vec![ObjectId(1)]],
                vec![
                    vec![ProcessId(0), ProcessId(1)],
                    vec![ProcessId(2), ProcessId(3)],
                ],
            ));
        assert!(!object_classes_valid(&sym, 4, 2));
        // Owner lists of different object classes must not overlap either:
        // two classes dragging p1 would compose into a 3-cycle whose
        // inverse the enumeration never generates.
        let sym = Symmetry::none()
            .with_object_classes(ObjectClasses::process_coupled(
                vec![vec![ObjectId(0)], vec![ObjectId(1)]],
                vec![vec![ProcessId(0)], vec![ProcessId(1)]],
            ))
            .with_object_classes(ObjectClasses::process_coupled(
                vec![vec![ObjectId(2)], vec![ObjectId(3)]],
                vec![vec![ProcessId(1)], vec![ProcessId(2)]],
            ));
        assert!(!object_classes_valid(&sym, 3, 4));
    }

    #[test]
    fn process_coupled_blocks_drag_their_owners() {
        // Pair-style declaration: swapping the blocks must swap the owner
        // classes slot-for-slot, visible in the canonical input vector even
        // without value symmetry.
        let sym = Symmetry::process_classes(vec![
            vec![ProcessId(0), ProcessId(1)],
            vec![ProcessId(2), ProcessId(3)],
        ])
        .with_object_classes(ObjectClasses::process_coupled(
            vec![vec![ObjectId(0)], vec![ObjectId(1)]],
            vec![
                vec![ProcessId(0), ProcessId(1)],
                vec![ProcessId(2), ProcessId(3)],
            ],
        ));
        assert_eq!(
            canonical_input_vector(&sym, &[3, 3, 0, 0]),
            vec![0, 0, 3, 3]
        );
        assert!(inputs_are_canonical(&sym, &[0, 0, 3, 3]));
    }

    #[test]
    fn value_coupled_labels_gate_input_normalization() {
        // Labels {0, 1}: a first-occurrence σ sending 2 ↦ 0 would move a
        // non-label onto a label, which no symmetry admits — [2, 2] must
        // stay canonical instead of collapsing to [0, 0].
        let sym = Symmetry::full_process(2)
            .with_interchangeable_values()
            .with_object_classes(ObjectClasses::value_coupled(
                vec![vec![ObjectId(0)], vec![ObjectId(1)]],
                vec![0, 1],
            ));
        assert!(inputs_are_canonical(&sym, &[2, 2]));
        // Swapping 0 and 1 keeps the label set intact: still collapsible.
        assert_eq!(canonical_input_vector(&sym, &[1, 1]), vec![0, 0]);
        assert_eq!(canonical_input_vector(&sym, &[1, 0]), vec![0, 1]);
        // Without the value-coupled class the same declaration normalizes
        // [2, 2] freely — the gate is the labels, nothing else.
        let free = Symmetry::full_process(2).with_interchangeable_values();
        assert_eq!(canonical_input_vector(&free, &[2, 2]), vec![0, 0]);
    }

    #[test]
    fn identity_renaming_is_identity() {
        let id = Renaming::identity(3, 4);
        assert!(id.is_identity());
        assert!(id.is_value_identity());
        assert_eq!(id.pid(ProcessId(2)), ProcessId(2));
        assert_eq!(id.value(3), 3);
        assert_eq!(id.value(99), 99, "out-of-domain values are fixed");
    }

    #[test]
    fn group_of_unanimous_inputs_is_full_symmetric() {
        // TwoProcessSwapConsensus declares full process + value symmetry;
        // with equal inputs every process transposition is compatible.
        let canon = Canonicalizer::for_inputs(&TwoProcessSwapConsensus, &[5, 5]);
        assert_eq!(canon.group_order(), 2);
        // With distinct inputs the transposition needs the value swap, which
        // value symmetry supplies.
        let canon = Canonicalizer::for_inputs(&TwoProcessSwapConsensus, &[0, 1]);
        assert_eq!(canon.group_order(), 2);
        let g = &canon.renamings()[0];
        assert!(!g.is_value_identity());
        assert_eq!(g.value(0), 1);
        assert_eq!(g.value(1), 0);
        assert_eq!(g.value(7), 7, "non-appearing values are fixed");
    }

    #[test]
    fn orbit_collapse_two_process() {
        // After one step by either process the two results are orbit-equal.
        let canon = Canonicalizer::for_inputs(&TwoProcessSwapConsensus, &[0, 1]);
        let mut a = init(&[0, 1]);
        let mut b = init(&[0, 1]);
        a.step_quiet(&TwoProcessSwapConsensus, ProcessId(0))
            .unwrap();
        b.step_quiet(&TwoProcessSwapConsensus, ProcessId(1))
            .unwrap();
        assert_ne!(a, b, "genuinely different configurations");
        let g = &canon.renamings()[0];
        assert_eq!(apply_renaming(&TwoProcessSwapConsensus, g, &a), b);
        let mut set = CanonicalVisitedSet::new(canon);
        assert!(set.insert(&TwoProcessSwapConsensus, &a));
        assert!(!set.insert(&TwoProcessSwapConsensus, &b), "same orbit");
        assert_eq!(set.len(), 1);
        assert!(set.contains(&TwoProcessSwapConsensus, &b));
    }

    /// Per-slot hashes of a materialized configuration, in the destination
    /// order the incremental path walks (objects, then processes).
    fn materialized_slot_hashes(config: &Configuration<TwoProcessSwapConsensus>) -> Vec<u64> {
        use std::hash::{Hash, Hasher};
        let mut out = Vec::new();
        for o in 0..config.num_objects() {
            let mut h = fxhash::FxHasher::default();
            config.value(ObjectId(o)).hash(&mut h);
            out.push(h.finish());
        }
        for p in 0..config.num_processes() {
            let mut h = fxhash::FxHasher::default();
            config.status(ProcessId(p)).hash(&mut h);
            out.push(h.finish());
        }
        out
    }

    #[test]
    fn orbit_slot_hashes_match_materialized_images() {
        // The incremental per-slot hash path must agree bit for bit with
        // materializing the renamed twin and hashing its slots — otherwise
        // the lex-min slot sequence is not an orbit invariant and the
        // reduced sets would silently stop deduplicating twins. The pruned
        // search must also agree with the unpruned full-|G| reference, and
        // the key must be constant across each orbit.
        use rand::{Rng, SeedableRng};
        let protocol = TwoProcessSwapConsensus;
        for inputs in [[0u64, 1], [5, 5], [3, 9]] {
            let set = CanonicalVisitedSet::new(Canonicalizer::for_inputs(&protocol, &inputs));
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let mut config = init(&inputs);
            let mut running = Vec::new();
            loop {
                let tables = set.tables(&protocol, &config);
                let b = config.num_objects();
                let n = config.num_processes();
                let incremental = |cand: u32| -> Vec<u64> {
                    (0..b)
                        .map(|d| {
                            CanonicalVisitedSet::object_slot_hash(
                                &protocol,
                                &config,
                                &set.renamings,
                                tables,
                                cand,
                                d,
                            )
                        })
                        .chain((0..n).map(|d| {
                            CanonicalVisitedSet::process_slot_hash(
                                &protocol,
                                &config,
                                &set.renamings,
                                tables,
                                cand,
                                d,
                            )
                        }))
                        .collect()
                };
                assert_eq!(
                    incremental(IDENTITY_CANDIDATE),
                    materialized_slot_hashes(&config),
                    "identity candidate must read the configuration itself"
                );
                for (i, g) in set.renamings.iter().enumerate() {
                    let materialized = apply_renaming(&protocol, g, &config);
                    assert_eq!(
                        incremental(i as u32 + 1),
                        materialized_slot_hashes(&materialized),
                        "inputs {inputs:?}, renaming {g:?}"
                    );
                }
                // Pruned chain == unpruned scan, and the key is an orbit
                // invariant: every member of the orbit maps to one bucket.
                assert_eq!(
                    set.orbit_key(&protocol, &config),
                    set.orbit_key_unpruned(&protocol, &config)
                );
                for g in &set.renamings {
                    let image = apply_renaming(&protocol, g, &config);
                    assert_eq!(
                        set.orbit_key(&protocol, &config),
                        set.orbit_key(&protocol, &image)
                    );
                }
                config.running_into(&mut running);
                if running.is_empty() {
                    break;
                }
                let p = running[rng.gen_range(0..running.len())];
                config.step_quiet(&protocol, p).unwrap();
            }
        }
    }

    #[test]
    fn canonical_set_exact_under_forced_collisions() {
        // Mask 0 sends every orbit to one bucket; distinct orbits must still
        // be told apart by the exact orbit-comparison fallback.
        let canon = Canonicalizer::for_inputs(&TwoProcessSwapConsensus, &[0, 1]);
        let mut set = CanonicalVisitedSet::new(canon).with_fingerprint_mask(0);
        let a = init(&[0, 1]);
        let mut b = a.clone();
        b.step_quiet(&TwoProcessSwapConsensus, ProcessId(0))
            .unwrap();
        let mut c = b.clone();
        c.step_quiet(&TwoProcessSwapConsensus, ProcessId(1))
            .unwrap();
        assert!(set.insert(&TwoProcessSwapConsensus, &a));
        assert!(set.insert(&TwoProcessSwapConsensus, &b));
        assert!(set.insert(&TwoProcessSwapConsensus, &c));
        assert_eq!(set.len(), 3);
        assert!(!set.insert(&TwoProcessSwapConsensus, &a));
        assert!(set.fallback_comparisons() > 0);
    }

    /// Two processes sharing two registers, with a broken `rename_object`
    /// that sends both registers to slot 0.
    struct CollapsingObjects;

    impl Protocol for CollapsingObjects {
        type State = u64;
        type Value = u64;

        fn name(&self) -> String {
            "collapsing objects".into()
        }

        fn task(&self) -> crate::KSetTask {
            crate::KSetTask::consensus(2)
        }

        fn num_objects(&self) -> usize {
            2
        }

        fn schema(&self, _obj: ObjectId) -> swapcons_objects::ObjectSchema {
            swapcons_objects::ObjectSchema::register()
        }

        fn initial_value(&self, _obj: ObjectId) -> u64 {
            0
        }

        fn initial_state(&self, _pid: ProcessId, input: u64) -> u64 {
            input
        }

        fn poised(&self, _state: &u64) -> (ObjectId, swapcons_objects::ObjectOp<u64>) {
            (ObjectId(0), swapcons_objects::ObjectOp::read())
        }

        fn observe(
            &self,
            state: u64,
            _response: swapcons_objects::Response<u64>,
        ) -> crate::protocol::Transition<u64> {
            crate::protocol::Transition::Decide(state)
        }

        fn symmetry(&self) -> Symmetry {
            Symmetry::full_process(2)
        }

        fn rename_object(&self, _obj: ObjectId, _renaming: &Renaming) -> ObjectId {
            ObjectId(0)
        }
    }

    #[test]
    #[should_panic(expected = "rename_object is not a permutation")]
    fn non_permutation_rename_object_panics_clearly() {
        let p = CollapsingObjects;
        let mut set = CanonicalVisitedSet::new(Canonicalizer::for_inputs(&p, &[1, 1]));
        assert_eq!(set.group_order(), 2);
        let config = Configuration::initial(&p, &[1, 1]).unwrap();
        set.insert(&p, &config);
    }

    #[test]
    fn memo_rows_are_built_once_per_status() {
        // S3 on unanimous inputs: every process is running with input 0,
        // has decided 0, or has crashed, so three rows serve every key.
        let p = crate::testing::SelfishConsensus { n: 3 };
        let set = CanonicalVisitedSet::new(Canonicalizer::for_inputs(&p, &[0, 0, 0]));
        assert!(set.group_order() >= MEMO_MIN_GROUP_ORDER);
        let mut config = Configuration::initial(&p, &[0, 0, 0]).unwrap();
        let probe = |config: &Configuration<crate::testing::SelfishConsensus>| {
            assert_eq!(
                set.orbit_key(&p, config),
                set.orbit_key_unpruned(&p, config)
            );
        };
        probe(&config);
        config.step_quiet(&p, ProcessId(1)).unwrap();
        probe(&config);
        config.crash(ProcessId(2)).unwrap();
        probe(&config);
        config.step_quiet(&p, ProcessId(0)).unwrap();
        probe(&config);
        let memo = set.memo.lock().unwrap();
        assert_eq!(memo.statuses.len(), 3);
        assert_eq!(memo.hashes.len(), 3 * set.group_order());
    }

    #[test]
    fn exact_index_answers_literal_duplicates_without_a_key() {
        let canon = Canonicalizer::for_inputs(&TwoProcessSwapConsensus, &[0, 1]);
        let mut set = CanonicalVisitedSet::new(canon.clone());
        let a = init(&[0, 1]);
        let mut b = a.clone();
        b.step_quiet(&TwoProcessSwapConsensus, ProcessId(0))
            .unwrap();
        let twin = apply_renaming(&TwoProcessSwapConsensus, &canon.renamings()[0], &b);
        assert!(set.insert(&TwoProcessSwapConsensus, &a));
        assert!(set.insert(&TwoProcessSwapConsensus, &b));
        assert!(!set.insert(&TwoProcessSwapConsensus, &b.clone()));
        assert_eq!((set.index_hits(), set.orbit_keys()), (1, 2));
        assert!(!set.insert(&TwoProcessSwapConsensus, &twin));
        assert_eq!((set.index_hits(), set.orbit_keys()), (1, 3));
        assert_eq!(set.fallback_comparisons(), 1);
        assert!(set.contains(&TwoProcessSwapConsensus, &twin));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn canonical_input_vectors() {
        let sym = Symmetry::full_process(3).with_interchangeable_values();
        assert_eq!(canonical_input_vector(&sym, &[2, 2, 0]), vec![0, 0, 1]);
        assert!(inputs_are_canonical(&sym, &[0, 0, 1]));
        assert!(!inputs_are_canonical(&sym, &[1, 0, 0]));
        // Process symmetry only: values keep their identity, order is free.
        let sym = Symmetry::full_process(3);
        assert_eq!(canonical_input_vector(&sym, &[2, 0, 1]), vec![0, 1, 2]);
        // No symmetry: everything is canonical.
        assert!(inputs_are_canonical(&Symmetry::none(), &[3, 1, 2]));
    }

    #[test]
    fn dedup_set_degrades_to_exact_for_trivial_groups() {
        let set: DedupSet<TwoProcessSwapConsensus> = DedupSet::reduced(Canonicalizer::trivial(), 8);
        assert!(matches!(set, DedupSet::Exact(_)));
        assert_eq!(set.group_order(), 1);
    }

    #[test]
    fn two_process_consensus_is_equivariant() {
        assert_equivariant(&TwoProcessSwapConsensus, &[0, 1], 2, 4);
        assert_equivariant(&TwoProcessSwapConsensus, &[7, 7], 2, 4);
        assert_equivariant(&TwoProcessSwapConsensus, &[3, 9], 2, 4);
    }
}

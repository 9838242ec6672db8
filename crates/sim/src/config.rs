//! Configurations and steps — the paper's execution model, executable.
//!
//! A configuration consists of a state for every process and a value for
//! every object (Section 2). [`Configuration::step`] applies exactly one
//! step: the scheduled process applies its poised operation to an object,
//! obtains the response determined by the object's current value, performs
//! its local computation, and either continues or decides.
//!
//! # Copy-on-write representation
//!
//! The exhaustive searches (the model checker, the valency oracle, the
//! Section 5 adversaries) clone configurations at every explored node, then
//! mutate only a fraction of them. Object and process storage is therefore
//! [`Arc`]-backed: [`Configuration::clone`] is three refcount bumps, and
//! [`Configuration::step`] / [`Configuration::poke_object`] copy the
//! affected vector only when it is actually shared ([`Arc::make_mut`]).
//! Observable behaviour is identical to deep cloning — the copy-on-write
//! property tests replay every lineage from scratch to prove it.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use swapcons_objects::{HistorylessOp, ObjectOp, ObjectSchema, Response, SchemaError};

use crate::history::StepRecord;
use crate::ids::{Action, ObjectId, ProcessId};
use crate::protocol::{Protocol, SimValue, Transition};

/// Status of one process within a configuration.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ProcStatus<S> {
    /// Still participating; holds the local state.
    Running(S),
    /// Terminated with a decision. Decided processes take no further steps.
    Decided(u64),
    /// Crashed: permanently stopped without deciding (Section 2's crash
    /// failures — to every other process, indistinguishable from being
    /// infinitely slow). The local state is dropped: no other process can
    /// ever observe it, so configurations differing only in a crashed
    /// process's final local state are identified, which both matches the
    /// model and shrinks the explored crash state space.
    Crashed,
}

impl<S> ProcStatus<S> {
    /// The local state, if still running.
    pub fn state(&self) -> Option<&S> {
        match self {
            ProcStatus::Running(s) => Some(s),
            ProcStatus::Decided(_) | ProcStatus::Crashed => None,
        }
    }

    /// The decision, if decided.
    pub fn decision(&self) -> Option<u64> {
        match self {
            ProcStatus::Running(_) | ProcStatus::Crashed => None,
            ProcStatus::Decided(v) => Some(*v),
        }
    }

    /// Whether the process has crashed.
    pub fn is_crashed(&self) -> bool {
        matches!(self, ProcStatus::Crashed)
    }
}

/// A reachable configuration of a protocol: object values, process statuses,
/// and the inputs that produced the initial configuration (kept for validity
/// checking).
pub struct Configuration<P: Protocol> {
    // `Arc<[T]>` rather than `Arc<Vec<T>>`: the control block and the
    // elements live in ONE allocation, so a copy-on-write detach is a single
    // malloc + memcpy per vector instead of two.
    objects: Arc<[P::Value]>,
    procs: Arc<[ProcStatus<P::State>]>,
    inputs: Arc<[u64]>,
}

/// Copy-on-write access: detach (one allocation) only if `arc` is shared.
fn cow_slice<T: Clone>(arc: &mut Arc<[T]>) -> &mut [T] {
    if Arc::get_mut(arc).is_none() {
        *arc = arc.iter().cloned().collect();
    }
    Arc::get_mut(arc).expect("uniquely owned after detach")
}

/// Overwrite `dst` with `src`'s elements, reusing `dst`'s allocation when it
/// is uniquely owned and the right length; falls back to sharing `src`.
fn clone_slice_from<T: Clone>(dst: &mut Arc<[T]>, src: &Arc<[T]>) {
    if Arc::ptr_eq(dst, src) {
        return;
    }
    match Arc::get_mut(dst) {
        Some(slice) if slice.len() == src.len() => {
            for (d, s) in slice.iter_mut().zip(src.iter()) {
                d.clone_from(s);
            }
        }
        _ => *dst = Arc::clone(src),
    }
}

// Manual impls: the derive would demand `P: Clone`/`P: Hash` etc., but only
// `P::Value` and `P::State` appear in fields, and the `Protocol` trait
// already requires Clone + Eq + Hash of both. Clone is the copy-on-write
// fast path: no object or process state is copied until a mutation hits a
// shared vector.
impl<P: Protocol> Clone for Configuration<P> {
    fn clone(&self) -> Self {
        Configuration {
            objects: Arc::clone(&self.objects),
            procs: Arc::clone(&self.procs),
            inputs: Arc::clone(&self.inputs),
        }
    }
}

impl<P: Protocol> PartialEq for Configuration<P> {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality short-circuits content comparison for clones that
        // have not diverged (the common case in visited sets).
        (Arc::ptr_eq(&self.objects, &other.objects) || self.objects == other.objects)
            && (Arc::ptr_eq(&self.procs, &other.procs) || self.procs == other.procs)
            && (Arc::ptr_eq(&self.inputs, &other.inputs) || self.inputs == other.inputs)
    }
}

impl<P: Protocol> Eq for Configuration<P> {}

impl<P: Protocol> std::hash::Hash for Configuration<P> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.objects.hash(state);
        self.procs.hash(state);
        self.inputs.hash(state);
    }
}

impl<P: Protocol> Configuration<P> {
    /// The initial configuration for the given per-process inputs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadInputs`] if the input vector violates the
    /// protocol's task (wrong length or out-of-range input), or a schema
    /// error if an initial object value violates its declared domain.
    pub fn initial(protocol: &P, inputs: &[u64]) -> Result<Self, SimError> {
        protocol
            .task()
            .check_inputs(inputs)
            .map_err(|v| SimError::BadInputs(v.to_string()))?;
        let schemas = protocol.schemas();
        let mut objects = Vec::with_capacity(schemas.len());
        for (i, schema) in schemas.iter().enumerate() {
            let value = protocol.initial_value(ObjectId(i));
            check_domain(schema, &value).map_err(|e| SimError::Schema {
                process: None,
                object: ObjectId(i),
                error: e,
            })?;
            objects.push(value);
        }
        let procs = inputs
            .iter()
            .enumerate()
            .map(
                |(i, &input)| match protocol.initial_decision(ProcessId(i), input) {
                    Some(v) => ProcStatus::Decided(v),
                    None => ProcStatus::Running(protocol.initial_state(ProcessId(i), input)),
                },
            )
            .collect();
        Ok(Configuration {
            objects: objects.into(),
            procs,
            inputs: inputs.into(),
        })
    }

    /// Assemble a configuration from raw parts — crate-internal, used by the
    /// canonicalization layer to materialize renamed twins.
    pub(crate) fn from_parts(
        objects: Vec<P::Value>,
        procs: Vec<ProcStatus<P::State>>,
        inputs: Arc<[u64]>,
    ) -> Self {
        Configuration {
            objects: objects.into(),
            procs: procs.into(),
            inputs,
        }
    }

    /// The shared input-vector storage (crate-internal; renamed twins alias
    /// it, since every admitted renaming stabilizes the inputs).
    pub(crate) fn inputs_handle(&self) -> &Arc<[u64]> {
        &self.inputs
    }

    /// The shared object-vector storage (crate-internal; the solo-outcome
    /// memo keys on it without copying any values).
    pub(crate) fn objects_handle(&self) -> &Arc<[P::Value]> {
        &self.objects
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.procs.len()
    }

    /// Number of shared objects.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// The inputs this run started from.
    pub fn inputs(&self) -> &[u64] {
        &self.inputs
    }

    /// The value of object `obj` — the paper's `value(B, C)`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range.
    pub fn value(&self, obj: ObjectId) -> &P::Value {
        &self.objects[obj.index()]
    }

    /// All object values, indexed by object id.
    pub fn object_values(&self) -> &[P::Value] {
        &self.objects
    }

    /// The status of process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn status(&self, pid: ProcessId) -> &ProcStatus<P::State> {
        &self.procs[pid.index()]
    }

    /// The local state of `pid`, if running.
    pub fn state(&self, pid: ProcessId) -> Option<&P::State> {
        self.status(pid).state()
    }

    /// The decision of `pid`, if decided.
    pub fn decision(&self, pid: ProcessId) -> Option<u64> {
        self.status(pid).decision()
    }

    /// Decisions of all processes, indexed by process id.
    pub fn decisions(&self) -> Vec<Option<u64>> {
        self.procs.iter().map(|s| s.decision()).collect()
    }

    /// The set of distinct decided values.
    pub fn decided_values(&self) -> HashSet<u64> {
        self.procs.iter().filter_map(|s| s.decision()).collect()
    }

    /// Ids of processes that have not yet decided.
    pub fn running(&self) -> Vec<ProcessId> {
        let mut ids = Vec::new();
        self.running_into(&mut ids);
        ids
    }

    /// Fill `buf` with the ids of processes that have not yet decided —
    /// the allocation-free form of [`Configuration::running`] for callers
    /// (runners, the model checker) that query it every step and can reuse a
    /// scratch buffer. `buf` is cleared first.
    pub fn running_into(&self, buf: &mut Vec<ProcessId>) {
        buf.clear();
        buf.extend(
            self.procs
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, ProcStatus::Running(_)))
                .map(|(i, _)| ProcessId(i)),
        );
    }

    /// Fill `buf` with one [`Action::Step`] per running process — the
    /// allocation-free candidate enumeration the engine's default expansion
    /// strategy uses. `buf` is cleared first.
    pub fn running_actions_into(&self, buf: &mut Vec<Action>) {
        buf.clear();
        buf.extend(
            self.procs
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, ProcStatus::Running(_)))
                .map(|(i, _)| Action::Step(ProcessId(i))),
        );
    }

    /// Decisions of all processes as a non-allocating iterator — pair with
    /// [`crate::task::KSetTask::check_decisions`] on hot paths.
    pub fn decisions_iter(&self) -> impl Iterator<Item = Option<u64>> + Clone + '_ {
        self.procs.iter().map(|s| s.decision())
    }

    /// Whether every process has decided.
    pub fn all_decided(&self) -> bool {
        self.procs
            .iter()
            .all(|s| matches!(s, ProcStatus::Decided(_)))
    }

    /// Whether process `pid` has crashed.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.procs[pid.index()].is_crashed()
    }

    /// Number of crashed processes — the failure count a crash-bounded
    /// exploration budgets against.
    pub fn num_crashed(&self) -> usize {
        self.procs.iter().filter(|s| s.is_crashed()).count()
    }

    /// Ids of crashed processes, in id order.
    pub fn crashed(&self) -> Vec<ProcessId> {
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_crashed())
            .map(|(i, _)| ProcessId(i))
            .collect()
    }

    /// Crash process `pid`: it permanently stops without deciding, and its
    /// local state is dropped (see [`ProcStatus::Crashed`]). Returns an undo
    /// token restoring the pre-crash status, mirroring
    /// [`Configuration::step_quiet_undoable`] so exploration engines treat
    /// crash transitions with the same delta-restore discipline as steps.
    ///
    /// # Errors
    ///
    /// * [`SimError::ProcessDecided`] if `pid` has already decided (a
    ///   decision is final; crashing afterwards changes nothing in the
    ///   model);
    /// * [`SimError::ProcessCrashed`] if `pid` has already crashed.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn crash(&mut self, pid: ProcessId) -> Result<StepUndo<P>, SimError> {
        match &self.procs[pid.index()] {
            ProcStatus::Running(_) => {}
            ProcStatus::Decided(_) => return Err(SimError::ProcessDecided(pid)),
            ProcStatus::Crashed => return Err(SimError::ProcessCrashed(pid)),
        }
        let procs = cow_slice(&mut self.procs);
        let prior = std::mem::replace(&mut procs[pid.index()], ProcStatus::Crashed);
        Ok(StepUndo {
            object: None,
            process: (pid, prior),
        })
    }

    /// The operation process `pid` is poised to apply (Section 2), or `None`
    /// if it has decided.
    pub fn poised(&self, protocol: &P, pid: ProcessId) -> Option<(ObjectId, ObjectOp<P::Value>)> {
        self.state(pid).map(|s| protocol.poised(s))
    }

    /// Apply one step by `pid`, mutating the configuration and returning a
    /// record of the step.
    ///
    /// # Errors
    ///
    /// * [`SimError::ProcessDecided`] if `pid` has already decided;
    /// * [`SimError::Schema`] if the poised operation violates the target
    ///   object's schema (wrong operation kind or out-of-domain value) —
    ///   this indicates a bug in the protocol under test, and the
    ///   configuration is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range, or if the protocol's poised
    /// operation targets an out-of-range object (both are protocol bugs).
    pub fn step(&mut self, protocol: &P, pid: ProcessId) -> Result<StepRecord<P::Value>, SimError> {
        let (obj, op) = self.validated_poised(protocol, pid)?;
        // Apply phase. The record keeps the operation, so the payload is
        // cloned into the object via the cloned op; the quiet paths below
        // move it instead.
        let (response, _) = self.apply_op(obj, op.clone(), false);
        let decided = self.absorb(protocol, pid, response.clone());
        Ok(StepRecord {
            pid,
            object: obj,
            op,
            response,
            decided,
        })
    }

    /// Apply `op` to the slot of `obj` — the one authoritative
    /// implementation of every [`ObjectOp`] kind's semantics in the
    /// simulator. The payload is *moved* into the object and, for a swap,
    /// the displaced value is *moved* into the response (zero value clones
    /// on the hot path). With `save_prior` set, a mutated slot's displaced
    /// value is additionally cloned and returned for delta-undo; operations
    /// that left the slot untouched (reads, lost test-and-sets, max-writes
    /// at or below the current value) return `None` — nothing to restore.
    ///
    /// # Panics
    ///
    /// Panics when a `MaxWrite`'s comparison is undefined because either
    /// side lacks a domain point — max registers hold integer-pointed
    /// values by construction, so this is a protocol bug.
    fn apply_op(
        &mut self,
        obj: ObjectId,
        op: ObjectOp<P::Value>,
        save_prior: bool,
    ) -> (Response<P::Value>, PriorObject<P::Value>) {
        match op {
            ObjectOp::Historyless(HistorylessOp::Read) => {
                (Response::to_read(self.objects[obj.index()].clone()), None)
            }
            ObjectOp::MaxRead => (
                Response::to_max_read(self.objects[obj.index()].clone()),
                None,
            ),
            ObjectOp::Historyless(HistorylessOp::Write(next)) => {
                let prev = std::mem::replace(&mut cow_slice(&mut self.objects)[obj.index()], next);
                (Response::to_write(), save_prior.then_some((obj, prev)))
            }
            ObjectOp::Historyless(HistorylessOp::Swap(next)) => {
                let prev = std::mem::replace(&mut cow_slice(&mut self.objects)[obj.index()], next);
                let saved = save_prior.then(|| (obj, prev.clone()));
                (Response::to_swap(prev), saved)
            }
            ObjectOp::TestAndSet(next) => {
                if self.objects[obj.index()].domain_point() == Some(0) {
                    let prev =
                        std::mem::replace(&mut cow_slice(&mut self.objects)[obj.index()], next);
                    (
                        Response::to_test_and_set(true),
                        save_prior.then_some((obj, prev)),
                    )
                } else {
                    (Response::to_test_and_set(false), None)
                }
            }
            ObjectOp::MaxWrite(next) => {
                let current = self.objects[obj.index()]
                    .domain_point()
                    .expect("max register holds a composite value with no domain point");
                let offered = next
                    .domain_point()
                    .expect("max-write payload has no domain point");
                if offered > current {
                    let prev =
                        std::mem::replace(&mut cow_slice(&mut self.objects)[obj.index()], next);
                    (Response::to_max_write(), save_prior.then_some((obj, prev)))
                } else {
                    (Response::to_max_write(), None)
                }
            }
        }
    }

    /// Validation phase shared by [`Configuration::step`] and
    /// [`Configuration::step_quiet`]: resolve the poised operation and check
    /// it against the target object's schema. Mutates nothing, so schema
    /// rejections leave the configuration untouched.
    fn validated_poised(
        &self,
        protocol: &P,
        pid: ProcessId,
    ) -> Result<(ObjectId, ObjectOp<P::Value>), SimError> {
        let state = match &self.procs[pid.index()] {
            ProcStatus::Running(s) => s,
            ProcStatus::Decided(_) => return Err(SimError::ProcessDecided(pid)),
            ProcStatus::Crashed => return Err(SimError::ProcessCrashed(pid)),
        };
        let (obj, op) = protocol.poised(state);
        assert!(
            obj.index() < self.objects.len(),
            "{pid:?} poised on out-of-range object {obj:?}"
        );
        let schema = protocol.schema(obj);
        schema
            .check_op_kind(op.kind())
            .map_err(|e| SimError::Schema {
                process: Some(pid),
                object: obj,
                error: e,
            })?;
        if let Some(payload) = op.payload() {
            check_domain(&schema, payload).map_err(|e| SimError::Schema {
                process: Some(pid),
                object: obj,
                error: e,
            })?;
        }
        Ok((obj, op))
    }

    /// Apply-phase tail shared by [`Configuration::step`] and
    /// [`Configuration::step_quiet`]: move `pid`'s state out of its
    /// (copy-on-write-detached) slot instead of cloning it for `observe`,
    /// store the successor status, and return the decision, if any.
    fn absorb(
        &mut self,
        protocol: &P,
        pid: ProcessId,
        response: Response<P::Value>,
    ) -> Option<u64> {
        let procs = cow_slice(&mut self.procs);
        let state = match std::mem::replace(&mut procs[pid.index()], ProcStatus::Decided(0)) {
            ProcStatus::Running(s) => s,
            ProcStatus::Decided(_) | ProcStatus::Crashed => {
                unreachable!("validated_poised checked Running")
            }
        };
        match protocol.observe(state, response) {
            Transition::Continue(next_state) => {
                procs[pid.index()] = ProcStatus::Running(next_state);
                None
            }
            Transition::Decide(v) => {
                procs[pid.index()] = ProcStatus::Decided(v);
                Some(v)
            }
        }
    }

    /// [`Configuration::step`] without the record: applies the step and
    /// returns only the decision it produced (if any).
    ///
    /// The exploration engines and solo runners discard the [`StepRecord`],
    /// so this path also skips the copies that exist only to populate it:
    /// the operation payload is *moved* into the object and the displaced
    /// value is *moved* into the response handed to `observe` — zero value
    /// clones on a swap step.
    ///
    /// # Errors
    ///
    /// Identical to [`Configuration::step`].
    ///
    /// # Panics
    ///
    /// Identical to [`Configuration::step`].
    pub fn step_quiet(&mut self, protocol: &P, pid: ProcessId) -> Result<Option<u64>, SimError> {
        let (obj, op) = self.validated_poised(protocol, pid)?;
        let (response, _) = self.apply_op(obj, op, false);
        Ok(self.absorb(protocol, pid, response))
    }

    /// [`Configuration::step_quiet`] plus an undo token: the returned
    /// [`StepUndo`] restores exactly the (at most) two mutated slots — the
    /// target object and the stepping process — via
    /// [`Configuration::undo_step`].
    ///
    /// This is the delta-restore pattern for the exploration engines'
    /// candidate-child loops: a child that turns out to be a duplicate is
    /// rolled back in `O(1)` element writes instead of re-copying the whole
    /// scratch state from the parent. Costs two extra small clones (the
    /// displaced object value and the pre-step process status) relative to
    /// `step_quiet`.
    ///
    /// # Errors
    ///
    /// Identical to [`Configuration::step`].
    ///
    /// # Panics
    ///
    /// Identical to [`Configuration::step`].
    pub fn step_quiet_undoable(
        &mut self,
        protocol: &P,
        pid: ProcessId,
    ) -> Result<(Option<u64>, StepUndo<P>), SimError> {
        let (obj, op) = self.validated_poised(protocol, pid)?;
        let prior_status = self.procs[pid.index()].clone();
        let (response, prior_object) = self.apply_op(obj, op, true);
        let decided = self.absorb(protocol, pid, response);
        Ok((
            decided,
            StepUndo {
                object: prior_object,
                process: (pid, prior_status),
            },
        ))
    }

    /// Roll back a step recorded by [`Configuration::step_quiet_undoable`].
    /// Only valid on the configuration that produced the token, with no
    /// intervening mutation.
    pub fn undo_step(&mut self, undo: StepUndo<P>) {
        if let Some((obj, value)) = undo.object {
            cow_slice(&mut self.objects)[obj.index()] = value;
        }
        let (pid, status) = undo.process;
        cow_slice(&mut self.procs)[pid.index()] = status;
    }

    /// Whether this configuration is indistinguishable from `other` to every
    /// process in `pids` — the paper's `C1 ~P C2` (equal local states; note
    /// that indistinguishability of *configurations* constrains only process
    /// states, not object values).
    pub fn indistinguishable_to(&self, other: &Self, pids: &[ProcessId]) -> bool {
        pids.iter()
            .all(|&p| self.procs[p.index()] == other.procs[p.index()])
    }

    /// A compact fingerprint of the configuration (object values + process
    /// statuses), keying the model checker's wait-freedom dominance map.
    /// Computed with FxHash — fast and deterministic, but *not* injective;
    /// that map confirms every fingerprint hit by equality. (The visited
    /// sets key on packed records of interned ids instead; see
    /// [`crate::canon::DedupSet`].)
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = fxhash::FxHasher::default();
        self.objects.hash(&mut h);
        self.procs.hash(&mut h);
        h.finish()
    }

    /// Overwrite the value of an object. **System-level** operation used by
    /// adversary constructions to build hypothetical configurations; not
    /// reachable by any process step.
    pub fn poke_object(&mut self, obj: ObjectId, value: P::Value) {
        cow_slice(&mut self.objects)[obj.index()] = value;
    }

    /// Make this configuration's state equal to `other`'s, reusing this
    /// configuration's storage when it is uniquely owned (no allocation).
    ///
    /// This is the scratch-buffer pattern for hot loops that repeatedly run
    /// hypothetical executions from many base configurations (the model
    /// checker's solo-termination check): resetting a scratch configuration
    /// costs element copies only, and the subsequent in-place mutations
    /// never trigger a copy-on-write detach.
    pub fn clone_state_from(&mut self, other: &Self) {
        clone_slice_from(&mut self.objects, &other.objects);
        clone_slice_from(&mut self.procs, &other.procs);
        if !Arc::ptr_eq(&self.inputs, &other.inputs) {
            self.inputs = Arc::clone(&other.inputs);
        }
    }

    /// Whether `self` and `other` share the same physical object storage —
    /// i.e. neither side has mutated since one was cloned from the other.
    /// Diagnostic hook for the copy-on-write tests; `true` implies (but is
    /// not implied by) equal object values.
    pub fn shares_object_storage(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.objects, &other.objects)
    }

    /// [`Configuration::shares_object_storage`], for the process-status
    /// vector.
    pub fn shares_process_storage(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.procs, &other.procs)
    }
}

impl<P: Protocol> fmt::Debug for Configuration<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Configuration")
            .field("objects", &self.objects)
            .field("procs", &self.procs)
            .finish()
    }
}

fn check_domain<V: SimValue>(schema: &ObjectSchema, value: &V) -> Result<(), SchemaError> {
    schema.check_domain_point(value.domain_point())
}

/// Undo token for one step, produced by
/// [`Configuration::step_quiet_undoable`]: the pre-step contents of the (at
/// most) two slots the step mutated.
pub struct StepUndo<P: Protocol> {
    /// The target object's displaced value (`None` for a trivial operation,
    /// which changes no object).
    object: PriorObject<P::Value>,
    /// The stepping process's pre-step status.
    process: (ProcessId, ProcStatus<P::State>),
}

/// An object slot and the value an operation displaced from it, kept for
/// delta-undo; `None` when the operation left every slot untouched.
type PriorObject<V> = Option<(ObjectId, V)>;

impl<P: Protocol> StepUndo<P> {
    /// Whether the step wrote an object slot: `false` for a crash and for
    /// an operation that left every slot untouched.
    pub(crate) fn wrote_object(&self) -> bool {
        self.object.is_some()
    }
}

impl<P: Protocol> fmt::Debug for StepUndo<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StepUndo")
            .field("object", &self.object)
            .field("process", &self.process)
            .finish()
    }
}

/// Errors produced by the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The inputs passed to [`Configuration::initial`] violate the task.
    BadInputs(String),
    /// A decided process was scheduled.
    ProcessDecided(ProcessId),
    /// A crashed process was scheduled (or crashed a second time).
    ProcessCrashed(ProcessId),
    /// The protocol's `step` code panicked. Produced only by engines that
    /// isolate protocol panics ([`crate::engine::Engine`]); the panicking
    /// child configuration is discarded as poisoned, never explored.
    Panicked {
        /// The stepping process whose transition panicked.
        process: ProcessId,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// An operation violated an object's schema.
    Schema {
        /// The stepping process (`None` during initialization).
        process: Option<ProcessId>,
        /// The target object.
        object: ObjectId,
        /// The underlying schema error.
        error: SchemaError,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadInputs(msg) => write!(f, "bad inputs: {msg}"),
            SimError::ProcessDecided(p) => write!(f, "{p} has already decided"),
            SimError::ProcessCrashed(p) => write!(f, "{p} has crashed"),
            SimError::Panicked { process, message } => {
                write!(f, "protocol step for {process} panicked: {message}")
            }
            SimError::Schema {
                process,
                object,
                error,
            } => match process {
                Some(p) => write!(f, "{p} violated schema of {object}: {error}"),
                None => write!(f, "initial value of {object} violates schema: {error}"),
            },
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::KSetTask;
    use crate::testing::TwoProcessSwapConsensus;
    use swapcons_objects::{Domain, ObjectKind, OpKind};

    fn init(inputs: &[u64]) -> Configuration<TwoProcessSwapConsensus> {
        Configuration::initial(&TwoProcessSwapConsensus, inputs).unwrap()
    }

    /// A one-process protocol whose only step applies `op` to an object
    /// with `schema`.
    #[derive(Debug)]
    struct Misuse {
        schema: ObjectSchema,
        op: ObjectOp<u64>,
    }

    impl Protocol for Misuse {
        type State = ();
        type Value = u64;

        fn name(&self) -> String {
            format!("{self:?}")
        }

        fn task(&self) -> KSetTask {
            KSetTask::consensus(1)
        }

        fn num_objects(&self) -> usize {
            1
        }

        fn schema(&self, _obj: ObjectId) -> ObjectSchema {
            self.schema
        }

        fn initial_value(&self, _obj: ObjectId) -> u64 {
            0
        }

        fn initial_state(&self, _pid: ProcessId, _input: u64) {}

        fn poised(&self, _state: &()) -> (ObjectId, ObjectOp<u64>) {
            (ObjectId(0), self.op.clone())
        }

        fn observe(&self, _state: (), _response: Response<u64>) -> Transition<()> {
            Transition::Decide(0)
        }
    }

    #[test]
    fn schema_violations_are_rejected_and_change_nothing() {
        use crate::explore::{ModelChecker, ViolationKind};
        let out_of_domain = SchemaError::ValueOutOfDomain {
            value: 2,
            domain: Domain::BINARY,
        };
        let cases = [
            // A swap object cannot be read.
            (
                ObjectSchema::swap(),
                ObjectOp::read(),
                SchemaError::OpNotPermitted {
                    op: OpKind::Read,
                    kind: ObjectKind::Swap,
                },
            ),
            (
                ObjectSchema::readable_binary_swap(),
                ObjectOp::swap(2),
                out_of_domain.clone(),
            ),
            (
                ObjectSchema::binary_register(),
                ObjectOp::write(2),
                out_of_domain,
            ),
        ];
        let p0 = ProcessId(0);
        for (schema, op, error) in cases {
            let protocol = Misuse { schema, op };
            let expected = SimError::Schema {
                process: Some(p0),
                object: ObjectId(0),
                error,
            };
            let before = Configuration::initial(&protocol, &[0]).unwrap();
            let mut c = before.clone();
            assert_eq!(c.step(&protocol, p0).err().as_ref(), Some(&expected));
            assert_eq!(c, before, "{protocol:?}: step changed the configuration");
            assert_eq!(c.step_quiet(&protocol, p0).err().as_ref(), Some(&expected));
            assert_eq!(c, before, "{protocol:?}: step_quiet changed it");
            let undoable = c.step_quiet_undoable(&protocol, p0).err();
            assert_eq!(undoable.as_ref(), Some(&expected));
            assert_eq!(c, before, "{protocol:?}: step_quiet_undoable changed it");
            // The checker reports the protocol bug at its first step.
            let report = ModelChecker::new(4, 100).check(&protocol, &[0]);
            let violation = report.violation.expect("the misuse is reported");
            assert!(
                matches!(&violation.kind, ViolationKind::Internal(m) if *m == expected.to_string()),
                "{protocol:?}: {violation}"
            );
            assert_eq!(violation.schedule, [Action::Step(p0)]);
        }
    }

    /// Configurations are `Send + Sync` whenever the protocol's associated
    /// types are — which the `Protocol`/`SimValue` supertraits guarantee for
    /// every protocol — so the `Arc<[T]>` copy-on-write fields can cross
    /// threads. Compile-time pin; no runtime body needed.
    #[test]
    fn configurations_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Configuration<TwoProcessSwapConsensus>>();
        assert_send_sync::<SimError>();
    }

    #[test]
    fn initial_configuration_shape() {
        let c = init(&[0, 1]);
        assert_eq!(c.num_processes(), 2);
        assert_eq!(c.num_objects(), 1);
        assert_eq!(c.inputs(), &[0, 1]);
        assert_eq!(c.running(), vec![ProcessId(0), ProcessId(1)]);
        assert!(!c.all_decided());
    }

    #[test]
    fn bad_inputs_rejected() {
        let err = Configuration::initial(&TwoProcessSwapConsensus, &[0]).unwrap_err();
        assert!(matches!(err, SimError::BadInputs(_)));
        let err = Configuration::initial(&TwoProcessSwapConsensus, &[0, 99]).unwrap_err();
        assert!(matches!(err, SimError::BadInputs(_)));
    }

    #[test]
    fn first_swapper_decides_own_input() {
        let mut c = init(&[0, 1]);
        let rec = c.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap();
        assert_eq!(rec.decided, Some(0), "p0 sees ⊥ and decides its own input");
        assert_eq!(c.decision(ProcessId(0)), Some(0));
        let rec = c.step(&TwoProcessSwapConsensus, ProcessId(1)).unwrap();
        assert_eq!(rec.decided, Some(0), "p1 receives p0's input from the swap");
        assert!(c.all_decided());
        assert_eq!(c.decided_values().len(), 1);
    }

    #[test]
    fn stepping_decided_process_errors() {
        let mut c = init(&[1, 1]);
        c.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap();
        let err = c.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap_err();
        assert_eq!(err, SimError::ProcessDecided(ProcessId(0)));
    }

    #[test]
    fn indistinguishability_over_subsets() {
        let a = init(&[0, 1]);
        let mut b = init(&[0, 0]);
        // p0 has the same state (same input 0); p1 differs.
        assert!(a.indistinguishable_to(&b, &[ProcessId(0)]));
        assert!(!a.indistinguishable_to(&b, &[ProcessId(1)]));
        // After p1 steps in b, p0 still cannot distinguish.
        b.step(&TwoProcessSwapConsensus, ProcessId(1)).unwrap();
        assert!(a.indistinguishable_to(&b, &[ProcessId(0)]));
    }

    #[test]
    fn fingerprints_distinguish_configurations() {
        let a = init(&[0, 1]);
        let mut b = init(&[0, 1]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn poke_object_changes_value() {
        use crate::testing::TwoProcConsensusValue;
        let mut c = init(&[0, 1]);
        c.poke_object(ObjectId(0), TwoProcConsensusValue::Input(1));
        assert_eq!(c.value(ObjectId(0)), &TwoProcConsensusValue::Input(1));
    }

    #[test]
    fn clone_is_copy_on_write_not_deep() {
        // The acceptance test for the CoW representation: cloning bumps
        // refcounts and copies no object or process state.
        let a = init(&[0, 1]);
        let b = a.clone();
        assert!(
            a.shares_object_storage(&b),
            "clone must alias object storage"
        );
        assert!(
            a.shares_process_storage(&b),
            "clone must alias process storage"
        );
        assert_eq!(a, b);
    }

    #[test]
    fn step_unshares_only_what_it_mutates() {
        let a = init(&[0, 1]);
        let mut b = a.clone();
        b.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap();
        // The step wrote an object and a process status: both vectors must
        // have been unshared, and the original must be untouched.
        assert!(!a.shares_object_storage(&b));
        assert!(!a.shares_process_storage(&b));
        assert_eq!(a.decision(ProcessId(0)), None, "original unaffected");
        assert_eq!(b.decision(ProcessId(0)), Some(0));
        // Further steps on the now-unique clone keep storage unique without
        // copying again (make_mut fast path) — behaviourally: still correct.
        b.step(&TwoProcessSwapConsensus, ProcessId(1)).unwrap();
        assert!(b.all_decided());
        assert!(!a.all_decided());
    }

    #[test]
    fn poke_object_is_copy_on_write() {
        use crate::testing::TwoProcConsensusValue;
        let a = init(&[0, 1]);
        let mut b = a.clone();
        b.poke_object(ObjectId(0), TwoProcConsensusValue::Input(9));
        assert!(!a.shares_object_storage(&b));
        assert!(
            a.shares_process_storage(&b),
            "poke touches no process state"
        );
        assert_eq!(a.value(ObjectId(0)), &TwoProcConsensusValue::Bot);
        assert_eq!(b.value(ObjectId(0)), &TwoProcConsensusValue::Input(9));
    }

    #[test]
    fn equality_survives_divergent_storage() {
        // Two configurations reached by different histories but with equal
        // content must compare equal even though no storage is shared.
        let mut a = init(&[1, 1]);
        let mut b = init(&[1, 1]);
        a.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap();
        b.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap();
        assert!(!a.shares_object_storage(&b));
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn running_into_reuses_buffer() {
        let mut c = init(&[0, 1]);
        let mut buf = vec![ProcessId(99)]; // stale content must be cleared
        c.running_into(&mut buf);
        assert_eq!(buf, vec![ProcessId(0), ProcessId(1)]);
        c.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap();
        c.running_into(&mut buf);
        assert_eq!(buf, vec![ProcessId(1)]);
        assert_eq!(c.running(), buf, "running() and running_into agree");
    }

    #[test]
    fn decisions_iter_matches_decisions() {
        let mut c = init(&[0, 1]);
        c.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap();
        assert_eq!(c.decisions_iter().collect::<Vec<_>>(), c.decisions());
    }

    #[test]
    fn undo_step_restores_the_exact_state() {
        let reference = init(&[0, 1]);
        let mut c = reference.clone();
        // Detach from the reference first so the undo path exercises the
        // in-place element restore, not a copy-on-write detach.
        let (decided, undo) = c
            .step_quiet_undoable(&TwoProcessSwapConsensus, ProcessId(0))
            .unwrap();
        assert_eq!(decided, Some(0));
        assert_ne!(c, reference);
        c.undo_step(undo);
        assert_eq!(c, reference, "undo restores the pre-step configuration");
        assert_eq!(c.fingerprint(), reference.fingerprint());
        // The restored configuration steps exactly like a fresh one.
        let rec = c.step(&TwoProcessSwapConsensus, ProcessId(1)).unwrap();
        assert_eq!(rec.decided, Some(1));
    }

    #[test]
    fn undo_step_on_shared_storage_detaches_correctly() {
        let mut c = init(&[0, 1]);
        let (_, undo) = c
            .step_quiet_undoable(&TwoProcessSwapConsensus, ProcessId(0))
            .unwrap();
        // Share the stepped state (as the explorer does when it keeps a
        // child), then undo: the clone must keep the stepped state while the
        // original rolls back.
        let kept = c.clone();
        c.undo_step(undo);
        assert_eq!(c, init(&[0, 1]));
        assert_eq!(
            kept.decision(ProcessId(0)),
            Some(0),
            "kept child unaffected"
        );
    }

    #[test]
    fn poised_returns_none_after_decision() {
        let mut c = init(&[0, 1]);
        assert!(c.poised(&TwoProcessSwapConsensus, ProcessId(0)).is_some());
        c.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap();
        assert!(c.poised(&TwoProcessSwapConsensus, ProcessId(0)).is_none());
    }

    #[test]
    fn crash_drops_state_and_stops_the_process() {
        let mut c = init(&[0, 1]);
        c.crash(ProcessId(0)).unwrap();
        assert!(c.is_crashed(ProcessId(0)));
        assert_eq!(c.num_crashed(), 1);
        assert_eq!(c.crashed(), vec![ProcessId(0)]);
        assert_eq!(c.state(ProcessId(0)), None);
        assert_eq!(c.decision(ProcessId(0)), None);
        assert_eq!(c.running(), vec![ProcessId(1)], "crashed is not running");
        assert!(!c.all_decided());
        // A crashed process cannot step or crash again.
        assert_eq!(
            c.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap_err(),
            SimError::ProcessCrashed(ProcessId(0))
        );
        assert_eq!(
            c.crash(ProcessId(0)).unwrap_err(),
            SimError::ProcessCrashed(ProcessId(0))
        );
        // The survivor still decides (its peer is just infinitely slow).
        let rec = c.step(&TwoProcessSwapConsensus, ProcessId(1)).unwrap();
        assert_eq!(rec.decided, Some(1));
    }

    #[test]
    fn crash_of_decided_process_is_rejected() {
        let mut c = init(&[0, 1]);
        c.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap();
        assert_eq!(
            c.crash(ProcessId(0)).unwrap_err(),
            SimError::ProcessDecided(ProcessId(0))
        );
    }

    #[test]
    fn crash_undo_restores_the_exact_state() {
        let reference = init(&[0, 1]);
        let mut c = reference.clone();
        let undo = c.crash(ProcessId(1)).unwrap();
        assert_ne!(c, reference);
        assert_ne!(c.fingerprint(), reference.fingerprint());
        c.undo_step(undo);
        assert_eq!(c, reference, "undo restores the pre-crash configuration");
        assert_eq!(c.fingerprint(), reference.fingerprint());
    }

    #[test]
    fn crash_is_copy_on_write() {
        let a = init(&[0, 1]);
        let mut b = a.clone();
        b.crash(ProcessId(0)).unwrap();
        assert!(!a.shares_process_storage(&b));
        assert!(a.shares_object_storage(&b), "crash touches no object");
        assert!(!a.is_crashed(ProcessId(0)), "original unaffected");
    }

    #[test]
    fn crashed_configurations_with_different_histories_are_identified() {
        // The state-dropping design: crashing p0 before or after its swap
        // leads to configurations that differ only in the object — and two
        // pre-swap crash orders are literally equal.
        let mut a = init(&[0, 1]);
        let mut b = init(&[0, 1]);
        a.crash(ProcessId(0)).unwrap();
        b.crash(ProcessId(0)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}

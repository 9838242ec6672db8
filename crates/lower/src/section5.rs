//! The Section 5 inductive constructions, executable: Lemma 16 (readable
//! binary swap objects — Theorem 18's `n-2`) and Lemma 20 (domain size `b` —
//! Theorem 22's `(n-2)/(3b+1)`), with Lemma 14's critical-step search as the
//! shared engine (Figures 2–6).
//!
//! # What runs here
//!
//! The proofs build, stage by stage (`i = 0 … n-2`), configurations `Cᵢ` in
//! which the special pair `Q = {q₀, q₁}` stays bivalent, while extracting
//! from each sacrificed process `pᵢ` one unit of "space evidence":
//!
//! * **Lemma 16** splits evidence into `Xᵢ` (objects whose value is frozen —
//!   touching their critical value collapses `Q` to univalence) and `Yᵢ`
//!   (objects covered by a set `Sᵢ` of poised processes), with
//!   `|Xᵢ ∪ Yᵢ| = i`.
//! * **Lemma 20** refines the accounting for domain size `b` into forbidden
//!   value sets `fᵢ(B)`, `gᵢ(B)` and the covering set `Sᵢ`, with
//!   `Σ_B (2|fᵢ(B)| + |gᵢ(B)|) + |Sᵢ| ≥ i`.
//!
//! The engine of both is Lemma 14: run `pᵢ`'s deterministic solo execution
//! `δ` in a *hypothetical* world, then search for real `(Q ∪ Pᵢ)`-only
//! executions `α_j` that are indistinguishable to `pᵢ` from ever-longer
//! prefixes `δ_j` while keeping `Q` bivalent. The largest such `j` marks the
//! **critical step** `d`: the operation whose effect on its target object
//! `B⋆` cannot be tolerated by any bivalence-preserving world. Whether `d`
//! would change `B⋆`'s value decides the case split (frozen vs covered).
//!
//! # Exactness caveat
//!
//! Bivalence is computed by the bounded [`ValencyOracle`], and the witness
//! search is breadth-bounded, so the drivers are *bounded-faithful*: every
//! stage they complete is a machine-checked instance of the proof's
//! invariants (verified explicitly at each step via
//! [`StageOutcome::invariants_ok`]), but on large instances they may stop
//! early and say so. The paper guarantees the construction always exists;
//! the drivers *find* it on the small instances the tests and benches run.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use swapcons_sim::canon::DedupSet;
use swapcons_sim::{
    engine, Configuration, ObjectId, ProcessId, Protocol, SimValue, StepRecord, SynthesisReport,
};

use crate::lemma13::{self, block_update};
use crate::valency::{Valency, ValencyOracle};

/// Search budgets for the Section 5 drivers.
#[derive(Clone, Copy, Debug)]
pub struct Budgets {
    /// Step budget for each hypothetical solo execution `δ`.
    pub solo: usize,
    /// Maximum `j` levels to probe in the Lemma 14 search.
    pub max_j: usize,
    /// Maximum BFS nodes per `α_j` search level.
    pub max_nodes: usize,
    /// Maximum bivalence-oracle candidates tested per level.
    pub max_candidates: usize,
    /// Valency oracle budgets.
    pub oracle: ValencyOracle,
}

impl Budgets {
    /// Budgets suitable for the small instances exercised in tests/benches.
    pub fn small() -> Self {
        Budgets {
            solo: 400,
            max_j: 40,
            max_nodes: 250_000,
            max_candidates: 3_000,
            oracle: ValencyOracle::new(150, 60_000),
        }
    }

    /// [`Budgets::small`] with the valency oracle — the drivers' inner loop —
    /// running symmetry-reduced. Stage outcomes are unchanged (the oracle's
    /// verdicts are); the bivalence certifications just explore fewer
    /// configurations each. Since the oracle's stabilizer subgroup learned
    /// to compose object permutations (track swaps, pair swaps) with `σ`,
    /// the reduction also bites on the Lemma 16 query shape itself —
    /// balanced configurations of `BinaryRacing` pair up under the
    /// track-swapping renaming instead of degrading to the trivial group.
    pub fn small_reduced() -> Self {
        Budgets {
            oracle: ValencyOracle::new(150, 60_000).with_symmetry_reduction(),
            ..Self::small()
        }
    }
}

/// How the critical object was accounted at a stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageCase {
    /// Lemma 16 case 1 / Lemma 20 case 1: the critical operation would not
    /// change the object — its observed value is *frozen/forbidden*.
    Frozen,
    /// Case 2: the critical operation is a value-changing swap — `pᵢ` now
    /// *covers* the object.
    Covered,
}

/// Outcome of one stage of the induction.
#[derive(Clone, Debug)]
pub struct StageOutcome {
    /// Stage index `i` (the sacrificed process is `pᵢ`).
    pub i: usize,
    /// The sacrificed process.
    pub process: ProcessId,
    /// Length of the Lemma 13 prefix `γ` used (Lemma 16 only; 0 for
    /// Lemma 20).
    pub gamma_len: usize,
    /// The critical index `j` (length of the mirrored solo prefix).
    pub j: usize,
    /// The critical object `B⋆`.
    pub object: ObjectId,
    /// The value `v⋆ = value(B⋆, C'δⱼ)` at the critical step.
    pub value: u64,
    /// The case split.
    pub case: StageCase,
    /// Whether the stage's inductive invariants were re-verified.
    pub invariants_ok: bool,
}

/// Result of a Section 5 construction run.
#[derive(Clone, Debug)]
pub struct Section5Report {
    /// Per-stage outcomes, in order.
    pub stages: Vec<StageOutcome>,
    /// Lemma 16: the frozen set `X`; Lemma 20: objects with nonempty `f`.
    pub frozen: Vec<ObjectId>,
    /// Lemma 16: the covered set `Y`; Lemma 20: objects with nonempty `g`.
    pub covered: Vec<ObjectId>,
    /// Lemma 20 accounting value `Σ(2|f|+|g|) + |S|` (equals
    /// `|X| + |Y|` for Lemma 16 runs).
    pub accounting: usize,
    /// Number of stages the paper's construction would complete (`n-2`).
    pub target_stages: usize,
    /// Notes about early stops (budget exhaustion etc.).
    pub notes: Vec<String>,
}

impl Section5Report {
    /// Whether the full `n-2` stages completed.
    pub fn complete(&self) -> bool {
        self.stages.len() == self.target_stages
    }
}

impl fmt::Display for Section5Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} stages, accounting {} (frozen {:?}, covered {:?}){}",
            self.stages.len(),
            self.target_stages,
            self.accounting,
            self.frozen,
            self.covered,
            if self.notes.is_empty() {
                String::new()
            } else {
                format!("; notes: {:?}", self.notes)
            }
        )
    }
}

/// Record `pid`'s solo execution from `config` (hypothetically — on a
/// clone), up to `budget` steps or decision.
fn record_solo<P: Protocol>(
    protocol: &P,
    config: &Configuration<P>,
    pid: ProcessId,
    budget: usize,
) -> Vec<StepRecord<P::Value>> {
    let mut world = config.clone();
    let mut records = Vec::new();
    for _ in 0..budget {
        if world.decision(pid).is_some() {
            break;
        }
        match world.step(protocol, pid) {
            Ok(rec) => records.push(rec),
            Err(_) => break,
        }
    }
    records
}

/// Lemma 14's engine: find the largest `j ≤ max_j` for which some
/// `(q ∪ others ∪ {pi})`-only execution from `base` is indistinguishable to
/// `pi` from `δ_j` and leaves `q` bivalent, preferring witnesses whose
/// *next* δ-step targets an object not yet in `used` (the proofs show the
/// critical object is always fresh; the preference steers the bounded
/// search the same way).
///
/// Two phases:
/// 1. **Solo chain** (cheap): `pi` replaying `δ` verbatim from `base` *is*
///    an `α`-candidate for every prefix length — determinism guarantees the
///    responses match. Test bivalence along the chain.
/// 2. **Interleaved BFS** (fallback): only when the solo chain yields no
///    fresh critical object, search interleavings with `q ∪ others`, pruning
///    any branch where `pi`'s mirrored response diverges from `δ`.
///
/// Returns `(j, configuration after α_j)`; `j = 0` with the base
/// configuration when no extension is certifiable.
#[allow(clippy::too_many_arguments)]
fn critical_step_search<P: Protocol>(
    protocol: &P,
    base: &Configuration<P>,
    q: &[ProcessId],
    others: &[ProcessId],
    pi: ProcessId,
    delta: &[StepRecord<P::Value>],
    used: &BTreeSet<ObjectId>,
    budgets: &Budgets,
    notes: &mut Vec<String>,
) -> (usize, Configuration<P>) {
    let max_level = delta.len().min(budgets.max_j);
    let is_fresh = |t: usize| t < delta.len() && !used.contains(&delta[t].object);

    // Phase 1: the solo chain.
    let mut chain: Vec<(usize, Configuration<P>)> = Vec::new();
    {
        let mut world = base.clone();
        for (t, want) in delta.iter().enumerate().take(max_level) {
            match world.step(protocol, pi) {
                Ok(rec) => {
                    debug_assert!(
                        rec.object == want.object && rec.op == want.op,
                        "determinism: solo replay mirrors δ"
                    );
                    if rec.response != want.response {
                        break;
                    }
                }
                Err(_) => break,
            }
            if budgets.oracle.valency(protocol, &world, q) == Valency::Bivalent {
                chain.push((t + 1, world.clone()));
            }
        }
        if base_bivalent(protocol, base, q, budgets) {
            chain.insert(0, (0, base.clone()));
        }
    }
    // Prefer the deepest bivalent prefix whose next step is fresh.
    if let Some((j, config)) = chain.iter().rev().find(|(j, _)| is_fresh(*j)) {
        return (*j, config.clone());
    }

    // Phase 2: interleaved BFS.
    let mut best: Option<(usize, Configuration<P>)> = chain.into_iter().next_back();
    let steppers: Vec<ProcessId> = q
        .iter()
        .chain(others.iter())
        .chain(std::iter::once(&pi))
        .copied()
        .collect();
    // Visited states, partitioned by mirrored-prefix length `t` (the BFS
    // key is the pair (configuration, t)): one visited set per level.
    let mut visited: Vec<DedupSet<P>> = Vec::new();
    let mut queue: VecDeque<(Configuration<P>, usize)> = VecDeque::new();
    queue.push_back((base.clone(), 0));
    let mut nodes = 0usize;
    let mut candidates = 0usize;

    while let Some((config, t)) = queue.pop_front() {
        if visited.len() <= t {
            visited.resize_with(t + 1, || DedupSet::exact(0));
        }
        if !visited[t].insert(protocol, &config) {
            continue;
        }
        nodes += 1;
        if nodes > budgets.max_nodes {
            notes.push(format!(
                "α-search node budget hit at j={}",
                best.as_ref().map_or(0, |(j, _)| *j)
            ));
            break;
        }
        // Candidate test: fresh next step, deeper than the current best.
        if is_fresh(t)
            && best.as_ref().is_none_or(|(j, _)| t > *j || !is_fresh(*j))
            && candidates < budgets.max_candidates
        {
            candidates += 1;
            if budgets.oracle.valency(protocol, &config, q) == Valency::Bivalent {
                best = Some((t, config.clone()));
            }
        }
        for &pid in &steppers {
            if config.decision(pid).is_some() {
                continue;
            }
            if pid == pi {
                if t >= max_level {
                    continue;
                }
                let mut child = config.clone();
                if let Ok(rec) = child.step(protocol, pi) {
                    let want = &delta[t];
                    if rec.object == want.object
                        && rec.op == want.op
                        && rec.response == want.response
                    {
                        queue.push_back((child, t + 1));
                    }
                }
            } else {
                let mut child = config.clone();
                if child.step(protocol, pid).is_ok() {
                    queue.push_back((child, t));
                }
            }
        }
    }
    best.unwrap_or_else(|| (0, base.clone()))
}

fn base_bivalent<P: Protocol>(
    protocol: &P,
    base: &Configuration<P>,
    q: &[ProcessId],
    budgets: &Budgets,
) -> bool {
    budgets.oracle.valency(protocol, base, q) == Valency::Bivalent
}

/// Adversarial probe of Lemma 14(b) (Figure 3) around a found critical
/// step: sample `(q ∪ others)`-only executions `λ'` from `alpha_config`;
/// whenever the critical object's value equals the value `pi` observed at
/// its critical step in the hypothetical world, extend by `pi`'s step `d`
/// and test whether `Q` is still certifiably bivalent afterwards.
///
/// Returns `(preconditioned_samples, still_bivalent)`. For the paper's
/// *true* critical index `j` (minimal with all `δ_{j+1}`-indistinguishable
/// worlds univalent), `still_bivalent` would be 0. The bounded
/// `critical_step_search` may settle for a smaller index `j̃ ≤ j`
/// (preferring fresh objects and certifiable bivalence), in which case a
/// positive count *measures the gap* between the bounded search and the
/// exact lemma — the drivers' stage invariants do not depend on it, but the
/// probe is reported in the Section 5 bench output as a fidelity metric.
// The arity mirrors the lemma statement (protocol, configuration, Q, R',
// pi, critical step, budgets, sample count); bundling them would only
// obscure the correspondence.
#[allow(clippy::too_many_arguments)]
pub fn verify_lemma14b<P: Protocol>(
    protocol: &P,
    alpha_config: &Configuration<P>,
    q: &[ProcessId],
    others: &[ProcessId],
    pi: ProcessId,
    critical: &StepRecord<P::Value>,
    budgets: &Budgets,
    samples: u64,
) -> (usize, usize) {
    use rand::{Rng, SeedableRng};
    let critical_value = match critical.response.value() {
        Some(v) => v.clone(),
        None => return (0, 0),
    };
    let steppers: Vec<ProcessId> = q.iter().chain(others.iter()).copied().collect();
    let mut checked = 0usize;
    let mut violations = 0usize;
    for seed in 0..samples {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut world = alpha_config.clone();
        let lambda_len = rng.gen_range(0..12);
        for _ in 0..lambda_len {
            let alive: Vec<ProcessId> = steppers
                .iter()
                .copied()
                .filter(|&p| world.decision(p).is_none())
                .collect();
            if alive.is_empty() {
                break;
            }
            let p = alive[rng.gen_range(0..alive.len())];
            if world.step(protocol, p).is_err() {
                break;
            }
        }
        // Precondition: value(B, Cα_jλ') == value(B, C'δ_j).
        if world.value(critical.object) != &critical_value {
            continue;
        }
        if world.decision(pi).is_some() {
            continue;
        }
        // Extend by pi's step d; pi is poised to apply exactly `critical.op`
        // (it took no steps in λ').
        let Ok(rec) = world.step(protocol, pi) else {
            continue;
        };
        if rec.op != critical.op || rec.object != critical.object {
            continue;
        }
        checked += 1;
        if budgets.oracle.valency(protocol, &world, q) == Valency::Bivalent {
            violations += 1;
        }
    }
    (checked, violations)
}

/// Adversary synthesis for the Section 5 racing regime: search all
/// schedules (up to `depth` steps and `max_states` configurations) for the
/// configuration maximizing the total value mass swapped into the shared
/// objects **while nobody has decided** — for the monotone-track protocols
/// (`BinaryRacing`-style, `Value = u64`) that is exactly the total track
/// progress of the livelocked race, the analog of Algorithm 1's lap totals.
///
/// Returns the extremal schedule as a replayable witness
/// ([`SynthesisReport::schedule`]). Configurations with any decision score
/// zero, so the search optimizes strictly inside the contended
/// (bivalence-compatible) region the Section 5 adversaries live in.
///
/// # Panics
///
/// Panics if `inputs` are invalid for the protocol's task.
pub fn searched_object_pressure<P>(
    protocol: &P,
    inputs: &[u64],
    depth: usize,
    max_states: usize,
) -> SynthesisReport<P>
where
    P: Protocol<Value = u64>,
{
    engine::synthesize(protocol, inputs, depth, max_states, |_, c| {
        if c.decisions_iter().flatten().next().is_some() {
            return 0;
        }
        c.object_values().iter().sum()
    })
}

/// Whether the recorded step `rec` would change its object's value (the
/// case-split test: `value(B, C'δⱼd) = value(B, C'δⱼ)`?).
fn step_changes_value<P: Protocol>(rec: &StepRecord<P::Value>) -> Option<bool> {
    let before = rec.response.value()?;
    Some(match rec.op.payload() {
        None => false, // Read
        Some(new) => new != before,
    })
}

/// Run the Lemma 16 construction (readable binary swap objects) against a
/// binary consensus protocol.
///
/// Convention: processes `0` and `1` are the special pair `Q` (inputs 0 and
/// 1 respectively — Observation 12 makes them bivalent initially); processes
/// `2 … n-1` are `P = {p₀, …, p_{n-3}}`, sacrificed in order.
///
/// # Panics
///
/// Panics if the protocol solves anything other than binary consensus with
/// at least 3 processes.
pub fn lemma16_driver<P>(protocol: &P, inputs: &[u64], budgets: &Budgets) -> Section5Report
where
    P: Protocol,
{
    let task = protocol.task();
    assert_eq!(task.k, 1, "Section 5 concerns consensus");
    assert_eq!(task.m, 2, "Section 5 concerns *binary* consensus");
    assert!(task.n >= 3, "need at least one sacrificial process");
    assert_eq!(inputs[0], 0, "q0 must hold input 0 (Observation 12)");
    assert_eq!(inputs[1], 1, "q1 must hold input 1 (Observation 12)");

    let q = [ProcessId(0), ProcessId(1)];
    let target_stages = task.n - 2;
    let mut notes = Vec::new();

    let mut config = Configuration::initial(protocol, inputs).expect("valid inputs");
    if budgets.oracle.valency(protocol, &config, &q) != Valency::Bivalent {
        notes.push("initial bivalence not certified within oracle budget".into());
        return Section5Report {
            stages: vec![],
            frozen: vec![],
            covered: vec![],
            accounting: 0,
            target_stages,
            notes,
        };
    }

    let mut x: BTreeSet<ObjectId> = BTreeSet::new();
    let mut y: BTreeSet<ObjectId> = BTreeSet::new();
    let mut s: Vec<ProcessId> = Vec::new(); // covering set, swaps Y
    let mut stages = Vec::new();

    for i in 0..target_stages {
        let pi = ProcessId(2 + i);
        let others: Vec<ProcessId> = ((2 + i + 1)..task.n).map(ProcessId).collect();

        // Lemma 13: find γ such that Q is bivalent in C γ β (and hence, by
        // Observation 15, in C γ).
        let gamma_len;
        match lemma13::find_gamma(protocol, &config, &q, &s, &budgets.oracle, budgets.max_j) {
            Some(outcome) => {
                gamma_len = outcome.gamma.len();
                for &pid in &outcome.gamma {
                    if config.step(protocol, pid).is_err() {
                        break;
                    }
                }
            }
            None => {
                notes.push(format!("stage {i}: Lemma 13 search failed (budget)"));
                break;
            }
        }
        if budgets.oracle.valency(protocol, &config, &q) != Valency::Bivalent {
            notes.push(format!("stage {i}: bivalence after γ not certified"));
            break;
        }

        // δ: pi's solo execution from C_i γ (hypothetical world C' = C).
        let delta = record_solo(protocol, &config, pi, budgets.solo);
        if delta.is_empty() {
            notes.push(format!("stage {i}: δ empty"));
            break;
        }

        // Lemma 14: critical step.
        let used: BTreeSet<ObjectId> = x.union(&y).copied().collect();
        let (j, next_config) = critical_step_search(
            protocol, &config, &q, &others, pi, &delta, &used, budgets, &mut notes,
        );
        if j >= delta.len() {
            notes.push(format!("stage {i}: δ fully mirrored — agreement suspect"));
            break;
        }
        let d = &delta[j];
        let Some(changes) = step_changes_value::<P>(d) else {
            notes.push(format!("stage {i}: critical step carries no value"));
            break;
        };
        let b_star = d.object;
        let v_star = d
            .response
            .value()
            .and_then(|v| v.domain_point())
            .unwrap_or_default();

        // Case split and the paper's disjointness facts (B⋆ ∉ Xᵢ ∪ Yᵢ).
        let fresh = !x.contains(&b_star) && !y.contains(&b_star);
        let case = if changes {
            y.insert(b_star);
            s.push(pi);
            StageCase::Covered
        } else {
            x.insert(b_star);
            StageCase::Frozen
        };
        config = next_config;

        // Invariants: (a) Q bivalent in C_{i+1}; (b) S covers distinct
        // objects; disjointness; |X ∪ Y| = i+1.
        let inv_a = budgets.oracle.valency(protocol, &config, &q) == Valency::Bivalent;
        let inv_b = s.is_empty() || lemma13::covers_distinct_objects(protocol, &config, &s);
        let inv_sets = x.is_disjoint(&y) && x.len() + y.len() == i + 1;
        let invariants_ok = inv_a && inv_b && inv_sets && fresh;
        stages.push(StageOutcome {
            i,
            process: pi,
            gamma_len,
            j,
            object: b_star,
            value: v_star,
            case,
            invariants_ok,
        });
        if !invariants_ok {
            notes.push(format!("stage {i}: invariant re-verification failed"));
            break;
        }
    }

    Section5Report {
        accounting: x.len() + y.len(),
        frozen: x.into_iter().collect(),
        covered: y.into_iter().collect(),
        stages,
        target_stages,
        notes,
    }
}

/// Run the Lemma 20 construction (readable swap objects with domain size
/// `b`): the same engine with forbidden-value accounting
/// `Σ(2|f|+|g|) + |S| ≥ i`.
///
/// Differences from Lemma 16, per the paper: the hypothetical world is
/// `C' = Cᵢβᵢ` (block swap *before* the solo run), there is no `γ`, and the
/// evidence is per-(object, value) rather than per-object.
///
/// # Panics
///
/// Same preconditions as [`lemma16_driver`].
pub fn lemma20_driver<P>(protocol: &P, inputs: &[u64], budgets: &Budgets) -> Section5Report
where
    P: Protocol,
{
    let task = protocol.task();
    assert_eq!(task.k, 1, "Section 5 concerns consensus");
    assert_eq!(task.m, 2, "binary consensus inputs");
    assert!(task.n >= 3);
    assert_eq!(inputs[0], 0);
    assert_eq!(inputs[1], 1);

    let q = [ProcessId(0), ProcessId(1)];
    let target_stages = task.n - 2;
    let mut notes = Vec::new();

    let mut config = Configuration::initial(protocol, inputs).expect("valid inputs");
    let mut f: BTreeMap<ObjectId, BTreeSet<u64>> = BTreeMap::new();
    let mut g: BTreeMap<ObjectId, BTreeSet<u64>> = BTreeMap::new();
    let mut s: Vec<ProcessId> = Vec::new();
    let mut stages = Vec::new();

    for i in 0..target_stages {
        let pi = ProcessId(2 + i);
        let others: Vec<ProcessId> = ((2 + i + 1)..task.n).map(ProcessId).collect();

        // C' = C_i β_i: hypothetical world with the block swap applied.
        let mut hypothetical = config.clone();
        if !s.is_empty() && block_update(protocol, &mut hypothetical, &s).is_err() {
            notes.push(format!("stage {i}: block swap failed"));
            break;
        }
        let delta = record_solo(protocol, &hypothetical, pi, budgets.solo);
        if delta.is_empty() {
            notes.push(format!("stage {i}: δ empty"));
            break;
        }

        // Lemma 20's evidence is per-(object, value): prefer critical steps
        // whose (B⋆, v⋆) pair is new. The driver approximates this by
        // steering away from objects whose f/g sets are already full.
        let used: BTreeSet<ObjectId> = f
            .iter()
            .chain(g.iter())
            .filter(|(_, vs)| !vs.is_empty())
            .map(|(obj, _)| *obj)
            .collect();
        let (j, next_config) = critical_step_search(
            protocol, &config, &q, &others, pi, &delta, &used, budgets, &mut notes,
        );
        if j >= delta.len() {
            notes.push(format!("stage {i}: δ fully mirrored — agreement suspect"));
            break;
        }
        let d = &delta[j];
        let Some(changes) = step_changes_value::<P>(d) else {
            notes.push(format!("stage {i}: critical step carries no value"));
            break;
        };
        let b_star = d.object;
        let v_star = d
            .response
            .value()
            .and_then(|v| v.domain_point())
            .unwrap_or_default();

        let case = if changes {
            // Case 2: g(B⋆) += v⋆; S gains pi (replacing any member that
            // covered B⋆).
            g.entry(b_star).or_default().insert(v_star);
            s.retain(|&p| {
                config
                    .poised(protocol, p)
                    .map(|(obj, _)| obj != b_star)
                    .unwrap_or(false)
            });
            s.push(pi);
            StageCase::Covered
        } else {
            // Case 1: f(B⋆) += v⋆; S drops a member poised to swap v⋆ into
            // B⋆, if any.
            f.entry(b_star).or_default().insert(v_star);
            if let Some(pos) = s.iter().position(|&p| {
                config
                    .poised(protocol, p)
                    .map(|(obj, op)| {
                        obj == b_star && op.payload().and_then(|v| v.domain_point()) == Some(v_star)
                    })
                    .unwrap_or(false)
            }) {
                s.remove(pos);
            }
            StageCase::Frozen
        };
        config = next_config;

        // Invariant (d): Σ(2|f|+|g|) + |S| ≥ i+1; (a) bivalence.
        let accounting: usize = f.values().map(|vs| 2 * vs.len()).sum::<usize>()
            + g.values().map(|vs| vs.len()).sum::<usize>()
            + s.len();
        let inv_a = budgets.oracle.valency(protocol, &config, &q) == Valency::Bivalent;
        let inv_d = accounting > i;
        let invariants_ok = inv_a && inv_d;
        stages.push(StageOutcome {
            i,
            process: pi,
            gamma_len: 0,
            j,
            object: b_star,
            value: v_star,
            case,
            invariants_ok,
        });
        if !invariants_ok {
            notes.push(format!("stage {i}: invariant re-verification failed"));
            break;
        }
    }

    let accounting: usize = f.values().map(|vs| 2 * vs.len()).sum::<usize>()
        + g.values().map(|vs| vs.len()).sum::<usize>()
        + s.len();
    Section5Report {
        frozen: f.keys().copied().collect(),
        covered: g.keys().copied().collect(),
        accounting,
        stages,
        target_stages,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcons_baselines::BinaryRacing;

    #[test]
    fn lemma16_completes_one_stage_at_n3() {
        // n=3: Q = {0,1}, one sacrificial process p0 = ProcessId(2).
        let p = BinaryRacing::with_track_len(3, 8);
        let report = lemma16_driver(&p, &[0, 1, 0], &Budgets::small());
        assert!(report.complete(), "{report}");
        assert_eq!(report.accounting, 1);
        assert!(report.stages.iter().all(|s| s.invariants_ok), "{report}");
    }

    #[test]
    fn lemma16_accumulates_distinct_objects_at_n4() {
        let p = BinaryRacing::with_track_len(4, 8);
        let report = lemma16_driver(&p, &[0, 1, 0, 1], &Budgets::small());
        // The paper guarantees n-2 = 2 stages exist; the bounded driver
        // should find them on this small instance.
        assert!(report.complete(), "{report}");
        assert_eq!(report.accounting, 2, "{report}");
        let all: BTreeSet<ObjectId> = report
            .frozen
            .iter()
            .chain(report.covered.iter())
            .copied()
            .collect();
        assert_eq!(all.len(), 2, "distinct evidence objects: {report}");
    }

    #[test]
    fn reduced_oracle_drives_lemma16_to_identical_stages() {
        // Thread the symmetry-reduced oracle through the whole Section 5
        // engine: every stage outcome (process, critical object, case) must
        // match the unreduced run bit for bit.
        let p = BinaryRacing::with_track_len(3, 8);
        let full = lemma16_driver(&p, &[0, 1, 0], &Budgets::small());
        let reduced = lemma16_driver(&p, &[0, 1, 0], &Budgets::small_reduced());
        assert!(full.complete() && reduced.complete(), "{full} vs {reduced}");
        assert_eq!(full.stages.len(), reduced.stages.len());
        for (a, b) in full.stages.iter().zip(&reduced.stages) {
            assert_eq!((a.process, a.object, a.case), (b.process, b.object, b.case));
            assert!(b.invariants_ok);
        }
        assert_eq!(full.accounting, reduced.accounting);
    }

    #[test]
    fn reduced_oracle_drives_lemma16_n4_with_object_symmetry() {
        // n=4, inputs [0,1,0,1]: the initial bivalence certification (and
        // any stage whose configuration stays track-balanced) runs with the
        // composed track-swap stabilizer instead of the trivial group;
        // stage outcomes must still match the unreduced run bit for bit.
        let p = BinaryRacing::with_track_len(4, 8);
        let full = lemma16_driver(&p, &[0, 1, 0, 1], &Budgets::small());
        let reduced = lemma16_driver(&p, &[0, 1, 0, 1], &Budgets::small_reduced());
        assert!(full.complete() && reduced.complete(), "{full} vs {reduced}");
        assert_eq!(full.stages.len(), reduced.stages.len());
        for (a, b) in full.stages.iter().zip(&reduced.stages) {
            assert_eq!((a.process, a.object, a.case), (b.process, b.object, b.case));
            assert!(b.invariants_ok);
        }
        assert_eq!(full.accounting, reduced.accounting);
    }

    #[test]
    fn lemma20_accounting_reaches_target_at_n3() {
        let p = BinaryRacing::with_track_len(3, 8);
        let report = lemma20_driver(&p, &[0, 1, 0], &Budgets::small());
        assert!(report.complete(), "{report}");
        assert!(report.accounting >= 1, "{report}");
        assert!(report.stages.iter().all(|s| s.invariants_ok));
    }

    #[test]
    fn stage_outcomes_record_critical_steps() {
        let p = BinaryRacing::with_track_len(3, 8);
        let report = lemma16_driver(&p, &[0, 1, 0], &Budgets::small());
        let stage = &report.stages[0];
        assert_eq!(stage.process, ProcessId(2));
        assert!(stage.value <= 1, "binary domain value");
    }

    #[test]
    fn searched_object_pressure_finds_a_contended_witness() {
        // The racing-pressure synthesis on BinaryRacing: the searched
        // schedule advances track cells (3 steps per advance: two frontier
        // scans + a swap) without letting anyone decide.
        let p = BinaryRacing::with_track_len(3, 8);
        let inputs = [0u64, 1, 0];
        let report = searched_object_pressure(&p, &inputs, 12, 150_000);
        assert!(report.complete, "budgets must cover the depth-12 region");
        assert!(
            report.best_score >= 2,
            "depth 12 admits at least two advances: {report:?}"
        );
        assert!(
            report.config.decided_values().is_empty(),
            "pressure is only scored in undecided configurations"
        );
        // The witness replays, and the objective recomputes on the replay.
        let mut replay = swapcons_sim::Configuration::initial(&p, &inputs).unwrap();
        swapcons_sim::runner::replay(&p, &mut replay, &report.schedule).unwrap();
        assert_eq!(replay, report.config);
        assert_eq!(
            replay.object_values().iter().sum::<u64>(),
            report.best_score
        );
        // Obstruction-freedom holds even at maximal pressure: everyone
        // decides once left alone, and safety survives the whole episode.
        let mut rec = report.config.clone();
        for pid in rec.running() {
            swapcons_sim::runner::solo_run(&p, &mut rec, pid, p.solo_step_bound()).unwrap();
        }
        assert!(rec.all_decided());
        assert!(p.task().check(&inputs, &rec.decisions()).is_ok());
    }

    #[test]
    fn lemma14b_probe_measures_search_fidelity() {
        // Reconstruct stage 0 of the Lemma 16 run by hand and probe
        // Lemma 14(b) around the found critical step. The bounded search
        // may settle below the paper's exact critical index, so the probe's
        // still-bivalent count is a fidelity metric, not a correctness
        // assertion; the contract here is that the probe exercises real
        // preconditioned samples and that pi's critical step collapses
        // bivalence in at least some of them (it would collapse *all* of
        // them at the exact index).
        let p = BinaryRacing::with_track_len(3, 8);
        let budgets = Budgets::small();
        let q = [ProcessId(0), ProcessId(1)];
        let pi = ProcessId(2);
        let config = swapcons_sim::Configuration::initial(&p, &[0, 1, 0]).unwrap();
        let delta = record_solo(&p, &config, pi, budgets.solo);
        let mut notes = Vec::new();
        let (j, alpha_config) = critical_step_search(
            &p,
            &config,
            &q,
            &[],
            pi,
            &delta,
            &BTreeSet::new(),
            &budgets,
            &mut notes,
        );
        assert!(j < delta.len(), "critical step exists");
        let critical = &delta[j];
        let (checked, still_bivalent) =
            verify_lemma14b(&p, &alpha_config, &q, &[], pi, critical, &budgets, 200);
        assert!(
            checked > 0,
            "sampling produced no preconditioned extensions"
        );
        assert!(
            still_bivalent < checked,
            "the critical step never collapsed bivalence: {still_bivalent}/{checked}"
        );
    }
}

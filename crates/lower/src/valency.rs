//! Valency computation — the Section 2 notions, bounded-exhaustively.
//!
//! "A set of processes `P` is **bivalent** in configuration `C` if, for each
//! `v ∈ {0,1}`, there exists an execution from `C` only involving steps by
//! `P` in which some process in `P` decides the value `v`. If `P` is not
//! bivalent in `C`, then it is **univalent**; `v`-univalent if `v` is the
//! only value decided by `P` in its deciding executions."
//!
//! Exact valency is computable only when the group-only reachable space is
//! finite; racing algorithms grow lap counters unboundedly, so
//! [`ValencyOracle`] explores group-only executions to a configurable depth
//! and state budget. Its verdicts are therefore three-valued:
//!
//! * decided values *found* are definite (witness schedules are returned);
//! * a verdict of univalence/bivalence is definitive only when the search
//!   was exhaustive ([`ValencyResult::exhaustive`]);
//! * otherwise the verdict is the best-effort [`Valency::Unknown`] — the
//!   Section 5 drivers treat it conservatively and record the cutoff.

use std::collections::HashMap;
use std::collections::HashSet;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

use swapcons_sim::canon::{apply_renaming, DedupSet};
use swapcons_sim::engine::{
    Budget, Control, EdgeCtx, Engine, GroupRestricted, Lifo, NodeCtx, Visitor,
};
use swapcons_sim::search::ScheduleArena;
use swapcons_sim::{Canonicalizer, Configuration, ProcessId, Protocol, SimError};

/// Three-valued valency verdict for a process group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Valency {
    /// Both 0 and 1 are decidable by the group (definitive: witnesses
    /// exist even if the search was truncated).
    Bivalent,
    /// Exactly this value is decidable, and the search was exhaustive.
    Univalent(u64),
    /// The search was truncated before both values were found; the values
    /// seen so far are in the accompanying [`ValencyResult`].
    Unknown,
}

impl fmt::Display for Valency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Valency::Bivalent => write!(f, "bivalent"),
            Valency::Univalent(v) => write!(f, "{v}-univalent"),
            Valency::Unknown => write!(f, "unknown (search truncated)"),
        }
    }
}

/// Result of a valency query.
#[derive(Clone, Debug)]
pub struct ValencyResult {
    /// Values decided by the group in some explored group-only execution,
    /// with a witnessing schedule for each.
    pub witnesses: HashMap<u64, Vec<ProcessId>>,
    /// Whether the exploration covered the entire group-only reachable
    /// space.
    pub exhaustive: bool,
    /// Distinct configurations (orbits, under reduction) explored.
    pub states: usize,
    /// Order of the stabilizer subgroup the query deduplicated by (1 = no
    /// reduction, or a reduced query whose stabilizer degenerated to
    /// trivial).
    pub symmetry_group: usize,
    /// Whether the run group the stabilizer was carved from is itself a
    /// degraded subgroup of the protocol's declared symmetry (cap exceeded
    /// or inconsistent declaration — see
    /// `swapcons_sim::Canonicalizer::degraded`). Sound either way; reported
    /// so a declared-but-lost reduction never passes silently.
    pub symmetry_degraded: bool,
}

impl ValencyResult {
    /// The verdict, combining found values with exhaustiveness.
    pub fn verdict(&self) -> Valency {
        let values: HashSet<u64> = self.witnesses.keys().copied().collect();
        if values.len() >= 2 {
            Valency::Bivalent
        } else if self.exhaustive {
            match values.iter().next() {
                Some(&v) => Valency::Univalent(v),
                // No group member can ever decide — degenerate; treat as
                // unknown rather than inventing a value.
                None => Valency::Unknown,
            }
        } else {
            Valency::Unknown
        }
    }

    /// Whether `v` was proven decidable.
    pub fn can_decide(&self, v: u64) -> bool {
        self.witnesses.contains_key(&v)
    }
}

/// Bounded-exhaustive valency oracle for a fixed protocol.
#[derive(Clone, Copy, Debug)]
pub struct ValencyOracle {
    /// Maximum schedule length explored.
    pub max_depth: usize,
    /// Maximum distinct configurations visited per query.
    pub max_states: usize,
    /// Deduplicate group-only configurations modulo the protocol's declared
    /// symmetry, restricted to the **stabilizer subgroup** of the query:
    /// renamings that map the queried process group onto itself *and* fix
    /// the queried configuration exactly (which pins the input assignment
    /// pointwise up to `σ`). Fixing the root makes every group translate of
    /// an explored execution a real execution from the same root, so the
    /// collected witness set is closed under the subgroup afterwards —
    /// value-moving renamings (a `BinaryRacing` track swap, a `PairsKSet`
    /// pair swap) are admissible, not just `σ = id` ones.
    pub reduce: bool,
}

impl ValencyOracle {
    /// An oracle with the given per-query budgets.
    pub fn new(max_depth: usize, max_states: usize) -> Self {
        ValencyOracle {
            max_depth,
            max_states,
            reduce: false,
        }
    }

    /// Enable symmetry-reduced dedup (see [`ValencyOracle::reduce`]).
    pub fn with_symmetry_reduction(mut self) -> Self {
        self.reduce = true;
        self
    }

    /// Explore `group`-only executions from `config`, collecting every value
    /// some group member decides.
    ///
    /// Early-exits once two distinct values are found (bivalence is then
    /// definitive).
    pub fn query<P: Protocol>(
        &self,
        protocol: &P,
        config: &Configuration<P>,
        group: &[ProcessId],
    ) -> ValencyResult {
        // The stabilizer subgroup of the query: renamings mapping `group`
        // onto itself that fix `config` exactly. Both conditions are closed
        // under composition and inverse, so the retained set is a genuine
        // subgroup — required for orbit dedup and the witness closure below.
        let canon = if self.reduce {
            let mut canon = Canonicalizer::for_inputs(protocol, config.inputs());
            canon.retain(|g| g.stabilizes(group) && apply_renaming(protocol, g, config) == *config);
            canon
        } else {
            Canonicalizer::trivial()
        };
        let mut witnesses: HashMap<u64, Vec<ProcessId>> = HashMap::new();
        // Fast path: solo runs of each group member. For racing protocols a
        // bivalent configuration usually realizes both values on
        // straight-line schedules, making bivalence checks cheap. A member
        // whose protocol panics gives no witness here; the search below
        // meets the same panic as a skipped edge and reports the query as
        // not exhaustive.
        for &pid in group {
            if config.decision(pid).is_some() {
                continue;
            }
            if let Ok(Ok((out, _))) = panic::catch_unwind(AssertUnwindSafe(|| {
                swapcons_sim::runner::solo_run_cloned(protocol, config, pid, self.max_depth)
            })) {
                witnesses
                    .entry(out.decision)
                    .or_insert_with(|| vec![pid; out.steps]);
            }
        }
        if witnesses.len() >= 2 {
            return ValencyResult {
                witnesses,
                exhaustive: false,
                states: 0,
                symmetry_group: canon.group_order(),
                symmetry_degraded: canon.degraded(),
            };
        }
        // The shared search core ([`swapcons_sim::engine`]) owns the loop:
        // discovery-time dedup over packed records of interned ids,
        // parent-pointer schedule arena (witness schedules are materialized
        // only when a decision is first seen, never cloned into stack
        // frames), scratch children with delta-restore, and the checker's
        // exact budget discipline —
        // a search that drains exactly at `max_states` without skipping
        // anything still reports `exhaustive == true`. Under reduction,
        // membership is per orbit of the stabilizer subgroup computed
        // above: because every retained renaming fixes the root, each group
        // translate of an explored execution is itself a real execution
        // from the root, so deduplicating a translate discards no *values*
        // — the closure pass after the search recovers them.
        let capacity = self.max_states.min(1 << 14);
        let mut visited: DedupSet<P> = if self.reduce {
            DedupSet::reduced(canon.clone(), capacity)
        } else {
            DedupSet::exact(capacity)
        };
        let mut arena = ScheduleArena::new();
        /// The oracle's strategy: collect decided values per generated edge
        /// (even edges to already-known configurations), stop the moment
        /// bivalence is established — whatever remains unexplored cannot
        /// change the verdict — and treat schema rejections as skipped
        /// (hence incomplete) work rather than aborting.
        struct OracleVisitor<'a> {
            witnesses: &'a mut HashMap<u64, Vec<ProcessId>>,
        }
        impl<P: Protocol> Visitor<P> for OracleVisitor<'_> {
            fn enter(
                &mut self,
                _protocol: &P,
                _config: &Configuration<P>,
                _ctx: &NodeCtx<'_>,
                _candidates: &[swapcons_sim::Action],
            ) -> Control {
                if self.witnesses.len() >= 2 {
                    Control::Stop
                } else {
                    Control::Continue
                }
            }

            fn edge(
                &mut self,
                _protocol: &P,
                _child: &Configuration<P>,
                decided: Option<u64>,
                _is_new: bool,
                ctx: &mut EdgeCtx<'_>,
            ) -> Control {
                if let Some(v) = decided {
                    self.witnesses.entry(v).or_insert_with(|| ctx.schedule());
                }
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
        let stats = Engine::new(Budget::new(self.max_depth, self.max_states)).run(
            protocol,
            config.clone(),
            &mut visited,
            &mut arena,
            &mut GroupRestricted(group),
            &mut Lifo::new(),
            &mut OracleVisitor {
                witnesses: &mut witnesses,
            },
        );
        // A bivalence early-exit leaves the rest of the space unexplored by
        // design; it is never an exhaustiveness claim.
        let exhaustive = stats.complete() && !stats.stopped;
        // Close the witness set under the stabilizer subgroup: an explored
        // execution deciding `v` renames, element by element, to a real
        // execution from the same root deciding `σ(v)` — exactly the
        // executions orbit dedup declined to re-explore. One pass suffices
        // because the retained set is a whole subgroup, not just
        // generators.
        if !canon.is_trivial() {
            let found: Vec<(u64, Vec<ProcessId>)> = witnesses
                .iter()
                .map(|(&v, schedule)| (v, schedule.clone()))
                .collect();
            for g in canon.renamings() {
                for (v, schedule) in &found {
                    witnesses
                        .entry(g.value(*v))
                        .or_insert_with(|| schedule.iter().map(|&p| g.pid(p)).collect());
                }
            }
        }
        ValencyResult {
            witnesses,
            exhaustive,
            states: visited.len(),
            symmetry_group: canon.group_order(),
            symmetry_degraded: canon.degraded(),
        }
    }

    /// Convenience: the verdict only.
    pub fn valency<P: Protocol>(
        &self,
        protocol: &P,
        config: &Configuration<P>,
        group: &[ProcessId],
    ) -> Valency {
        self.query(protocol, config, group).verdict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcons_baselines::BinaryRacing;
    use swapcons_core::SwapKSet;
    use swapcons_sim::runner;

    /// Observation 12: with q0 holding input 0 and q1 holding input 1, the
    /// pair {q0, q1} is bivalent in the initial configuration.
    #[test]
    fn observation12_initial_bivalence_binary_racing() {
        let p = BinaryRacing::with_track_len(4, 10);
        // Processes 0,1 are the special pair Q; 2,3 are P.
        let c = Configuration::initial(&p, &[0, 1, 0, 1]).unwrap();
        let oracle = ValencyOracle::new(60, 60_000);
        let result = oracle.query(&p, &c, &[ProcessId(0), ProcessId(1)]);
        assert_eq!(result.verdict(), Valency::Bivalent, "{result:?}");
        // Witness schedules replay to the claimed decisions.
        for (&v, schedule) in &result.witnesses {
            let mut replay = c.clone();
            let h = runner::replay(&p, &mut replay, schedule).unwrap();
            assert!(h.decisions().iter().any(|&(_, d)| d == v));
        }
    }

    #[test]
    fn observation12_initial_bivalence_algorithm1() {
        let p = SwapKSet::consensus(3, 2);
        let c = Configuration::initial(&p, &[0, 1, 0]).unwrap();
        let oracle = ValencyOracle::new(40, 40_000);
        assert_eq!(
            oracle.valency(&p, &c, &[ProcessId(0), ProcessId(1)]),
            Valency::Bivalent
        );
    }

    #[test]
    fn univalence_after_commitment() {
        // Run p0 of Algorithm 1 solo to decision; afterwards the pair
        // {p1, p2} can only decide p0's value.
        let p = SwapKSet::consensus(3, 2);
        let mut c = Configuration::initial(&p, &[1, 0, 0]).unwrap();
        runner::solo_run(&p, &mut c, ProcessId(0), p.solo_step_bound()).unwrap();
        let oracle = ValencyOracle::new(40, 150_000);
        let result = oracle.query(&p, &c, &[ProcessId(1), ProcessId(2)]);
        // 1 must be decidable (agreement forces it); 0 must NOT appear.
        assert!(result.can_decide(1), "{result:?}");
        assert!(
            !result.can_decide(0),
            "agreement violation witnessed: {result:?}"
        );
    }

    #[test]
    fn unanimous_inputs_are_univalent() {
        let p = BinaryRacing::with_track_len(3, 10);
        let c = Configuration::initial(&p, &[1, 1, 1]).unwrap();
        let oracle = ValencyOracle::new(60, 100_000);
        let result = oracle.query(&p, &c, &[ProcessId(0), ProcessId(1)]);
        assert!(result.can_decide(1));
        assert!(!result.can_decide(0), "validity: 0 is nobody's input");
    }

    #[test]
    fn reduced_oracle_agrees_with_full_oracle() {
        // Exact-agreement half: the wait-free pairs construction has a
        // finite group-only space, so both searches are exhaustive and the
        // verdict, witness-value set, and exhaustiveness must match.
        let p = swapcons_core::pairs::PairsKSet::new(4, 2, 3);
        let c = Configuration::initial(&p, &[0, 1, 2, 1]).unwrap();
        let group = [ProcessId(0), ProcessId(1)];
        let full = ValencyOracle::new(20, 30_000).query(&p, &c, &group);
        let reduced = ValencyOracle::new(20, 30_000)
            .with_symmetry_reduction()
            .query(&p, &c, &group);
        // (Bivalent queries early-exit with `exhaustive == false` by
        // design; the space is finite and depth 20 covers it, so the
        // witness-value sets are complete either way.)
        assert_eq!(full.verdict(), reduced.verdict());
        assert_eq!(
            full.witnesses
                .keys()
                .collect::<std::collections::BTreeSet<_>>(),
            reduced
                .witnesses
                .keys()
                .collect::<std::collections::BTreeSet<_>>()
        );
        assert!(reduced.states <= full.states, "{full:?} vs {reduced:?}");

        // Bounded half: Algorithm 1's racing space is infinite, so both
        // searches are depth-truncated and their bounded regions may
        // legitimately differ with discovery order — assert only the
        // order-insensitive claims: fewer states, and every reduced
        // witness replays to a real decision.
        let p = SwapKSet::consensus(3, 2);
        let group = [ProcessId(1), ProcessId(2)];
        let mut c = Configuration::initial(&p, &[1, 0, 0]).unwrap();
        runner::solo_run(&p, &mut c, ProcessId(0), p.solo_step_bound()).unwrap();
        let full = ValencyOracle::new(40, 150_000).query(&p, &c, &group);
        let reduced = ValencyOracle::new(40, 150_000)
            .with_symmetry_reduction()
            .query(&p, &c, &group);
        assert!(reduced.states < full.states, "{full:?} vs {reduced:?}");
        assert!(reduced.can_decide(1), "agreement forces p0's value");
        assert!(!reduced.can_decide(0), "agreement violation witnessed");
        for (&v, schedule) in &reduced.witnesses {
            let mut replay = c.clone();
            let h = runner::replay(&p, &mut replay, schedule).unwrap();
            assert!(h.decisions().iter().any(|&(_, d)| d == v));
        }
    }

    #[test]
    fn reduced_oracle_preserves_bivalence_verdicts() {
        let p = BinaryRacing::with_track_len(4, 10);
        let c = Configuration::initial(&p, &[0, 1, 0, 1]).unwrap();
        let oracle = ValencyOracle::new(60, 60_000).with_symmetry_reduction();
        let result = oracle.query(&p, &c, &[ProcessId(0), ProcessId(1)]);
        assert_eq!(result.verdict(), Valency::Bivalent, "{result:?}");
    }

    #[test]
    fn exact_state_budget_is_still_exhaustive() {
        // The budget-accounting drift fix, pinned: the oracle used to
        // account at pop time (`visited.len() > max_states`), which both
        // overshot the budget and could call an exactly-budget-sized space
        // truncated. On the shared engine it uses the checker's
        // discovery-time discipline.
        let p = swapcons_sim::testing::TwoProcessSwapConsensus;
        let c = Configuration::initial(&p, &[0, 1]).unwrap();
        let group = [ProcessId(0)];
        // p0-only executions: the initial configuration and the one where
        // p0 swapped and decided — a finite, 2-state space.
        let full = ValencyOracle::new(10, 10_000).query(&p, &c, &group);
        assert!(full.exhaustive, "{full:?}");
        assert_eq!(full.verdict(), Valency::Univalent(0));
        // A budget of exactly the space size drains without skipping
        // anything: still exhaustive.
        let exact = ValencyOracle::new(10, full.states).query(&p, &c, &group);
        assert!(
            exact.exhaustive,
            "cut exactly at max_states must stay exhaustive: {exact:?}"
        );
        assert_eq!(exact.states, full.states);
        // One state fewer genuinely truncates — and the budget is actually
        // enforced (the pop-time discipline used to overshoot it).
        let under = ValencyOracle::new(10, full.states - 1).query(&p, &c, &group);
        assert!(!under.exhaustive, "{under:?}");
        assert!(under.states < full.states);
        assert_eq!(under.verdict(), Valency::Unknown);
    }

    #[test]
    fn pair_swap_stabilizer_reduces_the_oracle_space() {
        // {p1, p3} are partners in different pairs; the pair swap maps the
        // group onto itself and fixes the initial configuration, so the
        // reduced query runs with a genuine order-2 stabilizer — the
        // composed object symmetry at work (this subgroup was trivial when
        // the oracle required σ = id).
        let p = swapcons_core::pairs::PairsKSet::new(4, 2, 3);
        let c = Configuration::initial(&p, &[0, 1, 2, 1]).unwrap();
        let group = [ProcessId(1), ProcessId(3)];
        let full = ValencyOracle::new(20, 30_000).query(&p, &c, &group);
        let reduced = ValencyOracle::new(20, 30_000)
            .with_symmetry_reduction()
            .query(&p, &c, &group);
        assert_eq!(full.symmetry_group, 1);
        assert_eq!(reduced.symmetry_group, 2, "{reduced:?}");
        assert_eq!(full.verdict(), reduced.verdict());
        assert_eq!(full.verdict(), Valency::Univalent(1));
        assert!(
            reduced.states < full.states,
            "reduction factor must exceed 1: {full:?} vs {reduced:?}"
        );
    }

    #[test]
    fn track_swap_stabilizer_reduces_the_depth_bounded_oracle() {
        // Balanced inputs on the racing baseline: the renaming
        // (q0 q1)(p2 p3) with σ swapping the two values and τ swapping the
        // two tracks fixes the initial configuration and maps {q0, q1}
        // onto itself. With the depth too small for anyone to decide, both
        // searches drain the bounded region and the reduced one visits
        // about half the configurations — the Lemma 16 query shape that
        // used to degrade to the trivial group.
        let p = BinaryRacing::with_track_len(4, 10);
        let c = Configuration::initial(&p, &[0, 1, 0, 1]).unwrap();
        let group = [ProcessId(0), ProcessId(1)];
        let full = ValencyOracle::new(10, 60_000).query(&p, &c, &group);
        let reduced = ValencyOracle::new(10, 60_000)
            .with_symmetry_reduction()
            .query(&p, &c, &group);
        assert_eq!(reduced.symmetry_group, 2, "{reduced:?}");
        assert_eq!(full.verdict(), reduced.verdict());
        assert!(
            2 * reduced.states <= full.states + 8,
            "the track swap should pair almost all configurations: {full:?} vs {reduced:?}"
        );
    }

    /// Two processes, one readable swap object, and a decision rule that
    /// only fires under contention: swap your input in, then spin-read
    /// until the object holds a *foreign* value, and decide that. Solo
    /// runs never decide (each process re-reads its own swapped value
    /// forever), so every witness must come from the engine — which makes
    /// this the protocol that exercises the oracle's witness closure: the
    /// quotient search finds one of the two mirrored deciding executions,
    /// and the stabilizer renaming must recover the other.
    #[derive(Clone, Copy, Debug)]
    struct ContentionDecider;

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct CdState {
        input: u64,
        swapped: bool,
    }

    impl swapcons_sim::Protocol for ContentionDecider {
        type State = CdState;
        type Value = Option<u64>;

        fn name(&self) -> String {
            "contention decider (oracle-closure test protocol)".into()
        }

        fn task(&self) -> swapcons_sim::KSetTask {
            swapcons_sim::KSetTask::new(2, 1, 2)
        }

        fn num_objects(&self) -> usize {
            1
        }

        fn schema(&self, _obj: swapcons_sim::ObjectId) -> swapcons_objects::ObjectSchema {
            swapcons_objects::ObjectSchema::readable_swap(swapcons_objects::Domain::Unbounded)
        }

        fn initial_value(&self, _obj: swapcons_sim::ObjectId) -> Option<u64> {
            None
        }

        fn initial_state(&self, _pid: ProcessId, input: u64) -> CdState {
            CdState {
                input,
                swapped: false,
            }
        }

        fn poised(
            &self,
            state: &CdState,
        ) -> (
            swapcons_sim::ObjectId,
            swapcons_objects::ObjectOp<Option<u64>>,
        ) {
            let obj = swapcons_sim::ObjectId(0);
            if state.swapped {
                (obj, swapcons_objects::ObjectOp::read())
            } else {
                (obj, swapcons_objects::ObjectOp::swap(Some(state.input)))
            }
        }

        fn observe(
            &self,
            mut state: CdState,
            response: swapcons_objects::Response<Option<u64>>,
        ) -> swapcons_sim::Transition<CdState> {
            let value = response.expect_value("swap and read return the value");
            if !state.swapped {
                state.swapped = true;
                return swapcons_sim::Transition::Continue(state);
            }
            match value {
                Some(v) if v != state.input => swapcons_sim::Transition::Decide(v),
                _ => swapcons_sim::Transition::Continue(state),
            }
        }

        fn symmetry(&self) -> swapcons_sim::Symmetry {
            swapcons_sim::Symmetry::full_process(2).with_interchangeable_values()
        }

        fn rename_state(&self, state: &CdState, renaming: &swapcons_sim::Renaming) -> CdState {
            CdState {
                input: renaming.value(state.input),
                swapped: state.swapped,
            }
        }

        fn rename_value(
            &self,
            _obj: swapcons_sim::ObjectId,
            value: &Option<u64>,
            renaming: &swapcons_sim::Renaming,
        ) -> Option<u64> {
            value.map(|v| renaming.value(v))
        }
    }

    #[test]
    fn witness_closure_recovers_mirrored_decisions() {
        swapcons_sim::canon::assert_equivariant(&ContentionDecider, &[0, 1], 6, 8);
        let c = Configuration::initial(&ContentionDecider, &[0, 1]).unwrap();
        let group = [ProcessId(0), ProcessId(1)];
        let full = ValencyOracle::new(8, 10_000).query(&ContentionDecider, &c, &group);
        assert_eq!(full.verdict(), Valency::Bivalent, "{full:?}");
        assert!(
            full.states > 0,
            "no solo run decides, so the engine must have run: {full:?}"
        );
        let reduced = ValencyOracle::new(8, 10_000)
            .with_symmetry_reduction()
            .query(&ContentionDecider, &c, &group);
        assert_eq!(reduced.symmetry_group, 2, "{reduced:?}");
        assert_eq!(reduced.verdict(), Valency::Bivalent, "{reduced:?}");
        // Both witnesses replay from the *queried* configuration — the
        // closed-over schedule is a genuine schedule, not a renamed ghost.
        for (&v, schedule) in &reduced.witnesses {
            let mut replay = c.clone();
            let h = runner::replay(&ContentionDecider, &mut replay, schedule).unwrap();
            assert!(
                h.decisions().iter().any(|&(_, d)| d == v),
                "witness for {v} does not replay: {schedule:?}"
            );
        }
    }

    #[test]
    fn panicking_solo_fast_path_is_isolated() {
        // Every member's solo run panics: the fast path yields no witness,
        // and the search skips both panicking edges, so the query is
        // unknown and not exhaustive instead of a panic out of `query`.
        let p = swapcons_sim::testing::PanickingConsensus;
        let c = Configuration::initial(&p, &[0, 1]).unwrap();
        let result = ValencyOracle::new(10, 1_000).query(&p, &c, &[ProcessId(0), ProcessId(1)]);
        assert_eq!(result.verdict(), Valency::Unknown, "{result:?}");
        assert!(!result.exhaustive);
        assert!(result.witnesses.is_empty());
        assert_eq!(result.states, 1, "only the queried configuration");
    }

    #[test]
    fn truncated_search_reports_unknown() {
        let p = SwapKSet::consensus(3, 2);
        let c = Configuration::initial(&p, &[0, 1, 0]).unwrap();
        // Depth 1 cannot reach any decision.
        let oracle = ValencyOracle::new(1, 10);
        let result = oracle.query(&p, &c, &[ProcessId(0), ProcessId(1)]);
        assert_eq!(result.verdict(), Valency::Unknown);
        assert!(!result.exhaustive);
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Valency::Bivalent.to_string(), "bivalent");
        assert_eq!(Valency::Univalent(1).to_string(), "1-univalent");
        assert!(Valency::Unknown.to_string().contains("truncated"));
    }
}

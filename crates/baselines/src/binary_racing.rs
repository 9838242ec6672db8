//! Binary consensus from **binary readable swap objects** — the
//! Theorem 18/22 regime of Table 1 (rows 3–4).
//!
//! # Substitution note (see DESIGN.md)
//!
//! The paper cites Bowman \[7\] (TR2011-681) for an obstruction-free binary
//! consensus algorithm from `2n-1` binary registers; that technical report
//! is not openly retrievable, so we implement an original algorithm in the
//! same regime — binary historyless objects, `Θ(n)` of them — and report the
//! literature formula `2n-1` separately in the Table 1 bench.
//!
//! # The algorithm: monotone unary racing
//!
//! Shared: two *tracks* `T[0]`, `T[1]` of `L` binary readable swap objects
//! each, all initially 0. The **position** of track `v` is the index of its
//! first 0 cell. Cells are only ever swapped from 0 to 1, so positions are
//! monotone — this is what makes bounded-domain racing safe (no ABA, no
//! hidden overwrites).
//!
//! Process with preference `v` repeats:
//! 1. scan **own** track `v` (reads, in index order) → `a`;
//! 2. scan the **other** track `v̄` → `b`;
//! 3. if `a ≥ b + M` where `M = n + 2`: **decide** `v`;
//! 4. if `b > a`: adopt `v̄` as preference and restart;
//! 5. otherwise attempt to advance: `Swap(T[v][a], 1)` and restart.
//!
//! # Why the margin `M = n + 2` gives agreement
//!
//! Scanning own-track-first means that when the other-track scan observes
//! its frontier cell `b` equal to 0, there is an instant `τ` at which truly
//! `pos_v ≥ a` and `pos_{v̄} ≤ b` (monotonicity). Suppose `p` decides `v`
//! with `a ≥ b + M`. After `τ`, a process advances track `v̄` only if its
//! *own* scan showed `pos_{v̄} ≥ pos_v`; any scan of track `v` completing
//! after `τ` reports `≥ a`, which track `v̄` cannot match until it has grown
//! by `M ≥ n + 1`. Growth can therefore come only from processes whose
//! track-`v` scans predate `τ` — and each process, after one advance,
//! rescans (now post-`τ`) and is blocked. So track `v̄` gains at most `n-1`
//! cells after `τ`, never reaches `b + M ≤ pos_v`, and no process can ever
//! decide `v̄`. The model checker cross-validates this argument at small `n`.
//!
//! # Bounded laps
//!
//! Positions cannot exceed `L`; a process that needs to advance past the end
//! of a track parks in a read-only `Stuck` phase. This is the documented
//! trade-off versus Bowman's construction: our algorithm is obstruction-free
//! only while fewer than `L` total advances have occurred on a track.
//! Constructors size `L` generously (`track_len` defaults to `8(M+1)`), and
//! [`BinaryRacing::space`] — what Table 1 measures — is `2L + O(1) = Θ(n)`.

use swapcons_objects::{Domain, ObjectOp, ObjectSchema, Response};
use swapcons_sim::{
    KSetTask, ObjectClasses, ObjectId, ProcessId, Protocol, Renaming, Symmetry, Transition,
};

/// Binary consensus from `2L` binary readable swap objects (two monotone
/// unary tracks).
///
/// # Example
///
/// ```
/// use swapcons_baselines::BinaryRacing;
/// use swapcons_sim::{Configuration, ProcessId, runner};
///
/// let p = BinaryRacing::new(3);
/// let mut c = Configuration::initial(&p, &[1, 0, 1]).unwrap();
/// let out = runner::solo_run(&p, &mut c, ProcessId(0), p.solo_step_bound()).unwrap();
/// assert_eq!(out.decision, 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BinaryRacing {
    n: usize,
    track_len: usize,
}

impl BinaryRacing {
    /// An instance for `n` processes with the default track length
    /// `8(M+1)` where `M = n+2`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        let m = n + 2;
        Self::with_track_len(n, 8 * (m + 1))
    }

    /// An instance with an explicit track length (tests use short tracks to
    /// exercise the `Stuck` guard).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `track_len < margin + 1`.
    pub fn with_track_len(n: usize, track_len: usize) -> Self {
        assert!(n >= 2, "consensus needs at least two processes");
        assert!(
            track_len > n + 2,
            "track must be longer than the decision margin"
        );
        BinaryRacing { n, track_len }
    }

    /// The decision margin `M = n + 2`.
    pub fn margin(&self) -> usize {
        self.n + 2
    }

    /// Length of each track.
    pub fn track_len(&self) -> usize {
        self.track_len
    }

    /// Number of binary objects: `2L`.
    pub fn space(&self) -> usize {
        2 * self.track_len
    }

    /// Solo step bound: a solo process needs at most `M+1` advances, each
    /// preceded by two full-track scans.
    pub fn solo_step_bound(&self) -> usize {
        (self.margin() + 2) * (2 * self.track_len + 1)
    }

    fn cell(&self, track: u8, idx: usize) -> ObjectId {
        ObjectId(track as usize * self.track_len + idx)
    }
}

/// Scan/advance phase of a [`BinaryRacing`] process.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum BrPhase {
    /// Scanning own track at the given index.
    ScanMine {
        /// Cell index being read.
        idx: usize,
    },
    /// Scanning the other track; `mine` holds the completed own-track
    /// position.
    ScanOther {
        /// Cell index being read.
        idx: usize,
        /// Own track position from the preceding scan.
        mine: usize,
    },
    /// Poised to swap 1 into the own track's frontier cell.
    Advance {
        /// The frontier index to set.
        at: usize,
    },
    /// Track exhausted: park on read-only spins (bounded-lap guard).
    Stuck,
}

/// Local state of a [`BinaryRacing`] process.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BrState {
    /// Current preference (0 or 1).
    pub pref: u8,
    /// Current phase.
    pub phase: BrPhase,
}

impl Protocol for BinaryRacing {
    type State = BrState;
    type Value = u64;

    fn name(&self) -> String {
        format!(
            "binary racing: {}-process binary consensus from {} binary objects",
            self.n,
            self.space()
        )
    }

    fn task(&self) -> KSetTask {
        KSetTask::consensus(self.n)
    }

    fn num_objects(&self) -> usize {
        self.space()
    }

    fn schema(&self, _obj: ObjectId) -> ObjectSchema {
        ObjectSchema::readable_swap(Domain::BINARY)
    }

    fn initial_value(&self, _obj: ObjectId) -> u64 {
        0
    }

    fn initial_state(&self, _pid: ProcessId, input: u64) -> BrState {
        BrState {
            pref: input as u8,
            phase: BrPhase::ScanMine { idx: 0 },
        }
    }

    fn poised(&self, state: &BrState) -> (ObjectId, ObjectOp<u64>) {
        match state.phase {
            BrPhase::ScanMine { idx } => (self.cell(state.pref, idx), ObjectOp::read()),
            BrPhase::ScanOther { idx, .. } => (self.cell(1 - state.pref, idx), ObjectOp::read()),
            BrPhase::Advance { at } => (self.cell(state.pref, at), ObjectOp::swap(1)),
            BrPhase::Stuck => (self.cell(state.pref, self.track_len - 1), ObjectOp::read()),
        }
    }

    fn observe(&self, mut state: BrState, response: Response<u64>) -> Transition<BrState> {
        let bit = response.expect_value("reads and swaps return the cell value");
        match state.phase {
            BrPhase::ScanMine { idx } => {
                if bit == 1 && idx + 1 < self.track_len {
                    state.phase = BrPhase::ScanMine { idx: idx + 1 };
                } else {
                    // Frontier found (or track full).
                    let mine = if bit == 1 { idx + 1 } else { idx };
                    state.phase = BrPhase::ScanOther { idx: 0, mine };
                }
                Transition::Continue(state)
            }
            BrPhase::ScanOther { idx, mine } => {
                if bit == 1 && idx + 1 < self.track_len {
                    state.phase = BrPhase::ScanOther { idx: idx + 1, mine };
                    return Transition::Continue(state);
                }
                let other = if bit == 1 { idx + 1 } else { idx };
                if mine >= other + self.margin() {
                    return Transition::Decide(u64::from(state.pref));
                }
                if other > mine {
                    // Adopt the leader and rescan.
                    state.pref = 1 - state.pref;
                    state.phase = BrPhase::ScanMine { idx: 0 };
                } else if mine < self.track_len {
                    state.phase = BrPhase::Advance { at: mine };
                } else {
                    state.phase = BrPhase::Stuck;
                }
                Transition::Continue(state)
            }
            BrPhase::Advance { .. } => {
                // Whether we won the cell (bit == 0) or lost the race to it
                // (bit == 1), positions moved: rescan from scratch.
                state.phase = BrPhase::ScanMine { idx: 0 };
                Transition::Continue(state)
            }
            BrPhase::Stuck => {
                // Bounded-lap guard: remain parked.
                Transition::Continue(state)
            }
        }
    }

    // States carry no process id at all (pref + scan phase only), so any
    // process permutation is a symmetry with the default identity rename
    // hooks. The two *input values* are interchangeable only together with
    // the two tracks they race on: the value-coupled object class ties the
    // track swap to exactly the σ that swaps the preference values, so a
    // renaming either moves both or neither. Cell contents are structural
    // fill marks (0/1 progress bits), never input values — the default
    // identity `rename_value` is correct; only the embedded preference in
    // the local state is nominal.
    fn symmetry(&self) -> Symmetry {
        let track = |t: usize| {
            (0..self.track_len)
                .map(|i| ObjectId(t * self.track_len + i))
                .collect()
        };
        Symmetry::full_process(self.n)
            .with_interchangeable_values()
            .with_object_classes(ObjectClasses::value_coupled(
                vec![track(0), track(1)],
                vec![0, 1],
            ))
    }

    fn rename_state(&self, state: &BrState, renaming: &Renaming) -> BrState {
        BrState {
            pref: renaming.value(u64::from(state.pref)) as u8,
            phase: state.phase.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcons_sim::explore::ModelChecker;
    use swapcons_sim::runner::{self, solo_run_cloned};
    use swapcons_sim::scheduler::SeededRandom;
    use swapcons_sim::Configuration;

    #[test]
    fn space_is_2l_binary_objects() {
        let p = BinaryRacing::new(4);
        assert_eq!(p.space(), 2 * p.track_len());
        assert!(p.schemas().iter().all(|s| s.domain() == Domain::BINARY));
    }

    #[test]
    fn solo_decides_own_input() {
        for n in 2..=6 {
            let p = BinaryRacing::new(n);
            let inputs: Vec<u64> = (0..n).map(|i| (i % 2) as u64).collect();
            let config = Configuration::initial(&p, &inputs).unwrap();
            for (pid, &input) in inputs.iter().enumerate() {
                let (out, _) =
                    solo_run_cloned(&p, &config, ProcessId(pid), p.solo_step_bound()).unwrap();
                assert_eq!(out.decision, input, "n={n} pid={pid}");
            }
        }
    }

    #[test]
    fn contention_then_solo_agrees() {
        for seed in 0..25 {
            let p = BinaryRacing::new(3);
            let inputs = [0, 1, 0];
            let mut c = Configuration::initial(&p, &inputs).unwrap();
            runner::run(&p, &mut c, &mut SeededRandom::new(seed), 150).unwrap();
            for pid in c.running() {
                let out = runner::solo_run(&p, &mut c, pid, p.solo_step_bound())
                    .unwrap_or_else(|e| panic!("seed {seed} {pid}: {e}"));
                assert!(out.steps <= p.solo_step_bound());
            }
            assert_eq!(c.decided_values().len(), 1, "agreement, seed {seed}");
            assert!(p.task().check(&inputs, &c.decisions()).is_ok());
        }
    }

    #[test]
    fn unanimous_inputs_never_advance_the_other_track() {
        let p = BinaryRacing::new(3);
        let inputs = [1, 1, 1];
        let mut c = Configuration::initial(&p, &inputs).unwrap();
        for pid in 0..3 {
            runner::solo_run(&p, &mut c, ProcessId(pid), p.solo_step_bound()).unwrap();
        }
        assert_eq!(c.decided_values(), [1].into_iter().collect());
        // Track 0 cells must all still be 0.
        for i in 0..p.track_len() {
            assert_eq!(*c.value(ObjectId(i)), 0, "track-0 cell {i} was touched");
        }
    }

    #[test]
    fn cells_are_monotone() {
        // No execution may ever swap a 1 back to 0.
        let p = BinaryRacing::new(3);
        let mut c = Configuration::initial(&p, &[0, 1, 0]).unwrap();
        let mut sched = SeededRandom::new(5);
        let out = runner::run(&p, &mut c, &mut sched, 300).unwrap();
        for step in out.history.iter() {
            if let Some(&v) = matches!(step.op.kind(), swapcons_objects::OpKind::Swap)
                .then(|| step.op.payload())
                .flatten()
            {
                assert_eq!(v, 1, "only 1s are ever swapped in");
            }
        }
    }

    #[test]
    fn short_track_parks_in_stuck_instead_of_misbehaving() {
        // A deliberately tiny track: two duelling processes exhaust it.
        let p = BinaryRacing::with_track_len(2, 6);
        let inputs = [0, 1];
        let mut c = Configuration::initial(&p, &inputs).unwrap();
        // Alternate long enough to exhaust 6 cells per track.
        let mut sched = swapcons_sim::scheduler::RoundRobin::new();
        runner::run(&p, &mut c, &mut sched, 2_000).unwrap();
        // Safety must hold regardless of whether anyone decided.
        assert!(p.task().check(&inputs, &c.decisions()).is_ok());
    }

    #[test]
    fn model_check_n2_bounded() {
        let p = BinaryRacing::with_track_len(2, 8);
        let report = ModelChecker::new(30, 250_000).check_all_inputs(&p);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn symmetry_declaration_is_equivariant() {
        swapcons_sim::canon::assert_equivariant(
            &BinaryRacing::with_track_len(3, 8),
            &[1, 1, 1],
            10,
            5,
        );
        swapcons_sim::canon::assert_equivariant(
            &BinaryRacing::with_track_len(3, 8),
            &[0, 1, 0],
            10,
            5,
        );
        // Balanced inputs: the run group contains track-swapping renamings
        // (σ ≠ id coupled to τ), exercised against real executions.
        swapcons_sim::canon::assert_equivariant(
            &BinaryRacing::with_track_len(4, 8),
            &[0, 1, 0, 1],
            10,
            5,
        );
    }

    #[test]
    fn track_swap_composes_into_the_run_group() {
        // [0, 1] admits exactly one non-identity renaming: π = (p0 p1)
        // with σ = (0 1), which the value-coupled class forces to swap the
        // two tracks. Before object symmetry this group was trivial.
        let p = BinaryRacing::with_track_len(2, 8);
        let canon = swapcons_sim::Canonicalizer::for_inputs(&p, &[0, 1]);
        assert_eq!(canon.group_order(), 2);
        let g = &canon.renamings()[0];
        assert!(!g.is_value_identity());
        assert!(!g.is_object_identity());
        // Cell i of track 0 maps to cell i of track 1 and vice versa.
        assert_eq!(g.object(ObjectId(0)), ObjectId(p.track_len()));
        assert_eq!(g.object(ObjectId(p.track_len())), ObjectId(0));
        // Balanced n=4: any π mapping the 0-holders onto the 1-holders (or
        // preserving both) works — |S2 × S2| · 2 = 8.
        let p4 = BinaryRacing::with_track_len(4, 8);
        assert_eq!(
            swapcons_sim::Canonicalizer::for_inputs(&p4, &[0, 1, 0, 1]).group_order(),
            8
        );
    }

    #[test]
    fn track_swap_orbit_count_hand_computed() {
        // Depth 1 from [0, 1]: the initial configuration plus one child per
        // process, each having read cell 0 of its own (still empty) track.
        // The track swap maps the p0-child onto the p1-child: 3 full
        // states, 2 orbits.
        let p = BinaryRacing::with_track_len(2, 8);
        let full = ModelChecker::new(1, 1_000).check(&p, &[0, 1]);
        let reduced = ModelChecker::new(1, 1_000)
            .with_symmetry_reduction()
            .check(&p, &[0, 1]);
        assert_eq!(full.states, 3, "{full}");
        assert_eq!(reduced.states, 2, "{reduced}");
        assert_eq!(reduced.symmetry_group, 2);
        assert!(full.same_verdict(&reduced));
    }

    #[test]
    fn track_swap_halves_distinct_input_checks() {
        // The headline reduction: [0, 1] used to have a trivial group (no
        // value symmetry without the track coupling); now every
        // configuration pairs up with its mirrored twin except the rare
        // self-symmetric ones.
        let p = BinaryRacing::with_track_len(2, 8);
        let full = ModelChecker::new(16, 250_000).check(&p, &[0, 1]);
        let reduced = ModelChecker::new(16, 250_000)
            .with_symmetry_reduction()
            .check(&p, &[0, 1]);
        assert!(full.same_verdict(&reduced), "{full} vs {reduced}");
        assert_eq!(reduced.symmetry_group, 2);
        assert!(
            reduced.states * 19 <= full.states * 10,
            "track swap must collapse ~half the states: {full} vs {reduced}"
        );
    }

    #[test]
    fn reduced_model_check_matches_full() {
        let p = BinaryRacing::with_track_len(3, 8);
        let full = ModelChecker::new(12, 250_000).check(&p, &[1, 1, 1]);
        let reduced = ModelChecker::new(12, 250_000)
            .with_symmetry_reduction()
            .check(&p, &[1, 1, 1]);
        assert!(full.same_verdict(&reduced), "{full} vs {reduced}");
        assert_eq!(reduced.symmetry_group, 6, "unanimous inputs admit S3");
        assert!(reduced.states * 3 <= full.states, "{full} vs {reduced}");
    }

    #[test]
    fn model_check_n3_bounded() {
        let p = BinaryRacing::with_track_len(3, 8);
        let report = ModelChecker::new(16, 250_000).check(&p, &[0, 1, 1]);
        assert!(report.passed(), "{report}");
    }
}

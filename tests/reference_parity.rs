//! The engine held to an explorer that shares none of its machinery.
//!
//! `swapcons_sim::testing::reference` searches fully materialized
//! configurations in a std `HashSet`, in the engine's candidate and pop
//! order, so an exact model-checker run must report exactly its state and
//! terminal counts — on depth-bounded searches too, where the count depends
//! on which path discovers a state first. The pinned counts keep the two
//! from drifting together. (The reduced runs are held to the orbit count of
//! the reference set in `canon_soundness.rs`.)

use swapcons::baselines::BinaryRacing;
use swapcons::core::pairs::PairsKSet;
use swapcons::core::{OneBitSwapConsensus, SwapKSet};
use swapcons::sim::explore::ModelChecker;
use swapcons::sim::testing::reference;
use swapcons::sim::Protocol;

const CAP: usize = 1 << 20;

/// The exact checker's `(states, terminal states)` on `p` from `inputs`
/// equal the reference's, and the reference reaches `pinned` states.
fn check<P: Protocol>(p: &P, inputs: &[u64], depth: usize, f: usize, pinned: usize) {
    let case = format!("{} from {inputs:?}, depth {depth}, f = {f}", p.name());
    let reached = reference::explore(p, inputs, depth, f, CAP);
    let report = ModelChecker::new(depth, CAP)
        .with_max_failures(f)
        .check(p, inputs);
    assert!(report.violation.is_none(), "{case}: {report}");
    assert_eq!(
        (report.states, report.terminal_states),
        (reached.states.len(), reached.terminal.len()),
        "{case}"
    );
    assert_eq!(reached.states.len(), pinned, "{case}");
}

#[test]
fn complete_exact_runs_match_the_reference() {
    let racing = BinaryRacing::with_track_len(2, 5);
    check(&racing, &[0, 1], usize::MAX, 0, 5_514);
    check(&racing, &[0, 1], usize::MAX, 1, 6_446);
    check(&SwapKSet::new(3, 2, 2), &[1, 1, 1], usize::MAX, 1, 229);
    let pairs = PairsKSet::new(4, 2, 3);
    check(&pairs, &[0, 1, 0, 1], usize::MAX, 0, 25);
    check(&pairs, &[0, 1, 0, 1], usize::MAX, 1, 65);
    // Test-and-set bits and max registers under the derived one-bit swaps.
    let onebit = OneBitSwapConsensus.derived();
    check(&onebit, &[0, 1], usize::MAX, 0, 43);
    check(&onebit, &[0, 1], usize::MAX, 1, 81);
}

#[test]
fn depth_bounded_exact_runs_match_the_reference() {
    let alg1 = SwapKSet::consensus(3, 2);
    check(&alg1, &[0, 1, 1], 14, 0, 6_376);
    check(&alg1, &[0, 1, 1], 9, 1, 2_453);
    check(&BinaryRacing::with_track_len(2, 8), &[0, 1], 24, 1, 1_152);
    check(&OneBitSwapConsensus.derived(), &[1, 0], 6, 1, 47);
}

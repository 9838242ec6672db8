//! Differential test of the checker's solo-termination shortcuts.
//!
//! With the memo on (the default), [`ModelChecker`] answers a solo check
//! without a solo run in two ways: from the memo of (local state, object
//! vector) pairs known to decide, and by inheriting the verdict of the
//! process whose step discovered the node. `without_solo_memo()` is the
//! naive reference: every check runs a solo run. Both must produce the
//! same report — the same search, the same number of solo checks and the
//! same first violation with the same witness — at the protocol's solo
//! bound and at the largest failing budget, whose witnesses are the
//! deepest.

use std::fmt::Debug;

use swapcons::baselines::BinaryRacing;
use swapcons::core::pairs::PairsKSet;
use swapcons::core::SwapKSet;
use swapcons::sim::explore::{CheckReport, ModelChecker};
use swapcons::sim::testing::TwoProcessSwapConsensus;
use swapcons::sim::Protocol;

/// Check `inputs` with the memo on and off; the reports must agree.
fn assert_parity<P: Protocol + Debug>(
    protocol: &P,
    inputs: &[u64],
    checker: ModelChecker,
) -> CheckReport {
    let memo = checker.check(protocol, inputs);
    let naive = checker.without_solo_memo().check(protocol, inputs);
    assert!(
        memo.same_search(&naive),
        "{protocol:?} {inputs:?} {checker:?}: memo {memo:?} vs naive {naive:?}"
    );
    assert!(memo.solo_memo_hits <= memo.solo_checks, "{memo:?}");
    assert_eq!(naive.solo_memo_hits, 0);
    memo
}

/// The largest solo budget up to `bound` under which `checker` fails, by
/// bisection. Passing is monotone in the budget: a run deciding within `b`
/// steps decides within `b + 1`.
fn largest_failing<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    checker: ModelChecker,
    bound: usize,
) -> usize {
    let passes = |b| checker.with_solo_budget(b).check(protocol, inputs).passed();
    assert!(!passes(0), "budget 0 must fail");
    if !passes(bound) {
        return bound;
    }
    let (mut lo, mut hi) = (0, bound);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if passes(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

/// Full and reduced, `f = 0` and `f = 1`: memo/naive parity at the
/// protocol's solo bound (which passes iff `bound_passes`) and at the
/// largest failing budget up to it.
fn sweep<P: Protocol + Debug>(
    protocol: &P,
    inputs: &[u64],
    depth: usize,
    bound: usize,
    bound_passes: bool,
) {
    for reduced in [false, true] {
        for f in [0, 1] {
            let mut checker = ModelChecker::new(depth, 200_000).with_max_failures(f);
            if reduced {
                checker = checker.with_symmetry_reduction();
            }
            let at_bound = assert_parity(protocol, inputs, checker.with_solo_budget(bound));
            assert_eq!(at_bound.passed(), bound_passes, "{at_bound}");
            assert!(at_bound.solo_checks > 0, "{at_bound:?}");
            let fail = largest_failing(protocol, inputs, checker, bound);
            let failed = assert_parity(protocol, inputs, checker.with_solo_budget(fail));
            assert!(failed.violation.is_some(), "{failed}");
        }
    }
}

#[test]
fn algorithm1_n3_depth_bounded() {
    let p = SwapKSet::consensus(3, 2);
    sweep(&p, &[0, 1, 1], 10, p.solo_step_bound(), true);
}

#[test]
fn binary_racing_two_processes() {
    // A track of 5 cells is shorter than a solo run can need: a process
    // that must advance past its end parks forever, by design, so even the
    // protocol's own bound fails.
    let p = BinaryRacing::with_track_len(2, 5);
    sweep(&p, &[0, 1], usize::MAX, p.solo_step_bound(), false);
}

#[test]
fn two_process_swap_consensus() {
    sweep(&TwoProcessSwapConsensus, &[0, 1], usize::MAX, 1, true);
}

#[test]
fn pairs_kset() {
    sweep(&PairsKSet::new(4, 2, 3), &[0, 1, 2, 1], usize::MAX, 1, true);
}

/// A resumed run continues an image whose nodes another run entered —
/// here one with no solo budget at all, so no check ever passed at them.
/// Resuming with failing budgets from 0 (every check fails) to the
/// largest, the memo and the naive reference must still agree: verdicts
/// are inherited only at nodes the resumed run discovered itself.
fn resume_sweep<P: Protocol + Debug>(protocol: &P, inputs: &[u64], depth: usize, bound: usize) {
    let plain = ModelChecker::new(depth, 200_000);
    let failing = largest_failing(protocol, inputs, plain, bound);
    let mut resumed = 0;
    for pause in 1..=40 {
        let (_, Some(image)) = plain.check_paused(protocol, inputs, pause) else {
            continue;
        };
        let budgets = (0..failing).filter(|b| b.count_ones() <= 1);
        for budget in budgets.chain([failing]) {
            let checker = plain.with_solo_budget(budget);
            let memo = checker.resume(protocol, inputs, &image).unwrap();
            let naive = checker
                .without_solo_memo()
                .resume(protocol, inputs, &image)
                .unwrap();
            assert!(
                memo.same_search(&naive),
                "{protocol:?} paused after {pause}, budget {budget}: memo {memo:?} vs naive {naive:?}"
            );
            resumed += 1;
        }
    }
    assert!(resumed > 0, "no pause point left work to resume");
}

#[test]
fn resumed_runs_inherit_only_at_their_own_nodes() {
    let p = SwapKSet::consensus(3, 2);
    resume_sweep(&p, &[0, 1, 1], 10, p.solo_step_bound());
    let p = BinaryRacing::with_track_len(2, 5);
    resume_sweep(&p, &[0, 1], usize::MAX, p.solo_step_bound());
}

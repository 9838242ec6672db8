//! Property-based tests (proptest) on the workspace's core invariants:
//! lap-counter algebra, simulator determinism/replay, schedule-independent
//! safety, and Lemma 9 completeness over random parameters.

use proptest::prelude::*;
use swapcons::core::lap::LapVec;
use swapcons::core::SwapKSet;
use swapcons::lower::lemma9;
use swapcons::sim::scheduler::SeededRandom;
use swapcons::sim::{runner, Configuration, ProcessId, Protocol};

fn lapvec_strategy(m: usize) -> impl Strategy<Value = LapVec> {
    proptest::collection::vec(0u64..12, m).prop_map(|laps| {
        let mut v = LapVec::zeros(laps.len());
        for (i, x) in laps.into_iter().enumerate() {
            v.set(i, x);
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Domination is a partial order and merge_max is its join.
    #[test]
    fn lap_merge_is_least_upper_bound(a in lapvec_strategy(4), b in lapvec_strategy(4)) {
        let mut j = a.clone();
        j.merge_max(&b);
        // Upper bound.
        prop_assert!(a.dominated_by(&j));
        prop_assert!(b.dominated_by(&j));
        // Least: any common upper bound dominates the join.
        let mut ub = a.clone();
        ub.merge_max(&b);
        for i in 0..4 {
            prop_assert_eq!(j.get(i), a.get(i).max(b.get(i)));
        }
        let _ = ub;
        // Idempotent, commutative.
        let mut j2 = b.clone();
        j2.merge_max(&a);
        prop_assert_eq!(j.clone(), j2);
        let mut j3 = j.clone();
        j3.merge_max(&j);
        prop_assert_eq!(j3, j);
    }

    /// leads_by(v, 2) implies v is the unique leader.
    #[test]
    fn two_lap_lead_implies_unique_leader(u in lapvec_strategy(5)) {
        for v in 0..5usize {
            if u.leads_by(v, 2) {
                let (leader, _) = u.leader();
                prop_assert_eq!(leader as usize, v);
                prop_assert!(u.leads_by(v, 1));
            }
        }
    }

    /// The simulator is deterministic: the same schedule replayed from the
    /// same inputs yields identical histories and decisions.
    #[test]
    fn simulator_replay_determinism(
        seed in 0u64..5000,
        n in 2usize..6,
        steps in 1usize..60,
    ) {
        let p = SwapKSet::consensus(n, 2);
        let inputs: Vec<u64> = (0..n).map(|i| (i % 2) as u64).collect();
        let run_once = || {
            let mut c = Configuration::initial(&p, &inputs).unwrap();
            let mut s = SeededRandom::new(seed);
            let out = runner::run(&p, &mut c, &mut s, steps).unwrap();
            (out.history, c.decisions(), fxhash::hash64(&c))
        };
        let (h1, d1, f1) = run_once();
        let (h2, d2, f2) = run_once();
        prop_assert_eq!(h1.len(), h2.len());
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(f1, f2);
    }

    /// Safety of Algorithm 1 under arbitrary random schedules + solo
    /// finishes, across random (n, k) and inputs.
    #[test]
    fn algorithm1_safety_random_instances(
        seed in 0u64..2000,
        n in 2usize..7,
        k_off in 0usize..3,
    ) {
        let k = 1 + k_off.min(n - 2);
        let m = (k + 1) as u64;
        let p = SwapKSet::new(n, k, m);
        let inputs: Vec<u64> = (0..n).map(|i| (i as u64) % m).collect();
        let mut c = Configuration::initial(&p, &inputs).unwrap();
        runner::run(&p, &mut c, &mut SeededRandom::new(seed), 12 * n).unwrap();
        for pid in c.running() {
            let out = runner::solo_run(&p, &mut c, pid, p.solo_step_bound()).unwrap();
            // Lemma 8, as a property.
            prop_assert!(out.steps <= p.solo_step_bound());
        }
        prop_assert!(p.task().check(&inputs, &c.decisions()).is_ok());
    }

    /// Lemma 9 forces exactly n-1 distinct objects for every n — the
    /// adversary's completeness as a property.
    #[test]
    fn lemma9_completeness(n in 2usize..12) {
        let p = SwapKSet::consensus(n, 2);
        let report = lemma9::theorem10_consensus_witness(&p, p.solo_step_bound()).unwrap();
        prop_assert_eq!(report.forced_objects.len(), n - 1);
        let distinct: std::collections::HashSet<_> =
            report.forced_objects.iter().collect();
        prop_assert_eq!(distinct.len(), n - 1);
    }

    /// Indistinguishability: two initial configurations differing only in
    /// one process's input are indistinguishable to all other processes.
    #[test]
    fn initial_indistinguishability(n in 2usize..7, flip in 0usize..7) {
        let flip = flip % n;
        let p = SwapKSet::consensus(n, 2);
        let a_inputs: Vec<u64> = vec![0; n];
        let mut b_inputs = a_inputs.clone();
        b_inputs[flip] = 1;
        let a = Configuration::initial(&p, &a_inputs).unwrap();
        let b = Configuration::initial(&p, &b_inputs).unwrap();
        let others: Vec<ProcessId> =
            (0..n).filter(|&i| i != flip).map(ProcessId).collect();
        prop_assert!(a.indistinguishable_to(&b, &others));
        prop_assert!(!a.indistinguishable_to(&b, &[ProcessId(flip)]));
    }
}

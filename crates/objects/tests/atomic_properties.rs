//! Property-based tests for the objects crate: historyless semantics, the
//! historyless simulations, and the atomic objects under concurrency.

// Free-running std threads drive these tests; under `--cfg conc_check` the
// atomic objects route through the model-only conc shims, so this target is
// compiled out (the exhaustive conc suites cover the same layer there).
#![cfg(not(conc_check))]

use proptest::prelude::*;
use swapcons_objects::atomic::{AtomicSwap, AtomicWordSwap};
use swapcons_objects::cell::{ReadableSwapCell, SwapCell};
use swapcons_objects::historyless::{
    FetchAndStoreOp, FetchAndStoreSpec, SimulatedHistoryless, TasOp, TestAndSetSpec,
};
use swapcons_objects::{Domain, HistorylessOp};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The historyless property: after any op sequence, the value equals
    /// the payload of the last nontrivial op (or the initial value).
    #[test]
    fn value_is_last_nontrivial_op(
        initial in 0u64..100,
        ops in proptest::collection::vec(
            prop_oneof![
                Just(HistorylessOp::Read),
                (0u64..100).prop_map(HistorylessOp::Write),
                (0u64..100).prop_map(HistorylessOp::Swap),
            ],
            0..40,
        )
    ) {
        let mut cell = ReadableSwapCell::new(initial);
        let mut expected = initial;
        for op in &ops {
            cell.apply(op);
            if let Some(v) = op.payload() {
                expected = *v;
            }
        }
        prop_assert_eq!(cell.read(), expected);
    }

    /// Swap responses chain: each swap returns the previous swap's payload.
    #[test]
    fn swap_responses_chain(initial in 0u64..100, payloads in proptest::collection::vec(0u64..100, 1..40)) {
        let mut cell = SwapCell::new(initial);
        let mut prev = initial;
        for &p in &payloads {
            prop_assert_eq!(cell.swap(p), prev);
            prev = p;
        }
    }

    /// The [14] simulation: a simulated swap object is indistinguishable
    /// from a direct one under any op sequence.
    #[test]
    fn simulation_equivalence_fetch_and_store(ops in proptest::collection::vec(0u64..50, 0..40)) {
        let mut direct = SwapCell::new(7u64);
        let mut simulated = SimulatedHistoryless::new(FetchAndStoreSpec, 7u64);
        for &v in &ops {
            prop_assert_eq!(simulated.apply(&FetchAndStoreOp(v)), direct.swap(v));
        }
    }

    /// The simulated TAS: exactly the first TestAndSet wins, regardless of
    /// interleaved reads.
    #[test]
    fn simulated_tas_single_winner(reads_before in 0usize..5, attempts in 1usize..6) {
        let mut tas = SimulatedHistoryless::new(TestAndSetSpec, false);
        for _ in 0..reads_before {
            prop_assert!(tas.apply(&TasOp::Read), "unset reads report winnable");
        }
        let mut wins = 0;
        for _ in 0..attempts {
            if tas.apply(&TasOp::TestAndSet) {
                wins += 1;
            }
        }
        prop_assert_eq!(wins, 1);
    }
}

/// Concurrency property (not proptest-driven — real threads): the word swap
/// object linearizes: the multiset {initial} ∪ {swapped-in values} equals
/// {returned values} ∪ {final value}.
#[test]
fn word_swap_conservation_under_threads() {
    use std::sync::Arc;
    const THREADS: u64 = 6;
    const OPS: u64 = 2000;
    let obj = Arc::new(AtomicWordSwap::new(0, Domain::Unbounded));
    let mut handles = Vec::new();
    for t in 1..=THREADS {
        let obj = Arc::clone(&obj);
        handles.push(std::thread::spawn(move || {
            let mut returned = Vec::with_capacity(OPS as usize);
            for i in 0..OPS {
                returned.push(obj.swap(t * 1_000_000 + i));
            }
            returned
        }));
    }
    let mut returned: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    returned.push(obj.read());
    returned.sort_unstable();
    let mut injected: Vec<u64> = (1..=THREADS)
        .flat_map(|t| (0..OPS).map(move |i| t * 1_000_000 + i))
        .collect();
    injected.push(0);
    injected.sort_unstable();
    assert_eq!(
        returned, injected,
        "value conservation through atomic swaps"
    );
}

/// AtomicSwap with droppable values: no leaks/double frees across heavy
/// churn (exercised under the default allocator).
#[test]
fn atomic_swap_string_churn() {
    use std::sync::Arc;
    let obj = Arc::new(AtomicSwap::new(String::from("init")));
    let mut handles = Vec::new();
    for t in 0..4 {
        let obj = Arc::clone(&obj);
        handles.push(std::thread::spawn(move || {
            for i in 0..2000 {
                let _old = obj.swap(format!("t{t}-{i}"));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let last = match Arc::try_unwrap(obj) {
        Ok(o) => o.into_inner(),
        Err(_) => unreachable!("all threads joined"),
    };
    assert!(last == "init" || last.contains('-'));
}

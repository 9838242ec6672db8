//! Canonicalization soundness, cross-crate: symmetry-reduced search must
//! reach exactly the verdicts of full search, on permuted-pid *and*
//! permuted-value instances, for the model checker and the valency oracle
//! alike. (The hand-computable orbit-counting unit test lives next to the
//! checker in `swapcons-sim/src/explore.rs`; these are the property-based
//! whole-zoo versions.)

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use swapcons::baselines::{BinaryRacing, CommitAdoptConsensus, ReadableRacing, RegisterKSet};
use swapcons::core::hierarchy::TasConsensus;
use swapcons::core::pairs::PairsKSet;
use swapcons::core::SwapKSet;
use swapcons::lower::ValencyOracle;
use swapcons::sim::canon::{apply_renaming, CanonicalVisitedSet, DedupSet};
use swapcons::sim::explore::ModelChecker;
use swapcons::sim::scheduler::SeededRandom;
use swapcons::sim::testing::{SelfishConsensus, TwoProcessSwapConsensus};
use swapcons::sim::{runner, Canonicalizer, Configuration, ProcessId, Protocol};

/// Asserts the pruned stabilizer-chain minimal-image key equals the
/// test-only full-|G| enumeration key on every configuration along a
/// seeded random execution of `p` from `inputs`.
fn chain_matches_scan<P: Protocol>(
    p: &P,
    inputs: &[u64],
    seed: u64,
    steps: usize,
) -> Result<(), TestCaseError> {
    let vs: CanonicalVisitedSet<P> = CanonicalVisitedSet::new(Canonicalizer::for_inputs(p, inputs));
    let mut config = Configuration::initial(p, inputs).unwrap();
    let mut sched = SeededRandom::new(seed);
    prop_assert_eq!(
        vs.orbit_key_pruned(p, &config),
        vs.orbit_key_unpruned(p, &config),
        "initial config of {}",
        p.name()
    );
    for _ in 0..steps {
        if runner::run(p, &mut config, &mut sched, 1).unwrap().steps == 0 {
            break; // execution over: everyone decided
        }
        prop_assert_eq!(
            vs.orbit_key_pruned(p, &config),
            vs.orbit_key_unpruned(p, &config),
            "reached config of {}",
            p.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PR 9 tentpole parity: the pruned stabilizer-chain search and the old
    /// full-group scan (kept behind the test-only `orbit_key_unpruned`
    /// path) compute the same orbit-minimal image key, on random reachable
    /// states, across every protocol in the zoo's declared group — the two
    /// paper algorithms, the four baselines, the hierarchy witness, and
    /// both self-test protocols (including an over-cap declaration, so the
    /// degraded prefix subgroup is covered too).
    #[test]
    fn chain_minimal_image_matches_full_scan(
        seed in 0u64..500, steps in 0usize..10, a in 0u64..2, b in 0u64..2, c in 0u64..2
    ) {
        chain_matches_scan(&SwapKSet::consensus(3, 2), &[a, b, c], seed, steps)?;
        chain_matches_scan(&PairsKSet::new(4, 2, 3), &[a + b, c, a, b + c], seed, steps)?;
        chain_matches_scan(&TasConsensus, &[a + 3, b + 9], seed, steps)?;
        chain_matches_scan(&BinaryRacing::with_track_len(3, 8), &[a, b, c], seed, steps)?;
        chain_matches_scan(&CommitAdoptConsensus::new(3, 3), &[a + c, b, a], seed, steps)?;
        chain_matches_scan(&ReadableRacing::new(3, 2), &[a, b, c], seed, steps)?;
        chain_matches_scan(&RegisterKSet::new(3, 2, 2), &[a, b, c], seed, steps)?;
        chain_matches_scan(&TwoProcessSwapConsensus, &[a + 4, b + 11], seed, steps)?;
        chain_matches_scan(&SelfishConsensus { n: 8 }, &[a, b, c, a, b, c, a, b], seed, steps)?;

        // Oracle-style retained stabilizer subgroups (the valency query
        // path) keep the parity too: the chain search never assumed the
        // full input-stabilizer group.
        let p = PairsKSet::new(4, 2, 3);
        let inputs = [a, b + 1, c + 1, a + b];
        let mut config = Configuration::initial(&p, &inputs).unwrap();
        runner::run(&p, &mut config, &mut SeededRandom::new(seed), steps).unwrap();
        let mut canon = Canonicalizer::for_inputs(&p, &inputs);
        let group = [ProcessId(0), ProcessId(1)];
        canon.retain(|g| g.stabilizes(&group));
        let vs: CanonicalVisitedSet<PairsKSet> = CanonicalVisitedSet::new(canon);
        prop_assert_eq!(vs.orbit_key_pruned(&p, &config), vs.orbit_key_unpruned(&p, &config));
    }

    /// Reduced and full model checks of Algorithm 1 reach the same verdict
    /// on every input vector, never exploring more states.
    #[test]
    fn alg1_reduced_check_matches_full(a in 0u64..2, b in 0u64..2, c in 0u64..2) {
        let p = SwapKSet::consensus(3, 2);
        let checker = ModelChecker::new(10, 100_000);
        let full = checker.check(&p, &[a, b, c]);
        let reduced = checker.with_symmetry_reduction().check(&p, &[a, b, c]);
        prop_assert!(full.same_verdict(&reduced), "{} vs {}", full, reduced);
        prop_assert!(reduced.states <= full.states);
    }

    /// Process-permuted runs of a process-symmetric protocol reach the same
    /// verdicts, reduced or not. (The reduced `check_all_inputs`
    /// grid-skipping relies on exactly this.) State counts are compared
    /// only for exhaustive searches: under a depth cutoff the bounded
    /// region legitimately depends on discovery order — the PR 2 artifact —
    /// so Algorithm 1's infinite space checks verdicts, and the wait-free
    /// TwoProcessSwapConsensus (finite space) checks exact isomorphism.
    #[test]
    fn permuted_pid_runs_are_isomorphic(a in 0u64..2, b in 0u64..2, c in 0u64..2) {
        let p = SwapKSet::consensus(3, 2);
        let checker = ModelChecker::new(10, 100_000).with_solo_budget(p.solo_step_bound());
        let base = checker.check(&p, &[a, b, c]);
        for permuted in [[b, a, c], [c, b, a], [a, c, b]] {
            let other = checker.check(&p, &permuted);
            prop_assert!(base.same_verdict(&other));
        }
        let reduced = checker.with_symmetry_reduction().check(&p, &[a, b, c]);
        let reduced_perm = checker.with_symmetry_reduction().check(&p, &[b, a, c]);
        prop_assert!(reduced.same_verdict(&reduced_perm));
        // Exhaustive instance: permuted runs are exactly isomorphic.
        let p = TwoProcessSwapConsensus;
        let checker = ModelChecker::new(10, 10_000);
        let fwd = checker.check(&p, &[a, b]);
        let rev = checker.check(&p, &[b, a]);
        prop_assert!(fwd.complete && rev.complete);
        prop_assert_eq!(fwd.states, rev.states);
        prop_assert!(fwd.same_verdict(&rev));
    }

    /// Value-permuted runs of a value-oblivious protocol are isomorphic —
    /// the cross-run face of value symmetry (within-run renamings cannot
    /// test it, since they must stabilize the input vector).
    #[test]
    fn permuted_value_runs_are_isomorphic(a in 0u64..16, b in 0u64..16, offset in 1u64..16) {
        let p = TwoProcessSwapConsensus;
        let checker = ModelChecker::new(10, 10_000);
        let base = checker.check(&p, &[a, b]);
        // Shift both inputs by a value permutation (mod-16 rotation).
        let shifted = [(a + offset) % 16, (b + offset) % 16];
        let other = checker.check(&p, &shifted);
        prop_assert!(base.same_verdict(&other));
        prop_assert_eq!(base.states, other.states);
        // Commit-adopt: value-oblivious over m = 3.
        let p = CommitAdoptConsensus::new(2, 3);
        let checker = ModelChecker::new(10, 100_000);
        let base = checker.check(&p, &[a % 3, b % 3]);
        let rotated = checker.check(&p, &[(a + 1) % 3, (b + 1) % 3]);
        prop_assert!(base.same_verdict(&rotated));
        prop_assert_eq!(base.states, rotated.states);
    }

    /// The valency oracle under reduction, from arbitrary reachable
    /// configurations. On a *finite* group-only space (the wait-free pairs
    /// construction) both searches are exhaustive and must agree exactly —
    /// verdict, witness-value set, and exhaustiveness. On Algorithm 1's
    /// *infinite* racing space both are depth-truncated, and the bounded
    /// regions legitimately diverge with discovery order (the EXPERIMENTS
    /// PR 2/PR 3 artifact), so only order-insensitive claims are asserted:
    /// no extra states, found witnesses replay, exact agreement whenever
    /// both searches happen to be exhaustive.
    #[test]
    fn valency_oracle_reduced_matches_full(seed in 0u64..200, contention in 0usize..12) {
        // Finite space: exact agreement, unconditionally.
        let p = PairsKSet::new(4, 2, 3);
        let mut config = Configuration::initial(&p, &[0, 1, 2, 1]).unwrap();
        runner::run(&p, &mut config, &mut SeededRandom::new(seed), contention % 4).unwrap();
        let group = [ProcessId(0), ProcessId(1)];
        let full = ValencyOracle::new(16, 30_000).query(&p, &config, &group);
        let reduced = ValencyOracle::new(16, 30_000)
            .with_symmetry_reduction()
            .query(&p, &config, &group);
        // (No exhaustiveness assertion: a bivalent query early-exits with
        // `exhaustive == false` by design. The space is finite and depth 16
        // covers it, so any non-early-exited search IS exhaustive and the
        // full witness-value set is found either way.)
        prop_assert_eq!(full.verdict(), reduced.verdict());
        let keys = |r: &swapcons::lower::valency::ValencyResult| {
            r.witnesses.keys().copied().collect::<std::collections::BTreeSet<u64>>()
        };
        prop_assert_eq!(keys(&full), keys(&reduced));
        prop_assert!(reduced.states <= full.states);

        // Infinite space: truncated searches, order-insensitive claims only.
        let p = SwapKSet::consensus(3, 2);
        let mut config = Configuration::initial(&p, &[0, 1, 1]).unwrap();
        runner::run(&p, &mut config, &mut SeededRandom::new(seed), contention).unwrap();
        let group = [ProcessId(1), ProcessId(2)];
        let full = ValencyOracle::new(16, 30_000).query(&p, &config, &group);
        let reduced = ValencyOracle::new(16, 30_000)
            .with_symmetry_reduction()
            .query(&p, &config, &group);
        prop_assert!(reduced.states <= full.states);
        if full.exhaustive && reduced.exhaustive {
            prop_assert_eq!(full.verdict(), reduced.verdict());
            prop_assert_eq!(keys(&full), keys(&reduced));
        }
        for (&v, schedule) in &reduced.witnesses {
            let mut replay = config.clone();
            let h = runner::replay(&p, &mut replay, schedule).unwrap();
            prop_assert!(h.decisions().iter().any(|&(_, d)| d == v));
        }
    }

    /// Binary racing under reduction: same verdicts across the n=2 input
    /// grid. Since the value-coupled track class landed, the two input
    /// values ARE interchangeable — but only together with the track swap
    /// the coupling forces, so every input vector (not just the unanimous
    /// ones) now runs with a nontrivial group.
    #[test]
    fn binary_racing_reduced_check_matches_full(a in 0u64..2, b in 0u64..2) {
        let p = BinaryRacing::with_track_len(2, 8);
        let checker = ModelChecker::new(14, 100_000);
        let full = checker.check(&p, &[a, b]);
        let reduced = checker.with_symmetry_reduction().check(&p, &[a, b]);
        prop_assert!(full.same_verdict(&reduced), "{} vs {}", full, reduced);
        prop_assert!(reduced.states <= full.states);
        prop_assert_eq!(reduced.symmetry_group, 2, "{}", reduced);
    }

    /// Object-permuted runs are isomorphic. Mirroring a `BinaryRacing`
    /// instance (flip every input; the coupled renaming flips preferences
    /// and swaps the two tracks, with π = id so even the DFS traversal
    /// order is preserved) and pair-swapping a `PairsKSet` instance (finite
    /// space, so exhaustive either way) both rename executions one-to-one:
    /// full checks must reach identical verdicts and state counts.
    #[test]
    fn object_permuted_runs_are_isomorphic(a in 0u64..2, b in 0u64..2, c in 0u64..2) {
        let p = BinaryRacing::with_track_len(3, 8);
        let checker = ModelChecker::new(12, 100_000);
        let base = checker.check(&p, &[a, b, c]);
        let mirrored = checker.check(&p, &[1 - a, 1 - b, 1 - c]);
        prop_assert!(base.same_verdict(&mirrored), "{} vs {}", base, mirrored);
        prop_assert_eq!(base.states, mirrored.states);
        // Pair swap: pair (p0,p1) trades places with pair (p2,p3), object
        // and all.
        let p = PairsKSet::new(4, 2, 3);
        let inputs = [a, b, c, (a + b) % 3];
        let swapped = [c, (a + b) % 3, a, b];
        let checker = ModelChecker::new(10, 100_000).with_solo_budget(1);
        let base = checker.check(&p, &inputs);
        let other = checker.check(&p, &swapped);
        prop_assert!(base.complete && other.complete);
        prop_assert!(base.same_verdict(&other), "{} vs {}", base, other);
        prop_assert_eq!(base.states, other.states);
    }

    /// The oracle's composed stabilizer, from arbitrary reachable
    /// configurations: whatever contention prefix ran, the reduced query
    /// must reach the full query's verdict and witness-value set (the
    /// stabilizer adapts per configuration — symmetric roots get the track
    /// swap, asymmetric ones degrade toward trivial, both soundly).
    #[test]
    fn oracle_stabilizer_matches_full_from_reachable_configs(
        seed in 0u64..100, contention in 0usize..10
    ) {
        let p = BinaryRacing::with_track_len(4, 10);
        let mut config = Configuration::initial(&p, &[0, 1, 0, 1]).unwrap();
        runner::run(&p, &mut config, &mut SeededRandom::new(seed), contention).unwrap();
        let group = [ProcessId(0), ProcessId(1)];
        let full = ValencyOracle::new(12, 30_000).query(&p, &config, &group);
        let reduced = ValencyOracle::new(12, 30_000)
            .with_symmetry_reduction()
            .query(&p, &config, &group);
        prop_assert!(reduced.states <= full.states);
        let keys = |r: &swapcons::lower::valency::ValencyResult| {
            r.witnesses.keys().copied().collect::<std::collections::BTreeSet<u64>>()
        };
        if full.exhaustive && reduced.exhaustive {
            prop_assert_eq!(full.verdict(), reduced.verdict());
            prop_assert_eq!(keys(&full), keys(&reduced));
        }
        for (&v, schedule) in &reduced.witnesses {
            let mut replay = config.clone();
            let h = runner::replay(&p, &mut replay, schedule).unwrap();
            prop_assert!(h.decisions().iter().any(|&(_, d)| d == v));
        }
    }
}

/// SplitMix64: a tiny seeded generator for the hand-rolled executions below.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The configurations along one seeded execution of `p` from `inputs` in
/// which a running process crashes instead of stepping one time in five
/// (never the last one running, so someone gets to decide), until nobody
/// runs or `max_steps` actions have been taken.
fn crashing_run<P: Protocol>(
    p: &P,
    inputs: &[u64],
    seed: u64,
    max_steps: usize,
) -> Vec<Configuration<P>> {
    let mut rng = seed;
    let mut config = Configuration::initial(p, inputs).unwrap();
    let mut out = vec![config.clone()];
    let mut running = Vec::new();
    for _ in 0..max_steps {
        config.running_into(&mut running);
        if running.is_empty() {
            break;
        }
        let pid = running[(splitmix(&mut rng) % running.len() as u64) as usize];
        if running.len() > 1 && splitmix(&mut rng).is_multiple_of(5) {
            config.crash(pid).unwrap();
        } else {
            config.step_quiet(p, pid).unwrap();
        }
        out.push(config.clone());
    }
    out
}

/// One long-lived set sees configurations from many seeded runs — with
/// crashed and decided processes among them — so slot-hash memo rows are
/// built once and then reused across configurations, for all three kinds
/// of process status. Its pruned key must equal the directly hashed
/// full-group key on every one.
#[test]
fn long_lived_set_keys_match_scan_across_runs() {
    fn check<P: Protocol>(p: &P, inputs: &[u64]) {
        let mut set: CanonicalVisitedSet<P> =
            CanonicalVisitedSet::new(Canonicalizer::for_inputs(p, inputs));
        assert!(
            set.group_order() >= 6,
            "{}: the memo path must be on",
            p.name()
        );
        let (mut crashed, mut decided) = (0, 0);
        for seed in 0..40 {
            for config in crashing_run(p, inputs, seed, 200) {
                crashed += config.crashed().len();
                decided += config.decisions_iter().flatten().count();
                assert_eq!(
                    set.orbit_key_pruned(p, &config),
                    set.orbit_key_unpruned(p, &config),
                    "{} seed {seed}",
                    p.name()
                );
                set.insert(p, &config);
            }
        }
        assert!(
            crashed > 0 && decided > 0,
            "{}: {crashed} crashed, {decided} decided",
            p.name()
        );
    }
    check(&BinaryRacing::with_track_len(4, 7), &[0, 0, 0, 0]);
    check(&SwapKSet::consensus(4, 2), &[1, 1, 1, 1]);
    check(&SwapKSet::consensus(4, 2), &[0, 1, 1, 1]);
    check(&SelfishConsensus { n: 4 }, &[0, 0, 1, 1]);
}

/// With both indexes masked to a single key, every probe collides: the
/// exact index can name only one representative and every orbit key lands
/// in one chain. Literal duplicates, renamed twins and new states must
/// still be told apart exactly as by an unmasked set.
#[test]
fn masked_indexes_classify_duplicates_twins_and_new_states() {
    let p = BinaryRacing::with_track_len(4, 7);
    let inputs = [0, 0, 0, 0];
    let canon = Canonicalizer::for_inputs(&p, &inputs);
    let twist = canon.renamings()[canon.renamings().len() / 2].clone();
    let mut masked = CanonicalVisitedSet::new(canon.clone()).with_fingerprint_mask(0);
    let mut plain = CanonicalVisitedSet::new(canon);
    let mut news = 0;
    for seed in 0..6 {
        for config in crashing_run(&p, &inputs, seed, 40) {
            let fresh = plain.insert(&p, &config);
            assert_eq!(masked.insert(&p, &config), fresh, "seed {seed}: new state");
            news += usize::from(fresh);
            assert!(
                !masked.insert(&p, &config.clone()),
                "seed {seed}: literal duplicate"
            );
            let twin = apply_renaming(&p, &twist, &config);
            assert!(!masked.insert(&p, &twin), "seed {seed}: renamed twin");
            assert!(!plain.insert(&p, &twin));
        }
    }
    assert!(news > 1, "the runs must reach distinct orbits");
    assert_eq!(masked.len(), plain.len());
    assert_eq!(plain.len(), news);
}

/// Exhaust `p` from `inputs` through one reduced dedup set, counting every
/// insert probe: (orbits, probes, index hits, orbit keys).
fn counted_reduced_search<P: Protocol>(p: &P, inputs: &[u64]) -> (usize, usize, usize, usize) {
    let mut dedup = DedupSet::reduced(Canonicalizer::for_inputs(p, inputs), 1 << 14);
    let root = Configuration::initial(p, inputs).unwrap();
    assert!(dedup.insert(p, &root));
    let mut probes = 1;
    let mut stack = vec![root];
    let mut running = Vec::new();
    while let Some(config) = stack.pop() {
        config.running_into(&mut running);
        for &pid in &running {
            let mut child = config.clone();
            child.step_quiet(p, pid).unwrap();
            probes += 1;
            if dedup.insert(p, &child) {
                stack.push(child);
            }
        }
    }
    (dedup.len(), probes, dedup.index_hits(), dedup.orbit_keys())
}

/// The exact index and the orbit path partition the insert probes: each
/// probe is either answered by the index or computes one orbit key. On the
/// smoke instance of the benchmark's canon-racing workload the split
/// repeats exactly, and the index answers a real share of the probes.
#[test]
fn index_hits_and_orbit_keys_partition_probes() {
    let p = BinaryRacing::with_track_len(4, 7);
    let first = counted_reduced_search(&p, &[0; 4]);
    let (orbits, probes, index_hits, orbit_keys) = first;
    assert_eq!(orbits, 19_096);
    assert_eq!(index_hits + orbit_keys, probes);
    assert!(index_hits > probes / 10, "{index_hits} of {probes} probes");
    assert!(orbit_keys >= orbits);
    assert_eq!(counted_reduced_search(&p, &[0; 4]), first);
}

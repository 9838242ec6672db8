//! Copy-on-write `Configuration` correctness: under arbitrary interleaved
//! step / clone / poke sequences across a pool of aliased clones, every
//! lineage must be observationally identical to an independently rebuilt
//! (deep, never-aliased) copy — i.e. aliasing is invisible.
//!
//! The pool starts with one initial configuration; operations either step a
//! pool member, clone one (extending the pool, sharing storage), or poke an
//! object value. Each member carries the action history of its lineage;
//! after the sequence, replaying that history from a fresh initial
//! configuration must reproduce the member exactly (equality and
//! hash). Any copy-on-write leak — a mutation through a shared `Arc`
//! becoming visible to a sibling, or a detach that failed to happen — makes
//! some lineage diverge from its replay.

use proptest::prelude::*;
use swapcons::core::lap::SwapEntry;
use swapcons::core::SwapKSet;
use swapcons::sim::{Configuration, ObjectId, ProcessId};

const N: usize = 3;
const M: u64 = 2;
const INPUTS: [u64; 3] = [0, 1, 1];

/// One operation of the interleaved workload. Indices are taken modulo the
/// current pool/process/object counts, so any generated sequence is valid.
#[derive(Clone, Debug)]
enum Op {
    /// Step pool member `target` by process `pid % n` (no-op if decided).
    Step { target: usize, pid: usize },
    /// Push a clone of pool member `target`.
    Clone { target: usize },
    /// Poke object `obj % space` of pool member `target` with a marker
    /// value derived from `salt`.
    Poke {
        target: usize,
        obj: usize,
        salt: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64, 0usize..N).prop_map(|(target, pid)| Op::Step { target, pid }),
        (0usize..64).prop_map(|target| Op::Clone { target }),
        (0usize..64, 0usize..4, 0u64..50).prop_map(|(target, obj, salt)| Op::Poke {
            target,
            obj,
            salt
        }),
    ]
}

/// The action actually applied to a lineage (resolved indices).
#[derive(Clone, Debug)]
enum Applied {
    Step(ProcessId),
    Poke(ObjectId, SwapEntry),
}

fn marker_entry(salt: u64) -> SwapEntry {
    // A poked entry distinct from anything the protocol writes naturally:
    // laps far above reachable values keyed by the salt.
    let mut laps = swapcons::core::lap::LapVec::zeros(M as usize);
    laps.set((salt % M) as usize, 1_000 + salt);
    SwapEntry::of(laps, ProcessId((salt % N as u64) as usize))
}

fn rebuild(protocol: &SwapKSet, history: &[Applied]) -> Configuration<SwapKSet> {
    let mut c = Configuration::initial(protocol, &INPUTS).expect("valid inputs");
    for action in history {
        match action {
            Applied::Step(pid) => {
                // Mirrors the workload: steps of decided processes are
                // skipped at application time, so none appear in histories.
                c.step(protocol, *pid).expect("replayed step must succeed");
            }
            Applied::Poke(obj, value) => c.poke_object(*obj, value.clone()),
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cow_lineages_match_deep_replays(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let protocol = SwapKSet::consensus(N, M);
        let initial = Configuration::initial(&protocol, &INPUTS).expect("valid inputs");
        // Pool of (configuration, lineage history).
        let mut pool: Vec<(Configuration<SwapKSet>, Vec<Applied>)> = vec![(initial, Vec::new())];
        for op in &ops {
            match *op {
                Op::Step { target, pid } => {
                    let t = target % pool.len();
                    let pid = ProcessId(pid % N);
                    let (config, history) = &mut pool[t];
                    if config.decision(pid).is_none() {
                        config.step(&protocol, pid).expect("running process steps");
                        history.push(Applied::Step(pid));
                    }
                }
                Op::Clone { target } => {
                    let t = target % pool.len();
                    let cloned = (pool[t].0.clone(), pool[t].1.clone());
                    // A fresh clone shares storage with its origin...
                    prop_assert!(cloned.0.shares_object_storage(&pool[t].0));
                    prop_assert!(cloned.0.shares_process_storage(&pool[t].0));
                    // ...and is equal to it.
                    prop_assert_eq!(&cloned.0, &pool[t].0);
                    pool.push(cloned);
                }
                Op::Poke { target, obj, salt } => {
                    let t = target % pool.len();
                    let obj = ObjectId(obj % protocol.space());
                    let value = marker_entry(salt);
                    let (config, history) = &mut pool[t];
                    config.poke_object(obj, value.clone());
                    history.push(Applied::Poke(obj, value));
                }
            }
        }
        // Every lineage must equal its deep, aliasing-free replay.
        for (config, history) in &pool {
            let deep = rebuild(&protocol, history);
            prop_assert_eq!(
                config, &deep,
                "copy-on-write lineage diverged from deep replay; history: {:?}",
                history
            );
            prop_assert_eq!(fxhash::hash64(&config), fxhash::hash64(&deep));
            prop_assert!(!config.shares_object_storage(&deep) || history.is_empty() || config.object_values() == deep.object_values());
        }
    }
}

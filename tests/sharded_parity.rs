//! The sharded-vs-sequential parity gate (PR 8's tentpole acceptance): the
//! work-stealing engine must be a pure *performance* mode — same verdicts,
//! same violations, same counts — across the n=2 protocol zoo, the Table 1
//! witness sweep, and the valency-oracle fixtures.
//!
//! Parity comes in two strengths, matching what is actually a theorem:
//!
//! * **Complete searches** (the frontier drains inside every budget): the
//!   explored set is traversal-order-independent, so the sharded report
//!   must equal the sequential one in verdict *and* every deterministic
//!   counter.
//! * **Depth-bounded searches** (most zoo rows — lap counters grow without
//!   bound, so no depth completes them): the explored subset depends on
//!   traversal order. The sharded engine's breadth-first waves visit every
//!   state at its minimum depth — a canonical set, independent of worker
//!   count — while the sequential engine is depth-first. Here the gate is
//!   verdict parity against the sequential run plus **exact** report
//!   equality across all sharded thread counts.
//!
//! The CI `parity-sharded` matrix runs this file (and the checkpoint
//! suite) with `SWAPCONS_THREADS` set to 2 and 4.

use swapcons::baselines::{BinaryRacing, CommitAdoptConsensus, ReadableRacing};
use swapcons::core::pairs::PairsKSet;
use swapcons::core::SwapKSet;
use swapcons::lower::table1::{verify_oracle_parity_threaded, verify_witnesses_threaded};
use swapcons::sim::explore::{CheckReport, ModelChecker};
use swapcons::sim::testing::{SelfishConsensus, TwoProcessSwapConsensus};

/// Sharded thread counts under test: `SWAPCONS_THREADS` as a single count
/// or comma-separated list, default `2,4`. Values must be ≥ 2 — 1 is the
/// sequential baseline every row already runs.
fn thread_axis() -> Vec<usize> {
    std::env::var("SWAPCONS_THREADS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| t >= 2)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![2, 4])
}

/// The two-strength parity assertion described in the module docs.
/// `reference` accumulates the first sharded report per row so later
/// thread counts are also checked against each other exactly.
fn assert_parity(
    label: &str,
    seq: &CheckReport,
    sharded: &CheckReport,
    reference: &mut Option<CheckReport>,
) {
    assert!(
        seq.same_verdict(sharded),
        "{label}: sharded verdict diverged: {seq} vs {sharded}"
    );
    assert_eq!(
        seq.complete, sharded.complete,
        "{label}: completeness diverged: {seq} vs {sharded}"
    );
    if seq.complete {
        assert_eq!(seq.states, sharded.states, "{label}: state-count parity");
        assert_eq!(seq.terminal_states, sharded.terminal_states, "{label}");
        assert_eq!(seq.deepest, sharded.deepest, "{label}");
        assert_eq!(seq.symmetry_group, sharded.symmetry_group, "{label}");
    }
    match reference {
        None => *reference = Some(sharded.clone()),
        Some(reference) => {
            assert_eq!(
                (
                    reference.states,
                    reference.terminal_states,
                    reference.deepest,
                    reference.complete,
                    reference.symmetry_group,
                ),
                (
                    sharded.states,
                    sharded.terminal_states,
                    sharded.deepest,
                    sharded.complete,
                    sharded.symmetry_group,
                ),
                "{label}: sharded thread counts disagree with each other"
            );
        }
    }
}

/// The n=2 zoo: every checker row from the bench consistency gate, each in
/// full and symmetry-reduced mode, sequential vs every sharded count.
#[test]
fn zoo_rows_keep_verdict_and_count_parity() {
    type Row = (
        &'static str,
        ModelChecker,
        Box<dyn Fn(ModelChecker) -> CheckReport>,
    );
    let axis = thread_axis();
    let rows: Vec<Row> = vec![
        {
            let c = ModelChecker::new(10, 50_000).with_solo_budget(2);
            (
                "two_process all-inputs",
                c,
                Box::new(|c: ModelChecker| c.check_all_inputs(&TwoProcessSwapConsensus)),
            )
        },
        {
            let p = SwapKSet::consensus(2, 2);
            let c = ModelChecker::new(30, 200_000).with_solo_budget(p.solo_step_bound());
            (
                "alg1 n=2 all-inputs",
                c,
                Box::new(move |c: ModelChecker| c.check_all_inputs(&p)),
            )
        },
        {
            let p = CommitAdoptConsensus::new(2, 2);
            let c = ModelChecker::new(14, 200_000).with_solo_budget(p.solo_step_bound());
            (
                "commit_adopt n=2 all-inputs",
                c,
                Box::new(move |c: ModelChecker| c.check_all_inputs(&p)),
            )
        },
        {
            let p = BinaryRacing::with_track_len(2, 8);
            let c = ModelChecker::new(16, 200_000);
            (
                "binary_racing n=2 all-inputs",
                c,
                Box::new(move |c: ModelChecker| c.check_all_inputs(&p)),
            )
        },
        {
            let p = ReadableRacing::new(2, 2);
            let c = ModelChecker::new(16, 150_000).with_solo_budget(p.solo_step_bound());
            (
                "readable_racing n=2 all-inputs",
                c,
                Box::new(move |c: ModelChecker| c.check_all_inputs(&p)),
            )
        },
        {
            let p = PairsKSet::new(4, 2, 3);
            let c = ModelChecker::new(10, 100_000).with_solo_budget(1);
            (
                "pairs_kset n=4 all-inputs",
                c,
                Box::new(move |c: ModelChecker| c.check_all_inputs(&p)),
            )
        },
    ];
    for (label, checker, run) in rows {
        for symmetry in [false, true] {
            let mut base = checker;
            base.symmetry_reduction = symmetry;
            let seq = run(base);
            assert!(seq.passed(), "{label}: {seq}");
            let mut reference = None;
            for &t in &axis {
                let sharded = run(base.with_threads(t));
                assert_parity(
                    &format!("{label} (symmetry={symmetry}, t={t})"),
                    &seq,
                    &sharded,
                    &mut reference,
                );
            }
        }
    }
}

/// Groups of order 6 and up key orbits through the slot-hash memo, which
/// all workers share via the striped set's one keyer (a worker that finds
/// it busy hashes directly). Complete reduced searches must still count
/// exactly the sequential orbits. (`deepest` is left out: on this space the
/// depth-first and breadth-first drivers first reach some orbits at
/// different depths, reduced or not.)
#[test]
fn shared_slot_hash_memo_keeps_reduced_counts() {
    let p = BinaryRacing::with_track_len(3, 8);
    let checker = ModelChecker::new(200, 200_000).with_symmetry_reduction();
    let seq = checker.check(&p, &[0, 0, 0]);
    assert!(seq.passed() && seq.complete, "{seq}");
    assert_eq!(seq.symmetry_group, 6, "{seq}");
    for t in thread_axis() {
        let sharded = checker.with_threads(t).check(&p, &[0, 0, 0]);
        assert_eq!(
            (sharded.states, sharded.terminal_states, sharded.complete),
            (seq.states, seq.terminal_states, seq.complete),
            "t={t}: {sharded} vs {seq}"
        );
    }
}

/// A violating workload: the sharded engine must catch the same violation
/// kind the sequential engine does (schedules and pre-stop state counts
/// are allowed to differ — exploration order decides which counterexample
/// is found first).
#[test]
fn violation_kind_parity_on_the_broken_protocol() {
    let p = SelfishConsensus { n: 2 };
    let seq = ModelChecker::new(10, 10_000).check(&p, &[0, 1]);
    let seq_kind = seq.violation.as_ref().expect("sequential catches it");
    for t in thread_axis() {
        let sharded = ModelChecker::new(10, 10_000)
            .with_threads(t)
            .check(&p, &[0, 1]);
        let shard_kind = sharded.violation.as_ref().expect("sharded catches it");
        assert_eq!(
            std::mem::discriminant(&seq_kind.kind),
            std::mem::discriminant(&shard_kind.kind),
            "t={t}: violation kind diverged: {seq} vs {sharded}"
        );
    }
}

/// Sharded runs are deterministic run-to-run at every thread count, not
/// merely equivalent: the wave construction is canonical, so repeating a
/// search must reproduce the report exactly.
#[test]
fn sharded_reports_are_deterministic_run_to_run() {
    let p = SwapKSet::consensus(2, 2);
    for t in thread_axis() {
        let checker = ModelChecker::new(12, 50_000).with_threads(t);
        let first = checker.check(&p, &[0, 1]);
        let second = checker.check(&p, &[0, 1]);
        assert!(first.same_verdict(&second));
        assert_eq!(
            (
                first.states,
                first.terminal_states,
                first.deepest,
                first.complete
            ),
            (
                second.states,
                second.terminal_states,
                second.deepest,
                second.complete
            ),
            "t={t}: sharded search is not deterministic"
        );
    }
}

/// An exact state budget that the complete search lands on precisely must
/// still report `complete = true` when sharded — the budget discipline
/// (`BudgetNew` vs `New`) cannot turn an exactly-full search into a
/// truncated one.
#[test]
fn exactly_max_states_stays_complete_when_sharded() {
    let seq = ModelChecker::new(10, 50_000)
        .with_solo_budget(2)
        .check_all_inputs(&TwoProcessSwapConsensus);
    assert!(seq.complete, "{seq}");
    for t in thread_axis() {
        let exact = ModelChecker::new(10, seq.states)
            .with_solo_budget(2)
            .with_threads(t)
            .check_all_inputs(&TwoProcessSwapConsensus);
        assert!(exact.complete, "t={t}: exactly-max-states run: {exact}");
        assert_eq!(exact.states, seq.states);
    }
}

/// Satellite 6's integration pin: a sharded run whose shared deadline is
/// already expired truncates cooperatively — `deadline_truncated` is set,
/// nothing is explored, and the run is not misreported as paused or
/// failing — while a generous deadline changes nothing.
#[test]
fn shared_deadline_truncates_sharded_runs_cooperatively() {
    use std::time::Duration;
    let p = SwapKSet::consensus(2, 2);
    for t in thread_axis() {
        let expired = ModelChecker::new(12, 50_000)
            .with_threads(t)
            .with_deadline(Duration::ZERO)
            .check(&p, &[0, 1]);
        assert!(expired.deadline_truncated, "t={t}: {expired}");
        assert_eq!(expired.states, 0, "t={t}: nothing explored after expiry");
        assert!(!expired.paused && expired.passed(), "t={t}: {expired}");

        let generous = ModelChecker::new(12, 50_000)
            .with_threads(t)
            .with_deadline(Duration::from_secs(600))
            .check(&p, &[0, 1]);
        let unbounded = ModelChecker::new(12, 50_000)
            .with_threads(t)
            .check(&p, &[0, 1]);
        assert!(!generous.deadline_truncated, "t={t}: {generous}");
        assert_eq!(generous.states, unbounded.states, "t={t}");
    }
}

/// The Table 1 witness sweep: the sequential and sharded sweeps must agree
/// row by row, full and reduced.
#[test]
fn table1_witness_sweep_keeps_parity() {
    let sequential = verify_witnesses_threaded(1);
    for t in thread_axis() {
        let sharded = verify_witnesses_threaded(t);
        assert_eq!(sequential.len(), sharded.len());
        for ((row, seq_full, seq_red), (srow, sh_full, sh_red)) in
            sequential.iter().zip(sharded.iter())
        {
            assert_eq!(format!("{row}"), format!("{srow}"));
            let label = format!("table1 {row} (t={t})");
            assert_parity(&label, seq_full, sh_full, &mut None);
            assert_parity(&format!("{label} reduced"), seq_red, sh_red, &mut None);
        }
    }
}

/// The valency-oracle fixtures: verdicts, witness-value sets, and
/// exhaustiveness must match the sequential oracle at every thread count;
/// exhaustive queries must also agree on the explored-state count.
#[test]
fn oracle_fixture_sweep_keeps_parity() {
    use std::collections::BTreeSet;
    let sequential = verify_oracle_parity_threaded(1);
    for t in thread_axis() {
        let sharded = verify_oracle_parity_threaded(t);
        assert_eq!(sequential.len(), sharded.len());
        for ((label, seq_full, seq_red), (slabel, sh_full, sh_red)) in
            sequential.iter().zip(sharded.iter())
        {
            assert_eq!(label, slabel);
            for (mode, seq, sharded) in [("full", seq_full, sh_full), ("reduced", seq_red, sh_red)]
            {
                let tag = format!("oracle {label} {mode} (t={t})");
                assert_eq!(seq.verdict(), sharded.verdict(), "{tag}");
                assert_eq!(
                    seq.witnesses.keys().collect::<BTreeSet<_>>(),
                    sharded.witnesses.keys().collect::<BTreeSet<_>>(),
                    "{tag}: witness-value sets diverged"
                );
                assert_eq!(seq.exhaustive, sharded.exhaustive, "{tag}");
                assert_eq!(seq.symmetry_group, sharded.symmetry_group, "{tag}");
                if seq.exhaustive {
                    assert_eq!(seq.states, sharded.states, "{tag}: state-count parity");
                }
            }
        }
    }
}

//! Fuzz harness for the threaded Algorithm 1: randomized sweeps over the
//! whole parameter space — `(n, k, m)`, the input vector, and a
//! yield-perturbation seed that skews each thread's start and pacing — with
//! the wall-clock guard pattern from `tests/edge_cases.rs`, so a livelock
//! regression fails the suite instead of hanging it.
//!
//! Fixed-shape tests pin known-interesting points (`tests/edge_cases.rs`,
//! `tests/threaded_stress.rs`); this harness samples the space in between.
//! Every sampled run asserts the two safety properties the paper's tasks
//! demand, which must hold under *any* OS schedule:
//!
//! * **k-agreement** — at most `k` distinct decisions;
//! * **validity** — every decision is some process's input.
//!
//! Seeds are deterministic (derived from a fixed master seed), so a failure
//! reproduces by rerunning the test. Every failure message carries the
//! failing case as a **corpus line** (`n=.. k=.. m=.. inputs=..
//! perturb=0x..`); append that line to `tests/corpus/threaded_fuzz.corpus`
//! and `tests/fuzz_regressions.rs` will replay it on every future run.
//!
//! # Widening the sweep
//!
//! The per-PR defaults are deliberately cheap. The nightly CI job widens
//! them through environment variables read at test start:
//!
//! * `SWAPCONS_FUZZ_CASES` — sampled cases for the main sweep (default 24;
//!   the unanimous, crash, and repeat variants scale proportionally);
//! * `SWAPCONS_FUZZ_SEED` — master seed for case derivation (default
//!   `0x5EED_CA5E`), so distinct nights explore distinct case sets while
//!   any single run stays reproducible from its printed parameters;
//! * `SWAPCONS_FUZZ_DEADLINE_SECS` — wall-clock budget per sweep (default
//!   unlimited): when the budget runs out, the sweep stops cleanly after
//!   the current case and reports how far it got, so a widened nightly run
//!   can never hang or overrun the CI runner (each individual case is
//!   additionally guarded by [`fuzz_case::GUARD`]);
//! * `SWAPCONS_FUZZ_WORKERS` — worker threads driving the main and crash
//!   sweeps (default 2). Cases are sampled **up front** from the master
//!   seed and each worker claims the next one from a shared index, so
//!   coverage is identical at every worker count — only the execution
//!   overlaps — and the deadline is shared by all workers;
//! * `SWAPCONS_FUZZ_PERSIST` — a file path: every failing case's corpus
//!   line is appended there (one per line, ready to copy into
//!   `tests/corpus/threaded_fuzz.corpus`), and the sweep reports **all**
//!   failures at once instead of stopping at the first.

// Free-running std threads drive these tests; under `--cfg conc_check` the
// atomic objects route through the model-only conc shims, so this target is
// compiled out (the exhaustive conc suites cover the same layer there).
#![cfg(not(conc_check))]

#[path = "common/fuzz_case.rs"]
mod fuzz_case;

use fuzz_case::{bounded, FuzzCase};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of cases for the main sweep: `SWAPCONS_FUZZ_CASES` or 24.
fn fuzz_cases() -> usize {
    env_or("SWAPCONS_FUZZ_CASES", 24)
}

/// Master seed for case derivation: `SWAPCONS_FUZZ_SEED` or `0x5EED_CA5E`.
fn fuzz_seed() -> u64 {
    env_or("SWAPCONS_FUZZ_SEED", 0x5EED_CA5E)
}

/// Worker threads driving the main and crash sweeps:
/// `SWAPCONS_FUZZ_WORKERS` or 2. Each sampled case still spawns its own
/// `n` protocol threads; the workers overlap *cases*, which shortens a
/// widened nightly's wall clock on a multi-core runner (and on one core
/// costs nothing but extra interleaving noise — itself useful to a fuzzer).
fn fuzz_workers() -> usize {
    env_or("SWAPCONS_FUZZ_WORKERS", 2).max(1)
}

/// The shared per-sweep wall-clock budget: `SWAPCONS_FUZZ_DEADLINE_SECS`
/// (absent = unlimited), checked by every worker between cases.
fn sweep_deadline() -> Option<std::time::Duration> {
    std::env::var("SWAPCONS_FUZZ_DEADLINE_SECS")
        .ok()
        .map(|raw| {
            let secs: u64 = raw
                .parse()
                .unwrap_or_else(|e| panic!("SWAPCONS_FUZZ_DEADLINE_SECS={raw}: {e:?}"));
            std::time::Duration::from_secs(secs)
        })
}

/// Render a caught panic payload for the failure report.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Drive pre-sampled cases across the workers under one shared deadline:
/// each worker claims the next unclaimed case from a shared index. Panics
/// inside a case (including the per-case livelock guard) are caught and
/// collected; after the join, every failing case's corpus line is appended
/// to `SWAPCONS_FUZZ_PERSIST` (if set) and the sweep fails with all lines
/// at once — a widened nightly reports its whole harvest, not just the
/// first hit.
fn parallel_sweep(
    kind: &str,
    cases: Vec<fuzz_case::FuzzCase>,
    run_case: impl Fn(usize, &fuzz_case::FuzzCase) + Sync,
) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let deadline = sweep_deadline();
    let started = std::time::Instant::now();
    // Every claimed case runs to the end, so once the workers have joined,
    // the claim count (capped at the case count) is the number of cases run.
    // The index publishes no data (the cases are shared before the workers
    // start), so `Relaxed` suffices: `fetch_add` hands out each index once.
    let next = AtomicUsize::new(0);
    // (corpus line, panic message) per failing case.
    let failures: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..fuzz_workers() {
            scope.spawn(|| loop {
                if deadline.is_some_and(|d| started.elapsed() >= d) {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(case) = cases.get(i) else { return };
                let outcome = catch_unwind(AssertUnwindSafe(|| run_case(i, case)));
                if let Err(payload) = outcome {
                    failures
                        .lock()
                        .unwrap()
                        .push((case.corpus_line(), panic_text(payload)));
                }
            });
        }
    });
    let (done, total) = (next.into_inner().min(cases.len()), cases.len());
    if done < total {
        eprintln!(
            "{kind} fuzz sweep deadline ({:?}) reached after {done}/{total} cases; stopping cleanly",
            deadline.expect("only a deadline stops a sweep early")
        );
    }
    let failures = failures.into_inner().unwrap();
    if failures.is_empty() {
        return;
    }
    if let Ok(path) = std::env::var("SWAPCONS_FUZZ_PERSIST") {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("SWAPCONS_FUZZ_PERSIST={path}: {e}"));
        for (line, _) in &failures {
            writeln!(file, "{line}").expect("corpus persistence write");
        }
        eprintln!(
            "persisted {} failing corpus line(s) to {path}",
            failures.len()
        );
    }
    let report: Vec<String> = failures
        .iter()
        .map(|(line, msg)| format!("  {line}\n    ↳ {msg}"))
        .collect();
    panic!(
        "{kind} fuzz sweep: {} failing case(s):\n{}",
        failures.len(),
        report.join("\n")
    );
}

/// Parse an env var, panicking on malformed values (a silently ignored
/// nightly widening would be worse than a loud failure).
fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    match std::env::var(name) {
        Ok(raw) => raw
            .parse()
            .unwrap_or_else(|e| panic!("{name}={raw} did not parse: {e:?}")),
        Err(_) => default,
    }
}

#[test]
fn fuzz_threaded_kset_random_shapes_and_perturbations() {
    // Deterministic master seed: every run of one configuration executes
    // the same sampled cases (at any worker count); the nightly job widens
    // count and seed via the environment (see the module docs).
    let mut rng = StdRng::seed_from_u64(fuzz_seed());
    let cases: Vec<FuzzCase> = (0..fuzz_cases())
        .map(|_| FuzzCase::sample(&mut rng))
        .collect();
    parallel_sweep("main", cases, |case_index, case| {
        let label = format!(
            "fuzz case {case_index} — corpus line: {}",
            case.corpus_line()
        );
        let decisions = {
            let case = case.clone();
            bounded(label, move || case.run())
        };
        case.check(&decisions);
    });
}

#[test]
fn fuzz_crash_injected_races_stay_safe_and_survivors_decide() {
    // Crash-failure sweep: 1 to n-1 threads stop dead at random swap
    // counts (including before their first step), and the survivors must
    // still decide a k-agreeing, valid set of values — the threaded
    // counterpart of the model checker's exhaustive crash-pattern gate.
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0x0C2A_54E5);
    let cases: Vec<FuzzCase> = (0..fuzz_cases())
        .map(|_| FuzzCase::sample_with_crashes(&mut rng))
        .collect();
    parallel_sweep("crash", cases, |case_index, case| {
        let label = format!(
            "crash fuzz case {case_index} — corpus line: {}",
            case.corpus_line()
        );
        let decisions = {
            let case = case.clone();
            bounded(label, move || case.run())
        };
        case.check(&decisions);
    });
}

#[test]
fn fuzz_unanimous_inputs_always_decide_the_input() {
    // Validity pinned harder: with unanimous inputs, every decision must be
    // exactly that input, whatever the shape or perturbation.
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0xF0BB ^ 0xBEEF);
    for case_index in 0..fuzz_cases().div_ceil(3) {
        let mut case = FuzzCase::sample(&mut rng);
        let v = case.inputs[0];
        case.inputs = vec![v; case.n];
        let label = format!(
            "unanimous fuzz case {case_index} — corpus line: {}",
            case.corpus_line()
        );
        let decisions = {
            let case = case.clone();
            bounded(label, move || case.run())
        };
        assert!(
            decisions.iter().all(|&d| d == Some(v)),
            "unanimous input {v} not decided: {decisions:?} — corpus line: {}",
            case.corpus_line()
        );
    }
}

#[test]
fn fuzz_repeated_same_seed_is_safe_across_reruns() {
    // The same case run repeatedly under real scheduling noise: safety must
    // hold on every repetition (the OS gives a different interleaving each
    // time even with identical perturbation).
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 7);
    let case = FuzzCase::sample(&mut rng);
    for round in 0..fuzz_cases().div_ceil(4) {
        let label = format!("repeat round {round} — corpus line: {}", case.corpus_line());
        let decisions = {
            let case = case.clone();
            bounded(label, move || case.run())
        };
        case.check(&decisions);
    }
}

#[test]
fn corpus_line_round_trips() {
    // The persistence format must invert exactly, or a committed failure
    // would replay a different case than the one that failed.
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0xC0 ^ 0xDE);
    for i in 0..64 {
        let case = if i % 2 == 0 {
            FuzzCase::sample(&mut rng)
        } else {
            FuzzCase::sample_with_crashes(&mut rng)
        };
        let line = case.corpus_line();
        let parsed = FuzzCase::parse(&line)
            .unwrap_or_else(|e| panic!("own corpus line {line:?} failed to parse: {e}"));
        assert_eq!(parsed, case, "round-trip changed the case: {line}");
    }
    // Crash-schedule validation is loud, not silent.
    let base = "n=2 k=1 m=2 inputs=0,1 perturb=0x1";
    assert!(FuzzCase::parse(&format!("{base} crashes=0@0,1@0")).is_err());
    assert!(FuzzCase::parse(&format!("{base} crashes=2@0")).is_err());
    assert!(FuzzCase::parse(&format!("{base} crashes=0@0,0@1")).is_err());
    assert!(FuzzCase::parse(&format!("{base} crashes=0")).is_err());
}

//! Shared helpers for the benchmark targets: canonical workloads and
//! plain-text series rendering (every bench prints the table/figure data it
//! regenerates, so `cargo bench` output is the artifact recorded in
//! EXPERIMENTS.md).

use std::path::{Path, PathBuf};

use swapcons_sim::runner::SoloRunError;
use swapcons_sim::{Configuration, ProcessId, Protocol, SimError};

/// Why a single workload row failed. The fallible entry points
/// ([`try_decide_all`], [`try_max_solo_steps`]) return this instead of
/// panicking, so a bench series can log the failing row and keep measuring
/// the rest instead of losing the whole run to one bad configuration.
#[derive(Debug)]
pub enum HarnessError {
    /// The protocol rejected the input vector at initialization.
    RejectedInputs(SimError),
    /// A step during the random contention phase violated an object schema.
    Contention(SimError),
    /// A solo run failed: budget exhaustion (an obstruction-freedom
    /// violation or an undersized budget) or a schema violation.
    Solo {
        /// The process whose solo run failed.
        pid: ProcessId,
        /// The underlying solo-run error.
        source: SoloRunError,
    },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::RejectedInputs(e) => write!(f, "protocol rejected inputs: {e}"),
            HarnessError::Contention(e) => {
                write!(f, "schema violation during contention phase: {e}")
            }
            HarnessError::Solo {
                pid,
                source: e @ SoloRunError::BudgetExhausted { .. },
            } => write!(f, "obstruction-freedom violation for {pid}: {e}"),
            HarnessError::Solo { pid, source } => {
                write!(f, "schema violation in {pid}'s solo run: {source}")
            }
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::RejectedInputs(e) | HarnessError::Contention(e) => Some(e),
            HarnessError::Solo { source, .. } => Some(source),
        }
    }
}

/// A cyclic input assignment `0, 1, …, m-1, 0, 1, …` for `n` processes —
/// the maximally-contended workload used throughout the evaluation.
pub fn cyclic_inputs(n: usize, m: u64) -> Vec<u64> {
    (0..n).map(|i| (i as u64) % m).collect()
}

/// Decide every process: random contention for `contention` steps, then each
/// still-running process runs solo (the canonical obstruction-free
/// schedule). Returns (total steps, decisions).
///
/// Fallible form of [`decide_all`]: every failure mode — rejected inputs,
/// a schema violation in either phase, or an exhausted solo budget — comes
/// back as a [`HarnessError`] so a series driver can log the row and move
/// on. [`SoloRunError::AlreadyDecided`] is *not* an error:
/// `Configuration::running` only yields undecided processes and solo runs
/// step no one else, so it cannot occur here; it is tolerated as a skip for
/// robustness.
pub fn try_decide_all<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    contention: usize,
    seed: u64,
    solo_budget: usize,
) -> Result<(usize, Vec<Option<u64>>), HarnessError> {
    let mut config =
        Configuration::initial(protocol, inputs).map_err(HarnessError::RejectedInputs)?;
    let mut sched = swapcons_sim::scheduler::SeededRandom::new(seed);
    let out = swapcons_sim::runner::run(protocol, &mut config, &mut sched, contention)
        .map_err(HarnessError::Contention)?;
    let mut steps = out.steps;
    for pid in config.running() {
        match swapcons_sim::runner::solo_run(protocol, &mut config, pid, solo_budget) {
            Ok(solo) => steps += solo.steps,
            Err(SoloRunError::AlreadyDecided(_)) => {}
            Err(source) => return Err(HarnessError::Solo { pid, source }),
        }
    }
    Ok((steps, config.decisions()))
}

/// Panicking wrapper over [`try_decide_all`] for the hot benchmark loops,
/// where a failing workload should abort the measurement immediately.
///
/// # Panics
///
/// Panics with the [`HarnessError`] message on any failure
/// ([`try_decide_all`] lists the cases).
pub fn decide_all<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    contention: usize,
    seed: u64,
    solo_budget: usize,
) -> (usize, Vec<Option<u64>>) {
    try_decide_all(protocol, inputs, contention, seed, solo_budget)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Measure the longest solo run over every process from a
/// contention-perturbed configuration (the Lemma 8 experiment's inner loop).
///
/// Fallible form of [`max_solo_steps`]: same error contract as
/// [`try_decide_all`]; a (normally impossible)
/// [`SoloRunError::AlreadyDecided`] contributes zero steps instead of
/// failing. Each solo run here clones the configuration
/// ([`swapcons_sim::runner::solo_run_cloned`]), so every process is measured
/// from the *same* perturbed configuration.
pub fn try_max_solo_steps<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    contention: usize,
    seed: u64,
    solo_budget: usize,
) -> Result<usize, HarnessError> {
    let mut config =
        Configuration::initial(protocol, inputs).map_err(HarnessError::RejectedInputs)?;
    let mut sched = swapcons_sim::scheduler::SeededRandom::new(seed);
    swapcons_sim::runner::run(protocol, &mut config, &mut sched, contention)
        .map_err(HarnessError::Contention)?;
    let mut worst = 0;
    for pid in config.running() {
        match swapcons_sim::runner::solo_run_cloned(protocol, &config, pid, solo_budget) {
            Ok((out, _)) => worst = worst.max(out.steps),
            Err(SoloRunError::AlreadyDecided(_)) => {}
            Err(source) => return Err(HarnessError::Solo { pid, source }),
        }
    }
    Ok(worst)
}

/// Panicking wrapper over [`try_max_solo_steps`] for the hot benchmark
/// loops.
///
/// # Panics
///
/// Panics with the [`HarnessError`] message on any failure.
pub fn max_solo_steps<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    contention: usize,
    seed: u64,
    solo_budget: usize,
) -> usize {
    try_max_solo_steps(protocol, inputs, contention, seed, solo_budget)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Render a two-column data series as aligned text, with a title line —
/// the "figure" format the benches print.
pub fn render_series(title: &str, x_label: &str, y_label: &str, points: &[(f64, f64)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(out, "{x_label:>12} {y_label:>16}");
    for (x, y) in points {
        let _ = writeln!(out, "{x:>12.2} {y:>16.3}");
    }
    out
}

/// The CI artifact directory for bench series files, if configured
/// (`$BENCH_SERIES_DIR`).
pub fn bench_artifact_dir() -> Option<PathBuf> {
    std::env::var_os("BENCH_SERIES_DIR").map(PathBuf::from)
}

/// Write a bench series file `dir/name`, creating `dir` as needed. Refuses
/// empty content (an empty artifact silently uploaded is how a log-scrape
/// pipeline rots) — as an [`std::io::Error`], not a panic, so one failed
/// artifact write costs the series a warning line, not the whole run.
pub fn write_series_artifact(dir: &Path, name: &str, content: &str) -> std::io::Result<PathBuf> {
    if content.trim().is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("refusing to write empty bench artifact {name}: the generating section produced nothing"),
        ));
    }
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcons_core::SwapKSet;

    #[test]
    fn cyclic_inputs_cover_the_domain() {
        assert_eq!(cyclic_inputs(5, 2), vec![0, 1, 0, 1, 0]);
        assert_eq!(cyclic_inputs(3, 5), vec![0, 1, 2]);
    }

    #[test]
    fn decide_all_satisfies_the_task() {
        let p = SwapKSet::new(5, 2, 3);
        let inputs = cyclic_inputs(5, 3);
        let (steps, decisions) = decide_all(&p, &inputs, 40, 7, p.solo_step_bound());
        assert!(steps > 0);
        assert!(p.task().check(&inputs, &decisions).is_ok());
        assert!(decisions.iter().all(|d| d.is_some()));
    }

    #[test]
    fn max_solo_steps_respects_lemma8() {
        let p = SwapKSet::consensus(6, 2);
        let worst = max_solo_steps(&p, &cyclic_inputs(6, 2), 60, 3, p.solo_step_bound());
        assert!(worst <= p.solo_step_bound());
        assert!(worst > 0);
    }

    #[test]
    #[should_panic(expected = "obstruction-freedom violation")]
    fn decide_all_panics_on_exhausted_solo_budget() {
        // A zero solo budget cannot decide anyone who is still running.
        let p = SwapKSet::consensus(3, 2);
        let _ = decide_all(&p, &cyclic_inputs(3, 2), 0, 7, 0);
    }

    #[test]
    fn try_variants_return_errors_instead_of_panicking() {
        let p = SwapKSet::consensus(3, 2);
        // Exhausted solo budget: a typed Solo error, not a panic.
        let err = try_decide_all(&p, &cyclic_inputs(3, 2), 0, 7, 0).unwrap_err();
        assert!(
            matches!(
                err,
                HarnessError::Solo {
                    source: SoloRunError::BudgetExhausted { .. },
                    ..
                }
            ),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("obstruction-freedom violation"));
        // Rejected inputs: wrong vector length.
        let err = try_max_solo_steps(&p, &[0], 10, 7, 8).unwrap_err();
        assert!(
            matches!(err, HarnessError::RejectedInputs(_)),
            "unexpected error: {err}"
        );
        // And the happy paths agree with the panicking wrappers.
        let fallible = try_decide_all(&p, &cyclic_inputs(3, 2), 10, 7, 8).unwrap();
        assert_eq!(fallible, decide_all(&p, &cyclic_inputs(3, 2), 10, 7, 8));
    }

    #[test]
    fn series_artifact_write_is_fallible_not_fatal() {
        let dir = std::env::temp_dir().join(format!("swapcons-bench-{}", std::process::id()));
        // Empty content is refused with an error return.
        let err = write_series_artifact(&dir, "empty.txt", "  \n").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(!dir.join("empty.txt").exists());
        // Real content lands on disk.
        let path = write_series_artifact(&dir, "series.txt", "# data\n1 2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "# data\n1 2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn series_rendering() {
        let s = render_series("t", "n", "steps", &[(1.0, 2.0), (3.0, 4.5)]);
        assert!(s.starts_with("# t"));
        assert_eq!(s.lines().count(), 4);
    }
}

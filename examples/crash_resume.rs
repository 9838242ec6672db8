//! Kill-and-resume driver for the crash-safe engine — the binary behind the
//! CI `kill-resume` job.
//!
//! A fixed, deterministic workload (Algorithm 1 at n = 3 under a 1-crash
//! adversary) runs with periodic atomic snapshots to `--snapshot`. The CI
//! job runs it three ways:
//!
//! 1. `--report baseline.txt` — uninterrupted, records the canonical
//!    verdict + counts;
//! 2. `--throttle-us N --report /dev/null` — the same search slowed to a
//!    crawl (a sleep per simulated step) so a `kill -9` lands mid-run with
//!    snapshots already on disk;
//! 3. `--resume --report resumed.txt` — picks the search up from the last
//!    snapshot and finishes it.
//!
//! The job then diffs `baseline.txt` against `resumed.txt`: the crash-safety
//! contract is that a search killed at **any** instant resumes to the
//! *identical* verdict and state counts, because snapshot writes are atomic
//! (tmp + fsync + rename) and resume replays the arena deterministically.
//!
//! Run locally:
//!
//! ```text
//! cargo run --release --example crash_resume -- --snapshot /tmp/cr.swck --report /tmp/base.txt
//! cargo run --release --example crash_resume -- --snapshot /tmp/cr.swck --throttle-us 300 &
//! sleep 2; kill -9 %1
//! cargo run --release --example crash_resume -- --snapshot /tmp/cr.swck --resume --report /tmp/res.txt
//! diff /tmp/base.txt /tmp/res.txt
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use swapcons::core::SwapKSet;
use swapcons::objects::{ObjectOp, ObjectSchema, Response};
use swapcons::sim::explore::{CheckReport, ModelChecker};
use swapcons::sim::task::KSetTask;
use swapcons::sim::{ObjectId, ProcessId, Protocol, Transition};

/// Snapshot cadence in visited states: small enough that several snapshots
/// land before the CI kill, large enough that snapshot IO is not the
/// bottleneck of the uninterrupted run.
const SNAPSHOT_INTERVAL: usize = 500;

/// A protocol wrapper that sleeps before every poised-operation lookup —
/// one sleep per simulated step — so the search runs long enough for an
/// external `kill -9` to land mid-run. Delegation only; the state space,
/// and therefore the snapshot contents, are identical to the inner
/// protocol's (the wrapper even keeps the inner `name()`, so a snapshot
/// taken throttled resumes unthrottled).
struct Throttled<P> {
    inner: P,
    per_step: Duration,
}

impl<P: Protocol> Protocol for Throttled<P> {
    type State = P::State;
    type Value = P::Value;

    fn name(&self) -> String {
        self.inner.name()
    }
    fn task(&self) -> KSetTask {
        self.inner.task()
    }
    fn num_objects(&self) -> usize {
        self.inner.num_objects()
    }
    fn schema(&self, obj: ObjectId) -> ObjectSchema {
        self.inner.schema(obj)
    }
    fn initial_value(&self, obj: ObjectId) -> Self::Value {
        self.inner.initial_value(obj)
    }
    fn initial_state(&self, pid: ProcessId, input: u64) -> Self::State {
        self.inner.initial_state(pid, input)
    }
    fn initial_decision(&self, pid: ProcessId, input: u64) -> Option<u64> {
        self.inner.initial_decision(pid, input)
    }
    fn poised(&self, state: &Self::State) -> (ObjectId, ObjectOp<Self::Value>) {
        std::thread::sleep(self.per_step);
        self.inner.poised(state)
    }
    fn observe(
        &self,
        state: Self::State,
        response: Response<Self::Value>,
    ) -> Transition<Self::State> {
        self.inner.observe(state, response)
    }
}

/// The fixed workload: every run of this example searches exactly this
/// space, so reports from different invocations are comparable verbatim.
fn workload() -> (SwapKSet, Vec<u64>, ModelChecker) {
    let p = SwapKSet::consensus(3, 2);
    let inputs = vec![0, 1, 1];
    let checker = ModelChecker::new(12, 200_000).with_max_failures(1);
    (p, inputs, checker)
}

/// The canonical report text the CI job diffs: verdict and every
/// deterministic counter, one per line.
fn render(report: &CheckReport) -> String {
    format!(
        "verdict={}\nstates={}\nterminal_states={}\ndeepest={}\ncomplete={}\nsymmetry_group={}\n",
        if report.passed() { "pass" } else { "fail" },
        report.states,
        report.terminal_states,
        report.deepest,
        report.complete,
        report.symmetry_group,
    )
}

struct Args {
    snapshot: PathBuf,
    report: Option<PathBuf>,
    throttle: Option<Duration>,
    resume: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut snapshot = None;
    let mut report = None;
    let mut throttle = None;
    let mut resume = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--snapshot" => snapshot = Some(PathBuf::from(value("--snapshot")?)),
            "--report" => report = Some(PathBuf::from(value("--report")?)),
            "--throttle-us" => {
                let us: u64 = value("--throttle-us")?
                    .parse()
                    .map_err(|e| format!("--throttle-us: {e}"))?;
                throttle = Some(Duration::from_micros(us));
            }
            "--resume" => resume = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        snapshot: snapshot.ok_or("--snapshot <path> is required")?,
        report,
        throttle,
        resume,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "crash_resume: {e}\nusage: crash_resume --snapshot <path> \
                 [--report <path>] [--throttle-us <n>] [--resume]"
            );
            return ExitCode::FAILURE;
        }
    };
    let (p, inputs, checker) = workload();
    let outcome = if args.resume {
        checker.resume_from_file(&p, &inputs, &args.snapshot, SNAPSHOT_INTERVAL)
    } else if let Some(per_step) = args.throttle {
        let slow = Throttled { inner: p, per_step };
        checker.check_with_snapshot_file(&slow, &inputs, &args.snapshot, SNAPSHOT_INTERVAL)
    } else {
        checker.check_with_snapshot_file(&p, &inputs, &args.snapshot, SNAPSHOT_INTERVAL)
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("crash_resume: search failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = render(&report);
    print!("{rendered}");
    if let Some(path) = args.report {
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("crash_resume: writing report {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

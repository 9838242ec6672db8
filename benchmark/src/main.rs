//! End-to-end and per-layer benchmark of the exhaustive search engine and
//! the valency oracle. See `README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- all [--seed N] [--seconds S] [--trace]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --smoke
//! ```
//!
//! A single-workload run prints one `name value unit` line per metric and,
//! as its last line, a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `all` runs every workload in a child process of its own
//! (peak RSS is only meaningful per process, since the allocator keeps
//! freed heap) and exits non-zero if any check failed.

mod checker;
mod oracle;
mod proc_status;
mod replay;
mod report;
mod run;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::Report;
use run::{Checks, Opts};

const WORKLOADS: [&str; 4] = [
    "exact-racing",
    "canon-racing",
    "alg1-solo",
    "oracle-queries",
];

const USAGE: &str =
    "usage: swapcons-benchmark --workload <exact-racing|canon-racing|alg1-solo|oracle-queries> \
[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
       swapcons-benchmark all [--seed N] [--seconds S] [--trace]
       swapcons-benchmark --smoke";

enum Mode {
    One(String),
    All,
    Smoke,
}

fn parse(args: &[String]) -> Result<(Mode, Opts), String> {
    let mut mode = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 25.0,
        trace: false,
        smoke: false,
        trace_out: None,
    };
    let mut i = 0;
    let value = |i: usize, flag: &str| -> Result<&String, String> {
        args.get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "all" => mode = Some(Mode::All),
            "--smoke" => mode = Some(Mode::Smoke),
            "--workload" => {
                let w = value(i, "--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                mode = Some(Mode::One(w.clone()));
                i += 1;
            }
            "--seed" => {
                let v = value(i, "--seed")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
                i += 1;
            }
            "--seconds" => {
                let v = value(i, "--seconds")?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {v}"))?;
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") | Some("1") => {
                    opts.trace = args[i + 1] == "1";
                    i += 1;
                }
                _ => opts.trace = true,
            },
            "--trace-out" => {
                opts.trace_out = Some(PathBuf::from(value(i, "--trace-out")?));
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    let mode = mode.ok_or("name a workload, `all`, or `--smoke`")?;
    if opts.trace_out.is_some() && !matches!(mode, Mode::One(_)) {
        return Err("--trace-out needs --workload".into());
    }
    Ok((mode, opts))
}

/// Run one workload in this process; returns its printed output and
/// whether every check passed.
fn run_one(workload: &str, opts: &Opts) -> (String, bool) {
    let mut report = Report::default();
    let mut notes = Vec::new();
    let mut checks = Checks::default();
    match workload {
        "oracle-queries" => oracle::run(opts, &mut report, &mut notes, &mut checks),
        checker_workload => {
            checker::run(checker_workload, opts, &mut report, &mut notes, &mut checks)
        }
    }
    let correct = checks.failed == 0;
    let mut out = format!(
        "# {workload} seed {} seconds {} trace {}{}\n",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.smoke { " (smoke sizes)" } else { "" }
    );
    for line in notes.iter().chain(&checks.errors) {
        out.push_str(&format!("# {line}\n"));
    }
    out.push_str(&report.lines());
    out.push_str(&report.json(correct, checks.attempted, checks.failed));
    out.push('\n');
    (out, correct)
}

/// Write the traced run's spans when `--trace-out` asked for them.
fn write_spans(spans: &spans::Spans, opts: &Opts, notes: &mut Vec<String>) {
    if let Some(path) = &opts.trace_out {
        notes.push(match spans.write_jsonl(path) {
            Ok(()) => format!("spans written to {}", path.display()),
            Err(e) => format!("could not write spans to {}: {e}", path.display()),
        });
    }
}

/// Every workload in a child process of its own, untraced and (with
/// `--trace`) traced.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traces: &[&str] = if opts.trace { &["0", "1"] } else { &["0"] };
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        for &trace in traces {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .stderr(Stdio::inherit())
                .output();
            let ok = match output {
                Ok(out) => {
                    let stdout = String::from_utf8_lossy(&out.stdout);
                    print!("{stdout}");
                    let last = stdout.lines().last().unwrap_or("");
                    out.status.success() && last.starts_with("{\"correct\": true")
                }
                Err(e) => {
                    eprintln!("cannot run {workload}: {e}");
                    false
                }
            };
            if !ok {
                failed.push(format!("{workload} (trace {trace})"));
            }
        }
    }
    if failed.is_empty() {
        println!("# all workloads passed their checks");
        ExitCode::SUCCESS
    } else {
        println!("# checks failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// Every workload at a tiny size, untraced and traced, in this process.
fn run_smoke(opts: &Opts) -> ExitCode {
    let mut all_ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                seconds: 0.0,
                trace,
                smoke: true,
                ..opts.clone()
            };
            let (out, ok) = run_one(workload, &opts);
            print!("{out}");
            all_ok &= ok;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::One(workload) => {
            let (out, _) = run_one(&workload, &opts);
            print!("{out}");
            ExitCode::SUCCESS
        }
        Mode::All => run_all(&opts),
        Mode::Smoke => run_smoke(&opts),
    }
}

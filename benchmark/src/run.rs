//! What every workload shares: options, correctness bookkeeping, the
//! closed timing loop, and the metric definitions.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::proc_status::{self, StatusError};
use crate::replay::{Profile, Timer};
use crate::report::Report;
use crate::stats::{median, percentile, quartiles, tail_percentile};

/// Timed passes made even when `--seconds` has already run out.
pub const MIN_PASSES: usize = 3;

/// Spans the traced run keeps in memory.
pub const SPAN_CAPACITY: usize = 1 << 18;

/// Options of one workload run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long to keep making timed passes.
    pub seconds: f64,
    /// Run the traced replay instead of the timed passes.
    pub trace: bool,
    /// Tiny sizes, for a quick end-to-end check.
    pub smoke: bool,
    /// Where to write the traced run's spans.
    pub trace_out: Option<PathBuf>,
}

/// Correctness bookkeeping: every checked search counts as attempted, and
/// each failed check as failed, with its reason.
#[derive(Debug, Default)]
pub struct Checks {
    /// Searches checked.
    pub attempted: u64,
    /// Searches whose output was wrong.
    pub failed: u64,
    /// Reasons, for the first few failures.
    pub errors: Vec<String>,
}

impl Checks {
    /// Count one checked search.
    pub fn job(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(format!("{what}: {reason}"));
            }
        }
    }
}

/// `Ok` when `cond` holds, else the message.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Timing percentile the end-to-end metrics report: each timing is the
/// fastest tenth of its samples over the run. On a shared host, phases in
/// which everything runs 1.3–2× slower, most of them seconds to tens of
/// seconds long, only ever add time; the median of a run follows them, a low
/// percentile follows the program.
pub const FAST_PERCENTILE: f64 = 10.0;

/// The workload's set-up, timed in batches of at least 2 ms so a
/// sub-microsecond set-up is not lost in clock jitter. It is sampled when
/// the run starts and again before every timed pass, so the samples span
/// the whole run rather than one moment of it.
pub struct SetupTimer<F> {
    build: F,
    batch: u32,
    samples: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupTimer<F> {
    /// Size the batch, take the first sample, and return one more build to
    /// use.
    pub fn start(mut build: F) -> (Self, T) {
        let mut batch = 1u32;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(build());
            }
            if start.elapsed() >= Duration::from_millis(2) || batch >= 1 << 20 {
                break;
            }
            batch *= 2;
        }
        let mut timer = SetupTimer {
            build,
            batch,
            samples: Vec::new(),
        };
        timer.sample();
        let built = (timer.build)();
        (timer, built)
    }

    /// Time one more batch.
    pub fn sample(&mut self) {
        let start = Instant::now();
        for _ in 0..self.batch {
            black_box((self.build)());
        }
        self.samples
            .push(start.elapsed().as_secs_f64() / f64::from(self.batch));
    }

    /// Time of one build in each sample, in seconds.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }
}

/// Make timed passes until `seconds` have passed and at least
/// [`MIN_PASSES`] are done. One client, one thread: each pass starts when
/// the previous one has returned.
pub fn timed_passes(seconds: f64, mut pass: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        pass();
        done += 1;
    }
}

/// Resident set size now, in bytes.
pub fn rss_now() -> Result<u64, StatusError> {
    proc_status::own("VmRSS")
}

/// What one untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each pass, in seconds (the sum of its jobs' latencies).
    pub pass_walls: Vec<f64>,
    /// States each job explores (the same on every pass; the checks see to
    /// it).
    pub job_states: Vec<f64>,
    /// Latency of each job, in seconds, as its [`FAST_PERCENTILE`] over the
    /// passes.
    pub job_latencies: Vec<f64>,
    /// Set-up time of each [`SetupTimer`] sample, in seconds.
    pub setup_samples: Vec<f64>,
}

/// The [`FAST_PERCENTILE`] of `times`.
pub fn fast(times: &[f64]) -> f64 {
    percentile(times, FAST_PERCENTILE).unwrap_or(f64::NAN)
}

fn spread(values: &[f64]) -> String {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => {
            format!(
                "IQR/median {:.2}% over {}",
                100.0 * (q3 - q1) / m,
                values.len()
            )
        }
        _ => format!("{} sample(s)", values.len()),
    }
}

/// Memory readings taken right after the untraced engine runs of a traced
/// run, before any replay allocates.
#[derive(Debug)]
pub struct Memory {
    /// `VmHWM`, in MB.
    pub peak_mb: Result<f64, String>,
    /// (`VmHWM` − the resident set size when the first job started) ÷ the
    /// states of the largest search.
    pub bytes_per_state: Result<f64, String>,
}

/// Read [`Memory`] now; `rss0` is the resident set size when the first job
/// started.
pub fn engine_memory(rss0: &Result<u64, StatusError>, largest_search: usize) -> Memory {
    let hwm = proc_status::own("VmHWM").map_err(|e| e.to_string());
    let rss0 = rss0.as_ref().map_err(|e| e.to_string());
    Memory {
        peak_mb: hwm.clone().map(|b| b as f64 / 1e6),
        bytes_per_state: hwm
            .and_then(|hwm| Ok(hwm.saturating_sub(*rss0?) as f64 / largest_search.max(1) as f64)),
    }
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub fn end_to_end(report: &mut Report, notes: &mut Vec<String>, m: &Measured) {
    let n = m.job_latencies.len();
    let tail = tail_percentile(n);
    notes.push(format!(
        "{} timed passes, pass wall {}; {n} job latencies, each the p{FAST_PERCENTILE} over the \
         passes; job_tail_ms is their p{tail}; setup_s is the median of {} samples",
        m.pass_walls.len(),
        spread(&m.pass_walls),
        m.setup_samples.len()
    ));
    // Rates divide by the summed job latencies, so they rest on the same
    // fast samples as the latency metrics.
    let busy: f64 = m.job_latencies.iter().sum();
    report.put(
        "states_per_s",
        m.job_states.iter().sum::<f64>() / busy,
        "1/s",
    );
    report.put("jobs_per_s", n as f64 / busy, "1/s");
    let ms = |v: Option<f64>| v.map_or(f64::NAN, |s| s * 1e3);
    report.put("job_p50_ms", ms(median(&m.job_latencies)), "ms");
    report.put("job_tail_ms", ms(percentile(&m.job_latencies, tail)), "ms");
    report.put("setup_s", median(&m.setup_samples).unwrap_or(f64::NAN), "s");
}

/// Totals of one traced run that the replay's [`Profile`] does not hold.
#[derive(Debug, Default)]
pub struct Traced {
    /// Untraced engine time over the traced job set, in ns.
    pub engine_ns: f64,
    /// Traced replay time over the same job set, in ns.
    pub traced_ns: f64,
    /// The same replays untimed, in ns.
    pub untimed_ns: f64,
    /// Whether the engine evaluates the task on every node (the checker
    /// does; for the oracle the task timing is a probe).
    pub task_in_engine: bool,
    /// Solo checks the checker answered from its memo.
    pub memo_hits: u64,
    /// Solo runs the workload makes outside the searches (the oracle's
    /// fast path).
    pub fast_path_runs: u64,
    /// Jobs the solo fast path answered without a search.
    pub fast_exits: u64,
    /// Engine time of each job, in ns.
    pub job_search_ns: Vec<f64>,
    /// States of each job's search.
    pub job_states: Vec<f64>,
    /// Dedup group order of each job's search.
    pub job_groups: Vec<f64>,
    /// Largest frontier over the searches.
    pub peak_frontier: usize,
    /// Canonicalizer construction per job.
    pub canon_setup: Timer,
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
pub fn per_layer(report: &mut Report, prof: &Profile, t: &Traced, clock: f64, memory: Memory) {
    let ratio = |num: f64, base: f64| if base > 0.0 { num / base } else { 0.0 };
    let edges = prof.edges as f64;
    let new = prof.new as f64;
    let step = prof.step.mean_ns(clock);
    let undo = prof.undo.mean_ns(clock);
    let keep = prof.keep.mean_ns(clock);
    let insert = prof.insert.mean_ns(clock);
    let arena = prof.arena.mean_ns(clock);
    let task = prof.task.mean_ns(clock);
    let solo = prof.solo.mean_ns(clock);
    report.put("config.step_ns", step, "ns");
    report.put("config.undo_ns", undo, "ns");
    report.put("config.keep_ns", keep, "ns");
    report.put("config.edges", edges, "count");
    report.put("dedup.insert_ns", insert, "ns");
    report.put("dedup.new_ratio", ratio(new, edges), "ratio");
    report.put(
        "dedup.fallback_per_edge",
        ratio(prof.fallback as f64, edges),
        "ratio",
    );
    report.put("dedup.group_order", mean(&t.job_groups), "count");
    report.put("search.arena_ns", arena, "ns");
    report.put("canon.key_ns", prof.key.mean_ns(clock), "ns");
    report.put("canon.setup_us", t.canon_setup.mean_ns(clock) / 1e3, "us");
    report.put("task.check_ns", task, "ns");
    report.put("runner.solo_ns", solo, "ns");
    let solo_checks = prof.solo_checks + t.fast_path_runs;
    report.put("runner.solo_checks", solo_checks as f64, "count");
    report.put(
        "explore.memo_hit_ratio",
        ratio(t.memo_hits as f64, prof.solo_checks as f64),
        "ratio",
    );
    // The engine's own work per edge that the timed layers do not cover:
    // frontier, candidate enumeration, panic isolation, the solo memo.
    let engine_solo_runs = prof.solo_checks.saturating_sub(t.memo_hits) as f64;
    let task_nodes = if t.task_in_engine {
        prof.nodes as f64
    } else {
        0.0
    };
    let layers_ns = step * edges
        + insert * edges
        + undo * (edges - new)
        + (keep + arena) * new
        + task * task_nodes
        + solo * engine_solo_runs;
    report.put(
        "engine.residual_ns_per_edge",
        ratio(t.engine_ns - layers_ns, edges),
        "ns",
    );
    report.put("engine.states", t.job_states.iter().sum(), "count");
    report.put("engine.peak_frontier", t.peak_frontier as f64, "count");
    report.put_result("engine.peak_rss_mb", memory.peak_mb, "MB");
    report.put_result("engine.rss_bytes_per_state", memory.bytes_per_state, "B");
    report.put("engine.search_us", mean(&t.job_search_ns) / 1e3, "us");
    report.put(
        "engine.states_p50",
        median(&t.job_states).unwrap_or(0.0),
        "count",
    );
    report.put(
        "valency.fast_exit_ratio",
        ratio(t.fast_exits as f64, t.job_states.len() as f64),
        "ratio",
    );
    report.put(
        "trace.overhead_frac",
        ratio(t.traced_ns, t.untimed_ns) - 1.0,
        "ratio",
    );
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

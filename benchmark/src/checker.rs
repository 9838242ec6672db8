//! The three model-checker workloads: `exact-racing`, `canon-racing` and
//! `alg1-solo`. A job is one pass over the workload's searches (for
//! `exact-racing`, every input vector; otherwise a single check).

use std::time::Instant;

use swapcons_baselines::BinaryRacing;
use swapcons_core::SwapKSet;
use swapcons_sim::canon::{CanonicalVisitedSet, DedupSet};
use swapcons_sim::explore::{CheckReport, ModelChecker};
use swapcons_sim::{Canonicalizer, Configuration, Protocol};

use crate::proc_status::StatusError;
use crate::replay::{self, Expand, Profile, Search, Visit};
use crate::report::Report;
use crate::run::{
    end_to_end, engine_memory, ensure, fast, per_layer, rss_now, timed_passes, Checks, Measured,
    Opts, SetupTimer, Traced, SPAN_CAPACITY,
};
use crate::spans::Spans;

/// What a search's report must show.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// A complete search of exactly this many states (orbits), deduplicated
    /// by a group of this order that is not degraded.
    Complete { states: usize, group: usize },
    /// A search that must pass, with no pinned count: a depth-bounded count
    /// depends on traversal order. The timed passes still check that it
    /// repeats.
    Passes,
}

#[derive(Clone, Debug)]
struct CheckSearch {
    inputs: Vec<u64>,
    checker: ModelChecker,
    expect: Expect,
}

/// One checker workload: the protocol, its timed searches, and a smaller
/// warm-up search.
struct Spec<P> {
    protocol: P,
    searches: Vec<CheckSearch>,
    warmup: (P, CheckSearch),
    /// The run group of each search, built when the search reduces by it.
    canon: Vec<Option<Canonicalizer>>,
    /// Solo-run budget of the runner probe when the checker makes no solo
    /// checks.
    probe_solo_budget: usize,
}

fn spec<P: Protocol>(
    protocol: P,
    searches: Vec<CheckSearch>,
    warmup: (P, CheckSearch),
    probe_solo_budget: usize,
) -> Spec<P> {
    let canon = searches
        .iter()
        .map(|s| {
            s.checker
                .symmetry_reduction
                .then(|| Canonicalizer::for_inputs(&protocol, &s.inputs))
        })
        .collect();
    Spec {
        protocol,
        searches,
        warmup,
        canon,
        probe_solo_budget,
    }
}

fn unbounded() -> ModelChecker {
    ModelChecker::new(usize::MAX, usize::MAX)
}

/// `exact-racing`: every input vector of two-process binary racing, exact
/// dedup, complete.
fn exact_racing(smoke: bool) -> Spec<BinaryRacing> {
    let (len, pins) = if smoke {
        (8, [375, 22_255, 22_255, 375])
    } else {
        (20, [375, 327_539, 327_539, 375])
    };
    let searches = (0..4u64)
        .zip(pins)
        .map(|(v, states)| CheckSearch {
            inputs: vec![v & 1, v >> 1],
            checker: unbounded(),
            expect: Expect::Complete { states, group: 1 },
        })
        .collect();
    let warm_len = if smoke { 6 } else { 12 };
    let warmup = CheckSearch {
        inputs: vec![1, 0],
        checker: unbounded(),
        expect: Expect::Passes,
    };
    let protocol = BinaryRacing::with_track_len(2, len);
    let probe = protocol.solo_step_bound();
    spec(
        protocol,
        searches,
        (BinaryRacing::with_track_len(2, warm_len), warmup),
        probe,
    )
}

/// `canon-racing`: binary racing on unanimous inputs, reduced by the whole
/// process-permutation group, complete.
fn canon_racing(smoke: bool) -> Spec<BinaryRacing> {
    let (n, len, states, group) = if smoke {
        (4, 7, 19_096, 24)
    } else {
        (5, 8, 179_256, 120)
    };
    let reduced = unbounded().with_symmetry_reduction();
    let search = CheckSearch {
        inputs: vec![0; n],
        checker: reduced,
        expect: Expect::Complete { states, group },
    };
    let warmup = CheckSearch {
        inputs: vec![0; n - 1],
        checker: reduced,
        expect: Expect::Passes,
    };
    let protocol = BinaryRacing::with_track_len(n, len);
    let probe = protocol.solo_step_bound();
    spec(
        protocol,
        vec![search],
        (BinaryRacing::with_track_len(n - 1, len), warmup),
        probe,
    )
}

/// `alg1-solo`: Algorithm 1 for four processes with the Lemma 8
/// solo-termination check on every state, depth-bounded.
fn alg1_solo(smoke: bool) -> Spec<SwapKSet> {
    let protocol = SwapKSet::consensus(4, 2);
    let bound = protocol.solo_step_bound();
    let (depth, warm_depth) = if smoke { (10, 6) } else { (16, 12) };
    let search = |depth| CheckSearch {
        inputs: vec![0, 1, 1, 1],
        checker: ModelChecker::new(depth, usize::MAX).with_solo_budget(bound),
        expect: Expect::Passes,
    };
    spec(
        protocol,
        vec![search(depth)],
        (protocol, search(warm_depth)),
        bound,
    )
}

fn verify(s: &CheckSearch, r: &CheckReport) -> Result<(), String> {
    ensure(r.passed(), || format!("verdict is not a pass: {r}"))?;
    match s.expect {
        Expect::Complete { states, group } => ensure(
            r.complete && r.states == states && r.symmetry_group == group && !r.symmetry_degraded,
            || format!("expected {states} states, complete, |G| = {group}, not degraded; got {r}"),
        ),
        Expect::Passes => Ok(()),
    }
}

/// Run one checker workload.
pub fn run(
    name: &str,
    opts: &Opts,
    report: &mut Report,
    notes: &mut Vec<String>,
    checks: &mut Checks,
) {
    match name {
        "exact-racing" => run_spec(|| exact_racing(opts.smoke), opts, report, notes, checks),
        "canon-racing" => run_spec(|| canon_racing(opts.smoke), opts, report, notes, checks),
        _ => run_spec(|| alg1_solo(opts.smoke), opts, report, notes, checks),
    }
}

fn run_spec<P: Protocol>(
    build: impl FnMut() -> Spec<P>,
    opts: &Opts,
    report: &mut Report,
    notes: &mut Vec<String>,
    checks: &mut Checks,
) {
    let (mut setup, spec) = SetupTimer::start(build);
    // Only the traced run reads memory, from before its first job.
    let rss0 = opts.trace.then(rss_now);
    let (warm_protocol, warm) = &spec.warmup;
    let r = warm.checker.check(warm_protocol, &warm.inputs);
    checks.job("warm-up", verify(warm, &r));
    if let Some(rss0) = rss0 {
        trace(&spec, &rss0, opts, report, notes, checks);
        return;
    }
    let mut m = Measured::default();
    let mut first_counts: Vec<usize> = Vec::new();
    timed_passes(opts.seconds, || {
        setup.sample();
        let mut wall = 0.0;
        for (i, s) in spec.searches.iter().enumerate() {
            let start = Instant::now();
            let r = s.checker.check(&spec.protocol, &s.inputs);
            wall += start.elapsed().as_secs_f64();
            if first_counts.len() == i {
                first_counts.push(r.states);
            }
            let repeated = ensure(r.states == first_counts[i], || {
                format!("{} states, {} on the first pass", r.states, first_counts[i])
            });
            checks.job(
                &format!("check {:?}", s.inputs),
                verify(s, &r).and(repeated),
            );
        }
        m.pass_walls.push(wall);
    });
    m.job_states = vec![first_counts.iter().sum::<usize>() as f64];
    m.job_latencies = vec![fast(&m.pass_walls)];
    m.setup_samples = setup.into_samples();
    end_to_end(report, notes, &m);
}

/// The traced run: every search three times through the engine, untraced
/// (median wall), then once through the replay untimed and once timed;
/// the replay's counts must match the engine's report.
fn trace<P: Protocol>(
    spec: &Spec<P>,
    rss0: &Result<u64, StatusError>,
    opts: &Opts,
    report: &mut Report,
    notes: &mut Vec<String>,
    checks: &mut Checks,
) {
    let p = &spec.protocol;
    let mut t = Traced {
        task_in_engine: true,
        ..Traced::default()
    };
    let mut engine_reports = Vec::new();
    for s in &spec.searches {
        let mut walls = Vec::new();
        let mut engine = None;
        for _ in 0..3 {
            let start = Instant::now();
            engine = Some(s.checker.check(p, &s.inputs));
            walls.push(start.elapsed().as_nanos() as f64);
        }
        let engine = engine.expect("three engine runs");
        checks.job(&format!("check {:?}", s.inputs), verify(s, &engine));
        let wall = crate::stats::median(&walls).unwrap_or(0.0);
        t.engine_ns += wall;
        t.memo_hits += engine.solo_memo_hits as u64;
        t.job_search_ns.push(wall);
        t.job_states.push(engine.states as f64);
        t.job_groups.push(engine.symmetry_group as f64);
        t.peak_frontier = t.peak_frontier.max(engine.peak_frontier);
        engine_reports.push(engine);
    }
    let largest = engine_reports.iter().map(|r| r.states).max().unwrap_or(0);
    let memory = engine_memory(rss0, largest);

    let clock = replay::clock_ns();
    let mut prof = Profile {
        timed: true,
        ..Profile::default()
    };
    let mut spans = Spans::new(Instant::now(), SPAN_CAPACITY);
    let jobs = spec.searches.iter().zip(&spec.canon).zip(&engine_reports);
    for (job, ((s, canon), engine)) in jobs.enumerate() {
        let job = job as u32;
        let run_group = Profile::time_call(
            &mut t.canon_setup,
            &mut spans,
            "canon.setup",
            Spans::NONE,
            job,
            || Canonicalizer::for_inputs(p, &s.inputs),
        );
        let probe = CanonicalVisitedSet::new(run_group);
        let search = Search {
            max_depth: s.checker.max_depth,
            max_states: s.checker.max_states,
            expand: Expand::AllRunning,
        };
        // The engine's dedup set for this search, and its visitor.
        let replay_once = |prof: &mut Profile, spans: &mut Spans| {
            let capacity = s.checker.max_states.min(1 << 14);
            let mut dedup = match canon {
                Some(c) => DedupSet::reduced(c.clone(), capacity),
                None => DedupSet::exact(capacity),
            };
            let mut visit = Visit::Check {
                task: p.task(),
                inputs: &s.inputs,
                solo: match s.checker.solo_budget {
                    Some(b) => (b, true),
                    None => (spec.probe_solo_budget, false),
                },
            };
            let root = Configuration::initial(p, &s.inputs).expect("workload inputs are valid");
            let start = Instant::now();
            let out = replay::replay(
                p,
                root,
                &mut dedup,
                &probe,
                search,
                &mut visit,
                prof,
                spans,
                Spans::NONE,
                job,
            );
            (out, start.elapsed().as_nanos() as f64)
        };
        let (_, untimed_ns) =
            replay_once(&mut Profile::default(), &mut Spans::new(Instant::now(), 0));
        let (out, traced_ns) = replay_once(&mut prof, &mut spans);
        t.untimed_ns += untimed_ns;
        t.traced_ns += traced_ns;
        let parity = out.and_then(|o| {
            let complete = !o.depth_truncated && !o.budget_truncated;
            ensure(
                o.visited == engine.states
                    && o.states == engine.states
                    && o.terminal == engine.terminal_states
                    && o.deepest == engine.deepest
                    && o.peak_frontier == engine.peak_frontier
                    && complete == engine.complete,
                || format!("replay {o:?} does not match the engine's report {engine}"),
            )
        });
        checks.job(&format!("replay {:?}", s.inputs), parity);
    }
    notes.push(format!(
        "traced replay: {} nodes, {} edges, 1 in {} timed; clock read {clock:.1} ns subtracted",
        prof.nodes,
        prof.edges,
        replay::SAMPLE
    ));
    per_layer(report, &prof, &t, clock, memory);
    crate::write_spans(&spans, opts, notes);
}

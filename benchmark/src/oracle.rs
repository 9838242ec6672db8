//! `oracle-queries`: many small Section-5-shaped valency queries. A job is
//! one query.

use std::collections::BTreeSet;
use std::time::Instant;

use swapcons_baselines::BinaryRacing;
use swapcons_lower::valency::{Valency, ValencyOracle, ValencyResult};
use swapcons_sim::canon::{apply_renaming, CanonicalVisitedSet, DedupSet};
use swapcons_sim::runner::{self, solo_run_cloned};
use swapcons_sim::scheduler::SeededRandom;
use swapcons_sim::{Canonicalizer, Configuration, ProcessId};

use crate::proc_status::StatusError;
use crate::replay::{self, Expand, Profile, Search, Visit};
use crate::report::Report;
use crate::run::{
    end_to_end, engine_memory, ensure, fast, per_layer, rss_now, timed_passes, Checks, Measured,
    Opts, SetupTimer, Traced, SPAN_CAPACITY,
};
use crate::spans::Spans;

/// The queried pair: the Section 5 construction's `{q0, q1}`, holding
/// inputs 0 and 1.
const GROUP: [ProcessId; 2] = [ProcessId(0), ProcessId(1)];
const INPUTS: [u64; 5] = [0, 1, 0, 1, 0];
/// Longest random schedule leading to a queried configuration.
const MAX_PREFIX: u64 = 80;

struct Spec {
    protocol: BinaryRacing,
    oracle: ValencyOracle,
    queries: Vec<Configuration<BinaryRacing>>,
    warmup: usize,
}

/// SplitMix64: the query set is a pure function of the seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The configuration a seeded random schedule of all five processes
/// reaches. A prefix is kept only if some queried process still runs and
/// can decide alone within the depth bound; otherwise (both have decided,
/// or both tracks have grown past the point where the margin can still be
/// reached, so no answer is definite) it is halved until one can.
fn query_config(
    protocol: &BinaryRacing,
    oracle: &ValencyOracle,
    initial: &Configuration<BinaryRacing>,
    (schedule_seed, mut len): (u64, usize),
) -> Configuration<BinaryRacing> {
    loop {
        let mut config = initial.clone();
        runner::run(
            protocol,
            &mut config,
            &mut SeededRandom::new(schedule_seed),
            len,
        )
        .expect("racing steps are schema-valid");
        let answerable = GROUP.iter().any(|&q| {
            config.decision(q).is_none()
                && solo_run_cloned(protocol, &config, q, oracle.max_depth).is_ok()
        });
        if answerable {
            return config;
        }
        len /= 2;
    }
}

fn spec(seed: u64, smoke: bool) -> Spec {
    let protocol = BinaryRacing::with_track_len(5, 10);
    let oracle = ValencyOracle::new(150, 60_000).with_symmetry_reduction();
    let initial = Configuration::initial(&protocol, &INPUTS).expect("inputs are binary");
    // With 4000 queries the median search size moves by under 1% from seed
    // to seed; with 1000 it moved by 5%, and the latency metrics with it.
    let count = if smoke { 40 } else { 4000 };
    let mut state = seed;
    let queries = (0..count)
        .map(|_| {
            let schedule_seed = next(&mut state);
            let len = (next(&mut state) % (MAX_PREFIX + 1)) as usize;
            query_config(&protocol, &oracle, &initial, (schedule_seed, len))
        })
        .collect();
    Spec {
        protocol,
        oracle,
        queries,
        warmup: count / 10,
    }
}

/// What must repeat exactly on every pass. Plain data, so keeping one per
/// query allocates nothing between the timed queries.
#[derive(Debug, PartialEq, Eq)]
struct Answer {
    verdict: Valency,
    /// Witnessed values as a bit set (the task is binary).
    values: u64,
    states: usize,
    exhaustive: bool,
}

fn value_bits(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(0, |bits, v| bits | 1 << v.min(63))
}

fn answer(r: &ValencyResult) -> Answer {
    Answer {
        verdict: r.verdict(),
        values: value_bits(r.witnesses.keys().copied()),
        states: r.states,
        exhaustive: r.exhaustive,
    }
}

/// A definite verdict, and every witness schedule replays to its value.
fn verify(
    p: &BinaryRacing,
    config: &Configuration<BinaryRacing>,
    r: &ValencyResult,
) -> Result<(), String> {
    ensure(r.verdict() != Valency::Unknown, || {
        format!("verdict unknown: {r:?}")
    })?;
    for (&v, schedule) in &r.witnesses {
        let mut c = config.clone();
        let history = runner::replay(p, &mut c, schedule).map_err(|e| e.to_string())?;
        ensure(history.decisions().iter().any(|&(_, d)| d == v), || {
            format!("witness {schedule:?} does not decide {v}")
        })?;
    }
    Ok(())
}

/// Run the workload.
pub fn run(opts: &Opts, report: &mut Report, notes: &mut Vec<String>, checks: &mut Checks) {
    let (mut setup, spec) = SetupTimer::start(|| spec(opts.seed, opts.smoke));
    // Only the traced run reads memory, from before its first job.
    let rss0 = opts.trace.then(rss_now);
    let p = &spec.protocol;
    for (i, q) in spec.queries[..spec.warmup].iter().enumerate() {
        let r = spec.oracle.query(p, q, &GROUP);
        checks.job(&format!("warm-up query {i}"), verify(p, q, &r));
    }
    if let Some(rss0) = rss0 {
        trace(&spec, &rss0, opts, report, notes, checks);
        return;
    }
    let n = spec.queries.len();
    let mut m = Measured::default();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut first: Vec<Answer> = Vec::with_capacity(n);
    timed_passes(opts.seconds, || {
        setup.sample();
        let first_pass = first.is_empty();
        let mut latencies = Vec::with_capacity(n);
        for (i, q) in spec.queries.iter().enumerate() {
            let start = Instant::now();
            let r = spec.oracle.query(p, q, &GROUP);
            latencies.push(start.elapsed().as_secs_f64());
            // Checked between queries, outside the timed span, so no pass
            // holds more than one result.
            let a = answer(&r);
            if first_pass {
                checks.job(&format!("query {i}"), verify(p, q, &r));
                first.push(a);
            } else {
                let b = &first[i];
                checks.job(
                    &format!("query {i}"),
                    ensure(&a == b, || format!("answer moved: {b:?} vs {a:?}")),
                );
            }
        }
        m.pass_walls.push(latencies.iter().sum());
        passes.push(latencies);
    });
    m.job_states = first.iter().map(|a| a.states as f64).collect();
    m.job_latencies = (0..n)
        .map(|i| fast(&passes.iter().map(|l| l[i]).collect::<Vec<_>>()))
        .collect();
    m.setup_samples = setup.into_samples();
    end_to_end(report, notes, &m);
}

/// The traced run: per query, spans around the stabilizer set-up, the solo
/// fast path and the query itself; a replay of the query's search whose
/// counts must match; and the same query without reduction, whose verdict
/// must agree.
fn trace(
    spec: &Spec,
    rss0: &Result<u64, StatusError>,
    opts: &Opts,
    report: &mut Report,
    notes: &mut Vec<String>,
    checks: &mut Checks,
) {
    let p = &spec.protocol;
    let o = &spec.oracle;
    // One untraced pass first, so the memory reading covers the engine
    // alone.
    let largest = spec
        .queries
        .iter()
        .map(|q| o.query(p, q, &GROUP).states)
        .max();
    let memory = engine_memory(rss0, largest.unwrap_or(0));
    let clock = replay::clock_ns();
    let mut prof = Profile {
        timed: true,
        ..Profile::default()
    };
    let mut spans = Spans::new(Instant::now(), SPAN_CAPACITY);
    let mut t = Traced::default();
    let probe = CanonicalVisitedSet::new(Canonicalizer::for_inputs(p, &INPUTS));
    let unreduced = ValencyOracle::new(o.max_depth, o.max_states);
    for (job, q) in spec.queries.iter().enumerate() {
        let job = job as u32;
        let span = spans.open("query", Spans::NONE, job);
        let start = Instant::now();
        let canon = Profile::time_call(
            &mut t.canon_setup,
            &mut spans,
            "canon.setup",
            span,
            job,
            || {
                let mut canon = Canonicalizer::for_inputs(p, q.inputs());
                canon.retain(|g| g.stabilizes(&GROUP) && apply_renaming(p, g, q) == *q);
                canon
            },
        );
        let mut values = BTreeSet::new();
        for &pid in GROUP.iter().filter(|&&pid| q.decision(pid).is_none()) {
            t.fast_path_runs += 1;
            let solo =
                Profile::time_call(&mut prof.solo, &mut spans, "runner.solo", span, job, || {
                    solo_run_cloned(p, q, pid, o.max_depth)
                });
            if let Ok((out, _)) = solo {
                values.insert(out.decision);
            }
        }
        let before_query = Instant::now();
        let r = o.query(p, q, &GROUP);
        let end = Instant::now();
        spans.record("valency.query", before_query, end, span, job);
        checks.job(&format!("query {job}"), verify(p, q, &r));
        let overhead = before_query.duration_since(start).as_nanos() as f64;
        let search_ns = (end.duration_since(before_query).as_nanos() as f64 - overhead).max(0.0);
        t.job_search_ns.push(search_ns);
        t.job_states.push(r.states as f64);
        t.job_groups.push(r.symmetry_group as f64);
        if values.len() >= 2 {
            t.fast_exits += 1;
            checks.job(
                &format!("fast path {job}"),
                ensure(r.states == 0, || format!("{r:?}")),
            );
        } else {
            t.engine_ns += search_ns;
            let search = Search {
                max_depth: o.max_depth,
                max_states: o.max_states,
                expand: Expand::Group(&GROUP),
            };
            // The query's dedup set, and its visitor seeded with the fast
            // path's values.
            let replay_once = |prof: &mut Profile, spans: &mut Spans| {
                let mut dedup = DedupSet::reduced(canon.clone(), o.max_states.min(1 << 14));
                let mut visit = Visit::Oracle {
                    values: values.clone(),
                };
                let start = Instant::now();
                let out = replay::replay(
                    p,
                    q.clone(),
                    &mut dedup,
                    &probe,
                    search,
                    &mut visit,
                    prof,
                    spans,
                    span,
                    job,
                );
                let Visit::Oracle { values } = visit else {
                    unreachable!("the oracle replay keeps its visitor")
                };
                (out, values, start.elapsed().as_nanos() as f64)
            };
            let (_, _, untimed_ns) =
                replay_once(&mut Profile::default(), &mut Spans::new(Instant::now(), 0));
            let (out, values, traced_ns) = replay_once(&mut prof, &mut spans);
            t.untimed_ns += untimed_ns;
            t.traced_ns += traced_ns;
            let mut closed = values.clone();
            for g in canon.renamings() {
                closed.extend(values.iter().map(|&v| g.value(v)));
            }
            let parity = out.and_then(|out| {
                t.peak_frontier = t.peak_frontier.max(out.peak_frontier);
                let exhaustive = !out.depth_truncated && !out.budget_truncated && !out.stopped;
                ensure(
                    out.states == r.states
                        && exhaustive == r.exhaustive
                        && value_bits(closed.iter().copied()) == answer(&r).values,
                    || format!("replay {out:?} with values {closed:?} does not match {r:?}"),
                )
            });
            checks.job(&format!("replay {job}"), parity);
        }
        let full = unreduced.query(p, q, &GROUP);
        checks.job(
            &format!("unreduced {job}"),
            ensure(
                full.verdict() == r.verdict() && answer(&full).values == answer(&r).values,
                || format!("reduced {r:?} vs unreduced {full:?}"),
            ),
        );
        spans.close(span);
    }
    notes.push(format!(
        "traced {} queries ({} answered by the solo fast path); replay {} nodes, {} edges, 1 in {} timed",
        spec.queries.len(),
        t.fast_exits,
        prof.nodes,
        prof.edges,
        replay::SAMPLE
    ));
    per_layer(report, &prof, &t, clock, memory);
    crate::write_spans(&spans, opts, notes);
}

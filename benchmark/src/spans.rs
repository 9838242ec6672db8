//! Sampled spans of the traced run, kept in bounded memory and written as
//! JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; [`Spans::NONE`] marks "no parent" and spans
/// dropped past the capacity.
pub type SpanId = u32;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    job: u32,
}

/// A bounded span recorder: once `capacity` spans are held, further spans
/// are counted as dropped instead of stored.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl Spans {
    /// The parent of root spans, and the id of a dropped span.
    pub const NONE: SpanId = SpanId::MAX;

    /// A recorder holding at most `capacity` spans, timed from `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        job: u32,
    ) -> SpanId {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return Self::NONE;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            job,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Open a span whose end is set later by [`Spans::close`], so its
    /// children can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: SpanId, job: u32) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, job)
    }

    /// Set the end of an opened span to now.
    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end;
        }
    }

    /// Total self time and span count per span name: a span's duration
    /// minus the time its direct children cover.
    pub fn self_time(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(s.name).or_insert((0, 0));
            entry.0 += (s.end_ns - s.start_ns).saturating_sub(children);
            entry.1 += 1;
        }
        out
    }

    /// Write every span, then one self-time line per layer, then the count
    /// of dropped spans, as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == Self::NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        for (layer, (self_ns, count)) in self.self_time() {
            writeln!(
                out,
                "{{\"layer\": \"{layer}\", \"self_ns\": {self_ns}, \"spans\": {count}}}"
            )?;
        }
        writeln!(out, "{{\"dropped_spans\": {}}}", self.dropped)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children_and_capacity_bounds_memory() {
        let t0 = Instant::now();
        let at = |ns| t0 + Duration::from_nanos(ns);
        let mut spans = Spans::new(t0, 3);
        let edge = spans.record("edge", at(0), at(100), Spans::NONE, 7);
        spans.record("config.step", at(10), at(40), edge, 7);
        spans.record("dedup.insert", at(50), at(90), edge, 7);
        assert_eq!(
            spans.record("search.arena", at(91), at(95), edge, 7),
            Spans::NONE
        );
        let self_time = spans.self_time();
        assert_eq!(self_time["edge"], (30, 1));
        assert_eq!(self_time["config.step"], (30, 1));
        assert_eq!(self_time["dedup.insert"], (40, 1));
        assert_eq!(spans.dropped, 1);
    }
}

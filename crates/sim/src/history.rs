//! Execution histories: the sequence of operations applied during an
//! execution, with responses and the processes that applied them (Section 2
//! of the paper defines the history of an execution exactly this way).

use std::collections::HashSet;
use std::fmt;

use swapcons_objects::{ObjectOp, Response};

use crate::ids::{ObjectId, ProcessId};

/// One step of an execution: the process, the operation it applied, the
/// object it targeted, the response it received, and the decision it made
/// (if this step decided).
#[derive(Clone, PartialEq, Eq)]
pub struct StepRecord<V> {
    /// The stepping process.
    pub pid: ProcessId,
    /// The object targeted.
    pub object: ObjectId,
    /// The operation applied.
    pub op: ObjectOp<V>,
    /// The response received.
    pub response: Response<V>,
    /// The value decided by this step, if any.
    pub decided: Option<u64>,
}

impl<V: fmt::Debug> fmt::Debug for StepRecord<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} {:?} on {:?} -> {:?}",
            self.pid, self.op, self.object, self.response
        )?;
        if let Some(d) = self.decided {
            write!(f, " (decides {d})")?;
        }
        Ok(())
    }
}

/// The history of a finite execution: an ordered sequence of steps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct History<V> {
    steps: Vec<StepRecord<V>>,
}

impl<V> History<V> {
    /// An empty history.
    pub fn new() -> Self {
        History { steps: Vec::new() }
    }

    /// Append a step.
    pub fn push(&mut self, step: StepRecord<V>) {
        self.steps.push(step);
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Iterate over the steps in order.
    pub fn iter(&self) -> std::slice::Iter<'_, StepRecord<V>> {
        self.steps.iter()
    }

    /// The steps as a slice.
    pub fn steps(&self) -> &[StepRecord<V>] {
        &self.steps
    }

    /// Whether the history is `P`-only (contains steps only by processes in
    /// `pids`).
    pub fn is_only_by(&self, pids: &[ProcessId]) -> bool {
        let set: HashSet<ProcessId> = pids.iter().copied().collect();
        self.steps.iter().all(|s| set.contains(&s.pid))
    }

    /// The set of processes that took steps.
    pub fn participants(&self) -> HashSet<ProcessId> {
        self.steps.iter().map(|s| s.pid).collect()
    }

    /// Steps per process, in order.
    pub fn steps_by(&self, pid: ProcessId) -> impl Iterator<Item = &StepRecord<V>> {
        self.steps.iter().filter(move |s| s.pid == pid)
    }

    /// Number of steps taken by `pid`.
    pub fn step_count_of(&self, pid: ProcessId) -> usize {
        self.steps_by(pid).count()
    }

    /// Decisions recorded in this history, in order.
    pub fn decisions(&self) -> Vec<(ProcessId, u64)> {
        self.steps
            .iter()
            .filter_map(|s| s.decided.map(|d| (s.pid, d)))
            .collect()
    }

    /// Concatenate another history onto this one.
    pub fn extend(&mut self, other: History<V>) {
        self.steps.extend(other.steps);
    }
}

impl<V> IntoIterator for History<V> {
    type Item = StepRecord<V>;
    type IntoIter = std::vec::IntoIter<StepRecord<V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.steps.into_iter()
    }
}

impl<V> FromIterator<StepRecord<V>> for History<V> {
    fn from_iter<I: IntoIterator<Item = StepRecord<V>>>(iter: I) -> Self {
        History {
            steps: iter.into_iter().collect(),
        }
    }
}

impl<V> Extend<StepRecord<V>> for History<V> {
    fn extend<I: IntoIterator<Item = StepRecord<V>>>(&mut self, iter: I) {
        self.steps.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pid: usize, obj: usize, op: ObjectOp<u64>, resp: Response<u64>) -> StepRecord<u64> {
        StepRecord {
            pid: ProcessId(pid),
            object: ObjectId(obj),
            op,
            response: resp,
            decided: None,
        }
    }

    #[test]
    fn accessors_over_a_small_history() {
        let mut h = History::new();
        assert!(h.is_empty());
        h.push(rec(0, 0, ObjectOp::swap(1), Response::Value(0)));
        h.push(rec(1, 1, ObjectOp::read(), Response::Value(0)));
        h.push(rec(0, 1, ObjectOp::write(2), Response::Ack));
        assert_eq!(h.len(), 3);
        assert_eq!(h.step_count_of(ProcessId(0)), 2);
        assert_eq!(h.participants().len(), 2);
    }

    #[test]
    fn only_by_checks_participants() {
        let mut h = History::new();
        h.push(rec(2, 0, ObjectOp::read(), Response::Value(0)));
        assert!(h.is_only_by(&[ProcessId(2)]));
        assert!(h.is_only_by(&[ProcessId(1), ProcessId(2)]));
        assert!(!h.is_only_by(&[ProcessId(1)]));
        assert!(History::<u64>::new().is_only_by(&[]));
    }

    #[test]
    fn decisions_extracted_in_order() {
        let mut h = History::new();
        let mut r = rec(0, 0, ObjectOp::swap(1), Response::Value(0));
        r.decided = Some(7);
        h.push(r);
        let mut r = rec(1, 0, ObjectOp::swap(2), Response::Value(1));
        r.decided = Some(9);
        h.push(r);
        assert_eq!(h.decisions(), vec![(ProcessId(0), 7), (ProcessId(1), 9)]);
    }

    #[test]
    fn concat_and_collect() {
        let a: History<u64> = vec![rec(0, 0, ObjectOp::read(), Response::Value(0))]
            .into_iter()
            .collect();
        let mut b = History::new();
        b.push(rec(1, 0, ObjectOp::read(), Response::Value(0)));
        let mut ab = a.clone();
        ab.extend(b);
        assert_eq!(ab.len(), 2);
        assert_eq!(ab.steps()[0].pid, ProcessId(0));
        assert_eq!(ab.steps()[1].pid, ProcessId(1));
    }

    #[test]
    fn debug_format_mentions_decision() {
        let mut r = rec(0, 0, ObjectOp::swap(1), Response::Value(0));
        r.decided = Some(3);
        let s = format!("{r:?}");
        assert!(s.contains("decides 3"), "{s}");
    }
}

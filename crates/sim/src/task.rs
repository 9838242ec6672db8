//! Task specifications and output predicates.
//!
//! The paper's problems are the m-valued k-set agreement family (Section 2):
//! consensus is 1-set agreement, binary consensus is 2-valued consensus.
//! [`KSetTask`] carries the parameters and implements the two correctness
//! predicates every algorithm must satisfy:
//!
//! * **k-Agreement** — no more than `k` values are decided;
//! * **Validity** — every decided value was some process's input.

use std::collections::HashSet;
use std::fmt;

/// Parameters of an `m`-valued `k`-set agreement task for `n` processes.
///
/// # Example
///
/// ```
/// use swapcons_sim::KSetTask;
///
/// let task = KSetTask::consensus(4); // 4-process binary consensus
/// assert_eq!(task.k, 1);
/// assert!(task.check(&[0, 1, 0, 1], &[Some(1), Some(1), None, Some(1)]).is_ok());
/// assert!(task.check(&[0, 1, 0, 1], &[Some(0), Some(1), None, None]).is_err());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KSetTask {
    /// Number of processes.
    pub n: usize,
    /// Maximum number of distinct decided values.
    pub k: usize,
    /// Input domain size: inputs come from `{0, …, m-1}`.
    pub m: u64,
}

impl KSetTask {
    /// `n`-process `m`-valued `k`-set agreement.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k == 0`, which do not define a task.
    pub fn new(n: usize, k: usize, m: u64) -> Self {
        assert!(n > 0, "a task needs at least one process");
        assert!(k > 0, "k-set agreement requires k >= 1");
        KSetTask { n, k, m }
    }

    /// `n`-process binary consensus (`k = 1`, `m = 2`).
    pub fn consensus(n: usize) -> Self {
        KSetTask::new(n, 1, 2)
    }

    /// The task is trivial when `m <= k` (everyone can decide their input) —
    /// Section 2 notes m-valued k-set agreement is trivial if `m <= k`.
    pub fn is_trivial(&self) -> bool {
        self.m <= self.k as u64
    }

    /// Validate an input assignment: one input per process, each in
    /// `{0, …, m-1}`.
    ///
    /// # Errors
    ///
    /// Returns a [`TaskViolation`] describing the first offending input.
    pub fn check_inputs(&self, inputs: &[u64]) -> Result<(), TaskViolation> {
        if inputs.len() != self.n {
            return Err(TaskViolation::WrongInputCount {
                expected: self.n,
                got: inputs.len(),
            });
        }
        for (i, &v) in inputs.iter().enumerate() {
            if v >= self.m {
                return Err(TaskViolation::InputOutOfRange {
                    process: i,
                    input: v,
                    m: self.m,
                });
            }
        }
        Ok(())
    }

    /// Check k-agreement over the decided values (`None` = undecided).
    ///
    /// # Errors
    ///
    /// Returns [`TaskViolation::Agreement`] listing the decided set when more
    /// than `k` distinct values were decided.
    pub fn check_agreement(&self, decisions: &[Option<u64>]) -> Result<(), TaskViolation> {
        let decided: HashSet<u64> = decisions.iter().flatten().copied().collect();
        if decided.len() > self.k {
            let mut values: Vec<u64> = decided.into_iter().collect();
            values.sort_unstable();
            return Err(TaskViolation::Agreement {
                k: self.k,
                decided: values,
            });
        }
        Ok(())
    }

    /// Check validity: every decided value is some process's input.
    ///
    /// # Errors
    ///
    /// Returns [`TaskViolation::Validity`] naming the first decided value
    /// that is nobody's input.
    pub fn check_validity(
        &self,
        inputs: &[u64],
        decisions: &[Option<u64>],
    ) -> Result<(), TaskViolation> {
        let input_set: HashSet<u64> = inputs.iter().copied().collect();
        for (i, d) in decisions.iter().enumerate() {
            if let Some(v) = d {
                if !input_set.contains(v) {
                    return Err(TaskViolation::Validity {
                        process: i,
                        decided: *v,
                    });
                }
            }
        }
        Ok(())
    }

    /// Check both safety predicates at once.
    ///
    /// # Errors
    ///
    /// Returns the first violated predicate.
    pub fn check(&self, inputs: &[u64], decisions: &[Option<u64>]) -> Result<(), TaskViolation> {
        self.check_decisions(inputs, decisions.iter().copied())
    }

    /// [`KSetTask::check`] over an iterator of decisions — the hot-path form
    /// used by the model checker on every visited configuration. Allocates
    /// nothing on the success path: distinct decided values are tracked in
    /// an inline buffer (spilling to a heap set only past 16 distinct
    /// values) and validity is a linear scan of `inputs`.
    ///
    /// # Errors
    ///
    /// Returns the first violated predicate, like [`KSetTask::check`]
    /// (agreement before validity).
    pub fn check_decisions<I>(&self, inputs: &[u64], decisions: I) -> Result<(), TaskViolation>
    where
        I: Iterator<Item = Option<u64>> + Clone,
    {
        const INLINE: usize = 16;
        let mut inline = [0u64; INLINE];
        let mut count = 0usize;
        let mut spill: Option<HashSet<u64>> = None;
        for v in decisions.clone().flatten() {
            match &mut spill {
                Some(set) => {
                    set.insert(v);
                }
                None if inline[..count].contains(&v) => {}
                None if count < INLINE => {
                    inline[count] = v;
                    count += 1;
                }
                None => {
                    let mut set: HashSet<u64> = inline.iter().copied().collect();
                    set.insert(v);
                    spill = Some(set);
                }
            }
        }
        let distinct = spill.as_ref().map_or(count, |s| s.len());
        if distinct > self.k {
            let mut values: Vec<u64> = match spill {
                Some(set) => set.into_iter().collect(),
                None => inline[..count].to_vec(),
            };
            values.sort_unstable();
            return Err(TaskViolation::Agreement {
                k: self.k,
                decided: values,
            });
        }
        for (i, d) in decisions.enumerate() {
            if let Some(v) = d {
                if !inputs.contains(&v) {
                    return Err(TaskViolation::Validity {
                        process: i,
                        decided: v,
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for KSetTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-process {}-valued {}-set agreement",
            self.n, self.m, self.k
        )
    }
}

/// A violated task predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskViolation {
    /// The input vector length does not match `n`.
    WrongInputCount {
        /// Expected number of inputs (`n`).
        expected: usize,
        /// Provided number of inputs.
        got: usize,
    },
    /// An input lies outside `{0, …, m-1}`.
    InputOutOfRange {
        /// Offending process index.
        process: usize,
        /// Offending input.
        input: u64,
        /// Domain size.
        m: u64,
    },
    /// More than `k` distinct values decided.
    Agreement {
        /// The task's `k`.
        k: usize,
        /// The decided values, sorted.
        decided: Vec<u64>,
    },
    /// A process decided a value that was nobody's input.
    Validity {
        /// Offending process index.
        process: usize,
        /// The invalid decision.
        decided: u64,
    },
}

impl fmt::Display for TaskViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskViolation::WrongInputCount { expected, got } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
            TaskViolation::InputOutOfRange { process, input, m } => {
                write!(f, "process {process} has input {input} outside {{0..{m}}}")
            }
            TaskViolation::Agreement { k, decided } => {
                write!(
                    f,
                    "{} distinct values decided, exceeding k = {k}: {decided:?}",
                    decided.len()
                )
            }
            TaskViolation::Validity { process, decided } => {
                write!(
                    f,
                    "process {process} decided {decided}, which is nobody's input"
                )
            }
        }
    }
}

impl std::error::Error for TaskViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consensus_shorthand() {
        let t = KSetTask::consensus(5);
        assert_eq!((t.n, t.k, t.m), (5, 1, 2));
        assert!(!t.is_trivial());
        assert_eq!(t.to_string(), "5-process 2-valued 1-set agreement");
    }

    #[test]
    fn trivial_when_m_le_k() {
        assert!(KSetTask::new(5, 3, 3).is_trivial());
        assert!(KSetTask::new(5, 3, 2).is_trivial());
        assert!(!KSetTask::new(5, 3, 4).is_trivial());
    }

    #[test]
    #[should_panic(expected = "k-set agreement requires k >= 1")]
    fn zero_k_rejected() {
        let _ = KSetTask::new(3, 0, 2);
    }

    #[test]
    fn input_validation() {
        let t = KSetTask::new(3, 1, 2);
        assert!(t.check_inputs(&[0, 1, 1]).is_ok());
        assert!(matches!(
            t.check_inputs(&[0, 1]),
            Err(TaskViolation::WrongInputCount {
                expected: 3,
                got: 2
            })
        ));
        assert!(matches!(
            t.check_inputs(&[0, 1, 2]),
            Err(TaskViolation::InputOutOfRange {
                process: 2,
                input: 2,
                m: 2
            })
        ));
    }

    #[test]
    fn agreement_counts_distinct_values() {
        let t = KSetTask::new(4, 2, 3);
        // Two distinct values decided: fine for k = 2.
        assert!(t
            .check_agreement(&[Some(0), Some(1), Some(0), None])
            .is_ok());
        // Three distinct: violation.
        let err = t
            .check_agreement(&[Some(0), Some(1), Some(2), None])
            .unwrap_err();
        assert_eq!(
            err,
            TaskViolation::Agreement {
                k: 2,
                decided: vec![0, 1, 2]
            }
        );
    }

    #[test]
    fn validity_flags_foreign_values() {
        let t = KSetTask::new(3, 1, 4);
        let err = t
            .check_validity(&[0, 0, 1], &[Some(3), None, None])
            .unwrap_err();
        assert_eq!(
            err,
            TaskViolation::Validity {
                process: 0,
                decided: 3
            }
        );
        assert!(t
            .check_validity(&[0, 0, 1], &[Some(1), Some(0), None])
            .is_ok());
    }

    #[test]
    fn undecided_processes_do_not_violate() {
        let t = KSetTask::consensus(3);
        assert!(t.check(&[0, 1, 0], &[None, None, None]).is_ok());
    }

    #[test]
    fn check_decisions_matches_check() {
        let t = KSetTask::new(4, 2, 3);
        for decisions in [
            vec![Some(0), Some(1), Some(0), None],
            vec![Some(0), Some(1), Some(2), None],
            vec![None, None, None, None],
            vec![Some(2), None, None, None],
        ] {
            assert_eq!(
                t.check(&[0, 1, 2, 0], &decisions),
                t.check_decisions(&[0, 1, 2, 0], decisions.iter().copied()),
                "{decisions:?}"
            );
        }
        // Validity violation, same error as the slice path.
        let decisions = [Some(9u64), None, None, None];
        assert_eq!(
            t.check_decisions(&[0, 1, 2, 0], decisions.iter().copied()),
            Err(TaskViolation::Validity {
                process: 0,
                decided: 9
            })
        );
    }

    #[test]
    fn check_decisions_spills_past_inline_capacity() {
        // More than 16 distinct decided values forces the heap fallback of
        // the inline distinct-value buffer; the verdict must stay exact.
        let t = KSetTask::new(20, 18, 32);
        let inputs: Vec<u64> = (0..20).collect();
        let ok: Vec<Option<u64>> = (0..18).map(Some).chain([None, None]).collect();
        assert!(t.check_decisions(&inputs, ok.iter().copied()).is_ok());
        let bad: Vec<Option<u64>> = (0..19).map(Some).chain([None]).collect();
        let err = t.check_decisions(&inputs, bad.iter().copied()).unwrap_err();
        match err {
            TaskViolation::Agreement { k, decided } => {
                assert_eq!(k, 18);
                assert_eq!(decided, (0..19).collect::<Vec<u64>>(), "sorted, complete");
            }
            other => panic!("expected agreement violation, got {other:?}"),
        }
    }

    #[test]
    fn violation_display() {
        let v = TaskViolation::Agreement {
            k: 1,
            decided: vec![0, 1],
        };
        assert!(v.to_string().contains("exceeding k = 1"));
    }
}

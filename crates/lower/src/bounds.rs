//! The formula side of Table 1: every row's lower and upper bound, with its
//! source, evaluable at concrete `(n, k, b)`.

use std::fmt;

/// A bound formula: display text, literature source, and numeric evaluation.
#[derive(Clone, Copy)]
pub struct BoundFormula {
    /// Human-readable formula, as printed in Table 1.
    pub text: &'static str,
    /// Source annotation (theorem/algorithm/citation), as in Table 1.
    pub source: &'static str,
    /// Numeric evaluation at `(n, k, b)`.
    pub eval: fn(n: usize, k: usize, b: u64) -> f64,
}

impl BoundFormula {
    /// Evaluate at concrete parameters.
    pub fn at(&self, n: usize, k: usize, b: u64) -> f64 {
        (self.eval)(n, k, b)
    }
}

impl fmt::Debug for BoundFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.text, self.source)
    }
}

impl fmt::Display for BoundFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.text, self.source)
    }
}

fn ceil_div(a: usize, b: usize) -> f64 {
    a.div_ceil(b) as f64
}

/// The eight rows of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Table1Row {
    /// Consensus from registers: `n` / `n`.
    ConsensusRegisters,
    /// Consensus from swap objects: `n-1` / `n-1` — **the paper's headline**.
    ConsensusSwap,
    /// Consensus from readable swap objects with domain size 2:
    /// `n-2` / `2n-1`.
    ConsensusReadableBinarySwap,
    /// Consensus from readable swap objects with domain size `b`:
    /// `(n-2)/(3b+1)` / `2n-1`.
    ConsensusReadableSwapDomainB,
    /// Consensus from readable swap objects with unbounded domain:
    /// `Ω(√n)` / `n-1`.
    ConsensusReadableSwapUnbounded,
    /// k-set agreement from registers: `⌈n/k⌉` / `n-k+1`.
    KSetRegisters,
    /// k-set agreement from swap objects: `⌈n/k⌉-1` / `n-k` — **new in the
    /// paper**.
    KSetSwap,
    /// k-set agreement from readable swap objects with unbounded domain:
    /// `1` / `n-k`.
    KSetReadableSwapUnbounded,
}

impl Table1Row {
    /// All rows in the paper's order.
    pub const ALL: [Table1Row; 8] = [
        Table1Row::ConsensusRegisters,
        Table1Row::ConsensusSwap,
        Table1Row::ConsensusReadableBinarySwap,
        Table1Row::ConsensusReadableSwapDomainB,
        Table1Row::ConsensusReadableSwapUnbounded,
        Table1Row::KSetRegisters,
        Table1Row::KSetSwap,
        Table1Row::KSetReadableSwapUnbounded,
    ];

    /// The task column of Table 1.
    pub fn task(&self) -> &'static str {
        match self {
            Table1Row::ConsensusRegisters
            | Table1Row::ConsensusSwap
            | Table1Row::ConsensusReadableBinarySwap
            | Table1Row::ConsensusReadableSwapDomainB
            | Table1Row::ConsensusReadableSwapUnbounded => "Consensus",
            Table1Row::KSetRegisters
            | Table1Row::KSetSwap
            | Table1Row::KSetReadableSwapUnbounded => "k-set agreement",
        }
    }

    /// The object-kind column of Table 1.
    pub fn objects(&self) -> &'static str {
        match self {
            Table1Row::ConsensusRegisters | Table1Row::KSetRegisters => "Registers",
            Table1Row::ConsensusSwap | Table1Row::KSetSwap => "Swap objects",
            Table1Row::ConsensusReadableBinarySwap => "Readable swap objects, domain size 2",
            Table1Row::ConsensusReadableSwapDomainB => "Readable swap objects, domain size b",
            Table1Row::ConsensusReadableSwapUnbounded | Table1Row::KSetReadableSwapUnbounded => {
                "Readable swap objects, unbounded domain"
            }
        }
    }

    /// Whether this row is one of the paper's new results (boldface in
    /// Table 1).
    pub fn is_new_in_paper(&self) -> bool {
        matches!(
            self,
            Table1Row::ConsensusSwap
                | Table1Row::ConsensusReadableBinarySwap
                | Table1Row::ConsensusReadableSwapDomainB
                | Table1Row::KSetSwap
        )
    }

    /// The lower-bound formula.
    pub fn lower_bound(&self) -> BoundFormula {
        match self {
            Table1Row::ConsensusRegisters => BoundFormula {
                text: "n",
                source: "[EGZ 2018]",
                eval: |n, _, _| n as f64,
            },
            Table1Row::ConsensusSwap => BoundFormula {
                text: "n-1",
                source: "[Theorem 10]",
                eval: |n, _, _| (n as f64) - 1.0,
            },
            Table1Row::ConsensusReadableBinarySwap => BoundFormula {
                text: "n-2",
                source: "[Theorem 18]",
                eval: |n, _, _| (n as f64) - 2.0,
            },
            Table1Row::ConsensusReadableSwapDomainB => BoundFormula {
                text: "(n-2)/(3b+1)",
                source: "[Theorem 22]",
                eval: |n, _, b| ((n as f64) - 2.0) / (3.0 * (b as f64) + 1.0),
            },
            Table1Row::ConsensusReadableSwapUnbounded => BoundFormula {
                text: "Ω(√n)",
                source: "[EHS 1998]",
                eval: |n, _, _| (n as f64).sqrt(),
            },
            Table1Row::KSetRegisters => BoundFormula {
                text: "⌈n/k⌉",
                source: "[EGZ 2018]",
                eval: |n, k, _| ceil_div(n, k),
            },
            Table1Row::KSetSwap => BoundFormula {
                text: "⌈n/k⌉-1",
                source: "[Theorem 10]",
                eval: |n, k, _| ceil_div(n, k) - 1.0,
            },
            Table1Row::KSetReadableSwapUnbounded => BoundFormula {
                text: "1",
                source: "(trivial)",
                eval: |_, _, _| 1.0,
            },
        }
    }

    /// The upper-bound formula.
    pub fn upper_bound(&self) -> BoundFormula {
        match self {
            Table1Row::ConsensusRegisters => BoundFormula {
                text: "n",
                source: "[AH 1990, CIL 1994]",
                eval: |n, _, _| n as f64,
            },
            Table1Row::ConsensusSwap => BoundFormula {
                text: "n-1",
                source: "[Algorithm 1]",
                eval: |n, _, _| (n as f64) - 1.0,
            },
            Table1Row::ConsensusReadableBinarySwap | Table1Row::ConsensusReadableSwapDomainB => {
                BoundFormula {
                    text: "2n-1",
                    source: "[Bowman 2011]",
                    eval: |n, _, _| 2.0 * (n as f64) - 1.0,
                }
            }
            Table1Row::ConsensusReadableSwapUnbounded => BoundFormula {
                text: "n-1",
                source: "[EGSZ 2020]",
                eval: |n, _, _| (n as f64) - 1.0,
            },
            Table1Row::KSetRegisters => BoundFormula {
                text: "n-k+1",
                source: "[BRS 2018]",
                eval: |n, k, _| (n - k + 1) as f64,
            },
            Table1Row::KSetSwap | Table1Row::KSetReadableSwapUnbounded => BoundFormula {
                text: "n-k",
                source: "[Algorithm 1]",
                eval: |n, k, _| (n - k) as f64,
            },
        }
    }
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} / {}", self.task(), self.objects())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_bounds_are_tight_for_consensus_from_swap() {
        let row = Table1Row::ConsensusSwap;
        for n in 2..=100 {
            assert_eq!(row.lower_bound().at(n, 1, 0), row.upper_bound().at(n, 1, 0));
        }
    }

    #[test]
    fn kset_gap_is_one_object_at_k_dividing_n() {
        // ⌈n/k⌉-1 vs n-k: the gap the conclusion section leaves open.
        let row = Table1Row::KSetSwap;
        assert_eq!(row.lower_bound().at(6, 2, 0), 2.0);
        assert_eq!(row.upper_bound().at(6, 2, 0), 4.0);
        // At k=1 they coincide.
        assert_eq!(row.lower_bound().at(6, 1, 0), row.upper_bound().at(6, 1, 0));
    }

    #[test]
    fn binary_row_dominates_general_bounded_row() {
        // For b = 2 the paper notes n-2 beats (n-2)/7.
        let n = 30;
        let binary = Table1Row::ConsensusReadableBinarySwap
            .lower_bound()
            .at(n, 1, 2);
        let general = Table1Row::ConsensusReadableSwapDomainB
            .lower_bound()
            .at(n, 1, 2);
        assert!(binary > general);
        assert!((general - 4.0).abs() < 1e-9, "(30-2)/7 = 4");
    }

    #[test]
    fn bounded_domain_beats_sqrt_when_b_small() {
        // The paper: for b ∈ o(√n) the new bound exceeds Ω(√n).
        let n = 10_000;
        let sqrt = Table1Row::ConsensusReadableSwapUnbounded
            .lower_bound()
            .at(n, 1, 0);
        let bounded = Table1Row::ConsensusReadableSwapDomainB
            .lower_bound()
            .at(n, 1, 4);
        assert!(bounded > sqrt, "{bounded} vs {sqrt}");
    }

    #[test]
    fn lower_bounds_never_exceed_upper_bounds() {
        for row in Table1Row::ALL {
            for n in 3..=64 {
                for k in 1..n {
                    if row.task() == "Consensus" && k != 1 {
                        continue;
                    }
                    for b in [2u64, 3, 8] {
                        let lo = row.lower_bound().at(n, k, b);
                        let hi = row.upper_bound().at(n, k, b);
                        assert!(
                            lo <= hi + 1e-9,
                            "{row}: lower {lo} > upper {hi} at n={n} k={k} b={b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn new_rows_flagged() {
        assert!(Table1Row::ConsensusSwap.is_new_in_paper());
        assert!(Table1Row::KSetSwap.is_new_in_paper());
        assert!(!Table1Row::ConsensusRegisters.is_new_in_paper());
        assert_eq!(
            Table1Row::ALL
                .iter()
                .filter(|r| r.is_new_in_paper())
                .count(),
            4
        );
    }

    #[test]
    fn formulas_render() {
        let f = Table1Row::KSetSwap.lower_bound();
        assert_eq!(f.to_string(), "⌈n/k⌉-1 [Theorem 10]");
    }
}

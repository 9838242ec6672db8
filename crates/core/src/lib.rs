//! The primary contribution of *The Space Complexity of Consensus from Swap*
//! (Sean Ovens, PODC 2022), implemented and executable.
//!
//! * [`algorithm1`] — **Algorithm 1**: obstruction-free, m-valued, k-set
//!   agreement for `n` processes from exactly `n-k` swap objects (the
//!   paper's upper bound, matching the `⌈n/k⌉-1` lower bound of Theorem 10
//!   at `k = 1`). Implemented as a deterministic [`swapcons_sim::Protocol`],
//!   so it can be run under any schedule, model-checked, and attacked by the
//!   lower-bound adversaries.
//! * [`lap`] — lap counters (the algorithm's "race" state) with the
//!   domination partial order `⪯` the correctness proofs are phrased in.
//! * [`two_process`] — the paper's wait-free 2-process consensus from a
//!   single swap object (Section 1).
//! * [`pairs`] — the paper's wait-free k-set agreement from `n-k` swap
//!   objects for `k ≥ ⌈n/2⌉` (the Chaudhuri–Reiners pairing construction of
//!   Section 1).
//! * [`threaded`] — real multi-threaded implementations of all of the above
//!   on lock-free [`swapcons_objects::atomic::AtomicSwap`] objects.
//!
//! # Example: model-check Algorithm 1 exhaustively at n=3, k=1
//!
//! ```
//! use swapcons_core::algorithm1::SwapKSet;
//! use swapcons_sim::explore::ModelChecker;
//! use swapcons_sim::Protocol;
//!
//! let protocol = SwapKSet::new(3, 1, 2);
//! assert_eq!(protocol.num_objects(), 2); // n-k swap objects
//! let report = ModelChecker::new(40, 60_000).check(&protocol, &[0, 1, 1]);
//! assert!(report.passed(), "{report}");
//! ```

// Unsafe-code audit (PR 6): the algorithms are pure safe Rust (the unsafe pointer handoff lives in swapcons-objects, behind audited SAFETY comments).
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithm1;
pub mod hierarchy;
pub mod lap;
pub mod onebit;
pub mod pairs;
pub mod threaded;
pub mod two_process;

pub use algorithm1::SwapKSet;
pub use lap::{LapVec, SwapEntry};
pub use onebit::OneBitSwapConsensus;

//! Deterministic asynchronous shared-memory simulator for historyless-object
//! protocols, following the model of Section 2 of *The Space Complexity of
//! Consensus from Swap* (PODC 2022).
//!
//! The simulator executes **protocols** — deterministic per-process state
//! machines over a fixed set of shared historyless objects — under explicit
//! schedules, exactly as the paper's model prescribes: a *configuration*
//! holds a state for every process and a value for every object; a *step* by
//! a process applies its poised operation to an object, receives the
//! response, and updates local state; an *execution* is an alternating
//! sequence of configurations and steps chosen by a *scheduler*.
//!
//! Everything downstream reuses this substrate:
//!
//! * the algorithms in `swapcons-core` and `swapcons-baselines` implement
//!   [`Protocol`];
//! * [`run`](runner::run) / [`solo_run`](runner::solo_run) execute them under
//!   [`Scheduler`]s (round-robin, seeded-random, solo, fixed);
//! * the strategy-driven search core in [`engine`] owns the exhaustive
//!   exploration loop (discovery-time dedup, schedule arenas, copy-on-write
//!   scratch children, exact budgets) behind pluggable expansion, frontier,
//!   and visitor strategies;
//! * [`ModelChecker`](explore::ModelChecker) — an engine client —
//!   exhaustively explores small instances, checking k-agreement and
//!   validity on every reachable configuration and solo-termination bounds
//!   (obstruction-freedom); [`AdversarySynthesis`]
//!   — another client — searches for worst-case schedules maximizing a
//!   caller-defined objective;
//! * the lower-bound adversaries in `swapcons-lower` drive configurations
//!   step by step, using the indistinguishability helpers on
//!   [`Configuration`].
//!
//! # Example: two processes race on a single swap object
//!
//! ```
//! use swapcons_sim::{Configuration, ProcessId, runner, scheduler::RoundRobin};
//! use swapcons_sim::testing::TwoProcessSwapConsensus;
//!
//! let protocol = TwoProcessSwapConsensus;
//! let mut config = Configuration::initial(&protocol, &[7, 9]).unwrap();
//! let outcome = runner::run(&protocol, &mut config, &mut RoundRobin::new(), 100).unwrap();
//! assert!(outcome.all_decided);
//! // Both processes decide the same value, one of the two inputs.
//! let d0 = config.decision(ProcessId(0)).unwrap();
//! let d1 = config.decision(ProcessId(1)).unwrap();
//! assert_eq!(d0, d1);
//! assert!(d0 == 7 || d0 == 9);
//! ```

// Unsafe-code audit (PR 6): the simulator is pure safe Rust.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod canon;
mod config;
pub mod derived;
pub mod engine;
pub mod explore;
mod history;
mod ids;
mod protocol;
pub mod runner;
pub mod scheduler;
pub mod search;
pub mod snapshot;
pub mod task;
pub mod testing;

pub use canon::{Canonicalizer, ObjectClasses, Renaming, Symmetry};
pub use config::{Configuration, ProcStatus, SimError, StepUndo};
pub use derived::{LayeredProtocol, LayeredState};
pub use engine::{AdversarySynthesis, SynthesisReport};
pub use history::{History, StepRecord};
pub use ids::{Action, ObjectId, ProcessId};
pub use protocol::{Protocol, SimValue, Transition};
pub use scheduler::{Scheduler, StateScheduler};
pub use task::KSetTask;

//! Historyless shared-object model for the PODC 2022 paper *The Space
//! Complexity of Consensus from Swap*.
//!
//! A **historyless object** has the property that its value depends only on
//! the last *nontrivial* operation applied to it (an operation is trivial if
//! it can never modify the value). The paper's results concern three kinds of
//! historyless objects:
//!
//! * **swap objects** — support only `Swap(v)`, which sets the value to `v`
//!   and returns the previous value;
//! * **readable swap objects** — support `Swap(v)` and `Read`, possibly with
//!   a bounded domain;
//! * **registers** — support `Read` and `Write(v)`.
//!
//! This crate provides:
//!
//! * [`HistorylessOp`] / [`Response`] — the operation/response alphabet shared
//!   by the deterministic simulator (`swapcons-sim`) and every algorithm;
//! * [`ObjectSchema`] / [`ObjectKind`] / [`Domain`] — per-object capability
//!   descriptors, so each algorithm's *claimed* object type (and hence the
//!   space-complexity row of Table 1 it belongs to) is machine-checked;
//! * deterministic single-threaded cells ([`cell::SwapCell`],
//!   [`cell::ReadableSwapCell`], [`cell::RegisterCell`], [`cell::TasCell`])
//!   — the sequential semantics the other objects are tested against;
//! * lock-free / linearizable atomic objects for real threads
//!   ([`atomic::AtomicSwap`], [`atomic::AtomicWordSwap`],
//!   [`atomic::AtomicRegister`], [`atomic::AtomicTas`]);
//! * the classical simulation of *any* historyless object by a single
//!   readable swap object with the same domain ([`historyless`] — Ellen,
//!   Fatourou, Ruppert \[14\] in the paper's bibliography).
//!
//! # Example
//!
//! ```
//! use swapcons_objects::{HistorylessOp, Response, cell::ReadableSwapCell};
//!
//! let mut cell = ReadableSwapCell::new(0u64);
//! assert_eq!(cell.apply(&HistorylessOp::Swap(7)), Response::Value(0));
//! assert_eq!(cell.apply(&HistorylessOp::Read), Response::Value(7));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod atomic;
pub mod cell;
pub mod derived;
pub mod historyless;
pub mod linearize;
mod op;
mod schema;

pub use derived::{AspnesOneBitSwap, ObjectProgram, ProgramStep};
pub use op::{HistorylessOp, ObjectOp, OpKind, Response};
pub use schema::{Domain, ObjectKind, ObjectSchema, SchemaError};

//! Scoped execution contexts: cooperative cancellation and
//! deterministic fault injection.
//!
//! The chase is the engine under every checker in the paper, and chase
//! variants routinely run long (or forever) on recursive dependency
//! sets. This crate is the resilience layer the engines share:
//!
//! * [`ExecContext`] — the unit-of-work bundle the engines thread
//!   explicitly (inside a `HomConfig`, beside the budgets, wherever a
//!   homomorphism search runs): a [`CancelToken`], a scoped
//!   [`FaultInjector`], and an observability scope label. Two contexts on
//!   concurrent threads are fully isolated from each other; the default
//!   context is inert and free.
//! * [`CancelToken`] — a cloneable cooperative cancellation handle
//!   (SeqCst flag + optional deadline + optional Ctrl-C watching) that
//!   the chase checks per round, the homomorphism search per node
//!   stride, and `ArrowMCache` construction per family instance.
//! * [`FaultInjector`] / [`fault_point!`] — seeded deterministic fault
//!   injection points, compiled out by default and enabled with the
//!   `fault-inject` feature. The seed-sweep suite under `tests/` drives
//!   every engine through injected journal I/O errors, poisoned locks,
//!   disjunctive-branch aborts, and spurious budget exhaustion,
//!   asserting that failures stay typed `Err`s and never become panics.
//!
//! The crate is deliberately zero-dependency: it sits below `rde-obs`,
//! `rde-hom`, `rde-chase`, and `rde-core` in the crate graph.

#![deny(unsafe_code)] // one vetted exception: the signal FFI in `cancel::sig`
#![warn(missing_docs)]

mod cancel;
mod context;
mod inject;

pub use cancel::{
    install_interrupt_handler, install_reload_handler, interrupted, take_reload_request,
    CancelToken, Cancelled,
};
pub use context::{ExecContext, FaultInjector};
pub use inject::{poison_mutex, FaultConfig, FaultReport, PointCount};

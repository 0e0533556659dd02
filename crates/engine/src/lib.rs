//! # prov-engine
//!
//! A data-driven executor for collection-oriented dataflows, implementing
//! the Taverna iteration semantics formalised in the paper's Section 3:
//!
//! * the **generalized cross product** `⊗` over depth-mismatched inputs
//!   (Def. 2), plus the footnote-7 dot-product ("zip") combinator;
//! * the recursive evaluation function **`eval_l`** (Def. 3), which
//!   dispatches one elementary invocation of a black-box processor per
//!   combination of iterated input elements;
//! * singleton **wrapping** for negative mismatches;
//! * emission of the *observable* provenance events of §2.3 — one *xform*
//!   record per elementary invocation (with fine-grained indices satisfying
//!   Prop. 1: `q = p1 · … · pn`) and *xfer* records for element transfers
//!   along arcs — into any [`TraceSink`].
//!
//! Processors remain black boxes throughout ([`Behavior`] sees only values,
//! never indices); all fine-grained structure comes from the iteration
//! machinery, exactly as in the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod behavior;
mod error;
mod events;
mod exec;
mod iteration;
mod resume;
mod retry;

pub use behavior::{builtin, Behavior, BehaviorRegistry, FnBehavior};
pub use error::EngineError;
pub use events::{
    NullSink, PortBinding, ReportingSink, RunReport, TraceEvent, TraceSink, VecSink, XferEvent,
    XformEvent,
};
pub use exec::{Engine, FailedInvocation, RunOutcome, RunStatus};
pub use iteration::{assemble_nested, iteration_tuples, IterationTuple};
pub use resume::ResumeSource;
pub use retry::{
    invocation_salt, Backoff, Clock, ClockSource, RetryOn, RetryPolicy, SystemClock, VirtualClock,
};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, EngineError>;

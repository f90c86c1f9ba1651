//! Core timing model and workload abstractions.
//!
//! The paper simulates Alpha-21264-class out-of-order cores (SESC). For
//! the reproduction we use an *interval-style* superscalar model
//! ([`CoreModel`]): instructions dispatch at a configurable width, loads
//! proceed in parallel up to an out-of-order tolerance window, and the
//! core stalls when the window fills behind an incomplete load. This
//! captures exactly what the paper's IPC-loss figures measure — the
//! sensitivity of the pipeline to the extra memory latency injected by
//! decay-induced misses and inclusion back-invalidations — without
//! modelling rename or branch prediction (see DESIGN.md, substitution
//! table).
//!
//! A core consumes one op stream ([`Workload`]) of [`TraceOp`]s: a live
//! generator or a cursor over a recorded trace. The simulator runs each
//! core for a fixed instruction budget so that every technique executes
//! the same work, matching the paper's fixed-workload comparisons; the
//! budget-cursor contract on [`Workload`] is what lets a recording that
//! covers the budget stand in for its generator.

#![forbid(unsafe_code)]

pub mod model;
pub mod trace;

pub use model::{CoreConfig, CoreModel, CorePort, CoreStats, ProgressState};
pub use trace::{ReplayWorkload, TraceOp, Workload};

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
//! Workloads are infinite instruction streams ([`Workload`]) of
//! [`TraceOp`]s; the simulator runs each core for a fixed instruction
//! budget so that every technique executes the same work, matching the
//! paper's fixed-workload comparisons. The core consumes ops through the
//! weaker [`OpSource`] delivery contract (see [`source`]), which live
//! generators satisfy automatically and finite trace backends implement
//! directly.

#![forbid(unsafe_code)]

pub mod model;
pub mod source;
pub mod trace;

pub use model::{CoreConfig, CoreModel, CorePort, CoreStats, ProgressState, StallKind};
pub use source::{LiveGen, OpSource};
pub use trace::{ReplayWorkload, TraceOp, Workload};

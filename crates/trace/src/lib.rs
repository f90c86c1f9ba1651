//! `cmpleak-trace` — record, replay and inspect reference traces.
//!
//! The simulator's workloads are live generators ([`cmpleak_cpu::Workload`]);
//! this crate decouples workload *acquisition* from *simulation* the way
//! trace-driven cache simulators do. One type, [`MemTrace`], holds a
//! recording: it is recorded from any workload set
//! ([`MemTrace::record_core_in`]), shared across simulations through
//! per-core [`MemTraceCursor`]s, saved as a compact, versioned binary
//! file ([`MemTrace::save`]) and loaded back ([`MemTrace::open`]), and
//! replay is **bit-identical** to the live run it captured.
//!
//! The replay contract rests on one property of the core model: a core
//! fetches ops only while its dispatched-instruction count is below its
//! budget, so the set of ops a simulation consumes is exactly the stream
//! prefix whose cumulative instruction count first reaches the budget —
//! independent of the leakage technique, cache size or timing. Recording
//! that prefix therefore captures everything any same-budget simulation
//! will ask for.
//!
//! See [`format`] for the file layout (varint ops, delta-encoded
//! addresses, ≈2 bytes/op on the workspace's generators) and [`mem`] for
//! the type and its replay cursor — the substrate of the sweep planner's
//! shared op streams. Recording and saving live in `writer.rs`; loading,
//! which refuses damaged files with an error instead of a mid-run panic,
//! in `reader.rs`.

#![forbid(unsafe_code)]

pub mod format;
pub mod mem;
mod reader;
mod writer;

pub use format::{CoreStreamInfo, OpDecoder, OpEncoder, TraceHeader, MAGIC, VERSION};
pub use mem::{MemTrace, MemTraceCursor};

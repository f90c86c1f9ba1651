//! Cycle-level CMP simulator — the substrate replacing SESC in the
//! reproduction (see DESIGN.md).
//!
//! The modelled system is exactly Fig. 1 of the paper: `N` superscalar
//! cores, each with a private write-through L1 (with MSHR and a
//! coalescing write buffer) and a private, inclusive, snoopy-MESI L2
//! (with MSHR); the L2s cohere over a pipelined shared bus; an external
//! memory interface with fixed latency and finite service rate sits
//! behind it. Leakage techniques plug in via
//! [`cmpleak_coherence::Technique`]: they gate L2 lines through the
//! MESI+TC/TD turn-off mechanism and the hierarchical decay counters of
//! `cmpleak-mem`, while the simulator charges every architectural side
//! effect (write-backs, upper-level invalidations, extra misses, bus and
//! memory occupancy).
//!
//! The simulation is single-threaded and bit-deterministic; parallelism
//! belongs one level up (experiment sweeps in `cmpleak-core`).
//!
//! Entry points: [`run_feeds_with_scratch`], which runs per-core
//! [`CoreSource`] feeds through a reusable [`SimScratch`], and the
//! [`run_simulation`] convenience over live generators. Both produce
//! [`SimStats`] plus a 10K-cycle activity trace for the power/thermal
//! models. [`run_feeds_with_larger`] is the first with shadow
//! directories of larger L2 sizes beside each cache: it also reports
//! whether any fill found its set full, and if none did, the run's
//! statistics at each larger size follow from
//! [`SimStats::at_larger_size`]; if one did, a run over replayed traces
//! forks a run at the next larger size just before that fill
//! ([`LargerFork`]), which [`resume_fork`] finishes instead of
//! simulating that size from cycle 0.

#![forbid(unsafe_code)]

pub mod bus;
pub mod config;
pub mod l1;
pub mod l2;
pub mod stats;
pub mod system;

pub use bus::{BusReq, BusReqKind, SharedBus};
pub use config::{
    BusConfig, CmpConfig, CycleEngine, L1Config, L2Config, MemConfig, SimKernel, MAX_CORES,
};
pub use l1::{L1Cache, L1LoadOutcome};
pub use l2::{L2Cache, L2ReadOutcome, L2Target, L2WriteOutcome};
pub use stats::{IntervalActivity, L1Stats, L2Stats, LargerSizes, SimStats};
pub use system::{
    resume_fork, run_feeds_with_larger, run_feeds_with_scratch, run_simulation, CoreSource,
    CycleProfile, EventQueueStats, LargerFork, SimScratch,
};

// Re-exported so scratch-pool consumers can read arena counters without
// depending on `cmpleak-mem` directly.
pub use cmpleak_mem::ArenaStats;
// Re-exported so downstream consumers of SimStats (reports, the result
// store) can name the per-core rows without a `cmpleak-cpu` dependency.
pub use cmpleak_cpu::CoreStats;

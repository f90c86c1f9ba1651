//! `cmpleak-core` — the paper's contribution as a library.
//!
//! Reproduction of *Monchiero, Canal, González: "Using Coherence
//! Information and Decay Techniques to Optimize L2 Cache Leakage in
//! CMPs"* (ICPP 2009) on top of the workspace's substrates
//! (`cmpleak-system` simulator, `cmpleak-power` energy/thermal models,
//! `cmpleak-workloads` synthetic benchmarks).
//!
//! * [`experiment`] — one simulation + power evaluation
//!   ([`run_experiment`]);
//! * [`metrics`] — the paper's derived quantities (occupation rate, L2
//!   miss rate, memory-bandwidth/AMAT increase, energy reduction, IPC
//!   loss), always relative to the always-on baseline;
//! * [`scenario`] — what runs on the cores: homogeneous benchmarks,
//!   heterogeneous multiprogrammed mixes, or recorded trace replays
//!   (`cmpleak-trace`);
//! * [`sweep`] — the full evaluation grid (scenarios × cache sizes ×
//!   techniques), farmed over worker threads, deterministic regardless
//!   of thread count;
//! * [`figures`] — builders that regenerate every figure of the paper's
//!   §VI from sweep results, as printable tables;
//! * [`adaptive`] — beyond-the-paper extensions: Kaxiras-style adaptive
//!   per-line decay and AMC-style global adaptive decay, for the
//!   ablation benches.
//!
//! The seven technique configurations of the paper are
//! [`Technique::paper_set`]; the six benchmarks are
//! [`WorkloadSpec::paper_suite`].

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod experiment;
pub mod figures;
pub mod metrics;
pub mod scenario;
pub mod sweep;

pub use adaptive::{oracle_advantage, oracle_pick, relative_edp, OracleChoice};
pub use cmpleak_coherence::Technique;
pub use cmpleak_workloads::{BenchClass, ScenarioSpec, WorkloadSpec};
pub use experiment::{
    result_from_stored, run_experiment, run_experiment_with_scratch, ExperimentConfig,
    ExperimentResult, ExperimentScratch,
};
pub use figures::{Figure, FigureSet};
pub use metrics::TechniqueMetrics;
pub use scenario::Scenario;
pub use sweep::{
    run_sweep, run_sweep_reference, run_sweep_with_telemetry, SweepCell, SweepConfig, SweepResults,
    SweepTelemetry,
};

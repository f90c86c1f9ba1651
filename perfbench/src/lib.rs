//! End-to-end and per-layer benchmark of the cmp-leakage reproduction.
//!
//! Everything is measured from outside the simulator, in-process through
//! the library's public API; see `README.md` for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.

pub mod run;
pub mod traced;
pub mod util;
pub mod workload;

//! Shared helpers for the benchmark harness (`repro` binary + criterion
//! benches).

#![forbid(unsafe_code)]

use cmpleak_core::sweep::{run_sweep, SweepConfig, SweepResults};

/// The paper's full evaluation grid (6 benchmarks × 4 sizes × 7
/// techniques + baselines) at a given per-core instruction count.
pub fn paper_sweep(instructions_per_core: u64) -> SweepResults {
    run_sweep(&SweepConfig::paper(instructions_per_core))
}

/// A reduced grid for smoke tests and criterion benches.
pub fn smoke_sweep(instructions_per_core: u64) -> SweepResults {
    run_sweep(&SweepConfig::smoke(instructions_per_core))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpleak_core::figures::FigureSet;

    #[test]
    fn smoke_sweep_feeds_every_figure() {
        let res = smoke_sweep(20_000);
        let figs = FigureSet::new(&res);
        for f in figs.all_by_size() {
            assert!(!f.rows.is_empty() && !f.cols.is_empty(), "{}", f.id);
        }
        assert_eq!(figs.headline(1).len(), 3);
    }
}

//! Shared helpers for the binaries and the smoke tests.

#![forbid(unsafe_code)]

use cmpleak_core::sweep::{run_sweep, SweepConfig, SweepResults};

/// The value of a `--size` flag: one of the paper's L2 sizes (MB).
/// Anything else, or no value, prints the sizes and exits 2 before any
/// simulation: the figures, the headline and the paper's system exist
/// only at the sweep's sizes.
pub fn paper_size_or_exit(value: Option<String>) -> usize {
    let sizes = SweepConfig::paper(0).sizes_mb;
    value.and_then(|v| v.parse().ok()).filter(|mb| sizes.contains(mb)).unwrap_or_else(|| {
        eprintln!("--size takes one of the paper's L2 sizes {sizes:?} (MB)");
        std::process::exit(2);
    })
}

/// A reduced grid for smoke tests.
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

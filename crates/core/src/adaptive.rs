//! Beyond-the-paper extensions: adaptive decay-interval selection.
//!
//! §II of the paper surveys adaptive alternatives to its fixed-interval
//! decay: Kaxiras et al.'s per-line adaptive interval and Zhou et al.'s
//! Adaptive Mode Control (a global interval steered by miss-rate
//! sampling). The paper deliberately sticks to fixed intervals; as an
//! extension we quantify what adaptivity could buy on top:
//!
//! * [`oracle_pick`] — the *per-benchmark oracle*: for every benchmark
//!   (and size), pick the fixed decay interval that minimises relative
//!   energy-delay product. This upper-bounds any global adaptive scheme
//!   (AMC converges toward this choice at best);
//! * [`relative_edp`] — the selection metric, also printed per technique
//!   by `examples/technique_shootout`.

use crate::metrics::TechniqueMetrics;
use crate::sweep::SweepResults;

/// Energy-delay product of a technique relative to the baseline.
///
/// With fixed work, delay ratio = 1/(1−IPC loss), energy ratio =
/// 1−energy reduction, so relative EDP = (1−ER)/(1−loss). Values below
/// 1.0 beat the baseline on energy-delay.
pub fn relative_edp(m: &TechniqueMetrics) -> f64 {
    let energy_ratio = 1.0 - m.energy_reduction;
    let delay_ratio = 1.0 / (1.0 - m.ipc_loss).max(1e-9);
    energy_ratio * delay_ratio
}

/// The oracle's choice for one benchmark/size.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleChoice {
    /// Scenario label.
    pub benchmark: String,
    /// Total L2 MB.
    pub size_mb: usize,
    /// Winning technique label.
    pub technique: String,
    /// Its relative EDP.
    pub edp: f64,
    /// Best fixed (single technique for all benchmarks) EDP at this
    /// size, for comparison. Only candidates with a cell at *every*
    /// benchmark of this size compete here — a technique that cannot run
    /// everywhere is not a valid fixed choice — so on a ragged grid with
    /// no complete candidate this is `f64::INFINITY`.
    pub best_fixed_edp: f64,
}

/// For each (benchmark, size) in `results`, pick the candidate technique
/// (matched by `prefix`, e.g. `"decay"` or `"sel_decay"`) with the best
/// relative EDP, and compare it with the best *single* choice across
/// benchmarks.
pub fn oracle_pick(results: &SweepResults, prefix: &str) -> Vec<OracleChoice> {
    let mut sizes: Vec<usize> = results.cells.iter().map(|c| c.size_mb).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let candidates: Vec<String> = {
        let mut v: Vec<String> = results
            .cells
            .iter()
            .map(|c| c.technique.clone())
            // A candidate must match the prefix, and — unless the prefix
            // itself names a `sel_` family — `sel_`-prefixed labels are
            // excluded, so `"decay"` can never admit `sel_decay*` even
            // if a label scheme makes the families share a prefix. (The
            // previous `a && b || a` reduced to the bare prefix test by
            // `&&`/`||` precedence, leaving the exclusion dead.)
            .filter(|t| {
                t.starts_with(prefix) && (prefix.starts_with("sel_") || !t.starts_with("sel_"))
            })
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let mut out = Vec::new();
    for &size in &sizes {
        // Best single fixed technique at this size: minimise the mean of
        // the per-benchmark EDPs over the benchmarks that have any
        // candidate cell at this size, considering only *complete*
        // candidates (those with a cell at every such benchmark). On a
        // ragged grid an incomplete candidate's mean would be taken over
        // a different — possibly friendlier — benchmark subset than the
        // oracle's, which could make oracle_advantage negative; a fixed
        // scheme that cannot run everywhere is not a valid fixed choice.
        // If no candidate is complete, best_fixed_edp is +∞ (documented
        // on [`OracleChoice`]).
        let benches_at_size: Vec<String> = results
            .benchmarks()
            .into_iter()
            .filter(|b| candidates.iter().any(|t| results.cell(b, t, size).is_some()))
            .collect();
        let best_fixed_edp = candidates
            .iter()
            .filter_map(|t| {
                let cells: Option<Vec<_>> =
                    benches_at_size.iter().map(|b| results.cell(b, t, size)).collect();
                let edps: Vec<f64> = cells?.iter().map(|c| relative_edp(&c.metrics)).collect();
                (!edps.is_empty()).then(|| edps.iter().sum::<f64>() / edps.len() as f64)
            })
            .fold(f64::INFINITY, f64::min);
        for bench in results.benchmarks() {
            let mut best: Option<(String, f64)> = None;
            for t in &candidates {
                if let Some(cell) = results.cell(&bench, t, size) {
                    let edp = relative_edp(&cell.metrics);
                    if best.as_ref().map(|(_, e)| edp < *e).unwrap_or(true) {
                        best = Some((t.clone(), edp));
                    }
                }
            }
            if let Some((technique, edp)) = best {
                out.push(OracleChoice {
                    benchmark: bench,
                    size_mb: size,
                    technique,
                    edp,
                    best_fixed_edp,
                });
            }
        }
    }
    out
}

/// Mean oracle-vs-fixed EDP advantage (how much a perfect per-benchmark
/// adaptive scheme would gain over the best global fixed interval).
///
/// Guaranteed non-negative: within each size, the fixed mean is taken
/// over exactly the benchmarks the oracle also chose over, and only
/// complete candidates compete for it, so the oracle (which may pick the
/// fixed winner per benchmark) can match it at worst.
pub fn oracle_advantage(choices: &[OracleChoice]) -> f64 {
    if choices.is_empty() {
        return 0.0;
    }
    let n = choices.len() as f64;
    choices.iter().map(|c| c.best_fixed_edp - c.edp).sum::<f64>() / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepCell, SweepConfig, SweepResults};
    use cmpleak_coherence::Technique;
    use cmpleak_workloads::WorkloadSpec;

    /// A handcrafted cell whose relative EDP is `(1 - er) / (1 - loss)`.
    fn cell(benchmark: &str, technique: &str, size_mb: usize, er: f64, loss: f64) -> SweepCell {
        SweepCell {
            benchmark: benchmark.into(),
            technique: technique.into(),
            size_mb,
            metrics: TechniqueMetrics {
                occupation: 0.5,
                l2_miss_rate: 0.01,
                induced_miss_rate: 0.0,
                bandwidth_increase: 0.0,
                amat_increase: 0.0,
                energy_reduction: er,
                ipc_loss: loss,
            },
            cycles: 1,
            mem_bytes: 0,
            energy_pj: 1.0,
            avg_l2_temp_c: 45.0,
        }
    }

    #[test]
    fn edp_identities() {
        let m = TechniqueMetrics {
            occupation: 0.5,
            l2_miss_rate: 0.01,
            induced_miss_rate: 0.0,
            bandwidth_increase: 0.0,
            amat_increase: 0.0,
            energy_reduction: 0.0,
            ipc_loss: 0.0,
        };
        assert!((relative_edp(&m) - 1.0).abs() < 1e-12, "baseline EDP is 1");
        let better = TechniqueMetrics { energy_reduction: 0.3, ..m };
        assert!((relative_edp(&better) - 0.7).abs() < 1e-12);
        let slower = TechniqueMetrics { ipc_loss: 0.5, ..m };
        assert!((relative_edp(&slower) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn oracle_picks_per_benchmark_winners() {
        let res = run_sweep(&SweepConfig {
            scenarios: vec![
                crate::scenario::Scenario::Homogeneous(WorkloadSpec::mpeg2enc()),
                crate::scenario::Scenario::Homogeneous(WorkloadSpec::volrend()),
            ],
            sizes_mb: vec![1],
            techniques: vec![
                Technique::Decay { decay_cycles: 16 * 1024 },
                Technique::Decay { decay_cycles: 64 * 1024 },
            ],
            instructions_per_core: 30_000,
            seed: 9,
            n_cores: 2,
            threads: 0,
            store: None,
        });
        let choices = oracle_pick(&res, "decay");
        assert_eq!(choices.len(), 2, "one choice per benchmark");
        for c in &choices {
            assert!(c.technique.starts_with("decay"));
        }
        // In aggregate the oracle can never lose to the best single
        // fixed interval (it can match or beat it per construction).
        assert!(oracle_advantage(&choices) >= -1e-12);
    }

    #[test]
    fn candidate_filter_keeps_families_apart() {
        // sel_decay64K has by far the best EDP (0.1); if the `sel_`
        // exclusion regressed to the bare prefix test and a label scheme
        // let the families overlap, it would win every benchmark.
        let res = SweepResults {
            cells: vec![
                cell("A", "decay16K", 1, 0.2, 0.01),
                cell("A", "decay64K", 1, 0.3, 0.01),
                cell("A", "sel_decay64K", 1, 0.9, 0.0),
                cell("B", "decay16K", 1, 0.25, 0.02),
                cell("B", "decay64K", 1, 0.1, 0.02),
                cell("B", "sel_decay64K", 1, 0.9, 0.0),
            ],
        };
        let decay = oracle_pick(&res, "decay");
        assert_eq!(decay.len(), 2);
        for c in &decay {
            assert!(
                c.technique.starts_with("decay") && !c.technique.starts_with("sel_"),
                "prefix \"decay\" must never admit {}",
                c.technique
            );
        }
        assert_eq!(decay[0].technique, "decay64K", "A's best plain-decay candidate");
        assert_eq!(decay[1].technique, "decay16K", "B's best plain-decay candidate");
        // The sel_ family is still selectable under its own prefix.
        let sel = oracle_pick(&res, "sel_decay");
        assert_eq!(sel.len(), 2);
        for c in &sel {
            assert_eq!(c.technique, "sel_decay64K");
            assert!((c.edp - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn ragged_grid_keeps_oracle_advantage_non_negative() {
        // decay64K only ran on benchmark A, where it is stellar
        // (EDP 0.2). Averaging each candidate over its own benchmark set
        // used to hand it best_fixed_edp = 0.2, making the aggregate
        // advantage negative: B's oracle pick (decay16K, 0.9) then
        // "lost" 0.7 against a fixed choice that cannot run on B at all.
        let res = SweepResults {
            cells: vec![
                cell("A", "decay16K", 1, 0.1, 0.0),
                cell("A", "decay64K", 1, 0.8, 0.0),
                cell("B", "decay16K", 1, 0.1, 0.0),
            ],
        };
        let choices = oracle_pick(&res, "decay");
        assert_eq!(choices.len(), 2);
        assert_eq!(choices[0].technique, "decay64K", "A still picks its local winner");
        assert_eq!(choices[1].technique, "decay16K");
        for c in &choices {
            assert!(
                (c.best_fixed_edp - 0.9).abs() < 1e-12,
                "only the complete candidate (decay16K, mean EDP 0.9) competes as a fixed \
                 choice; got {}",
                c.best_fixed_edp
            );
        }
        assert!(oracle_advantage(&choices) >= -1e-12);
    }

    #[test]
    fn grid_with_no_complete_candidate_has_infinite_fixed_edp() {
        // No single technique covers both benchmarks, so no fixed scheme
        // exists: the documented sentinel is +∞ (and the advantage is
        // trivially non-negative).
        let res = SweepResults {
            cells: vec![cell("A", "decay16K", 1, 0.1, 0.0), cell("B", "decay64K", 1, 0.2, 0.0)],
        };
        let choices = oracle_pick(&res, "decay");
        assert_eq!(choices.len(), 2);
        for c in &choices {
            assert!(c.best_fixed_edp.is_infinite());
        }
        assert!(oracle_advantage(&choices) >= 0.0);
    }
}

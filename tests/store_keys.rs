//! Content addresses of experiment cells.
//!
//! `sweep serve` probes the store with `ExperimentConfig::store_key`,
//! while a sweep keys its cells from one hasher per scenario: the two
//! must agree for every kind of scenario, or a served miss would never
//! turn into a hit. And every cell the service can name must get an
//! address of its own.

use cmp_leakage::core::sweep::{run_sweep_with_telemetry, SweepConfig};
use cmp_leakage::core::{ExperimentConfig, ExperimentScratch, Scenario, Technique, WorkloadSpec};
use cmp_leakage::store::ResultStore;
use cmp_leakage::workloads::ScenarioSpec;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The cell of `cfg`'s grid a sweep keys for (scenario, technique, size).
fn cell(
    cfg: &SweepConfig,
    scenario: &Scenario,
    technique: Technique,
    size: usize,
) -> ExperimentConfig {
    ExperimentConfig {
        instructions_per_core: cfg.instructions_per_core,
        seed: cfg.seed,
        n_cores: cfg.n_cores,
        ..ExperimentConfig::paper_scenario(scenario.clone(), technique, size)
    }
}

/// A sweep publishes every cell under the address `store_key` derives
/// for it: homogeneous, mix and trace-replay scenarios alike, baselines
/// (derived, not simulated) included.
#[test]
fn store_key_is_the_address_a_sweep_publishes_under() {
    let root = std::env::temp_dir().join(format!("cmpleak-store-keys-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let store = Arc::new(ResultStore::open(&root).expect("store root"));
    let replayed =
        Scenario::replaying(Scenario::Mix(ScenarioSpec::producer_sharing()).record(4, 42, 3_000));
    let cfg = SweepConfig {
        scenarios: vec![
            Scenario::Homogeneous(WorkloadSpec::water_ns()),
            Scenario::Mix(ScenarioSpec::bursty_idle()),
            replayed,
        ],
        sizes_mb: vec![1, 2],
        techniques: vec![
            Technique::Protocol,
            Technique::SelectiveDecay { decay_cycles: 64 * 1024 },
        ],
        instructions_per_core: 3_000,
        seed: 42,
        n_cores: 4,
        threads: 2,
        store: Some(Arc::clone(&store)),
    };
    let (_, telemetry) = run_sweep_with_telemetry(&cfg, &mut ExperimentScratch::default());
    assert_eq!(telemetry.publish_errors, 0);
    let mut techniques = vec![Technique::Baseline];
    techniques.extend(cfg.techniques.iter().copied());
    let mut cells = 0;
    for scenario in &cfg.scenarios {
        for &size in &cfg.sizes_mb {
            for &technique in &techniques {
                let key = cell(&cfg, scenario, technique, size).store_key();
                assert!(store.load(&key).is_some(), "{}: not under its store_key", key.meta);
                cells += 1;
            }
        }
    }
    assert_eq!(store.record_count(), cells, "the sweep published under other addresses too");
    std::fs::remove_dir_all(&root).ok();
}

/// Every cell `sweep serve` can name — its catalog of scenarios,
/// techniques and sizes — at several budgets, seeds and core counts has
/// an address of its own.
#[test]
fn serve_catalog_keys_are_pairwise_distinct() {
    let mut scenarios: Vec<Scenario> =
        WorkloadSpec::paper_suite().into_iter().map(Scenario::Homogeneous).collect();
    scenarios.extend(ScenarioSpec::paper_mixes().into_iter().map(Scenario::Mix));
    let mut techniques = vec![Technique::Baseline];
    techniques.extend(Technique::paper_set());
    let sizes = SweepConfig::paper(0).sizes_mb;
    assert_eq!((scenarios.len(), techniques.len(), sizes.len()), (9, 8, 4));
    let mut addresses = BTreeSet::new();
    let mut keys = 0;
    for scenario in &scenarios {
        for &technique in &techniques {
            for &size in &sizes {
                for instructions_per_core in [25_000, 40_000, 6_000_000] {
                    for seed in [1, 42] {
                        for n_cores in [1, 2, 4, 8] {
                            let cfg = ExperimentConfig {
                                instructions_per_core,
                                seed,
                                n_cores,
                                ..ExperimentConfig::paper_scenario(
                                    scenario.clone(),
                                    technique,
                                    size,
                                )
                            };
                            addresses.insert(cfg.store_key().hex());
                            keys += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(keys, 9 * 8 * 4 * 3 * 2 * 4);
    assert_eq!(addresses.len(), keys, "two catalog cells share an address");
}

//! Differential oracle for the sweep's size ladders.
//!
//! `run_sweep` simulates each (scenario, technique) ladder at its
//! smallest open size with shadow directories of the larger sizes
//! beside it, and derives every larger size when no L2 of that run ever
//! filled a set. Otherwise the run forked a run at the next size just
//! before its first full-set fill, and the ladder resumes that fork
//! instead of simulating the next size from cycle 0. This suite pins
//! the claim that the result is **byte-identical** to the reference arm
//! (`run_sweep_reference`, which simulates every cell), on a grid where
//! every ladder derives, on the mixes where some ladders resume forks,
//! on a ladder of baselines alone, with a store that already holds a
//! cell of a ladder, and on randomized one-ladder grids (case count via
//! `PROPTEST_CASES`).

use cmp_leakage::core::sweep::{
    run_sweep_reference, run_sweep_with_telemetry, SweepConfig, SweepResults, SweepTelemetry,
};
use cmp_leakage::core::{ExperimentScratch, Scenario, Technique, WorkloadSpec};
use cmp_leakage::store::ResultStore;
use cmp_leakage::workloads::ScenarioSpec;
use proptest::prelude::*;
use std::sync::Arc;

fn json(results: &SweepResults) -> String {
    serde_json::to_string(results).expect("serializable")
}

/// Runs `cfg` at 1 and 2 threads, checks both against the reference arm
/// byte for byte, and returns the telemetry (identical at both counts).
fn assert_ladders_match_reference(cfg: &SweepConfig, tag: &str) -> SweepTelemetry {
    let reference = json(&run_sweep_reference(cfg));
    let mut telemetry = Vec::new();
    for threads in [1, 2] {
        let cfg = SweepConfig { threads, ..cfg.clone() };
        let (res, t) = run_sweep_with_telemetry(&cfg, &mut ExperimentScratch::default());
        assert_eq!(json(&res), reference, "{tag} at {threads} thread(s): ladders diverged");
        telemetry.push(t);
    }
    assert_eq!(telemetry[0], telemetry[1], "{tag}: telemetry depends on the thread count");
    telemetry[0]
}

fn paper_grid() -> SweepConfig {
    SweepConfig {
        scenarios: vec![
            Scenario::Homogeneous(WorkloadSpec::mpeg2enc()),
            Scenario::Homogeneous(WorkloadSpec::volrend()),
        ],
        sizes_mb: vec![1, 2, 4, 8],
        techniques: vec![
            Technique::Protocol,
            Technique::Decay { decay_cycles: 64 * 1024 },
            Technique::SelectiveDecay { decay_cycles: 64 * 1024 },
        ],
        instructions_per_core: 40_000,
        seed: 42,
        n_cores: 4,
        threads: 1,
        store: None,
    }
}

#[test]
fn every_ladder_of_a_40k_grid_derives_its_larger_sizes() {
    let t = assert_ladders_match_reference(&paper_grid(), "40k grid");
    // 2 scenarios × 3 techniques, each deriving 2, 4 and 8 MB from 1 MB;
    // plus one baseline per (scenario, size) from Protocol.
    assert_eq!(t.derived_larger, 18, "no 1 MB cache fills a set at 40 K");
    assert_eq!(t.derived, 18 + 8);
}

#[test]
fn mix_ladders_that_fill_a_set_fall_back_to_the_next_size() {
    let cfg = SweepConfig {
        scenarios: ScenarioSpec::paper_mixes().into_iter().map(Scenario::Mix).collect(),
        sizes_mb: vec![1, 2, 8],
        techniques: vec![Technique::Protocol, Technique::Decay { decay_cycles: 64 * 1024 }],
        instructions_per_core: 100_000,
        ..paper_grid()
    };
    let t = assert_ladders_match_reference(&cfg, "mixes");
    // Six ladders of three sizes: a clean ladder derives two cells, and
    // mix_producer_share's caches fill sets at 1 MB under both.
    assert!(t.derived_larger > 0, "some mix ladder derives");
    assert!(t.derived_larger < 12, "some mix ladder falls back: {t:?}");
    assert_eq!(t.derived, t.derived_larger + 9);
    // Every larger rung a ladder does not derive resumes the fork its
    // rung below made, from the cycle of that fork.
    assert_eq!(t.resumed, 12 - t.derived_larger, "{t:?}");
    assert!(t.resumed_from_cycle > 0, "{t:?}");
}

/// Without a Protocol donor each (scenario, size) baseline is simulated,
/// and the baselines of a scenario climb a ladder of their own. A
/// baseline powers every line from cycle 0, so its fork powers the new
/// lines of each regrown cache from cycle 0 too.
#[test]
fn a_ladder_of_baselines_resumes_forks_with_every_line_powered() {
    let cfg = SweepConfig {
        scenarios: vec![Scenario::Mix(ScenarioSpec::producer_sharing())],
        sizes_mb: vec![1, 2, 8],
        techniques: Vec::new(),
        instructions_per_core: 100_000,
        ..paper_grid()
    };
    let t = assert_ladders_match_reference(&cfg, "baselines");
    assert_eq!((t.resumed, t.derived_larger, t.derived), (1, 1, 1), "{t:?}");
}

/// Only a simulated run can fork: when the store answers a ladder's
/// smallest size, its next size is simulated from cycle 0.
#[test]
fn a_store_holding_the_smaller_rung_makes_the_next_rung_simulate_from_cycle_0() {
    let root = std::env::temp_dir().join(format!("cmpleak-size-rung-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let store = Arc::new(ResultStore::open(&root).expect("store root"));
    let cfg = SweepConfig {
        scenarios: vec![Scenario::Mix(ScenarioSpec::producer_sharing())],
        sizes_mb: vec![1, 2],
        techniques: vec![Technique::Protocol],
        instructions_per_core: 100_000,
        ..paper_grid()
    };
    let (_, cold) = run_sweep_with_telemetry(&cfg, &mut ExperimentScratch::default());
    assert_eq!(cold.resumed, 1, "without a store, 2 MB resumes the 1 MB run's fork: {cold:?}");
    let smaller = SweepConfig { sizes_mb: vec![1], store: Some(Arc::clone(&store)), ..cfg.clone() };
    run_sweep_with_telemetry(&smaller, &mut ExperimentScratch::default());
    let (res, t) = run_sweep_with_telemetry(
        &SweepConfig { store: Some(Arc::clone(&store)), ..cfg.clone() },
        &mut ExperimentScratch::default(),
    );
    assert_eq!(json(&res), json(&run_sweep_reference(&cfg)), "a loaded smaller rung");
    assert_eq!((t.store_hits, t.store_misses, t.resumed), (1, 1, 0), "{t:?}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_store_holding_a_mid_ladder_cell_changes_nothing() {
    let root = std::env::temp_dir().join(format!("cmpleak-size-ladders-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let store = Arc::new(ResultStore::open(&root).expect("store root"));
    let mut cfg = paper_grid();
    cfg.scenarios.truncate(1);
    cfg.techniques.truncate(1);
    // Put the 2 MB Protocol cell in the store, simulated plainly.
    let seed_cell =
        SweepConfig { sizes_mb: vec![2], store: Some(Arc::clone(&store)), ..cfg.clone() };
    run_sweep_with_telemetry(&seed_cell, &mut ExperimentScratch::default());
    let reference = json(&run_sweep_reference(&cfg));
    let cfg = SweepConfig { store: Some(Arc::clone(&store)), ..cfg };
    let (res, t) = run_sweep_with_telemetry(&cfg, &mut ExperimentScratch::default());
    assert_eq!(json(&res), reference, "a loaded mid-ladder cell changed the sweep");
    // The 2 MB Protocol and baseline cells load; 1 MB is simulated and
    // derives 4 and 8 MB; the 1, 4 and 8 MB baselines are derived.
    assert_eq!((t.store_hits, t.store_misses), (1, 1), "{t:?}");
    assert_eq!((t.derived_larger, t.derived), (2, 6), "{t:?}");
    std::fs::remove_dir_all(&root).ok();
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    prop_oneof![
        (0..WorkloadSpec::paper_suite().len())
            .prop_map(|i| Scenario::Homogeneous(WorkloadSpec::paper_suite()[i])),
        (0..ScenarioSpec::paper_mixes().len())
            .prop_map(|i| Scenario::Mix(ScenarioSpec::paper_mixes().swap_remove(i))),
    ]
}

fn arb_mix() -> impl Strategy<Value = Scenario> {
    (0..ScenarioSpec::paper_mixes().len())
        .prop_map(|i| Scenario::Mix(ScenarioSpec::paper_mixes().swap_remove(i)))
}

/// A scenario, budget and core count: three times in four a short run
/// of any scenario, else a mix long enough for its 1 MB caches to fill
/// sets on four cores, so that most such ladders resume forks.
fn arb_run() -> impl Strategy<Value = (Scenario, u64, usize)> {
    let short = || (arb_scenario(), 2_000u64..10_000, prop_oneof![Just(1usize), Just(2), Just(4)]);
    prop_oneof![short(), short(), short(), (arb_mix(), 80_000u64..120_000, Just(4usize))]
}

fn arb_technique() -> impl Strategy<Value = Technique> {
    prop_oneof![
        Just(Technique::Protocol),
        (10u64..17).prop_map(|p| Technique::Decay { decay_cycles: 1 << p }),
        (10u64..17).prop_map(|p| Technique::SelectiveDecay { decay_cycles: 1 << p }),
    ]
}

proptest! {
    /// One ladder (plus the baseline's) over a random subset of the
    /// paper sizes: whatever the scenario, technique, seed and budget,
    /// and whether it derives or resumes its larger sizes, the sweep
    /// equals the reference ([`arb_run`]). Every larger rung is either
    /// derived or resumed: the ladder replays a recording, so no rung but
    /// its first runs from cycle 0.
    #[test]
    fn ladders_agree_with_the_reference_on_randomized_grids(
        run in arb_run(),
        technique in arb_technique(),
        seed in 0u64..1000,
        sizes in 1usize..16,
    ) {
        let (scenario, instr, n_cores) = run;
        let cfg = SweepConfig {
            scenarios: vec![scenario],
            sizes_mb: [1, 2, 4, 8].into_iter().filter(|mb| sizes & mb != 0).collect(),
            techniques: vec![technique],
            instructions_per_core: instr,
            seed,
            n_cores,
            threads: 2,
            store: None,
        };
        let (res, t) = run_sweep_with_telemetry(&cfg, &mut ExperimentScratch::default());
        prop_assert_eq!(json(&res), json(&run_sweep_reference(&cfg)));
        let ladders = if technique.timing_identical_to_baseline() { 1 } else { 2 };
        prop_assert_eq!(t.resumed + t.derived_larger, ladders * (cfg.sizes_mb.len() - 1));
    }
}

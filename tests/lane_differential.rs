//! A group's cells, run back to back from one recording through one
//! scratch, equal their solo runs.
//!
//! Every (scenario, size) group of the grid runs one op stream under
//! the baseline and the seven paper techniques. The sweep records the
//! group's stream once and hands every cell to the worker pool as its
//! own unit, so a cell may run on any worker, and a worker that draws
//! several cells of one group runs them back to back through one
//! `ExperimentScratch`. The claim pinned here is that neither choice
//! shows in the results: a cell run that way is bit-identical to the
//! solo run of its configuration (live generation, fresh scratch) —
//! same `SimStats` (every counter, every per-core breakdown, every
//! sampled interval) and the same `PowerReport`. Coverage: baseline +
//! all seven paper techniques × homogeneous / heterogeneous-mix /
//! trace-replay scenarios, plus the sweep surface (cells spread over
//! four workers against one worker running every cell in order,
//! serialized cell for cell). The test names keep the word "lane" from
//! a per-group engine since deleted.

use cmp_leakage::core::experiment::{
    run_experiment, run_experiment_with_scratch, ExperimentConfig, ExperimentScratch,
};
use cmp_leakage::core::sweep::{run_sweep, SweepConfig};
use cmp_leakage::core::{Scenario, Technique, WorkloadSpec};
use cmp_leakage::workloads::ScenarioSpec;

const INSTR: u64 = 25_000;
const SEED: u64 = 42;

fn all_techniques() -> Vec<Technique> {
    let mut v = vec![Technique::Baseline];
    v.extend(Technique::paper_set());
    v
}

/// Run baseline + the full paper set as the cells of one group — one
/// stream (recorded once unless the scenario already replays a shared
/// buffer), one scratch, cell after cell — and match every cell against
/// the solo run of its configuration in whole-struct equality.
fn differential_over_techniques(scenario: Scenario, tag: &str) {
    let mut scratch = ExperimentScratch::default();
    let stream = if scenario.generates_live() {
        scenario.record_shared_in(4, SEED, INSTR, vec![Vec::new(); 4])
    } else {
        scenario.clone()
    };
    for technique in all_techniques() {
        let mut cfg = ExperimentConfig::paper_scenario(scenario.clone(), technique, 1);
        cfg.instructions_per_core = INSTR;
        cfg.seed = SEED;
        let shared_cfg = ExperimentConfig { scenario: stream.clone(), ..cfg.clone() };
        let shared = run_experiment_with_scratch(&shared_cfg, &mut scratch);
        let solo = run_experiment(&cfg);
        assert_eq!(shared.benchmark, solo.benchmark, "{tag}: the recording keeps the label");
        assert_eq!(
            shared.stats, solo.stats,
            "{tag}/{}: SimStats from the shared recording diverged from the solo run",
            shared.technique
        );
        assert_eq!(
            shared.power, solo.power,
            "{tag}/{}: PowerReport from the shared recording diverged from the solo run",
            shared.technique
        );
    }
}

#[test]
fn lanes_agree_for_every_technique_homogeneous() {
    differential_over_techniques(Scenario::Homogeneous(WorkloadSpec::water_ns()), "homogeneous");
}

#[test]
fn lanes_agree_for_every_technique_mix() {
    for mix in ScenarioSpec::paper_mixes() {
        let tag = mix.name.clone();
        differential_over_techniques(Scenario::Mix(mix), &tag);
    }
}

#[test]
fn lanes_agree_for_every_technique_trace_replay() {
    let live = Scenario::Homogeneous(WorkloadSpec::mpeg2dec());
    let path = std::env::temp_dir().join("cmpleak_lane_diff.cmpt");
    live.record(4, SEED, INSTR).save(&path).expect("trace written");
    let replay = Scenario::from_trace(&path).expect("trace readable");
    differential_over_techniques(replay, "trace-replay");
    std::fs::remove_file(&path).ok();
}

/// The sweep surface: the cells of every group spread over four workers
/// against a single worker running every cell in pool order, serialized
/// cell for cell.
#[test]
fn laned_sweep_is_byte_identical_to_sequential_sweep() {
    let cfg = SweepConfig {
        scenarios: vec![
            Scenario::Homogeneous(WorkloadSpec::mpeg2dec()),
            Scenario::Mix(ScenarioSpec::bursty_idle()),
        ],
        sizes_mb: vec![1, 2],
        techniques: Technique::paper_set(),
        instructions_per_core: 20_000,
        seed: 42,
        n_cores: 4,
        threads: 4,
        store: None,
    };
    let spread = run_sweep(&cfg);
    let sequential = run_sweep(&SweepConfig { threads: 1, ..cfg.clone() });
    let a = serde_json::to_string(&spread).expect("serializable");
    let b = serde_json::to_string(&sequential).expect("serializable");
    assert_eq!(a, b, "spreading a group's cells over workers changed the sweep");
}

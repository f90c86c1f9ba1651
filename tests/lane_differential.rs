//! The technique-lane differential oracle.
//!
//! Every (scenario, size) group of the grid runs one op stream under
//! the baseline and the seven paper techniques; each technique's cell
//! is a *lane* of the group. The sweep records the group's stream once
//! and hands every lane to the worker pool as its own unit, so a lane
//! may run on any worker, and a worker that draws several lanes of one
//! group runs them back to back through one `ExperimentScratch`. The
//! claim pinned here is that neither choice shows in the results: a
//! lane run that way is bit-identical to the solo run of its
//! configuration — same `SimStats` (every counter, every per-core
//! breakdown, every sampled interval) and the same `PowerReport`.
//! Coverage: baseline + all seven paper techniques × homogeneous /
//! heterogeneous-mix / trace-replay scenarios, plus the sweep surface
//! (lanes spread over four workers against one worker running every
//! lane in order, serialized cell-for-cell).

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

/// Run baseline + the full paper set as the lanes of one group — one
/// stream (recorded once unless the scenario already replays a shared
/// buffer), one scratch, lane after lane — and match every lane against
/// the solo run of its configuration in whole-struct equality.
fn differential_over_techniques(scenario: Scenario, tag: &str) {
    let mut scratch = ExperimentScratch::default();
    let stream = if scenario.generates_live() {
        scenario.record_shared(4, SEED, INSTR, scratch.stream_arena())
    } else {
        scenario.clone()
    };
    for technique in all_techniques() {
        let mut cfg = ExperimentConfig::paper_scenario(scenario.clone(), technique, 1);
        cfg.instructions_per_core = INSTR;
        cfg.seed = SEED;
        let lane_cfg = ExperimentConfig { scenario: stream.clone(), ..cfg.clone() };
        let lane = run_experiment_with_scratch(&lane_cfg, &mut scratch);
        let solo = run_experiment(&cfg);
        assert_eq!(lane.benchmark, solo.benchmark, "{tag}: lanes keep the scenario label");
        assert_eq!(
            lane.stats, solo.stats,
            "{tag}/{}: lane SimStats diverged from the solo run",
            lane.technique
        );
        assert_eq!(
            lane.power, solo.power,
            "{tag}/{}: lane PowerReport diverged from the solo run",
            lane.technique
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

/// The sweep surface: the lanes of every group spread over four
/// workers against a single worker running every lane in grid order,
/// serialized cell-for-cell.
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
    let laned = run_sweep(&cfg);
    let sequential = run_sweep(&SweepConfig { threads: 1, ..cfg.clone() });
    let a = serde_json::to_string(&laned).expect("serializable");
    let b = serde_json::to_string(&sequential).expect("serializable");
    assert_eq!(a, b, "spreading a group's lanes over workers changed the sweep");
}

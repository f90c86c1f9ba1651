//! The shared-op-stream differential oracle.
//!
//! The sweep planner claims that recording each (scenario, seed,
//! instruction budget) group once into an in-memory trace and replaying
//! cursors over it in every cell is **bit-identical** to regenerating
//! the streams live per cell: same `SimStats` (every counter, every
//! per-core breakdown, every sampled interval) and therefore the same
//! `PowerReport`. The claim rests on the op-source budget contract (a
//! core fetches ops only while its instruction budget is uncovered, so
//! a recording covering the budget covers every fetch) — this suite
//! pins it end to end for every paper technique across homogeneous and
//! heterogeneous-mix scenarios, at both the experiment and the sweep
//! surface.

use cmp_leakage::core::experiment::{run_experiment, ExperimentConfig};
use cmp_leakage::core::sweep::{run_sweep, run_sweep_reference, SweepConfig};
use cmp_leakage::core::{Scenario, Technique, WorkloadSpec};
use cmp_leakage::mem::BankArena;
use cmp_leakage::workloads::ScenarioSpec;

const INSTR: u64 = 25_000;

fn all_techniques() -> Vec<Technique> {
    let mut v = vec![Technique::Baseline];
    v.extend(Technique::paper_set());
    v
}

/// Every technique run from a shared recording must match its
/// live-generation twin in whole-struct equality.
fn differential_over_techniques(live: Scenario, tag: &str) {
    let shared = live.record_shared(4, 42, INSTR, &mut BankArena::default());
    for technique in all_techniques() {
        let mut live_cfg = ExperimentConfig::paper_scenario(live.clone(), technique, 1);
        live_cfg.instructions_per_core = INSTR;
        let mut shared_cfg = ExperimentConfig::paper_scenario(shared.clone(), technique, 1);
        shared_cfg.instructions_per_core = INSTR;
        let a = run_experiment(&live_cfg);
        let b = run_experiment(&shared_cfg);
        assert_eq!(a.benchmark, b.benchmark, "{tag}: shared cells keep the scenario label");
        assert_eq!(
            a.stats, b.stats,
            "{tag}/{}: shared-stream SimStats diverged from live generation",
            a.technique
        );
        assert_eq!(
            a.power, b.power,
            "{tag}/{}: PowerReport diverged between shared and live streams",
            a.technique
        );
    }
}

#[test]
fn shared_streams_agree_for_every_technique_homogeneous() {
    differential_over_techniques(Scenario::Homogeneous(WorkloadSpec::water_ns()), "homogeneous");
}

#[test]
fn shared_streams_agree_for_every_technique_mix() {
    for mix in ScenarioSpec::paper_mixes() {
        let tag = mix.name.clone();
        differential_over_techniques(Scenario::Mix(mix), &tag);
    }
}

/// The sweep surface: `run_sweep` (stream sharing on, default) against
/// `run_sweep_reference` (every cell generated live and simulated),
/// serialized cell-for-cell.
#[test]
fn shared_sweep_is_byte_identical_to_live_generation_sweep() {
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
    let shared = run_sweep(&cfg);
    let live = run_sweep_reference(&cfg);
    let a = serde_json::to_string(&shared).expect("serializable");
    let b = serde_json::to_string(&live).expect("serializable");
    assert_eq!(a, b, "shared-stream sweep diverged from the live-generation sweep");
}

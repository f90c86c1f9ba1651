//! The two-kernel differential oracle.
//!
//! The quiescence-skipping kernel claims bit-identity with the
//! per-cycle reference loop: same `SimStats` (every counter, every
//! per-core stall breakdown, every sampled interval) and therefore the
//! same `PowerReport`. This suite pins that claim across every paper
//! technique, every scenario kind (homogeneous, heterogeneous mix,
//! trace replay), and a randomized grid of workload/seed/size
//! combinations. Any divergence — a missed wakeup source, a stall
//! cycle charged to the wrong counter, a decay tick applied late — is a
//! kernel bug by definition.

use cmp_leakage::coherence::Technique;
use cmp_leakage::core::{run_experiment, ExperimentConfig, Scenario};
use cmp_leakage::system::SimKernel;
use cmp_leakage::workloads::{BenchClass, ScenarioSpec, WorkloadSpec};
use proptest::prelude::*;

const INSTR: u64 = 25_000;

fn all_techniques() -> Vec<Technique> {
    let mut v = vec![Technique::Baseline];
    v.extend(Technique::paper_set());
    v
}

fn assert_kernels_agree(mut cfg: ExperimentConfig, tag: &str) {
    cfg.kernel = SimKernel::PerCycle;
    let reference = run_experiment(&cfg);
    cfg.kernel = SimKernel::QuiescenceSkip;
    let skipping = run_experiment(&cfg);
    assert_eq!(
        reference.stats, skipping.stats,
        "{tag}/{}: quiescence-skipping SimStats diverged from the per-cycle kernel",
        reference.technique
    );
    assert_eq!(
        reference.power, skipping.power,
        "{tag}/{}: PowerReport diverged between kernels",
        reference.technique
    );
}

fn differential_over_techniques(scenario: Scenario, tag: &str) {
    for technique in all_techniques() {
        let mut cfg = ExperimentConfig::paper_scenario(scenario.clone(), technique, 1);
        cfg.instructions_per_core = INSTR;
        assert_kernels_agree(cfg, tag);
    }
}

#[test]
fn kernels_agree_for_every_technique_homogeneous() {
    differential_over_techniques(Scenario::Homogeneous(WorkloadSpec::water_ns()), "homogeneous");
}

#[test]
fn kernels_agree_for_every_technique_mix() {
    // bursty_idle is the skip kernel's best case (long all-blocked
    // spans) and thus its most bug-exposing scenario.
    differential_over_techniques(Scenario::Mix(ScenarioSpec::bursty_idle()), "mix_bursty_idle");
}

#[test]
fn kernels_agree_for_every_technique_read_burst() {
    // A read-burst stresser: pure-load streaming bursts with no exec
    // gaps, so the L1s fire misses into the L2 read queues as fast as
    // dispatch allows. A core with anything in its read queue stays
    // awake and is stepped, so the skip kernel jumps only once the
    // queues have drained; this pins that the skip stays bit-identical
    // through read-dominated phases for every technique.
    // (The queue-jam microstructure itself — small MSHRs behind a slow
    // memory — is additionally pinned by the system crate's
    // `kernels_bit_identical_through_blocked_read_bursts` unit test.)
    let read_burst = WorkloadSpec {
        name: "read_burst",
        class: BenchClass::Scientific,
        pool_regions: 64,
        region_bytes: 64 * 1024,
        hot_regions: 2,
        generation_bursts: 4,
        burst_lines: 64,
        accesses_per_line: 1,
        exec_gap: (0, 0),
        store_lines: 0.0,
        write_fraction: 0.0,
        shared_fraction: 0.05,
        shared_regions: 4,
        share_epoch_ops: 50_000,
        revisit: false,
    };
    differential_over_techniques(Scenario::Homogeneous(read_burst), "read_burst");
}

#[test]
fn kernels_agree_for_every_technique_trace_replay() {
    let scenario = Scenario::Mix(ScenarioSpec::stream_revisit());
    let path = std::env::temp_dir().join("cmpleak_kernel_diff.cmpt");
    scenario.record(4, 42, INSTR).save(&path).expect("trace written");
    let replay = Scenario::from_trace(&path).expect("trace readable");
    differential_over_techniques(replay, "trace_replay");
    std::fs::remove_file(&path).ok();
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    prop_oneof![
        (0..WorkloadSpec::extended_suite().len())
            .prop_map(|i| Scenario::Homogeneous(WorkloadSpec::extended_suite()[i])),
        (0..ScenarioSpec::paper_mixes().len())
            .prop_map(|i| Scenario::Mix(ScenarioSpec::paper_mixes().swap_remove(i))),
    ]
}

fn arb_technique() -> impl Strategy<Value = Technique> {
    prop_oneof![
        Just(Technique::Baseline),
        Just(Technique::Protocol),
        (10u64..18).prop_map(|p| Technique::Decay { decay_cycles: 1 << p }),
        (10u64..18).prop_map(|p| Technique::SelectiveDecay { decay_cycles: 1 << p }),
    ]
}

proptest! {
    /// Randomized grid: any (scenario, technique, seed, size) must be
    /// bit-identical across kernels. Case count via `PROPTEST_CASES`
    /// (default 64); each case is kept small so the per-cycle reference
    /// run stays cheap.
    #[test]
    fn kernels_agree_on_randomized_scenarios(
        scenario in arb_scenario(),
        technique in arb_technique(),
        seed in 0u64..1000,
        size_mb in prop_oneof![Just(1usize), Just(2)],
        instr in 4_000u64..12_000,
    ) {
        let mut cfg = ExperimentConfig::paper_scenario(scenario, technique, size_mb);
        cfg.seed = seed;
        cfg.instructions_per_core = instr;
        assert_kernels_agree(cfg, "randomized");
    }
}

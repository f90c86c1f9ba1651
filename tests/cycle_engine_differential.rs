//! The two-engine differential oracle.
//!
//! The worklist engine claims bit-identity with the full-scan reference:
//! same `SimStats` (every counter, every per-core stall breakdown, every
//! sampled interval) and therefore the same `PowerReport`. The claim has
//! to hold per stepped cycle — not just over quiet spans like the kernel
//! differential — so this suite pins it across every paper technique,
//! every scenario kind (homogeneous, heterogeneous mix, trace replay,
//! shared-stream replay), a randomized grid, and the adversarial shapes
//! that stress the active-set bookkeeping: a single core, cores that go
//! idle early and sleep for the rest of the run, and retry storms whose
//! spinning cores must stay awake while window-blocked sleepers are
//! bulk-charged their window stalls on wake. Any divergence — a missed wake edge, a settle charged to the
//! wrong counter, a stale powered-line integral — is an engine bug by
//! definition.
//!
//! Both engines are additionally crossed with both kernels: the engine
//! choice concerns *stepped* cycles, the kernel choice concerns *which*
//! cycles are stepped, and the contract is that the four combinations
//! form one equivalence class. (The skip kernel jumps only while the
//! worklist's active set is empty, so under the full scan it steps
//! every cycle.)

use cmp_leakage::coherence::Technique;
use cmp_leakage::core::{run_experiment, ExperimentConfig, Scenario};
use cmp_leakage::system::{CycleEngine, SimKernel};
use cmp_leakage::workloads::{BenchClass, ScenarioSpec, WorkloadSpec};
use proptest::prelude::*;

const INSTR: u64 = 25_000;

fn all_techniques() -> Vec<Technique> {
    let mut v = vec![Technique::Baseline];
    v.extend(Technique::paper_set());
    v
}

/// Assert the full kernel × engine matrix collapses to one result.
fn assert_engines_agree(cfg: ExperimentConfig, tag: &str) {
    let mut reference = None;
    for kernel in [SimKernel::PerCycle, SimKernel::QuiescenceSkip] {
        for engine in [CycleEngine::FullScan, CycleEngine::Worklist] {
            let mut c = cfg.clone();
            c.kernel = kernel;
            c.engine = engine;
            let r = run_experiment(&c);
            match &reference {
                None => reference = Some(r),
                Some(base) => {
                    assert_eq!(
                        base.stats, r.stats,
                        "{tag}/{}: SimStats diverged at {kernel:?} × {engine:?}",
                        base.technique
                    );
                    assert_eq!(
                        base.power, r.power,
                        "{tag}/{}: PowerReport diverged at {kernel:?} × {engine:?}",
                        base.technique
                    );
                }
            }
        }
    }
}

fn differential_over_techniques(scenario: Scenario, tag: &str) {
    for technique in all_techniques() {
        let mut cfg = ExperimentConfig::paper_scenario(scenario.clone(), technique, 1);
        cfg.instructions_per_core = INSTR;
        assert_engines_agree(cfg, tag);
    }
}

#[test]
fn engines_agree_for_every_technique_homogeneous() {
    differential_over_techniques(Scenario::Homogeneous(WorkloadSpec::water_ns()), "homogeneous");
}

#[test]
fn engines_agree_for_every_technique_mix() {
    // bursty_idle puts two cores to sleep for long stretches mid-run —
    // the worklist engine's best case and its most bug-exposing one.
    differential_over_techniques(Scenario::Mix(ScenarioSpec::bursty_idle()), "mix_bursty_idle");
}

#[test]
fn engines_agree_for_every_technique_trace_replay() {
    let scenario = Scenario::Mix(ScenarioSpec::stream_revisit());
    let path = std::env::temp_dir().join("cmpleak_engine_diff.cmpt");
    scenario.record(4, 42, INSTR).save(&path).expect("trace written");
    let replay = Scenario::from_trace(&path).expect("trace readable");
    differential_over_techniques(replay, "trace_replay");
    std::fs::remove_file(&path).ok();
}

#[test]
fn engines_agree_on_shared_stream_replay() {
    // Shared streams ride the devirtualized `CoreSource::Trace` arm;
    // everything else rides `CoreSource::Live`. Cover the trace arm
    // explicitly under both engines.
    let live = Scenario::Mix(ScenarioSpec::producer_sharing());
    let shared = live.record_shared_in(4, 42, INSTR, vec![Vec::new(); 4]);
    differential_over_techniques(shared, "shared_stream");
}

#[test]
fn engines_agree_single_core() {
    // n_cores = 1: the active set is a single bit, every bus grant is a
    // self-grant, and wake_all degenerates to wake(0). Off-by-ones in
    // the mask arithmetic show up here first.
    for technique in all_techniques() {
        let mut cfg = ExperimentConfig::paper_scenario(
            Scenario::Homogeneous(WorkloadSpec::water_ns()),
            technique,
            1,
        );
        cfg.n_cores = 1;
        cfg.instructions_per_core = INSTR;
        assert_engines_agree(cfg, "single_core");
    }
}

#[test]
fn engines_agree_all_idle_tail() {
    // Exec-heavy cores drain their instruction budgets at different
    // times and then idle; the run's tail is a shrinking active set
    // ending with every core asleep between decay deadlines. Pins the
    // Idle sleep charge and the decay-deadline wake channel.
    let idler = WorkloadSpec {
        name: "idler",
        class: BenchClass::Multimedia,
        pool_regions: 8,
        region_bytes: 16 * 1024,
        hot_regions: 2,
        generation_bursts: 2,
        burst_lines: 4,
        accesses_per_line: 1,
        exec_gap: (200, 400),
        store_lines: 0.25,
        write_fraction: 0.1,
        shared_fraction: 0.0,
        shared_regions: 1,
        share_epoch_ops: 50_000,
        revisit: false,
    };
    for technique in all_techniques() {
        let mut cfg = ExperimentConfig::paper_scenario(Scenario::Homogeneous(idler), technique, 1);
        cfg.instructions_per_core = 4_000;
        assert_engines_agree(cfg, "all_idle");
    }
}

#[test]
fn engines_agree_retry_storm() {
    // Store-dominated streaming with no exec gaps: write buffers fill,
    // L2 write queues jam, and cores spin on refused stores. Such a
    // core never sleeps (a retried store is `Ready` and its write
    // buffer is not empty), so the worklist engine must step it like
    // the full scan and accrue the same reject-stall, wb-full and
    // L2-retry counts cycle by cycle.
    let storm = WorkloadSpec {
        name: "retry_storm",
        class: BenchClass::Scientific,
        pool_regions: 64,
        region_bytes: 64 * 1024,
        hot_regions: 2,
        generation_bursts: 4,
        burst_lines: 64,
        accesses_per_line: 1,
        exec_gap: (0, 0),
        store_lines: 1.0,
        write_fraction: 1.0,
        shared_fraction: 0.05,
        shared_regions: 4,
        share_epoch_ops: 50_000,
        revisit: false,
    };
    differential_over_techniques(Scenario::Homogeneous(storm), "retry_storm");
}

#[test]
fn engines_agree_nack_storm_under_grant_gating() {
    // Heavily shared write traffic: many in-flight fills to the same
    // lines, so bus grants repeatedly hit the split-transaction conflict
    // rule and NACK-retry — each retry re-enqueues after charging
    // occupancy. Every stepped cycle arbitrates, so the skip kernel's
    // bus wake edge (`SharedBus::next_possible_grant`) is the one that
    // must never jump past a cycle in which a retried request could be
    // granted.
    let nack = WorkloadSpec {
        name: "nack_storm",
        class: BenchClass::Scientific,
        pool_regions: 4,
        region_bytes: 4 * 1024,
        hot_regions: 2,
        generation_bursts: 4,
        burst_lines: 32,
        accesses_per_line: 2,
        exec_gap: (0, 4),
        store_lines: 0.8,
        write_fraction: 0.8,
        shared_fraction: 0.9,
        shared_regions: 2,
        share_epoch_ops: 1_000,
        revisit: true,
    };
    differential_over_techniques(Scenario::Homogeneous(nack), "nack_storm");
}

#[test]
fn engines_agree_lone_core_sleeping_mid_batch() {
    // One core alternating compute bursts with long exec gaps: at the
    // end of every burst the lone core falls asleep, which empties the
    // active set, and the skip kernel must jump the quiet span at once
    // and hand back on the wake edge — the sleep → jump handoff,
    // repeated on every burst.
    let burster = WorkloadSpec {
        name: "lone_burster",
        class: BenchClass::Multimedia,
        pool_regions: 8,
        region_bytes: 16 * 1024,
        hot_regions: 2,
        generation_bursts: 2,
        burst_lines: 8,
        accesses_per_line: 4,
        exec_gap: (300, 600),
        store_lines: 0.2,
        write_fraction: 0.2,
        shared_fraction: 0.0,
        shared_regions: 1,
        share_epoch_ops: 50_000,
        revisit: false,
    };
    for technique in all_techniques() {
        let mut cfg =
            ExperimentConfig::paper_scenario(Scenario::Homogeneous(burster), technique, 1);
        cfg.n_cores = 1;
        cfg.instructions_per_core = 12_000;
        assert_engines_agree(cfg, "lone_sleep_mid_batch");
    }
}

#[test]
fn engines_agree_staggered_drain_inside_lockstep_batch() {
    // Four compute-heavy cores with different exec-gap distributions:
    // their per-cycle throughputs differ, so the cores drain their
    // instruction budgets at staggered cycles while the others are
    // still running. Each drained core must fall asleep on its own, and
    // the run must stop on the reference cycle (the reference consults
    // `done()` after every cycle), whether the last drain lands in a
    // stepped cycle or ends a skipped span.
    let mut fast = WorkloadSpec::volrend();
    fast.name = "fast_cruncher";
    fast.exec_gap = (2, 6);
    fast.shared_fraction = 0.0;
    let mut slow = WorkloadSpec::volrend();
    slow.name = "slow_cruncher";
    slow.exec_gap = (40, 90);
    slow.shared_fraction = 0.0;
    let mix = ScenarioSpec::new("mix_staggered_drain", vec![fast, slow, fast, slow]);
    for technique in all_techniques() {
        let mut cfg = ExperimentConfig::paper_scenario(Scenario::Mix(mix.clone()), technique, 1);
        cfg.instructions_per_core = 12_000;
        assert_engines_agree(cfg, "staggered_drain");
    }
}

#[test]
fn engines_agree_decay_deadline_inside_batched_span() {
    // A lone compute-heavy core under a short decay interval: decay
    // ticks land every ~1K cycles, inside the spans the skip kernel
    // jumps while the core sleeps. The jump must stop at each sleeping
    // core's deadline so the L2 phase processes the decay clock exactly
    // on time — one late tick shifts turn-off cycles and breaks the
    // leakage integral.
    let cruncher = WorkloadSpec {
        name: "cruncher",
        class: BenchClass::Scientific,
        pool_regions: 8,
        region_bytes: 16 * 1024,
        hot_regions: 2,
        generation_bursts: 2,
        burst_lines: 8,
        accesses_per_line: 8,
        exec_gap: (100, 250),
        store_lines: 0.3,
        write_fraction: 0.3,
        shared_fraction: 0.0,
        shared_regions: 1,
        share_epoch_ops: 50_000,
        revisit: true,
    };
    for technique in [
        Technique::Decay { decay_cycles: 1 << 10 },
        Technique::SelectiveDecay { decay_cycles: 1 << 10 },
        Technique::Decay { decay_cycles: 1 << 14 },
    ] {
        for n_cores in [1usize, 2] {
            let mut cfg =
                ExperimentConfig::paper_scenario(Scenario::Homogeneous(cruncher), technique, 1);
            cfg.n_cores = n_cores;
            cfg.instructions_per_core = 12_000;
            assert_engines_agree(cfg, "decay_in_batch");
        }
    }
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
    /// Randomized grid: any (scenario, technique, seed, size, cores)
    /// must land all four kernel × engine cells on one result. Case
    /// count via `PROPTEST_CASES` (default 64); each case is kept small
    /// so the 4-way product stays cheap.
    #[test]
    fn engines_agree_on_randomized_scenarios(
        scenario in arb_scenario(),
        technique in arb_technique(),
        seed in 0u64..1000,
        size_mb in prop_oneof![Just(1usize), Just(2)],
        instr in 4_000u64..12_000,
        n_cores in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let mut cfg = ExperimentConfig::paper_scenario(scenario, technique, size_mb);
        cfg.seed = seed;
        cfg.instructions_per_core = instr;
        cfg.n_cores = n_cores;
        assert_engines_agree(cfg, "randomized");
    }
}

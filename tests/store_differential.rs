//! The persistent-result-store differential oracle.
//!
//! The store's contract is that it may only ever change **latency**,
//! never results: a sweep through a cold store (simulate + publish), a
//! sweep through a warm store (load every cell from disk), and an
//! uncached sweep (`store: None`) must be byte-identical — at every
//! thread count, with the in-pool stream recording active. This suite
//! pins that end to end, plus the telemetry invariants that make the
//! cache honest (a cold pass hits nothing; a fully-warm pass neither
//! simulates nor records anything; a scenario with anything to simulate
//! is recorded exactly once, however its cells are spread over the pool
//! and the store).

use cmp_leakage::core::sweep::{run_sweep, run_sweep_with_telemetry, SweepConfig, SweepTelemetry};
use cmp_leakage::core::{ExperimentScratch, Scenario, Technique, WorkloadSpec};
use cmp_leakage::store::ResultStore;
use cmp_leakage::workloads::ScenarioSpec;
use std::path::PathBuf;
use std::sync::Arc;

fn grid(threads: usize, store: Option<Arc<ResultStore>>) -> SweepConfig {
    SweepConfig {
        scenarios: vec![
            Scenario::Homogeneous(WorkloadSpec::water_ns()),
            Scenario::Mix(ScenarioSpec::bursty_idle()),
        ],
        sizes_mb: vec![1, 2],
        techniques: Technique::paper_set(),
        instructions_per_core: 20_000,
        seed: 42,
        n_cores: 4,
        threads,
        store,
    }
}

fn temp_store(tag: &str) -> (PathBuf, Arc<ResultStore>) {
    let root =
        std::env::temp_dir().join(format!("cmpleak-store-diff-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let store = Arc::new(ResultStore::open(&root).expect("store root"));
    (root, store)
}

fn json(results: &cmp_leakage::core::sweep::SweepResults) -> String {
    serde_json::to_string(results).expect("serializable")
}

fn run(cfg: &SweepConfig) -> (String, SweepTelemetry) {
    let mut scratch = ExperimentScratch::default();
    let (res, t) = run_sweep_with_telemetry(cfg, &mut scratch);
    (json(&res), t)
}

/// Cold (simulate + publish) and warm (load from disk) sweeps are
/// byte-identical to the uncached sweep, and the telemetry proves the
/// warm pass did no simulation work.
#[test]
fn cold_and_warm_store_sweeps_match_uncached_byte_for_byte() {
    let fresh = json(&run_sweep(&grid(4, None)));
    let (root, store) = temp_store("coldwarm");

    let (cold, t_cold) = run(&grid(4, Some(Arc::clone(&store))));
    assert_eq!(cold, fresh, "cold store sweep diverged from uncached");
    assert_eq!(t_cold.store_hits, 0, "a wiped store produced hits");
    assert!(t_cold.store_misses > 0, "cold pass published nothing");
    assert!(t_cold.recorded > 0, "cold pass never recorded a stream group");

    let (warm, t_warm) = run(&grid(4, Some(Arc::clone(&store))));
    assert_eq!(warm, fresh, "warm store sweep diverged from uncached");
    assert_eq!(t_warm.store_misses, 0, "warm pass re-simulated a stored cell");
    assert_eq!(t_warm.recorded, 0, "warm pass recorded streams it never replays");
    // The cold pass published every cell it simulated and every larger
    // size it derived; the warm pass loads each of them (baselines are
    // derived again, not probed).
    assert_eq!(
        t_warm.store_hits,
        t_cold.store_misses + t_cold.derived_larger,
        "hit/miss populations disagree"
    );

    std::fs::remove_dir_all(root).ok();
}

/// A cold pass whose ladders resume forks publishes each resumed cell as
/// a simulated one, and the warm pass loads it: warm == cold == uncached,
/// with nothing simulated, resumed or derived from a size warm.
#[test]
fn warm_equals_cold_when_cold_resumes_forks() {
    let cfg = |store| SweepConfig {
        scenarios: vec![
            Scenario::Mix(ScenarioSpec::producer_sharing()),
            Scenario::Mix(ScenarioSpec::bursty_idle()),
        ],
        sizes_mb: vec![1, 2, 8],
        techniques: vec![Technique::Protocol, Technique::Decay { decay_cycles: 64 * 1024 }],
        instructions_per_core: 100_000,
        seed: 42,
        n_cores: 4,
        threads: 2,
        store,
    };
    let fresh = json(&run_sweep(&cfg(None)));
    let (root, store) = temp_store("resumed");
    let (cold, t_cold) = run(&cfg(Some(Arc::clone(&store))));
    assert_eq!(cold, fresh, "cold store sweep with resumed rungs diverged from uncached");
    assert!(t_cold.resumed > 0, "no ladder resumed a fork: {t_cold:?}");
    let (warm, t_warm) = run(&cfg(Some(Arc::clone(&store))));
    assert_eq!(warm, cold, "warm sweep diverged from a cold one that resumed rungs");
    assert_eq!((t_warm.store_misses, t_warm.resumed, t_warm.derived_larger), (0, 0, 0));
    assert_eq!(t_warm.store_hits, t_cold.store_misses + t_cold.derived_larger, "{t_cold:?}");
    std::fs::remove_dir_all(root).ok();
}

/// The shape of one `sweep serve` miss: a single (scenario, size) group
/// over the paper set. Its cells are separate pool jobs off one stream
/// slot, so at two or more threads a second worker blocks on the slot
/// while the first records the shared stream.
fn serve_miss(threads: usize, store: Option<Arc<ResultStore>>) -> SweepConfig {
    let mut cfg = grid(threads, store);
    cfg.scenarios.truncate(1);
    cfg.sizes_mb.truncate(1);
    cfg
}

/// The cache is thread-count-blind: cold at T threads == warm at T'
/// threads == uncached, for every combination of 1/2/8 — the in-pool
/// recording and the hit/miss partition must not perturb results — and
/// every cold pass publishes every cell, derived baselines included.
#[test]
fn store_sweeps_identical_across_thread_counts() {
    type Shape = fn(usize, Option<Arc<ResultStore>>) -> SweepConfig;
    let shapes: [(&str, Shape); 2] = [("grid", grid), ("serve", serve_miss)];
    for (tag, shape) in shapes {
        let cfg = shape(1, None);
        let fresh = json(&run_sweep(&cfg));
        let cells = cfg.scenarios.len() * cfg.sizes_mb.len() * (1 + cfg.techniques.len());
        for cold_threads in [1usize, 2, 8] {
            let (root, store) = temp_store(&format!("{tag}-threads{cold_threads}"));
            let (cold, _) = run(&shape(cold_threads, Some(Arc::clone(&store))));
            assert_eq!(cold, fresh, "{tag}: cold store sweep diverged at {cold_threads} thread(s)");
            assert_eq!(
                store.record_count(),
                cells,
                "{tag}: cold pass at {cold_threads} thread(s) left cells unpublished"
            );
            for warm_threads in [1usize, 2, 8] {
                let (warm, t) = run(&shape(warm_threads, Some(Arc::clone(&store))));
                assert_eq!(
                    warm, fresh,
                    "{tag}: warm sweep at {warm_threads} thread(s) over a store written at \
                     {cold_threads} diverged"
                );
                assert_eq!(t.store_misses, 0, "{tag}: cross-thread warm pass missed");
            }
            std::fs::remove_dir_all(root).ok();
        }
    }
}

/// Uncached in-pool recording alone (no store) is byte-identical across
/// thread counts — the first-toucher recording protocol is
/// deterministic for any pool size.
#[test]
fn in_pool_recording_is_deterministic_across_thread_counts() {
    let serial = json(&run_sweep(&grid(1, None)));
    for threads in [2usize, 8] {
        let parallel = json(&run_sweep(&grid(threads, None)));
        assert_eq!(serial, parallel, "in-pool recording diverged at {threads} thread(s)");
    }
}

/// Derived baseline cells are published too: a warm sweep whose grid
/// includes the memoized baseline answers every simulated cell from
/// the store and still derives baselines to the same bytes.
#[test]
fn derived_baselines_survive_the_store_round_trip() {
    let (root, store) = temp_store("derived");
    let cfg = grid(2, Some(Arc::clone(&store)));
    let (cold, t_cold) = run(&cfg);
    // 2 scenarios x 2 sizes x (1 baseline + 7 techniques) = 32 cells,
    // of which the 4 baselines are derived from Protocol, not simulated
    // (beside any 2 MB cell derived from its 1 MB run).
    let baselines = t_cold.derived - t_cold.derived_larger;
    assert_eq!(baselines, 4, "baseline memoization off in this grid shape");
    let (warm, t_warm) = run(&cfg);
    assert_eq!(cold, warm, "derivation over store hits diverged from cold derivation");
    assert_eq!(t_warm.derived, 4, "warm pass stopped deriving baselines");
    assert_eq!(t_warm.derived_larger, 0, "a warm pass derived from loaded cells");
    std::fs::remove_dir_all(root).ok();
}

/// Each live-generating scenario with a cell left to simulate is
/// recorded exactly once, at 1–16 threads, cold and against a partly
/// warm store: a recording is dropped only after its scenario's last
/// cell (store hits included), so no cell finds its slot emptied and
/// records again. The replayed scenario is never recorded.
#[test]
fn each_live_scenario_is_recorded_once_at_any_thread_count() {
    const INSTR: u64 = 5_000;
    let replay = Scenario::Homogeneous(WorkloadSpec::mpeg2dec()).record_shared_in(
        4,
        42,
        INSTR,
        vec![Vec::new(); 4],
    );
    let sweep = |scenarios: Vec<Scenario>, sizes_mb: Vec<usize>, threads, store| SweepConfig {
        scenarios,
        sizes_mb,
        techniques: vec![Technique::Protocol, Technique::Decay { decay_cycles: 64 * 1024 }],
        instructions_per_core: INSTR,
        seed: 42,
        n_cores: 4,
        threads,
        store: Some(store),
    };
    let (water, bursty, volrend) = (
        Scenario::Homogeneous(WorkloadSpec::water_ns()),
        Scenario::Mix(ScenarioSpec::bursty_idle()),
        Scenario::Homogeneous(WorkloadSpec::volrend()),
    );
    let all = vec![water.clone(), bursty.clone(), volrend, replay];
    for threads in [1usize, 2, 4, 8, 16] {
        let (root, store) = temp_store(&format!("recorded-cold{threads}"));
        let (_, cold) = run(&sweep(all.clone(), vec![1, 2], threads, Arc::clone(&store)));
        assert_eq!(cold.recorded, 3, "cold pass at {threads} thread(s)");
        std::fs::remove_dir_all(root).ok();

        // Partly warm: WATER-NS stored whole, the mix at 2 MB only.
        let (root, store) = temp_store(&format!("recorded-warm{threads}"));
        run(&sweep(vec![water.clone()], vec![1, 2], 1, Arc::clone(&store)));
        run(&sweep(vec![bursty.clone()], vec![2], 1, Arc::clone(&store)));
        let (_, warm) = run(&sweep(all.clone(), vec![1, 2], threads, Arc::clone(&store)));
        assert_eq!(warm.store_hits, 4 + 2, "partly warm pass at {threads} thread(s)");
        assert_eq!(warm.recorded, 2, "partly warm pass at {threads} thread(s)");
        std::fs::remove_dir_all(root).ok();
    }
}

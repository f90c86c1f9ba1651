//! The full evaluation grid, run in parallel.
//!
//! A sweep executes every (scenario × cache size × technique) cell plus
//! the per-(scenario, size) baselines. Each simulation is
//! single-threaded and deterministic; the sweep farms them over a worker
//! pool (scoped threads + an atomic job cursor — the share-nothing
//! pattern from the workspace's hpc-parallel guides) and reassembles
//! results by index, so the output is identical for any thread count
//! (pinned by the golden regression test in `tests/golden_sweep.rs`).
//!
//! Two entry points run the production path — [`run_sweep`] and
//! [`run_sweep_with_telemetry`], which also returns the planner's work
//! counters — and [`run_sweep_reference`] is the one differential arm.
//! The production path applies three bit-identity-preserving
//! optimizations: the baseline of each (scenario, size) group is
//! *derived* from its timing-identical Protocol twin instead of
//! simulated; each (scenario, seed, budget) group's op stream is
//! *recorded once* into a shared in-memory trace that every cell of the
//! group replays instead of regenerating live (the grid runs 1 + sizes
//! × techniques cells per scenario off one recording, made by the first
//! worker to need it behind one `OnceLock` per scenario); and cells found
//! in the persistent result store ([`SweepConfig::store`]) are *loaded*
//! instead of simulated. The reference arm applies none of them. The
//! worker pool's unit of work is one cell, so even a single (scenario,
//! size) group spreads over every thread. Workers take cells largest L2
//! size first: a worker's first cell sizes its per-line arena and every
//! later, smaller cell reuses those buffers, so each worker holds one
//! largest cell's worth of per-line state. `tests/sweep_memoization.rs`,
//! `tests/stream_sharing.rs` and `tests/store_differential.rs` pin the
//! three optimizations against the reference arm and against each
//! other; timing them is `perfbench/`'s job.

use crate::experiment::{
    derive_baseline_cell, result_from_stored, run_experiment_with_scratch, ExperimentConfig,
    ExperimentResult, ExperimentScratch,
};
use crate::metrics::TechniqueMetrics;
use crate::scenario::Scenario;
use cmpleak_coherence::Technique;
use cmpleak_power::PowerParams;
use cmpleak_store::{CellKey, ResultStore};
use cmpleak_workloads::{ScenarioSpec, WorkloadSpec};
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Scenarios to run (paper: the six homogeneous benchmarks; mixes
    /// and trace replays slot in the same axis).
    pub scenarios: Vec<Scenario>,
    /// Total L2 sizes in MB (paper: 1, 2, 4, 8).
    pub sizes_mb: Vec<usize>,
    /// Techniques (paper: protocol + decay/sel_decay at 512K/128K/64K).
    /// The baseline is always run implicitly.
    pub techniques: Vec<Technique>,
    /// Instructions per core per run.
    pub instructions_per_core: u64,
    /// Workload seed.
    pub seed: u64,
    /// Number of cores simulated.
    pub n_cores: usize,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Persistent result store: cells whose content address is already
    /// present are loaded instead of simulated, and freshly simulated
    /// cells are published back. `None` (the default of every
    /// constructor) simulates everything. The store may only ever
    /// change latency, never results — pinned by
    /// `tests/store_differential.rs`. Ignored by
    /// [`run_sweep_reference`].
    pub store: Option<Arc<ResultStore>>,
}

impl SweepConfig {
    /// The paper's full grid at a given scale.
    pub fn paper(instructions_per_core: u64) -> Self {
        Self {
            scenarios: WorkloadSpec::paper_suite().into_iter().map(Scenario::Homogeneous).collect(),
            sizes_mb: vec![1, 2, 4, 8],
            techniques: Technique::paper_set(),
            instructions_per_core,
            seed: 42,
            n_cores: 4,
            threads: 0,
            store: None,
        }
    }

    /// A reduced grid for quick runs and benches.
    pub fn smoke(instructions_per_core: u64) -> Self {
        let mut cfg = Self::paper(instructions_per_core);
        cfg.sizes_mb = vec![1];
        cfg.scenarios.truncate(2);
        cfg
    }

    /// The heterogeneous-mix grid: the three curated multiprogrammed
    /// scenarios over the paper's technique set at one size.
    pub fn mixes(instructions_per_core: u64) -> Self {
        let mut cfg = Self::paper(instructions_per_core);
        cfg.scenarios = ScenarioSpec::paper_mixes().into_iter().map(Scenario::Mix).collect();
        cfg.sizes_mb = vec![4];
        cfg
    }
}

/// One evaluated cell of the grid.
#[derive(Debug, Clone, Serialize)]
pub struct SweepCell {
    /// Scenario label (`baseline` rows are included).
    pub benchmark: String,
    /// Technique paper label.
    pub technique: String,
    /// Total L2 MB.
    pub size_mb: usize,
    /// Metrics relative to this cell's baseline.
    pub metrics: TechniqueMetrics,
    /// Raw cycle count (IPC bookkeeping / debugging).
    pub cycles: u64,
    /// Raw memory traffic in bytes.
    pub mem_bytes: u64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Average L2 temperature, °C.
    pub avg_l2_temp_c: f64,
}

/// All cells of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepResults {
    /// Evaluated cells, ordered (scenario, size, technique) with the
    /// baseline first within each (scenario, size) group.
    pub cells: Vec<SweepCell>,
}

impl SweepResults {
    /// Find one cell.
    pub fn cell(&self, benchmark: &str, technique: &str, size_mb: usize) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.benchmark == benchmark && c.technique == technique && c.size_mb == size_mb)
    }

    /// Mean metrics of `technique` at `size_mb` across all scenarios
    /// (the aggregation of Figures 3–5).
    pub fn mean_over_benchmarks(
        &self,
        technique: &str,
        size_mb: usize,
    ) -> Option<TechniqueMetrics> {
        let samples: Vec<TechniqueMetrics> = self
            .cells
            .iter()
            .filter(|c| c.technique == technique && c.size_mb == size_mb)
            .map(|c| c.metrics)
            .collect();
        (!samples.is_empty()).then(|| TechniqueMetrics::mean(&samples))
    }

    /// Distinct scenario labels present, in first-seen order.
    pub fn benchmarks(&self) -> Vec<String> {
        let mut v: Vec<String> = Vec::new();
        for c in &self.cells {
            if !v.contains(&c.benchmark) {
                v.push(c.benchmark.clone());
            }
        }
        v
    }
}

fn summarize(result: &ExperimentResult, metrics: TechniqueMetrics) -> SweepCell {
    SweepCell {
        benchmark: result.benchmark.clone(),
        technique: result.technique.clone(),
        size_mb: result.total_l2_mb,
        metrics,
        cycles: result.stats.cycles,
        mem_bytes: result.stats.mem_bytes,
        energy_pj: result.power.energy.total_pj(),
        avg_l2_temp_c: result.power.avg_l2_temp_c,
    }
}

/// Run the sweep with all three sweep-level optimizations on: baseline
/// memoization against the timing-identical technique twin, shared op
/// streams, and the persistent store (when configured).
///
/// **Memoization** — within every (scenario, size) group, the baseline
/// and a [`Technique::timing_identical_to_baseline`] technique
/// (Protocol) produce cycle-for-cycle identical simulations that differ
/// only in power bookkeeping. When the technique list contains such a
/// twin, the baseline cell is **derived** from the twin's result
/// ([`derive_baseline_cell`] re-runs only the power accounting) instead
/// of being simulated — one full simulation saved per group.
///
/// **Shared streams** — every cell of a (scenario, seed, instruction
/// budget) group consumes the *same* op stream: the live generators
/// recompute it per cell, although trace replay is bit-identical to
/// generation. The planner therefore records each live-generating
/// scenario once into an in-memory trace ([`Scenario::record`]) and
/// hands every cell of the group a cheap replay cursor over the shared
/// buffer, amortizing the generator work to one recording per group.
/// The recording happens **inside the worker pool**, behind one
/// [`OnceLock`] per scenario — the first worker to touch a group
/// records it while other workers proceed to other groups and block
/// only on that group — so grid latency scales with cores even on
/// recording-heavy sweeps. If a recording panics, a waiting worker
/// records again and the thread scope re-raises the panic; nothing
/// hangs.
///
/// **Persistent store** — when [`SweepConfig::store`] is set, each
/// cell's content address ([`ExperimentConfig::store_key`]) is probed
/// first: hits are loaded (bit-identical to fresh simulation, pinned by
/// `tests/store_differential.rs`), misses are simulated as usual and
/// published back. A fully warm grid simulates — and records — nothing.
///
/// The output is byte-identical to [`run_sweep_reference`] (pinned
/// cell-for-cell by `tests/sweep_memoization.rs`,
/// `tests/stream_sharing.rs` and `tests/store_differential.rs`, and by
/// the golden snapshot, which passes unchanged with all three
/// optimizations on).
pub fn run_sweep(cfg: &SweepConfig) -> SweepResults {
    run_sweep_with_telemetry(cfg, &mut ExperimentScratch::default()).0
}

/// [`run_sweep`] returning the planner's work counters alongside the
/// results — how many cells were derived, how many stream groups were
/// recorded in-pool, and how the persistent store split the grid into
/// hits and misses. `scratch` becomes the first worker's scratch; the
/// results are identical to [`run_sweep`]'s.
pub fn run_sweep_with_telemetry(
    cfg: &SweepConfig,
    scratch: &mut ExperimentScratch,
) -> (SweepResults, SweepTelemetry) {
    run_sweep_inner(cfg, false, scratch)
}

/// [`run_sweep`] with every optimization disabled: every cell, baseline
/// included, is fully simulated from live generators, with no store
/// involvement. The differential reference for the production path.
pub fn run_sweep_reference(cfg: &SweepConfig) -> SweepResults {
    run_sweep_inner(cfg, true, &mut ExperimentScratch::default()).0
}

/// How a sweep's work actually broke down — all counters deterministic
/// for a given configuration and store state, except that `recorded`
/// can only shrink when store hits make whole groups skip simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepTelemetry {
    /// Baseline cells derived from a timing-identical donor instead of
    /// simulated.
    pub derived: usize,
    /// Shared-stream groups recorded (by the pool's first toucher).
    pub recorded: usize,
    /// Cells answered from the persistent store.
    pub store_hits: usize,
    /// Cells simulated and published to the store.
    pub store_misses: usize,
}

/// One grid cell's work order: the experiment configuration (carrying
/// the **original** scenario — content addresses and recordings both
/// key off it), whether it is simulated at all (derived baselines are
/// not), and which scenario's shared stream it consumes.
#[derive(Debug)]
struct Job {
    cfg: ExperimentConfig,
    simulate: bool,
    scenario_idx: usize,
}

/// The order the pool runs `jobs` in: a stable sort of job indices by
/// descending L2 size. A worker's first cell is then one of its largest,
/// so its arena's column set is sized once and every later, smaller cell
/// is a best-fit pool hit; in job order it would meet 1, 2, 4 and 8 MB in
/// turn and keep a column set for each. Largest-first is also
/// longest-first scheduling, which shortens the pool's tail.
fn largest_first(jobs: &[Job]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&u| std::cmp::Reverse(jobs[u].cfg.total_l2_mb));
    order
}

/// Returns the results plus the sweep's work telemetry. `reference`
/// turns off baseline memoization, stream sharing and the store.
fn run_sweep_inner(
    cfg: &SweepConfig,
    reference: bool,
    scratch: &mut ExperimentScratch,
) -> (SweepResults, SweepTelemetry) {
    // The technique whose run can stand in for the baseline simulation,
    // if any: the first timing-identical one in the configured list.
    let donor_offset = cfg
        .techniques
        .iter()
        .position(|t| t.timing_identical_to_baseline())
        .filter(|_| !reference)
        .map(|i| i + 1); // +1: the baseline occupies slot 0 of each group

    // Stream sharing: each (scenario, seed, budget) group — one per
    // live-generating scenario entry, since seed and budget are
    // sweep-wide — is recorded once into a shared in-memory trace;
    // every cell of the group replays a cursor over it. Replay-backed
    // scenarios already share one buffer and pass through unchanged.
    // Recording pays off only when a group simulates ≥ 2 cells (the
    // recording costs one generator pass); a degenerate single-cell
    // group stays on the live path. The recording itself happens
    // *inside* the worker pool, by the first worker to need a group's
    // stream, so a fully-warm store run records nothing at all.
    let simulated_per_group = cfg.sizes_mb.len() * (1 + cfg.techniques.len())
        - if donor_offset.is_some() { cfg.sizes_mb.len() } else { 0 };
    let share_streams = !reference && simulated_per_group > 1;

    // Job list: for each (scenario, size): baseline + each technique,
    // each carrying the original scenario. `simulate` is false for
    // baseline cells that will be derived.
    let mut jobs: Vec<Job> = Vec::new();
    for (scenario_idx, scenario) in cfg.scenarios.iter().enumerate() {
        for &size in &cfg.sizes_mb {
            let mut techs = vec![Technique::Baseline];
            techs.extend(cfg.techniques.iter().copied());
            for (k, tech) in techs.into_iter().enumerate() {
                let simulate = !(k == 0 && donor_offset.is_some());
                jobs.push(Job {
                    cfg: ExperimentConfig {
                        scenario: scenario.clone(),
                        technique: tech,
                        total_l2_mb: size,
                        instructions_per_core: cfg.instructions_per_core,
                        seed: cfg.seed,
                        n_cores: cfg.n_cores,
                        power: PowerParams::default(),
                        kernel: Default::default(),
                        engine: Default::default(),
                    },
                    simulate,
                    scenario_idx,
                });
            }
        }
    }

    // Content addresses, one per job, computed up front so workers
    // never re-encode a scenario: each scenario's canonical bytes are
    // produced once and every cell of its groups keys off that buffer.
    // Keys are derived from the *original* scenarios, so a warm store
    // hits across processes (a shared recording would encode
    // identically anyway, but the original needs no recording first).
    let store = if reference { None } else { cfg.store.clone() };
    let keys: Vec<Option<CellKey>> = if store.is_some() {
        let scenario_bytes: Vec<Vec<u8>> = cfg
            .scenarios
            .iter()
            .map(|s| {
                let mut b = Vec::new();
                s.canonical_bytes(&mut b);
                b
            })
            .collect();
        jobs.iter()
            .map(|j| Some(j.cfg.store_key_with_scenario_bytes(&scenario_bytes[j.scenario_idx])))
            .collect()
    } else {
        jobs.iter().map(|_| None).collect()
    };

    // One shared stream per scenario, recorded by its first toucher.
    let streams: Vec<OnceLock<Scenario>> = cfg.scenarios.iter().map(|_| OnceLock::new()).collect();
    let recorded = AtomicUsize::new(0);
    let store_hits = AtomicUsize::new(0);
    let store_misses = AtomicUsize::new(0);

    // The pool's work unit is one cell, so even a single (scenario,
    // size) group — a serve-mode miss — spreads over every thread.
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        cfg.threads
    }
    .min(jobs.len().max(1));

    let order = largest_first(&jobs);
    let mut results: Vec<Option<ExperimentResult>> = (0..jobs.len()).map(|_| None).collect();
    // Per-worker scratch: queue and per-line-bank allocations are
    // recycled across a worker's jobs. The caller's is the first one.
    let mut spare: Vec<ExperimentScratch> =
        (1..threads).map(|_| ExperimentScratch::default()).collect();
    {
        // Share-nothing worker pool on std primitives: an atomic cursor
        // walks `order` handing out job indices, an mpsc channel
        // collects results, and reassembly by index keeps the output
        // identical for any thread count and execution order.
        let next_job = AtomicUsize::new(0);
        let (res_tx, res_rx) = std::sync::mpsc::channel::<(usize, ExperimentResult)>();
        std::thread::scope(|s| {
            for scratch in std::iter::once(scratch).chain(spare.iter_mut()) {
                let next_job = &next_job;
                let order = &order;
                let jobs = &jobs;
                let keys = &keys;
                let streams = &streams;
                let store = &store;
                let recorded = &recorded;
                let store_hits = &store_hits;
                let store_misses = &store_misses;
                let res_tx = res_tx.clone();
                s.spawn(move || {
                    loop {
                        let Some(&u) = order.get(next_job.fetch_add(1, Ordering::Relaxed)) else {
                            return;
                        };
                        let job = &jobs[u];
                        if !job.simulate {
                            continue; // derived after the pool finishes
                        }
                        if let (Some(st), Some(key)) = (store.as_deref(), &keys[u]) {
                            if let Some(cell) = st.load(key) {
                                store_hits.fetch_add(1, Ordering::Relaxed);
                                let r = result_from_stored(&job.cfg, cell);
                                if res_tx.send((u, r)).is_err() {
                                    return;
                                }
                                continue;
                            }
                        }
                        let original = &job.cfg.scenario;
                        let scenario = if share_streams && original.generates_live() {
                            streams[job.scenario_idx].get_or_init(|| {
                                let trace = original.record(
                                    cfg.n_cores,
                                    cfg.seed,
                                    cfg.instructions_per_core,
                                );
                                recorded.fetch_add(1, Ordering::Relaxed);
                                Scenario::SharedStream { trace: Arc::new(trace) }
                            })
                        } else {
                            original
                        };
                        let run_cfg =
                            ExperimentConfig { scenario: scenario.clone(), ..job.cfg.clone() };
                        let r = run_experiment_with_scratch(&run_cfg, scratch);
                        if let (Some(st), Some(key)) = (store.as_deref(), &keys[u]) {
                            store_misses.fetch_add(1, Ordering::Relaxed);
                            st.publish(key, &r.stats, &r.power).ok();
                        }
                        if res_tx.send((u, r)).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(res_tx);
            for (i, r) in res_rx.iter() {
                results[i] = Some(r);
            }
        });
    }

    // Derive the skipped baseline cells from their donors (a pure
    // bookkeeping pass, deterministic for any thread count). Derived
    // cells are published too — if-absent, so warm sweeps stay
    // write-free — letting later serve-mode batches answer baseline
    // requests straight from the store.
    let group_len = 1 + cfg.techniques.len();
    let mut derived = 0usize;
    if let Some(offset) = donor_offset {
        for base_idx in (0..jobs.len()).step_by(group_len) {
            // audit:allow(unwrap-in-lib, the worker pool joined above; every job slot was filled before the barrier released)
            let donor = results[base_idx + offset].as_ref().expect("donor simulated");
            let cell = derive_baseline_cell(&jobs[base_idx].cfg, donor);
            if let (Some(st), Some(key)) = (store.as_deref(), &keys[base_idx]) {
                st.publish_if_absent(key, &cell.stats, &cell.power).ok();
            }
            results[base_idx] = Some(cell);
            derived += 1;
        }
    }
    let results: Vec<ExperimentResult> =
        // audit:allow(unwrap-in-lib, the worker pool joined above and baseline derivation filled the remaining slots)
        results.into_iter().map(|r| r.expect("all jobs completed")).collect();

    // Group per (scenario, size): first entry is the baseline.
    let mut cells = Vec::with_capacity(results.len());
    for chunk in results.chunks(group_len) {
        let base = &chunk[0];
        cells.push(summarize(base, TechniqueMetrics::baseline_identity(base)));
        for tech in &chunk[1..] {
            cells.push(summarize(tech, TechniqueMetrics::compare(base, tech)));
        }
    }
    let telemetry = SweepTelemetry {
        derived,
        recorded: recorded.load(Ordering::Relaxed),
        store_hits: store_hits.load(Ordering::Relaxed),
        store_misses: store_misses.load(Ordering::Relaxed),
    };
    (SweepResults { cells }, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            scenarios: vec![
                Scenario::Homogeneous(WorkloadSpec::mpeg2dec()),
                Scenario::Homogeneous(WorkloadSpec::volrend()),
            ],
            sizes_mb: vec![1],
            techniques: vec![Technique::Protocol, Technique::Decay { decay_cycles: 16 * 1024 }],
            instructions_per_core: 40_000,
            seed: 7,
            n_cores: 2,
            threads: 4,
            store: None,
        }
    }

    #[test]
    fn sweep_produces_all_cells_in_order() {
        let res = run_sweep(&tiny());
        // 2 scenarios x 1 size x (baseline + 2 techniques).
        assert_eq!(res.cells.len(), 6);
        assert_eq!(res.cells[0].technique, "baseline");
        assert_eq!(res.cells[1].technique, "protocol");
        assert_eq!(res.cells[2].technique, "decay16K");
        assert_eq!(res.benchmarks(), vec!["mpeg2dec", "VOLREND"]);
    }

    #[test]
    fn memoized_sweep_equals_reference_and_actually_derives() {
        let cfg = tiny(); // includes Protocol: one derived baseline per group
        let mut scratch = ExperimentScratch::default();
        let (memo, t) = run_sweep_with_telemetry(&cfg, &mut scratch);
        let (full, t_ref) = run_sweep_inner(&cfg, true, &mut ExperimentScratch::default());
        assert_eq!(t.derived, 2, "one baseline derived per (scenario, size) group");
        assert_eq!(t.recorded, 2, "one shared stream recorded per scenario");
        assert_eq!((t_ref.derived, t_ref.recorded), (0, 0));
        assert_eq!((t.store_hits, t.store_misses), (0, 0), "no store configured");
        for (a, b) in memo.cells.iter().zip(&full.cells) {
            assert_eq!(a.cycles, b.cycles, "{}:{}", a.benchmark, a.technique);
            assert_eq!(a.mem_bytes, b.mem_bytes);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.energy_pj, b.energy_pj);
            assert_eq!(a.avg_l2_temp_c, b.avg_l2_temp_c);
        }
    }

    #[test]
    fn sweep_without_a_timing_twin_simulates_every_cell() {
        let mut cfg = tiny();
        cfg.techniques = vec![Technique::Decay { decay_cycles: 16 * 1024 }];
        let (res, t) = run_sweep_with_telemetry(&cfg, &mut ExperimentScratch::default());
        assert_eq!(t.derived, 0, "no timing-identical technique, nothing to derive");
        assert_eq!(res.cells.len(), 4);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_recording_fails_the_sweep_instead_of_hanging() {
        // An empty assignment list (built past `ScenarioSpec::new`'s
        // check) panics when its generators are built — inside the
        // recording. Every worker waiting on that stream records again
        // and panics too; the thread scope re-raises.
        let mut cfg = tiny();
        cfg.scenarios =
            vec![Scenario::Mix(ScenarioSpec { name: "broken".into(), assignments: vec![] })];
        cfg.sizes_mb = vec![1, 2];
        run_sweep(&cfg);
    }

    #[test]
    fn workers_take_cells_largest_l2_first_stable_within_a_size() {
        let jobs: Vec<Job> = [1, 8, 2, 8, 4, 1, 2]
            .into_iter()
            .map(|mb| Job {
                cfg: ExperimentConfig::paper(WorkloadSpec::mpeg2dec(), Technique::Protocol, mb),
                simulate: true,
                scenario_idx: 0,
            })
            .collect();
        assert_eq!(largest_first(&jobs), vec![1, 3, 4, 2, 6, 0, 5]);
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let mut one = tiny();
        one.threads = 1;
        let a = run_sweep(&one);
        let b = run_sweep(&tiny());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.cycles, y.cycles, "{}:{}", x.benchmark, x.technique);
            assert_eq!(x.mem_bytes, y.mem_bytes);
        }
    }

    #[test]
    fn mean_over_benchmarks_aggregates() {
        let res = run_sweep(&tiny());
        let m = res.mean_over_benchmarks("protocol", 1).unwrap();
        assert!(m.occupation > 0.0 && m.occupation <= 1.0);
        assert!(res.mean_over_benchmarks("nonesuch", 1).is_none());
    }

    #[test]
    fn cell_lookup() {
        let res = run_sweep(&tiny());
        assert!(res.cell("VOLREND", "protocol", 1).is_some());
        assert!(res.cell("VOLREND", "protocol", 8).is_none());
    }

    #[test]
    fn heterogeneous_scenarios_sweep_end_to_end() {
        let mut cfg = SweepConfig::mixes(30_000);
        cfg.sizes_mb = vec![1];
        cfg.techniques = vec![Technique::Protocol];
        cfg.threads = 2;
        let res = run_sweep(&cfg);
        assert_eq!(res.cells.len(), 3 * 2, "3 mixes × (baseline + protocol)");
        assert_eq!(
            res.benchmarks(),
            vec!["mix_stream_revisit", "mix_producer_share", "mix_bursty_idle"]
        );
        for mix in res.benchmarks() {
            let cell = res.cell(&mix, "protocol", 1).unwrap();
            assert!(cell.metrics.occupation < 1.0, "{mix}: protocol gates something");
            assert!(cell.cycles > 0);
        }
    }
}

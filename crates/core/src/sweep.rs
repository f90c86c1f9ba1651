//! The full evaluation grid, run in parallel.
//!
//! A sweep executes every (scenario × cache size × technique) cell plus
//! the per-(scenario, size) baselines. Each simulation is
//! single-threaded and deterministic; the sweep farms them over a worker
//! pool (scoped threads + an atomic job cursor — the share-nothing
//! pattern from the workspace's hpc-parallel guides) and reassembles
//! results by index, so the output is identical for any thread count
//! (pinned by the golden regression test in `tests/golden_sweep.rs`).
//! The calling thread is the pool's first worker, running on the
//! caller's scratch, and only `threads − 1` helpers are spawned, so a
//! one-thread sweep starts no thread at all.
//!
//! Two entry points run the production path — [`run_sweep`] and
//! [`run_sweep_with_telemetry`], which also returns the planner's work
//! counters — and [`run_sweep_reference`] is the one differential arm.
//! The production path applies four bit-identity-preserving
//! optimizations: the baseline of each (scenario, size) group is
//! *derived* from its timing-identical Protocol twin instead of
//! simulated; each (scenario, technique) pair runs as a *size ladder*,
//! whose smallest open size is simulated with shadow directories of the
//! larger sizes beside it, and whose larger sizes are *derived* from
//! that run when no L2 in it ever filled a set (a cache that never has
//! to replace a line runs cycle for cycle the same at every larger size
//! of the same line size and associativity), or else whose next size is
//! *resumed* from a fork of that run made just before its first
//! full-set fill instead of simulated from cycle 0; each (scenario, seed,
//! budget) group's op stream is *recorded once* into a shared in-memory
//! trace that every cell of the group replays instead of regenerating
//! live (made by the first worker to need it behind one slot per
//! scenario); and cells found in the persistent result store
//! ([`SweepConfig::store`]) are *loaded* instead of simulated. The
//! reference arm applies none of them.
//!
//! The worker pool's unit of work is one ladder, so a (scenario, size)
//! group — a serve-mode miss — still spreads its techniques over every
//! thread; a host with more threads than ladders (42 on the paper grid)
//! leaves the extra threads idle, since a ladder's rungs depend on each
//! other. Workers take ladders **scenario-major**, each ladder climbing
//! its sizes in ascending order, so a scenario's ladders run back to
//! back and a recording is live only while they run: the worker that
//! completes a scenario's last ladder empties its slot and hands the
//! recording's stream buffers to the next recording. At most the
//! scenarios a pool's workers are in at once hold a recording, one or
//! two on the paper grid; at the paper's 6 M instructions per core each
//! recording is 16–19 MiB. A worker's per-line columns stay at about
//! one largest cell's worth: a 1 MB run with 2, 4 and 8 MB shadows
//! checks out about as much as a plain 8 MB cell, and the arena grows
//! its largest pooled buffer when none fits instead of allocating
//! beside it. A run that forked carries its fork to its end: the
//! fork's regrown L2 tag and line-state columns (about 11.4 B per line
//! of the larger size) and its L1 copies live beside the run's own, and
//! the shadows it takes over move rather than being copied, so at most
//! two systems are alive per worker.
//! `tests/sweep_memoization.rs`, `tests/size_ladders.rs`,
//! `tests/stream_sharing.rs` and `tests/store_differential.rs` pin the
//! four optimizations against the reference arm and against each other;
//! timing them is `perfbench/`'s job.

use crate::experiment::{
    derive_baseline_cell, derive_larger_cell, result_from_stored, resume_experiment,
    run_experiment_with_larger, ExperimentConfig, ExperimentResult, ExperimentScratch,
};
use crate::metrics::TechniqueMetrics;
use crate::scenario::Scenario;
use cmpleak_coherence::Technique;
use cmpleak_mem::BankArena;
use cmpleak_power::PowerParams;
use cmpleak_store::{CellKey, KeyHasher, ResultStore};
use cmpleak_system::LargerFork;
use cmpleak_trace::MemTrace;
use cmpleak_workloads::{ScenarioSpec, WorkloadSpec};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, PoisonError};

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

/// Run the sweep with all four sweep-level optimizations on: baseline
/// memoization against the timing-identical technique twin, size
/// ladders, shared op streams, and the persistent store (when
/// configured).
///
/// **Memoization** — within every (scenario, size) group, the baseline
/// and a [`Technique::timing_identical_to_baseline`] technique
/// (Protocol) produce cycle-for-cycle identical simulations that differ
/// only in power bookkeeping. When the technique list contains such a
/// twin, the baseline cell is **derived** from the twin's result
/// ([`derive_baseline_cell`] re-runs only the power accounting) instead
/// of being simulated — one full simulation saved per group.
///
/// **Size ladders** — each (scenario, technique) pair's cells, sizes
/// ascending, are one unit of work. The smallest size the store does not
/// answer is simulated with a baseline-equivalent shadow directory for
/// each larger size the store does not answer. If no L2 in that run
/// ever filled a set that had no invalid way, every larger size runs
/// cycle for cycle the same — each of its sets holds a subset of one
/// smaller set's lines — so each is **derived**
/// ([`derive_larger_cell`]: capacity bookkeeping, the shadow's induced
/// misses, power at the larger bank size). Otherwise the next size ran
/// cycle for cycle alike up to that run's first full-set fill, and the
/// run forked it there: every L2 regrown to the next size, with that
/// size's shadow as its own and the shadows above it. The ladder
/// **resumes** the fork ([`resume_experiment`]) instead of simulating
/// the next size from cycle 0, and the resumed run in turn derives the
/// sizes above it or forks again. A ladder with more than one size
/// replays a recording, which a fork can copy; a run over live
/// generators makes no fork. No ladder derives from a cell loaded from
/// the store, or resumes one: its record keeps no shadow counts and no
/// state, so the next open size is simulated from cycle 0.
///
/// **Shared streams** — every cell of a (scenario, seed, instruction
/// budget) group consumes the *same* op stream: the live generators
/// recompute it per cell, although trace replay is bit-identical to
/// generation. The planner therefore records each live-generating
/// scenario once into an in-memory trace ([`Scenario::record`]) and
/// hands every cell of the group a cheap replay cursor over the shared
/// buffer, amortizing the generator work to one recording per group.
/// The recording happens **inside the worker pool**, behind one
/// [`Mutex`] slot per scenario — the first worker to touch a group
/// records it while other workers proceed to other groups and block
/// only on that group — so grid latency scales with cores even on
/// recording-heavy sweeps. Workers take ladders scenario-major, and the
/// worker that completes a scenario's last ladder empties its slot and
/// pools the recording's stream buffers for the next recording, so a
/// recording lives only while its scenario's ladders run. If a
/// recording panics, a waiting worker records again and
/// the sweep panics — with the recording's own message when the calling
/// thread's recording panicked, else with the thread scope's — so
/// nothing hangs.
///
/// **Persistent store** — when [`SweepConfig::store`] is set, each
/// cell's content address ([`ExperimentConfig::store_key`]) is probed
/// first: hits are loaded (bit-identical to fresh simulation, pinned by
/// `tests/store_differential.rs`), misses are simulated (or derived) as
/// usual and published back. A fully warm grid simulates — and records
/// — nothing.
///
/// The output is byte-identical to [`run_sweep_reference`] (pinned
/// cell-for-cell by `tests/sweep_memoization.rs`,
/// `tests/size_ladders.rs`, `tests/stream_sharing.rs` and
/// `tests/store_differential.rs`, and by the golden snapshot, which
/// passes unchanged with all four optimizations on).
pub fn run_sweep(cfg: &SweepConfig) -> SweepResults {
    run_sweep_with_telemetry(cfg, &mut ExperimentScratch::default()).0
}

/// [`run_sweep`] returning the planner's work counters alongside the
/// results — how many cells were derived (and how many of them from a
/// smaller size), how many were resumed from a smaller size's fork and
/// how many cycles that saved, how many stream groups were
/// recorded in-pool, and how the persistent store split the grid into
/// hits and misses. The calling thread is the first worker and runs on
/// `scratch` (its arena and queues are reused across the cells it takes);
/// the results are identical to [`run_sweep`]'s.
pub fn run_sweep_with_telemetry(
    cfg: &SweepConfig,
    scratch: &mut ExperimentScratch,
) -> (SweepResults, SweepTelemetry) {
    run_sweep_inner(cfg, false, scratch)
}

/// [`run_sweep`] with every optimization disabled: every cell, baseline
/// and larger sizes included, is fully simulated from live generators,
/// with no store involvement. The differential reference for the
/// production path.
pub fn run_sweep_reference(cfg: &SweepConfig) -> SweepResults {
    run_sweep_inner(cfg, true, &mut ExperimentScratch::default()).0
}

/// How a sweep's work actually broke down — all counters deterministic
/// for a given configuration and store state, except that `recorded`
/// can only shrink when store hits make whole groups skip simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepTelemetry {
    /// Cells derived instead of simulated: baselines from their
    /// timing-identical donor, and larger sizes from a smaller size's
    /// run (`derived_larger` of them).
    pub derived: usize,
    /// Cells derived from a smaller size's run whose caches never filled
    /// a set (a part of `derived`).
    pub derived_larger: usize,
    /// Cells simulated from a fork of a smaller size's run, made just
    /// before that run's first full-set fill, instead of from cycle 0.
    pub resumed: usize,
    /// Σ over the `resumed` cells of the cycles before their fork: the
    /// cycles the sweep did not simulate again.
    pub resumed_from_cycle: u64,
    /// Shared-stream groups recorded (by the pool's first toucher).
    pub recorded: usize,
    /// Cells answered from the persistent store.
    pub store_hits: usize,
    /// Cells simulated and published to the store.
    pub store_misses: usize,
    /// Publishes the store refused (the sweep's results are unaffected;
    /// those cells are simply not stored).
    pub publish_errors: usize,
}

/// One grid cell's work order: the experiment configuration (carrying
/// the **original** scenario — content addresses and recordings both
/// key off it), whether a ladder runs it at all (derived baselines are
/// not), and which scenario's shared stream it consumes.
#[derive(Debug)]
struct Job {
    cfg: ExperimentConfig,
    simulate: bool,
    scenario_idx: usize,
}

/// One (scenario, technique) size ladder, the pool's unit of work: the
/// indices of its jobs, L2 size ascending.
#[derive(Debug, PartialEq, Eq)]
struct Ladder {
    scenario_idx: usize,
    jobs: Vec<usize>,
}

/// The ladders the pool runs, in the order it runs them: one per
/// (scenario, technique) over the jobs a ladder runs, scenario-major and
/// in first-listed order within a scenario, each ladder's jobs sorted by
/// ascending L2 size (stable within a size). Scenario-major lets a
/// scenario's recording die as soon as its ladders are done instead of
/// at the end of the sweep; ascending sizes let a ladder derive every
/// larger size from a smaller run that never filled a set. The
/// reference arm climbs no ladder: each of its jobs is a ladder alone.
fn plan_ladders(jobs: &[Job], reference: bool) -> Vec<Ladder> {
    let mut ladders: Vec<Ladder> = Vec::new();
    for (u, job) in jobs.iter().enumerate().filter(|(_, j)| j.simulate) {
        let rung_of = |l: &&mut Ladder| {
            !reference
                && l.scenario_idx == job.scenario_idx
                && jobs[l.jobs[0]].cfg.technique == job.cfg.technique
        };
        match ladders.iter_mut().find(rung_of) {
            Some(ladder) => ladder.jobs.push(u),
            None => ladders.push(Ladder { scenario_idx: job.scenario_idx, jobs: vec![u] }),
        }
    }
    for ladder in &mut ladders {
        ladder.jobs.sort_by_key(|&u| jobs[u].cfg.total_l2_mb);
    }
    ladders.sort_by_key(|l| l.scenario_idx);
    ladders
}

/// Returns the results plus the sweep's work telemetry. `reference`
/// turns off baseline memoization, size ladders, stream sharing and the
/// store.
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
    // Recording pays off only when a group may simulate ≥ 2 cells (the
    // recording costs one generator pass); a degenerate single-cell
    // group stays on the live path. The recording itself happens
    // *inside* the worker pool, by the first worker to need a group's
    // stream, so a fully-warm store run records nothing at all.
    let cells_per_group = cfg.sizes_mb.len() * (1 + cfg.techniques.len())
        - if donor_offset.is_some() { cfg.sizes_mb.len() } else { 0 };
    let share_streams = !reference && cells_per_group > 1;

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
    let ladders = plan_ladders(&jobs, reference);

    // Content addresses, one per job, computed up front so workers
    // never re-hash a scenario: each scenario's canonical encoding is
    // hashed once and every cell of its groups finishes its key from a
    // copy of that hasher. Keys are derived from the *original*
    // scenarios, so a warm store hits across processes (a shared
    // recording would encode identically anyway, but the original needs
    // no recording first).
    let store = if reference { None } else { cfg.store.clone() };
    let keys: Vec<Option<CellKey>> = if store.is_some() {
        let scenario_keys: Vec<KeyHasher> =
            cfg.scenarios.iter().map(Scenario::key_hasher).collect();
        jobs.iter()
            .map(|j| Some(j.cfg.store_key_from(scenario_keys[j.scenario_idx].clone())))
            .collect()
    } else {
        jobs.iter().map(|_| None).collect()
    };

    // One shared-stream slot per scenario, filled by its first toucher
    // and emptied by the worker that completes the scenario's last
    // ladder (`remaining` counts them down).
    let streams: Vec<Mutex<Option<Scenario>>> =
        cfg.scenarios.iter().map(|_| Mutex::new(None)).collect();
    let remaining: Vec<AtomicUsize> = (0..cfg.scenarios.len())
        .map(|i| AtomicUsize::new(ladders.iter().filter(|l| l.scenario_idx == i).count()))
        .collect();
    // Stream buffers of finished scenarios' recordings, taken by later
    // recordings: however the workers' recordings interleave, the
    // buffers of at most as many recordings as are live at once stay
    // allocated, and none is left behind in a worker's malloc arena.
    let stream_buffers = Mutex::new(BankArena::default());
    let recorded = AtomicUsize::new(0);
    let derived_larger = AtomicUsize::new(0);
    let resumed = AtomicUsize::new(0);
    let resumed_from_cycle = AtomicU64::new(0);
    let store_hits = AtomicUsize::new(0);
    let store_misses = AtomicUsize::new(0);
    let publish_errors = AtomicUsize::new(0);

    // The pool's work unit is one ladder, so even a single (scenario,
    // size) group — a serve-mode miss — spreads its techniques over
    // every thread.
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        cfg.threads
    }
    .min(ladders.len().max(1));

    // Share-nothing worker pool on std primitives: an atomic cursor walks
    // `ladders`, an mpsc channel collects results by job index, and
    // reassembly by index keeps the output identical for any thread
    // count and execution order. Each worker owns a scratch, so queue and
    // per-line-bank allocations are recycled across its jobs.
    let next_ladder = AtomicUsize::new(0);
    let (res_tx, res_rx) = std::sync::mpsc::channel::<(usize, ExperimentResult)>();
    // Record a scenario into stream buffers that finished scenarios
    // released, and count the recording.
    let record = |original: &Scenario| {
        let hint = MemTrace::stream_capacity_hint(cfg.instructions_per_core);
        let buffers = {
            let mut pool = stream_buffers.lock().unwrap_or_else(PoisonError::into_inner);
            (0..cfg.n_cores).map(|_| pool.take_u8_empty(hint)).collect()
        };
        let shared =
            original.record_shared_in(cfg.n_cores, cfg.seed, cfg.instructions_per_core, buffers);
        recorded.fetch_add(1, Ordering::Relaxed);
        shared
    };
    // Empty a finished scenario's slot and pool its stream buffers.
    let release = |scenario_idx: usize| {
        let done = streams[scenario_idx].lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(Scenario::SharedStream { trace }) = done {
            if let Ok(mut trace) = Arc::try_unwrap(trace) {
                trace.release_into(
                    &mut stream_buffers.lock().unwrap_or_else(PoisonError::into_inner),
                );
            }
        }
    };
    // Publish a cell to the store (if any): simulated cells overwrite,
    // derived ones only fill a gap, so warm sweeps stay write-free.
    let publish = |u: usize, r: &ExperimentResult, derived: bool| {
        let (Some(st), Some(key)) = (store.as_deref(), &keys[u]) else {
            return;
        };
        let published = if derived {
            st.publish_if_absent(key, &r.stats, &r.power)
        } else {
            store_misses.fetch_add(1, Ordering::Relaxed);
            st.publish(key, &r.stats, &r.power)
        };
        if published.is_err() {
            publish_errors.fetch_add(1, Ordering::Relaxed);
        }
    };
    // Climb one ladder. Cells the store answers are loaded (no ladder
    // derives from a loaded cell, or resumes a fork of one: its record
    // keeps no shadow counts and no state). Then, until every cell is
    // answered: simulate the smallest open size with a shadow directory
    // for each larger open size; if no L2 of that run ever filled a full
    // set, derive every larger open size from it, else run the next size
    // on from the fork the run made just before its first full-set fill.
    let climb = |ladder: &Ladder,
                 scratch: &mut ExperimentScratch,
                 res_tx: &Sender<(usize, ExperimentResult)>| {
        let mut open = Vec::with_capacity(ladder.jobs.len());
        for &u in &ladder.jobs {
            let stored = match (store.as_deref(), &keys[u]) {
                (Some(st), Some(key)) => st.load(key),
                _ => None,
            };
            match stored {
                Some(cell) => {
                    store_hits.fetch_add(1, Ordering::Relaxed);
                    // The receiver outlives the pool, so a send cannot fail.
                    res_tx.send((u, result_from_stored(&jobs[u].cfg, cell))).ok();
                }
                None => open.push(u),
            }
        }
        let mut rest = &open[..];
        // A fork of the last run at `rest[0]`'s size, and the jobs of
        // the larger sizes it shadows.
        let mut fork: Option<(LargerFork, &[usize])> = None;
        while let Some((&u, above)) = rest.split_first() {
            let job = &jobs[u];
            let (r, sizes, next, larger) = match fork.take() {
                Some((f, larger)) => {
                    resumed.fetch_add(1, Ordering::Relaxed);
                    resumed_from_cycle.fetch_add(f.cycle(), Ordering::Relaxed);
                    let (r, sizes, next) = resume_experiment(&job.cfg, f, scratch);
                    (r, sizes, next, larger)
                }
                None => {
                    let original = &job.cfg.scenario;
                    let scenario = if share_streams && original.generates_live() {
                        // A slot left poisoned by a panicking recording
                        // is still empty, so the next worker records
                        // again.
                        let mut slot = streams[job.scenario_idx]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner);
                        slot.get_or_insert_with(|| record(original)).clone()
                    } else {
                        original.clone()
                    };
                    // A repeated size is no larger: it stays open for its
                    // own run.
                    let split =
                        above.partition_point(|&v| jobs[v].cfg.total_l2_mb <= job.cfg.total_l2_mb);
                    let larger = &above[split..];
                    let larger_mb: Vec<usize> =
                        larger.iter().map(|&v| jobs[v].cfg.total_l2_mb).collect();
                    let (r, sizes, next) = run_experiment_with_larger(
                        &ExperimentConfig { scenario, ..job.cfg.clone() },
                        &larger_mb,
                        scratch,
                    );
                    (r, sizes, next, larger)
                }
            };
            publish(u, &r, false);
            // `larger` is the tail of `above`.
            rest = above;
            if sizes.derivable() {
                for (&v, induced) in larger.iter().zip(&sizes.induced_misses) {
                    let cell = derive_larger_cell(&jobs[v].cfg, &r, induced);
                    publish(v, &cell, true);
                    derived_larger.fetch_add(1, Ordering::Relaxed);
                    res_tx.send((v, cell)).ok();
                }
                rest = &above[..above.len() - larger.len()];
            } else if let (Some(f), Some((&v, shadowed))) = (next, larger.split_first()) {
                // The fork runs `v`; it is the next rung unless `u`'s
                // size repeats, and then the next rung starts afresh.
                if above.first() == Some(&v) {
                    fork = Some((f, shadowed));
                }
            }
            res_tx.send((u, r)).ok();
        }
    };
    let work = |scratch: &mut ExperimentScratch, res_tx: Sender<(usize, ExperimentResult)>| {
        while let Some(ladder) = ladders.get(next_ladder.fetch_add(1, Ordering::Relaxed)) {
            climb(ladder, scratch, &res_tx);
            // Every ladder is counted once and decremented once, after
            // it finished, so the worker that takes the count to zero
            // runs after the scenario's every other ladder is done.
            if remaining[ladder.scenario_idx].fetch_sub(1, Ordering::AcqRel) == 1 {
                release(ladder.scenario_idx);
            }
        }
    };
    // The calling thread is the first worker, on the caller's scratch;
    // `threads − 1` helpers run the same loop on scratch of their own.
    let mut spare: Vec<ExperimentScratch> =
        (1..threads).map(|_| ExperimentScratch::default()).collect();
    std::thread::scope(|s| {
        for helper in &mut spare {
            let res_tx = res_tx.clone();
            let work = &work;
            s.spawn(move || work(helper, res_tx));
        }
        work(scratch, res_tx);
    });
    // No recording is left to take them: free the pooled stream buffers
    // before the results are assembled.
    drop(stream_buffers);
    // Every sender went with its worker, so this drains and ends.
    let mut results: Vec<Option<ExperimentResult>> = (0..jobs.len()).map(|_| None).collect();
    for (i, r) in res_rx.iter() {
        results[i] = Some(r);
    }

    // Derive the skipped baseline cells from their donors (a pure
    // bookkeeping pass, deterministic for any thread count), whether the
    // donor was simulated, derived or loaded. Derived cells are
    // published too — if-absent, so warm sweeps stay write-free —
    // letting later serve-mode batches answer baseline requests
    // straight from the store.
    let group_len = 1 + cfg.techniques.len();
    let mut derived = derived_larger.load(Ordering::Relaxed);
    if let Some(offset) = donor_offset {
        for base_idx in (0..jobs.len()).step_by(group_len) {
            // audit:allow(unwrap-in-lib, the worker pool joined above; every job slot was filled before the barrier released)
            let donor = results[base_idx + offset].as_ref().expect("donor simulated");
            let cell = derive_baseline_cell(&jobs[base_idx].cfg, donor);
            publish(base_idx, &cell, true);
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
        derived_larger: derived_larger.load(Ordering::Relaxed),
        resumed: resumed.load(Ordering::Relaxed),
        resumed_from_cycle: resumed_from_cycle.load(Ordering::Relaxed),
        recorded: recorded.load(Ordering::Relaxed),
        store_hits: store_hits.load(Ordering::Relaxed),
        store_misses: store_misses.load(Ordering::Relaxed),
        publish_errors: publish_errors.load(Ordering::Relaxed),
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

    /// A sweep whose one scenario panics while it is recorded: an empty
    /// assignment list (built past `ScenarioSpec::new`'s check) divides
    /// by zero when its generators are built.
    fn broken_recording(threads: usize) -> SweepConfig {
        let mut cfg = tiny();
        cfg.scenarios =
            vec![Scenario::Mix(ScenarioSpec { name: "broken".into(), assignments: vec![] })];
        cfg.sizes_mb = vec![1, 2];
        cfg.threads = threads;
        cfg
    }

    #[test]
    #[should_panic(expected = "remainder with a divisor of zero")]
    fn a_panicking_recording_fails_the_sweep_instead_of_hanging() {
        // A one-thread sweep runs on the calling thread and spawns no
        // helper, so the recording's own panic reaches the caller
        // unwrapped.
        run_sweep(&broken_recording(1));
    }

    #[test]
    fn a_panicking_recording_fails_a_pooled_sweep_instead_of_hanging() {
        // Which worker records first decides the message (the
        // recording's own, or the thread scope's); every worker waiting
        // on that stream records again and panics too, so the sweep
        // fails rather than waiting forever.
        let cfg = broken_recording(4);
        let outcome = std::panic::catch_unwind(|| run_sweep(&cfg));
        assert!(outcome.is_err(), "a panicking recording must fail the sweep");
    }

    #[test]
    fn workers_take_ladders_scenario_major_sizes_ascending_within_a_ladder() {
        let (p, d) = (Technique::Protocol, Technique::Decay { decay_cycles: 64 * 1024 });
        let job = |scenario_idx, technique, mb| Job {
            cfg: ExperimentConfig::paper(WorkloadSpec::mpeg2dec(), technique, mb),
            simulate: true,
            scenario_idx,
        };
        let mut jobs = vec![
            job(1, p, 8),
            job(0, d, 2),
            job(1, p, 1),
            job(0, p, 8),
            job(2, d, 1),
            job(0, d, 1),
            job(1, d, 4),
            job(0, p, 2),
            job(0, d, 2),
            job(0, Technique::Baseline, 1),
        ];
        jobs[9].simulate = false; // a derived baseline: no ladder runs it
        let ladder = |scenario_idx, jobs: &[usize]| Ladder { scenario_idx, jobs: jobs.to_vec() };
        // One ladder per (scenario, technique): scenario-major, in
        // first-listed order within a scenario, sizes ascending and
        // stable within a size.
        assert_eq!(
            plan_ladders(&jobs, false),
            vec![
                ladder(0, &[5, 1, 8]),
                ladder(0, &[7, 3]),
                ladder(1, &[2, 0]),
                ladder(1, &[6]),
                ladder(2, &[4]),
            ]
        );
        // The reference arm runs each job alone, scenario-major.
        let alone: Vec<Vec<usize>> =
            plan_ladders(&jobs, true).into_iter().map(|l| l.jobs).collect();
        assert_eq!(alone, [1, 3, 5, 7, 8, 0, 2, 6, 4].map(|u| vec![u]));
    }

    #[test]
    fn a_ladder_whose_caches_never_fill_a_set_simulates_only_its_smallest_size() {
        let mut cfg = tiny();
        cfg.sizes_mb = vec![4, 1, 2];
        cfg.instructions_per_core = 5_000;
        let (res, t) = run_sweep_with_telemetry(&cfg, &mut ExperimentScratch::default());
        // 2 scenarios × 2 technique ladders, each deriving 2 and 4 MB
        // from 1 MB, plus 2 × 3 baselines derived from Protocol.
        assert_eq!((t.derived_larger, t.derived), (8, 14));
        // Debug prints every float exactly (shortest round-trip form).
        assert_eq!(format!("{res:?}"), format!("{:?}", run_sweep_reference(&cfg)));
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

//! Run one (scenario, technique, cache size) experiment.

use crate::scenario::Scenario;
use cmpleak_coherence::Technique;
use cmpleak_power::{evaluate_energy, PowerParams, PowerReport};
use cmpleak_store::{CellKey, KeyHasher, StoredCell};
use cmpleak_system::{
    resume_fork, run_feeds_with_larger, CmpConfig, CycleEngine, LargerFork, LargerSizes, SimKernel,
    SimStats, MAX_CORES,
};
use cmpleak_workloads::WorkloadSpec;
use std::fmt::Write as _;

/// Configuration of a single experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// What runs on the cores: a homogeneous benchmark (the paper's
    /// setup), a heterogeneous mix, or a recorded trace.
    pub scenario: Scenario,
    /// Leakage technique under test.
    pub technique: Technique,
    /// Total L2 capacity (MB) across the private caches (the paper's
    /// 1/2/4/8 axis).
    pub total_l2_mb: usize,
    /// Instructions per core (fixed work across techniques).
    pub instructions_per_core: u64,
    /// Workload seed (whole run is deterministic in this).
    pub seed: u64,
    /// Number of cores (4 in the paper).
    pub n_cores: usize,
    /// Power-model parameters.
    pub power: PowerParams,
    /// Cycle kernel (both produce bit-identical results; the default
    /// quiescence-skipping kernel is simply faster).
    pub kernel: SimKernel,
    /// Per-cycle engine (both produce bit-identical results; the default
    /// worklist engine is simply faster).
    pub engine: CycleEngine,
}

impl ExperimentConfig {
    /// Paper defaults: 4 cores, 6M instructions per core, seed 42,
    /// every core running `benchmark`.
    pub fn paper(benchmark: WorkloadSpec, technique: Technique, total_l2_mb: usize) -> Self {
        Self::paper_scenario(Scenario::Homogeneous(benchmark), technique, total_l2_mb)
    }

    /// Paper defaults around an arbitrary [`Scenario`].
    pub fn paper_scenario(scenario: Scenario, technique: Technique, total_l2_mb: usize) -> Self {
        Self {
            scenario,
            technique,
            total_l2_mb,
            instructions_per_core: 6_000_000,
            seed: 42,
            n_cores: 4,
            power: PowerParams::default(),
            kernel: SimKernel::default(),
            engine: CycleEngine::default(),
        }
    }

    /// The content address of this experiment cell in a persistent
    /// result store: a hash over the canonical encoding of everything
    /// that determines the result — the scenario (its specs, or every
    /// stream byte of a replay), technique, cache size, instruction
    /// budget, seed, core count, kernel/engine choice and every power
    /// parameter — on top of the store's schema version and code
    /// fingerprint (seeded by [`KeyHasher::new`]).
    pub fn store_key(&self) -> CellKey {
        self.store_key_from(self.scenario.key_hasher())
    }

    /// [`store_key`](Self::store_key) from a hasher that has absorbed
    /// this cell's scenario — a sweep hashes each scenario once and keys
    /// every cell of its groups from a copy.
    pub(crate) fn store_key_from(&self, mut h: KeyHasher) -> CellKey {
        let (technique, decay_cycles) = match self.technique {
            Technique::Baseline => (0, 0),
            Technique::Protocol => (1, 0),
            Technique::Decay { decay_cycles } => (2, decay_cycles),
            Technique::SelectiveDecay { decay_cycles } => (3, decay_cycles),
        };
        for v in [
            technique,
            decay_cycles,
            self.total_l2_mb as u64,
            self.instructions_per_core,
            self.seed,
            self.n_cores as u64,
            match self.kernel {
                SimKernel::QuiescenceSkip => 0,
                SimKernel::PerCycle => 1,
            },
            match self.engine {
                CycleEngine::Worklist => 0,
                CycleEngine::FullScan => 1,
            },
        ] {
            h.write_u64(v);
        }
        for v in [
            self.power.clock_ghz,
            self.power.core_epi_pj,
            self.power.l1_access_pj,
            self.power.l2_access_1mb_pj,
            self.power.bus_pj_per_byte,
            self.power.bus_pj_per_txn,
            self.power.l2_leak_per_line_pj,
            self.power.other_leak_pj_per_cycle,
            self.power.t0_celsius,
            self.power.leak_temp_beta,
            self.power.gated_vdd_area_overhead,
            self.power.decay_counter_leak_fraction,
            self.power.decay_counter_event_pj,
            self.power.ambient_celsius,
            self.power.block_r_to_ambient,
            self.power.block_r_lateral,
            self.power.block_capacitance,
        ] {
            h.write_f64(v);
        }
        // `label/technique@sizeMB iINSTR sSEED cCORES`, with room for the
        // label and the widest technique name and numbers.
        let label = self.scenario.label_str();
        let mut meta = String::with_capacity(label.len() + 128);
        meta.push_str(label);
        meta.push('/');
        // Writing to a `String` cannot fail.
        write!(meta, "{}", self.technique).ok();
        for (tag, v) in [
            ("@", self.total_l2_mb as u64),
            ("MB i", self.instructions_per_core),
            (" s", self.seed),
            (" c", self.n_cores as u64),
        ] {
            meta.push_str(tag);
            push_decimal(&mut meta, v);
        }
        h.finish(meta)
    }

    /// Derive the simulator configuration. Panics unless `n_cores` is in
    /// `1..=MAX_CORES` (the capacity split divides by it).
    pub fn cmp_config(&self) -> CmpConfig {
        assert!(
            (1..=MAX_CORES).contains(&self.n_cores),
            "n_cores = {} is outside 1..={MAX_CORES}",
            self.n_cores
        );
        let mut cfg = CmpConfig::paper_system(self.total_l2_mb, self.technique);
        cfg.n_cores = self.n_cores;
        cfg.l2.size_bytes = self.total_l2_mb * 1024 * 1024 / self.n_cores;
        cfg.instructions_per_core = self.instructions_per_core;
        cfg.kernel = self.kernel;
        cfg.engine = self.engine;
        cfg
    }
}

/// Append `v` in decimal, without the formatting machinery of `write!`
/// (a store key builds its descriptor on every request).
fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Everything measured for one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Scenario label (benchmark name, mix name, or `…@trace`).
    pub benchmark: String,
    /// Technique name (paper label).
    pub technique: String,
    /// Total L2 in MB.
    pub total_l2_mb: usize,
    /// Raw simulator statistics.
    pub stats: SimStats,
    /// Energy/thermal evaluation.
    pub power: PowerReport,
}

/// Reusable allocation pools for back-to-back experiments (one per
/// sweep worker thread): the simulator's own scratch, so event and port
/// queue capacities — and, via the bank arena, the multi-MB per-line
/// columns of every cache — stay warm across grid cells.
pub use cmpleak_system::SimScratch as ExperimentScratch;

/// Run the experiment: build per-core workloads, simulate, integrate
/// energy.
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    run_experiment_with_scratch(cfg, &mut ExperimentScratch::default())
}

/// [`run_experiment`] reusing `scratch`'s allocation pools. The result
/// is identical — scratch only recycles emptied buffers.
pub fn run_experiment_with_scratch(
    cfg: &ExperimentConfig,
    scratch: &mut ExperimentScratch,
) -> ExperimentResult {
    run_experiment_with_larger(cfg, &[], scratch).0
}

/// [`run_experiment_with_scratch`] with each L2 also shadowing the
/// total sizes `larger_mb` (each above `cfg.total_l2_mb`, ascending):
/// returns the cell — identical to a run without the shadows — what the
/// run learned about each larger size, and a fork at the first larger
/// size. If the run never filled a full set
/// ([`LargerSizes::derivable`]), [`derive_larger_cell`] gives each
/// larger cell exactly; otherwise, if the scenario replays a recording,
/// the run forked a run at `larger_mb[0]` just before its first
/// full-set fill, which [`resume_experiment`] finishes
/// ([`run_feeds_with_larger`]).
pub fn run_experiment_with_larger(
    cfg: &ExperimentConfig,
    larger_mb: &[usize],
    scratch: &mut ExperimentScratch,
) -> (ExperimentResult, LargerSizes, Option<LargerFork>) {
    let cmp = cfg.cmp_config();
    let larger_bytes: Vec<usize> = larger_mb
        .iter()
        .map(|&mb| ExperimentConfig { total_l2_mb: mb, ..cfg.clone() }.cmp_config().l2.size_bytes)
        .collect();
    let feeds = cfg.scenario.build_feeds(cfg.n_cores, cfg.seed, cfg.instructions_per_core);
    let bank_bytes = cmp.l2.size_bytes;
    let (stats, larger, fork) = run_feeds_with_larger(cmp, feeds, &larger_bytes, scratch);
    (simulated_cell(cfg, stats, bank_bytes), larger, fork)
}

/// The resume twin of [`run_experiment_with_larger`]: finishes the cell
/// of `cfg` from `fork`, a run at `cfg`'s size forked from a smaller run
/// of the same scenario and technique, without simulating the cycles
/// before the fork again. Returns what [`run_experiment_with_larger`]
/// returns for `cfg` with the larger sizes the fork shadows (the sizes
/// above it that its parent shadowed): the cell, identical to one
/// simulated from cycle 0, what the run learned about each larger size,
/// and a fork at the next of them.
///
/// # Panics
/// Panics unless the fork runs `cfg`'s per-core L2 size.
pub fn resume_experiment(
    cfg: &ExperimentConfig,
    fork: LargerFork,
    scratch: &mut ExperimentScratch,
) -> (ExperimentResult, LargerSizes, Option<LargerFork>) {
    let bank_bytes = cfg.cmp_config().l2.size_bytes;
    assert_eq!(fork.l2_bytes(), bank_bytes, "the fork runs another L2 size");
    let (stats, larger, fork) = resume_fork(fork, scratch);
    (simulated_cell(cfg, stats, bank_bytes), larger, fork)
}

/// The cell of `cfg` from a run's statistics, with its energy evaluated
/// at the per-core L2 size `bank_bytes`.
fn simulated_cell(cfg: &ExperimentConfig, stats: SimStats, bank_bytes: usize) -> ExperimentResult {
    let power = evaluate_energy(cfg.power, cfg.technique, cfg.n_cores, bank_bytes, &stats);
    ExperimentResult {
        benchmark: cfg.scenario.label(),
        technique: cfg.technique.name(),
        total_l2_mb: cfg.total_l2_mb,
        stats,
        power,
    }
}

/// Rehydrate a store-loaded cell into the [`ExperimentResult`] a fresh
/// simulation of `cfg` would have produced. The labels come from `cfg`
/// (the stored payload carries only `SimStats` + `PowerReport`); the
/// byte-identity of the payload itself is the store's contract, pinned
/// by `tests/store_differential.rs`.
pub fn result_from_stored(cfg: &ExperimentConfig, cell: StoredCell) -> ExperimentResult {
    ExperimentResult {
        benchmark: cfg.scenario.label(),
        technique: cfg.technique.name(),
        total_l2_mb: cfg.total_l2_mb,
        stats: cell.stats,
        power: cell.power,
    }
}

/// Derive the **baseline** cell of `cfg` (whose `technique` must be
/// `Baseline`) from a completed run of a timing-identical technique —
/// re-running only the power bookkeeping instead of the simulation.
///
/// A [`Technique::timing_identical_to_baseline`] run (Protocol) differs
/// from the baseline run of the same (scenario, size, seed) in exactly
/// three places, all pure power accounting: the powered-line integrals
/// (baseline: every line powered the whole run), the per-interval
/// powered-line trace (baseline: the full capacity), and the turn-off
/// counters (baseline: zero). Every timing-borne statistic —
/// cycles, per-core stalls, hits/misses, induced misses, bus and memory
/// traffic, AMAT inputs — is byte-identical and carried over. The
/// energy/thermal report is then re-evaluated under the baseline
/// technique, exactly as a full run would have.
///
/// The equality of the derived cell with a fully simulated baseline is
/// pinned by `tests/sweep_memoization.rs` (cell-for-cell against the
/// unmemoized sweep) and by the golden snapshot.
pub fn derive_baseline_cell(cfg: &ExperimentConfig, donor: &ExperimentResult) -> ExperimentResult {
    assert!(matches!(cfg.technique, Technique::Baseline), "derivation targets the baseline cell");
    assert_eq!(donor.benchmark, cfg.scenario.label(), "donor must be the same scenario");
    assert_eq!(donor.total_l2_mb, cfg.total_l2_mb, "donor must be the same cache size");
    let mut stats = donor.stats.clone();
    // Re-run the power bookkeeping under "never gate anything":
    stats.l2_on_line_cycles = stats.l2_line_cycle_capacity;
    for l2 in &mut stats.l2 {
        l2.turnoffs_protocol = 0;
        l2.turnoffs_decay = 0;
        l2.dirty_decay_turnoffs = 0;
    }
    for iv in &mut stats.trace {
        iv.l2_powered_line_cycles = iv.l2_total_line_cycles;
    }
    let bank_bytes = cfg.cmp_config().l2.size_bytes;
    let power = evaluate_energy(cfg.power, Technique::Baseline, cfg.n_cores, bank_bytes, &stats);
    ExperimentResult {
        benchmark: donor.benchmark.clone(),
        technique: Technique::Baseline.name(),
        total_l2_mb: donor.total_l2_mb,
        stats,
        power,
    }
}

/// Derive the cell of `cfg` from a run of the same scenario and
/// technique at a smaller total L2 that never filled a full set, whose
/// shadow of `cfg`'s size counted `induced_misses` per core
/// ([`run_experiment_with_larger`]) — re-running only the power
/// bookkeeping instead of the simulation.
///
/// Each set of the larger cache holds a subset of the lines of one
/// smaller set, so no fill there finds its set full either, and the
/// two runs agree line by line: residency, MESI states, decay counters,
/// power states, MSHRs and race flags, hence every timing-borne
/// statistic. What changes is pure capacity bookkeeping
/// ([`SimStats::at_larger_size`]): the line-cycle capacity and every
/// interval's, the powered-line integrals of a technique that powers
/// every line (the baseline), and the induced misses, which compare
/// against a baseline of the larger size. The energy/thermal report is
/// then evaluated at the larger bank size, exactly as a full run would.
///
/// The derived cell's equality with a simulated one is pinned by the
/// system-level tests of `cmpleak-system`, by `tests/size_ladders.rs`
/// (whole sweeps against the reference arm) and by the golden snapshot.
pub fn derive_larger_cell(
    cfg: &ExperimentConfig,
    smaller: &ExperimentResult,
    induced_misses: &[u64],
) -> ExperimentResult {
    assert_eq!(smaller.benchmark, cfg.scenario.label(), "same scenario");
    assert_eq!(smaller.technique, cfg.technique.name(), "same technique");
    assert!(cfg.total_l2_mb > smaller.total_l2_mb, "derivation targets a larger size");
    let l2 = cfg.cmp_config().l2;
    let stats = smaller.stats.at_larger_size(
        l2.geometry().lines() as u64,
        induced_misses,
        !cfg.technique.gates_cold_lines(),
    );
    let power = evaluate_energy(cfg.power, cfg.technique, cfg.n_cores, l2.size_bytes, &stats);
    ExperimentResult {
        benchmark: smaller.benchmark.clone(),
        technique: smaller.technique.clone(),
        total_l2_mb: cfg.total_l2_mb,
        stats,
        power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpleak_workloads::ScenarioSpec;

    fn quick(technique: Technique) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper(WorkloadSpec::mpeg2dec(), technique, 1);
        cfg.instructions_per_core = 60_000;
        cfg
    }

    #[test]
    fn experiment_runs_and_labels_itself() {
        let r = run_experiment(&quick(Technique::Protocol));
        assert_eq!(r.benchmark, "mpeg2dec");
        assert_eq!(r.technique, "protocol");
        assert_eq!(r.total_l2_mb, 1);
        assert_eq!(r.stats.instructions, 4 * 60_000);
        assert!(r.power.energy.total_pj() > 0.0);
    }

    #[test]
    fn baseline_occupation_is_one_and_protocol_below() {
        let base = run_experiment(&quick(Technique::Baseline));
        let prot = run_experiment(&quick(Technique::Protocol));
        assert!((base.stats.occupation_rate() - 1.0).abs() < 1e-12);
        assert!(prot.stats.occupation_rate() < 1.0);
    }

    #[test]
    fn store_key_descriptor_names_the_cell() {
        let mut cfg = quick(Technique::SelectiveDecay { decay_cycles: 64 * 1024 });
        cfg.seed = 0;
        assert_eq!(cfg.store_key().meta, "mpeg2dec/sel_decay64K@1MB i60000 s0 c4");
        cfg.seed = u64::MAX;
        cfg.technique = Technique::Decay { decay_cycles: 1000 };
        assert_eq!(cfg.store_key().meta, "mpeg2dec/decay1000@1MB i60000 s18446744073709551615 c4");
    }

    #[test]
    fn cmp_config_splits_capacity() {
        let cfg = quick(Technique::Baseline).cmp_config();
        assert_eq!(cfg.l2.size_bytes * 4, 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "n_cores = 0 is outside 1..=64")]
    fn zero_cores_are_refused_before_the_capacity_split() {
        let mut cfg = quick(Technique::Baseline);
        cfg.n_cores = 0;
        cfg.cmp_config();
    }

    #[test]
    fn experiments_are_deterministic() {
        let a = run_experiment(&quick(Technique::Decay { decay_cycles: 64 * 1024 }));
        let b = run_experiment(&quick(Technique::Decay { decay_cycles: 64 * 1024 }));
        assert_eq!(a.stats, b.stats, "whole-stats bit-identity");
        assert_eq!(a.power, b.power);
    }

    #[test]
    fn derived_baseline_is_bit_identical_to_a_simulated_one() {
        let donor = run_experiment(&quick(Technique::Protocol));
        let simulated = run_experiment(&quick(Technique::Baseline));
        let derived = derive_baseline_cell(&quick(Technique::Baseline), &donor);
        assert_eq!(derived.stats, simulated.stats, "whole-SimStats bit-identity");
        assert_eq!(derived.power, simulated.power);
        assert_eq!(derived.technique, "baseline");
    }

    #[test]
    fn derived_larger_cells_are_bit_identical_to_simulated_ones() {
        // At 3 K instructions per core no paper-sized cache fills a set.
        let cell = |technique, total_l2_mb| {
            let mut cfg = ExperimentConfig::paper(WorkloadSpec::water_ns(), technique, total_l2_mb);
            cfg.instructions_per_core = 3_000;
            cfg
        };
        for technique in [
            Technique::Baseline,
            Technique::Protocol,
            Technique::SelectiveDecay { decay_cycles: 64 * 1024 },
        ] {
            let (small, larger, _) = run_experiment_with_larger(
                &cell(technique, 1),
                &[2, 8],
                &mut ExperimentScratch::default(),
            );
            assert!(larger.derivable(), "{technique}: {} full-set fills", larger.full_set_fills);
            assert_eq!(small.stats, run_experiment(&cell(technique, 1)).stats);
            for (i, mb) in [2, 8].into_iter().enumerate() {
                let derived =
                    derive_larger_cell(&cell(technique, mb), &small, &larger.induced_misses[i]);
                let simulated = run_experiment(&cell(technique, mb));
                assert_eq!(derived.stats, simulated.stats, "{technique} at {mb} MB");
                assert_eq!(derived.power, simulated.power, "{technique} at {mb} MB");
                assert_eq!(derived.total_l2_mb, mb);
            }
        }
    }

    #[test]
    fn lane_group_experiments_match_solo_runs() {
        // One (scenario, size) group's technique lanes, run the way a
        // sweep worker runs them: one recording of the group's stream,
        // replayed cell after cell through one scratch.
        let cfgs: Vec<ExperimentConfig> = [
            Technique::Protocol,
            Technique::Decay { decay_cycles: 64 * 1024 },
            Technique::SelectiveDecay { decay_cycles: 64 * 1024 },
        ]
        .into_iter()
        .map(quick)
        .collect();
        let first = &cfgs[0];
        let shared = first.scenario.record_shared_in(
            first.n_cores,
            first.seed,
            first.instructions_per_core,
            vec![Vec::new(); first.n_cores],
        );
        let mut scratch = ExperimentScratch::default();
        for cfg in &cfgs {
            let lane_cfg = ExperimentConfig { scenario: shared.clone(), ..cfg.clone() };
            let lane = run_experiment_with_scratch(&lane_cfg, &mut scratch);
            let solo = run_experiment(cfg);
            assert_eq!(lane.benchmark, solo.benchmark);
            assert_eq!(lane.stats, solo.stats, "{}: whole-SimStats bit-identity", lane.technique);
            assert_eq!(lane.power, solo.power);
        }
    }

    #[test]
    fn warmed_scratch_runs_later_8mb_cells_without_fresh_allocations() {
        // Back-to-back cells at the paper's largest size on one scratch,
        // the way a sweep worker runs them: once the first cell has
        // filled the arena, every later cell checks its per-line columns
        // out of the pool.
        let mut scratch = ExperimentScratch::default();
        let mut warmed = None;
        for technique in
            [Technique::Baseline, Technique::Protocol, Technique::Decay { decay_cycles: 64 * 1024 }]
        {
            for spec in [WorkloadSpec::water_ns(), WorkloadSpec::mpeg2dec()] {
                let mut cfg = ExperimentConfig::paper(spec, technique, 8);
                cfg.instructions_per_core = 3_000;
                run_experiment_with_scratch(&cfg, &mut scratch);
                let fresh = scratch.arena_stats().fresh_allocations;
                let first = *warmed.get_or_insert(fresh);
                assert_eq!(
                    fresh,
                    first,
                    "{}/{}: a warmed arena allocated fresh columns",
                    spec.name,
                    technique.name()
                );
            }
        }
        assert!(warmed.is_some_and(|f| f > 0), "the first cell allocates its columns");
    }

    #[test]
    fn smaller_cells_after_an_8mb_cell_allocate_nothing() {
        // Once an 8 MB cell has sized a worker's arena (or a 1 MB run
        // with an 8 MB shadow has), every smaller cell's columns are
        // best-fit pool hits, whatever its technique.
        let cell = |technique, total_l2_mb| {
            let mut cfg = ExperimentConfig::paper(WorkloadSpec::water_ns(), technique, total_l2_mb);
            cfg.instructions_per_core = 3_000;
            cfg
        };
        let mut scratch = ExperimentScratch::default();
        run_experiment_with_scratch(
            &cell(Technique::Decay { decay_cycles: 512 * 1024 }, 8),
            &mut scratch,
        );
        let sized = scratch.arena_stats().fresh_allocations;
        assert!(sized > 0, "the 8 MB cell allocates its columns");
        for total_l2_mb in [4, 2, 1] {
            for technique in [
                Technique::Baseline,
                Technique::Protocol,
                Technique::Decay { decay_cycles: 64 * 1024 },
                Technique::SelectiveDecay { decay_cycles: 128 * 1024 },
            ] {
                run_experiment_with_scratch(&cell(technique, total_l2_mb), &mut scratch);
                assert_eq!(
                    scratch.arena_stats().fresh_allocations,
                    sized,
                    "{total_l2_mb} MB {}: a smaller cell allocated fresh columns",
                    technique.name()
                );
            }
        }
    }

    #[test]
    fn an_8mb_cell_after_a_1mb_cell_grows_the_pool_instead_of_widening_it() {
        // A sweep worker may meet a small cell before a large one (a
        // scenario-major pool with more workers than a group has cells):
        // the 8 MB cell grows the 1 MB cell's buffers, so the pool keeps
        // one buffer per column, exactly what an 8 MB cell alone leaves.
        let cell = |technique, total_l2_mb| {
            let mut cfg = ExperimentConfig::paper(WorkloadSpec::fmm(), technique, total_l2_mb);
            cfg.instructions_per_core = 3_000;
            cfg
        };
        let mut alone = ExperimentScratch::default();
        run_experiment_with_scratch(&cell(Technique::Protocol, 8), &mut alone);
        let columns = alone.arena_stats();
        assert_eq!(columns.pooled, columns.checkouts, "every column went back to the pool");

        let mut scratch = ExperimentScratch::default();
        run_experiment_with_scratch(&cell(Technique::Protocol, 1), &mut scratch);
        run_experiment_with_scratch(&cell(Technique::Protocol, 8), &mut scratch);
        assert_eq!(scratch.arena_stats().pooled, columns.pooled, "one pooled buffer per column");
        let grown = scratch.arena_stats().fresh_allocations;
        run_experiment_with_scratch(
            &cell(Technique::SelectiveDecay { decay_cycles: 64 * 1024 }, 8),
            &mut scratch,
        );
        assert_eq!(
            scratch.arena_stats().fresh_allocations,
            grown,
            "a second 8 MB cell allocated fresh columns"
        );
        assert_eq!(scratch.arena_stats().pooled, columns.pooled);
    }

    #[test]
    fn heterogeneous_mix_runs_with_per_core_breakdown() {
        let mut cfg = ExperimentConfig::paper_scenario(
            Scenario::Mix(ScenarioSpec::bursty_idle()),
            Technique::Protocol,
            1,
        );
        cfg.instructions_per_core = 40_000;
        let r = run_experiment(&cfg);
        assert_eq!(r.benchmark, "mix_bursty_idle");
        assert_eq!(
            r.stats.core_workloads,
            vec!["WATER-NS", "bursty", "VOLREND", "bursty"],
            "per-core breakdown labels the mix"
        );
        assert_eq!(r.stats.instructions, 4 * 40_000);
        for c in 0..4 {
            assert_eq!(r.stats.cores[c].instructions, 40_000, "fixed work per core");
        }
        // The bursty cores do far fewer memory ops for the same budget.
        let busy_mem = r.stats.cores[0].loads + r.stats.cores[0].stores;
        let idle_mem = r.stats.cores[1].loads + r.stats.cores[1].stores;
        assert!(
            idle_mem * 3 < busy_mem,
            "bursty core must be memory-light: busy {busy_mem}, idle {idle_mem}"
        );
    }
}

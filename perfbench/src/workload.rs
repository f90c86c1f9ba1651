//! The three workloads, driven untraced through the library's public
//! API, and the output check against the reference arm.
//!
//! * `repro_grid` — what `repro all` does: the paper grid (6 benchmarks ×
//!   {1,2,4,8} MB × baseline + 7 techniques) cold through `run_sweep` at
//!   `threads = nproc`, then every figure and the §VII headline.
//! * `mix_grid_1t` — the three curated mixes × {1,8} MB × baseline + 7
//!   techniques at `threads = 1`, then their figures.
//! * `serve_zipf` — one closed-loop client with no think time sending a
//!   seeded Zipf-skewed request queue over the `sweep serve` catalog to a
//!   fresh store; a miss runs the request's (scenario, size) group with
//!   the store attached, as serve's grid prefetch does.

use crate::util::{Digest, Rng};
use cmpleak_coherence::Technique;
use cmpleak_core::{
    result_from_stored, run_experiment, run_sweep_with_telemetry, ExperimentConfig,
    ExperimentResult, ExperimentScratch, FigureSet, Scenario, ScenarioSpec, SweepCell, SweepConfig,
    SweepResults, SweepTelemetry, TechniqueMetrics, WorkloadSpec,
};
use cmpleak_store::{record::encode_payload, ResultStore, StoredCell};
use cmpleak_system::{CycleEngine, SimKernel};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Cores of every simulated chip (the paper's 4).
pub const N_CORES: usize = 4;

/// Sizes of the serve catalog, in MB.
pub const SERVE_SIZES: [usize; 4] = [1, 2, 4, 8];

/// The paper's §VII headline: (family, energy reduction %, IPC loss %).
pub const PAPER_HEADLINE: [(&str, f64, f64); 3] =
    [("Protocol", 13.0, 0.0), ("Decay", 30.0, 8.0), ("Selective Decay", 21.0, 2.0)];

/// Zipf exponent of the serve queue's popularity ranks.
const ZIPF_S: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReproGrid,
    MixGrid1t,
    ServeZipf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ReproGrid, Workload::MixGrid1t, Workload::ServeZipf];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproGrid => "repro_grid",
            Workload::MixGrid1t => "mix_grid_1t",
            Workload::ServeZipf => "serve_zipf",
        }
    }

    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads of the untraced run.
    pub fn threads(self) -> usize {
        match self {
            Workload::MixGrid1t => 1,
            _ => nproc(),
        }
    }

    /// Total L2 size the headline is taken at: the paper's 4 MB, or the
    /// mix grid's largest size.
    pub fn headline_size(self) -> usize {
        match self {
            Workload::MixGrid1t => 8,
            _ => 4,
        }
    }
}

/// How much work one iteration of a workload does.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Instructions per core per simulated cell.
    pub instr: u64,
    /// Requests per serve queue.
    pub queue_len: usize,
}

impl Budget {
    /// The benchmark budget. Iterations are kept short (0.7–1.5 s on the
    /// 2-vCPU Xeon host the bounds were set on) so that some of them fit
    /// between other tenants' bursts: the best iteration is what a run
    /// reports.
    pub fn standard(w: Workload) -> Self {
        match w {
            Workload::ReproGrid => Self { instr: 40_000, queue_len: 0 },
            Workload::MixGrid1t => Self { instr: 100_000, queue_len: 0 },
            Workload::ServeZipf => Self { instr: 25_000, queue_len: 2_000 },
        }
    }

    /// A tiny budget for the self-tests.
    pub fn smoke() -> Self {
        Self { instr: 3_000, queue_len: 150 }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The grid a grid workload sweeps.
pub fn grid_config(w: Workload, seed: u64, budget: Budget) -> SweepConfig {
    let mut cfg = match w {
        Workload::ReproGrid => SweepConfig::paper(budget.instr),
        Workload::MixGrid1t => {
            let mut c = SweepConfig::mixes(budget.instr);
            c.sizes_mb = vec![1, 8];
            c
        }
        Workload::ServeZipf => unreachable!("serve_zipf is not a grid workload"),
    };
    cfg.seed = seed;
    cfg.n_cores = N_CORES;
    cfg.threads = w.threads();
    cfg
}

/// Everything `repro all` prints from a sweep: Table I, the by-size
/// figures, both per-benchmark figures and the headline.
pub fn render_figures(res: &SweepResults, size_mb: usize) -> String {
    let figs = FigureSet::new(res);
    let mut out = cmpleak_coherence::legality::render_table();
    for f in figs.all_by_size() {
        out.push_str(&f.to_string());
    }
    out.push_str(&figs.fig6a(size_mb).to_string());
    out.push_str(&figs.fig6b(size_mb).to_string());
    for (name, er, loss) in figs.headline(size_mb) {
        out.push_str(&format!("{name} {:.1}% {:.1}%\n", er * 100.0, loss * 100.0));
    }
    out
}

/// Mean absolute error, in percentage points, of the six §VII headline
/// numbers of `res` at `size_mb` against the paper's.
pub fn headline_err_pp(res: &SweepResults, size_mb: usize) -> f64 {
    let ours = FigureSet::new(res).headline(size_mb);
    let mut err = 0.0;
    for ((_, er, loss), (_, paper_er, paper_loss)) in ours.iter().zip(PAPER_HEADLINE) {
        err += (er * 100.0 - paper_er).abs() + (loss * 100.0 - paper_loss).abs();
    }
    err / 6.0
}

/// Digest of a sweep's cells, byte for byte.
pub fn sweep_digest(res: &SweepResults) -> String {
    let mut d = Digest::default();
    d.write(serde_json::to_string(res).expect("sweep cells serialize").as_bytes());
    d.hex()
}

/// Cycles of the cells a sweep simulated: every cell but the baselines,
/// which are derived from their Protocol twins.
pub fn simulated_cycles(res: &SweepResults) -> u64 {
    res.cells.iter().filter(|c| c.technique != "baseline").map(|c| c.cycles).sum()
}

/// One untraced iteration of a grid workload.
#[derive(Debug)]
pub struct GridRun {
    pub res: SweepResults,
    pub tel: SweepTelemetry,
    /// Issue to return of `run_sweep`: when every cell is answered.
    pub sweep_s: f64,
    /// Sweep plus figures.
    pub wall_s: f64,
}

pub fn run_grid(w: Workload, cfg: &SweepConfig, scratch: &mut ExperimentScratch) -> GridRun {
    let t0 = Instant::now();
    let (res, tel) = run_sweep_with_telemetry(cfg, scratch);
    let sweep_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(render_figures(&res, w.headline_size()));
    GridRun { res, tel, sweep_s, wall_s: t0.elapsed().as_secs_f64() }
}

/// The `sweep serve` catalog: the six paper benchmarks plus the three
/// mixes, and the baseline plus the seven paper techniques.
pub fn serve_catalog() -> (Vec<Scenario>, Vec<Technique>) {
    let mut scenarios: Vec<Scenario> =
        WorkloadSpec::paper_suite().into_iter().map(Scenario::Homogeneous).collect();
    scenarios.extend(ScenarioSpec::paper_mixes().into_iter().map(Scenario::Mix));
    let mut techniques = vec![Technique::Baseline];
    techniques.extend(Technique::paper_set());
    (scenarios, techniques)
}

/// A request queue in `sweep serve`'s line format (`scenario technique
/// size_mb`): `len` draws from a Zipf(1) popularity over the catalog's
/// cells, whose ranks are a seeded permutation.
pub fn zipf_queue(seed: u64, len: usize) -> String {
    let (scenarios, techniques) = serve_catalog();
    let mut cells = Vec::new();
    for s in &scenarios {
        for t in &techniques {
            for size in SERVE_SIZES {
                cells.push(format!("{} {} {size}", s.label(), t.name()));
            }
        }
    }
    let mut rng = Rng::new(seed);
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.below(i + 1));
    }
    let mut cdf = Vec::with_capacity(cells.len());
    let mut acc = 0.0;
    for rank in 0..cells.len() {
        acc += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    let mut out = String::new();
    for _ in 0..len {
        let u = rng.next_f64() * acc;
        let rank = cdf.partition_point(|&c| c <= u).min(cells.len() - 1);
        out.push_str(&cells[rank]);
        out.push('\n');
    }
    out
}

/// Parse a queue as `sweep serve` does, into the exact cell configuration
/// a sweep would build, so content addresses match what `run_sweep`
/// publishes. Returns `None` on a line serve would skip.
pub fn parse_queue(text: &str, seed: u64, instr: u64) -> Option<Vec<ExperimentConfig>> {
    let (scenarios, techniques) = serve_catalog();
    let mut out = Vec::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let (scen, tech, size) = (parts.next()?, parts.next()?, parts.next()?);
        let scenario = scenarios.iter().find(|s| s.label() == scen)?;
        let technique = *techniques.iter().find(|t| t.name() == tech)?;
        let mut cfg =
            ExperimentConfig::paper_scenario(scenario.clone(), technique, size.parse().ok()?);
        cfg.instructions_per_core = instr;
        cfg.seed = seed;
        cfg.n_cores = N_CORES;
        out.push(cfg);
    }
    Some(out)
}

/// The sweep a miss runs: the request's (scenario, size) group with every
/// paper technique, store attached.
pub fn miss_group(req: &ExperimentConfig, threads: usize, store: &Arc<ResultStore>) -> SweepConfig {
    SweepConfig {
        scenarios: vec![req.scenario.clone()],
        sizes_mb: vec![req.total_l2_mb],
        techniques: Technique::paper_set(),
        instructions_per_core: req.instructions_per_core,
        seed: req.seed,
        n_cores: req.n_cores,
        threads,
        store: Some(Arc::clone(store)),
    }
}

/// A serve iteration's inputs: the parsed queue and a fresh, empty store.
#[derive(Debug)]
pub struct ServeSetup {
    pub requests: Vec<ExperimentConfig>,
    pub store: Arc<ResultStore>,
}

pub fn serve_setup(seed: u64, budget: Budget, dir: &Path) -> ServeSetup {
    let text = zipf_queue(seed, budget.queue_len);
    let requests = parse_queue(&text, seed, budget.instr).expect("generated queue parses");
    let store = Arc::new(ResultStore::open(dir).expect("store directory"));
    ServeSetup { requests, store }
}

/// One untraced serve iteration.
#[derive(Debug)]
pub struct ServeRun {
    /// Per request: answered from the first probe, latency in µs, and the
    /// answered cell (`None` if the request went unanswered).
    pub answers: Vec<(bool, f64, Option<StoredCell>)>,
    pub wall_s: f64,
    /// Cycles of the cells the miss groups simulated.
    pub sim_cycles: u64,
    pub groups: usize,
    pub derived: usize,
    pub recorded: usize,
}

pub fn run_serve(setup: &ServeSetup, threads: usize) -> ServeRun {
    let mut answers = Vec::with_capacity(setup.requests.len());
    let (mut sim_cycles, mut groups, mut derived, mut recorded) = (0, 0, 0, 0);
    let t0 = Instant::now();
    for req in &setup.requests {
        let issued = Instant::now();
        let key = req.store_key();
        let answer = match setup.store.load(&key) {
            Some(cell) => (true, Some(cell)),
            None => {
                let group = miss_group(req, threads, &setup.store);
                let (res, tel) =
                    run_sweep_with_telemetry(&group, &mut ExperimentScratch::default());
                sim_cycles += simulated_cycles(&res);
                groups += 1;
                derived += tel.derived;
                recorded += tel.recorded;
                (false, setup.store.load(&key))
            }
        };
        answers.push((answer.0, issued.elapsed().as_secs_f64() * 1e6, answer.1));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    ServeRun { answers, wall_s, sim_cycles, groups, derived, recorded }
}

/// Digest of the answered cells, in request order.
pub fn serve_digest(run: &ServeRun) -> String {
    let mut d = Digest::default();
    for (_, _, cell) in &run.answers {
        match cell {
            Some(c) => d.write(&encode_payload(&c.stats, &c.power)),
            None => d.write(b"unanswered"),
        }
    }
    d.hex()
}

/// The headline of the paper grid at 4 MB as served from `store`, for
/// the serve workload's `paper_headline_err_pp`. Groups the queue never
/// touched are simulated into the store first.
pub fn served_headline_err_pp(store: &Arc<ResultStore>, seed: u64, instr: u64) -> f64 {
    let size = Workload::ServeZipf.headline_size();
    let mut cells = Vec::new();
    for spec in WorkloadSpec::paper_suite() {
        let mk = |technique| {
            let mut c = ExperimentConfig::paper(spec, technique, size);
            c.instructions_per_core = instr;
            c.seed = seed;
            c.n_cores = N_CORES;
            c
        };
        let load = |cfg: &ExperimentConfig| -> ExperimentResult {
            let cell = store.load(&cfg.store_key()).unwrap_or_else(|| {
                run_sweep_with_telemetry(
                    &miss_group(cfg, 1, store),
                    &mut ExperimentScratch::default(),
                );
                store.load(&cfg.store_key()).expect("published by the group sweep")
            });
            result_from_stored(cfg, cell)
        };
        let base = load(&mk(Technique::Baseline));
        cells.push(sweep_cell(&base, TechniqueMetrics::baseline_identity(&base)));
        for t in Technique::paper_set() {
            let r = load(&mk(t));
            cells.push(sweep_cell(&r, TechniqueMetrics::compare(&base, &r)));
        }
    }
    headline_err_pp(&SweepResults { cells }, size)
}

/// The sweep cell `run_sweep` reports for `r`.
pub fn sweep_cell(r: &ExperimentResult, metrics: TechniqueMetrics) -> SweepCell {
    SweepCell {
        benchmark: r.benchmark.clone(),
        technique: r.technique.clone(),
        size_mb: r.total_l2_mb,
        metrics,
        cycles: r.stats.cycles,
        mem_bytes: r.stats.mem_bytes,
        energy_pj: r.power.energy.total_pj(),
        avg_l2_temp_c: r.power.avg_l2_temp_c,
    }
}

/// Run `cfg` through the retained reference arm: per-cycle kernel,
/// full-scan engine, live generation, nothing derived or shared.
pub fn run_reference(cfg: &ExperimentConfig) -> ExperimentResult {
    let mut c = cfg.clone();
    c.kernel = SimKernel::PerCycle;
    c.engine = CycleEngine::FullScan;
    run_experiment(&c)
}

/// `k` indices of `0..n` rotated by `seed`, spread evenly.
pub fn sample(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let k = k.min(n);
    let start = (Rng::new(seed).next_u64() % n.max(1) as u64) as usize;
    (0..k).map(|j| (start + j * n / k.max(1)) % n).collect()
}

/// Re-simulate `k` seed-rotated cells of a grid through the reference
/// arm and compare them byte for byte with the sweep's. Returns the
/// number of mismatching cells.
pub fn check_grid(cfg: &SweepConfig, res: &SweepResults, seed: u64, k: usize) -> usize {
    let mut techniques = vec![Technique::Baseline];
    techniques.extend(cfg.techniques.iter().copied());
    let mut mismatches = 0;
    for i in sample(res.cells.len(), k, seed) {
        let cell = &res.cells[i];
        let scenario = cfg.scenarios.iter().find(|s| s.label() == cell.benchmark);
        let technique = techniques.iter().find(|t| t.name() == cell.technique);
        let (Some(scenario), Some(&technique)) = (scenario, technique) else {
            mismatches += 1;
            continue;
        };
        let mk = |technique| ExperimentConfig {
            scenario: scenario.clone(),
            technique,
            total_l2_mb: cell.size_mb,
            instructions_per_core: cfg.instructions_per_core,
            seed: cfg.seed,
            n_cores: cfg.n_cores,
            power: Default::default(),
            kernel: SimKernel::PerCycle,
            engine: CycleEngine::FullScan,
        };
        let base = run_reference(&mk(Technique::Baseline));
        let reference = if matches!(technique, Technique::Baseline) {
            sweep_cell(&base, TechniqueMetrics::baseline_identity(&base))
        } else {
            let r = run_reference(&mk(technique));
            sweep_cell(&r, TechniqueMetrics::compare(&base, &r))
        };
        let (a, b) = (serde_json::to_string(cell), serde_json::to_string(&reference));
        if a.ok() != b.ok() {
            eprintln!(
                "output check: {}/{}@{}MB differs from the reference arm",
                cell.benchmark, cell.technique, cell.size_mb
            );
            mismatches += 1;
        }
    }
    mismatches
}

/// Re-simulate `k` seed-rotated answered requests through the reference
/// arm and compare the payloads byte for byte. Returns the number of
/// mismatches (an unanswered sampled request counts as one).
pub fn check_serve(setup: &ServeSetup, run: &ServeRun, seed: u64, k: usize) -> usize {
    let mut mismatches = 0;
    for i in sample(run.answers.len(), k, seed) {
        let req = &setup.requests[i];
        let r = run_reference(req);
        let same = run.answers[i].2.as_ref().is_some_and(|c| {
            encode_payload(&c.stats, &c.power) == encode_payload(&r.stats, &r.power)
        });
        if !same {
            eprintln!(
                "output check: request {i} ({}/{}@{}MB) differs from the reference arm",
                req.scenario.label(),
                req.technique.name(),
                req.total_l2_mb
            );
            mismatches += 1;
        }
    }
    mismatches
}

/// A fresh directory for one serve store under `root`.
pub fn store_dir(root: &Path, tag: &str) -> PathBuf {
    root.join(format!("store-{}-{tag}", std::process::id()))
}

//! One benchmark run: repeat a workload for the requested seconds, check
//! its outputs, and reduce the iterations to metrics (median and
//! quartiles of each).

use crate::traced::{layer_metrics, self_time_table, Counts, Metric, Traced, Tracer};
use crate::util::{
    json_num, json_str, median, quartiles, reset_vm_hwm, vm_hwm_kb, weighted_quantile,
};
use crate::workload::{
    check_grid, check_serve, grid_config, headline_err_pp, run_grid, run_serve, serve_digest,
    serve_setup, served_headline_err_pp, simulated_cycles, store_dir, sweep_digest, Budget,
    Workload,
};
use cmpleak_core::{ExperimentScratch, SweepResults};
use cmpleak_store::ResultStore;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups timed, back to back, before each iteration.
const SETUP_BATCH: usize = 9;

/// Cells (grid) or requests (serve) re-simulated through the reference
/// arm after the timed region.
const CHECK_SAMPLES: usize = 2;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub budget: Budget,
    /// Where stores, span files and reports go.
    pub out_dir: PathBuf,
    /// Traced run: the untraced run's median `wall_s`, which the residual
    /// is taken against.
    pub untraced_wall_s: Option<f64>,
    /// Traced run: the untraced run's digest; the traced path must
    /// produce the same cells.
    pub expect_digest: Option<String>,
}

/// A metric reduced over a run's iterations.
#[derive(Debug, Clone)]
pub struct Stat {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

impl Stat {
    fn of(name: &str, unit: &'static str, samples: &[f64]) -> Self {
        let (q1, value, q3) = quartiles(samples);
        Self { name: name.to_string(), unit, value, q1, q3, samples: samples.to_vec() }
    }

    fn single(name: &str, unit: &'static str, value: f64) -> Self {
        Self::of(name, unit, &[value])
    }

    /// The best sample as the value (the highest if `higher` is better,
    /// else the lowest), with the samples' quartiles.
    fn best(name: &str, unit: &'static str, samples: &[f64], higher: bool) -> Self {
        let best = if higher {
            samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        } else {
            samples.iter().copied().fold(f64::INFINITY, f64::min)
        };
        Self { value: best, ..Self::of(name, unit, samples) }
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub threads: usize,
    pub iterations: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Exact counts disagreed between iterations.
    pub drift: bool,
    pub digest: String,
    pub metrics: Vec<Stat>,
    /// Exact counts: identical across every run of the same code and seed.
    pub counts: Vec<(String, u64)>,
    pub notes: Vec<String>,
    /// Traced run: the per-layer self-time table.
    pub table: String,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.drift
    }

    /// The result line: `correct`, `attempted`, `failed` and each metric's
    /// value and unit.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record of the run: every metric's quartiles, the exact
    /// counts and the digest.
    pub fn report_json(&self, budget: Budget) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let samples: Vec<String> = m.samples.iter().map(|&v| json_num(v)).collect();
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"samples\": [{}]}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit),
                    json_num(m.q1),
                    json_num(m.q3),
                    samples.join(", ")
                )
            })
            .collect();
        let counts: Vec<String> =
            self.counts.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"threads\": {}, \"nproc\": {}, \
             \"instr_per_core\": {}, \"queue_len\": {}, \"code_fingerprint\": {}, \
             \"iterations\": {}, \"digest\": {}, \"result\": {}, \"metrics\": {{{}}}, \
             \"counts\": {{{}}}, \"notes\": [{}]}}\n",
            json_str(&self.workload),
            self.seed,
            u8::from(self.traced),
            self.threads,
            crate::workload::nproc(),
            budget.instr,
            budget.queue_len,
            json_str(cmpleak_store::code_fingerprint()),
            self.iterations,
            json_str(&self.digest),
            self.result_json(),
            metrics.join(", "),
            counts.join(", "),
            notes.join(", ")
        )
    }

    /// Every metric by name with its unit, median and quartiles.
    pub fn human(&self) -> String {
        let mut out = format!(
            "{} seed {} ({}, {} thread(s), {} iteration(s))\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.threads,
            self.iterations
        );
        out.push_str(&format!(
            "  {:<32} {:>16} {:<9} {:>14} {:>14} {:>4}\n",
            "metric", "value", "unit", "q1", "q3", "n"
        ));
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<32} {:>16.6} {:<9} {:>14.6} {:>14.6} {:>4}\n",
                m.name,
                m.value,
                m.unit,
                m.q1,
                m.q3,
                m.samples.len()
            ));
        }
        out.push_str(&format!(
            "  {:<32} {:>16.6} {:<9} ({} failed of {} ops)\n",
            "ops_failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            "frac",
            self.failed,
            self.attempted
        ));
        out.push_str(&format!("  digest {}\n", self.digest));
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        if !self.table.is_empty() {
            out.push_str(&self.table);
        }
        out
    }
}

/// Whether another iteration fits in the run.
fn more(start: Instant, o: &Options, done: usize) -> bool {
    done == 0 || start.elapsed().as_secs_f64() < o.seconds
}

/// What one untraced iteration measured.
#[derive(Debug)]
struct Iteration {
    wall_s: f64,
    /// Cycles of the cells the iteration simulated.
    sim_cycles: u64,
    /// Cells (grid) or requests (serve) answered.
    ops: u64,
    /// Per-op latency in µs, with the number of ops that saw it.
    latencies: Vec<(f64, u64)>,
    unanswered: u64,
    digest: String,
    counts: Vec<(String, u64)>,
}

/// The iterations of an untraced run, reduced to the end-to-end metrics.
///
/// Every timing is the best of the run's iterations: on a shared host,
/// interference from other tenants only ever adds time (it moved single
/// iterations by up to 80% on the 2-vCPU host the bounds were set on),
/// so the fastest iteration is the steadiest estimate of the work's cost.
/// Peak memory is the median iteration's: it varies both ways, with how
/// the worker threads' allocations happen to overlap. The quartiles and
/// every sample stay in the run's record.
#[derive(Debug, Default)]
struct Iterations {
    /// Median of each batch of set-ups (one batch before each iteration).
    setup_batches: Vec<f64>,
    walls: Vec<f64>,
    ns_per_cycle: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    rates: Vec<f64>,
    /// Latency samples per iteration.
    samples: u64,
    /// Peak resident set of each iteration.
    peak_rss_mb: Vec<f64>,
    attempted: u64,
    failed: u64,
    drift: bool,
    digest: String,
    counts: Vec<(String, u64)>,
}

impl Iterations {
    /// Run `iterate` until the run's seconds are up, timing a batch of
    /// `setup` calls before each iteration.
    fn run(
        o: &Options,
        mut setup: impl FnMut(usize),
        mut iterate: impl FnMut(usize) -> Iteration,
    ) -> Self {
        let mut it = Iterations::default();
        let start = Instant::now();
        while more(start, o, it.walls.len()) {
            let batch: Vec<f64> = (0..SETUP_BATCH)
                .map(|k| {
                    let t = Instant::now();
                    setup(it.walls.len() * SETUP_BATCH + k);
                    t.elapsed().as_secs_f64()
                })
                .collect();
            it.setup_batches.push(median(&batch));
            reset_vm_hwm();
            let r = iterate(it.walls.len());
            it.peak_rss_mb.push(vm_hwm_kb() as f64 / 1024.0);
            if it.walls.is_empty() {
                it.digest = r.digest.clone();
                it.counts = r.counts.clone();
            } else if r.digest != it.digest || r.counts != it.counts {
                eprintln!(
                    "determinism failure: iteration {} differs from the first",
                    it.walls.len()
                );
                it.drift = true;
                it.failed += r.ops;
            }
            it.walls.push(r.wall_s);
            it.ns_per_cycle.push(r.wall_s * 1e9 / r.sim_cycles as f64);
            it.rates.push(r.ops as f64 / r.wall_s);
            it.p50.push(weighted_quantile(&r.latencies, 0.5));
            it.p99.push(weighted_quantile(&r.latencies, 0.99));
            it.samples = r.latencies.iter().map(|l| l.1).sum();
            it.attempted += r.ops;
            it.failed += r.unanswered;
        }
        it
    }

    fn metrics(&self, headline: f64) -> Vec<Stat> {
        vec![
            Stat::best("wall_s", "s", &self.walls, false),
            Stat::best("setup_s", "s", &self.setup_batches, false),
            Stat::best("host_ns_per_sim_cycle", "ns", &self.ns_per_cycle, false),
            Stat::of("peak_rss_mb", "MB", &self.peak_rss_mb),
            Stat::best("req_p50_us", "us", &self.p50, false),
            Stat::best("req_p99_us", "us", &self.p99, false),
            Stat::best("req_per_s", "1/s", &self.rates, true),
            Stat::single("paper_headline_err_pp", "pp", headline),
        ]
    }

    fn report(self, o: &Options, headline: f64, mut notes: Vec<String>) -> Report {
        notes.push(format!(
            "timings: best of {} iteration(s); set-up: best median of {} batches of {SETUP_BATCH}",
            self.walls.len(),
            self.setup_batches.len()
        ));
        notes.push(format!(
            "req_p50_us, req_p99_us: per iteration over {} samples, {} beyond p99",
            self.samples,
            self.samples / 100
        ));
        notes.push("peak_rss_mb: VmHWM of each iteration (reset before it), median".to_string());
        Report {
            workload: o.workload.name().to_string(),
            seed: o.seed,
            traced: false,
            threads: o.workload.threads(),
            iterations: self.walls.len(),
            attempted: self.attempted,
            failed: self.failed,
            drift: self.drift,
            metrics: self.metrics(headline),
            digest: self.digest,
            counts: self.counts,
            notes,
            table: String::new(),
        }
    }
}

pub fn run_untraced(o: &Options) -> Report {
    match o.workload {
        Workload::ServeZipf => untraced_serve(o),
        w => untraced_grid(w, o),
    }
}

fn untraced_grid(w: Workload, o: &Options) -> Report {
    let mut first: Option<SweepResults> = None;
    let mut it = Iterations::run(
        o,
        |_| {
            std::hint::black_box((grid_config(w, o.seed, o.budget), ExperimentScratch::default()));
        },
        |_| {
            let cfg = grid_config(w, o.seed, o.budget);
            let run = run_grid(w, &cfg, &mut ExperimentScratch::default());
            let cells = run.res.cells.len() as u64;
            let sim_cycles = simulated_cycles(&run.res);
            let r = Iteration {
                wall_s: run.wall_s,
                sim_cycles,
                ops: cells,
                latencies: vec![(run.sweep_s * 1e6, cells)],
                unanswered: 0,
                digest: sweep_digest(&run.res),
                counts: vec![
                    ("cells".to_string(), cells),
                    ("cells_derived".to_string(), run.tel.derived as u64),
                    ("streams_recorded".to_string(), run.tel.recorded as u64),
                    ("sim_cycles".to_string(), sim_cycles),
                ],
            };
            first.get_or_insert(run.res);
            r
        },
    );
    let res = first.expect("at least one iteration");
    let cfg = grid_config(w, o.seed, o.budget);
    let mismatches = check_grid(&cfg, &res, o.seed, CHECK_SAMPLES);
    it.failed += mismatches as u64;
    let headline = headline_err_pp(&res, w.headline_size());
    it.report(
        o,
        headline,
        vec![
            format!(
                "a request is a cell; run_sweep answers all {} cells of a sweep when it returns",
                res.cells.len()
            ),
            format!(
                "output check: {CHECK_SAMPLES} seed-rotated cells re-simulated per-cycle x full-scan, {mismatches} mismatched"
            ),
            format!(
                "paper_headline_err_pp: six section VII numbers at {} MB against 13/0, 30/8, 21/2, at {} instructions per core, not the paper's 6M",
                w.headline_size(),
                o.budget.instr
            ),
        ],
    )
}

fn untraced_serve(o: &Options) -> Report {
    let threads = Workload::ServeZipf.threads();
    std::fs::create_dir_all(&o.out_dir).expect("output directory");
    let mut first = None;
    let mut headline = f64::NAN;
    let mut it = Iterations::run(
        o,
        |i| {
            let dir = store_dir(&o.out_dir, &format!("setup{i}"));
            std::hint::black_box(serve_setup(o.seed, o.budget, &dir));
            std::fs::remove_dir_all(&dir).ok();
        },
        |i| {
            let dir = store_dir(&o.out_dir, &format!("i{i}"));
            let setup = serve_setup(o.seed, o.budget, &dir);
            let run = run_serve(&setup, threads);
            let r = Iteration {
                wall_s: run.wall_s,
                sim_cycles: run.sim_cycles,
                ops: run.answers.len() as u64,
                latencies: run.answers.iter().map(|a| (a.1, 1)).collect(),
                unanswered: run.answers.iter().filter(|a| a.2.is_none()).count() as u64,
                digest: serve_digest(&run),
                counts: vec![
                    ("requests".to_string(), run.answers.len() as u64),
                    (
                        "first_probe_hits".to_string(),
                        run.answers.iter().filter(|a| a.0).count() as u64,
                    ),
                    ("miss_groups".to_string(), run.groups as u64),
                    ("cells_derived".to_string(), run.derived as u64),
                    ("streams_recorded".to_string(), run.recorded as u64),
                    ("sim_cycles".to_string(), run.sim_cycles),
                    ("store_records".to_string(), setup.store.record_count() as u64),
                ],
            };
            if first.is_none() {
                headline = served_headline_err_pp(&setup.store, o.seed, o.budget.instr);
                first = Some((setup, run, dir));
            } else {
                std::fs::remove_dir_all(&dir).ok();
            }
            r
        },
    );
    let (setup, run, dir) = first.expect("at least one iteration");
    let mismatches = check_serve(&setup, &run, o.seed, CHECK_SAMPLES);
    it.failed += mismatches as u64;
    std::fs::remove_dir_all(&dir).ok();
    it.report(
        o,
        headline,
        vec![
            format!(
                "closed loop, 1 client, no think time, {} requests per queue",
                o.budget.queue_len
            ),
            format!(
                "output check: {CHECK_SAMPLES} seed-rotated answers re-simulated per-cycle x full-scan, {mismatches} mismatched"
            ),
            format!(
                "paper_headline_err_pp: served paper grid at 4 MB against 13/0, 30/8, 21/2, at {} instructions per core, not the paper's 6M",
                o.budget.instr
            ),
        ],
    )
}

/// The count-type metrics of a traced iteration.
fn exact_counts(metrics: &[Metric]) -> Vec<(String, u64)> {
    metrics.iter().filter(|m| m.1 == "count").map(|m| (m.0.to_string(), m.2 as u64)).collect()
}

pub fn run_traced(o: &Options) -> Report {
    let w = o.workload;
    let untraced_wall_s = o.untraced_wall_s.expect("a traced run needs the untraced wall_s");
    std::fs::create_dir_all(&o.out_dir).expect("output directory");
    let mut tr = Tracer::default();
    let mut iters: Vec<(Vec<Metric>, String, f64)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while more(start, o, iters.len()) {
        let n = iters.len() as u64;
        let dir = store_dir(&o.out_dir, &format!("traced{n}"));
        let first = tr.spans.len();
        let (counts, digest, wall): (Counts, String, f64) = match w {
            Workload::ServeZipf => {
                let setup = serve_setup(o.seed, o.budget, &dir);
                let t = Instant::now();
                let mut run = Traced::new(&mut tr);
                let digest = run.serve(&setup.requests, &setup.store, n);
                (run.finish(), digest, t.elapsed().as_secs_f64())
            }
            _ => {
                let cfg = grid_config(w, o.seed, o.budget);
                let store = ResultStore::open(&dir).expect("store directory");
                let t = Instant::now();
                let mut run = Traced::new(&mut tr);
                let res = run.grid(&cfg, w.headline_size(), &store, n);
                (run.finish(), sweep_digest(&res), t.elapsed().as_secs_f64())
            }
        };
        std::fs::remove_dir_all(&dir).ok();
        attempted += counts.ops;
        failed += counts.unanswered + counts.publish_errors;
        if o.expect_digest.as_ref().is_some_and(|d| *d != digest) {
            eprintln!("output check: traced cells differ from the untraced run's");
            failed += counts.ops;
        }
        let metrics =
            layer_metrics(&counts, &tr.spans[first..], first, untraced_wall_s, w.threads());
        iters.push((metrics, digest, wall));
    }
    let counts = exact_counts(&iters[0].0);
    let drift = iters.iter().any(|(m, d, _)| exact_counts(m) != counts || *d != iters[0].1);
    let metrics: Vec<Stat> = iters[0]
        .0
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| {
            let samples: Vec<f64> = iters.iter().map(|(m, _, _)| m[i].2).collect();
            Stat::of(name, unit, &samples)
        })
        .collect();
    let walls: Vec<f64> = iters.iter().map(|i| i.2).collect();
    let residual = metrics.iter().find(|m| m.name == "core.residual_frac").map_or(0.0, |m| m.value);
    let traced_wall = median(&walls);
    let threads = w.threads();
    let table = self_time_table(&tr.spans, walls.iter().sum(), residual);
    let spans_path = o.out_dir.join(format!("spans-{}-s{}.jsonl", w.name(), o.seed));
    write_spans(&tr, &spans_path);
    Report {
        workload: w.name().to_string(),
        seed: o.seed,
        traced: true,
        threads: 1,
        iterations: iters.len(),
        attempted,
        failed,
        drift,
        digest: iters[0].1.clone(),
        metrics,
        counts,
        notes: vec![
            format!(
                "traced iteration {traced_wall:.4} s on 1 thread vs untraced wall_s {untraced_wall_s:.4} s on {threads}: {:.3}x the untraced thread-seconds",
                traced_wall / (untraced_wall_s * threads as f64)
            ),
            format!("spans written to {}", spans_path.display()),
        ],
        table,
    }
}

/// Write every span, once, as JSON lines.
fn write_spans(tr: &Tracer, path: &std::path::Path) {
    let mut out = String::with_capacity(tr.spans.len() * 96);
    for s in &tr.spans {
        out.push_str(&format!(
            "{{\"name\": {}, \"module\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"id\": {}, \"shadow\": {}}}\n",
            json_str(s.name),
            json_str(s.module()),
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.id,
            s.shadow
        ));
    }
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

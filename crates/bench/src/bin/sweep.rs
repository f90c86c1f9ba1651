//! Sweep-as-a-service over the persistent result store.
//!
//! ```text
//! sweep serve [--store DIR] [--requests PATH] [--instr N] [--seed N]
//!             [--n-cores N] [--threads N] [--out PATH]
//! ```
//!
//! `serve` reads experiment-cell requests (one per line: `scenario
//! technique size_mb [instr]`; `#` comments), answers every cell already
//! in the persistent result store from disk, batches the misses into
//! grouped sweep grids that publish back to the store, and reports
//! per-request hit/miss and load latency. A missed request the store
//! still cannot answer after its batch (the batch could not publish it)
//! is reported as unanswered, the other requests are still served, and
//! `serve` then exits 1. See the "Persistent result store" section of
//! the README. Simulator timing lives in `perfbench/`.

use cmpleak_bench::CORE_COUNT_RULE;
use cmpleak_core::sweep::{run_sweep_with_telemetry, SweepConfig};
use cmpleak_core::{ExperimentConfig, ExperimentScratch, Scenario, Technique, WorkloadSpec};
use cmpleak_store::ResultStore;
use cmpleak_system::MAX_CORES;
use cmpleak_workloads::ScenarioSpec;
use serde::Serialize;
use std::num::NonZeroU64;
use std::sync::Arc;
use std::time::Instant;

struct ServeOpts {
    store: String,
    /// Request file; `None` reads stdin.
    requests: Option<String>,
    /// Default instruction budget for requests that omit one.
    instr: u64,
    seed: u64,
    n_cores: usize,
    threads: usize,
    out: Option<String>,
}

fn parse_serve_opts(args: &[String]) -> ServeOpts {
    let mut opts = ServeOpts {
        store: ".cmpleak-store".to_string(),
        requests: None,
        instr: 150_000,
        seed: 42,
        n_cores: 4,
        threads: 0,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => opts.store = value(a, &mut it),
            "--requests" => opts.requests = Some(value(a, &mut it)),
            "--instr" => opts.instr = value::<NonZeroU64>(a, &mut it).get(),
            "--seed" => opts.seed = value(a, &mut it),
            "--n-cores" => {
                opts.n_cores = value(a, &mut it);
                if !(1..=MAX_CORES).contains(&opts.n_cores) || !opts.n_cores.is_power_of_two() {
                    eprintln!("--n-cores takes a core count in 1..={MAX_CORES}: {CORE_COUNT_RULE}");
                    usage()
                }
            }
            "--threads" => opts.threads = value(a, &mut it),
            "--out" => opts.out = Some(value(a, &mut it)),
            other => {
                eprintln!("unknown serve argument {other}");
                usage()
            }
        }
    }
    opts
}

/// The value following `flag`, parsed; missing or malformed is a usage
/// error.
fn value<T: std::str::FromStr>(flag: &str, it: &mut std::slice::Iter<'_, String>) -> T {
    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a valid value");
        usage()
    })
}

/// Print why the service cannot run and exit 1.
fn fail(what: &str, e: std::io::Error) -> ! {
    eprintln!("{what}: {e}");
    std::process::exit(1);
}

/// One parsed request line, carrying the exact cell configuration a
/// sweep would build for it — so its content address matches what
/// `run_sweep` publishes.
struct Request {
    line_no: usize,
    cfg: ExperimentConfig,
}

/// Requests the service can name: the paper suite plus the mixes, the
/// baseline plus the seven paper techniques, and the paper's L2 sizes.
fn serve_catalog() -> (Vec<Scenario>, Vec<Technique>, Vec<usize>) {
    let mut scenarios: Vec<Scenario> =
        WorkloadSpec::paper_suite().into_iter().map(Scenario::Homogeneous).collect();
    scenarios.extend(ScenarioSpec::paper_mixes().into_iter().map(Scenario::Mix));
    let mut techniques = vec![Technique::Baseline];
    techniques.extend(Technique::paper_set());
    (scenarios, techniques, SweepConfig::paper(0).sizes_mb)
}

#[derive(Debug, Serialize)]
struct ServeRow {
    line: usize,
    scenario: String,
    technique: String,
    size_mb: usize,
    instructions_per_core: u64,
    /// Whether the first probe answered from the store (before any
    /// batched simulation this run published).
    hit: bool,
    /// Latency of the answering store load, microseconds.
    load_us: f64,
    cycles: u64,
    avg_power_w: f64,
}

#[derive(Debug, Serialize)]
struct ServeReport {
    store: String,
    requests: usize,
    skipped: usize,
    hits: usize,
    misses: usize,
    /// Missed requests the store still could not answer after their
    /// batch ran (the batch could not publish them).
    unanswered: usize,
    /// Grid cells the miss batches simulated beyond the missed
    /// requests themselves — published to the store as prefetch.
    prefetched: usize,
    /// Wall-clock seconds spent in the batched miss grids.
    batch_s: f64,
    rows: Vec<ServeRow>,
}

/// A batch of missed cells sharing (scenario, instruction budget):
/// served as one sweep grid so stream recording, baseline memoization
/// and the worker pool amortize across them.
struct MissGroup {
    scenario: Scenario,
    sizes: std::collections::BTreeSet<usize>,
    /// Non-baseline techniques, deduped (the grid's implicit baseline
    /// slot covers baseline requests).
    techniques: Vec<Technique>,
    /// Content addresses of the requested cells in this group.
    missed: std::collections::BTreeSet<String>,
}

fn serve(args: &[String]) {
    let opts = parse_serve_opts(args);
    let text = match &opts.requests {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read requests {path}"), e)),
        None => {
            let mut s = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut s)
                .unwrap_or_else(|e| fail("cannot read requests from stdin", e));
            s
        }
    };
    let (scenarios, techniques, sizes) = serve_catalog();
    let store = ResultStore::open(&opts.store)
        .unwrap_or_else(|e| fail(&format!("cannot open store {}", opts.store), e));
    let store = Arc::new(store);
    println!("store: {} ({} records)", opts.store, store.record_count());

    // Parse. Malformed lines are reported and skipped, never fatal —
    // the queue may be machine-generated and partially stale.
    let mut skipped = 0usize;
    let mut requests: Vec<Request> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(scen), Some(tech), Some(size)) = (parts.next(), parts.next(), parts.next())
        else {
            eprintln!("line {line_no}: want `scenario technique size_mb [instr]` — skipped");
            skipped += 1;
            continue;
        };
        let Some(scenario) = scenarios.iter().find(|s| s.label() == scen) else {
            let known: Vec<String> = scenarios.iter().map(|s| s.label()).collect();
            eprintln!(
                "line {line_no}: unknown scenario `{scen}` (known: {}) — skipped",
                known.join(", ")
            );
            skipped += 1;
            continue;
        };
        let Some(&technique) = techniques.iter().find(|t| t.name() == tech) else {
            let known: Vec<String> = techniques.iter().map(|t| t.name()).collect();
            eprintln!(
                "line {line_no}: unknown technique `{tech}` (known: {}) — skipped",
                known.join(", ")
            );
            skipped += 1;
            continue;
        };
        // A budget of 0 would answer with an empty cell.
        let instr = parts.next().map_or(Ok(opts.instr), |v| v.parse().map(NonZeroU64::get));
        let (Ok(size_mb), Ok(instr)) = (size.parse::<usize>(), instr) else {
            eprintln!(
                "line {line_no}: bad size/instr in `{line}` (instr must be positive) — skipped"
            );
            skipped += 1;
            continue;
        };
        if !sizes.contains(&size_mb) {
            eprintln!("line {line_no}: unknown size `{size_mb}` MB (known: {sizes:?}) — skipped");
            skipped += 1;
            continue;
        }
        let mut cfg = ExperimentConfig::paper_scenario(scenario.clone(), technique, size_mb);
        cfg.instructions_per_core = instr;
        cfg.seed = opts.seed;
        cfg.n_cores = opts.n_cores;
        requests.push(Request { line_no, cfg });
    }

    // First probe: answer whatever the store already holds; misses are
    // deduped into (scenario, budget) batches.
    let mut answers = Vec::with_capacity(requests.len());
    let mut hits = 0usize;
    let mut groups: std::collections::BTreeMap<(String, u64), MissGroup> =
        std::collections::BTreeMap::new();
    for req in &requests {
        let key = req.cfg.store_key();
        let t0 = Instant::now();
        let cell = store.load(&key);
        let load_us = t0.elapsed().as_secs_f64() * 1e6;
        match cell {
            Some(c) => {
                hits += 1;
                answers.push(Some((true, load_us, c)));
            }
            None => {
                answers.push(None);
                let g = groups
                    .entry((req.cfg.scenario.label(), req.cfg.instructions_per_core))
                    .or_insert_with(|| MissGroup {
                        scenario: req.cfg.scenario.clone(),
                        sizes: Default::default(),
                        techniques: Vec::new(),
                        missed: Default::default(),
                    });
                g.sizes.insert(req.cfg.total_l2_mb);
                if !matches!(req.cfg.technique, Technique::Baseline)
                    && !g.techniques.iter().any(|t| t.name() == req.cfg.technique.name())
                {
                    g.techniques.push(req.cfg.technique);
                }
                g.missed.insert(key.hex());
            }
        }
    }
    let misses = requests.len() - hits;

    // Batched miss grids: each group runs as one sweep with the store
    // attached, so every simulated cell (requested or grid prefetch)
    // is published for future requests.
    let mut prefetched = 0usize;
    let mut publish_errors = 0usize;
    let t0 = Instant::now();
    for ((label, instr), g) in &groups {
        let cfg = SweepConfig {
            scenarios: vec![g.scenario.clone()],
            sizes_mb: g.sizes.iter().copied().collect(),
            techniques: g.techniques.clone(),
            instructions_per_core: *instr,
            seed: opts.seed,
            n_cores: opts.n_cores,
            threads: opts.threads,
            store: Some(Arc::clone(&store)),
        };
        let (res, telemetry) = run_sweep_with_telemetry(&cfg, &mut ExperimentScratch::default());
        publish_errors += telemetry.publish_errors;
        let extra = res.cells.len().saturating_sub(g.missed.len());
        prefetched += extra;
        println!(
            "batched {label} @ {instr} instr: {} grid cells for {} missed requests \
             ({extra} prefetched, {} derived from a smaller size, {} resumed from a smaller \
             size)",
            res.cells.len(),
            g.missed.len(),
            telemetry.derived_larger,
            telemetry.resumed
        );
    }
    let batch_s = t0.elapsed().as_secs_f64();

    // Second probe: every miss is now on disk, unless its batch could
    // not publish it. Such a line is reported and the rest still served.
    let mut rows = Vec::with_capacity(requests.len());
    let mut unanswered = 0usize;
    for (req, ans) in requests.iter().zip(answers) {
        let answer = ans.or_else(|| {
            let key = req.cfg.store_key();
            let t0 = Instant::now();
            let cell = store.load(&key)?;
            Some((false, t0.elapsed().as_secs_f64() * 1e6, cell))
        });
        let Some((hit, load_us, cell)) = answer else {
            unanswered += 1;
            eprintln!(
                "line {}: unanswered — the batch simulated the cell but it is not in the store \
                 ({publish_errors} publish(es) to {} failed)",
                req.line_no, opts.store
            );
            continue;
        };
        let row = ServeRow {
            line: req.line_no,
            scenario: req.cfg.scenario.label(),
            technique: req.cfg.technique.name(),
            size_mb: req.cfg.total_l2_mb,
            instructions_per_core: req.cfg.instructions_per_core,
            hit,
            load_us,
            cycles: cell.stats.cycles,
            avg_power_w: cell.power.avg_power_w,
        };
        println!(
            "{:<22} {:<13} {:>2} MB | {} {:>9.1} us | {:>10} cycles {:>7.3} W",
            row.scenario,
            row.technique,
            row.size_mb,
            if row.hit { "hit " } else { "miss" },
            row.load_us,
            row.cycles,
            row.avg_power_w
        );
        rows.push(row);
    }

    println!(
        "{} request(s): {hits} hit / {misses} miss ({skipped} skipped, {unanswered} unanswered), {prefetched} prefetched, batch {batch_s:.2}s, store now {} records",
        requests.len(),
        store.record_count()
    );
    let report = ServeReport {
        store: opts.store.clone(),
        requests: requests.len(),
        skipped,
        hits,
        misses,
        unanswered,
        prefetched,
        batch_s,
        rows,
    };
    if let Some(path) = &opts.out {
        let mut json = serde_json::to_string_pretty(&report).expect("serializable");
        json.push('\n');
        std::fs::write(path, json).unwrap_or_else(|e| fail(&format!("cannot write {path}"), e));
        println!("wrote {path}");
    }
    if unanswered > 0 {
        eprintln!("{unanswered} request(s) unanswered");
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: sweep serve [--store DIR] [--requests PATH] [--instr N] [--seed N] \
         [--n-cores N] [--threads N] [--out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("serve") {
        usage();
    }
    serve(&args[1..]);
}

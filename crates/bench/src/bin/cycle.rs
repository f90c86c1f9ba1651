//! Per-cycle engine harness: measures what the worklist engine buys —
//! iterating only awake cores, integrating the powered-line sum as
//! value × span, and enum-dispatched op feeds — against the full-scan
//! reference on the paper grid, and emits `BENCH_cycle.json`.
//!
//! ```text
//! cycle [--instr N] [--reps N] [--quick] [--out PATH]
//! ```
//!
//! Every (scenario × size) group of the paper grid runs its full
//! technique column (baseline + the 7 paper configurations) over a
//! shared-stream recording — so op delivery is replay-cursor cheap and
//! the timed quantity is the model work per simulated cycle. Both
//! engine arms are asserted bit-identical (whole `SimStats`, every
//! technique) before any timing.
//!
//! When built with `--features cycle-profile`, the report additionally
//! carries the engines' attribution counters (cycles stepped vs
//! skipped vs batched, core phases run vs suppressed, events, grants,
//! and the spine-gating skip counters) — the denominator data for the
//! ns/cycle numbers; `--profile` prints them as a per-mechanism
//! attribution table. The default build compiles those counters out;
//! the committed JSON notes which build produced it.
//!
//! Every run also compares its per-group numbers against the committed
//! `BENCH_cycle.json` (override with `--baseline PATH`): the report
//! records each group's worklist ns/cycle delta (host-sensitive,
//! informational) and its speedup delta (in-run relative, so
//! host-independent). `--quick` shrinks everything to a CI smoke that
//! fails when a group's measured speedup regresses more than 5% below
//! the committed one (or below the absolute noise floor); the committed
//! JSON is a full run.

use cmpleak_bench::json_scan::{array_lines, json_field, json_str_field};
use cmpleak_core::{Scenario, Technique, WorkloadSpec};
use cmpleak_mem::BankArena;
use cmpleak_system::{run_feeds_with_scratch, CmpConfig, CycleEngine, CycleProfile, SimScratch};
use cmpleak_workloads::ScenarioSpec;
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 42;
const N_CORES: usize = 4;

/// Per-group speedup regression tolerance of the `--quick` gate,
/// relative to the committed baseline's speedup for the same group.
const REGRESSION_TOLERANCE: f64 = 0.05;

#[derive(Debug, Serialize)]
struct GroupCell {
    scenario: String,
    size_mb: usize,
    /// Simulated cells in the group (baseline + techniques).
    cells: usize,
    /// Simulated cycles across the group's cells (identical in both
    /// arms — asserted).
    sim_cycles: u64,
    /// Host ns per simulated cycle, full-scan reference arm.
    full_scan_ns_per_cycle: f64,
    /// Host ns per simulated cycle, worklist arm.
    worklist_ns_per_cycle: f64,
    /// `full_scan / worklist`.
    speedup: f64,
    /// Worklist ns/cycle of the committed baseline for this group
    /// (absent when the baseline lacks the group). Host-sensitive:
    /// meaningful only when measured on comparable hardware.
    baseline_worklist_ns_per_cycle: Option<f64>,
    /// `(worklist - baseline) / baseline × 100` (host-sensitive).
    worklist_ns_delta_pct: Option<f64>,
    /// The baseline's speedup for this group — the host-independent
    /// comparison basis the `--quick` gate uses.
    baseline_speedup: Option<f64>,
}

/// One group of the committed baseline report, recovered by
/// [`load_baseline`] through the shared `json_scan` line scanner (the
/// vendored JSON crate is serialize-only, and the file is this bin's
/// own output, so a line-per-field scan is exact).
struct BaselineGroup {
    scenario: String,
    size_mb: usize,
    full_scan_ns_per_cycle: f64,
    worklist_ns_per_cycle: f64,
}

/// Recover the per-group rows of a committed `BENCH_cycle.json`. Group
/// objects live in the `"groups"` array with one field per line (the
/// bin's own pretty-printer wrote them); `"grid"` ends the array.
fn load_baseline(path: &str) -> Option<Vec<BaselineGroup>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut groups = Vec::new();
    let (mut scenario, mut size, mut fs, mut wl) = (None::<String>, None, None, None);
    for t in array_lines(&text, "groups", "grid") {
        if let Some(v) = json_str_field(t, "scenario") {
            scenario = Some(v.to_string());
        } else if let Some(v) = json_field(t, "size_mb") {
            size = v.parse().ok();
        } else if let Some(v) = json_field(t, "full_scan_ns_per_cycle") {
            fs = v.parse().ok();
        } else if let Some(v) = json_field(t, "worklist_ns_per_cycle") {
            wl = v.parse().ok();
        }
        if let (Some(s), Some(size_mb), Some(f), Some(w)) = (&scenario, size, fs, wl) {
            groups.push(BaselineGroup {
                scenario: s.clone(),
                size_mb,
                full_scan_ns_per_cycle: f,
                worklist_ns_per_cycle: w,
            });
            (scenario, size, fs, wl) = (None, None, None, None);
        }
    }
    (!groups.is_empty()).then_some(groups)
}

/// Engine attribution totals (all zero unless built with
/// `--features cycle-profile`).
#[derive(Debug, Default, Clone, Copy, Serialize)]
struct ProfileTotals {
    cycles_stepped: u64,
    cycles_skipped: u64,
    cycles_batched: u64,
    events_popped: u64,
    bus_grants: u64,
    grant_checks_skipped: u64,
    port_loops_skipped: u64,
    core_phases_run: u64,
    core_phases_suppressed: u64,
}

impl ProfileTotals {
    fn add(&mut self, p: CycleProfile) {
        self.cycles_stepped += p.cycles_stepped;
        self.cycles_skipped += p.cycles_skipped;
        self.cycles_batched += p.cycles_batched;
        self.events_popped += p.events_popped;
        self.bus_grants += p.bus_grants;
        self.grant_checks_skipped += p.grant_checks_skipped;
        self.port_loops_skipped += p.port_loops_skipped;
        self.core_phases_run += p.core_phases_run;
        self.core_phases_suppressed += p.core_phases_suppressed;
    }
}

#[derive(Debug, Serialize)]
struct ProfileReport {
    full_scan: ProfileTotals,
    worklist: ProfileTotals,
    /// Share of per-core phases the worklist arm did not run:
    /// `suppressed / (run + suppressed)`.
    worklist_phase_suppression: f64,
}

#[derive(Debug, Serialize)]
struct GridSummary {
    scenarios: usize,
    sizes: usize,
    cells: usize,
    sim_cycles: u64,
    full_scan_s: f64,
    worklist_s: f64,
    full_scan_ns_per_cycle: f64,
    worklist_ns_per_cycle: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct CycleReport {
    instructions_per_core: u64,
    n_cores: usize,
    reps: u32,
    /// Whether the attribution counters were compiled in for this run.
    profiled_build: bool,
    groups: Vec<GroupCell>,
    grid: GridSummary,
    profile: Option<ProfileReport>,
}

struct Opts {
    instr: u64,
    reps: u32,
    quick: bool,
    profile: bool,
    out: Option<String>,
    baseline: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        instr: 150_000,
        reps: 3,
        quick: false,
        profile: false,
        out: None,
        baseline: "BENCH_cycle.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--instr" => opts.instr = args.next().and_then(|v| v.parse().ok()).expect("--instr N"),
            "--reps" => opts.reps = args.next().and_then(|v| v.parse().ok()).expect("--reps N"),
            "--quick" => opts.quick = true,
            "--profile" => opts.profile = true,
            "--out" => opts.out = Some(args.next().expect("--out PATH")),
            "--baseline" => opts.baseline = args.next().expect("--baseline PATH"),
            other => panic!(
                "unknown argument {other} (try --instr/--reps/--quick/--profile/--out/--baseline)"
            ),
        }
    }
    if opts.quick {
        opts.instr = opts.instr.min(30_000);
        // Three interleaved reps, best-of: the regression gate asserts
        // on the measured speedup, and a CI host's transient load can
        // outlast two short reps.
        opts.reps = 3;
    }
    opts
}

fn scenarios(quick: bool) -> Vec<Scenario> {
    let mut v: Vec<Scenario> =
        WorkloadSpec::paper_suite().into_iter().map(Scenario::Homogeneous).collect();
    v.extend(ScenarioSpec::paper_mixes().into_iter().map(Scenario::Mix));
    if quick {
        v = vec![
            Scenario::Homogeneous(WorkloadSpec::water_ns()),
            Scenario::Mix(ScenarioSpec::bursty_idle()),
        ];
    }
    v
}

fn techniques() -> Vec<Technique> {
    let mut v = vec![Technique::Baseline];
    v.extend(Technique::paper_set());
    v
}

/// Best-of-`reps` wall-clock of two arms, interleaved A/B per rep so a
/// transient machine-noise window degrades both arms instead of
/// silently skewing whichever one it landed on.
fn time_pair(reps: u32, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        a();
        best_a = best_a.min(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        b();
        best_b = best_b.min(t1.elapsed().as_secs_f64());
    }
    (best_a, best_b)
}

/// Run the group's full technique column under `engine`, returning the
/// summed simulated cycles.
fn run_group(
    shared: &Scenario,
    size_mb: usize,
    instr: u64,
    engine: CycleEngine,
    scratch: &mut SimScratch,
    profile: &mut ProfileTotals,
) -> u64 {
    let mut cycles = 0u64;
    for technique in techniques() {
        let mut cfg = CmpConfig::paper_system(size_mb, technique);
        cfg.instructions_per_core = instr;
        cfg.engine = engine;
        let feeds = shared.build_feeds(N_CORES, SEED, instr);
        let stats = run_feeds_with_scratch(cfg, feeds, scratch);
        cycles += stats.cycles;
        profile.add(scratch.cycle_profile());
        std::hint::black_box(&stats);
    }
    cycles
}

/// The `--profile` attribution table: where each arm's cycles and
/// per-mechanism skips went, aggregated over the whole grid.
fn print_attribution(profiled_build: bool, fs: &ProfileTotals, wl: &ProfileTotals) {
    if !profiled_build {
        println!("profile attribution requires `--features cycle-profile` (counters compiled out)");
        return;
    }
    println!("== cycle-profile attribution ==");
    println!("{:<28} {:>14} {:>14}", "counter", "full-scan", "worklist");
    let rows: [(&str, u64, u64); 9] = [
        ("cycles stepped", fs.cycles_stepped, wl.cycles_stepped),
        ("cycles skipped (quiescent)", fs.cycles_skipped, wl.cycles_skipped),
        ("cycles batched (working-span)", fs.cycles_batched, wl.cycles_batched),
        ("events popped", fs.events_popped, wl.events_popped),
        ("bus grants", fs.bus_grants, wl.bus_grants),
        ("grant checks skipped", fs.grant_checks_skipped, wl.grant_checks_skipped),
        ("port loops skipped", fs.port_loops_skipped, wl.port_loops_skipped),
        ("core phases run", fs.core_phases_run, wl.core_phases_run),
        ("core phases suppressed", fs.core_phases_suppressed, wl.core_phases_suppressed),
    ];
    for (label, a, b) in rows {
        println!("{label:<28} {a:>14} {b:>14}");
    }
    for (label, t) in [("full-scan", fs), ("worklist", wl)] {
        let stepped = t.cycles_stepped.max(1) as f64;
        println!(
            "{label}: {:.1}% of stepped cycles skipped arbitration, {:.2} port loops skipped per stepped cycle, {:.1}% of executed cycles batched",
            t.grant_checks_skipped as f64 / stepped * 100.0,
            t.port_loops_skipped as f64 / stepped,
            t.cycles_batched as f64 / (t.cycles_stepped + t.cycles_batched).max(1) as f64 * 100.0,
        );
    }
}

fn main() {
    let opts = parse_opts();
    let sizes: Vec<usize> = if opts.quick { vec![1] } else { vec![1, 2, 4, 8] };
    let profiled_build = cfg!(feature = "cycle-profile");
    let baseline = load_baseline(&opts.baseline);
    match &baseline {
        Some(b) => println!("baseline: {} ({} groups)", opts.baseline, b.len()),
        None => println!("baseline: none ({} absent or unreadable)", opts.baseline),
    }

    // One scratch per arm so the interleaved timing closures each own
    // their pools (and neither arm warms the other's allocations).
    let mut scratch = SimScratch::default();
    let mut wl_scratch = SimScratch::default();
    let mut arena = BankArena::default();
    let mut groups: Vec<GroupCell> = Vec::new();
    let (mut fs_profile, mut wl_profile) = (ProfileTotals::default(), ProfileTotals::default());
    let cells = techniques().len();

    println!("== per-group technique columns: full scan vs worklist (serial) ==");
    for scenario in scenarios(opts.quick) {
        // Record the scenario's streams once; both arms replay the same
        // recording, so the timed quantity is model work, not op
        // generation.
        let shared = scenario.record_shared(N_CORES, SEED, opts.instr, &mut arena);
        for &size in &sizes {
            // Identity first: the differential suite pins this at scale;
            // here it guards the numbers below against divergence.
            for technique in techniques() {
                let mut cfg = CmpConfig::paper_system(size, technique);
                cfg.instructions_per_core = opts.instr;
                cfg.engine = CycleEngine::FullScan;
                let a = run_feeds_with_scratch(
                    cfg,
                    shared.build_feeds(N_CORES, SEED, opts.instr),
                    &mut scratch,
                );
                cfg.engine = CycleEngine::Worklist;
                let b = run_feeds_with_scratch(
                    cfg,
                    shared.build_feeds(N_CORES, SEED, opts.instr),
                    &mut scratch,
                );
                assert_eq!(
                    a,
                    b,
                    "engines diverged for {}@{size}MB/{}",
                    scenario.label(),
                    technique.name()
                );
            }
            let mut sim_cycles = 0u64;
            let (full_scan_s, worklist_s) = time_pair(
                opts.reps,
                || {
                    sim_cycles = run_group(
                        &shared,
                        size,
                        opts.instr,
                        CycleEngine::FullScan,
                        &mut scratch,
                        &mut fs_profile,
                    );
                },
                || {
                    run_group(
                        &shared,
                        size,
                        opts.instr,
                        CycleEngine::Worklist,
                        &mut wl_scratch,
                        &mut wl_profile,
                    );
                },
            );
            let mut cell = GroupCell {
                scenario: scenario.label(),
                size_mb: size,
                cells,
                sim_cycles,
                full_scan_ns_per_cycle: full_scan_s / sim_cycles as f64 * 1e9,
                worklist_ns_per_cycle: worklist_s / sim_cycles as f64 * 1e9,
                speedup: full_scan_s / worklist_s,
                baseline_worklist_ns_per_cycle: None,
                worklist_ns_delta_pct: None,
                baseline_speedup: None,
            };
            if let Some(base) = baseline.as_deref().and_then(|b| {
                b.iter().find(|g| g.scenario == cell.scenario && g.size_mb == cell.size_mb)
            }) {
                cell.baseline_worklist_ns_per_cycle = Some(base.worklist_ns_per_cycle);
                cell.worklist_ns_delta_pct = Some(
                    (cell.worklist_ns_per_cycle - base.worklist_ns_per_cycle)
                        / base.worklist_ns_per_cycle
                        * 100.0,
                );
                cell.baseline_speedup =
                    Some(base.full_scan_ns_per_cycle / base.worklist_ns_per_cycle);
            }
            let delta = match cell.worklist_ns_delta_pct {
                Some(d) => format!(" | vs baseline {d:+.1}%"),
                None => String::new(),
            };
            println!(
                "{:<22} {:>2} MB | full scan {:>6.1} ns/cy vs worklist {:>6.1} ns/cy ({:>5.2}x){}",
                cell.scenario,
                cell.size_mb,
                cell.full_scan_ns_per_cycle,
                cell.worklist_ns_per_cycle,
                cell.speedup,
                delta
            );
            groups.push(cell);
        }
    }

    let sim_cycles: u64 = groups.iter().map(|g| g.sim_cycles).sum();
    let full_scan_s: f64 =
        groups.iter().map(|g| g.full_scan_ns_per_cycle * g.sim_cycles as f64 / 1e9).sum();
    let worklist_s: f64 =
        groups.iter().map(|g| g.worklist_ns_per_cycle * g.sim_cycles as f64 / 1e9).sum();
    let grid = GridSummary {
        scenarios: scenarios(opts.quick).len(),
        sizes: sizes.len(),
        cells: groups.len() * cells,
        sim_cycles,
        full_scan_s,
        worklist_s,
        full_scan_ns_per_cycle: full_scan_s / sim_cycles as f64 * 1e9,
        worklist_ns_per_cycle: worklist_s / sim_cycles as f64 * 1e9,
        speedup: full_scan_s / worklist_s,
    };
    println!(
        "grid: {} cells, {:.1} Mcycles | full scan {:.1} ns/cy vs worklist {:.1} ns/cy ({:.2}x)",
        grid.cells,
        grid.sim_cycles as f64 / 1e6,
        grid.full_scan_ns_per_cycle,
        grid.worklist_ns_per_cycle,
        grid.speedup
    );

    let profile = profiled_build.then(|| {
        let denom = (wl_profile.core_phases_run + wl_profile.core_phases_suppressed).max(1);
        let report = ProfileReport {
            full_scan: fs_profile,
            worklist: wl_profile,
            worklist_phase_suppression: wl_profile.core_phases_suppressed as f64 / denom as f64,
        };
        println!(
            "profile: worklist suppressed {:.1}% of core phases ({} stepped / {} skipped / {} batched cycles)",
            report.worklist_phase_suppression * 100.0,
            wl_profile.cycles_stepped,
            wl_profile.cycles_skipped,
            wl_profile.cycles_batched,
        );
        report
    });
    if opts.profile {
        print_attribution(profiled_build, &fs_profile, &wl_profile);
    }

    let worst = groups.iter().map(|g| g.speedup).fold(f64::INFINITY, f64::min);
    let mean = groups.iter().map(|g| g.speedup).sum::<f64>() / groups.len().max(1) as f64;
    println!("worst group {worst:.2}x, mean group {mean:.2}x, grid {:.2}x", grid.speedup);

    // Per-group regression check against the committed baseline, on the
    // host-independent quantity (this run's speedup vs the baseline
    // run's): ns/cycle deltas across different hosts mean nothing, but
    // the worklist arm's advantage over the full scan measured in the
    // same process must not erode.
    let regressed: Vec<String> = groups
        .iter()
        .filter_map(|g| {
            let base = g.baseline_speedup?;
            (g.speedup < base * (1.0 - REGRESSION_TOLERANCE)).then(|| {
                format!("{}@{}MB {:.2}x vs baseline {:.2}x", g.scenario, g.size_mb, g.speedup, base)
            })
        })
        .collect();
    for r in &regressed {
        println!("REGRESSION: {r}");
    }

    if opts.quick {
        // CI smoke: the worklist engine must never cost more than
        // noise (absolute floor), nor fall more than the tolerance
        // below the committed baseline's speedup for any group.
        assert!(worst > 0.85, "worklist engine regressed on a group ({worst:.2}x)");
        assert!(
            regressed.is_empty(),
            "worklist speedup regressed >{:.0}% vs committed baseline: {}",
            REGRESSION_TOLERANCE * 100.0,
            regressed.join("; ")
        );
    }

    let report = CycleReport {
        instructions_per_core: opts.instr,
        n_cores: N_CORES,
        reps: opts.reps,
        profiled_build,
        groups,
        grid,
        profile,
    };
    if let Some(path) = &opts.out {
        let mut json = serde_json::to_string_pretty(&report).expect("serializable");
        json.push('\n');
        std::fs::write(path, json).expect("report written");
        println!("wrote {path}");
    }
}

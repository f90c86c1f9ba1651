//! `trace` — record, replay and inspect reference traces.
//!
//! ```text
//! trace record  --out FILE --scenario NAME [--instr N] [--cores N] [--seed S]
//! trace replay  --in FILE  [--technique T] [--size MB] [--verify]
//! trace inspect --in FILE  [--ops N]
//! ```
//!
//! * `record` generates the named scenario's live streams (benchmark
//!   names like `FMM` or curated mixes like `mix_bursty_idle`) and saves
//!   them as a trace file covering `--instr` instructions per core.
//!   `--cores` must be a power of two (each core's L2 is the total split
//!   evenly); any other count is a usage error (exit 2).
//! * `replay` simulates the trace under `--technique` (default
//!   baseline), refusing a trace of more than 64 cores (exit 1) or of a
//!   core count that is not a power of two (exit 2); `--verify` also
//!   runs live generation with the recorded
//!   scenario/seed and asserts the statistics and energy report are
//!   **bit-identical** — the differential oracle, exit code 1 on any
//!   mismatch.
//! * `inspect` prints the header, per-core stream summaries and the
//!   first `--ops` decoded ops of core 0.

use cmpleak_bench::{paper_size_or_exit, CORE_COUNT_RULE};
use cmpleak_core::experiment::{run_experiment, ExperimentConfig, ExperimentResult};
use cmpleak_core::{Scenario, Technique};
use cmpleak_cpu::TraceOp;
use cmpleak_system::MAX_CORES;
use cmpleak_trace::MemTrace;
use std::num::{NonZeroU64, NonZeroUsize};
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:\n  trace record  --out FILE --scenario NAME [--instr N] [--cores N] [--seed S]\n  \
         trace replay  --in FILE  [--technique T] [--size MB] [--verify]\n  \
         trace inspect --in FILE  [--ops N]\n\
         scenarios: {}\n\
         techniques: baseline {}",
        Scenario::known_names().join(" "),
        Technique::paper_set().iter().map(|t| t.name()).collect::<Vec<_>>().join(" ")
    );
    exit(2);
}

#[derive(Debug, Default)]
struct Opts {
    cmd: String,
    file_in: Option<String>,
    file_out: Option<String>,
    scenario: Option<String>,
    technique: Option<String>,
    instr: u64,
    cores: usize,
    seed: u64,
    size_mb: usize,
    ops: u64,
    verify: bool,
}

fn parse_opts() -> Opts {
    let mut opts =
        Opts { instr: 200_000, cores: 4, seed: 42, size_mb: 4, ops: 16, ..Opts::default() };
    let mut it = std::env::args().skip(1);
    let Some(cmd) = it.next() else { usage() };
    opts.cmd = cmd;
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--in" => opts.file_in = Some(val()),
            "--out" => opts.file_out = Some(val()),
            "--scenario" => opts.scenario = Some(val()),
            "--technique" => opts.technique = Some(val()),
            // An empty trace or a zero-core one cannot be replayed.
            "--instr" => opts.instr = val().parse().map_or_else(|_| usage(), NonZeroU64::get),
            "--cores" => {
                opts.cores = val().parse().map_or_else(|_| usage(), NonZeroUsize::get);
                if !opts.cores.is_power_of_two() {
                    eprintln!("--cores: {CORE_COUNT_RULE}");
                    usage()
                }
            }
            "--seed" => opts.seed = val().parse().unwrap_or_else(|_| usage()),
            // Refused here, not as a panic in the simulator's config.
            "--size" => opts.size_mb = paper_size_or_exit(it.next()),
            "--ops" => opts.ops = val().parse().unwrap_or_else(|_| usage()),
            "--verify" => opts.verify = true,
            _ => usage(),
        }
    }
    opts
}

fn parse_technique(name: &str) -> Technique {
    if name.eq_ignore_ascii_case("baseline") {
        return Technique::Baseline;
    }
    Technique::paper_set().into_iter().find(|t| t.name().eq_ignore_ascii_case(name)).unwrap_or_else(
        || {
            eprintln!("unknown technique {name}");
            usage()
        },
    )
}

fn print_core_rows(cores: &[cmpleak_trace::CoreStreamInfo]) {
    for (i, c) in cores.iter().enumerate() {
        println!(
            "  core {i}: {:10} {:>9} ops {:>9} instr {:>9} bytes ({:.2} B/op)",
            c.name,
            c.ops,
            c.instructions,
            c.len,
            c.len as f64 / c.ops.max(1) as f64
        );
    }
}

fn cmd_record(opts: &Opts) {
    let name = opts.scenario.as_deref().unwrap_or_else(|| usage());
    let out = opts.file_out.as_deref().unwrap_or_else(|| usage());
    let scenario = Scenario::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown scenario {name}");
        usage()
    });
    let trace = scenario.record(opts.cores, opts.seed, opts.instr);
    trace.save(out).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    let header = trace.header();
    let total_bytes: u64 = header.cores.iter().map(|c| c.len).sum();
    let total_ops: u64 = header.cores.iter().map(|c| c.ops).sum();
    println!(
        "recorded {} ({} cores, seed {}) -> {out}",
        header.label,
        header.cores.len(),
        header.seed
    );
    print_core_rows(&header.cores);
    println!(
        "  total {} ops, {} bytes payload ({:.2} B/op)",
        total_ops,
        total_bytes,
        total_bytes as f64 / total_ops.max(1) as f64
    );
}

/// Load and validate `--in`, or print why not and exit 1.
fn open_trace(opts: &Opts) -> (&str, MemTrace) {
    let path = opts.file_in.as_deref().unwrap_or_else(|| usage());
    let trace = MemTrace::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        exit(1);
    });
    (path, trace)
}

fn print_result(tag: &str, r: &ExperimentResult) {
    println!(
        "{tag}: {} / {} — {} cycles, IPC {:.3}, L2 miss {:.4}, occ {:.3}, energy {:.3} µJ",
        r.benchmark,
        r.technique,
        r.stats.cycles,
        r.stats.ipc(),
        r.stats.l2_miss_rate(),
        r.stats.occupation_rate(),
        r.power.energy.total_pj() / 1e6
    );
    for (c, name) in r.stats.core_workloads.iter().enumerate() {
        println!(
            "  core {c}: {:10} IPC {:.3} ({} loads, {} stores)",
            name,
            r.stats.core_ipc(c),
            r.stats.cores[c].loads,
            r.stats.cores[c].stores
        );
    }
}

fn cmd_replay(opts: &Opts) {
    let (path, trace) = open_trace(opts);
    if trace.n_cores() > MAX_CORES {
        eprintln!(
            "cannot replay {path}: {} cores exceed the simulator's limit of {MAX_CORES}",
            trace.n_cores()
        );
        exit(1);
    }
    if !trace.n_cores().is_power_of_two() {
        eprintln!("cannot replay {path} on {} cores: {CORE_COUNT_RULE}", trace.n_cores());
        exit(2);
    }
    let technique = parse_technique(opts.technique.as_deref().unwrap_or("baseline"));
    let (label, n_cores, seed) = (trace.label().to_string(), trace.n_cores(), trace.seed());
    let instructions_per_core = trace.min_core_instructions();
    let cfg = ExperimentConfig {
        n_cores,
        seed,
        instructions_per_core,
        ..ExperimentConfig::paper_scenario(Scenario::replaying(trace), technique, opts.size_mb)
    };
    let replayed = run_experiment(&cfg);
    print_result("replay", &replayed);

    if opts.verify {
        let live_scenario = Scenario::by_name(&label).unwrap_or_else(|| {
            eprintln!("--verify needs the trace label '{label}' to name a known scenario");
            exit(1);
        });
        let live_cfg = ExperimentConfig { scenario: live_scenario, ..cfg };
        let live = run_experiment(&live_cfg);
        print_result("live  ", &live);
        let stats_ok = live.stats == replayed.stats;
        let power_ok = live.power == replayed.power;
        if stats_ok && power_ok {
            println!("verify: PASS — replay is bit-identical to live generation");
        } else {
            println!(
                "verify: FAIL — stats {} / power {}",
                if stats_ok { "identical" } else { "DIVERGED" },
                if power_ok { "identical" } else { "DIVERGED" }
            );
            exit(1);
        }
    }
}

fn cmd_inspect(opts: &Opts) {
    let (path, trace) = open_trace(opts);
    let h = trace.header();
    println!(
        "{path}: CMPT v{}, label '{}', seed {}, {} cores, drives ≤{} instr/core",
        h.version,
        h.label,
        h.seed,
        h.n_cores(),
        trace.min_core_instructions()
    );
    print_core_rows(&h.cores);
    let mut w = Arc::new(trace).cursor(0);
    println!("first {} ops of core 0 ({}):", opts.ops.min(w.total_ops()), h.cores[0].name);
    let (mut execs, mut loads, mut stores) = (0u64, 0u64, 0u64);
    let mut shown = 0u64;
    while let Some(op) = w.try_next_op() {
        if shown < opts.ops {
            match op {
                TraceOp::Exec(n) => println!("  exec  {n}"),
                TraceOp::Load(a) => println!("  load  {a:#x}"),
                TraceOp::Store(a) => println!("  store {a:#x}"),
            }
            shown += 1;
        }
        match op {
            TraceOp::Exec(_) => execs += 1,
            TraceOp::Load(_) => loads += 1,
            TraceOp::Store(_) => stores += 1,
        }
    }
    println!("core 0 op mix: {execs} exec, {loads} load, {stores} store");
}

fn main() {
    let opts = parse_opts();
    match opts.cmd.as_str() {
        "record" => cmd_record(&opts),
        "replay" => cmd_replay(&opts),
        "inspect" => cmd_inspect(&opts),
        _ => usage(),
    }
}

//! Two ablations of the simulated system's own knobs, on WATER-NS at
//! 1 MB of total L2: the resolution of the decay counters, and how the
//! write-buffer depth and the out-of-order window couple the cores to
//! memory.
//!
//! ```text
//! cargo run --release --example model_ablations
//! ```
//!
//! The first table keeps the decay interval at 64 K cycles and varies the
//! bits of each line's hierarchical counter: more bits tick more often,
//! so a line turns off closer to its deadline, at the cost of more
//! counter events. The second runs the always-on baseline under four
//! (write-buffer depth, window) pairs.

use cmp_leakage::core::{ExperimentConfig, Technique, WorkloadSpec};
use cmp_leakage::cpu::Workload;
use cmp_leakage::system::{run_simulation, CmpConfig, SimStats};
use cmp_leakage::workloads::GenerationalWorkload;

/// One WATER-NS run of `instr` instructions per core under `technique`,
/// on the paper's 1 MB system with `mutate` applied.
fn cell(instr: u64, technique: Technique, mutate: impl Fn(&mut CmpConfig)) -> SimStats {
    let spec = WorkloadSpec::water_ns();
    let exp = ExperimentConfig::paper(spec, technique, 1);
    let mut cfg = exp.cmp_config();
    cfg.instructions_per_core = instr;
    mutate(&mut cfg);
    let workloads = (0..cfg.n_cores)
        .map(|c| {
            Box::new(GenerationalWorkload::new(spec, c, cfg.n_cores, exp.seed)) as Box<dyn Workload>
        })
        .collect();
    run_simulation(cfg, workloads)
}

fn main() {
    // CMPLEAK_INSTR shrinks the budget for CI smoke runs.
    let instr = std::env::var("CMPLEAK_INSTR").ok().and_then(|v| v.parse().ok()).unwrap_or(150_000);
    println!("benchmark: WATER-NS, 1 MB total L2, {instr} instructions per core");

    println!("\ndecay counter resolution (decay = 64K cycles):");
    println!("{:>6} {:>12} {:>14} {:>16}", "bits", "tick", "occupation", "counter events");
    for bits in [1u32, 2, 4] {
        let stats = cell(instr, Technique::Decay { decay_cycles: 64 * 1024 }, |cfg| {
            cfg.l2.decay_counter_bits = bits;
        });
        let events: u64 = stats.trace.iter().map(|t| t.decay_counter_events).sum();
        println!(
            "{:>6} {:>12} {:>13.1}% {:>16}",
            bits,
            (64 * 1024) >> bits,
            stats.occupation_rate() * 100.0,
            events
        );
    }

    println!("\nwrite-buffer depth / OoO window (baseline):");
    println!("{:>10} {:>10} {:>10} {:>10}", "wb depth", "window", "cycles", "amat");
    for (wb, window) in [(2usize, 64u64), (8, 64), (8, 16), (8, 256)] {
        let stats = cell(instr, Technique::Baseline, |cfg| {
            cfg.l1.write_buffer = wb;
            cfg.core.window = window;
        });
        println!("{:>10} {:>10} {:>10} {:>10.1}", wb, window, stats.cycles, stats.amat());
    }
}

//! System configuration.

use cmpleak_coherence::Technique;
use cmpleak_cpu::CoreConfig;
use cmpleak_mem::Geometry;

/// Private L1 data cache parameters. The L1 is write-through,
/// no-write-allocate, with a coalescing write buffer toward the L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (must match the L2's).
    pub line_bytes: usize,
    /// Associativity.
    pub assoc: usize,
    /// Load-to-use latency of a hit, in core cycles.
    pub hit_latency: u64,
    /// MSHR entries (outstanding L1 misses).
    pub mshr_entries: usize,
    /// Write-buffer depth (distinct lines).
    pub write_buffer: usize,
}

impl Default for L1Config {
    fn default() -> Self {
        Self {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            assoc: 4,
            hit_latency: 2,
            mshr_entries: 8,
            write_buffer: 8,
        }
    }
}

impl L1Config {
    /// Geometry helper.
    pub fn geometry(&self) -> Geometry {
        Geometry::new(self.size_bytes, self.line_bytes, self.assoc)
    }
}

/// Private L2 cache parameters (per core).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Capacity in bytes *per core* (the paper reports total = 4×this).
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity.
    pub assoc: usize,
    /// Hit latency in core cycles (before any decay access penalty).
    pub hit_latency: u64,
    /// MSHR entries.
    pub mshr_entries: usize,
    /// Cycles to invalidate the upper-level copy (the TC/TD Grant
    /// delay). [`CmpConfig::validate`] refuses a value above the fastest
    /// fill (`min(bus.c2c_latency, mem.latency)`, at least 1).
    pub upper_inval_latency: u64,
    /// Operations the L2 accepts per cycle (read probes + write drains).
    pub ports: u32,
    /// Width of the per-line decay counters (2 in the paper).
    pub decay_counter_bits: u32,
}

impl Default for L2Config {
    fn default() -> Self {
        Self {
            size_bytes: 1024 * 1024,
            line_bytes: 64,
            assoc: 8,
            hit_latency: 12,
            mshr_entries: 16,
            upper_inval_latency: 4,
            ports: 2,
            decay_counter_bits: 2,
        }
    }
}

impl L2Config {
    /// Geometry helper.
    pub fn geometry(&self) -> Geometry {
        Geometry::new(self.size_bytes, self.line_bytes, self.assoc)
    }
}

/// Shared snoopy bus parameters. The paper's bus is pipelined, clocked at
/// half the core clock, 57 GB/s; we express it as cycles of occupancy per
/// transaction class at core-clock granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Bus occupancy of a data-carrying transaction (address + 64 B
    /// line at the bus's data rate).
    pub data_occupancy: u64,
    /// Bus occupancy of an address-only transaction (upgrade,
    /// write-back address phase).
    pub addr_occupancy: u64,
    /// Extra latency of a cache-to-cache supply (snoop response + data
    /// turnaround) on top of bus occupancy.
    pub c2c_latency: u64,
}

impl Default for BusConfig {
    fn default() -> Self {
        Self { data_occupancy: 8, addr_occupancy: 4, c2c_latency: 12 }
    }
}

/// External memory interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Access latency (cycles from grant to first data).
    pub latency: u64,
    /// Channel service time per line transfer (finite bandwidth:
    /// back-to-back transfers queue behind each other).
    pub service: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        Self { latency: 250, service: 16 }
    }
}

/// The most cores a system may have: the worklist engine's active set
/// is one `u64`.
pub const MAX_CORES: usize = 64;

/// Which cycle kernel drives the simulation.
///
/// Both kernels produce **bit-identical** [`SimStats`](crate::SimStats)
/// — enforced by `tests/kernel_differential.rs` and by the golden sweep
/// snapshot, which was blessed under the per-cycle kernel and must pass
/// under the default without re-blessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimKernel {
    /// Quiescence-skipping kernel: while the worklist engine's active
    /// set is empty (every core asleep), time jumps directly to the
    /// next wake edge (event, bus grant, decay deadline, bus drain,
    /// interval close, cycle cap) instead of stepping cycle by cycle.
    /// That wake edge is the simulator's one horizon. The full scan has
    /// no active set, so under [`CycleEngine::FullScan`] this kernel
    /// steps every cycle.
    #[default]
    QuiescenceSkip,
    /// The classic one-`step_cycle`-per-cycle loop, kept as the
    /// differential reference.
    PerCycle,
}

/// Which per-cycle engine executes a *stepped* cycle.
///
/// The engine decides how much of the machine a stepped cycle scans;
/// the kernel decides *which* cycles are stepped (all of them, or only
/// those with an awake core — so skipping needs the worklist's active
/// set, and the full scan steps every cycle under either kernel). Both
/// engines produce **bit-identical** [`SimStats`](crate::SimStats) —
/// enforced by `tests/cycle_engine_differential.rs` and by the golden
/// sweep snapshot, which passes under the worklist default without
/// re-blessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CycleEngine {
    /// Worklist engine: an awake-core bitmask limits the per-cycle L2
    /// phases and core ticks to cores that can make progress. A core
    /// sleeps only while it is out of budget or window-blocked with an
    /// empty L2 read queue, an empty write buffer and no deferred
    /// turn-off; a window-blocked sleeper is bulk-charged its window
    /// stalls when a wake edge (own event, bus grant, decay deadline)
    /// re-activates it. Every awake core runs its L2 phase, and each
    /// interval's powered-line cycles are read off the line-state
    /// banks' on-cycle books. The active set is one `u64`, which is why
    /// systems are capped at [`MAX_CORES`].
    #[default]
    Worklist,
    /// The classic full scan, kept as the differential reference arm
    /// with no shortcut: every stepped cycle arbitrates the bus, runs
    /// every core's L2 phase and tick, and sums every cache's powered
    /// lines.
    FullScan,
}

/// Full system configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmpConfig {
    /// Number of cores (the paper evaluates 4).
    pub n_cores: usize,
    /// Core timing model parameters.
    pub core: CoreConfig,
    /// L1 parameters.
    pub l1: L1Config,
    /// Per-core private L2 parameters.
    pub l2: L2Config,
    /// Shared-bus parameters.
    pub bus: BusConfig,
    /// Memory interface parameters.
    pub mem: MemConfig,
    /// The leakage technique under evaluation.
    pub technique: Technique,
    /// Instructions each core executes before draining.
    pub instructions_per_core: u64,
    /// Hard cycle cap (safety net for misconfigured runs).
    pub max_cycles: u64,
    /// Cycles per activity-sampling interval (the paper dumps its power
    /// trace every 10 000 cycles).
    pub sample_interval: u64,
    /// Cycle kernel (default: quiescence-skipping; both are
    /// bit-identical, see [`SimKernel`]).
    pub kernel: SimKernel,
    /// Per-cycle engine (default: worklist; both are bit-identical, see
    /// [`CycleEngine`]).
    pub engine: CycleEngine,
}

impl Default for CmpConfig {
    fn default() -> Self {
        Self {
            n_cores: 4,
            core: CoreConfig::default(),
            l1: L1Config::default(),
            l2: L2Config::default(),
            bus: BusConfig::default(),
            mem: MemConfig::default(),
            technique: Technique::Baseline,
            instructions_per_core: 1_000_000,
            max_cycles: 500_000_000,
            sample_interval: 10_000,
            kernel: SimKernel::default(),
            engine: CycleEngine::default(),
        }
    }
}

impl CmpConfig {
    /// The paper's system at a given **total** L2 capacity (split over
    /// four private caches): `total_mb` ∈ {1, 2, 4, 8}.
    pub fn paper_system(total_mb: usize, technique: Technique) -> Self {
        assert!(total_mb.is_power_of_two() && total_mb >= 1, "paper sizes are 1/2/4/8 MB");
        let mut cfg = Self { technique, ..Self::default() };
        cfg.l2.size_bytes = total_mb * 1024 * 1024 / cfg.n_cores;
        cfg
    }

    /// Total L2 capacity across all private caches.
    pub fn total_l2_bytes(&self) -> usize {
        self.l2.size_bytes * self.n_cores
    }

    /// Validate cross-component invariants.
    pub fn validate(&self) {
        assert!(self.n_cores >= 1);
        assert!(
            self.n_cores <= MAX_CORES,
            "{} cores exceed the limit of MAX_CORES = {MAX_CORES}",
            self.n_cores
        );
        assert_eq!(self.l1.line_bytes, self.l2.line_bytes, "uniform line size");
        assert!(
            self.l2.size_bytes >= self.l1.size_bytes,
            "inclusive L2 must not be smaller than L1"
        );
        assert!(self.sample_interval > 0);
        // A write re-issued after its fill must not meet its line in
        // TC/TD (see the `DataReady` arm of `CmpSystem::handle_event`):
        // the upper-level invalidation may last no longer than the
        // fastest fill, a cache-to-cache supply or a memory access.
        let shortest_fill = self.bus.c2c_latency.min(self.mem.latency).max(1);
        assert!(
            self.l2.upper_inval_latency <= shortest_fill,
            "upper_inval_latency = {} exceeds the shortest fill ({shortest_fill} cycles)",
            self.l2.upper_inval_latency
        );
        let _ = self.l1.geometry();
        let _ = self.l2.geometry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_system_splits_total_capacity() {
        let cfg = CmpConfig::paper_system(4, Technique::Protocol);
        assert_eq!(cfg.n_cores, 4);
        assert_eq!(cfg.l2.size_bytes, 1024 * 1024);
        assert_eq!(cfg.total_l2_bytes(), 4 * 1024 * 1024);
        cfg.validate();
    }

    #[test]
    fn default_config_is_valid() {
        CmpConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "exceed the limit of MAX_CORES = 64")]
    fn rejects_more_than_64_cores() {
        let cfg = CmpConfig { n_cores: 65, ..CmpConfig::default() };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "inclusive L2")]
    fn rejects_l2_smaller_than_l1() {
        let mut cfg = CmpConfig::default();
        cfg.l2.size_bytes = 16 * 1024;
        cfg.validate();
    }
}

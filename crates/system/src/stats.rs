//! Simulation statistics and the power-trace sampling the thermal model
//! consumes.

use cmpleak_cpu::CoreStats;

/// Per-L1 statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L1Stats {
    /// Loads probing the L1.
    pub loads: u64,
    /// Load hits.
    pub load_hits: u64,
    /// Stores probing the L1 (write-through: they update on hit and
    /// always continue to the write buffer).
    pub stores: u64,
    /// Store hits (line present and updated in place).
    pub store_hits: u64,
    /// Lines invalidated from above (L2 inclusion back-invalidations,
    /// snoop-driven or turn-off-driven).
    pub back_invalidations: u64,
    /// Back-invalidations caused specifically by the leakage technique
    /// (decay turn-offs), as opposed to baseline coherence/inclusion.
    pub technique_back_invalidations: u64,
}

impl L1Stats {
    /// Load miss count.
    pub fn load_misses(&self) -> u64 {
        self.loads - self.load_hits
    }
}

/// Per-L2 statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L2Stats {
    /// Read probes accepted (L1 load misses reaching this L2).
    pub reads: u64,
    /// Write probes accepted (write-buffer drains).
    pub writes: u64,
    /// Read hits.
    pub read_hits: u64,
    /// Write probes that completed against a resident line (M/E hit, or
    /// S hit pending upgrade).
    pub write_hits: u64,
    /// Misses that allocated an MSHR entry (primaries only).
    pub misses: u64,
    /// Primary misses whose tag was still resident in the always-on
    /// shadow directory: misses *induced* by the leakage technique.
    pub induced_misses: u64,
    /// Lines invalidated by snooped BusRdX/BusUpgr.
    pub snoop_invalidations: u64,
    /// Turn-offs completed, by initiating reason.
    pub turnoffs_decay: u64,
    /// Lines gated because the protocol invalidated them.
    pub turnoffs_protocol: u64,
    /// Decay turn-offs that hit a Modified line (paid write-back +
    /// upper-level invalidation).
    pub dirty_decay_turnoffs: u64,
    /// Write-backs to memory issued by this cache (snoop flushes, dirty
    /// evictions, dirty turn-offs).
    pub writebacks: u64,
    /// Evictions by replacement.
    pub evictions: u64,
    /// Fills installed.
    pub fills: u64,
    /// Probes rejected because the line was transient or the MSHR was
    /// full (retried by the requester).
    pub retries: u64,
}

impl L2Stats {
    /// Total accepted probes.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Aggregate miss rate over accepted probes.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// Activity counters for one sampling interval (the 10K-cycle power
/// trace of the paper's methodology).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IntervalActivity {
    /// Cycles covered by this interval (the last one may be short).
    pub cycles: u64,
    /// Instructions dispatched across all cores.
    pub instructions: u64,
    /// L1 probes (loads + stores).
    pub l1_accesses: u64,
    /// L2 read probes.
    pub l2_reads: u64,
    /// L2 write probes.
    pub l2_writes: u64,
    /// Shared-bus transactions granted.
    pub bus_transactions: u64,
    /// Bytes moved on the shared bus.
    pub bus_bytes: u64,
    /// Bytes moved to/from external memory.
    pub mem_bytes: u64,
    /// Σ over the interval's cycles of powered L2 lines (all caches):
    /// the integral the leakage model multiplies by per-line leakage
    /// power.
    pub l2_powered_line_cycles: u64,
    /// Same integral if every line were powered (baseline denominator).
    pub l2_total_line_cycles: u64,
    /// Decay-counter increments + resets (dynamic energy of the decay
    /// logic).
    pub decay_counter_events: u64,
}

impl IntervalActivity {
    /// This interval as a run with `lines_total` lines over all L2s that
    /// went cycle for cycle alike recorded it: the line-cycle capacity at
    /// that line count, and so the powered-line integral when every line
    /// is powered (the baseline).
    pub(crate) fn rescale_to(&mut self, lines_total: u64, every_line_powered: bool) {
        self.l2_total_line_cycles = lines_total * self.cycles;
        if every_line_powered {
            self.l2_powered_line_cycles = self.l2_total_line_cycles;
        }
    }
}

/// Full result of one simulation run.
///
/// `PartialEq` compares every counter: two runs are equal only when they
/// are *bit-identical*, which is what the trace record/replay
/// differential tests assert.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Cycles until every core drained and all queues emptied.
    pub cycles: u64,
    /// Total instructions dispatched.
    pub instructions: u64,
    /// Per-core pipeline statistics (the heterogeneous-scenario
    /// breakdown: with different workloads per core, per-core IPC and
    /// stall profiles diverge and the aggregate hides it).
    pub cores: Vec<CoreStats>,
    /// Per-core workload report names, index-aligned with [`Self::cores`].
    pub core_workloads: Vec<String>,
    /// Per-core L1 statistics.
    pub l1: Vec<L1Stats>,
    /// Per-core L2 statistics.
    pub l2: Vec<L2Stats>,
    /// Σ on-cycles over all L2 line slots and caches (numerator of the
    /// paper's occupation-rate formula).
    pub l2_on_line_cycles: u64,
    /// `#L2s × #lines × total_cycles` (denominator of the same formula).
    pub l2_line_cycle_capacity: u64,
    /// Loads completed, with their total latency, for AMAT.
    pub loads_completed: u64,
    /// Σ (complete − issue) over completed loads, in cycles.
    pub load_latency_sum: u64,
    /// Shared-bus transactions granted.
    pub bus_transactions: u64,
    /// Cycles the shared bus was occupied.
    pub bus_busy_cycles: u64,
    /// Line fills supplied by external memory.
    pub mem_fills: u64,
    /// Line write-backs received by external memory.
    pub mem_writebacks: u64,
    /// Total bytes exchanged with external memory.
    pub mem_bytes: u64,
    /// Cache-to-cache supplies (M-owner flushes).
    pub c2c_transfers: u64,
    /// Upper-level (L1) invalidations sent, all causes.
    pub upper_invalidations: u64,
    /// The sampled activity trace (one entry per `sample_interval`).
    pub trace: Vec<IntervalActivity>,
}

/// What a run with larger shadow directories learned about the larger
/// L2 sizes ([`crate::run_feeds_with_larger`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LargerSizes {
    /// Fills, over every L2 of the run, that found no invalid way in
    /// their set: evictions, and fills refused because every way was
    /// transient. Only when this is 0 do the larger sizes run cycle for
    /// cycle like the run itself.
    pub full_set_fills: u64,
    /// Per larger size, in the order asked for: each core's induced
    /// misses, counted against that size's baseline-equivalent shadow.
    /// Empty when the run forked: its shadows moved to the fork.
    pub induced_misses: Vec<Vec<u64>>,
}

impl LargerSizes {
    /// Whether every larger size can be derived from the run.
    pub fn derivable(&self) -> bool {
        self.full_set_fills == 0
    }
}

impl SimStats {
    /// The statistics a run at a larger L2 — `lines_per_l2` lines in
    /// each cache, same line size and associativity — would produce,
    /// given that this run never filled a full set
    /// ([`LargerSizes::derivable`]) and that the larger size's shadow
    /// counted `induced_misses` per core.
    ///
    /// Each set of the larger cache holds a subset of the lines of one
    /// set here, so every fill there finds an invalid way too, and the
    /// two runs agree line by line: the same residency, states, decay
    /// counters, power states and timing. Only the capacity differs: the
    /// line-cycle capacity (and every interval's), the powered-line
    /// integrals when every line is powered (`every_line_powered`, the
    /// baseline), and the induced misses, which compare against a
    /// baseline of the larger size.
    pub fn at_larger_size(
        &self,
        lines_per_l2: u64,
        induced_misses: &[u64],
        every_line_powered: bool,
    ) -> SimStats {
        assert_eq!(induced_misses.len(), self.l2.len(), "one induced-miss count per L2");
        let lines_total = lines_per_l2 * self.l2.len() as u64;
        let mut stats = self.clone();
        stats.l2_line_cycle_capacity = lines_total * stats.cycles;
        if every_line_powered {
            stats.l2_on_line_cycles = stats.l2_line_cycle_capacity;
        }
        for iv in &mut stats.trace {
            iv.rescale_to(lines_total, every_line_powered);
        }
        for (l2, &induced) in stats.l2.iter_mut().zip(induced_misses) {
            l2.induced_misses = induced;
        }
        stats
    }

    /// The paper's occupation-rate metric (§VI): the average fraction of
    /// time an L2 line was powered. 1.0 for the baseline by definition.
    pub fn occupation_rate(&self) -> f64 {
        if self.l2_line_cycle_capacity == 0 {
            1.0
        } else {
            self.l2_on_line_cycles as f64 / self.l2_line_cycle_capacity as f64
        }
    }

    /// Aggregate L2 miss rate over all private caches.
    pub fn l2_miss_rate(&self) -> f64 {
        let (mut m, mut a) = (0u64, 0u64);
        for s in &self.l2 {
            m += s.misses;
            a += s.accesses();
        }
        if a == 0 {
            0.0
        } else {
            m as f64 / a as f64
        }
    }

    /// Aggregate induced-miss fraction of L2 accesses.
    pub fn l2_induced_miss_rate(&self) -> f64 {
        let (mut m, mut a) = (0u64, 0u64);
        for s in &self.l2 {
            m += s.induced_misses;
            a += s.accesses();
        }
        if a == 0 {
            0.0
        } else {
            m as f64 / a as f64
        }
    }

    /// Average memory access time observed by loads, in cycles.
    pub fn amat(&self) -> f64 {
        if self.loads_completed == 0 {
            0.0
        } else {
            self.load_latency_sum as f64 / self.loads_completed as f64
        }
    }

    /// Instructions per cycle, whole chip.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Instructions per cycle of one core (heterogeneous scenarios make
    /// this differ per core; all cores share the chip's cycle count).
    pub fn core_ipc(&self, core: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.cores[core].instructions as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupation_rate_defaults_to_full() {
        let s = SimStats::default();
        assert_eq!(s.occupation_rate(), 1.0);
    }

    #[test]
    fn derived_rates() {
        let s = SimStats {
            cycles: 1000,
            instructions: 2500,
            loads_completed: 10,
            load_latency_sum: 50,
            l2: vec![L2Stats {
                reads: 80,
                writes: 20,
                misses: 5,
                induced_misses: 2,
                ..Default::default()
            }],
            l2_on_line_cycles: 250,
            l2_line_cycle_capacity: 1000,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.amat() - 5.0).abs() < 1e-12);
        assert!((s.l2_miss_rate() - 0.05).abs() < 1e-12);
        assert!((s.l2_induced_miss_rate() - 0.02).abs() < 1e-12);
        assert!((s.occupation_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn l1_misses_derived() {
        let l1 = L1Stats { loads: 100, load_hits: 93, ..Default::default() };
        assert_eq!(l1.load_misses(), 7);
    }
}

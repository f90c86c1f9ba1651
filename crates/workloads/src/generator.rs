//! The generational reference generator.
//!
//! Produces a per-core instruction stream according to a
//! [`WorkloadSpec`]. The stream interleaves three traffic classes:
//!
//! * **private bursts** — a small set of *hot* regions receives bursts of
//!   spatially local, word-granular accesses; after a configurable number
//!   of bursts a region *retires* (its generation ends — the lines go
//!   dead) and the next region from the pool activates. Revisiting specs
//!   wrap the pool cursor, so retired regions come back after a full pool
//!   rotation — a reuse distance far beyond the decay interval, which is
//!   what makes decay expensive for scientific codes. Streaming specs
//!   never wrap: dead lines stay dead, and decay is almost free.
//! * **shared bursts** — regions in a global shared segment are written
//!   by a per-epoch *producer* core and read by the others. The producer
//!   changes deterministically every epoch ([`WorkloadSpec::share_epoch_ops`]),
//!   so ownership migrates and the previous producer's lines get
//!   invalidated — the traffic the *Protocol* technique harvests.
//! * **exec gaps** — ALU instructions between memory ops set the memory
//!   intensity.
//!
//! Addresses: core `c`'s private pool lives at `(c+1) << 36`; the shared
//! segment lives at `1 << 44`. Both are far apart so no false sharing of
//! regions occurs between segments.

use crate::rng::{mix64, Xoshiro256pp};
use crate::spec::WorkloadSpec;
use cmpleak_cpu::{TraceOp, Workload};
use std::collections::VecDeque;

/// Cache line size assumed by the generators (matches the simulated
/// hierarchy's 64-byte lines).
pub const LINE_BYTES: u64 = 64;

/// Base of the shared segment.
const SHARED_BASE: u64 = 1 << 44;

#[derive(Debug, Clone, Copy)]
struct HotRegion {
    /// Pool index (may exceed `pool_regions` for streaming specs).
    region: u64,
    bursts_left: u32,
}

/// A deterministic, infinite, generational reference stream for one core.
#[derive(Debug, Clone)]
pub struct GenerationalWorkload {
    spec: WorkloadSpec,
    core: usize,
    n_cores: usize,
    seed: u64,
    rng: Xoshiro256pp,
    hot: Vec<HotRegion>,
    cursor: u64,
    queue: VecDeque<TraceOp>,
    mem_ops: u64,
}

impl GenerationalWorkload {
    /// Build the stream for `core` of `n_cores` under `spec`, seeded by
    /// `seed`. The same triple always yields the same stream.
    pub fn new(spec: WorkloadSpec, core: usize, n_cores: usize, seed: u64) -> Self {
        assert!(core < n_cores);
        let mut name_hash = 0u64;
        for b in spec.name.bytes() {
            name_hash = mix64(name_hash ^ b as u64);
        }
        let rng = Xoshiro256pp::seeded(mix64(seed ^ name_hash).wrapping_add(core as u64 * 0x9E37));
        let hot: Vec<HotRegion> = (0..spec.hot_regions as u64)
            .map(|r| HotRegion { region: r, bursts_left: spec.generation_bursts })
            .collect();
        Self {
            cursor: spec.hot_regions as u64,
            spec,
            core,
            n_cores,
            seed,
            rng,
            hot,
            queue: VecDeque::with_capacity(1024),
            mem_ops: 0,
        }
    }

    /// The spec this stream was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    #[inline]
    fn private_base(&self, region: u64) -> u64 {
        ((self.core as u64 + 1) << 36) + region * self.spec.region_bytes as u64
    }

    #[inline]
    fn shared_base(&self, region: u64) -> u64 {
        SHARED_BASE + region * self.spec.region_bytes as u64
    }

    /// The producer core of `region` during `epoch` — identical on every
    /// core, so all streams agree on who writes without any runtime
    /// coordination. Public so the property suite can check the rotation
    /// schedule directly.
    pub fn producer(&self, region: u64, epoch: u64) -> usize {
        (mix64(
            self.seed
                ^ region.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ epoch.wrapping_mul(0x9FB2_1C65_1E98_DF25),
        ) % self.n_cores as u64) as usize
    }

    /// Accesses a scan line receives per burst (single pass over the
    /// data, a handful of words).
    const SCAN_ACCESSES: u32 = 4;
    /// Exec gap inside tight accumulator store loops.
    const ACC_GAP: (u64, u64) = (1, 3);

    /// Emit one two-phase burst against the region at `base`:
    ///
    /// 1. **accumulator phase** — the region's *fixed* leading
    ///    `store_lines × burst_lines` lines receive `accesses_per_line`
    ///    accesses each, stores with probability `write_fraction`
    ///    (tight update loops: every store reaches the L2 through the
    ///    write-through L1, making L2 traffic store-dominated and the
    ///    baseline miss rate low);
    /// 2. **scan phase** — the remaining burst lines come from a random
    ///    window of the region and are read a few times each (these are
    ///    the clean, decayable lines).
    fn emit_burst(&mut self, base: u64, write_fraction: f64) {
        let region_lines = (self.spec.region_bytes as u64) / LINE_BYTES;
        let span = self.spec.burst_lines as u64;
        let acc_lines = ((span as f64 * self.spec.store_lines).ceil() as u64).min(span);
        let scan_lines = span - acc_lines;
        // Accumulator phase: fixed lines at the region start.
        for l in 0..acc_lines {
            let line_base = base + l * LINE_BYTES;
            for _ in 0..self.spec.accesses_per_line {
                let gap = self.rng.range_inclusive(Self::ACC_GAP.0, Self::ACC_GAP.1) as u32;
                self.queue.push_back(TraceOp::Exec(gap));
                let addr = line_base + self.rng.below(LINE_BYTES / 8) * 8;
                let op = if self.rng.chance(write_fraction) {
                    TraceOp::Store(addr)
                } else {
                    TraceOp::Load(addr)
                };
                self.queue.push_back(op);
                self.mem_ops += 1;
            }
        }
        // Scan phase: a random window past the accumulator lines.
        if scan_lines > 0 && region_lines > acc_lines {
            let window = region_lines - acc_lines;
            let start = acc_lines
                + if window > scan_lines { self.rng.below(window - scan_lines) } else { 0 };
            for l in 0..scan_lines.min(window) {
                let line_base = base + (start + l) * LINE_BYTES;
                for _ in 0..Self::SCAN_ACCESSES {
                    let (lo, hi) = self.spec.exec_gap;
                    let gap = self.rng.range_inclusive(lo as u64, hi as u64) as u32;
                    self.queue.push_back(TraceOp::Exec(gap));
                    let addr = line_base + self.rng.below(LINE_BYTES / 8) * 8;
                    self.queue.push_back(TraceOp::Load(addr));
                    self.mem_ops += 1;
                }
            }
        }
    }

    fn private_burst(&mut self) {
        let slot = self.rng.below(self.hot.len() as u64) as usize;
        let region = self.hot[slot].region;
        let base = self.private_base(region);
        self.emit_burst(base, self.spec.write_fraction);
        self.hot[slot].bursts_left -= 1;
        if self.hot[slot].bursts_left == 0 {
            // Retire the generation; activate the next pool region.
            let next = if self.spec.revisit {
                let r = self.cursor % self.spec.pool_regions as u64;
                self.cursor += 1;
                r
            } else {
                let r = self.cursor;
                self.cursor += 1;
                r
            };
            self.hot[slot] = HotRegion { region: next, bursts_left: self.spec.generation_bursts };
        }
    }

    fn shared_burst(&mut self) {
        let region = self.rng.below(self.spec.shared_regions as u64);
        let epoch = self.mem_ops / self.spec.share_epoch_ops;
        let base = self.shared_base(region);
        if self.producer(region, epoch) == self.core {
            // Producer phase: mostly stores (fills the region with fresh
            // data the consumers will pull, migrating ownership here).
            self.emit_burst(base, 0.8);
        } else {
            // Consumer phase: read-only.
            self.emit_burst(base, 0.0);
        }
    }

    fn refill(&mut self) {
        if self.rng.chance(self.spec.shared_fraction) {
            self.shared_burst();
        } else {
            self.private_burst();
        }
    }
}

impl Workload for GenerationalWorkload {
    fn next_op(&mut self) -> TraceOp {
        loop {
            if let Some(op) = self.queue.pop_front() {
                return op;
            }
            self.refill();
        }
    }

    fn name(&self) -> &str {
        self.spec.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    fn take_ops(w: &mut GenerationalWorkload, n: usize) -> Vec<TraceOp> {
        (0..n).map(|_| w.next_op()).collect()
    }

    fn mem_addrs(ops: &[TraceOp]) -> Vec<u64> {
        ops.iter()
            .filter_map(|op| match op {
                TraceOp::Load(a) | TraceOp::Store(a) => Some(*a),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn deterministic_per_triple() {
        let spec = WorkloadSpec::fmm();
        let mut a = GenerationalWorkload::new(spec, 1, 4, 99);
        let mut b = GenerationalWorkload::new(spec, 1, 4, 99);
        assert_eq!(take_ops(&mut a, 5000), take_ops(&mut b, 5000));
    }

    #[test]
    fn different_cores_have_disjoint_private_segments() {
        let spec = WorkloadSpec::water_ns();
        let mut w0 = GenerationalWorkload::new(spec, 0, 4, 7);
        let mut w1 = GenerationalWorkload::new(spec, 1, 4, 7);
        let a0 = mem_addrs(&take_ops(&mut w0, 20_000));
        let a1 = mem_addrs(&take_ops(&mut w1, 20_000));
        let priv0: Vec<u64> = a0.iter().copied().filter(|&a| a < SHARED_BASE).collect();
        let priv1: Vec<u64> = a1.iter().copied().filter(|&a| a < SHARED_BASE).collect();
        assert!(!priv0.is_empty() && !priv1.is_empty());
        assert!(priv0.iter().all(|&a| (a >> 36) == 1));
        assert!(priv1.iter().all(|&a| (a >> 36) == 2));
    }

    #[test]
    fn shared_traffic_exists_and_lands_in_shared_segment() {
        let spec = WorkloadSpec::mpeg2dec();
        let mut w = GenerationalWorkload::new(spec, 2, 4, 3);
        let addrs = mem_addrs(&take_ops(&mut w, 100_000));
        let shared: Vec<u64> = addrs.iter().copied().filter(|&a| a >= SHARED_BASE).collect();
        assert!(!shared.is_empty(), "mpeg2dec must produce shared traffic");
        let max_shared = SHARED_BASE + (spec.shared_regions * spec.region_bytes) as u64;
        assert!(shared.iter().all(|&a| a < max_shared));
    }

    #[test]
    fn store_share_is_high_and_concentrated() {
        let spec = WorkloadSpec::fmm();
        let mut w = GenerationalWorkload::new(spec, 0, 4, 5);
        let ops = take_ops(&mut w, 400_000);
        let (mut loads, mut stores) = (0u64, 0u64);
        let mut store_lines = std::collections::BTreeSet::new();
        let mut load_lines = std::collections::BTreeSet::new();
        for op in &ops {
            match op {
                TraceOp::Load(a) if *a < SHARED_BASE => {
                    loads += 1;
                    load_lines.insert(a / 64);
                }
                TraceOp::Store(a) if *a < SHARED_BASE => {
                    stores += 1;
                    store_lines.insert(a / 64);
                }
                _ => {}
            }
        }
        let wf = stores as f64 / (loads + stores) as f64;
        // Accumulator structure: most accesses are stores (write-through
        // L2 traffic is store-dominated, as the paper observes)...
        assert!(wf > 0.5 && wf < 0.95, "observed store share {wf}");
        // ...but stores touch far fewer distinct lines than loads do
        // (clean scan lines are the Selective Decay fodder).
        assert!(
            store_lines.len() * 2 < load_lines.len() + store_lines.len(),
            "stores {} lines, loads {} lines",
            store_lines.len(),
            load_lines.len()
        );
    }

    #[test]
    fn revisiting_spec_stays_within_footprint() {
        let spec = WorkloadSpec::volrend();
        let mut w = GenerationalWorkload::new(spec, 0, 4, 11);
        let addrs = mem_addrs(&take_ops(&mut w, 400_000));
        let base = 1u64 << 36;
        let limit = base + spec.footprint_bytes() as u64;
        for &a in addrs.iter().filter(|&&a| a < SHARED_BASE) {
            assert!(a >= base && a < limit, "address {a:#x} outside footprint");
        }
    }

    #[test]
    fn streaming_spec_keeps_allocating_fresh_regions() {
        let spec = WorkloadSpec::mpeg2enc();
        let mut w = GenerationalWorkload::new(spec, 0, 4, 11);
        // Consume enough ops to retire many generations.
        let addrs = mem_addrs(&take_ops(&mut w, 2_000_000));
        let distinct_regions: std::collections::BTreeSet<u64> = addrs
            .iter()
            .filter(|&&a| a < SHARED_BASE)
            .map(|&a| (a - (1u64 << 36)) / spec.region_bytes as u64)
            .collect();
        assert!(
            distinct_regions.len() > spec.hot_regions * 4,
            "streaming footprint must keep growing, saw {} regions",
            distinct_regions.len()
        );
    }

    #[test]
    fn producers_rotate_across_epochs() {
        let spec = WorkloadSpec::mpeg2dec();
        let w = GenerationalWorkload::new(spec, 0, 4, 42);
        let producers: std::collections::BTreeSet<usize> =
            (0..50).map(|e| w.producer(3, e)).collect();
        assert!(producers.len() > 1, "ownership must migrate across epochs");
    }

    #[test]
    fn all_cores_agree_on_the_producer() {
        let spec = WorkloadSpec::water_ns();
        let ws: Vec<GenerationalWorkload> =
            (0..4).map(|c| GenerationalWorkload::new(spec, c, 4, 123)).collect();
        for epoch in 0..20 {
            for region in 0..4 {
                let p0 = ws[0].producer(region, epoch);
                for w in &ws[1..] {
                    assert_eq!(w.producer(region, epoch), p0);
                }
            }
        }
    }

    #[test]
    fn exec_gaps_set_memory_intensity() {
        let spec = WorkloadSpec::facerec();
        let mut w = GenerationalWorkload::new(spec, 0, 4, 8);
        let ops = take_ops(&mut w, 100_000);
        let instr: u64 = ops.iter().map(|o| o.instructions()).sum();
        let mem: u64 = ops.iter().filter(|o| o.is_mem()).count() as u64;
        let intensity = mem as f64 / instr as f64;
        // Mixture of tight accumulator loops (gap 1-3) and scan gaps.
        assert!(intensity > 0.15 && intensity < 0.45, "intensity {intensity}");
    }
}

//! Hierarchical cache-decay counter bank (Kaxiras et al., ISCA'01),
//! extended for coherent caches.
//!
//! The hardware the paper assumes is a two-level counter architecture: one
//! **global cycle counter** that emits a *tick* every
//! `decay_time / 2^counter_bits` cycles, and a small saturating counter per
//! cache line. On every tick all per-line counters increment; a counter
//! that saturates marks its line as *decayed* and a turn-off request is
//! raised for it. Any access to the line resets its counter.
//!
//! Two extensions serve the paper's techniques:
//!
//! * an **armed bit** per line — Selective Decay arms decay only on
//!   transitions into Shared/Exclusive and disarms it on transitions into
//!   Modified, so M lines never decay;
//! * **activity accounting** (`DecayStats`) — every increment and reset is
//!   counted so `cmpleak-power` can charge the decay logic's dynamic
//!   energy, and the counter storage contributes leakage.
//!
//! The per-line state itself — armed/live bits, saturating counters —
//! lives in the columnar [`LineStateBank`]; `DecayBank` holds only the
//! global-counter state (tick clock, activity stats) and the tick
//! *policy*. The tick scan walks the bank's `live & armed` words in
//! `u64×4` chunks, so a multi-MB cache with a small live set skips idle
//! regions 256 lines per comparison instead of testing two `Vec<bool>`s
//! line by line.
//!
//! The simulator advances the clock on every tick's own cycle, so each
//! [`DecayBank::advance`] call there performs one tick; a caller that
//! jumps over several ticks gets them one after another.
//!
//! Slots are the flat slot ids of `cmpleak_mem::SetAssocArray`.

use crate::bank::LineStateBank;

/// Configuration for one decay counter bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecayConfig {
    /// Target decay interval in cycles. A line decays after being unused
    /// for `decay_cycles` (quantised up by the tick period: the effective
    /// interval for a given line is between `decay_cycles` and
    /// `decay_cycles + tick_period`, exactly as in the hierarchical
    /// hardware scheme).
    pub decay_cycles: u64,
    /// Width of the per-line saturating counter (the paper assumes 2 bits).
    pub counter_bits: u32,
}

impl DecayConfig {
    /// Standard 2-bit configuration used throughout the paper.
    pub fn fixed(decay_cycles: u64) -> Self {
        Self { decay_cycles, counter_bits: 2 }
    }

    /// Cycles between global ticks.
    #[inline]
    pub fn tick_period(&self) -> u64 {
        let steps = 1u64 << self.counter_bits;
        (self.decay_cycles / steps).max(1)
    }

    /// Number of ticks after which an untouched line is considered
    /// decayed. A `b`-bit counter decays its line on the `2^b`-th tick
    /// (the saturating transition), so the effective per-line interval is
    /// in `(decay_cycles - tick_period, decay_cycles]` depending on the
    /// phase of the last access relative to the global tick.
    #[inline]
    pub fn saturation(&self) -> u8 {
        (1u64 << self.counter_bits).min(u8::MAX as u64) as u8
    }
}

/// Activity counters for energy accounting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecayStats {
    /// Global ticks elapsed.
    pub ticks: u64,
    /// Per-line counter increments performed (dynamic energy events).
    pub increments: u64,
    /// Counter resets due to line accesses.
    pub resets: u64,
    /// Lines reported as decayed (turn-off requests raised).
    pub decays: u64,
}

/// The global decay counter and tick policy for one cache.
///
/// Per-line storage (armed/live bits, counters) is the caller-owned
/// [`LineStateBank`] passed to every operation; the same bank also
/// carries the cache's Gated-Vdd state, so all per-line columns share
/// one arena-backed allocation.
#[derive(Debug, Clone)]
pub struct DecayBank {
    cfg: DecayConfig,
    next_tick: u64,
    stats: DecayStats,
}

impl DecayBank {
    /// A decay clock with per-line state expected in the neutral
    /// [`LineStateBank`] start: all lines *not live* (nothing decays
    /// until a fill arms them) and *armed* (plain fixed decay lets every
    /// line decay; Selective Decay manipulates armed bits explicitly).
    pub fn new(cfg: DecayConfig) -> Self {
        assert!(cfg.counter_bits >= 1 && cfg.counter_bits <= 8, "counter bits in 1..=8");
        assert!(cfg.decay_cycles > 0, "decay interval must be positive");
        Self { next_tick: cfg.tick_period(), cfg, stats: DecayStats::default() }
    }

    /// The configuration in effect.
    pub fn config(&self) -> DecayConfig {
        self.cfg
    }

    /// Accumulated activity statistics.
    pub fn stats(&self) -> DecayStats {
        self.stats
    }

    /// Cycle at which the next global tick fires.
    #[inline]
    pub fn next_tick_at(&self) -> u64 {
        self.next_tick
    }

    /// A line was accessed (hit or filled): reset its counter and mark it
    /// live so it participates in future ticks.
    #[inline]
    pub fn on_access(&mut self, st: &mut LineStateBank, slot: usize) {
        if st.counter(slot) != 0 {
            self.stats.resets += 1;
        }
        st.set_counter(slot, 0);
        st.set_live(slot);
    }

    /// The line was turned off or protocol-invalidated: stop counting it.
    #[inline]
    pub fn on_line_off(&mut self, st: &mut LineStateBank, slot: usize) {
        st.clear_live(slot);
        st.set_counter(slot, 0);
    }

    /// Advance to `now`, performing any global ticks that have become due,
    /// and append the slots that decayed to `decayed`.
    ///
    /// Multiple pending ticks (if the caller advanced time coarsely) are
    /// processed in order; per-tick semantics are identical to hardware
    /// scanning all counters on the tick edge.
    pub fn advance(&mut self, st: &mut LineStateBank, now: u64, decayed: &mut Vec<usize>) {
        while self.next_tick <= now {
            self.tick(st, decayed);
            self.next_tick += self.cfg.tick_period();
        }
    }

    /// Perform one global tick: increment every live, armed counter;
    /// saturated counters decay their line.
    ///
    /// The hot path of every decay simulation, hand-specialised over the
    /// packed words. Fully tickable words take a slice fast path that
    /// splits the counter walk (a branchless `+1` over 64 bytes —
    /// live∧armed implies unsaturated, an invariant this bank maintains
    /// itself) from saturation detection (a separate equality scan), so
    /// both passes auto-vectorize and the 100 %-live corner beats the
    /// naive per-line loop instead of trailing it — semantics identical
    /// to the sequential per-slot scan.
    fn tick(&mut self, st: &mut LineStateBank, decayed: &mut Vec<usize>) {
        self.stats.ticks += 1;
        let sat = self.cfg.saturation();
        let nw = st.word_count();
        let mut w = 0;
        while w < nw {
            let end = (w + 4).min(nw);
            let mut any = 0u64;
            for i in w..end {
                any |= st.tickable_word(i);
            }
            if any == 0 {
                w = end;
                continue;
            }
            for i in w..end {
                let mut bits = st.tickable_word(i);
                if bits == !0u64 {
                    let base = i * 64;
                    // Dense fast path, split into two passes. The
                    // counter walk is a branchless byte add with a
                    // running max — a live, armed counter is always
                    // below saturation (the bank's own bookkeeping
                    // guarantees it: saturation clears the live bit,
                    // accesses reset to zero), so no per-slot guard is
                    // needed and the loop vectorizes to packed add/max.
                    let col = &mut st.counters_mut()[base..base + 64];
                    let mut mx = 0u8;
                    for c in col.iter_mut() {
                        debug_assert!(*c < sat, "live+armed counter at/past saturation");
                        *c += 1;
                        mx = mx.max(*c);
                    }
                    self.stats.increments += 64;
                    // Saturation detection runs only on the (rare)
                    // ticks where the max reached the ceiling: collect
                    // the saturated slots as a bitmask, resolve after.
                    if mx >= sat {
                        let mut saturated = 0u64;
                        for (j, &c) in col.iter().enumerate() {
                            saturated |= u64::from(c == sat) << j;
                        }
                        while saturated != 0 {
                            let slot = base + saturated.trailing_zeros() as usize;
                            saturated &= saturated - 1;
                            st.clear_live(slot);
                            self.stats.decays += 1;
                            decayed.push(slot);
                        }
                    }
                    continue;
                }
                while bits != 0 {
                    let slot = i * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let c = st.counter(slot);
                    if c < sat {
                        let c = c + 1;
                        st.set_counter(slot, c);
                        self.stats.increments += 1;
                        if c == sat {
                            st.clear_live(slot);
                            self.stats.decays += 1;
                            decayed.push(slot);
                        }
                    }
                }
            }
            w = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixture {
        bank: DecayBank,
        st: LineStateBank,
    }

    fn fx(lines: usize, cfg: DecayConfig) -> Fixture {
        Fixture { bank: DecayBank::new(cfg), st: LineStateBank::new(lines) }
    }

    impl Fixture {
        fn drain(&mut self, now: u64) -> Vec<usize> {
            let mut v = Vec::new();
            self.bank.advance(&mut self.st, now, &mut v);
            v
        }

        fn access(&mut self, slot: usize) {
            self.bank.on_access(&mut self.st, slot);
        }
    }

    #[test]
    fn tick_period_divides_decay_interval() {
        let cfg = DecayConfig::fixed(512_000);
        assert_eq!(cfg.tick_period(), 128_000);
        assert_eq!(cfg.saturation(), 4);
    }

    #[test]
    fn untouched_live_line_decays_after_interval() {
        let mut f = fx(4, DecayConfig::fixed(4000));
        f.access(2);
        // After 3 ticks (3000 cycles) not yet decayed; 4th tick saturates.
        assert!(f.drain(3000).is_empty());
        let d = f.drain(4000);
        assert_eq!(d, vec![2]);
        assert_eq!(f.bank.stats().decays, 1);
    }

    #[test]
    fn access_resets_the_countdown() {
        let mut f = fx(1, DecayConfig::fixed(4000));
        f.access(0);
        assert!(f.drain(3000).is_empty());
        f.access(0); // reset at t=3000, on a tick boundary
        assert!(f.drain(6000).is_empty(), "reset must defer decay");
        let d = f.drain(7000);
        assert_eq!(d, vec![0]);
    }

    #[test]
    fn non_live_lines_never_decay() {
        let mut f = fx(2, DecayConfig::fixed(1000));
        // Slot 0 never accessed (not live); slot 1 accessed then turned off.
        f.access(1);
        let (bank, st) = (&mut f.bank, &mut f.st);
        bank.on_line_off(st, 1);
        assert!(f.drain(100_000).is_empty());
        assert_eq!(f.bank.stats().decays, 0);
    }

    #[test]
    fn disarmed_lines_hold_without_decaying() {
        let mut f = fx(1, DecayConfig::fixed(1000));
        f.access(0);
        f.st.disarm(0);
        assert!(f.drain(10_000).is_empty());
        f.st.arm(0);
        // Counter was frozen at 0; decays one full interval after rearming.
        let d = f.drain(11_000);
        assert_eq!(d, vec![0]);
    }

    #[test]
    fn decayed_line_does_not_redecay_until_reaccessed() {
        let mut f = fx(1, DecayConfig::fixed(1000));
        f.access(0);
        assert_eq!(f.drain(1000), vec![0]);
        assert!(f.drain(50_000).is_empty());
        f.access(0);
        assert_eq!(f.drain(51_000), vec![0]);
    }

    #[test]
    fn effective_interval_quantised_within_one_tick() {
        // Access mid-way between ticks: the first tick arrives early, so
        // the effective interval is nominal minus the access phase —
        // within one tick period of nominal, exactly as in the
        // hierarchical-counter hardware.
        let mut f = fx(1, DecayConfig::fixed(4000)); // ticks at 1000, 2000, ...
        f.drain(1500);
        f.access(0); // t = 1500; counter ticks at 2000/3000/4000/5000
        assert!(f.drain(4999).is_empty());
        assert_eq!(f.drain(5000), vec![0]);
    }

    #[test]
    fn stats_count_increments_and_resets() {
        let mut f = fx(2, DecayConfig::fixed(4000));
        f.access(0);
        f.access(1);
        f.drain(2000); // two ticks: 2 increments per live line
        assert_eq!(f.bank.stats().increments, 4);
        f.access(0); // nonzero counter -> reset counted
        assert_eq!(f.bank.stats().resets, 1);
    }

    #[test]
    fn advance_to_same_tick_ties_emit_in_slot_order() {
        let mut f = fx(5, DecayConfig::fixed(4000));
        for slot in [4usize, 2, 0] {
            f.access(slot);
        }
        assert_eq!(f.drain(50_000), vec![0, 2, 4], "ties are emitted in slot order");
    }

    #[test]
    fn one_bit_counters_have_coarser_ticks_same_interval() {
        let cfg = DecayConfig { decay_cycles: 4000, counter_bits: 1 };
        assert_eq!(cfg.tick_period(), 2000);
        assert_eq!(cfg.saturation(), 2);
        let mut f = fx(1, cfg);
        f.access(0);
        assert!(f.drain(2000).is_empty());
        assert_eq!(f.drain(4000), vec![0]);
    }

    #[test]
    fn word_chunked_scan_crosses_word_and_chunk_boundaries() {
        // Slots straddling the u64 word and u64×4 chunk edges of a bank
        // larger than one chunk: the scan must visit all of them in
        // ascending order.
        let mut f = fx(64 * 9, DecayConfig::fixed(4000));
        let slots = [0usize, 63, 64, 255, 256, 257, 511, 512, 64 * 9 - 1];
        for &s in &slots {
            f.access(s);
        }
        assert!(f.drain(3000).is_empty());
        assert_eq!(f.drain(4000), slots.to_vec());
        assert_eq!(f.bank.stats().decays, slots.len() as u64);
    }
}

//! Equivalence of the word-packed [`LineStateBank`]/[`BitSet`] layer
//! with a naive `Vec<bool>` reference model.
//!
//! The columnar bank claims its packed bitset operations — set, clear,
//! popcount, set-bit iteration, and the derived power/decay state
//! transitions — are observationally identical to three plain boolean
//! vectors. Every simulation result in the workspace now rests on that
//! claim, so it is pinned here under random operation sequences. The
//! word-chunked decay tick is pinned the same way against a per-line
//! counter scan.

use cmpleak_mem::{BitSet, DecayBank, DecayConfig, LineStateBank};
use proptest::prelude::*;

/// Naive model of the three bit columns plus power accounting.
struct NaiveBank {
    powered: Vec<bool>,
    armed: Vec<bool>,
    live: Vec<bool>,
    powered_since: Vec<u64>,
    on_cycles: Vec<u64>,
}

impl NaiveBank {
    fn new(lines: usize) -> Self {
        Self {
            powered: vec![false; lines],
            armed: vec![true; lines],
            live: vec![false; lines],
            powered_since: vec![0; lines],
            on_cycles: vec![0; lines],
        }
    }

    fn power_on(&mut self, slot: usize, now: u64) {
        if !self.powered[slot] {
            self.powered[slot] = true;
            self.powered_since[slot] = now;
        }
    }

    fn power_off(&mut self, slot: usize, now: u64) {
        if self.powered[slot] {
            self.powered[slot] = false;
            self.on_cycles[slot] += now - self.powered_since[slot];
        }
    }

    fn finish_on_cycles(&mut self, now: u64) -> u64 {
        for slot in 0..self.powered.len() {
            if self.powered[slot] {
                self.on_cycles[slot] += now - self.powered_since[slot];
                self.powered_since[slot] = now;
            }
        }
        self.on_cycles.iter().sum()
    }
}

/// The per-line decay scan the word-chunked tick replaces: every line
/// tested one at a time on every tick, in index order.
struct NaiveDecay {
    counters: Vec<u8>,
    live: Vec<bool>,
    sat: u8,
}

impl NaiveDecay {
    fn new(lines: usize, sat: u8) -> Self {
        Self { counters: vec![0; lines], live: vec![false; lines], sat }
    }

    fn on_access(&mut self, slot: usize) {
        self.counters[slot] = 0;
        self.live[slot] = true;
    }

    fn tick(&mut self, decayed: &mut Vec<usize>) {
        for slot in 0..self.counters.len() {
            if !self.live[slot] {
                continue;
            }
            self.counters[slot] += 1;
            if self.counters[slot] == self.sat {
                self.live[slot] = false;
                decayed.push(slot);
            }
        }
    }
}

/// Deterministic scattered slot selection at `permille` density.
fn selected(slot: usize, salt: u64, permille: u64) -> bool {
    let mut x = (slot as u64 ^ salt).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) % 1000 < permille
}

/// One step of the random op sequence.
#[derive(Debug, Clone)]
enum Op {
    PowerOn(usize),
    PowerOff(usize),
    Arm(usize),
    Disarm(usize),
    SetLive(usize),
    ClearLive(usize),
    /// Close the books at the current cycle, then keep going.
    CloseBooks,
}

proptest! {
    /// BitSet vs `Vec<bool>`: set/clear/get/popcount/iteration agree
    /// under any op sequence, for lengths that land on and off word and
    /// `u64×4` chunk boundaries.
    #[test]
    fn bitset_matches_bool_vec(
        len in 1usize..400,
        ops in proptest::collection::vec((0usize..400, any::<bool>()), 1..300),
    ) {
        let mut packed = BitSet::new(len);
        let mut naive = vec![false; len];
        for (slot, on) in ops {
            let slot = slot % len;
            if on {
                packed.set(slot);
                naive[slot] = true;
            } else {
                packed.clear(slot);
                naive[slot] = false;
            }
            prop_assert_eq!(packed.get(slot), naive[slot]);
        }
        let expected_count = naive.iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(packed.count_ones(), expected_count, "popcount diverged");
        let expected_ones: Vec<usize> =
            (0..len).filter(|&i| naive[i]).collect();
        prop_assert_eq!(packed.iter_ones().collect::<Vec<_>>(), expected_ones,
            "set-bit iteration diverged");
        for (i, &bit) in naive.iter().enumerate() {
            prop_assert_eq!(packed.get(i), bit, "bit {} diverged", i);
        }
    }

    /// LineStateBank vs the naive three-vector model: every bit column
    /// and the on-cycle integral agree under random interleavings of
    /// power flips, arm/disarm, live transitions and mid-sequence
    /// closings of the books with advancing time; checked at every step
    /// via per-slot probes, at each closing, and at the end via popcount
    /// and the closed-books integral. The model keeps per-line power-on
    /// stamps and on-cycle counters as the reference for the bank's two
    /// running sums.
    #[test]
    fn line_state_bank_matches_naive_model(
        lines in 1usize..300,
        ops in proptest::collection::vec((0usize..300, 0u8..7, 1u64..50), 1..200),
    ) {
        let mut bank = LineStateBank::new(lines);
        let mut naive = NaiveBank::new(lines);
        let mut now = 0u64;
        for (slot, kind, dt) in ops {
            now += dt;
            let op = match kind {
                0 => Op::PowerOn(slot % lines),
                1 => Op::PowerOff(slot % lines),
                2 => Op::Arm(slot % lines),
                3 => Op::Disarm(slot % lines),
                4 => Op::SetLive(slot % lines),
                5 => Op::ClearLive(slot % lines),
                _ => Op::CloseBooks,
            };
            match op {
                Op::PowerOn(s) => { bank.power_on(s, now); naive.power_on(s, now); }
                Op::PowerOff(s) => { bank.power_off(s, now); naive.power_off(s, now); }
                Op::Arm(s) => { bank.arm(s); naive.armed[s] = true; }
                Op::Disarm(s) => { bank.disarm(s); naive.armed[s] = false; }
                Op::SetLive(s) => { bank.set_live(s); naive.live[s] = true; }
                Op::ClearLive(s) => { bank.clear_live(s); naive.live[s] = false; }
                Op::CloseBooks => {
                    prop_assert_eq!(bank.finish_on_cycles(now), naive.finish_on_cycles(now),
                        "on-cycle integral diverged mid-sequence");
                }
            }
            let expected_powered = naive.powered.iter().filter(|&&b| b).count() as u64;
            prop_assert_eq!(bank.powered_count(), expected_powered);
        }
        for s in 0..lines {
            prop_assert_eq!(bank.is_powered(s), naive.powered[s], "powered[{}]", s);
            prop_assert_eq!(bank.is_armed(s), naive.armed[s], "armed[{}]", s);
            prop_assert_eq!(bank.is_live(s), naive.live[s], "live[{}]", s);
        }
        let expected_live = naive.live.iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(bank.live_count(), expected_live);
        now += 17;
        prop_assert_eq!(bank.finish_on_cycles(now), naive.finish_on_cycles(now),
            "on-cycle integral diverged");
    }

    /// The tickable mask (`live & armed`) exposed word-by-word for the
    /// decay scan equals the naive element-wise AND.
    #[test]
    fn tickable_words_equal_elementwise_and(
        lines in 1usize..300,
        flips in proptest::collection::vec((0usize..300, 0u8..4), 1..150),
    ) {
        let mut bank = LineStateBank::new(lines);
        let mut naive = NaiveBank::new(lines);
        for (slot, kind) in flips {
            let s = slot % lines;
            match kind {
                0 => { bank.set_live(s); naive.live[s] = true; }
                1 => { bank.clear_live(s); naive.live[s] = false; }
                2 => { bank.arm(s); naive.armed[s] = true; }
                _ => { bank.disarm(s); naive.armed[s] = false; }
            }
        }
        let mut from_words = Vec::new();
        for w in 0..bank.word_count() {
            let mut bits = bank.tickable_word(w);
            while bits != 0 {
                from_words.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        let expected: Vec<usize> =
            (0..lines).filter(|&i| naive.live[i] && naive.armed[i]).collect();
        prop_assert_eq!(from_words, expected);
    }

    /// The word-chunked `DecayBank::advance` emits the same decayed
    /// slots, in the same order, as the per-line scan over a full decay
    /// sequence: lines touched at the start, a second set re-touched
    /// after the first tick, then ticks until every line has decayed.
    /// Line counts land on and around word (64-line) and chunk
    /// (256-line) edges up to one 8 MB private cache (32 K lines); the
    /// live fraction ranges from empty through sparse to fully dense
    /// words.
    #[test]
    fn chunked_decay_tick_matches_per_line_scan(
        lines in prop_oneof![
            1usize..32 * 1024 + 1,
            (1usize..32 * 1024 / 64 + 1, 0usize..3)
                .prop_map(|(words, d)| (words * 64 + d - 1).min(32 * 1024)),
        ],
        live_permille in prop_oneof![Just(1000u64), Just(0u64), 0u64..1001],
        retouch_permille in 0u64..1001,
        salt in any::<u64>(),
    ) {
        let cfg = DecayConfig::fixed(4 << 10);
        let sat = cfg.saturation();
        let mut naive = NaiveDecay::new(lines, sat);
        let mut bank = DecayBank::new(cfg);
        let mut st = LineStateBank::new(lines);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut now = 0u64;
        for tick in 0..=u64::from(sat) {
            let touch = match tick {
                0 => Some((salt, live_permille)),
                1 => Some((!salt, retouch_permille)),
                _ => None,
            };
            if let Some((salt, permille)) = touch {
                for slot in (0..lines).filter(|&s| selected(s, salt, permille)) {
                    naive.on_access(slot);
                    bank.on_access(&mut st, slot);
                }
            }
            now += cfg.tick_period();
            a.clear();
            naive.tick(&mut a);
            b.clear();
            bank.advance(&mut st, now, &mut b);
            prop_assert_eq!(&b, &a, "tick {} diverged from the per-line scan", tick);
        }
        prop_assert_eq!(st.live_count(), 0, "a full decay sequence leaves nothing live");
        prop_assert!(naive.live.iter().all(|&l| !l));
    }
}

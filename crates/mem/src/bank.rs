//! Columnar per-line state banks and the arena that owns their storage.
//!
//! Every leakage mechanism in the simulator tracks some flavour of
//! per-cache-line state across arrays that reach megabytes at the
//! paper's 8 MB L2 configurations: the Gated-Vdd powered bit, the decay
//! bank's armed/live bits and saturating counters, the tag array's
//! tag/LRU columns. Three properties matter at that scale and are
//! provided here, behind one storage layer:
//!
//! * **word packing** — the boolean columns (`powered`, `armed`, `live`)
//!   are `u64` bitsets ([`BitSet`]), so counting is popcount and the one
//!   hot scan, the decay tick, walks `u64×4` chunks and skips idle
//!   regions 256 lines at a time;
//! * **columnar layout** — the decay counters live in their own dense
//!   array ([`LineStateBank`]), touched only by the pass that needs
//!   them, instead of being interleaved in per-line structs. On-time
//!   needs no per-line column at all: only its total is ever read, and
//!   two running sums of power-on and power-off cycles give it exactly;
//! * **arena reuse** — a [`BankArena`] owns the backing allocations and
//!   hands them out per simulation; a sweep worker running hundreds of
//!   grid cells re-checks the same buffers out instead of reallocating
//!   the multi-MB columns for every cell.
//!
//! The bank stores state; *policy* stays with its owners
//! (`DecayBank` decides when counters tick, the L2 decides when lines
//! gate). Bit semantics are property-tested against a naive `Vec<bool>`
//! model in `tests/bank_properties.rs`.

/// A fixed-length bitset packed into `u64` words.
///
/// The invariant that bits at index `>= len` are zero is maintained by
/// every operation, so popcounts and word scans never see ghost bits.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

/// Words per chunk in the popcount's accumulators: `u64×4` = 256 lines.
const CHUNK: usize = 4;

impl BitSet {
    /// An all-zero bitset of `len` bits.
    pub fn new(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no bits at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of backing words.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// One backing word (bits `i*64 .. i*64+64`).
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Set every bit (masking the tail of the last word).
    pub fn set_all(&mut self) {
        for w in &mut self.words {
            *w = !0;
        }
        self.mask_tail();
    }

    /// Clear every bit.
    pub fn clear_all(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Zero the bits past `len` in the last word.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Population count, scanned in `u64×4` chunks.
    pub fn count_ones(&self) -> u64 {
        let mut acc = [0u64; CHUNK];
        let mut chunks = self.words.chunks_exact(CHUNK);
        for c in &mut chunks {
            for (a, w) in acc.iter_mut().zip(c) {
                *a += w.count_ones() as u64;
            }
        }
        let mut total: u64 = acc.iter().sum();
        for w in chunks.remainder() {
            total += w.count_ones() as u64;
        }
        total
    }

    /// Indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors((w != 0).then_some(w), |&bits| {
                let next = bits & (bits - 1);
                (next != 0).then_some(next)
            })
            .map(move |bits| wi * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Rebuild from an arena buffer: `len` bits, all zero.
    fn from_arena(len: usize, arena: &mut BankArena) -> Self {
        Self { words: arena.take_u64(len.div_ceil(64), 0), len }
    }

    /// Return the backing words to `arena`.
    fn release_into(&mut self, arena: &mut BankArena) {
        arena.give_u64(std::mem::take(&mut self.words));
        self.len = 0;
    }
}

/// All per-line power/decay state of one cache, in columnar form.
///
/// Construction leaves the bank in the *neutral* state every consumer
/// starts from: nothing powered, nothing live, every line armed (plain
/// fixed decay lets every line decay; Selective Decay manipulates armed
/// bits explicitly), counters and timestamps zero.
#[derive(Debug, Clone, Default)]
pub struct LineStateBank {
    lines: usize,
    /// Gated-Vdd state: bit set = line powered.
    powered: BitSet,
    /// Decay-armed bit (Selective Decay disarms M lines).
    armed: BitSet,
    /// Line is live: counting toward decay until saturated or gated.
    live: BitSet,
    /// Saturating decay counters.
    counters: Vec<u8>,
    /// Σ of the cycles at which lines were powered on (wrapping).
    on_stamps: u64,
    /// Σ of the cycles at which lines were powered off (wrapping).
    off_stamps: u64,
    /// Cached popcount of `powered` (kept exact incrementally; the
    /// word-packed layout makes the invariant cheap to audit).
    powered_count: u64,
}

impl LineStateBank {
    /// A bank covering `lines` slots, freshly allocated.
    pub fn new(lines: usize) -> Self {
        Self::new_in(lines, &mut BankArena::default())
    }

    /// A bank covering `lines` slots, storage checked out of `arena`.
    pub fn new_in(lines: usize, arena: &mut BankArena) -> Self {
        let mut bank = Self {
            lines,
            powered: BitSet::from_arena(lines, arena),
            armed: BitSet::from_arena(lines, arena),
            live: BitSet::from_arena(lines, arena),
            counters: arena.take_u8(lines, 0),
            on_stamps: 0,
            off_stamps: 0,
            powered_count: 0,
        };
        bank.armed.set_all();
        bank
    }

    /// A bank of `lines` slots, at least this bank's, that holds none of
    /// this bank's lines yet, storage checked out of `arena`: every slot
    /// neutral and unpowered — or powered since cycle 0 when
    /// `cold_lines_powered` (the always-on baseline) — under this bank's
    /// power books. A slot powered since cycle 0 adds nothing to the
    /// power-on sum, so the books carry over as they are, with the new
    /// slots' count added when they are powered.
    /// [`LineStateBank::move_line`] then carries each line over.
    pub fn regrow_in(&self, lines: usize, cold_lines_powered: bool, arena: &mut BankArena) -> Self {
        assert!(lines >= self.lines, "a regrown bank does not shrink");
        let mut grown = Self::new_in(lines, arena);
        grown.on_stamps = self.on_stamps;
        grown.off_stamps = self.off_stamps;
        grown.powered_count = self.powered_count;
        if cold_lines_powered {
            grown.powered.set_all();
            grown.powered_count += (lines - self.lines) as u64;
        }
        grown
    }

    /// Carry slot `src` of `from` — its powered, armed and live bits and
    /// its decay counter — into slot `dst` of this bank, regrown from
    /// `from` by [`LineStateBank::regrow_in`] (whose books already count
    /// the line).
    pub fn move_line(&mut self, from: &LineStateBank, src: usize, dst: usize) {
        for (to, of) in [
            (&mut self.powered, &from.powered),
            (&mut self.armed, &from.armed),
            (&mut self.live, &from.live),
        ] {
            if of.get(src) {
                to.set(dst);
            } else {
                to.clear(dst);
            }
        }
        self.counters[dst] = from.counters[src];
    }

    /// Hand every column back to `arena` (the bank becomes empty).
    pub fn release_into(&mut self, arena: &mut BankArena) {
        self.powered.release_into(arena);
        self.armed.release_into(arena);
        self.live.release_into(arena);
        arena.give_u8(std::mem::take(&mut self.counters));
        self.lines = 0;
        self.on_stamps = 0;
        self.off_stamps = 0;
        self.powered_count = 0;
    }

    /// Number of line slots covered.
    #[inline]
    pub fn lines(&self) -> usize {
        self.lines
    }

    // ---- powered column --------------------------------------------------

    /// Power every line on at cycle 0 (the always-on baseline start):
    /// each newly powered line stamps cycle 0, which adds nothing to the
    /// power-on sum.
    pub fn power_all_on(&mut self) {
        self.powered.set_all();
        self.powered_count = self.lines as u64;
    }

    /// Whether `slot` is powered.
    #[inline]
    pub fn is_powered(&self, slot: usize) -> bool {
        self.powered.get(slot)
    }

    /// Lines currently powered (O(1), maintained incrementally).
    #[inline]
    pub fn powered_count(&self) -> u64 {
        self.powered_count
    }

    /// Power `slot` on at `now` (no-op if already powered).
    #[inline]
    pub fn power_on(&mut self, slot: usize, now: u64) {
        if !self.powered.get(slot) {
            self.powered.set(slot);
            self.on_stamps = self.on_stamps.wrapping_add(now);
            self.powered_count += 1;
        }
    }

    /// Power `slot` off at `now`, closing its on-interval (no-op if off).
    #[inline]
    pub fn power_off(&mut self, slot: usize, now: u64) {
        if self.powered.get(slot) {
            self.powered.clear(slot);
            self.off_stamps = self.off_stamps.wrapping_add(now);
            self.powered_count -= 1;
        }
    }

    /// Σ on-cycles over all slots at `now`, in O(1). Each closed
    /// interval `[on, off)` contributes `off − on` and each still-open
    /// one `now − on`, so the total is Σ off + `powered_count` × now −
    /// Σ on. The sums wrap, so the result is exact whenever the total
    /// itself fits in a `u64` (it is at most `lines × now`).
    pub fn finish_on_cycles(&self, now: u64) -> u64 {
        debug_assert_eq!(
            self.powered_count,
            self.powered.count_ones(),
            "the powered-line count disagrees with the powered bitset"
        );
        self.off_stamps
            .wrapping_add(self.powered_count.wrapping_mul(now))
            .wrapping_sub(self.on_stamps)
    }

    // ---- armed / live columns -------------------------------------------

    /// Arm decay for `slot`.
    #[inline]
    pub fn arm(&mut self, slot: usize) {
        self.armed.set(slot);
    }

    /// Disarm decay for `slot` (its counter freezes).
    #[inline]
    pub fn disarm(&mut self, slot: usize) {
        self.armed.clear(slot);
    }

    /// Whether `slot` is armed.
    #[inline]
    pub fn is_armed(&self, slot: usize) -> bool {
        self.armed.get(slot)
    }

    /// Whether `slot` is live (counting toward decay).
    #[inline]
    pub fn is_live(&self, slot: usize) -> bool {
        self.live.get(slot)
    }

    /// Mark `slot` live.
    #[inline]
    pub fn set_live(&mut self, slot: usize) {
        self.live.set(slot);
    }

    /// Mark `slot` not live.
    #[inline]
    pub fn clear_live(&mut self, slot: usize) {
        self.live.clear(slot);
    }

    /// One word of `live & armed` — the decay tick's scan mask.
    #[inline]
    pub fn tickable_word(&self, i: usize) -> u64 {
        self.live.word(i) & self.armed.word(i)
    }

    /// Words backing the bit columns.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.live.word_count()
    }

    /// Lines currently live (popcount; debug/test aid).
    pub fn live_count(&self) -> u64 {
        self.live.count_ones()
    }

    /// Popcount of the powered column, which
    /// [`LineStateBank::powered_count`] keeps incrementally (debug/test
    /// aid).
    pub fn powered_popcount(&self) -> u64 {
        self.powered.count_ones()
    }

    // ---- counter column --------------------------------------------------

    /// Decay counter of `slot`.
    #[inline]
    pub fn counter(&self, slot: usize) -> u8 {
        self.counters[slot]
    }

    /// Overwrite the decay counter of `slot`.
    #[inline]
    pub fn set_counter(&mut self, slot: usize, v: u8) {
        self.counters[slot] = v;
    }

    /// The whole counter column, mutably — the decay tick's dense fast
    /// path walks word-aligned windows of it as a slice instead of
    /// paying two bounds-checked accessor calls per slot.
    #[inline]
    pub(crate) fn counters_mut(&mut self) -> &mut [u8] {
        &mut self.counters
    }
}

/// Allocation counters of a [`BankArena`] — the evidence that per-cell
/// reallocation is gone (perfbench reports `fresh_allocations` as
/// `mem.arena.fresh_allocs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers requested from the arena.
    pub checkouts: u64,
    /// Requests served by a pooled buffer whose capacity sufficed.
    pub reuses: u64,
    /// Requests that had to allocate: a fresh buffer from an empty pool,
    /// or the largest pooled buffer grown because none was large enough.
    pub fresh_allocations: u64,
    /// Buffers returned to the pool.
    pub returns: u64,
    /// Buffers held in the pool right now (a gauge, not a counter).
    pub pooled: u64,
}

/// Owns the large per-line allocations across simulations.
///
/// Checked out per grid cell through `SimScratch`/`ExperimentScratch`:
/// the first cell a sweep worker runs allocates, every later cell of
/// compatible size reuses. Buffers are matched best-fit by capacity so a
/// bitset word buffer is not burned on a full-length column. A checkout
/// that no pooled buffer covers grows the largest pooled buffer rather
/// than allocating beside it, so the pool never holds more buffers than
/// the largest set checked out at once, whatever order sizes arrive in.
#[derive(Debug, Default)]
pub struct BankArena {
    u64_pool: Vec<Vec<u64>>,
    u8_pool: Vec<Vec<u8>>,
    stats: ArenaStats,
}

/// Check a cleared buffer with capacity ≥ `cap` out of `pool`, and
/// whether it was reused as is: best-fit (the smallest pooled buffer
/// that covers `cap`), else the largest pooled buffer grown to `cap`;
/// `None` only when the pool is empty. The single checkout routine
/// behind every `take_*` flavour, so pool policy changes land in one
/// place.
fn checkout<T>(pool: &mut Vec<Vec<T>>, cap: usize) -> Option<(Vec<T>, bool)> {
    let mut best: Option<usize> = None;
    let mut largest: Option<usize> = None;
    for (i, v) in pool.iter().enumerate() {
        if v.capacity() >= cap && best.is_none_or(|b| v.capacity() < pool[b].capacity()) {
            best = Some(i);
        }
        if largest.is_none_or(|b| v.capacity() > pool[b].capacity()) {
            largest = Some(i);
        }
    }
    let mut v = pool.swap_remove(best.or(largest)?);
    v.clear();
    v.reserve_exact(cap);
    Some((v, best.is_some()))
}

fn take_from_pool<T: Copy>(pool: &mut Vec<Vec<T>>, len: usize, fill: T) -> (Vec<T>, bool) {
    match checkout(pool, len) {
        Some((mut v, reused)) => {
            v.resize(len, fill);
            (v, reused)
        }
        None => (vec![fill; len], false),
    }
}

impl BankArena {
    /// Check out a `u64` buffer of `len` elements, all set to `fill`.
    pub fn take_u64(&mut self, len: usize, fill: u64) -> Vec<u64> {
        let (v, reused) = take_from_pool(&mut self.u64_pool, len, fill);
        self.note(reused);
        v
    }

    /// Check out a `u8` buffer of `len` elements, all set to `fill`.
    pub fn take_u8(&mut self, len: usize, fill: u8) -> Vec<u8> {
        let (v, reused) = take_from_pool(&mut self.u8_pool, len, fill);
        self.note(reused);
        v
    }

    /// Check out an **empty** `u8` buffer with capacity for at least
    /// `cap` elements — for append-style consumers (stream encoders)
    /// that would otherwise pay a fill memset just to clear it again.
    pub fn take_u8_empty(&mut self, cap: usize) -> Vec<u8> {
        let (v, reused) =
            checkout(&mut self.u8_pool, cap).unwrap_or_else(|| (Vec::with_capacity(cap), false));
        self.note(reused);
        v
    }

    /// Return a `u64` buffer to the pool.
    pub fn give_u64(&mut self, v: Vec<u64>) {
        if v.capacity() > 0 {
            self.u64_pool.push(v);
            self.stats.returns += 1;
        }
    }

    /// Return a `u8` buffer to the pool.
    pub fn give_u8(&mut self, v: Vec<u8>) {
        if v.capacity() > 0 {
            self.u8_pool.push(v);
            self.stats.returns += 1;
        }
    }

    fn note(&mut self, reused: bool) {
        self.stats.checkouts += 1;
        if reused {
            self.stats.reuses += 1;
        } else {
            self.stats.fresh_allocations += 1;
        }
    }

    /// Accumulated allocation counters, and the pool's current size.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats { pooled: (self.u64_pool.len() + self.u8_pool.len()) as u64, ..self.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_basic_ops_and_tail_masking() {
        let mut b = BitSet::new(70); // last word holds 6 live bits
        assert_eq!(b.count_ones(), 0);
        b.set(0);
        b.set(63);
        b.set(69);
        assert!(b.get(0) && b.get(63) && b.get(69) && !b.get(1));
        assert_eq!(b.count_ones(), 3);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 63, 69]);
        b.set_all();
        assert_eq!(b.count_ones(), 70, "tail bits must stay masked");
        b.clear(69);
        assert_eq!(b.count_ones(), 69);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn bank_starts_neutral() {
        let b = LineStateBank::new(130);
        assert_eq!(b.powered_count(), 0);
        assert_eq!(b.live_count(), 0);
        assert!(b.is_armed(0) && b.is_armed(129), "all lines armed by default");
        assert_eq!(b.counter(64), 0);
    }

    #[test]
    fn power_accounting_integrates_on_time() {
        let mut b = LineStateBank::new(256);
        b.power_on(3, 100);
        b.power_on(3, 120); // no-op
        b.power_on(200, 50);
        assert_eq!(b.powered_count(), 2);
        b.power_off(3, 300);
        assert_eq!(b.powered_count(), 1);
        assert!(!b.is_powered(3) && b.is_powered(200));
        // 3: 300-100 = 200 banked; 200: still on since 50 → 950 at t=1000.
        assert_eq!(b.finish_on_cycles(1000), 200 + 950);
        // Idempotent at the same instant: closing the books only reads
        // the running sums.
        assert_eq!(b.finish_on_cycles(1000), 200 + 950);
    }

    #[test]
    fn a_regrown_bank_carries_moved_lines_and_the_power_books() {
        let mut small = LineStateBank::new(64);
        small.power_on(3, 10);
        small.set_live(3);
        small.set_counter(3, 2);
        small.disarm(3);
        small.power_on(5, 20);
        small.power_off(5, 30);
        let mut grown = small.regrow_in(256, false, &mut BankArena::default());
        grown.move_line(&small, 3, 131);
        assert!(grown.is_powered(131) && grown.is_live(131) && !grown.is_armed(131));
        assert_eq!(grown.counter(131), 2);
        assert_eq!((grown.powered_count(), grown.powered_popcount()), (1, 1));
        assert_eq!(grown.finish_on_cycles(100), small.finish_on_cycles(100));
        // Every other slot is neutral: unpowered, not live, armed.
        assert!((0..256).filter(|&s| s != 131).all(|s| !grown.is_powered(s)
            && !grown.is_live(s)
            && grown.is_armed(s)
            && grown.counter(s) == 0));
        // A baseline's new lines are powered since cycle 0 too.
        let mut baseline = LineStateBank::new(64);
        baseline.power_all_on();
        let grown = baseline.regrow_in(256, true, &mut BankArena::default());
        assert_eq!((grown.powered_popcount(), grown.finish_on_cycles(7)), (256, 256 * 7));
    }

    #[test]
    fn power_all_on_matches_popcount() {
        let mut b = LineStateBank::new(100);
        b.power_all_on();
        assert_eq!(b.powered_count(), 100);
        assert_eq!(b.finish_on_cycles(7), 700);
    }

    #[test]
    fn arena_reuses_buffers_across_checkouts() {
        let mut arena = BankArena::default();
        let mut bank = LineStateBank::new_in(4096, &mut arena);
        let first = arena.stats();
        assert_eq!(first.fresh_allocations, first.checkouts, "cold arena allocates");
        bank.release_into(&mut arena);
        let _bank2 = LineStateBank::new_in(4096, &mut arena);
        let second = arena.stats();
        assert_eq!(
            second.fresh_allocations, first.fresh_allocations,
            "second checkout of the same shape must not allocate"
        );
        assert_eq!(second.reuses, first.checkouts);
    }

    #[test]
    fn arena_best_fit_keeps_small_buffers_for_small_requests() {
        let mut arena = BankArena::default();
        arena.give_u64(Vec::with_capacity(64));
        arena.give_u64(Vec::with_capacity(4096));
        let small = arena.take_u64(10, 0);
        assert!(small.capacity() < 4096, "best fit picks the 64-cap buffer");
        let big = arena.take_u64(4000, 1);
        assert!(big.capacity() >= 4096);
        assert_eq!(big[3999], 1);
        assert_eq!(arena.stats().reuses, 2);
    }

    #[test]
    fn arena_grows_its_largest_buffer_when_none_fits() {
        let mut arena = BankArena::default();
        arena.give_u8(Vec::with_capacity(16));
        arena.give_u8(Vec::with_capacity(256));
        let grown = arena.take_u8(1000, 7);
        assert!(grown.capacity() >= 1000 && grown.iter().all(|&b| b == 7));
        let stats = arena.stats();
        assert_eq!((stats.reuses, stats.fresh_allocations), (0, 1), "a grown buffer allocates");
        assert_eq!(stats.pooled, 1, "the 256-cap buffer was grown, not kept beside the new one");
        assert_eq!(arena.take_u8_empty(8).capacity(), 16, "the small buffer is still pooled");
    }
}

//! Generic set-associative tag array with true-LRU replacement.
//!
//! The array stores per-line metadata of type `M` (coherence state, dirty
//! bits, …) supplied by the embedding cache model. Validity is part of the
//! metadata (`M::is_valid`), so the array itself never interprets the
//! coherence state — it only provides lookup, touch and victim selection.
//!
//! Storage is **columnar**: tags, LRU stamps and metadata live in parallel
//! per-line arrays instead of an array of per-line structs, so the probe
//! loop walks a dense `u64` tag column (metadata is consulted only on a
//! tag match), and every column is checked out of a [`BankArena`] and
//! reused across simulations instead of being reallocated per sweep grid
//! cell. The metadata column is held as one byte per line
//! ([`LineMeta::to_byte`]/[`LineMeta::from_byte`]; every cache's per-line
//! state in the workspace fits a byte), so it pools through the arena's
//! `u8` buffers like the line-state bank's counter column. An invalid
//! slot's tag is pinned to a sentinel so stale tags can never alias a
//! probe.
//!
//! **LRU in one byte per line.** A stamp is only ever compared with the
//! other ways of its own set, so each set keeps its own 8-bit clock (one
//! byte per set) and each line an 8-bit stamp. A touch or fill advances
//! the set's clock and stores the new value as the line's stamp. Before a
//! clock would pass 255, its set is *renumbered*: each way's stamp
//! becomes the number of ways in the set with a smaller stamp, and the
//! clock restarts at `assoc − 1`, above every rank. This is exactly LRU,
//! with no overflow:
//!
//! * victim choice reads only the order of stamps within one set, and
//!   renumbering is strictly order-preserving (a smaller stamp always has
//!   a smaller rank);
//! * valid ways never tie, because every touch and fill hands out a fresh
//!   clock value;
//! * invalid ways may tie, but victim choice takes an invalid way before
//!   it reads any stamp.
//!
//! Ranks run `0..assoc`, and the clock needs a value above every rank, so
//! the array refuses associativity above 128. Tags stay `u64`: the
//! generators' shared segment starts at 2^44 and trace-file addresses can
//! be any `u64`, so a narrower tag would need an address bound that the
//! trace format does not give.

use crate::addr::{Geometry, LineAddr};
use crate::bank::BankArena;
use std::marker::PhantomData;

/// Tag column value of an invalid slot. Line addresses are byte
/// addresses shifted right by the offset bits, so `u64::MAX` is
/// unreachable for any real line.
const INVALID_TAG: u64 = u64::MAX;

/// Largest associativity the 8-bit per-set LRU clocks support: a
/// renumbered set's ranks run `0..assoc`, and its clock must then still
/// have a value above every rank to hand out.
const MAX_ASSOC: usize = 128;

/// Per-line metadata contract. `Default` must produce an *invalid* line.
///
/// Metadata is stored as one byte per line so the column can be pooled
/// through the [`BankArena`]; `to_byte`/`from_byte` must be exact
/// inverses over every value the embedding cache constructs.
pub trait LineMeta: Default + Clone {
    /// Whether this line currently holds a valid (powered, allocated) block.
    fn is_valid(&self) -> bool;

    /// Pack into the byte column.
    fn to_byte(&self) -> u8;

    /// Unpack from the byte column (inverse of [`LineMeta::to_byte`]).
    fn from_byte(b: u8) -> Self;
}

/// Read-only view of one line slot (tag + LRU stamp + caller metadata),
/// assembled (and the metadata decoded) from the columns.
#[derive(Debug)]
pub struct LineView<M> {
    /// Full line address of the resident block (meaningful only when
    /// `meta.is_valid()`).
    pub tag: LineAddr,
    /// Last-use stamp from the set's 8-bit clock: smaller is older. Only
    /// comparable with the stamps of other ways in the same set (sets
    /// keep separate clocks and are renumbered independently).
    pub lru: u8,
    /// Caller-owned metadata, decoded from the byte column.
    pub meta: M,
}

/// Result of a lookup: hit slot or the set to fill into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The block is resident; the payload is the flat slot id.
    Hit(usize),
    /// The block is absent from its set.
    Miss,
}

/// A set-associative array of lines carrying metadata `M`, stored as
/// parallel tag / LRU-stamp / metadata-byte columns plus one LRU clock
/// per set.
#[derive(Debug, Clone)]
pub struct SetAssocArray<M> {
    geom: Geometry,
    /// `log2(assoc)`: a slot's set is `slot >> way_bits`.
    way_bits: u32,
    tags: Vec<u64>,
    /// Per-line last-use stamps, drawn from the set's clock.
    stamps: Vec<u8>,
    /// Per-set LRU clocks: the last stamp each set handed out.
    clocks: Vec<u8>,
    meta: Vec<u8>,
    _marker: PhantomData<M>,
}

impl<M: LineMeta> SetAssocArray<M> {
    /// Allocate an array with all lines invalid.
    ///
    /// # Panics
    /// Panics if `geom.assoc` exceeds 128, the LRU clocks' limit.
    pub fn new(geom: Geometry) -> Self {
        Self::new_in(geom, &mut BankArena::default())
    }

    /// Like [`SetAssocArray::new`], with every column — tags, LRU
    /// stamps and clocks, and the byte-packed metadata — checked out of
    /// `arena`. The associativity is checked before anything is taken.
    pub fn new_in(geom: Geometry, arena: &mut BankArena) -> Self {
        assert!(
            geom.assoc <= MAX_ASSOC,
            "associativity {} exceeds the LRU clocks' limit of {MAX_ASSOC} ways",
            geom.assoc
        );
        let lines = geom.lines();
        Self {
            geom,
            way_bits: geom.assoc.trailing_zeros(),
            tags: arena.take_u64(lines, INVALID_TAG),
            stamps: arena.take_u8(lines, 0),
            clocks: arena.take_u8(geom.sets(), 0),
            meta: arena.take_u8(lines, M::default().to_byte()),
            _marker: PhantomData,
        }
    }

    /// A copy of this array with its columns checked out of `arena`.
    pub fn clone_in(&self, arena: &mut BankArena) -> Self {
        let mut tags = arena.take_u64(self.tags.len(), INVALID_TAG);
        tags.copy_from_slice(&self.tags);
        let mut copy = |col: &[u8]| {
            let mut v = arena.take_u8_empty(col.len());
            v.extend_from_slice(col);
            v
        };
        Self {
            geom: self.geom,
            way_bits: self.way_bits,
            tags,
            stamps: copy(&self.stamps),
            clocks: copy(&self.clocks),
            meta: copy(&self.meta),
            _marker: PhantomData,
        }
    }

    /// This array's lines in a larger array of geometry `geom` — same
    /// line size and associativity, 2^k times the sets — with its
    /// columns checked out of `arena`. Each valid line moves, with its
    /// metadata and LRU stamp, to its set under `geom`, taking the first
    /// invalid way there, and each set's clock is the clock of the set
    /// here that its lines come from. A larger set holds a subset of one
    /// set's lines here, so its LRU order is that set's order restricted
    /// to its lines. `moved(old, new)` is called for every line moved.
    ///
    /// # Panics
    /// Panics unless `geom` has this array's line size and associativity
    /// and at least its number of sets.
    pub fn regrow_in(
        &self,
        geom: Geometry,
        arena: &mut BankArena,
        mut moved: impl FnMut(usize, usize),
    ) -> Self {
        assert!(
            geom.line_bytes == self.geom.line_bytes
                && geom.assoc == self.geom.assoc
                && geom.sets() >= self.geom.sets(),
            "a regrown array keeps its line size and associativity and does not shrink"
        );
        let mut grown = Self::new_in(geom, arena);
        let set_mask = self.geom.sets() - 1;
        for (set, clock) in grown.clocks.iter_mut().enumerate() {
            *clock = self.clocks[set & set_mask];
        }
        for old in 0..self.meta.len() {
            if !M::from_byte(self.meta[old]).is_valid() {
                continue;
            }
            let new = grown.victim(LineAddr(self.tags[old]));
            debug_assert!(
                !M::from_byte(grown.meta[new]).is_valid(),
                "a larger set holds at most one set's lines"
            );
            grown.tags[new] = self.tags[old];
            grown.stamps[new] = self.stamps[old];
            grown.meta[new] = self.meta[old];
            moved(old, new);
        }
        grown
    }

    /// Return the arena-backed columns (the array becomes empty).
    pub fn release_into(&mut self, arena: &mut BankArena) {
        arena.give_u64(std::mem::take(&mut self.tags));
        arena.give_u8(std::mem::take(&mut self.stamps));
        arena.give_u8(std::mem::take(&mut self.clocks));
        arena.give_u8(std::mem::take(&mut self.meta));
    }

    /// The geometry this array was built with.
    #[inline]
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Flat slot ids making up the set `line` maps to (used by embedding
    /// caches that need custom victim policies, e.g. skipping transient
    /// lines).
    #[inline]
    pub fn set_slots(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = self.geom.set_index(line);
        let base = set * self.geom.assoc;
        base..base + self.geom.assoc
    }

    #[inline]
    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        self.set_slots(line)
    }

    /// Find the slot holding `line`, without updating LRU state. Scans
    /// the tag column only; metadata validity is confirmed on a match
    /// (an invalid slot's tag is the sentinel, so this cannot hit).
    pub fn probe(&self, line: LineAddr) -> LookupOutcome {
        for idx in self.set_range(line) {
            if self.tags[idx] == line.0 && M::from_byte(self.meta[idx]).is_valid() {
                return LookupOutcome::Hit(idx);
            }
        }
        LookupOutcome::Miss
    }

    /// Find the slot holding `line` and mark it most-recently-used.
    pub fn lookup(&mut self, line: LineAddr) -> LookupOutcome {
        match self.probe(line) {
            LookupOutcome::Hit(idx) => {
                self.touch(idx);
                LookupOutcome::Hit(idx)
            }
            LookupOutcome::Miss => LookupOutcome::Miss,
        }
    }

    /// Mark a slot most-recently-used.
    #[inline]
    pub fn touch(&mut self, slot: usize) {
        self.stamps[slot] = self.advance_clock(self.set_of_slot(slot));
    }

    /// Advance `set`'s clock and return its new value, renumbering the
    /// set first if the clock would pass 255.
    #[inline]
    fn advance_clock(&mut self, set: usize) -> u8 {
        let mut clock = self.clocks[set];
        if clock == u8::MAX {
            self.renumber(set);
            // Ranks run 0..assoc (≤ MAX_ASSOC), so this stays below 255.
            clock = (self.geom.assoc - 1) as u8;
        }
        clock += 1;
        self.clocks[set] = clock;
        clock
    }

    /// Replace each of `set`'s stamps by its rank: the number of ways in
    /// the set with a smaller stamp. Strictly order-preserving, so LRU
    /// order within the set is unchanged.
    #[cold]
    fn renumber(&mut self, set: usize) {
        let base = set << self.way_bits;
        let ways = &mut self.stamps[base..base + self.geom.assoc];
        let mut ranks = [0u8; MAX_ASSOC];
        for (rank, &s) in ranks.iter_mut().zip(ways.iter()) {
            *rank = ways.iter().filter(|&&t| t < s).count() as u8;
        }
        ways.copy_from_slice(&ranks[..ways.len()]);
    }

    /// Choose a victim slot in `line`'s set: an invalid way if one exists,
    /// otherwise the least-recently-used way. Does not modify the slot.
    pub fn victim(&self, line: LineAddr) -> usize {
        let range = self.set_range(line);
        let mut best = range.start;
        for idx in range {
            if !M::from_byte(self.meta[idx]).is_valid() {
                return idx;
            }
            if self.stamps[idx] < self.stamps[best] {
                best = idx;
            }
        }
        best
    }

    /// Install `line` into `slot`, replacing whatever was there, with fresh
    /// metadata, and mark it MRU. Returns the evicted line's `(tag, meta)`
    /// if the slot held a valid block.
    pub fn fill(&mut self, slot: usize, line: LineAddr, meta: M) -> Option<(LineAddr, M)> {
        let old = M::from_byte(self.meta[slot]);
        let prev = old.is_valid().then(|| (LineAddr(self.tags[slot]), old));
        self.tags[slot] = line.0;
        self.meta[slot] = meta.to_byte();
        self.touch(slot);
        prev
    }

    /// Immutable view of a slot (metadata decoded from the byte column).
    #[inline]
    pub fn slot(&self, slot: usize) -> LineView<M> {
        LineView {
            tag: LineAddr(self.tags[slot]),
            lru: self.stamps[slot],
            meta: M::from_byte(self.meta[slot]),
        }
    }

    /// A slot's metadata, decoded.
    #[inline]
    pub fn meta(&self, slot: usize) -> M {
        M::from_byte(self.meta[slot])
    }

    /// Update a slot's metadata in place (decode → mutate → re-encode).
    #[inline]
    pub fn update_meta(&mut self, slot: usize, f: impl FnOnce(&mut M)) {
        let mut m = M::from_byte(self.meta[slot]);
        f(&mut m);
        self.meta[slot] = m.to_byte();
    }

    /// Invalidate a slot (metadata reset to default, tag pinned to the
    /// sentinel so the slot can never alias a later probe).
    pub fn invalidate(&mut self, slot: usize) {
        self.tags[slot] = INVALID_TAG;
        self.meta[slot] = M::default().to_byte();
    }

    /// Iterate over all slots with their flat ids.
    pub fn iter(&self) -> impl Iterator<Item = (usize, LineView<M>)> + '_ {
        (0..self.meta.len()).map(|i| (i, self.slot(i)))
    }

    /// Number of currently valid lines.
    pub fn valid_count(&self) -> usize {
        self.meta.iter().filter(|&&b| M::from_byte(b).is_valid()).count()
    }

    /// Set index a flat slot id belongs to.
    #[inline]
    pub fn set_of_slot(&self, slot: usize) -> usize {
        slot >> self.way_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default, Clone, Debug, PartialEq)]
    struct V(bool);
    impl LineMeta for V {
        fn is_valid(&self) -> bool {
            self.0
        }
        fn to_byte(&self) -> u8 {
            self.0.into()
        }
        fn from_byte(b: u8) -> Self {
            V(b != 0)
        }
    }

    fn small() -> SetAssocArray<V> {
        // 4 sets, 2 ways, 64 B lines.
        SetAssocArray::new(Geometry::new(512, 64, 2))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut a = small();
        let line = a.geometry().line_of(0x80);
        assert_eq!(a.lookup(line), LookupOutcome::Miss);
        let v = a.victim(line);
        assert!(a.fill(v, line, V(true)).is_none());
        assert_eq!(a.lookup(line), LookupOutcome::Hit(v));
    }

    #[test]
    fn victim_prefers_invalid_way() {
        let mut a = small();
        let g = a.geometry();
        let l0 = g.line_of(0); // set 0
        let v0 = a.victim(l0);
        a.fill(v0, l0, V(true));
        let l1 = g.line_of((4 * 64) as u64); // also set 0 (wraps 4 sets)
        let v1 = a.victim(l1);
        assert_ne!(v0, v1, "second fill must take the invalid way");
    }

    #[test]
    fn victim_is_lru_when_set_full() {
        let mut a = small();
        let g = a.geometry();
        let l0 = g.line_of(0);
        let l1 = g.line_of(4 * 64);
        let l2 = g.line_of(8 * 64); // all map to set 0
        let v0 = a.victim(l0);
        a.fill(v0, l0, V(true));
        let v1 = a.victim(l1);
        a.fill(v1, l1, V(true));
        // Touch l0 so l1 becomes LRU.
        a.lookup(l0);
        let v2 = a.victim(l2);
        assert_eq!(v2, v1, "LRU way must be chosen");
        let evicted = a.fill(v2, l2, V(true)).expect("eviction");
        assert_eq!(evicted.0, l1);
    }

    #[test]
    fn invalidate_frees_the_slot() {
        let mut a = small();
        let g = a.geometry();
        let l0 = g.line_of(0x40);
        let v = a.victim(l0);
        a.fill(v, l0, V(true));
        a.invalidate(v);
        assert_eq!(a.lookup(l0), LookupOutcome::Miss);
        assert_eq!(a.valid_count(), 0);
    }

    #[test]
    fn fill_reports_previous_occupant() {
        let mut a = small();
        let g = a.geometry();
        let l0 = g.line_of(0);
        let l1 = g.line_of(4 * 64);
        let v = a.victim(l0);
        a.fill(v, l0, V(true));
        let prev = a.fill(v, l1, V(true));
        assert_eq!(prev, Some((l0, V(true))));
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let mut a = small();
        let g = a.geometry();
        let l0 = g.line_of(0);
        let l1 = g.line_of(4 * 64);
        let l2 = g.line_of(8 * 64);
        let v0 = a.victim(l0);
        a.fill(v0, l0, V(true));
        let v1 = a.victim(l1);
        a.fill(v1, l1, V(true));
        // probe l0 (no LRU update): l0 stays LRU and must be evicted next.
        assert_eq!(a.probe(l0), LookupOutcome::Hit(v0));
        assert_eq!(a.victim(l2), v0);
    }

    #[test]
    #[should_panic(expected = "associativity 256 exceeds the LRU clocks' limit of 128 ways")]
    fn associativity_above_the_clock_limit_is_refused() {
        let _: SetAssocArray<V> = SetAssocArray::new(Geometry::new(256 * 64, 64, 256));
    }

    #[test]
    fn the_widest_set_still_tracks_lru_across_clock_wraps() {
        // 128 ways: a renumbered set's clock restarts at 127, leaving
        // 128 fresh values before the next wrap.
        let geom = Geometry::new(MAX_ASSOC * 64, 64, MAX_ASSOC);
        let mut a: SetAssocArray<V> = SetAssocArray::new(geom);
        let lines: Vec<LineAddr> = (0..MAX_ASSOC as u64).map(|i| geom.line_of(i * 64)).collect();
        for &l in &lines {
            let v = a.victim(l);
            a.fill(v, l, V(true));
        }
        // Touch every line but the first, oldest first, three times over.
        for _ in 0..3 {
            for &l in &lines[1..] {
                a.lookup(l);
            }
        }
        assert_eq!(a.slot(a.victim(lines[0])).tag, lines[0], "untouched line stays LRU");
        a.lookup(lines[0]);
        assert_eq!(a.slot(a.victim(lines[0])).tag, lines[1]);
    }

    #[test]
    fn clock_wraps_keep_lru_order() {
        // One 4-way set touched far past 255 stamps: renumbering must
        // keep the order, so evictions follow last use exactly.
        let geom = Geometry::new(4 * 64, 64, 4);
        let mut a: SetAssocArray<V> = SetAssocArray::new(geom);
        let lines: Vec<LineAddr> = (0..4).map(|i| geom.line_of(i * 64)).collect();
        for &l in &lines {
            let v = a.victim(l);
            a.fill(v, l, V(true));
        }
        // Line 3 is never touched again. The fills took stamps 1–4, so
        // the last three touches (lines 2, 0 and 1) are the 256th to
        // 258th clock values: a clock that wrapped without renumbering
        // would rank them below line 3.
        for round in 0..254 {
            a.lookup(lines[round % 3]);
        }
        let evicted: Vec<LineAddr> = (4..8)
            .map(|i| {
                let l = geom.line_of(i * 64);
                let v = a.victim(l);
                a.fill(v, l, V(true)).expect("full set evicts").0
            })
            .collect();
        assert_eq!(evicted, [lines[3], lines[2], lines[0], lines[1]]);
    }

    #[test]
    fn regrow_moves_each_line_to_its_larger_set_in_lru_order() {
        // 2 sets × 4 ways, regrown to 8 sets: lines 0, 8 and 16 of set 0
        // stay together, line 2 moves to a set of its own.
        let geom = Geometry::new(512, 64, 4);
        let mut a: SetAssocArray<V> = SetAssocArray::new(geom);
        let line = |i: u64| geom.line_of(i * 64);
        for i in [0, 8, 16, 2] {
            let v = a.victim(line(i));
            a.fill(v, line(i), V(true));
        }
        a.lookup(line(0));
        let larger = Geometry::new(2048, 64, 4);
        let mut moved = Vec::new();
        let mut b =
            a.regrow_in(larger, &mut BankArena::default(), |old, new| moved.push((old, new)));
        assert_eq!((moved.len(), b.valid_count()), (4, 4));
        for (old, new) in moved {
            let tag = a.slot(old).tag;
            assert_eq!((b.slot(new).tag, b.set_of_slot(new)), (tag, larger.set_index(tag)));
        }
        // Set 0 keeps 8 < 16 < 0 in LRU order: after a fill into its
        // invalid way, the next fill evicts 8, then 16.
        for (i, evicted) in [(24, None), (32, Some(8)), (40, Some(16))] {
            let v = b.victim(line(i));
            assert_eq!(b.fill(v, line(i), V(true)).map(|(l, _)| l), evicted.map(line));
        }
    }

    #[test]
    fn arena_round_trip_reuses_columns_and_resets_state() {
        let mut arena = BankArena::default();
        let geom = Geometry::new(512, 64, 2);
        let mut a: SetAssocArray<V> = SetAssocArray::new_in(geom, &mut arena);
        let line = geom.line_of(0x40);
        let v = a.victim(line);
        a.fill(v, line, V(true));
        a.release_into(&mut arena);
        let allocs = arena.stats().fresh_allocations;
        let b: SetAssocArray<V> = SetAssocArray::new_in(geom, &mut arena);
        assert_eq!(arena.stats().fresh_allocations, allocs, "columns reused");
        assert_eq!(b.probe(line), LookupOutcome::Miss, "reused array starts empty");
        assert_eq!(b.valid_count(), 0);
    }
}

//! Private write-through L1 data cache.
//!
//! Policy summary (Fig. 1 / §III of the paper):
//!
//! * **write-through, no-write-allocate**: stores update the L1 copy if
//!   present and always continue to the write buffer toward the L2, so
//!   the L2 always holds current data;
//! * loads allocate on miss through the L1 MSHR (hits are served under
//!   pending misses, secondary misses merge);
//! * the L1 holds no coherence state of its own — inclusion makes the L2
//!   responsible: when the L2 loses a line (snoop, eviction, turn-off)
//!   it *back-invalidates* the L1 through [`L1Cache::invalidate`].

use crate::config::L1Config;
use crate::stats::L1Stats;
use cmpleak_mem::{BankArena, Geometry, LineAddr, LookupOutcome, Mshr, MshrAlloc, SetAssocArray};

/// Per-line metadata: presence only (the L1 carries no dirty bit — it is
/// write-through — and no MESI state — the L2 enforces coherence).
#[derive(Debug, Clone, Copy, Default)]
pub struct L1Meta {
    valid: bool,
}

impl cmpleak_mem::array::LineMeta for L1Meta {
    fn is_valid(&self) -> bool {
        self.valid
    }
    fn to_byte(&self) -> u8 {
        self.valid.into()
    }
    fn from_byte(b: u8) -> Self {
        Self { valid: b != 0 }
    }
}

/// A waiting load: id for the core, issue cycle for AMAT accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingLoad {
    /// Core-assigned load id.
    pub id: u64,
    /// Cycle the core issued the load.
    pub issued_at: u64,
}

/// Outcome of a load probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1LoadOutcome {
    /// Data present: complete after the hit latency.
    Hit,
    /// First miss for this line: the caller must request it from the L2.
    MissPrimary,
    /// Miss merged into an in-flight line: nothing to send downstream.
    MissSecondary,
    /// MSHR exhausted: refuse, the core retries.
    Refused,
}

/// Private write-through L1 data cache with MSHR.
#[derive(Debug)]
pub struct L1Cache {
    tags: SetAssocArray<L1Meta>,
    mshr: Mshr<PendingLoad>,
    stats: L1Stats,
}

impl L1Cache {
    /// Build from configuration, allocating fresh storage.
    pub fn new(cfg: &L1Config) -> Self {
        Self::new_in(cfg, &mut BankArena::default())
    }

    /// Like [`L1Cache::new`], with the tag columns checked out of
    /// `arena` for reuse across simulations.
    pub fn new_in(cfg: &L1Config, arena: &mut BankArena) -> Self {
        Self {
            tags: SetAssocArray::new_in(cfg.geometry(), arena),
            mshr: Mshr::new(cfg.mshr_entries, cfg.mshr_entries * 4),
            stats: L1Stats::default(),
        }
    }

    /// A copy of this cache with its tag columns checked out of `arena`.
    pub(crate) fn clone_in(&self, arena: &mut BankArena) -> Self {
        Self { tags: self.tags.clone_in(arena), mshr: self.mshr.clone(), stats: self.stats }
    }

    /// Hand the tag columns back to `arena`; the cache must not be used
    /// afterwards (statistics remain readable).
    pub fn release_storage(&mut self, arena: &mut BankArena) {
        self.tags.release_into(arena);
    }

    /// Geometry of the tag array.
    pub fn geometry(&self) -> Geometry {
        self.tags.geometry()
    }

    /// Statistics so far.
    pub fn stats(&self) -> L1Stats {
        self.stats
    }

    /// Whether the L1 currently holds `line` (used by the L2 for the
    /// `upper_has_copy` turn-off context — the `in_l1` bit in a real
    /// implementation; exact here because eviction notifies).
    pub fn holds(&self, line: LineAddr) -> bool {
        matches!(self.tags.probe(line), LookupOutcome::Hit(_))
    }

    /// Lines currently held (the inclusion check's L1 side).
    pub(crate) fn valid_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.tags.iter().filter(|(_, l)| l.meta.valid).map(|(_, l)| l.tag)
    }

    /// Probe for a load.
    pub fn access_load(&mut self, line: LineAddr, pending: PendingLoad) -> L1LoadOutcome {
        self.stats.loads += 1;
        if let LookupOutcome::Hit(_) = self.tags.lookup(line) {
            self.stats.load_hits += 1;
            return L1LoadOutcome::Hit;
        }
        match self.mshr.allocate(line, pending, false) {
            MshrAlloc::Primary => L1LoadOutcome::MissPrimary,
            MshrAlloc::Secondary => L1LoadOutcome::MissSecondary,
            MshrAlloc::Full => {
                // The probe did not take effect; undo the load count so
                // retries are not double-counted.
                self.stats.loads -= 1;
                L1LoadOutcome::Refused
            }
        }
    }

    /// Probe for a store: update in place on hit (write-through — the
    /// caller independently pushes the store into the write buffer).
    /// No-write-allocate: a miss changes nothing.
    pub fn access_store(&mut self, line: LineAddr) -> bool {
        self.stats.stores += 1;
        match self.tags.lookup(line) {
            LookupOutcome::Hit(_) => {
                self.stats.store_hits += 1;
                true
            }
            LookupOutcome::Miss => false,
        }
    }

    /// Install `line` (fill from L2) and complete its waiting loads.
    /// Returns the completed loads and the line evicted to make room (the
    /// system clears the L2's `in_l1` bookkeeping for it).
    pub fn fill(&mut self, line: LineAddr) -> (Vec<PendingLoad>, Option<LineAddr>) {
        let waiting = self.mshr.complete(line).map(|e| e.targets).unwrap_or_default();
        // A back-invalidation may have raced ahead of this fill and the
        // line may be re-requested later; installing is still correct
        // because the L2 fill that produced this callback installed the
        // line at L2 first (inclusion holds at delivery time).
        let evicted = match self.tags.probe(line) {
            LookupOutcome::Hit(_) => None,
            LookupOutcome::Miss => {
                let v = self.tags.victim(line);
                self.tags.fill(v, line, L1Meta { valid: true }).map(|(t, _)| t)
            }
        };
        (waiting, evicted)
    }

    /// Back-invalidation from the L2 (inclusion). Returns whether the
    /// line was present. `technique_induced` tags invalidations caused by
    /// a leakage turn-off rather than baseline coherence.
    pub fn invalidate(&mut self, line: LineAddr, technique_induced: bool) -> bool {
        match self.tags.probe(line) {
            LookupOutcome::Hit(slot) => {
                self.tags.invalidate(slot);
                self.stats.back_invalidations += 1;
                if technique_induced {
                    self.stats.technique_back_invalidations += 1;
                }
                true
            }
            LookupOutcome::Miss => false,
        }
    }

    /// Complete the waiting loads for `line` without installing it (used
    /// when the line vanished from the L2 between the response and its
    /// delivery — the data is forwarded but not cached, preserving
    /// inclusion).
    pub fn complete_without_install(&mut self, line: LineAddr) -> Vec<PendingLoad> {
        self.mshr.complete(line).map(|e| e.targets).unwrap_or_default()
    }

    /// Number of in-flight misses (for drain checks).
    pub fn outstanding_misses(&self) -> usize {
        self.mshr.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1Cache {
        L1Cache::new(&L1Config {
            size_bytes: 1024,
            line_bytes: 64,
            assoc: 2,
            hit_latency: 2,
            mshr_entries: 2,
            write_buffer: 4,
        })
    }

    fn la(cache: &L1Cache, addr: u64) -> LineAddr {
        cache.geometry().line_of(addr)
    }

    const P: PendingLoad = PendingLoad { id: 0, issued_at: 0 };

    #[test]
    fn load_miss_fill_hit_roundtrip() {
        let mut c = l1();
        let line = la(&c, 0x1000);
        assert_eq!(c.access_load(line, P), L1LoadOutcome::MissPrimary);
        let (waiting, _) = c.fill(line);
        assert_eq!(waiting, vec![P]);
        assert_eq!(c.access_load(line, P), L1LoadOutcome::Hit);
        assert_eq!(c.stats().load_hits, 1);
        assert_eq!(c.stats().load_misses(), 1);
    }

    #[test]
    fn secondary_misses_merge() {
        let mut c = l1();
        let line = la(&c, 0x40);
        assert_eq!(
            c.access_load(line, PendingLoad { id: 1, issued_at: 5 }),
            L1LoadOutcome::MissPrimary
        );
        assert_eq!(
            c.access_load(line, PendingLoad { id: 2, issued_at: 6 }),
            L1LoadOutcome::MissSecondary
        );
        let (waiting, _) = c.fill(line);
        assert_eq!(waiting.len(), 2);
    }

    #[test]
    fn mshr_exhaustion_refuses_without_counting() {
        let mut c = l1();
        assert_eq!(c.access_load(la(&c, 0x0), P), L1LoadOutcome::MissPrimary);
        assert_eq!(c.access_load(la(&c, 0x40), P), L1LoadOutcome::MissPrimary);
        let before = c.stats().loads;
        assert_eq!(c.access_load(la(&c, 0x80), P), L1LoadOutcome::Refused);
        assert_eq!(c.stats().loads, before, "refused probe not counted");
    }

    #[test]
    fn stores_update_without_allocating() {
        let mut c = l1();
        let line = la(&c, 0x200);
        assert!(!c.access_store(line), "miss: no allocate");
        assert_eq!(c.access_load(line, P), L1LoadOutcome::MissPrimary, "store did not allocate");
        c.fill(line);
        assert!(c.access_store(line), "hit after fill");
        assert_eq!(c.stats().stores, 2);
        assert_eq!(c.stats().store_hits, 1);
    }

    #[test]
    fn back_invalidation_removes_line_and_counts_cause() {
        let mut c = l1();
        let line = la(&c, 0x300);
        c.access_load(line, P);
        c.fill(line);
        assert!(c.holds(line));
        assert!(c.invalidate(line, true));
        assert!(!c.holds(line));
        assert_eq!(c.stats().back_invalidations, 1);
        assert_eq!(c.stats().technique_back_invalidations, 1);
        assert!(!c.invalidate(line, false), "second invalidation is a no-op");
        assert_eq!(c.stats().back_invalidations, 1);
    }

    #[test]
    fn fill_reports_eviction_for_inclusion_bookkeeping() {
        let mut c = l1(); // 8 sets x 2 ways
        let a = la(&c, 0);
        let b = la(&c, 8 * 64);
        let d = la(&c, 16 * 64); // all set 0
        for line in [a, b] {
            c.access_load(line, P);
            c.fill(line);
        }
        c.access_load(d, P);
        let (_, evicted) = c.fill(d);
        assert_eq!(evicted, Some(a), "LRU line evicted and reported");
    }
}

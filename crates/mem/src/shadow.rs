//! Always-on shadow tag directory.
//!
//! To decompose the L2 miss rate into baseline misses vs. misses *induced*
//! by a leakage technique, the simulator maintains a shadow tag array per
//! L2 that sees the same reference stream but never turns lines off and
//! never suffers coherence invalidations from turn-offs. A real miss whose
//! tag hits in the shadow directory would have hit in the unoptimized
//! cache — it was induced by the technique.
//!
//! The shadow directory carries tags only (no data, no coherence state);
//! it is measurement infrastructure, not part of the simulated hardware,
//! and its energy is never charged.

use crate::addr::{Geometry, LineAddr};
use crate::array::{LineMeta, LookupOutcome, SetAssocArray};
use crate::bank::BankArena;

#[derive(Default, Clone, Debug)]
struct Present(bool);

impl LineMeta for Present {
    fn is_valid(&self) -> bool {
        self.0
    }
    fn to_byte(&self) -> u8 {
        self.0.into()
    }
    fn from_byte(b: u8) -> Self {
        Present(b != 0)
    }
}

/// Tag-only mirror of a cache with baseline (always-on) behaviour.
#[derive(Debug, Clone)]
pub struct ShadowTags {
    tags: SetAssocArray<Present>,
}

impl ShadowTags {
    /// A shadow directory with the same geometry as the cache it mirrors.
    pub fn new(geom: Geometry) -> Self {
        Self { tags: SetAssocArray::new(geom) }
    }

    /// Like [`ShadowTags::new`], with the tag columns checked out of
    /// `arena`.
    pub fn new_in(geom: Geometry, arena: &mut BankArena) -> Self {
        Self { tags: SetAssocArray::new_in(geom, arena) }
    }

    /// The geometry of the cache this directory mirrors.
    pub fn geometry(&self) -> Geometry {
        self.tags.geometry()
    }

    /// Return the arena-backed columns.
    pub fn release_into(&mut self, arena: &mut BankArena) {
        self.tags.release_into(arena);
    }

    /// Record an access (read or write) to `line`, updating shadow
    /// residency and LRU exactly as the baseline cache would. Returns
    /// `true` if the baseline would have hit.
    pub fn access(&mut self, line: LineAddr) -> bool {
        match self.tags.lookup(line) {
            LookupOutcome::Hit(_) => true,
            LookupOutcome::Miss => {
                let v = self.tags.victim(line);
                self.tags.fill(v, line, Present(true));
                false
            }
        }
    }

    /// Record an invalidation the *baseline* cache would also experience
    /// (a genuine coherence invalidation from another core's write, as
    /// opposed to one induced by a turn-off technique).
    pub fn invalidate(&mut self, line: LineAddr) {
        if let LookupOutcome::Hit(slot) = self.tags.probe(line) {
            self.tags.invalidate(slot);
        }
    }

    /// Would the baseline cache hold `line` right now?
    pub fn would_hit(&self, line: LineAddr) -> bool {
        matches!(self.tags.probe(line), LookupOutcome::Hit(_))
    }

    /// Number of lines the baseline would currently hold.
    pub fn resident(&self) -> usize {
        self.tags.valid_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shadow() -> ShadowTags {
        ShadowTags::new(Geometry::new(512, 64, 2)) // 4 sets x 2 ways
    }

    #[test]
    fn tracks_baseline_residency() {
        let mut s = shadow();
        assert!(!s.access(LineAddr(1)));
        assert!(s.access(LineAddr(1)));
        assert!(s.would_hit(LineAddr(1)));
    }

    #[test]
    fn respects_capacity_and_lru() {
        let mut s = shadow();
        // Three lines in the same set (4 sets => stride 4).
        s.access(LineAddr(0));
        s.access(LineAddr(4));
        s.access(LineAddr(0)); // 4 is now LRU
        s.access(LineAddr(8)); // evicts 4
        assert!(s.would_hit(LineAddr(0)));
        assert!(!s.would_hit(LineAddr(4)));
        assert!(s.would_hit(LineAddr(8)));
    }

    #[test]
    fn genuine_invalidations_propagate() {
        let mut s = shadow();
        s.access(LineAddr(3));
        s.invalidate(LineAddr(3));
        assert!(!s.would_hit(LineAddr(3)));
        assert_eq!(s.resident(), 0);
    }
}

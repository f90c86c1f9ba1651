//! Cache geometry and address slicing.
//!
//! Addresses are byte addresses (`u64`). Caches operate on [`LineAddr`]s —
//! the byte address with the intra-line offset stripped — so that tag
//! comparison and set indexing never have to re-derive the line base.

/// A cache-line address: the byte address shifted right by the line-offset
/// bits. Two byte addresses within the same cache line map to the same
/// `LineAddr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Reconstruct the base byte address of this line given the line size.
    #[inline]
    pub fn byte_base(self, line_bytes: usize) -> u64 {
        self.0 << line_bytes.trailing_zeros()
    }
}

/// Geometry of one set-associative cache.
///
/// All three parameters must be powers of two; `size_bytes` must be at
/// least `line_bytes * assoc` (one set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line (block) size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl Geometry {
    /// Create a geometry, validating power-of-two and sizing constraints.
    ///
    /// # Panics
    /// Panics if any parameter is zero or not a power of two, or if the
    /// cache cannot hold at least one full set.
    pub fn new(size_bytes: usize, line_bytes: usize, assoc: usize) -> Self {
        assert!(size_bytes.is_power_of_two(), "cache size must be a power of two");
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(assoc.is_power_of_two(), "associativity must be a power of two");
        assert!(
            size_bytes >= line_bytes * assoc,
            "cache must hold at least one set ({} < {} * {})",
            size_bytes,
            line_bytes,
            assoc
        );
        Self { size_bytes, line_bytes, assoc }
    }

    /// Number of sets. Every field is a power of two, so this is a
    /// shift, not a division on the set-index path.
    #[inline]
    pub fn sets(&self) -> usize {
        self.size_bytes >> (self.line_bytes.trailing_zeros() + self.assoc.trailing_zeros())
    }

    /// Total number of line slots (sets × ways).
    #[inline]
    pub fn lines(&self) -> usize {
        self.size_bytes >> self.line_bytes.trailing_zeros()
    }

    /// Bits used for the intra-line byte offset.
    #[inline]
    pub fn offset_bits(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// Convert a byte address to a line address.
    #[inline]
    pub fn line_of(&self, byte_addr: u64) -> LineAddr {
        LineAddr(byte_addr >> self.offset_bits())
    }

    /// Set index for a line address.
    #[inline]
    pub fn set_index(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.sets() - 1)
    }

    /// Flat slot id of (set, way); stable across the run, used to index
    /// per-line side structures such as decay counters.
    #[inline]
    pub fn slot(&self, set: usize, way: usize) -> usize {
        set * self.assoc + way
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derives_sets_and_lines() {
        let g = Geometry::new(1 << 20, 64, 8); // 1 MiB, 64 B lines, 8-way
        assert_eq!(g.sets(), 2048);
        assert_eq!(g.lines(), 16384);
        assert_eq!(g.offset_bits(), 6);
    }

    #[test]
    fn line_addresses_strip_offsets() {
        let g = Geometry::new(1 << 16, 64, 4);
        assert_eq!(g.line_of(0x1000), g.line_of(0x103F));
        assert_ne!(g.line_of(0x1000), g.line_of(0x1040));
        assert_eq!(g.line_of(0x1040).byte_base(64), 0x1040);
    }

    #[test]
    fn set_index_wraps_modulo_sets() {
        let g = Geometry::new(1 << 16, 64, 4); // 256 sets
        let a = g.line_of(0);
        let b = g.line_of((256 * 64) as u64); // one full wrap
        assert_eq!(g.set_index(a), g.set_index(b));
        assert_ne!(a, b);
    }

    #[test]
    fn slot_ids_are_dense_and_unique() {
        let g = Geometry::new(1 << 14, 64, 4);
        let mut seen = vec![false; g.lines()];
        for set in 0..g.sets() {
            for way in 0..g.assoc {
                let s = g.slot(set, way);
                assert!(!seen[s], "slot {s} duplicated");
                seen[s] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_size() {
        Geometry::new(3 << 10, 64, 4);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn rejects_degenerate_geometry() {
        Geometry::new(128, 64, 4);
    }
}

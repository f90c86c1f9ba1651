//! Miss Status Holding Registers.
//!
//! Both cache levels in the simulated hierarchy (Fig. 1 of the paper) own
//! an MSHR so that hits can be served under pending misses and secondary
//! misses to an in-flight line merge instead of issuing duplicate bus
//! transactions.
//!
//! The MSHR is generic over the per-target payload `T` (the embedding
//! cache records which core request / upstream miss is waiting on the
//! fill).

use crate::addr::LineAddr;

/// One in-flight miss and the requests waiting on it.
#[derive(Debug, Clone)]
pub struct MshrEntry<T> {
    /// The missing line.
    pub line: LineAddr,
    /// Requests to wake when the fill arrives.
    pub targets: Vec<T>,
    /// Whether the miss has been granted the bus / sent downstream yet.
    pub issued: bool,
    /// Whether the miss requires exclusive ownership (write miss /
    /// upgrade); a later write to a line with a pending read miss promotes
    /// this.
    pub exclusive: bool,
}

/// Outcome of [`Mshr::allocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAlloc {
    /// A new entry was created: a downstream request must be issued.
    Primary,
    /// Merged into an existing entry for the same line.
    Secondary,
    /// No free entry: the request must stall and retry.
    Full,
}

/// A small fully-associative MSHR file.
#[derive(Debug, Clone)]
pub struct Mshr<T> {
    entries: Vec<MshrEntry<T>>,
    capacity: usize,
    max_targets: usize,
}

impl<T> Mshr<T> {
    /// An MSHR with `capacity` entries, each holding up to `max_targets`
    /// merged requests.
    pub fn new(capacity: usize, max_targets: usize) -> Self {
        assert!(capacity > 0 && max_targets > 0);
        Self { entries: Vec::with_capacity(capacity), capacity, max_targets }
    }

    /// Entries currently in flight.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no miss is outstanding.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no new primary miss can be accepted.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Whether a miss for `line` is already outstanding.
    pub fn pending(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|e| e.line == line)
    }

    /// Look up the entry for `line`.
    pub fn get(&self, line: LineAddr) -> Option<&MshrEntry<T>> {
        self.entries.iter().find(|e| e.line == line)
    }

    /// Look up the entry for `line`, mutably.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut MshrEntry<T>> {
        self.entries.iter_mut().find(|e| e.line == line)
    }

    /// Record a miss for `line` carrying `target`. Merges into an existing
    /// entry when possible; `exclusive` requests ownership (store miss).
    pub fn allocate(&mut self, line: LineAddr, target: T, exclusive: bool) -> MshrAlloc {
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            if e.targets.len() >= self.max_targets {
                return MshrAlloc::Full;
            }
            e.targets.push(target);
            e.exclusive |= exclusive;
            return MshrAlloc::Secondary;
        }
        if self.is_full() {
            return MshrAlloc::Full;
        }
        self.entries.push(MshrEntry { line, targets: vec![target], issued: false, exclusive });
        MshrAlloc::Primary
    }

    /// The fill for `line` arrived: remove and return its entry.
    pub fn complete(&mut self, line: LineAddr) -> Option<MshrEntry<T>> {
        let idx = self.entries.iter().position(|e| e.line == line)?;
        Some(self.entries.remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_secondary_merge() {
        let mut m: Mshr<u32> = Mshr::new(4, 4);
        let l = LineAddr(7);
        assert_eq!(m.allocate(l, 1, false), MshrAlloc::Primary);
        assert_eq!(m.allocate(l, 2, false), MshrAlloc::Secondary);
        assert_eq!(m.len(), 1);
        let e = m.complete(l).unwrap();
        assert_eq!(e.targets, vec![1, 2]);
        assert!(m.is_empty());
    }

    #[test]
    fn capacity_limits_primary_misses() {
        let mut m: Mshr<()> = Mshr::new(2, 4);
        assert_eq!(m.allocate(LineAddr(1), (), false), MshrAlloc::Primary);
        assert_eq!(m.allocate(LineAddr(2), (), false), MshrAlloc::Primary);
        assert_eq!(m.allocate(LineAddr(3), (), false), MshrAlloc::Full);
        // But merging into existing lines still works.
        assert_eq!(m.allocate(LineAddr(1), (), false), MshrAlloc::Secondary);
    }

    #[test]
    fn target_limit_stalls_merges() {
        let mut m: Mshr<u8> = Mshr::new(2, 2);
        let l = LineAddr(9);
        m.allocate(l, 0, false);
        m.allocate(l, 1, false);
        assert_eq!(m.allocate(l, 2, false), MshrAlloc::Full);
    }

    #[test]
    fn exclusive_promotion_sticks() {
        let mut m: Mshr<u8> = Mshr::new(2, 4);
        let l = LineAddr(3);
        m.allocate(l, 0, false);
        m.allocate(l, 1, true); // store merges into read miss
        assert!(m.get(l).unwrap().exclusive);
    }
}

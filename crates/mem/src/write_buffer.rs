//! Coalescing write buffer.
//!
//! The paper's L1 caches are write-through with a write buffer that
//! propagates stores to the L2 (Fig. 1). Table I's turn-off legality also
//! depends on it: a clean L2 line may only be turned off *if no pending
//! write* to it sits in the buffer, so the buffer exposes a
//! [`WriteBuffer::has_pending`] probe used by the turn-off mechanism.
//!
//! Stores to a line already buffered coalesce into the existing entry
//! (standard write-combining), so a store burst to one line costs a single
//! L2 write port slot.

use crate::addr::LineAddr;
use std::collections::VecDeque;

/// Activity counters for sizing studies and energy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteBufferStats {
    /// Stores accepted.
    pub stores: u64,
    /// Stores that coalesced into an existing entry.
    pub coalesced: u64,
    /// Entries drained to the next level.
    pub drained: u64,
    /// Cycles in which a store stalled because the buffer was full.
    pub full_stalls: u64,
}

/// FIFO write buffer with per-line coalescing.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    fifo: VecDeque<LineAddr>,
    capacity: usize,
    stats: WriteBufferStats,
}

impl WriteBuffer {
    /// A buffer holding up to `capacity` distinct lines.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            fifo: VecDeque::with_capacity(capacity),
            capacity,
            stats: WriteBufferStats::default(),
        }
    }

    /// Entries currently buffered.
    #[inline]
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// True when nothing is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// True when no further non-coalescing store can be accepted.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.fifo.len() >= self.capacity
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> WriteBufferStats {
        self.stats
    }

    /// Whether a write to `line` is pending (used by the turn-off
    /// legality checks of Table I).
    pub fn has_pending(&self, line: LineAddr) -> bool {
        self.fifo.contains(&line)
    }

    /// Try to accept a store to `line`. Returns `false` (and counts a
    /// stall) when the buffer is full and the store does not coalesce.
    pub fn push(&mut self, line: LineAddr) -> bool {
        if self.fifo.contains(&line) {
            self.stats.stores += 1;
            self.stats.coalesced += 1;
            return true;
        }
        if self.is_full() {
            self.stats.full_stalls += 1;
            return false;
        }
        self.stats.stores += 1;
        self.fifo.push_back(line);
        true
    }

    /// Oldest buffered line, without removing it.
    pub fn head(&self) -> Option<LineAddr> {
        self.fifo.front().copied()
    }

    /// Drain the oldest entry (the embedding model calls this when the L2
    /// write port accepts it).
    pub fn pop(&mut self) -> Option<LineAddr> {
        let head = self.fifo.pop_front();
        if head.is_some() {
            self.stats.drained += 1;
        }
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut wb = WriteBuffer::new(4);
        assert!(wb.push(LineAddr(1)));
        assert!(wb.push(LineAddr(2)));
        assert_eq!(wb.pop(), Some(LineAddr(1)));
        assert_eq!(wb.pop(), Some(LineAddr(2)));
        assert_eq!(wb.pop(), None);
    }

    #[test]
    fn stores_to_same_line_coalesce() {
        let mut wb = WriteBuffer::new(2);
        assert!(wb.push(LineAddr(5)));
        assert!(wb.push(LineAddr(5)));
        assert_eq!(wb.len(), 1);
        assert_eq!(wb.stats().coalesced, 1);
    }

    #[test]
    fn full_buffer_rejects_and_counts_stall() {
        let mut wb = WriteBuffer::new(1);
        assert!(wb.push(LineAddr(1)));
        assert!(!wb.push(LineAddr(2)));
        assert_eq!(wb.stats().full_stalls, 1);
        // Coalescing still allowed at capacity.
        assert!(wb.push(LineAddr(1)));
    }

    #[test]
    fn pending_probe_sees_buffered_lines() {
        let mut wb = WriteBuffer::new(4);
        wb.push(LineAddr(9));
        assert!(wb.has_pending(LineAddr(9)));
        assert!(!wb.has_pending(LineAddr(8)));
        wb.pop();
        assert!(!wb.has_pending(LineAddr(9)));
    }
}

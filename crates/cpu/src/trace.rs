//! Instruction-trace vocabulary and the workload contract.

/// One unit of work in a core's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// `n` non-memory instructions (ALU/branch); they dispatch at the
    /// core's issue width and never touch the cache hierarchy.
    Exec(u32),
    /// A load from the given byte address (1 instruction).
    Load(u64),
    /// A store to the given byte address (1 instruction).
    Store(u64),
}

impl TraceOp {
    /// Number of instructions this op retires.
    #[inline]
    pub fn instructions(self) -> u64 {
        match self {
            TraceOp::Exec(n) => n as u64,
            TraceOp::Load(_) | TraceOp::Store(_) => 1,
        }
    }

    /// Whether this op accesses memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        !matches!(self, TraceOp::Exec(_))
    }
}

/// A per-core instruction stream.
///
/// Workloads are *infinite*: the simulator imposes the instruction
/// budget, so `next_op` must always produce an op. Implementations must
/// be deterministic for a given construction seed (the whole simulator is
/// bit-reproducible).
pub trait Workload {
    /// Produce the next op of the stream.
    fn next_op(&mut self) -> TraceOp;

    /// A short name for reports.
    fn name(&self) -> &str {
        "workload"
    }
}

/// Replays a fixed op sequence in a loop — the workhorse of unit and
/// integration tests, and of the `coherence_trace` example.
#[derive(Debug, Clone)]
pub struct ReplayWorkload {
    ops: Vec<TraceOp>,
    pos: usize,
    name: String,
}

impl ReplayWorkload {
    /// Cycle through `ops` forever.
    ///
    /// # Panics
    /// Panics if `ops` is empty.
    pub fn cycle(ops: Vec<TraceOp>) -> Self {
        assert!(!ops.is_empty(), "replay workload needs at least one op");
        Self { ops, pos: 0, name: "replay".into() }
    }

    /// Same, with a custom report name.
    pub fn named(name: impl Into<String>, ops: Vec<TraceOp>) -> Self {
        let mut w = Self::cycle(ops);
        w.name = name.into();
        w
    }
}

impl Workload for ReplayWorkload {
    fn next_op(&mut self) -> TraceOp {
        let op = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        op
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_instruction_counts() {
        assert_eq!(TraceOp::Exec(7).instructions(), 7);
        assert_eq!(TraceOp::Load(0x40).instructions(), 1);
        assert_eq!(TraceOp::Store(0x40).instructions(), 1);
    }

    #[test]
    fn mem_classification() {
        assert!(!TraceOp::Exec(1).is_mem());
        assert!(TraceOp::Load(0).is_mem());
        assert!(TraceOp::Store(0).is_mem());
    }

    #[test]
    fn replay_cycles_forever() {
        let mut w = ReplayWorkload::cycle(vec![TraceOp::Exec(1), TraceOp::Load(64)]);
        assert_eq!(w.next_op(), TraceOp::Exec(1));
        assert_eq!(w.next_op(), TraceOp::Load(64));
        assert_eq!(w.next_op(), TraceOp::Exec(1));
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn replay_rejects_empty() {
        ReplayWorkload::cycle(vec![]);
    }
}

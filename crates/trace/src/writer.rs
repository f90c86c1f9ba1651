//! Recording workloads into a [`MemTrace`] and writing it out as a CMPT
//! file.

use crate::format::{CoreStreamInfo, OpEncoder};
use crate::mem::MemTrace;
use cmpleak_cpu::Workload;
use std::io;
use std::path::Path;

impl MemTrace {
    /// Capacity for one core's encoded stream, large enough that
    /// recording any in-tree workload never grows it: one byte per
    /// instruction, plus 64 B for the long address deltas of the first
    /// ops. The in-tree workloads record at most 0.90 B per instruction
    /// at budgets of 1,000 instructions and up (0.84 B from 100,000 up),
    /// and 18 B at a budget of 10. A buffer that grows leaves its
    /// outgrown copies to the allocator; a buffer sized once is a single
    /// allocation, whose unwritten tail the recording never touches.
    pub fn stream_capacity_hint(min_instructions: u64) -> usize {
        min_instructions as usize + 64
    }

    /// Pull ops from `wl` until their cumulative instruction count
    /// reaches `min_instructions`, encoding them into `bytes` (cleared
    /// first) as the next core's stream. Returns the recorded stream's
    /// metadata.
    ///
    /// This captures the exact op prefix any simulation with a budget
    /// `≤ min_instructions` will fetch: the core model stops pulling ops
    /// once its budget is dispatched (the budget-cursor contract on
    /// [`Workload`]).
    pub fn record_core_in(
        &mut self,
        wl: &mut dyn Workload,
        min_instructions: u64,
        mut bytes: Vec<u8>,
    ) -> &CoreStreamInfo {
        let mut enc = OpEncoder::new();
        bytes.clear();
        let (mut ops, mut instructions) = (0u64, 0u64);
        while instructions < min_instructions {
            let op = wl.next_op();
            enc.encode(op, &mut bytes);
            ops += 1;
            instructions += op.instructions();
        }
        self.cores.push(CoreStreamInfo {
            name: wl.name().to_string(),
            ops,
            instructions,
            len: bytes.len() as u64,
        });
        self.streams.push(bytes);
        // audit:allow(unwrap-in-lib, a CoreStreamInfo was pushed two statements above)
        self.cores.last().expect("just pushed")
    }

    /// Serialize as a complete CMPT v1 file image: the header, then the
    /// streams in core order.
    pub fn to_file_bytes(&self) -> Vec<u8> {
        let mut out = self.header().encode();
        for s in &self.streams {
            out.extend_from_slice(s);
        }
        out
    }

    /// Save the trace file to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_file_bytes())
    }
}

#[cfg(test)]
mod tests {
    use crate::mem::tests::pair;
    use crate::mem::MemTrace;
    use cmpleak_cpu::{ReplayWorkload, TraceOp};

    #[test]
    fn records_until_budget_is_covered() {
        let mut wl = ReplayWorkload::named(
            "t",
            vec![TraceOp::Exec(3), TraceOp::Load(64), TraceOp::Store(128)],
        );
        let mut trace = MemTrace::new("unit", 1);
        let info = trace.record_core_in(&mut wl, 10, Vec::new());
        // Cycle of 5 instructions: 10 requires exactly two full cycles.
        assert_eq!(info.instructions, 10);
        assert_eq!(info.ops, 6);
        assert_eq!(info.name, "t");
    }

    #[test]
    fn file_layout_matches_header_offsets() {
        let trace = pair("two", 7, 9);
        let bytes = trace.to_file_bytes();
        let header = trace.header();
        let total: u64 = header.byte_len() + header.cores.iter().map(|c| c.len).sum::<u64>();
        assert_eq!(bytes.len() as u64, total);
        assert_eq!(header.stream_offset(1), header.byte_len() + header.cores[0].len);
        let at = header.stream_offset(1) as usize;
        assert_eq!(&bytes[at..], trace.stream(1), "core 1's stream sits at its offset");
    }
}

//! The one trace type: a recording held in memory, replayed through
//! cheap per-core cursors.
//!
//! A [`MemTrace`] holds exactly what a `.cmpt` file holds — the CMPT v1
//! op encoding (one LEB128 varint per op, zigzag delta-encoded
//! addresses, ≈2 bytes/op) plus the per-core [`CoreStreamInfo`]
//! metadata. It is recorded from live workloads
//! ([`MemTrace::record_core_in`]), saved as a CMPT file
//! ([`MemTrace::save`]) and loaded back ([`MemTrace::open`]), so the
//! sweep's shared streams and the file tooling share one type and one
//! replay path.
//!
//! Replay is a [`MemTraceCursor`] per core: an `Arc` handle on the
//! shared trace plus a decode position and a [`BATCH`]-sized local op
//! buffer (~16 KB), so any number of simulations — across worker
//! threads — replay the same recording concurrently, each paying only
//! a cursor instead of a stream copy. The cursor is a finite
//! [`Workload`] that panics with a diagnostic past the recorded budget:
//! under the budget-cursor contract documented on `Workload`, a
//! recording that covers the budget covers every fetch of every cell
//! that replays it — the bit-identity property pinned by
//! `tests/stream_sharing.rs` and the cursor-vs-live proptests in
//! `crates/cpu/tests/`.

use crate::format::{CoreStreamInfo, OpDecoder, TraceHeader, VERSION};
use cmpleak_cpu::{TraceOp, Workload};
use cmpleak_mem::BankArena;
use std::sync::Arc;

/// A recorded trace held in memory: CMPT v1 encoded per-core streams
/// plus their metadata.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemTrace {
    pub(crate) label: String,
    pub(crate) seed: u64,
    pub(crate) cores: Vec<CoreStreamInfo>,
    pub(crate) streams: Vec<Vec<u8>>,
}

impl MemTrace {
    /// An empty recording labelled `label` for streams generated under
    /// `seed`. Record cores in core order with
    /// [`record_core_in`](Self::record_core_in).
    pub fn new(label: impl Into<String>, seed: u64) -> Self {
        Self { label: label.into(), seed, cores: Vec::new(), streams: Vec::new() }
    }

    /// The same recording under another label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Hand the stream buffers back to `arena`. The trace becomes empty.
    pub fn release_into(&mut self, arena: &mut BankArena) {
        for s in self.streams.drain(..) {
            arena.give_u8(s);
        }
        self.cores.clear();
    }

    /// Scenario label of the recording.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Seed the recorded streams were generated with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of per-core streams.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Metadata of `core`'s stream.
    pub fn core_info(&self, core: usize) -> &CoreStreamInfo {
        &self.cores[core]
    }

    /// Smallest per-core instruction coverage — the largest budget this
    /// trace can drive without exhausting a stream.
    pub fn min_core_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).min().unwrap_or(0)
    }

    /// Total encoded stream bytes (the memory cost of sharing this
    /// recording, excluding the header-equivalent metadata).
    pub fn stream_bytes(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// The encoded byte stream of `core` (the payload a file stores at
    /// [`TraceHeader::stream_offset`]).
    pub fn stream(&self, core: usize) -> &[u8] {
        &self.streams[core]
    }

    /// The header a file written from this trace would carry.
    pub fn header(&self) -> TraceHeader {
        TraceHeader {
            version: VERSION,
            label: self.label.clone(),
            seed: self.seed,
            cores: self.cores.clone(),
        }
    }

    /// A replay cursor over `core`'s stream of the shared trace.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn cursor(self: &Arc<Self>, core: usize) -> MemTraceCursor {
        assert!(core < self.n_cores(), "trace has {} cores, requested {core}", self.n_cores());
        MemTraceCursor {
            total_ops: self.cores[core].ops,
            trace: Arc::clone(self),
            core,
            pos: 0,
            decoded: 0,
            served: 0,
            dec: OpDecoder::new(),
            batch: [TraceOp::Exec(0); BATCH],
            head: 0,
            len: 0,
        }
    }
}

/// Ops decoded per refill of a cursor's local batch. Sized so the
/// shared buffer's pointer chain (`Arc` → stream column) is walked once
/// per batch instead of once per op — in simulation, `next_op` calls
/// interleave with cache and bus work, so the per-op path must be a
/// plain array read to compete with the generators' queues — and large
/// enough that the decode loop's branch history re-warms inside one
/// refill (16 KB of decoded ops per cursor).
const BATCH: usize = 1024;

/// A seekable per-core replay cursor over a shared [`MemTrace`].
///
/// Decodes the core's stream in place (no copy), a [`BATCH`] of ops at
/// a time into a local buffer; cloning the `Arc`'d trace handle plus
/// the buffer is the only per-cursor cost. The stream is finite — it
/// covers at least the instruction budget it was recorded for; driving
/// it further panics with a diagnostic, because silently looping would
/// break the bit-identity contract.
#[derive(Debug, Clone)]
pub struct MemTraceCursor {
    trace: Arc<MemTrace>,
    core: usize,
    /// Byte position in the encoded stream.
    pos: usize,
    /// Ops decoded from the stream into batches so far.
    decoded: u64,
    /// Ops handed out so far.
    served: u64,
    total_ops: u64,
    dec: OpDecoder,
    batch: [TraceOp; BATCH],
    head: usize,
    len: usize,
}

impl MemTraceCursor {
    /// Ops in the underlying stream.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Σ `op.instructions()` over the stream — the largest simulation
    /// budget this cursor can drive.
    pub fn total_instructions(&self) -> u64 {
        self.trace.cores[self.core].instructions
    }

    /// Ops handed out so far.
    pub fn ops_read(&self) -> u64 {
        self.served
    }

    /// Seek back to the start of the stream (delta state reset), ready
    /// to replay again.
    pub fn rewind(&mut self) {
        self.pos = 0;
        self.decoded = 0;
        self.served = 0;
        self.dec = OpDecoder::new();
        self.head = 0;
        self.len = 0;
    }

    /// Refill the local batch from the shared stream (one walk of the
    /// `Arc` chain per [`BATCH`] ops, through the fast batch decoder).
    #[cold]
    fn refill(&mut self) {
        let stream = &self.trace.streams[self.core];
        let take = (self.total_ops - self.decoded).min(BATCH as u64) as usize;
        let got = self.dec.decode_batch(stream, &mut self.pos, &mut self.batch[..take]);
        assert_eq!(got, take, "stream shorter than its recorded op count");
        self.decoded += take as u64;
        self.head = 0;
        self.len = take;
    }

    /// Decode the next op, or `None` at end of stream.
    #[inline]
    pub fn try_next_op(&mut self) -> Option<TraceOp> {
        if self.head == self.len {
            if self.served >= self.total_ops {
                return None;
            }
            self.refill();
        }
        let op = self.batch[self.head];
        self.head += 1;
        self.served += 1;
        Some(op)
    }
}

impl Workload for MemTraceCursor {
    fn next_op(&mut self) -> TraceOp {
        self.try_next_op().unwrap_or_else(|| {
            let info = &self.trace.cores[self.core];
            // audit:allow(unwrap-in-lib, contract violation: the recording covered the requested budget by construction, so exhaustion is a caller bug worth aborting on)
            panic!(
                "trace stream '{}' (core {}) exhausted after {} ops / {} instructions — it was \
                 recorded for a smaller instruction budget than this simulation requests",
                info.name, self.core, info.ops, info.instructions
            )
        })
    }

    fn name(&self) -> &str {
        &self.trace.cores[self.core].name
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cmpleak_cpu::ReplayWorkload;

    fn alpha() -> ReplayWorkload {
        ReplayWorkload::named(
            "alpha",
            vec![TraceOp::Exec(2), TraceOp::Load(0x40), TraceOp::Store(0x80)],
        )
    }

    fn beta() -> ReplayWorkload {
        ReplayWorkload::named("beta", vec![TraceOp::Load(0x1000), TraceOp::Exec(5)])
    }

    /// Record `alpha` and `beta` as cores 0 and 1, each covering
    /// `min_instructions`.
    pub(crate) fn pair(label: &str, seed: u64, min_instructions: u64) -> MemTrace {
        let mut t = MemTrace::new(label, seed);
        t.record_core_in(&mut alpha(), min_instructions, Vec::new());
        t.record_core_in(&mut beta(), min_instructions, Vec::new());
        t
    }

    #[test]
    fn cursors_replay_the_recorded_prefix() {
        let trace = Arc::new(pair("pair", 3, 16));
        assert_eq!(trace.n_cores(), 2);
        for (core, mut live) in [alpha(), beta()].into_iter().enumerate() {
            let mut cur = trace.cursor(core);
            assert_eq!(Workload::name(&cur), live.name());
            assert!(cur.total_instructions() >= 16);
            for _ in 0..cur.total_ops() {
                assert_eq!(cur.next_op(), live.next_op(), "core {core}");
            }
            assert!(cur.try_next_op().is_none());
        }
    }

    #[test]
    fn cursor_rewind_restarts_the_stream() {
        let trace = Arc::new(pair("pair", 3, 12));
        let mut cur = trace.cursor(0);
        let first: Vec<TraceOp> = (0..cur.total_ops()).map(|_| cur.next_op()).collect();
        cur.rewind();
        let second: Vec<TraceOp> = (0..cur.total_ops()).map(|_| cur.next_op()).collect();
        assert_eq!(first, second, "rewind must reset position and delta state");
    }

    #[test]
    fn release_returns_stream_buffers_to_the_arena() {
        let mut arena = BankArena::default();
        let hint = MemTrace::stream_capacity_hint(1000);
        let record = |arena: &mut BankArena| {
            let mut t = MemTrace::new("pair", 3);
            t.record_core_in(&mut alpha(), 1000, arena.take_u8_empty(hint));
            t.record_core_in(&mut beta(), 1000, arena.take_u8_empty(hint));
            t
        };
        let mut trace = record(&mut arena);
        let returns_before = arena.stats().returns;
        trace.release_into(&mut arena);
        assert_eq!(arena.stats().returns, returns_before + 2, "both stream buffers pooled");
        assert_eq!(trace.n_cores(), 0);
        // A second recording of the same shape reuses the pooled buffers.
        let fresh_before = arena.stats().fresh_allocations;
        let _again = record(&mut arena);
        assert_eq!(arena.stats().fresh_allocations, fresh_before, "streams served from the pool");
    }

    #[test]
    fn fill_ops_matches_next_op_with_interleaving() {
        // A cursor fills its local op batch through the batch decoder.
        // Two cursors over one shared stream, stepped in interleaved
        // odd-sized runs so their refills land at different points, must
        // each hand out exactly what sequential decode yields.
        let trace = Arc::new(pair("pair", 3, 4000));
        let (mut dec, mut pos, stream) = (OpDecoder::new(), 0, trace.stream(0));
        let want: Vec<TraceOp> = std::iter::from_fn(|| dec.decode(stream, &mut pos)).collect();
        assert_eq!(want.len() as u64, trace.core_info(0).ops);
        assert!(want.len() > 2 * BATCH, "the stream must span several refills");
        let (mut a, mut b) = (trace.cursor(0), trace.cursor(0));
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        while got_b.len() < want.len() {
            got_a.extend((0..7).map_while(|_| a.try_next_op()));
            got_b.push(b.next_op());
        }
        assert_eq!(got_a, want, "the 7-op cursor diverged");
        assert_eq!(got_b, want, "the single-op cursor diverged");
        assert!(a.try_next_op().is_none() && b.try_next_op().is_none());
        assert_eq!((a.ops_read(), b.ops_read()), (a.total_ops(), b.total_ops()));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics_with_diagnostic() {
        let trace = Arc::new(pair("pair", 3, 8));
        let mut cur = trace.cursor(1);
        for _ in 0..=cur.total_ops() {
            cur.next_op();
        }
    }
}

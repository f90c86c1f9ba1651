//! In-memory traces: record a workload set once, replay it through
//! cheap per-core cursors — no file round-trip.
//!
//! A [`MemTrace`] holds exactly what a `.cmpt` file holds — the CMPT v1
//! op encoding (one LEB128 varint per op, zigzag delta-encoded
//! addresses, ≈2 bytes/op) plus the per-core [`CoreStreamInfo`]
//! metadata — but keeps the encoded streams as pooled `u8` columns
//! checked out of a [`BankArena`], so a sweep that records one trace per
//! (scenario, seed, budget) group reuses the stream buffers the same way
//! the caches reuse their per-line columns. [`MemTrace::to_file_bytes`]
//! emits a byte-identical CMPT file image, so an in-memory trace can be
//! persisted or inspected with the existing file tooling at any time.
//!
//! Replay is a [`MemTraceCursor`] per core: an `Arc` handle on the
//! shared trace plus a decode position and a [`BATCH`]-sized local op
//! buffer (~16 KB), so any number of simulations — across worker
//! threads — replay the same recording concurrently, each paying only
//! a cursor instead of a stream copy.
//! The cursor implements [`Workload`] (finite, panicking past the
//! recorded budget with a diagnostic, exactly like
//! [`TraceWorkload`](crate::TraceWorkload)) and therefore the
//! `cmpleak_cpu::OpSource` delivery contract: the core model fetches
//! ops only while its instruction budget is uncovered, so a recording
//! that covers the budget covers every fetch of every cell that replays
//! it — the bit-identity property pinned by `tests/stream_sharing.rs`
//! and the cursor-vs-live proptests in `crates/cpu/tests/`.

use crate::format::{CoreStreamInfo, OpDecoder, OpEncoder, TraceHeader, VERSION};
use cmpleak_cpu::{TraceOp, Workload};
use cmpleak_mem::BankArena;
use std::sync::Arc;

/// A recorded trace held in memory: CMPT v1 encoded per-core streams
/// over arena-pooled byte columns.
#[derive(Debug, Clone, Default)]
pub struct MemTrace {
    label: String,
    seed: u64,
    cores: Vec<CoreStreamInfo>,
    streams: Vec<Vec<u8>>,
}

impl MemTrace {
    /// An empty recording labelled `label` for streams generated under
    /// `seed`. Record cores in core order with
    /// [`record_core`](Self::record_core).
    pub fn new(label: impl Into<String>, seed: u64) -> Self {
        Self { label: label.into(), seed, cores: Vec::new(), streams: Vec::new() }
    }

    /// Record one stream per workload (core order), each covering
    /// `min_instructions` instructions, with stream buffers checked out
    /// of `arena`.
    pub fn record(
        label: impl Into<String>,
        seed: u64,
        workloads: &mut [Box<dyn Workload>],
        min_instructions: u64,
        arena: &mut BankArena,
    ) -> Self {
        let mut t = Self::new(label, seed);
        for wl in workloads.iter_mut() {
            t.record_core(wl.as_mut(), min_instructions, arena);
        }
        t
    }

    /// Pull ops from `wl` until their cumulative instruction count
    /// reaches `min_instructions`, encoding them as the next core's
    /// stream into a buffer checked out of `arena`. Returns the recorded
    /// stream's metadata.
    ///
    /// This captures the exact op prefix any simulation with a budget
    /// `≤ min_instructions` will fetch: the core model stops pulling ops
    /// once its budget is dispatched (see `cmpleak_cpu::OpSource`).
    pub fn record_core(
        &mut self,
        wl: &mut dyn Workload,
        min_instructions: u64,
        arena: &mut BankArena,
    ) -> &CoreStreamInfo {
        let bytes = arena.take_u8_empty(Self::stream_capacity_hint(min_instructions));
        self.record_core_in(wl, min_instructions, bytes)
    }

    /// Capacity hint for one core's encoded stream, from the generators'
    /// observed density (≈2 B/op at ≈3.5 instructions/op) — so best-fit
    /// matching finds a buffer of the right magnitude and a reused
    /// buffer rarely regrows.
    pub fn stream_capacity_hint(min_instructions: u64) -> usize {
        (min_instructions as usize / 2).max(64)
    }

    /// [`record_core`](Self::record_core) into a caller-provided buffer
    /// (cleared first) instead of an arena checkout. This is the
    /// lock-free recording path: a sweep worker checks its buffers out
    /// of the shared pool under one brief lock, then records here
    /// without touching the pool again.
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

    /// Serialize as a complete CMPT v1 file image, byte-identical to
    /// recording the same streams through `TraceRecorder` — the
    /// interchange path between in-memory sharing and the file tooling.
    pub fn to_file_bytes(&self) -> Vec<u8> {
        let mut out = self.header().encode();
        for s in &self.streams {
            out.extend_from_slice(s);
        }
        out
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
/// it further panics with a diagnostic, like file replay, because
/// silently looping would break the bit-identity contract.
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
                "shared stream '{}' (core {}) exhausted after {} ops / {} instructions — it was \
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
mod tests {
    use super::*;
    use crate::reader::TraceFile;
    use crate::writer::TraceRecorder;
    use cmpleak_cpu::ReplayWorkload;

    type Workloads = Vec<Box<dyn Workload>>;

    fn pair() -> (Workloads, Workloads) {
        let mk = || -> Workloads {
            vec![
                Box::new(ReplayWorkload::named(
                    "alpha",
                    vec![TraceOp::Exec(2), TraceOp::Load(0x40), TraceOp::Store(0x80)],
                )),
                Box::new(ReplayWorkload::named(
                    "beta",
                    vec![TraceOp::Load(0x1000), TraceOp::Exec(5)],
                )),
            ]
        };
        (mk(), mk())
    }

    #[test]
    fn cursors_replay_the_recorded_prefix() {
        let (mut rec_wls, mut live_wls) = pair();
        let mut arena = BankArena::default();
        let trace = Arc::new(MemTrace::record("pair", 3, &mut rec_wls, 16, &mut arena));
        assert_eq!(trace.n_cores(), 2);
        for (core, live) in live_wls.iter_mut().enumerate() {
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
        let (mut wls, _) = pair();
        let mut arena = BankArena::default();
        let trace = Arc::new(MemTrace::record("pair", 3, &mut wls, 12, &mut arena));
        let mut cur = trace.cursor(0);
        let first: Vec<TraceOp> = (0..cur.total_ops()).map(|_| cur.next_op()).collect();
        cur.rewind();
        let second: Vec<TraceOp> = (0..cur.total_ops()).map(|_| cur.next_op()).collect();
        assert_eq!(first, second, "rewind must reset position and delta state");
    }

    #[test]
    fn file_image_matches_trace_recorder_byte_for_byte() {
        let (mut a, mut b) = pair();
        let mut arena = BankArena::default();
        let mem = MemTrace::record("pair", 7, &mut a, 20, &mut arena);
        let mut rec = TraceRecorder::new("pair", 7);
        for wl in b.iter_mut() {
            rec.record_core(wl.as_mut(), 20);
        }
        assert_eq!(mem.to_file_bytes(), rec.to_bytes());
        // And the image opens as a regular trace file.
        let tf = TraceFile::from_bytes(mem.to_file_bytes()).unwrap();
        assert_eq!(tf.label(), "pair");
        assert_eq!(tf.min_core_instructions(), mem.min_core_instructions());
    }

    #[test]
    fn release_returns_stream_buffers_to_the_arena() {
        let (mut wls, _) = pair();
        let mut arena = BankArena::default();
        let mut trace = MemTrace::record("pair", 3, &mut wls, 1000, &mut arena);
        let returns_before = arena.stats().returns;
        trace.release_into(&mut arena);
        assert_eq!(arena.stats().returns, returns_before + 2, "both stream buffers pooled");
        assert_eq!(trace.n_cores(), 0);
        // A second recording of the same shape reuses the pooled buffers.
        let (mut wls2, _) = pair();
        let fresh_before = arena.stats().fresh_allocations;
        let _again = MemTrace::record("pair", 3, &mut wls2, 1000, &mut arena);
        assert_eq!(arena.stats().fresh_allocations, fresh_before, "streams served from the pool");
    }

    #[test]
    fn fill_ops_matches_next_op_with_interleaving() {
        // A cursor fills its local op batch through the batch decoder.
        // Two cursors over one shared stream, stepped in interleaved
        // odd-sized runs so their refills land at different points, must
        // each hand out exactly what op-at-a-time decode yields.
        let (mut wls, _) = pair();
        let mut arena = BankArena::default();
        let trace = Arc::new(MemTrace::record("pair", 3, &mut wls, 4000, &mut arena));
        let tf = TraceFile::from_bytes(trace.to_file_bytes()).unwrap();
        let mut one_by_one = tf.core_workload(0).unwrap();
        let want: Vec<TraceOp> =
            (0..one_by_one.total_ops()).map(|_| one_by_one.next_op()).collect();
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
        let (mut wls, _) = pair();
        let mut arena = BankArena::default();
        let trace = Arc::new(MemTrace::record("pair", 3, &mut wls, 8, &mut arena));
        let mut cur = trace.cursor(1);
        for _ in 0..=cur.total_ops() {
            cur.next_op();
        }
    }
}

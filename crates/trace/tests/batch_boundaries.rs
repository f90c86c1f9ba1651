//! Adversarial-boundary differential for [`OpDecoder::decode_batch`]
//! against sequential [`OpDecoder::decode`].
//!
//! The generic batch-vs-sequential property lives in
//! `tests/roundtrip.rs`; this file targets the three boundaries where
//! the batched fast path hands over to other code paths, because that is
//! where a cursor bookkeeping slip would hide:
//!
//! * a **1-byte op landing exactly on the final byte** of the stream —
//!   the 2-byte fast-path window no longer fits and the tail loop must
//!   finish the op;
//! * **≥3-byte varints mid-batch** (huge exec bursts, huge address
//!   jumps) — the fast path must bail to the generic decoder for that op
//!   only and resume batching after it;
//! * **corrupt ops at the batch edge** — the batch must stop with the
//!   cursor exactly one varint past the corruption, byte-for-byte where
//!   repeated sequential decode stops.
//!
//! Every property pins both the decoded ops *and* the cursor position —
//! not just at the end of the stream but after every refill, because
//! `MemTraceCursor` refills its local batch incrementally and any
//! intermediate cursor drift would corrupt every later delta-decoded
//! address.

use cmpleak_cpu::TraceOp;
use cmpleak_trace::{OpDecoder, OpEncoder};
use proptest::prelude::*;

/// Append `v` as an LEB128 varint (the format's encoding, hand-rolled so
/// the tests can construct corrupt keys `OpEncoder` refuses to emit).
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Drive a batch decoder and a sequential decoder through `buf` in
/// `chunk`-op refills, asserting identical ops and an identical cursor
/// after **every** refill, then identical final cursors once the batch
/// side stops short (end of stream or corruption). Returns the decoded
/// ops and the final cursor.
fn assert_lockstep(buf: &[u8], chunk: usize) -> (Vec<TraceOp>, usize) {
    let mut seq = OpDecoder::new();
    let mut sp = 0usize;
    let mut bat = OpDecoder::new();
    let mut bp = 0usize;
    let mut all = Vec::new();
    let mut out = vec![TraceOp::Exec(0); chunk];
    loop {
        let n = bat.decode_batch(buf, &mut bp, &mut out);
        for (i, op) in out[..n].iter().enumerate() {
            let s = seq.decode(buf, &mut sp);
            assert_eq!(Some(*op), s, "op {} of a refill diverged", all.len() + i);
        }
        all.extend_from_slice(&out[..n]);
        if n < chunk {
            // The batch stopped short: sequential decode must stop at
            // the very next op, and consuming that `None` (which walks
            // past a corrupt varint, exactly like the batch path) must
            // land both cursors on the same byte.
            assert_eq!(seq.decode(buf, &mut sp), None, "sequential decode kept going");
            assert_eq!(bp, sp, "final cursors diverged (chunk {chunk})");
            return (all, bp);
        }
        assert_eq!(bp, sp, "cursors diverged after a full {chunk}-op refill");
    }
}

fn small_ops() -> impl Strategy<Value = Vec<TraceOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..1 << 20).prop_map(TraceOp::Exec),
            any::<u64>().prop_map(|a| TraceOp::Load(a >> 4)),
            any::<u64>().prop_map(|a| TraceOp::Store(a >> 4)),
        ],
        0..40,
    )
}

proptest! {
    /// A 1-byte op whose encoding is the stream's final byte decodes via
    /// the tail loop (no 2-byte window left) with the cursor ending
    /// exactly at `buf.len()`, for every batch size and prefix.
    #[test]
    fn one_byte_op_on_the_final_byte(
        prefix in small_ops(),
        last_exec in 0u32..32,
        mem_last in any::<bool>(),
        chunk in 1usize..48,
    ) {
        let mut enc = OpEncoder::new();
        let mut buf = Vec::new();
        // Mirror the encoder's delta state so the trailing memory op can
        // be given a small delta (→ a 1-byte varint) from any prefix.
        let mut prev = 0u64;
        for &op in &prefix {
            if let TraceOp::Load(a) | TraceOp::Store(a) = op {
                prev = a;
            }
            enc.encode(op, &mut buf);
        }
        let last =
            if mem_last { TraceOp::Load(prev.wrapping_add(4)) } else { TraceOp::Exec(last_exec) };
        let before = buf.len();
        enc.encode(last, &mut buf);
        prop_assert_eq!(buf.len(), before + 1, "the trailing op must encode to 1 byte");

        let (ops, end) = assert_lockstep(&buf, chunk);
        prop_assert_eq!(ops.len(), prefix.len() + 1);
        prop_assert_eq!(ops.last().copied(), Some(last));
        prop_assert_eq!(end, buf.len());
    }

    /// ≥3-byte varints interleaved mid-batch (huge exec bursts and huge
    /// address jumps): the fast path bails to the generic decoder for
    /// those ops only, with no cursor drift at any refill boundary.
    #[test]
    fn long_varints_mid_batch(
        ops in proptest::collection::vec(
            prop_oneof![
                (0u32..64).prop_map(TraceOp::Exec),
                // key = n << 2 ≥ 2^16 → at least a 3-byte varint.
                ((1u32 << 14)..u32::MAX).prop_map(TraceOp::Exec),
                ((1u64 << 21)..(1 << 44)).prop_map(TraceOp::Load),
                (0u64..(1 << 44)).prop_map(TraceOp::Store),
            ],
            1..120,
        ),
        chunk in 1usize..70,
    ) {
        let mut enc = OpEncoder::new();
        let mut buf = Vec::new();
        for &op in &ops {
            enc.encode(op, &mut buf);
        }
        let (decoded, end) = assert_lockstep(&buf, chunk);
        prop_assert_eq!(decoded, ops);
        prop_assert_eq!(end, buf.len());
    }

    /// A corrupt varint after `good` well-formed ops: by sweeping `good`
    /// against `chunk` the corruption lands at every in-batch offset,
    /// including the first and last slot of a refill. The batch stops
    /// with the cursor one varint past the corruption — not at the
    /// stream end — and byte-identical to sequential decode.
    #[test]
    fn corrupt_op_at_batch_edge(
        good in 0usize..48,
        chunk in 1usize..48,
        kind in 0usize..3,
    ) {
        let mut enc = OpEncoder::new();
        let mut buf = Vec::new();
        let mut expect = Vec::new();
        for i in 0..good {
            let op = if i % 2 == 0 {
                TraceOp::Exec(3)
            } else {
                TraceOp::Load(0x1000 + i as u64 * 8)
            };
            expect.push(op);
            enc.encode(op, &mut buf);
        }
        match kind {
            0 => buf.push(0x03),                       // tag 3, 1-byte fast path
            1 => buf.extend_from_slice(&[0x83, 0x01]), // tag 3, 2-byte fast path
            // Exec payload > u32::MAX behind a long varint: the generic
            // path decodes the varint, then rejects the key.
            _ => push_varint(&mut buf, (u64::from(u32::MAX) + 1) << 2),
        }
        let after_corrupt = buf.len();
        enc.encode(TraceOp::Store(0x8000), &mut buf); // bytes beyond the corruption

        let (ops, end) = assert_lockstep(&buf, chunk);
        prop_assert_eq!(ops, expect);
        prop_assert_eq!(end, after_corrupt, "cursor must stop one varint past the corruption");
    }
}

#[test]
fn corrupt_final_byte_is_consumed_like_sequential_decode() {
    // Corruption in the tail position (the stream's last byte): the tail
    // loop consumes the bad varint and stops, cursor at end-of-stream.
    let mut enc = OpEncoder::new();
    let mut buf = Vec::new();
    for op in [TraceOp::Exec(7), TraceOp::Load(0x2000), TraceOp::Store(0x2040)] {
        enc.encode(op, &mut buf);
    }
    buf.push(0x03); // tag-3 key as the final byte
    let (ops, end) = assert_lockstep(&buf, 16);
    assert_eq!(ops, vec![TraceOp::Exec(7), TraceOp::Load(0x2000), TraceOp::Store(0x2040)]);
    assert_eq!(end, buf.len());
}

#[test]
fn truncated_trailing_varint_stops_both_decoders_at_the_same_byte() {
    // A continuation byte with no successor: both paths walk to the end
    // of the buffer looking for the terminator and stop there.
    let mut enc = OpEncoder::new();
    let mut buf = Vec::new();
    enc.encode(TraceOp::Exec(500_000), &mut buf); // multi-byte varint
    buf.push(0x80); // dangling continuation byte
    let (ops, end) = assert_lockstep(&buf, 8);
    assert_eq!(ops, vec![TraceOp::Exec(500_000)]);
    assert_eq!(end, buf.len());
}

//! The versioned on-disk record: `SimStats` + `PowerReport` in a fixed
//! little-endian binary layout, wrapped in a checked header.
//!
//! Layout (schema 2, all integers little-endian):
//!
//! ```text
//! offset 0   magic          b"CMPS"
//!        4   schema         u32   (STORE_SCHEMA_VERSION)
//!        8   payload_len    u64
//!        16  checksum       u64   (the hash kernel's checksum lane over
//!                                  the payload bytes, see crate::hash)
//!        24  key hash       2×u64 (the CellKey's 128-bit address)
//!        40  fingerprint    u64 len + bytes (code fingerprint)
//!        …   meta           u64 len + bytes (CellKey descriptor)
//!        …   payload        encoded SimStats + PowerReport
//! ```
//!
//! The first 16 bytes give the record's whole length (every later
//! header field is fixed by the requesting key), so a load reads the
//! file into one buffer sized once. Schema 1 had the same fields with
//! the payload length and checksum last and an FNV-1a checksum; its
//! records fail the schema check and load as misses.
//!
//! Decoding is *fully defensive*: every read is bounds-checked, every
//! header field is verified against the requesting key and the current
//! build, vector lengths are sanity-capped against the remaining bytes,
//! and trailing garbage is rejected. Any anomaly — truncation, bit
//! corruption, schema or fingerprint skew, a colliding-but-different
//! key — returns `None`, which callers treat as a cache miss. A record
//! can therefore change *latency*, never *results*.

use crate::hash::{checksum, code_fingerprint, CellKey, STORE_SCHEMA_VERSION};
use cmpleak_power::{EnergyBreakdown, PowerReport};
use cmpleak_system::{CoreStats, IntervalActivity, L1Stats, L2Stats, SimStats};

/// One cell loaded back out of the store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredCell {
    /// The simulator statistics, bit-identical to the run that
    /// published them.
    pub stats: SimStats,
    /// The energy/thermal evaluation of that run.
    pub power: PowerReport,
}

const MAGIC: &[u8; 4] = b"CMPS";

/// Bytes of the magic, schema and payload length that open a record.
pub(crate) const PREFIX_LEN: usize = 16;

/// The whole length of `key`'s record whose first bytes are `prefix`,
/// or `None` if the magic or schema is wrong. The payload length is not
/// yet verified: a damaged one yields a length the read cannot fill.
pub(crate) fn record_len(prefix: &[u8; PREFIX_LEN], key: &CellKey) -> Option<usize> {
    let mut r = Reader::new(prefix);
    if r.take(4)? != MAGIC || r.u32()? != STORE_SCHEMA_VERSION {
        return None;
    }
    header_len(key).checked_add(usize::try_from(r.u64()?).ok()?)
}

/// The header length of `key`'s record: the prefix, the checksum, the
/// key hash, and the fingerprint and meta with their lengths.
fn header_len(key: &CellKey) -> usize {
    PREFIX_LEN + 8 + 16 + 8 + code_fingerprint().len() + 8 + key.meta.len()
}

// ---- encoding ---------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Words of one per-core row, one L1 row, one L2 row and one interval
/// row; the payload's run of totals after the rows, and of power
/// figures at its end. The encoders' arrays are typed by them, so
/// [`payload_len`] cannot drift from what is written.
const CORE_WORDS: usize = 6;
const L1_WORDS: usize = 6;
const L2_WORDS: usize = 14;
const INTERVAL_WORDS: usize = 11;
const TOTAL_WORDS: usize = 11;
const POWER_WORDS: usize = 11;

/// The exact encoded length of `stats`' payload: cycles and
/// instructions, five row counts, the rows, the core names with their
/// lengths, the totals and the power figures.
fn payload_len(stats: &SimStats) -> usize {
    let names: usize = stats.core_workloads.iter().map(|w| 8 + w.len()).sum();
    let words = 2
        + 5
        + stats.cores.len() * CORE_WORDS
        + stats.l1.len() * L1_WORDS
        + stats.l2.len() * L2_WORDS
        + stats.trace.len() * INTERVAL_WORDS
        + TOTAL_WORDS
        + POWER_WORDS;
    8 * words + names
}

fn put_core(out: &mut Vec<u8>, c: &CoreStats) {
    let words: [u64; CORE_WORDS] = [
        c.instructions,
        c.active_cycles,
        c.window_stall_cycles,
        c.reject_stall_cycles,
        c.loads,
        c.stores,
    ];
    for v in words {
        put_u64(out, v);
    }
}

fn put_l1(out: &mut Vec<u8>, s: &L1Stats) {
    let words: [u64; L1_WORDS] = [
        s.loads,
        s.load_hits,
        s.stores,
        s.store_hits,
        s.back_invalidations,
        s.technique_back_invalidations,
    ];
    for v in words {
        put_u64(out, v);
    }
}

fn put_l2(out: &mut Vec<u8>, s: &L2Stats) {
    let words: [u64; L2_WORDS] = [
        s.reads,
        s.writes,
        s.read_hits,
        s.write_hits,
        s.misses,
        s.induced_misses,
        s.snoop_invalidations,
        s.turnoffs_decay,
        s.turnoffs_protocol,
        s.dirty_decay_turnoffs,
        s.writebacks,
        s.evictions,
        s.fills,
        s.retries,
    ];
    for v in words {
        put_u64(out, v);
    }
}

fn put_interval(out: &mut Vec<u8>, iv: &IntervalActivity) {
    let words: [u64; INTERVAL_WORDS] = [
        iv.cycles,
        iv.instructions,
        iv.l1_accesses,
        iv.l2_reads,
        iv.l2_writes,
        iv.bus_transactions,
        iv.bus_bytes,
        iv.mem_bytes,
        iv.l2_powered_line_cycles,
        iv.l2_total_line_cycles,
        iv.decay_counter_events,
    ];
    for v in words {
        put_u64(out, v);
    }
}

/// Encode the payload: `SimStats` then `PowerReport`, field by field in
/// a fixed order.
pub fn encode_payload(stats: &SimStats, power: &PowerReport) -> Vec<u8> {
    let len = payload_len(stats);
    let mut out = Vec::with_capacity(len);
    put_u64(&mut out, stats.cycles);
    put_u64(&mut out, stats.instructions);
    put_u64(&mut out, stats.cores.len() as u64);
    for c in &stats.cores {
        put_core(&mut out, c);
    }
    put_u64(&mut out, stats.core_workloads.len() as u64);
    for w in &stats.core_workloads {
        put_str(&mut out, w);
    }
    put_u64(&mut out, stats.l1.len() as u64);
    for s in &stats.l1 {
        put_l1(&mut out, s);
    }
    put_u64(&mut out, stats.l2.len() as u64);
    for s in &stats.l2 {
        put_l2(&mut out, s);
    }
    let totals: [u64; TOTAL_WORDS] = [
        stats.l2_on_line_cycles,
        stats.l2_line_cycle_capacity,
        stats.loads_completed,
        stats.load_latency_sum,
        stats.bus_transactions,
        stats.bus_busy_cycles,
        stats.mem_fills,
        stats.mem_writebacks,
        stats.mem_bytes,
        stats.c2c_transfers,
        stats.upper_invalidations,
    ];
    for v in totals {
        put_u64(&mut out, v);
    }
    put_u64(&mut out, stats.trace.len() as u64);
    for iv in &stats.trace {
        put_interval(&mut out, iv);
    }
    let figures: [f64; POWER_WORDS] = [
        power.energy.core_dynamic_pj,
        power.energy.l1_dynamic_pj,
        power.energy.l2_dynamic_pj,
        power.energy.bus_dynamic_pj,
        power.energy.l2_leakage_pj,
        power.energy.other_leakage_pj,
        power.energy.decay_dynamic_pj,
        power.energy.decay_leakage_pj,
        power.avg_l2_temp_c,
        power.peak_temp_c,
        power.avg_power_w,
    ];
    for v in figures {
        put_f64(&mut out, v);
    }
    debug_assert_eq!(out.len(), len, "payload_len disagrees with the encoder");
    out
}

/// Encode a complete record for `key`.
pub fn encode_record(key: &CellKey, stats: &SimStats, power: &PowerReport) -> Vec<u8> {
    let payload = encode_payload(stats, power);
    let mut out = Vec::with_capacity(header_len(key) + payload.len());
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, STORE_SCHEMA_VERSION);
    put_u64(&mut out, payload.len() as u64);
    put_u64(&mut out, checksum(&payload));
    put_u64(&mut out, key.hash[0]);
    put_u64(&mut out, key.hash[1]);
    put_str(&mut out, code_fingerprint());
    put_str(&mut out, &key.meta);
    out.extend_from_slice(&payload);
    out
}

// ---- decoding ---------------------------------------------------------

/// Bounds-checked little-endian reader. Every accessor returns `None`
/// past the end instead of panicking — corrupt input must never abort.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.words().map(|[v]| v)
    }

    /// `K` consecutive `u64`s, behind one bounds check.
    fn words<const K: usize>(&mut self) -> Option<[u64; K]> {
        let bytes = self.take(8 * K)?;
        let mut out = [0; K];
        for (v, b) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        }
        Some(out)
    }

    /// A length-prefixed byte run, borrowed from the input.
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return None;
        }
        self.take(len as usize)
    }

    fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }

    /// A length-prefixed vector whose elements occupy at least
    /// `min_elem_bytes` each: the length is sanity-capped against the
    /// remaining input so corrupt lengths cannot drive huge
    /// allocations.
    fn vec_of<T>(
        &mut self,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let len = self.u64()?;
        if len.checked_mul(min_elem_bytes as u64)? > self.remaining() as u64 {
            return None;
        }
        let mut out = Vec::with_capacity(len as usize);
        for _ in 0..len {
            out.push(elem(self)?);
        }
        Some(out)
    }
}

fn get_core(r: &mut Reader<'_>) -> Option<CoreStats> {
    let [instructions, active_cycles, window_stall_cycles, reject_stall_cycles, loads, stores] =
        r.words()?;
    Some(CoreStats {
        instructions,
        active_cycles,
        window_stall_cycles,
        reject_stall_cycles,
        loads,
        stores,
    })
}

fn get_l1(r: &mut Reader<'_>) -> Option<L1Stats> {
    let [loads, load_hits, stores, store_hits, back_invalidations, technique_back_invalidations] =
        r.words()?;
    Some(L1Stats {
        loads,
        load_hits,
        stores,
        store_hits,
        back_invalidations,
        technique_back_invalidations,
    })
}

fn get_l2(r: &mut Reader<'_>) -> Option<L2Stats> {
    #[rustfmt::skip]
    let [
        reads, writes, read_hits, write_hits, misses, induced_misses, snoop_invalidations,
        turnoffs_decay, turnoffs_protocol, dirty_decay_turnoffs, writebacks, evictions, fills,
        retries,
    ] = r.words()?;
    Some(L2Stats {
        reads,
        writes,
        read_hits,
        write_hits,
        misses,
        induced_misses,
        snoop_invalidations,
        turnoffs_decay,
        turnoffs_protocol,
        dirty_decay_turnoffs,
        writebacks,
        evictions,
        fills,
        retries,
    })
}

fn get_interval(r: &mut Reader<'_>) -> Option<IntervalActivity> {
    #[rustfmt::skip]
    let [
        cycles, instructions, l1_accesses, l2_reads, l2_writes, bus_transactions, bus_bytes,
        mem_bytes, l2_powered_line_cycles, l2_total_line_cycles, decay_counter_events,
    ] = r.words()?;
    Some(IntervalActivity {
        cycles,
        instructions,
        l1_accesses,
        l2_reads,
        l2_writes,
        bus_transactions,
        bus_bytes,
        mem_bytes,
        l2_powered_line_cycles,
        l2_total_line_cycles,
        decay_counter_events,
    })
}

/// Decode a payload produced by [`encode_payload`]. Trailing bytes are
/// an error: a valid record is consumed exactly.
pub fn decode_payload(bytes: &[u8]) -> Option<StoredCell> {
    let mut r = Reader::new(bytes);
    let [cycles, instructions] = r.words()?;
    let cores = r.vec_of(48, get_core)?;
    let core_workloads = r.vec_of(8, |r| r.string())?;
    let l1 = r.vec_of(48, get_l1)?;
    let l2 = r.vec_of(112, get_l2)?;
    #[rustfmt::skip]
    let [
        l2_on_line_cycles, l2_line_cycle_capacity, loads_completed, load_latency_sum,
        bus_transactions, bus_busy_cycles, mem_fills, mem_writebacks, mem_bytes, c2c_transfers,
        upper_invalidations,
    ] = r.words()?;
    let trace = r.vec_of(88, get_interval)?;
    #[rustfmt::skip]
    let [
        core_dynamic_pj, l1_dynamic_pj, l2_dynamic_pj, bus_dynamic_pj, l2_leakage_pj,
        other_leakage_pj, decay_dynamic_pj, decay_leakage_pj, avg_l2_temp_c, peak_temp_c,
        avg_power_w,
    ] = r.words()?.map(f64::from_bits);
    let energy = EnergyBreakdown {
        core_dynamic_pj,
        l1_dynamic_pj,
        l2_dynamic_pj,
        bus_dynamic_pj,
        l2_leakage_pj,
        other_leakage_pj,
        decay_dynamic_pj,
        decay_leakage_pj,
    };
    let power = PowerReport { energy, avg_l2_temp_c, peak_temp_c, avg_power_w };
    if r.remaining() != 0 {
        return None;
    }
    Some(StoredCell {
        stats: SimStats {
            cycles,
            instructions,
            cores,
            core_workloads,
            l1,
            l2,
            l2_on_line_cycles,
            l2_line_cycle_capacity,
            loads_completed,
            load_latency_sum,
            bus_transactions,
            bus_busy_cycles,
            mem_fills,
            mem_writebacks,
            mem_bytes,
            c2c_transfers,
            upper_invalidations,
            trace,
        },
        power,
    })
}

/// Decode a complete record, verifying every header field against the
/// requesting `key` and the current build. Any mismatch is `None`.
pub fn decode_record(bytes: &[u8], key: &CellKey) -> Option<StoredCell> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != MAGIC || r.u32()? != STORE_SCHEMA_VERSION {
        return None;
    }
    let (payload_len, sum) = (r.u64()?, r.u64()?);
    if [r.u64()?, r.u64()?] != key.hash
        || r.bytes()? != code_fingerprint().as_bytes()
        || r.bytes()? != key.meta.as_bytes()
        || payload_len != r.remaining() as u64
    {
        return None;
    }
    let payload = r.take(r.remaining())?;
    if checksum(payload) != sum {
        return None;
    }
    decode_payload(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::KeyHasher;

    fn sample() -> (SimStats, PowerReport) {
        let stats = SimStats {
            cycles: 123_456,
            instructions: 240_000,
            cores: vec![
                CoreStats {
                    instructions: 120_000,
                    active_cycles: 100_000,
                    window_stall_cycles: 5_000,
                    reject_stall_cycles: 7,
                    loads: 30_000,
                    stores: 10_000,
                },
                CoreStats { instructions: 120_000, ..Default::default() },
            ],
            core_workloads: vec!["FMM".into(), "bursty".into()],
            l1: vec![L1Stats { loads: 30_000, load_hits: 29_000, ..Default::default() }; 2],
            l2: vec![
                L2Stats {
                    reads: 1_000,
                    writes: 400,
                    misses: 55,
                    turnoffs_decay: 12,
                    retries: 3,
                    ..Default::default()
                };
                2
            ],
            l2_on_line_cycles: 999,
            l2_line_cycle_capacity: 1234,
            loads_completed: 29_990,
            load_latency_sum: 120_011,
            bus_transactions: 77,
            bus_busy_cycles: 450,
            mem_fills: 40,
            mem_writebacks: 11,
            mem_bytes: 3264,
            c2c_transfers: 5,
            upper_invalidations: 9,
            trace: vec![
                IntervalActivity {
                    cycles: 10_000,
                    instructions: 20_000,
                    l2_powered_line_cycles: 88,
                    l2_total_line_cycles: 100,
                    ..Default::default()
                },
                IntervalActivity { cycles: 3_456, ..Default::default() },
            ],
        };
        let power = PowerReport {
            energy: EnergyBreakdown {
                core_dynamic_pj: 1.5e9,
                l1_dynamic_pj: 2.5e8,
                l2_dynamic_pj: 1.25e8,
                bus_dynamic_pj: 1.0e7,
                l2_leakage_pj: 4.0e8,
                other_leakage_pj: 6.0e6,
                decay_dynamic_pj: 1.0e5,
                decay_leakage_pj: 2.0e5,
            },
            avg_l2_temp_c: 58.25,
            peak_temp_c: 61.0,
            avg_power_w: 12.5,
        };
        (stats, power)
    }

    fn key() -> CellKey {
        let mut h = KeyHasher::new();
        h.write_str("FMM/decay64K@1MB");
        h.finish("FMM/decay64K@1MB i40000 s42 c2")
    }

    #[test]
    fn a_payload_is_encoded_into_a_buffer_of_its_exact_length() {
        // Four cores and fourteen intervals: a 1 MB cell of a 150 K-
        // instruction run. The old estimate started such a buffer at
        // 1,152 B and grew it twice, to 4,608 B.
        let (mut stats, power) = sample();
        stats.cores = vec![stats.cores[0]; 4];
        stats.core_workloads = vec!["mpeg2enc".into(); 4];
        stats.l1 = vec![stats.l1[0]; 4];
        stats.l2 = vec![stats.l2[0]; 4];
        stats.trace = vec![stats.trace[0]; 14];
        let out = encode_payload(&stats, &power);
        assert_eq!(out.len(), payload_len(&stats));
        assert_eq!(out.capacity(), out.len(), "the buffer was grown or oversized");
        assert_eq!(decode_payload(&out).map(|c| c.stats), Some(stats));
    }

    #[test]
    fn record_roundtrips_bit_identically() {
        let (stats, power) = sample();
        let k = key();
        let rec = encode_record(&k, &stats, &power);
        let cell = decode_record(&rec, &k).expect("clean record decodes");
        assert_eq!(cell.stats, stats);
        assert_eq!(cell.power, power);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let (stats, power) = sample();
        let k = key();
        let rec = encode_record(&k, &stats, &power);
        // Exhaustive over the whole record: header flips fail a header
        // check, payload flips fail the checksum.
        for i in 0..rec.len() {
            let mut bad = rec.clone();
            bad[i] ^= 0x40;
            assert!(decode_record(&bad, &k).is_none(), "flip at byte {i} must be a miss");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let (stats, power) = sample();
        let k = key();
        let rec = encode_record(&k, &stats, &power);
        for len in 0..rec.len() {
            assert!(decode_record(&rec[..len], &k).is_none(), "truncation to {len} must miss");
        }
        // Trailing garbage too.
        let mut long = rec.clone();
        long.push(0);
        assert!(decode_record(&long, &k).is_none());
    }

    #[test]
    fn wrong_key_or_meta_is_a_miss() {
        let (stats, power) = sample();
        let k = key();
        let rec = encode_record(&k, &stats, &power);
        let mut other = KeyHasher::new();
        other.write_str("VOLREND");
        assert!(decode_record(&rec, &other.finish(k.meta.clone())).is_none());
        let renamed = CellKey { hash: k.hash, meta: "something else".into() };
        assert!(decode_record(&rec, &renamed).is_none());
    }

    #[test]
    fn corrupt_lengths_never_allocate_past_the_input() {
        // A payload claiming u64::MAX intervals must be rejected by the
        // sanity cap, not attempted.
        let (stats, power) = sample();
        let mut payload = encode_payload(&stats, &power);
        payload.truncate(16); // cycles + instructions
        payload.extend_from_slice(&u64::MAX.to_le_bytes()); // cores len
        assert!(decode_payload(&payload).is_none());
    }
}

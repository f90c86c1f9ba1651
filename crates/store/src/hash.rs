//! Content addressing and record checksums: a stable, hand-rolled,
//! dependency-free hash over a canonical byte encoding of everything
//! that determines a cell's result.
//!
//! One word-at-a-time kernel serves both jobs. It reads its input as
//! 8-byte little-endian words (a partial last word is zero-padded) and
//! runs `N` independent 64-bit lanes over them, each from its own seed.
//! A lane keeps eight accumulators and word `i` goes to accumulator
//! `i % 8` as `acc = fold(acc ^ word, STEP)`, where `fold` is the
//! 64×64→128-bit product folded to 64 bits (low half xor high half); the
//! eight multiply chains run side by side. The multiplier is an odd
//! constant, never data, so no word value can cancel the product and
//! erase the state — the flaw of a data × data multiply such as
//! `fold(w0 ^ s0, w1 ^ s1)`, which is zero whenever `w0 == s0`. The
//! finalizer folds the accumulators in order onto the total length and
//! folds once more, so every input bit reaches every output bit through
//! at least three multiplies.
//!
//! The content address is two lanes (128 bits); the record checksum
//! ([`crate::record`]) is one more lane with a seed of its own. Neither
//! is cryptographic, but the inputs are not adversarial and 128 bits
//! make accidental collisions across any realistic store negligible.
//! The address hasher seeds itself with [`STORE_SCHEMA_VERSION`] and the
//! build-time [`code_fingerprint`], so a record format change *or* any
//! simulation source change re-addresses every cell — stale results
//! become silent misses by construction.

/// Version of the on-disk record layout and of the hash (see
/// [`crate::record`]). Bump on any encoding change; old records then
/// fail the header check and fall back to fresh simulation.
pub const STORE_SCHEMA_VERSION: u32 = 2;

/// Odd multiplier of the per-word step (the PCG multiplier).
const STEP: u64 = 0x5851_f42d_4c95_7f2d;
/// Odd multipliers of the finalizer's two folds.
const FINAL: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xa076_1d64_78bd_642f];
/// Lane seeds of the content address and of the record checksum
/// (hexadecimal digits of π).
const ADDRESS_SEEDS: [u64; 2] = [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344];
const CHECKSUM_SEED: u64 = 0xa409_3822_299f_31d0;

/// The fingerprint of the workspace's simulation sources this binary
/// was built from (computed by `build.rs`, baked in at compile time).
pub fn code_fingerprint() -> &'static str {
    env!("CMPLEAK_CODE_FINGERPRINT")
}

/// The full 64×64→128-bit product of `x` and `m`, folded to 64 bits.
fn fold(x: u64, m: u64) -> u64 {
    let product = u128::from(x) * u128::from(m);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Up to 8 bytes as a little-endian word, zero-padded.
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// Accumulators per lane: word `i` of the input goes to accumulator
/// `i % WAYS`, so the multiplies of neighbouring words overlap instead
/// of each waiting on the last.
const WAYS: usize = 8;

/// The hashing kernel: `N` independent lanes over one stream of words.
#[derive(Debug, Clone)]
struct Kernel<const N: usize> {
    lanes: [[u64; WAYS]; N],
    /// The bytes fed since the last whole word, little-endian.
    tail: u64,
    len: u64,
}

impl<const N: usize> Kernel<N> {
    fn new(seeds: [u64; N]) -> Self {
        let lanes =
            seeds.map(|seed| std::array::from_fn(|way| seed ^ (way as u64).wrapping_mul(STEP)));
        Self { lanes, tail: 0, len: 0 }
    }

    /// Absorb word `index` of the input.
    fn absorb(&mut self, index: u64, word: u64) {
        let way = (index % WAYS as u64) as usize;
        for lane in &mut self.lanes {
            lane[way] = fold(lane[way] ^ word, STEP);
        }
    }

    fn write(&mut self, mut bytes: &[u8]) {
        let mut index = self.len / 8;
        let pending = (self.len % 8) as usize;
        self.len += bytes.len() as u64;
        if pending > 0 {
            let (head, rest) = bytes.split_at(bytes.len().min(8 - pending));
            self.tail |= le_word(head) << (8 * pending);
            if pending + head.len() < 8 {
                return;
            }
            self.absorb(index, self.tail);
            index += 1;
            bytes = rest;
        }
        // Words one at a time up to a block boundary, then whole blocks
        // of `WAYS` words (each accumulator stays in a register), then
        // the last words one at a time.
        let lead_words = (WAYS - (index % WAYS as u64) as usize) % WAYS;
        let (lead, rest) = bytes.split_at((8 * lead_words).min(bytes.len() / 8 * 8));
        let mut blocks = rest.chunks_exact(8 * WAYS);
        for word in lead.chunks_exact(8) {
            self.absorb(index, le_word(word));
            index += 1;
        }
        for block in &mut blocks {
            for lane in &mut self.lanes {
                for (acc, word) in lane.iter_mut().zip(block.chunks_exact(8)) {
                    *acc = fold(*acc ^ le_word(word), STEP);
                }
            }
            index += WAYS as u64;
        }
        let mut words = blocks.remainder().chunks_exact(8);
        for word in &mut words {
            self.absorb(index, le_word(word));
            index += 1;
        }
        self.tail = le_word(words.remainder());
    }

    /// [`write`](Self::write) of `v.to_le_bytes()`, without the byte
    /// loop: the word is spliced onto the pending tail by shifts.
    fn write_u64(&mut self, v: u64) {
        let index = self.len / 8;
        let shift = 8 * (self.len % 8) as u32;
        self.len += 8;
        if shift == 0 {
            self.absorb(index, v);
        } else {
            self.absorb(index, self.tail | v << shift);
            self.tail = v >> (64 - shift);
        }
    }

    /// Zero bytes up to the next word boundary.
    fn pad(&mut self) {
        let pending = self.len % 8;
        if pending > 0 {
            self.absorb(self.len / 8, self.tail);
            self.len += 8 - pending;
            self.tail = 0;
        }
    }

    /// Pad the last word, then fold each lane's accumulators in order
    /// onto the total length, and fold once more.
    fn finish(mut self) -> [u64; N] {
        let len = self.len;
        self.pad();
        self.lanes.map(|lane| {
            let merged = lane.iter().fold(len, |h, &acc| fold(h ^ acc, FINAL[0]));
            fold(merged, FINAL[1])
        })
    }
}

/// The record checksum: one kernel lane over `bytes`.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut kernel = Kernel::new([CHECKSUM_SEED]);
    kernel.write(bytes);
    let [sum] = kernel.finish();
    sum
}

/// The content address of one experiment cell: a 128-bit hash plus a
/// short human-readable descriptor that is stored in (and verified
/// against) every record, so even a hash collision cannot cross-label
/// results between obviously different cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    pub(crate) hash: [u64; 2],
    /// Human-readable cell descriptor (scenario/technique/size/...).
    pub meta: String,
}

impl CellKey {
    /// 32-hex-digit content address (file-name material).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hash[0], self.hash[1])
    }
}

/// Incremental key hasher: the kernel's two address lanes. Feed the
/// canonical encoding through the typed writers (each is length- or
/// width-delimited, so distinct field sequences cannot alias), then
/// [`KeyHasher::finish`]. A clone carries the state so far, so callers
/// can hash a shared prefix once and finish several keys from it.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    kernel: Kernel<2>,
}

impl KeyHasher {
    /// A hasher pre-seeded with the schema version and the code
    /// fingerprint.
    pub fn new() -> Self {
        let mut h = Self { kernel: Kernel::new(ADDRESS_SEEDS) };
        h.write_u64(u64::from(STORE_SCHEMA_VERSION));
        h.write_str(code_fingerprint());
        h
    }

    /// Raw bytes (callers delimit; prefer the typed writers).
    pub fn write(&mut self, bytes: &[u8]) {
        self.kernel.write(bytes);
    }

    /// A `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.kernel.write_u64(v);
    }

    /// An `f64` by bit pattern (exact: the store's identity contract is
    /// bitwise, so -0.0 and 0.0 are deliberately distinct).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// A length-prefixed UTF-8 string, padded like
    /// [`write_bytes`](Self::write_bytes).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// A length-prefixed byte run, zero-padded to a whole word so the
    /// writes after it stay word-aligned.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write(bytes);
        self.kernel.pad();
    }

    /// Close the hash (the kernel mixes in the total fed length) and
    /// attach the human-readable descriptor.
    pub fn finish(self, meta: impl Into<String>) -> CellKey {
        CellKey { hash: self.kernel.finish(), meta: meta.into() }
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_input_identical_key() {
        let mut a = KeyHasher::new();
        let mut b = KeyHasher::new();
        for h in [&mut a, &mut b] {
            h.write_str("FMM/decay64K");
            h.write_u64(42);
            h.write_f64(4.0);
        }
        let (ka, kb) = (a.finish("m"), b.finish("m"));
        assert_eq!(ka, kb);
        assert_eq!(ka.hex(), kb.hex());
        assert_eq!(ka.hex().len(), 32);
    }

    #[test]
    fn any_field_perturbation_moves_the_address() {
        let base = || {
            let mut h = KeyHasher::new();
            h.write_str("FMM");
            h.write_u64(1);
            h.write_f64(0.5);
            h
        };
        let k0 = base().finish("m");
        let mut h = base();
        h.write_u64(0); // extra field
        assert_ne!(k0.hex(), h.finish("m").hex());
        let mut h = KeyHasher::new();
        h.write_str("FMN");
        h.write_u64(1);
        h.write_f64(0.5);
        assert_ne!(k0.hex(), h.finish("m").hex());
        let mut h = KeyHasher::new();
        h.write_str("FMM");
        h.write_u64(1);
        h.write_f64(-0.5);
        assert_ne!(k0.hex(), h.finish("m").hex());
    }

    #[test]
    fn delimiting_prevents_field_aliasing() {
        // ("ab", "c") must not collide with ("a", "bc").
        let mut a = KeyHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = KeyHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish("m").hex(), b.finish("m").hex());
    }

    #[test]
    fn meta_does_not_affect_the_address_but_is_carried() {
        let mk = |meta: &str| {
            let mut h = KeyHasher::new();
            h.write_u64(7);
            h.finish(meta)
        };
        let (a, b) = (mk("x"), mk("y"));
        assert_eq!(a.hex(), b.hex());
        assert_eq!(a.meta, "x");
        assert_ne!(a, b, "keys with different meta are distinct values");
    }

    #[test]
    fn fingerprint_is_baked_in() {
        assert_eq!(code_fingerprint().len(), 16);
        assert!(code_fingerprint().chars().all(|c| c.is_ascii_hexdigit()));
    }

    /// The checksum and both address lanes of `bytes`.
    fn hashes(bytes: &[u8]) -> (u64, [u64; 2]) {
        let mut h = KeyHasher::new();
        h.write(bytes);
        (checksum(bytes), h.finish("").hash)
    }

    /// Split points that cut `len` bytes into 1, 2 and 3 writes, on and
    /// off word boundaries.
    fn cuts(len: usize) -> Vec<Vec<usize>> {
        vec![vec![], vec![len / 2], vec![len / 3, len - len / 5], vec![1.min(len)]]
    }

    #[test]
    fn the_kernel_reads_words_however_the_input_is_split() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..bytes.len() {
            let whole = {
                let mut k = Kernel::new(ADDRESS_SEEDS);
                k.write(&bytes[..len]);
                k.finish()
            };
            for cut in cuts(len) {
                let mut k = Kernel::new(ADDRESS_SEEDS);
                let mut from = 0;
                for to in cut.into_iter().chain([len]) {
                    k.write(&bytes[from..to]);
                    from = to;
                }
                assert_eq!(k.finish(), whole, "{len} bytes written in pieces");
            }
            // A u64 spliced onto any tail equals its bytes.
            if len >= 8 {
                let mut k = Kernel::new(ADDRESS_SEEDS);
                k.write(&bytes[..len - 8]);
                k.write_u64(le_word(&bytes[len - 8..len]));
                assert_eq!(k.finish(), whole, "u64 after {} bytes", len - 8);
            }
        }
    }

    proptest! {
        /// For every input length up to 72 bytes — nine words, every
        /// tail length — a single flipped bit anywhere changes the
        /// checksum and both halves of the address, and so does
        /// appending a zero byte (the zero-padded last word is the same,
        /// only the length differs).
        #[test]
        fn every_bit_flip_and_zero_append_moves_every_hash(
            bytes in proptest::collection::vec(any::<u8>(), 72..73),
        ) {
            for len in 0..=72 {
                let input = &bytes[..len];
                let (sum, [a, b]) = hashes(input);
                let mut flipped = input.to_vec();
                for bit in 0..8 * len {
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    let (s, [fa, fb]) = hashes(&flipped);
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    prop_assert!(s != sum, "checksum kept, len {len} bit {bit}");
                    prop_assert!(fa != a && fb != b, "address half kept, len {len} bit {bit}");
                }
                let mut longer = input.to_vec();
                longer.push(0);
                let (s, [la, lb]) = hashes(&longer);
                prop_assert!(s != sum && la != a && lb != b, "zero appended to {len} bytes");
            }
        }
    }
}

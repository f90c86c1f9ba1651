//! # cmpleak-store — content-addressed persistent result store
//!
//! The sweep-as-a-service substrate: experiment cells (`SimStats` +
//! `PowerReport`) are cached on disk under a 128-bit content address
//! derived from everything that determines the result — the canonical
//! `ExperimentConfig` encoding (scenario bytes, technique, L2 size,
//! budget, seed, core count, kernel/engine, power parameters), the
//! record schema version, and a build-time fingerprint of all
//! workspace simulation sources. One word-at-a-time hashing kernel
//! ([`hash`]) computes both the address and each record's payload
//! checksum ([`record`]).
//!
//! ## Contract
//!
//! The store may only ever change *latency*, never *results*:
//!
//! - A loaded cell is byte-identical to what a fresh simulation would
//!   produce (pinned by the golden snapshot and the store differential
//!   test in the workspace).
//! - Any anomaly — missing file, truncation, bit corruption, schema or
//!   code-version skew, key mismatch — is a **silent miss** that falls
//!   back to fresh simulation. Decoding never panics on bad input.
//! - Publishing is atomic (temp file + rename) and best-effort: a
//!   failed write loses the warm-up, never the answer.

#![forbid(unsafe_code)]

pub mod hash;
pub mod record;
pub mod store;

pub use hash::{code_fingerprint, CellKey, KeyHasher, STORE_SCHEMA_VERSION};
pub use record::{decode_record, encode_record, StoredCell};
pub use store::ResultStore;

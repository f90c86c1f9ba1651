//! Opening trace files and replaying their per-core streams.

use crate::format::{OpDecoder, TraceHeader};
use cmpleak_cpu::{TraceOp, Workload};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// An opened trace file: parsed header plus a seekable source for the
/// per-core streams. Opening reads only the header; each core's stream
/// is loaded on demand by [`TraceFile::core_workload`].
#[derive(Debug, Clone)]
pub struct TraceFile {
    header: TraceHeader,
    source: Source,
}

#[derive(Clone)]
enum Source {
    Path(PathBuf),
    Bytes(Vec<u8>),
}

impl std::fmt::Debug for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Source::Path(p) => f.debug_tuple("Path").field(p).finish(),
            Source::Bytes(b) => write!(f, "Bytes({} bytes)", b.len()),
        }
    }
}

/// Check that the header's claimed stream lengths fit the actual image
/// size, so corrupt length fields fail here with an error instead of
/// reaching a giant buffer allocation later.
fn validate_size(header: &TraceHeader, available: u64) -> io::Result<()> {
    let mut expected = header.byte_len();
    for c in &header.cores {
        expected = expected.checked_add(c.len).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "trace stream lengths overflow")
        })?;
    }
    if expected != available {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trace header claims {expected} bytes but the image has {available}"),
        ));
    }
    Ok(())
}

impl TraceFile {
    /// Open `path`, parsing and validating the header (including that
    /// the per-core stream lengths add up to the file size).
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut f = std::fs::File::open(path.as_ref())?;
        let header = TraceHeader::read(&mut f)?;
        validate_size(&header, f.metadata()?.len())?;
        Ok(Self { header, source: Source::Path(path.as_ref().to_path_buf()) })
    }

    /// Parse an in-memory trace image (round-trip tests, network use).
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<Self> {
        let header = TraceHeader::read(&mut bytes.as_slice())?;
        validate_size(&header, bytes.len() as u64)?;
        Ok(Self { header, source: Source::Bytes(bytes) })
    }

    /// Pull the whole file into memory so that subsequent
    /// [`core_workload`](Self::core_workload) calls slice the cached
    /// image instead of re-opening and re-reading the file per core —
    /// the right mode when all cores (or many experiments) will be
    /// built from the same trace.
    pub fn preload(&mut self) -> io::Result<()> {
        if let Source::Path(p) = &self.source {
            self.source = Source::Bytes(std::fs::read(p)?);
        }
        Ok(())
    }

    /// The parsed header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The raw file image, if it has been pulled into memory (via
    /// [`preload`](Self::preload) or [`from_bytes`](Self::from_bytes)).
    /// `None` while the source is still a path — callers needing the
    /// exact bytes for content addressing should preload first.
    pub fn cached_image(&self) -> Option<&[u8]> {
        match &self.source {
            Source::Bytes(b) => Some(b),
            Source::Path(_) => None,
        }
    }

    /// Scenario label recorded in the header.
    pub fn label(&self) -> &str {
        &self.header.label
    }

    /// Seed the recorded streams were generated with.
    pub fn seed(&self) -> u64 {
        self.header.seed
    }

    /// Number of per-core streams.
    pub fn n_cores(&self) -> usize {
        self.header.n_cores()
    }

    /// Smallest per-core instruction coverage — the largest
    /// `instructions_per_core` this trace can drive without exhausting a
    /// stream.
    pub fn min_core_instructions(&self) -> u64 {
        self.header.cores.iter().map(|c| c.instructions).min().unwrap_or(0)
    }

    /// Load `core`'s stream and wrap it as a replayable [`Workload`].
    ///
    /// Seeks directly to the stream (other cores' bytes are never read).
    pub fn core_workload(&self, core: usize) -> io::Result<TraceWorkload> {
        let info = self.header.cores.get(core).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("trace has {} cores, requested core {core}", self.n_cores()),
            )
        })?;
        let offset = self.header.stream_offset(core);
        let len = info.len as usize;
        let buf = match &self.source {
            Source::Path(p) => {
                let mut f = std::fs::File::open(p)?;
                f.seek(SeekFrom::Start(offset))?;
                let mut buf = vec![0u8; len];
                f.read_exact(&mut buf)?;
                buf
            }
            Source::Bytes(bytes) => {
                let start = offset as usize;
                let end =
                    start.checked_add(len).filter(|&e| e <= bytes.len()).ok_or_else(|| {
                        io::Error::new(io::ErrorKind::UnexpectedEof, "trace image truncated")
                    })?;
                bytes[start..end].to_vec()
            }
        };
        Ok(TraceWorkload {
            name: info.name.clone(),
            total_ops: info.ops,
            total_instructions: info.instructions,
            buf,
            pos: 0,
            ops_read: 0,
            dec: OpDecoder::new(),
        })
    }
}

/// Replays one recorded core stream as a [`Workload`].
///
/// The stream is finite; it covers at least the instruction budget it
/// was recorded for ([`TraceWorkload::total_instructions`]). Driving it
/// past the end is a configuration error and panics with a diagnostic —
/// silently looping would diverge from the live stream and defeat the
/// bit-identical replay contract.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    name: String,
    total_ops: u64,
    total_instructions: u64,
    buf: Vec<u8>,
    pos: usize,
    ops_read: u64,
    dec: OpDecoder,
}

impl TraceWorkload {
    /// Ops in the stream.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Σ `op.instructions()` over the stream — the largest simulation
    /// budget this stream can drive.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Ops decoded so far.
    pub fn ops_read(&self) -> u64 {
        self.ops_read
    }

    /// Decode the next op, or `None` at end of stream.
    pub fn try_next_op(&mut self) -> Option<TraceOp> {
        if self.ops_read >= self.total_ops {
            return None;
        }
        let op = self.dec.decode(&self.buf, &mut self.pos)?;
        self.ops_read += 1;
        Some(op)
    }
}

impl Workload for TraceWorkload {
    fn next_op(&mut self) -> TraceOp {
        self.try_next_op().unwrap_or_else(|| {
            // audit:allow(unwrap-in-lib, contract violation: the recording covered the requested budget by construction, so exhaustion is a caller bug worth aborting on)
            panic!(
                "trace stream '{}' exhausted after {} ops / {} instructions — it was recorded \
                 for a smaller instruction budget than this simulation requests",
                self.name, self.total_ops, self.total_instructions
            )
        })
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceRecorder;
    use cmpleak_cpu::ReplayWorkload;

    fn two_core_trace() -> TraceRecorder {
        let mut a = ReplayWorkload::named(
            "alpha",
            vec![TraceOp::Exec(2), TraceOp::Load(0x40), TraceOp::Store(0x80)],
        );
        let mut b = ReplayWorkload::named("beta", vec![TraceOp::Load(0x1000), TraceOp::Exec(5)]);
        let mut rec = TraceRecorder::new("pair", 3);
        rec.record_core(&mut a, 16);
        rec.record_core(&mut b, 12);
        rec
    }

    #[test]
    fn roundtrip_through_bytes_preserves_streams() {
        let rec = two_core_trace();
        let tf = TraceFile::from_bytes(rec.to_bytes()).unwrap();
        assert_eq!(tf.label(), "pair");
        assert_eq!(tf.seed(), 3);
        assert_eq!(tf.n_cores(), 2);

        let mut replay = tf.core_workload(0).unwrap();
        assert_eq!(replay.name(), "alpha");
        let mut live = ReplayWorkload::named(
            "alpha",
            vec![TraceOp::Exec(2), TraceOp::Load(0x40), TraceOp::Store(0x80)],
        );
        for _ in 0..replay.total_ops() {
            assert_eq!(replay.next_op(), live.next_op());
        }
        assert!(replay.try_next_op().is_none());
    }

    #[test]
    fn roundtrip_through_a_real_file_with_seek() {
        let rec = two_core_trace();
        let path = std::env::temp_dir().join("cmpleak_trace_reader_test.cmpt");
        rec.save(&path).unwrap();
        let tf = TraceFile::open(&path).unwrap();
        let mut w1 = tf.core_workload(1).unwrap();
        assert_eq!(w1.name(), "beta");
        assert_eq!(w1.next_op(), TraceOp::Load(0x1000));
        assert_eq!(w1.next_op(), TraceOp::Exec(5));
        assert!(tf.core_workload(2).is_err(), "out-of-range core is rejected");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_stream_length_is_rejected_at_open() {
        let rec = two_core_trace();
        let mut bytes = rec.to_bytes();
        // Truncate the payload: header now claims more bytes than exist.
        bytes.truncate(bytes.len() - 3);
        assert!(TraceFile::from_bytes(bytes).is_err());
        // Same through a real file, where an unchecked length would
        // otherwise size a buffer allocation.
        let path = std::env::temp_dir().join("cmpleak_trace_corrupt_test.cmpt");
        let mut good = rec.to_bytes();
        good.extend_from_slice(b"junk");
        std::fs::write(&path, &good).unwrap();
        assert!(TraceFile::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn min_core_instructions_is_the_weakest_stream() {
        let tf = TraceFile::from_bytes(two_core_trace().to_bytes()).unwrap();
        assert_eq!(
            tf.min_core_instructions(),
            tf.header().cores.iter().map(|c| c.instructions).min().unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics_with_diagnostic() {
        let tf = TraceFile::from_bytes(two_core_trace().to_bytes()).unwrap();
        let mut w = tf.core_workload(0).unwrap();
        for _ in 0..=w.total_ops() {
            w.next_op();
        }
    }
}

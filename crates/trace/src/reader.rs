//! Loading `.cmpt` trace files into a [`MemTrace`].
//!
//! Loading checks everything a replay will rely on, so a damaged file
//! fails here with an [`io::ErrorKind::InvalidData`] error instead of
//! panicking mid-simulation: the header must parse, its stream lengths
//! must add up to the image size, and every stream must decode to
//! exactly the header's op count in exactly its byte length, summing to
//! its instruction count.

use crate::format::{CoreStreamInfo, OpDecoder, TraceHeader};
use crate::mem::MemTrace;
use std::io;
use std::path::Path;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Check that the header's claimed stream lengths fit the actual image
/// size, so corrupt length fields fail here with an error instead of
/// reaching a giant buffer allocation later.
fn validate_size(header: &TraceHeader, available: u64) -> io::Result<()> {
    let mut expected = header.byte_len();
    for c in &header.cores {
        expected = expected
            .checked_add(c.len)
            .ok_or_else(|| invalid("trace stream lengths overflow".to_string()))?;
    }
    if expected != available {
        return Err(invalid(format!(
            "trace header claims {expected} bytes but the image has {available}"
        )));
    }
    Ok(())
}

/// Decode `stream` once and check it against its header entry.
fn validate_stream(core: usize, info: &CoreStreamInfo, stream: &[u8]) -> io::Result<()> {
    let (mut dec, mut pos) = (OpDecoder::new(), 0);
    let (mut ops, mut instructions) = (0u64, 0u64);
    while ops < info.ops {
        let Some(op) = dec.decode(stream, &mut pos) else { break };
        ops += 1;
        instructions = instructions.saturating_add(op.instructions());
    }
    if (ops, instructions, pos as u64) == (info.ops, info.instructions, info.len) {
        return Ok(());
    }
    Err(invalid(format!(
        "core {core} ({}): damaged stream — the header records {} ops / {} instructions in {} \
         bytes, the stream decodes to {ops} ops / {instructions} instructions in {pos} bytes",
        info.name, info.ops, info.instructions, info.len
    )))
}

impl MemTrace {
    /// Load and validate the trace file at `path`.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::from_file_bytes(&std::fs::read(path)?)
    }

    /// Parse and validate a CMPT file image (the inverse of
    /// [`MemTrace::to_file_bytes`]).
    pub fn from_file_bytes(bytes: &[u8]) -> io::Result<Self> {
        let header = TraceHeader::read(&mut &bytes[..])?;
        validate_size(&header, bytes.len() as u64)?;
        let mut at = header.byte_len() as usize;
        let mut streams = Vec::with_capacity(header.n_cores());
        for (core, info) in header.cores.iter().enumerate() {
            let stream = &bytes[at..at + info.len as usize];
            validate_stream(core, info, stream)?;
            streams.push(stream.to_vec());
            at += stream.len();
        }
        Ok(Self { label: header.label, seed: header.seed, cores: header.cores, streams })
    }
}

#[cfg(test)]
mod tests {
    use crate::mem::tests::pair;
    use crate::mem::MemTrace;
    use cmpleak_cpu::{ReplayWorkload, TraceOp, Workload};
    use std::sync::Arc;

    #[test]
    fn roundtrip_through_bytes_preserves_streams() {
        let trace = MemTrace::from_file_bytes(&pair("pair", 3, 16).to_file_bytes()).unwrap();
        assert_eq!(trace.label(), "pair");
        assert_eq!(trace.seed(), 3);
        assert_eq!(trace.n_cores(), 2);

        let trace = Arc::new(trace);
        let mut replay = trace.cursor(0);
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
    fn saved_trace_opens_equal_to_the_original() {
        let original = pair("pair", 3, 12);
        let path = std::env::temp_dir()
            .join(format!("cmpleak_trace_reader_test_{}.cmpt", std::process::id()));
        original.save(&path).unwrap();
        let opened = MemTrace::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(opened, original);
        let bytes = original.to_file_bytes();
        assert_eq!(MemTrace::from_file_bytes(&bytes).unwrap().to_file_bytes(), bytes);
        let mut beta = Arc::new(opened).cursor(1);
        assert_eq!(beta.name(), "beta");
        assert_eq!(beta.next_op(), TraceOp::Load(0x1000));
        assert_eq!(beta.next_op(), TraceOp::Exec(5));
    }

    #[test]
    fn corrupt_stream_length_is_rejected_at_open() {
        let trace = pair("pair", 3, 16);
        let mut bytes = trace.to_file_bytes();
        // Truncate the payload: header now claims more bytes than exist.
        bytes.truncate(bytes.len() - 3);
        assert!(MemTrace::from_file_bytes(&bytes).is_err());
        // Same through a real file with trailing junk.
        let path = std::env::temp_dir()
            .join(format!("cmpleak_trace_corrupt_test_{}.cmpt", std::process::id()));
        let mut good = trace.to_file_bytes();
        good.extend_from_slice(b"junk");
        std::fs::write(&path, &good).unwrap();
        assert!(MemTrace::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_stream_bytes_are_rejected_naming_the_core() {
        // Sizes intact, payload overwritten: zeros decode as extra
        // `Exec(0)` ops, 0xFF runs as an overlong varint.
        let trace = pair("pair", 3, 400);
        let bytes = trace.to_file_bytes();
        let end = bytes.len();
        for fill in [0x00, 0xFF] {
            let mut damaged = bytes.clone();
            damaged[end - 60..end - 10].fill(fill);
            let err = MemTrace::from_file_bytes(&damaged).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "fill {fill:#x}");
            assert!(err.to_string().contains("core 1 (beta)"), "fill {fill:#x}: {err}");
        }
    }

    #[test]
    fn min_core_instructions_is_the_weakest_stream() {
        let trace = MemTrace::from_file_bytes(&pair("pair", 3, 16).to_file_bytes()).unwrap();
        assert_eq!(
            trace.min_core_instructions(),
            trace.header().cores.iter().map(|c| c.instructions).min().unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics_with_diagnostic() {
        let trace = MemTrace::from_file_bytes(&pair("pair", 3, 16).to_file_bytes()).unwrap();
        let mut w = Arc::new(trace).cursor(0);
        for _ in 0..=w.total_ops() {
            w.next_op();
        }
    }
}

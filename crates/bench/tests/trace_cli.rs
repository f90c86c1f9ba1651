//! `trace` end to end: `record` refuses a budget or core count it could
//! not replay, `replay` refuses an L2 size outside the paper's, and
//! `replay`/`inspect` refuse a trace the simulator cannot run, or a
//! damaged one, with a message, never a panic.

use std::process::Command;

/// A trace header may declare up to 4,096 cores, but the cycle engine's
/// core masks are one `u64`: replay must refuse more than 64.
#[test]
fn replay_refuses_traces_with_more_than_64_cores() {
    let dir = std::env::temp_dir().join(format!("cmpleak-trace-cores-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("wide.cmpt");
    let record = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["record", "--scenario", "WATER-NS", "--instr", "200", "--cores", "65", "--out"])
        .arg(&trace)
        .output()
        .expect("trace runs");
    assert!(record.status.success(), "record failed:\n{}", String::from_utf8_lossy(&record.stderr));
    let replay = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["replay", "--in"])
        .arg(&trace)
        .output()
        .expect("trace runs");
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert_eq!(replay.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("65 cores exceed the simulator's limit of 64"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A trace whose stream bytes are damaged but whose sizes are intact
/// must be refused at load — exit 1 naming the core — not panic
/// mid-replay.
#[test]
fn damaged_stream_bytes_are_refused_at_load() {
    let dir = std::env::temp_dir().join(format!("cmpleak-trace-damaged-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("fmm.cmpt");
    let record = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["record", "--scenario", "FMM", "--instr", "20000", "--out"])
        .arg(&trace)
        .output()
        .expect("trace runs");
    assert!(record.status.success(), "record failed:\n{}", String::from_utf8_lossy(&record.stderr));
    let good = std::fs::read(&trace).expect("trace written");
    for fill in [0x00u8, 0xFF] {
        let mut bytes = good.clone();
        let end = bytes.len();
        bytes[end - 250..end - 50].fill(fill);
        let damaged = dir.join(format!("damaged-{fill:02x}.cmpt"));
        std::fs::write(&damaged, &bytes).expect("damaged copy written");
        for cmd in ["replay", "inspect"] {
            let out = Command::new(env!("CARGO_BIN_EXE_trace"))
                .args([cmd, "--in"])
                .arg(&damaged)
                .output()
                .expect("trace runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd}, fill {fill:#04x}:\n{stderr}");
            assert!(stderr.contains("damaged stream"), "{cmd}, fill {fill:#04x}: {stderr}");
            assert!(stderr.contains("core 3 (FMM)"), "{cmd}, fill {fill:#04x}: {stderr}");
            assert!(!stderr.contains("panicked"), "{cmd}, fill {fill:#04x}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An empty trace would replay as a zero-cycle run that `--verify`
/// calls a pass, and a zero-core one is refused by `replay`: `record`
/// prints usage and exits 2 on either, before writing anything.
#[test]
fn record_refuses_zero_budgets_and_zero_cores() {
    let dir = std::env::temp_dir().join(format!("cmpleak-trace-zero-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    for flag in ["--instr", "--cores"] {
        let trace = dir.join("zero.cmpt");
        let out = Command::new(env!("CARGO_BIN_EXE_trace"))
            .args(["record", "--scenario", "WATER-NS", flag, "0", "--out"])
            .arg(&trace)
            .output()
            .expect("trace runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0:\n{stderr}");
        assert!(stderr.contains("usage:"), "{flag} 0: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} 0: {stderr}");
        assert!(!trace.exists(), "{flag} 0 must not write a trace");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The paper's system exists only at 1/2/4/8 MB of total L2: any other
/// `--size`, or none after the flag, is a usage error (exit 2, naming
/// the sizes) before the trace is simulated, not a panic in the
/// simulator's config.
#[test]
fn replay_refuses_sizes_outside_the_paper_axis() {
    let dir = std::env::temp_dir().join(format!("cmpleak-trace-size-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("water.cmpt");
    let record = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["record", "--scenario", "WATER-NS", "--instr", "2000", "--out"])
        .arg(&trace)
        .output()
        .expect("trace runs");
    assert!(record.status.success(), "record failed:\n{}", String::from_utf8_lossy(&record.stderr));
    for size in [&["--size", "3"][..], &["--size", "0"], &["--size"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace"))
            .args(["replay", "--in"])
            .arg(&trace)
            .args(size)
            .output()
            .expect("trace runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{size:?}:\n{stderr}");
        assert!(stderr.contains("[1, 2, 4, 8]"), "{size:?}: the message names the sizes: {stderr}");
        assert!(!stderr.contains("panicked"), "{size:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{size:?} printed a replay");
    }
    std::fs::remove_dir_all(&dir).ok();
}

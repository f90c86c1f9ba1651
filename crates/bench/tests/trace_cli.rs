//! `trace replay` end to end: a trace the simulator cannot run is
//! refused with a message, never a panic.

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

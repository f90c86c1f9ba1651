//! `sweep serve` end to end: a request line the service cannot answer is
//! reported and skipped, never fatal to the rest of the queue.

use std::process::Command;

/// A size outside the paper's 1/2/4/8 MB axis would trip
/// `CmpConfig::paper_system`'s assert inside a pool worker and kill the
/// whole run, so parsing must reject it.
#[test]
fn serve_skips_sizes_outside_the_paper_axis() {
    let dir = std::env::temp_dir().join(format!("cmpleak-serve-sizes-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let requests = dir.join("queue.txt");
    std::fs::write(
        &requests,
        "WATER-NS protocol 1 5000\n\
         WATER-NS protocol 3 5000\n\
         WATER-NS protocol 0 5000\n\
         WATER-NS protocol 100000 5000\n",
    )
    .expect("queue written");
    let report = dir.join("report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("serve")
        .arg("--store")
        .arg(dir.join("store"))
        .arg("--requests")
        .arg(&requests)
        .arg("--out")
        .arg(&report)
        .output()
        .expect("sweep runs");
    assert!(out.status.success(), "serve failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&report).expect("report written");
    assert!(json.contains("\"requests\": 1"), "the 1 MB request is answered: {json}");
    assert!(json.contains("\"skipped\": 3"), "the three bad sizes are skipped: {json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_without_serve_prints_usage_and_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep")).output().expect("sweep runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: sweep serve"));
}

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

/// The cycle engine's core masks are one `u64`: a core count outside
/// `1..=64` must be refused at parse time, before the store is opened or
/// any cell simulated.
#[test]
fn serve_rejects_core_counts_outside_1_to_64() {
    for n_cores in ["0", "65"] {
        let dir = std::env::temp_dir()
            .join(format!("cmpleak-serve-cores-{n_cores}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        let requests = dir.join("queue.txt");
        std::fs::write(&requests, "WATER-NS protocol 1 5000\n").expect("queue written");
        let store = dir.join("store");
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(["serve", "--n-cores", n_cores, "--store"])
            .arg(&store)
            .arg("--requests")
            .arg(&requests)
            .output()
            .expect("sweep runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--n-cores {n_cores}:\n{stderr}");
        assert!(stderr.contains("1..=64"), "the message names the limit: {stderr}");
        assert!(stderr.contains("usage: sweep serve"), "usage is printed: {stderr}");
        assert!(!store.exists(), "--n-cores {n_cores} must fail before the store opens");
        std::fs::remove_dir_all(&dir).ok();
    }
}

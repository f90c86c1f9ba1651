//! `sweep serve` end to end: a request line the service cannot answer is
//! reported and skipped, never fatal to the rest of the queue, and a
//! bad command line is refused with an exit code, never a panic.

use std::process::Command;

/// A size outside the paper's 1/2/4/8 MB axis would trip
/// `CmpConfig::paper_system`'s assert inside a pool worker and kill the
/// whole run, so parsing must reject it. A budget of 0 instructions
/// would answer with an empty cell, so it is skipped too.
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
         WATER-NS protocol 100000 5000\n\
         WATER-NS protocol 1 0\n",
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
    assert!(
        json.contains("\"skipped\": 4"),
        "the three bad sizes and the zero budget are skipped: {json}"
    );
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

/// Bad or missing flags, including a zero `--instr`, are usage errors
/// (exit 2); an unreadable request
/// file or an unusable store root is an error (exit 1). Never a panic.
#[test]
fn serve_refuses_bad_command_lines_without_panicking() {
    let dir = std::env::temp_dir().join(format!("cmpleak-serve-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let requests = dir.join("queue.txt");
    std::fs::write(&requests, "WATER-NS protocol 1 5000\n").expect("queue written");
    let a_file = dir.join("not-a-dir");
    std::fs::write(&a_file, "").expect("file written");
    let (requests, a_file) = (requests.to_str().unwrap(), a_file.to_str().unwrap());
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let cases: [(&[&str], i32); 8] = [
        (&["--bogus"], 2),
        (&["--requests", requests, "--store"], 2),
        (&["--store", store, "--requests", requests, "--instr", "x"], 2),
        (&["--store", store, "--requests", requests, "--instr", "0"], 2),
        (&["--store", store, "--requests", requests, "--threads"], 2),
        (&["--store", store, "--requests", requests, "--seed", "x"], 2),
        (&["--store", store, "--requests", "/nonexistent/queue.txt"], 1),
        (&["--store", a_file, "--requests", requests], 1),
    ];
    for (args, code) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .arg("serve")
            .args(args)
            .output()
            .expect("sweep runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(code == 2, stderr.contains("usage: sweep serve"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

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

/// The cells a `sweep serve` batch line says were derived from a
/// smaller size and resumed from one, for a queue of `requests` served
/// into a fresh store.
fn batch_ladder_counts(tag: &str, requests: &str, label: &str) -> (usize, usize) {
    let dir = std::env::temp_dir().join(format!("cmpleak-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let queue = dir.join("queue.txt");
    std::fs::write(&queue, requests).expect("queue written");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("serve")
        .arg("--store")
        .arg(dir.join("store"))
        .arg("--requests")
        .arg(&queue)
        .output()
        .expect("sweep runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "serve failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let line =
        stdout.lines().find(|l| l.starts_with(&format!("batched {label}"))).expect("a batch line");
    let count = |after: &str| -> usize {
        line.split_once(after)
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no count after `{after}` in `{line}`"))
    };
    let counts = (count("prefetched, "), count("derived from a smaller size, "));
    assert!(line.ends_with("resumed from a smaller size)"), "{line}");
    std::fs::remove_dir_all(&dir).ok();
    counts
}

/// Serve batches a scenario's missed sizes into one sweep, so a small
/// budget's larger size is derived from the smaller one's run, and the
/// batch line says how many cells were.
#[test]
fn serve_batch_line_counts_cells_derived_from_a_smaller_size() {
    let requests = "FMM decay64K 1 3000\nFMM decay64K 8 3000\n";
    // Baseline and decay64K at 8 MB, both from their 1 MB runs.
    assert_eq!(batch_ladder_counts("ladder", requests, "FMM"), (2, 0));
}

/// A size whose smaller run filled a set is resumed from that run's fork,
/// and the batch line counts it: at 100 K instructions the producer mix's
/// 1 MB caches fill a set under decay64K and its baseline, so 2 MB
/// resumes both.
#[test]
fn serve_batch_line_counts_cells_resumed_from_a_smaller_size() {
    let requests = "mix_producer_share decay64K 1 100000\nmix_producer_share decay64K 2 100000\n";
    assert_eq!(batch_ladder_counts("resumed", requests, "mix_producer_share"), (0, 2));
}

#[test]
fn sweep_without_serve_prints_usage_and_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep")).output().expect("sweep runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: sweep serve"));
}

/// The cycle engine's core masks are one `u64`: a core count outside
/// `1..=64` must be refused at parse time, before the store is opened or
/// any cell simulated. So must a count that is not a power of two, which
/// cannot split the L2 into power-of-two caches.
#[test]
fn serve_rejects_core_counts_outside_1_to_64() {
    for n_cores in ["0", "65", "3"] {
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
        assert!(stderr.contains("power of two"), "the message names the rule: {stderr}");
        assert!(stderr.contains("usage: sweep serve"), "usage is printed: {stderr}");
        assert!(!store.exists(), "--n-cores {n_cores} must fail before the store opens");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A batch that cannot publish its cells (plain files stand where the
/// store's fan-out directories go) leaves its lines unanswered: each is
/// reported with the reason, the other lines are still answered, and
/// `serve` exits 1 after writing its report — never a panic.
#[test]
fn serve_reports_lines_a_blocked_store_cannot_answer_and_answers_the_rest() {
    let dir = std::env::temp_dir().join(format!("cmpleak-serve-blocked-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store = dir.join("store");
    let serve = |queue: &str| {
        let requests = dir.join("queue.txt");
        std::fs::write(&requests, queue).expect("queue written");
        Command::new(env!("CARGO_BIN_EXE_sweep"))
            .arg("serve")
            .arg("--store")
            .arg(&store)
            .arg("--requests")
            .arg(&requests)
            .arg("--out")
            .arg(dir.join("report.json"))
            .output()
            .expect("sweep runs")
    };
    let warm = serve("WATER-NS protocol 1 2000\n");
    assert!(warm.status.success(), "{}", String::from_utf8_lossy(&warm.stderr));
    // Every fan-out name the stored cells do not use becomes a file.
    for i in 0..=255u8 {
        let fan_out = store.join(format!("{i:02x}"));
        if !fan_out.exists() {
            std::fs::write(&fan_out, "").expect("blocking file written");
        }
    }
    // Three cells the store cannot hold (each lands in a stored cell's
    // directory with probability 2/256), behind the stored one.
    let out = serve(
        "FMM protocol 1 2000\nWATER-NS protocol 1 2000\nVOLREND decay64K 1 2000\n\
         mpeg2dec sel_decay64K 1 2000\n",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("unanswered"), "the lines are reported: {stderr}");
    assert!(stderr.contains("failed"), "with the reason: {stderr}");
    let json = std::fs::read_to_string(dir.join("report.json")).expect("report written");
    assert!(json.contains("\"requests\": 4"), "{json}");
    assert!(json.contains("\"hits\": 1"), "the stored line is answered: {json}");
    assert!(json.contains("\"technique\": \"protocol\""), "its row is reported: {json}");
    let unanswered = stderr.matches("unanswered —").count();
    assert!(unanswered >= 1, "{stderr}");
    assert!(json.contains(&format!("\"unanswered\": {unanswered}")), "{json}");
    std::fs::remove_dir_all(&dir).ok();
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

//! `repro` end to end: an L2 size the paper sweep does not cover, or a
//! malformed flag, is refused before the sweep starts, and small runs of
//! the commands succeed and print their tables.

use std::process::Command;

/// Every sweep-backed command reads its figures at `--size`, so a size
/// outside 1/2/4/8 MB would only fail after the whole grid had run.
#[test]
fn repro_rejects_sizes_outside_the_paper_axis_before_sweeping() {
    for cmd in ["headline", "fig6a", "cores"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([cmd, "--size", "3", "--instr", "3000"])
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd} --size 3:\n{stderr}");
        assert!(stderr.contains("[1, 2, 4, 8]"), "the message names the sizes: {stderr}");
        assert!(!stderr.contains("[sweep:"), "{cmd} --size 3 must fail before sweeping");
        assert!(out.stdout.is_empty(), "{cmd} --size 3 printed results");
    }
}

#[test]
fn repro_headline_runs_at_a_small_budget() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["headline", "--instr", "3000"])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro headline failed:\n{stderr}");
    assert!(stderr.contains("[sweep: 192 cells"), "the paper grid ran: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Headline (paper §VII), 4MB total L2"), "{stdout}");
}

/// A flag whose value is missing or not a number, or a zero instruction
/// budget, prints usage and exits 2 instead of panicking or sweeping
/// empty cells.
#[test]
fn repro_rejects_malformed_flags_with_usage() {
    for args in [
        &["headline", "--instr", "x"][..],
        &["headline", "--threads", "x"],
        &["headline", "--seed", "x"],
        &["headline", "--instr"],
        &["headline", "--instr", "0"],
        &["headline", "--bogus"],
    ] {
        let out =
            Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("[sweep:"), "{args:?} must fail before sweeping");
    }
}

/// `repro moesi` prints the MOESI turn-off table (paper §III): one row
/// per state, with the sharer invalidation an O line's turn-off costs.
#[test]
fn repro_moesi_prints_the_turn_off_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).arg("moesi").output().expect("repro runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "repro moesi failed:\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("invalidate sharers"), "{stdout}");
    let owned = stdout.lines().find(|l| l.trim_start().starts_with("O ")).expect("an O row");
    assert!(owned.contains("yes (extra bus op)"), "{owned}");
}

/// `repro adaptive` compares fixed against oracle-adaptive decay for
/// both decay families, each closing with its mean oracle advantage.
#[test]
fn repro_adaptive_reports_both_families() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["adaptive", "--instr", "3000"])
        .output()
        .expect("repro runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "repro adaptive failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let families: Vec<&str> = stdout.split("Oracle adaptive ").skip(1).collect();
    assert_eq!(families.len(), 2, "{stdout}");
    for (section, family) in families.iter().zip(["decay ", "sel_decay "]) {
        assert!(section.starts_with(family), "{section}");
        assert_eq!(section.matches("mean oracle advantage").count(), 1, "{section}");
    }
}

/// `repro cores` halves the budget rounding up: `--instr 1` still runs
/// one instruction per core, so no row reads the 100 % occupation of
/// an empty run.
#[test]
fn repro_cores_keeps_a_budget_of_one_non_empty() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["cores", "--instr", "1", "--size", "1"])
        .output()
        .expect("repro runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "repro cores failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let rows: Vec<&str> =
        stdout.lines().filter(|l| l.contains("protocol") || l.contains("decay")).collect();
    assert_eq!(rows.len(), 6, "{stdout}");
    assert!(rows.iter().all(|r| !r.contains("100.0%")), "{stdout}");
}

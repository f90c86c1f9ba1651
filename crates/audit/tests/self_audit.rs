//! The workspace must pass its own audit: zero findings, zero
//! warnings. This is the same invocation CI runs
//! (`cargo run -p cmpleak-audit -- --deny-warnings`), as a test so
//! `cargo test` alone also gates it.

use std::path::Path;

use cmpleak_audit::workspace::{audit_workspace, find_root};

#[test]
fn workspace_audits_clean() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_root(here).expect("audit crate lives inside the workspace");
    let report = audit_workspace(&root).expect("workspace sources are readable");
    assert!(
        report.findings.is_empty(),
        "determinism/architecture findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {}:{}: deny({}): {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.warnings.is_empty(),
        "stale audit:allow annotations:\n{}",
        report
            .warnings
            .iter()
            .map(|w| format!("  {}:{}: {}", w.file, w.line, w.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The walk must actually have covered the workspace: ten cmpleak
    // crates + audit + facade + four vendor stubs (serde, serde_derive,
    // serde_json, proptest), and a healthy file count. Guards against a
    // discovery regression silently auditing nothing.
    assert_eq!(report.crates_checked, 16, "crates checked");
    assert!(report.files_scanned >= 50, "only {} files scanned", report.files_scanned);
}

#[test]
fn workspace_layering_matches_policy_exactly() {
    // The real manifests, parsed fresh: every cmpleak crate must be in
    // the LAYERS table (no drift between policy and workspace).
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_root(here).expect("workspace root");
    for (name, _) in cmpleak_audit::arch::LAYERS {
        if name.starts_with("cmpleak-") {
            let dir = name.trim_start_matches("cmpleak-");
            let manifest = root.join("crates").join(dir).join("Cargo.toml");
            assert!(manifest.is_file(), "policy names `{name}` but {manifest:?} does not exist");
        }
    }
}

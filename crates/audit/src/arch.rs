//! Workspace architecture checker: parses every member crate's
//! `Cargo.toml` and enforces the crate layering DAG.
//!
//! The policy is the [`LAYERS`] table. Lower layers must never depend
//! on higher ones; `vendor/*` stand-ins are leaf dependencies only and
//! must never depend on a `cmpleak-*` crate; the audit tool itself sits
//! outside the simulation stack and must stay dependency-free so it can
//! gate every other crate without a cycle. Dev-dependencies are exempt
//! from the downward-only rule (Cargo permits dev cycles and the
//! op-source differential suite uses one deliberately), but the vendor
//! leaf rule still applies to them.

use crate::rules::{Finding, LAYERING};

/// The layering policy. A crate may only have normal dependencies on
/// crates with a strictly smaller layer number.
///
/// ```text
///   0  vendor/* (serde, serde_derive, serde_json, proptest)
///   1  cmpleak-mem   cmpleak-cpu   cmpleak-coherence     cmpleak-audit
///   2  cmpleak-workloads (cpu)     cmpleak-trace (cpu, mem)
///   3  cmpleak-system (mem, coherence, cpu, workloads)
///   4  cmpleak-power (coherence, system)
///   5  cmpleak-store (system, power)
///   6  cmpleak-core (everything below)
///   7  cmpleak-bench, cmp-leakage facade (everything)
/// ```
pub const LAYERS: &[(&str, u8)] = &[
    ("serde", 0),
    ("serde_derive", 0),
    ("serde_json", 0),
    ("proptest", 0),
    ("cmpleak-mem", 1),
    ("cmpleak-cpu", 1),
    ("cmpleak-coherence", 1),
    ("cmpleak-audit", 1),
    ("cmpleak-workloads", 2),
    ("cmpleak-trace", 2),
    ("cmpleak-system", 3),
    ("cmpleak-power", 4),
    ("cmpleak-store", 5),
    ("cmpleak-core", 6),
    ("cmpleak-bench", 7),
    ("cmp-leakage", 7),
];

/// One parsed crate manifest (just the slice the checker needs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrateInfo {
    /// `package.name`.
    pub name: String,
    /// Path of the manifest, for finding labels.
    pub manifest_path: String,
    /// Keys of `[dependencies]`, with their manifest line numbers.
    pub deps: Vec<(String, u32)>,
    /// Keys of `[dev-dependencies]`, with their manifest line numbers.
    pub dev_deps: Vec<(String, u32)>,
}

/// Minimal TOML section reader: enough for `[package] name = "..."` and
/// the keys of the dependency tables. Handles dotted keys
/// (`foo.workspace = true`) and inline tables (`foo = { path = ".." }`).
pub fn parse_manifest(manifest_path: &str, toml: &str) -> CrateInfo {
    let mut info = CrateInfo {
        name: String::new(),
        manifest_path: manifest_path.to_string(),
        deps: Vec::new(),
        dev_deps: Vec::new(),
    };
    let mut section = String::new();
    for (idx, raw) in toml.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']').trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else { continue };
        let key = key.trim();
        let value = value.trim();
        match section.as_str() {
            "package" if key == "name" => {
                info.name = value.trim_matches('"').to_string();
            }
            "dependencies" | "dev-dependencies" => {
                // `cmpleak-mem.workspace = true` → dep name `cmpleak-mem`;
                // `serde = { path = "..." }` → dep name `serde`.
                let dep = key.split('.').next().unwrap_or(key).trim_matches('"').to_string();
                if section == "dependencies" {
                    info.deps.push((dep, line_no));
                } else {
                    info.dev_deps.push((dep, line_no));
                }
            }
            _ => {}
        }
    }
    info
}

fn layer_of(name: &str) -> Option<u8> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|&(_, l)| l)
}

/// Check the layering DAG over a set of parsed manifests.
pub fn check_layering(crates: &[CrateInfo]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |file: &str, line: u32, message: String| {
        findings.push(Finding { rule: LAYERING, file: file.to_string(), line, message });
    };
    for c in crates {
        let Some(layer) = layer_of(&c.name) else {
            push(
                &c.manifest_path,
                1,
                format!(
                    "crate `{}` is not in the layering policy — add it to audit::arch::LAYERS with a deliberate layer",
                    c.name
                ),
            );
            continue;
        };
        let is_vendor = layer == 0;
        for (dep, line) in &c.deps {
            let Some(dep_layer) = layer_of(dep) else {
                push(
                    &c.manifest_path,
                    *line,
                    format!("`{}` depends on `{dep}`, which is not in the layering policy", c.name),
                );
                continue;
            };
            if is_vendor && dep_layer != 0 {
                push(
                    &c.manifest_path,
                    *line,
                    format!(
                        "vendor crate `{}` depends on `{dep}`: vendor stand-ins must stay leaf dependencies",
                        c.name
                    ),
                );
            } else if c.name == "cmpleak-audit" && dep_layer != 0 {
                push(
                    &c.manifest_path,
                    *line,
                    format!(
                        "`cmpleak-audit` depends on `{dep}`: the audit gate must stay outside the simulation stack"
                    ),
                );
            } else if dep_layer >= layer && !is_vendor {
                push(
                    &c.manifest_path,
                    *line,
                    format!(
                        "`{}` (layer {layer}) depends on `{dep}` (layer {dep_layer}): dependencies must point strictly downward",
                        c.name
                    ),
                );
            }
        }
        for (dep, line) in &c.dev_deps {
            // Dev-deps may point upward, but vendor crates must not
            // touch the workspace even for tests.
            if is_vendor && layer_of(dep).is_none_or(|l| l != 0) {
                push(
                    &c.manifest_path,
                    *line,
                    format!(
                        "vendor crate `{}` dev-depends on `{dep}`: vendor stand-ins must stay leaf dependencies",
                        c.name
                    ),
                );
            }
        }
    }
    findings
}

//! Store corruption robustness: a damaged result store must never
//! change results — only cost the latency of re-simulating.
//!
//! Every record carries a magic, a schema version, its own content
//! address, a code fingerprint and a payload checksum; any mismatch,
//! truncation or version skew decodes to a silent miss. This suite
//! damages a populated store in every one of those ways mid-sweep and
//! pins the outcome: byte-identical to the uncached sweep, no panic,
//! and — because `publish` overwrites — the damaged cells are repaired
//! by the very pass that missed on them.

use cmp_leakage::core::sweep::{run_sweep, run_sweep_with_telemetry, SweepConfig, SweepTelemetry};
use cmp_leakage::core::{ExperimentScratch, Scenario, Technique, WorkloadSpec};
use cmp_leakage::store::ResultStore;
use cmp_leakage::workloads::ScenarioSpec;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn grid(store: Option<Arc<ResultStore>>) -> SweepConfig {
    SweepConfig {
        scenarios: vec![
            Scenario::Homogeneous(WorkloadSpec::mpeg2dec()),
            Scenario::Mix(ScenarioSpec::bursty_idle()),
        ],
        sizes_mb: vec![1],
        techniques: Technique::paper_set(),
        instructions_per_core: 15_000,
        seed: 42,
        n_cores: 4,
        threads: 2,
        store,
    }
}

fn run(cfg: &SweepConfig) -> (String, SweepTelemetry) {
    let mut scratch = ExperimentScratch::default();
    let (res, t) = run_sweep_with_telemetry(cfg, &mut scratch);
    (serde_json::to_string(&res).expect("serializable"), t)
}

/// All record files under the store's two-level fan-out.
fn record_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in std::fs::read_dir(root).expect("store root").flatten() {
        if dir.path().is_dir() {
            for f in std::fs::read_dir(dir.path()).expect("fan-out dir").flatten() {
                files.push(f.path());
            }
        }
    }
    files.sort();
    assert!(!files.is_empty(), "populated store has no record files");
    files
}

/// Populate a fresh store with the grid, damage every record with
/// `damage`, and pin: the next sweep still matches the uncached
/// baseline (all misses — silent fallback), and the pass after that
/// runs fully warm again (publish repaired the files).
fn damaged_store_roundtrip(tag: &str, mut damage: impl FnMut(&PathBuf)) {
    let fresh = run_sweep(&grid(None));
    let fresh_json = serde_json::to_string(&fresh).expect("serializable");
    let root = std::env::temp_dir().join(format!("cmpleak-store-rob-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let store = Arc::new(ResultStore::open(&root).expect("store root"));

    let cfg = grid(Some(Arc::clone(&store)));
    let (cold, t_cold) = run(&cfg);
    assert_eq!(cold, fresh_json, "{tag}: cold pass diverged before any damage");
    for f in record_files(&root) {
        damage(&f);
    }

    let (after, t_after) = run(&cfg);
    assert_eq!(after, fresh_json, "{tag}: damaged store changed sweep results");
    assert_eq!(
        t_after.store_hits, 0,
        "{tag}: a damaged record decoded as a hit instead of a silent miss"
    );
    assert_eq!(
        t_after.store_misses, t_cold.store_misses,
        "{tag}: fallback did not re-simulate every damaged cell"
    );

    // `publish` overwrites: the miss pass repaired every damaged file.
    let (repaired, t_repaired) = run(&cfg);
    assert_eq!(repaired, fresh_json, "{tag}: repaired store diverged");
    assert_eq!(t_repaired.store_misses, 0, "{tag}: repair pass left misses behind");
    assert_eq!(
        t_repaired.store_hits, t_cold.store_misses,
        "{tag}: repair pass did not answer every cell from disk"
    );
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn flipped_payload_byte_falls_back_and_repairs() {
    damaged_store_roundtrip("byteflip", |f| {
        let mut bytes = std::fs::read(f).expect("record readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(f, bytes).expect("record writable");
    });
}

#[test]
fn truncated_record_falls_back_and_repairs() {
    damaged_store_roundtrip("truncate", |f| {
        let bytes = std::fs::read(f).expect("record readable");
        std::fs::write(f, &bytes[..bytes.len() / 2]).expect("record writable");
    });
}

#[test]
fn schema_version_skew_falls_back_and_repairs() {
    // The schema version is the little-endian u32 after the 4-byte
    // magic; a bumped store format must read as a miss, never as a
    // misdecoded record.
    damaged_store_roundtrip("skew", |f| {
        let mut bytes = std::fs::read(f).expect("record readable");
        bytes[4] = bytes[4].wrapping_add(1);
        std::fs::write(f, bytes).expect("record writable");
    });
}

#[test]
fn garbage_and_empty_records_fall_back_and_repair() {
    let mut toggle = false;
    damaged_store_roundtrip("garbage", move |f| {
        toggle = !toggle;
        if toggle {
            std::fs::write(f, b"not a CMPS record at all").expect("record writable");
        } else {
            std::fs::write(f, b"").expect("record writable");
        }
    });
}

/// Damage must also be invisible at the single-load surface: a corrupt
/// record loads as `None`, not as an error or a wrong cell.
#[test]
fn corrupt_record_loads_as_none() {
    let root = std::env::temp_dir().join(format!("cmpleak-store-rob-load-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let store = Arc::new(ResultStore::open(&root).expect("store root"));
    let cfg = grid(Some(Arc::clone(&store)));
    run(&cfg);

    let cell0 = cfg.scenarios[0].clone();
    let key = cmp_leakage::core::ExperimentConfig::paper_scenario(
        cell0,
        cfg.techniques[0],
        cfg.sizes_mb[0],
    );
    let key = {
        let mut k = key;
        k.instructions_per_core = cfg.instructions_per_core;
        k.seed = cfg.seed;
        k.n_cores = cfg.n_cores;
        k.store_key()
    };
    assert!(store.load(&key).is_some(), "published cell must load back");
    let path = store.path_of(&key);
    let mut bytes = std::fs::read(&path).expect("record readable");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, bytes).expect("record writable");
    assert!(store.load(&key).is_none(), "corrupt record must be a silent miss");
    std::fs::remove_dir_all(root).ok();
}

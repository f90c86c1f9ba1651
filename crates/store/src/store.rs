//! The on-disk store: one file per cell under a two-level fan-out
//! (`<root>/<hh>/<rest>.cmps`), written atomically via temp-file +
//! rename so concurrent publishers and readers never observe a partial
//! record.

use crate::hash::CellKey;
use crate::record::{decode_record, encode_record, record_len, StoredCell, PREFIX_LEN};
use cmpleak_power::PowerReport;
use cmpleak_system::SimStats;
use std::ffi::OsString;
use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::Read;
use std::path::{Path, PathBuf, MAIN_SEPARATOR};
use std::sync::atomic::{AtomicU64, Ordering};

/// The most a load reserves before reading: a damaged payload length
/// cannot make it allocate more, and a larger record grows as it reads.
const MAX_RESERVE: usize = 1 << 24;

/// A content-addressed result store rooted at a directory.
///
/// All failure modes on the read path — missing file, unreadable file,
/// corrupt or truncated record, schema or fingerprint skew — surface as
/// `None` from [`ResultStore::load`], i.e. a cache miss. The write path
/// is best-effort: a failed publish loses the warm-up, never the
/// result.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    seq: AtomicU64,
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self { root, seq: AtomicU64::new(0) })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file a cell lives at: two-hex-digit fan-out directory, then
    /// the remaining 30 digits of the content address.
    pub fn path_of(&self, key: &CellKey) -> PathBuf {
        let root = self.root.as_os_str();
        let [hi, lo] = key.hash;
        let mut path = OsString::with_capacity(root.len() + 40);
        path.push(root);
        // Writing to an `OsString` cannot fail.
        write!(
            path,
            "{MAIN_SEPARATOR}{:02x}{MAIN_SEPARATOR}{:014x}{lo:016x}.cmps",
            hi >> 56,
            hi & ((1 << 56) - 1)
        )
        .ok();
        PathBuf::from(path)
    }

    /// Whether a record file exists for `key` (without validating it).
    pub fn contains(&self, key: &CellKey) -> bool {
        self.path_of(key).is_file()
    }

    /// Load and fully validate the cell for `key`. Any anomaly is a
    /// silent miss.
    pub fn load(&self, key: &CellKey) -> Option<StoredCell> {
        let mut file = File::open(self.path_of(key)).ok()?;
        // The prefix gives the record's length, so the file is read into
        // one buffer sized once, and without a `stat`. One byte more is
        // asked for than a sound record holds: trailing bytes then reach
        // `decode_record`, which refuses them.
        let mut prefix = [0; PREFIX_LEN];
        file.read_exact(&mut prefix).ok()?;
        let len = record_len(&prefix, key)?;
        let mut bytes = Vec::with_capacity(len.min(MAX_RESERVE) + 1);
        bytes.extend_from_slice(&prefix);
        file.take((len - PREFIX_LEN) as u64 + 1).read_to_end(&mut bytes).ok()?;
        decode_record(&bytes, key)
    }

    /// Publish a cell, overwriting any existing record — a republish
    /// after a validation miss repairs corrupt files in place. Atomic
    /// via a unique temp file in the same directory plus rename.
    pub fn publish(
        &self,
        key: &CellKey,
        stats: &SimStats,
        power: &PowerReport,
    ) -> std::io::Result<()> {
        let dest = self.path_of(key);
        fs::create_dir_all(dest.parent().unwrap_or(&self.root))?;
        let tmp = dest.with_file_name(format!(
            "tmp-{}-{}",
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, encode_record(key, stats, power))?;
        fs::rename(&tmp, &dest).inspect_err(|_| {
            fs::remove_file(&tmp).ok();
        })
    }

    /// Publish only if no record file exists yet — used for derived
    /// cells so fully-warm sweeps stay write-free.
    pub fn publish_if_absent(
        &self,
        key: &CellKey,
        stats: &SimStats,
        power: &PowerReport,
    ) -> std::io::Result<()> {
        if self.contains(key) {
            return Ok(());
        }
        self.publish(key, stats, power)
    }

    /// Count record files currently in the store (test/diagnostic aid).
    pub fn record_count(&self) -> usize {
        fn walk(dir: &Path, n: &mut usize) {
            let Ok(entries) = fs::read_dir(dir) else { return };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, n);
                } else if path.extension().is_some_and(|e| e == "cmps") {
                    *n += 1;
                }
            }
        }
        let mut n = 0;
        walk(&self.root, &mut n);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::KeyHasher;
    use cmpleak_power::EnergyBreakdown;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cmpleak-store-test-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn cell() -> (SimStats, PowerReport) {
        let stats = SimStats { cycles: 42, instructions: 99, ..Default::default() };
        let power = PowerReport {
            energy: EnergyBreakdown { core_dynamic_pj: 1.0, ..Default::default() },
            avg_l2_temp_c: 45.0,
            peak_temp_c: 47.5,
            avg_power_w: 3.25,
        };
        (stats, power)
    }

    fn key(tag: &str) -> CellKey {
        let mut h = KeyHasher::new();
        h.write_str(tag);
        h.finish(tag)
    }

    #[test]
    fn publish_then_load_roundtrips() {
        let store = ResultStore::open(tmp_root("roundtrip")).unwrap();
        let (stats, power) = cell();
        let k = key("a");
        assert!(store.load(&k).is_none(), "empty store misses");
        assert!(!store.contains(&k));
        store.publish(&k, &stats, &power).unwrap();
        assert!(store.contains(&k));
        let got = store.load(&k).expect("published cell loads");
        assert_eq!(got.stats, stats);
        assert_eq!(got.power, power);
        assert_eq!(store.record_count(), 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn corrupt_record_is_a_silent_miss_and_republish_repairs_it() {
        let store = ResultStore::open(tmp_root("repair")).unwrap();
        let (stats, power) = cell();
        let k = key("b");
        store.publish(&k, &stats, &power).unwrap();
        let path = store.path_of(&k);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(&k).is_none(), "corruption must be a miss, not an error");
        store.publish(&k, &stats, &power).unwrap();
        assert_eq!(store.load(&k).expect("repaired").stats, stats);
        fs::remove_dir_all(store.root()).ok();
    }

    /// `load` sizes its read from the record's own prefix: a damaged
    /// length, any other flipped byte, a cut or an extra byte must still
    /// be a miss.
    #[test]
    fn every_damaged_record_file_is_a_miss_at_load() {
        let store = ResultStore::open(tmp_root("damage")).unwrap();
        let (stats, power) = cell();
        let k = key("d");
        store.publish(&k, &stats, &power).unwrap();
        let path = store.path_of(&k);
        let good = fs::read(&path).unwrap();
        let mut damaged: Vec<Vec<u8>> = (0..good.len())
            .map(|i| {
                let mut bad = good.clone();
                bad[i] ^= 0x40;
                bad
            })
            .collect();
        damaged.extend((0..good.len()).map(|len| good[..len].to_vec()));
        damaged.push([&good[..], &[0]].concat());
        for bad in damaged {
            fs::write(&path, &bad).unwrap();
            assert!(store.load(&k).is_none(), "a damaged record of {} bytes loaded", bad.len());
        }
        fs::write(&path, &good).unwrap();
        assert_eq!(store.load(&k).expect("the sound record loads").stats, stats);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn publish_if_absent_does_not_rewrite() {
        let store = ResultStore::open(tmp_root("absent")).unwrap();
        let (stats, power) = cell();
        let k = key("c");
        store.publish_if_absent(&k, &stats, &power).unwrap();
        let before = fs::metadata(store.path_of(&k)).unwrap().modified().unwrap();
        let (other, _) = cell();
        store.publish_if_absent(&k, &other, &power).unwrap();
        let after = fs::metadata(store.path_of(&k)).unwrap().modified().unwrap();
        assert_eq!(before, after, "existing record must be left untouched");
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn a_record_lives_at_its_hex_address_under_a_two_digit_fan_out() {
        let store = ResultStore::open(tmp_root("layout")).unwrap();
        let k = key("layout");
        let hex = k.hex();
        let want = store.root().join(&hex[..2]).join(format!("{}.cmps", &hex[2..]));
        assert_eq!(store.path_of(&k), want);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn distinct_keys_distinct_files() {
        let store = ResultStore::open(tmp_root("distinct")).unwrap();
        assert_ne!(store.path_of(&key("x")), store.path_of(&key("y")));
        fs::remove_dir_all(store.root()).ok();
    }
}

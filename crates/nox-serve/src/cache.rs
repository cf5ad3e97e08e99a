//! Content-addressed, crash-safe result cache.
//!
//! Every cacheable request has a **canonical serialization**
//! ([`crate::proto::Request::canonical`]); its cache key is a 128-bit
//! FNV-1a hash of that string joined with [`crate::CODE_VERSION`], so a
//! key names *exactly one* artifact: same request bytes + same code →
//! same key, and any code change that can alter artifact bytes bumps
//! the version and orphans every stale entry. The executor's
//! determinism guarantee (byte-identical output at any thread count)
//! is what makes content addressing sound — the thread count is
//! deliberately *not* part of the key, and the cache-soundness tests
//! pin that down.
//!
//! Crash-safety contract:
//!
//! * **Writes are atomic.** An entry is serialized to a `tmp-*` file in
//!   the cache directory, `sync_all`ed, then `rename`d into place.
//!   POSIX rename atomicity means a reader (or a `kill -9`) sees either
//!   no entry or the whole entry — never a torn one under the final
//!   name.
//! * **Entries are checksummed.** Each entry records an FNV-1a-64
//!   checksum of its artifact text, re-verified on every lookup, so
//!   even out-of-band corruption (a flipped byte on disk) is detected
//!   rather than served.
//! * **Startup heals.** [`Cache::open`] deletes leftover `tmp-*`
//!   partials and moves undecodable or checksum-failing entries into
//!   `quarantine/` for post-mortem instead of serving or deleting them.
//!   After `kill -9` at any instant, a restart loses at most the entry
//!   that was mid-write.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use nox_analysis::json::Json;

/// Schema tag stamped into every entry file.
pub const SCHEMA: &str = "nox-serve/cache/v1";

/// FNV-1a-64 over `bytes`, from an arbitrary offset basis.
fn fnv1a(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The content key for a canonical request serialization: 32 hex chars
/// from two independent FNV-1a-64 passes (standard offset basis and a
/// distinct second basis) over `canonical + "\n" + CODE_VERSION`.
///
/// FNV is not cryptographic; the cache defends against *accidents*
/// (crashes, bit rot), not adversaries — anyone who can write the
/// cache directory already owns the daemon.
pub fn content_key(canonical: &str) -> String {
    let mut keyed = String::with_capacity(canonical.len() + crate::CODE_VERSION.len() + 1);
    keyed.push_str(canonical);
    keyed.push('\n');
    keyed.push_str(crate::CODE_VERSION);
    let a = fnv1a(FNV_BASIS, keyed.as_bytes());
    let b = fnv1a(FNV_BASIS ^ 0x5bd1_e995_9e37_79b9, keyed.as_bytes());
    format!("{a:016x}{b:016x}")
}

/// Checksum of an artifact's serialized text, as recorded in entries.
fn checksum(artifact: &str) -> String {
    format!("{:016x}", fnv1a(FNV_BASIS, artifact.as_bytes()))
}

/// Result of a cache lookup.
#[derive(Debug, PartialEq)]
pub enum Lookup {
    /// A valid entry: the stored artifact document.
    Hit(Json),
    /// No entry under this key.
    Miss,
    /// An entry existed but failed validation; it has been moved to
    /// `quarantine/` and the caller should recompute.
    Quarantined,
}

/// What the startup scan found and did.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Entries that validated.
    pub valid: usize,
    /// Leftover `tmp-*` partial writes deleted.
    pub partials_removed: usize,
    /// Corrupt entries moved to `quarantine/`.
    pub quarantined: usize,
}

/// The on-disk cache. All methods take `&self`; an internal counter
/// keeps concurrent temp-file names distinct.
pub struct Cache {
    dir: PathBuf,
    tmp_seq: AtomicU64,
    /// Filled by [`Cache::open`]'s integrity scan.
    pub scan: ScanReport,
}

impl Cache {
    /// Opens (creating if needed) the cache at `dir` and runs the
    /// integrity scan: `tmp-*` partials are deleted, entries that fail
    /// validation are moved into `dir/quarantine/`.
    pub fn open(dir: &Path) -> std::io::Result<Cache> {
        fs::create_dir_all(dir)?;
        let mut scan = ScanReport::default();
        let mut names: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        names.sort();
        for path in names {
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(n) => n.to_string(),
                None => continue,
            };
            if name.starts_with("tmp-") {
                if fs::remove_file(&path).is_ok() {
                    scan.partials_removed += 1;
                }
                continue;
            }
            let Some(key) = name.strip_suffix(".json") else {
                continue;
            };
            match fs::read_to_string(&path) {
                Ok(text) if validate(key, &text).is_some() => scan.valid += 1,
                _ => {
                    quarantine(dir, &path, &name);
                    scan.quarantined += 1;
                }
            }
        }
        Ok(Cache {
            dir: dir.to_path_buf(),
            tmp_seq: AtomicU64::new(0),
            scan,
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks up `key`, re-verifying the entry checksum. A corrupt
    /// entry is quarantined on the spot and reported as
    /// [`Lookup::Quarantined`] so the caller recomputes (and the next
    /// store overwrites the key with a good entry).
    pub fn lookup(&self, key: &str) -> Lookup {
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return Lookup::Miss,
        };
        match validate(key, &text) {
            Some(artifact) => Lookup::Hit(artifact),
            None => {
                quarantine(&self.dir, &path, &format!("{key}.json"));
                Lookup::Quarantined
            }
        }
    }

    /// Stores `artifact` under `key` atomically: serialize to a
    /// `tmp-*` file, `sync_all`, rename into place. A crash at any
    /// point leaves either the old state or the new entry, never a
    /// torn file under the final name.
    pub fn store(&self, key: &str, artifact: &Json) -> std::io::Result<()> {
        let artifact_text = artifact.to_string();
        let entry = Json::obj()
            .field("schema", SCHEMA)
            .field("key", key)
            .field("checksum", checksum(&artifact_text))
            .field("artifact", artifact.clone());
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!("tmp-{}-{seq}", std::process::id()));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(entry.to_string().as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.entry_path(key))
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }
}

/// Parses and fully validates an entry; returns the artifact if sound.
fn validate(key: &str, text: &str) -> Option<Json> {
    let doc = Json::parse(text.trim()).ok()?;
    if doc.get("schema")?.as_str()? != SCHEMA || doc.get("key")?.as_str()? != key {
        return None;
    }
    let artifact = doc.get("artifact")?;
    if doc.get("checksum")?.as_str()? != checksum(&artifact.to_string()) {
        return None;
    }
    Some(artifact.clone())
}

/// Moves a bad entry into `dir/quarantine/` (best-effort: if even that
/// fails the file is deleted so it can never be served).
fn quarantine(dir: &Path, path: &Path, name: &str) {
    let qdir = dir.join("quarantine");
    let moved = fs::create_dir_all(&qdir)
        .and_then(|()| fs::rename(path, qdir.join(name)))
        .is_ok();
    if !moved {
        let _ = fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Unique per-test scratch dir without wall-clock or RNG.
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("nox-serve-cache-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn artifact() -> Json {
        Json::obj().field("answer", 42u64).field("name", "sweep")
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let dir = scratch("roundtrip");
        let cache = Cache::open(&dir).unwrap();
        let key = content_key(r#"{"req":"run","harness":"claims","tier":"smoke"}"#);
        assert_eq!(cache.lookup(&key), Lookup::Miss);
        cache.store(&key, &artifact()).unwrap();
        let Lookup::Hit(got) = cache.lookup(&key) else {
            panic!("expected hit")
        };
        assert_eq!(got.to_string(), artifact().to_string());
        // A second cache instance (a daemon restart) sees the entry.
        let reopened = Cache::open(&dir).unwrap();
        assert_eq!(
            reopened.scan,
            ScanReport {
                valid: 1,
                ..ScanReport::default()
            }
        );
        assert!(matches!(reopened.lookup(&key), Lookup::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_requests_and_code_versions() {
        let smoke = r#"{"req":"run","harness":"claims","tier":"smoke"}"#;
        let a = content_key(smoke);
        let b = content_key(r#"{"req":"run","harness":"claims","tier":"quick"}"#);
        assert_ne!(a, b);
        assert_eq!(a.len(), 32);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
        // Stable across calls (pure function of content).
        assert_eq!(a, content_key(smoke));
    }

    #[test]
    fn flipped_byte_is_quarantined_not_served() {
        let dir = scratch("flip");
        let cache = Cache::open(&dir).unwrap();
        let key = content_key("victim");
        cache.store(&key, &artifact()).unwrap();
        // Corrupt one byte inside the artifact payload on disk.
        let path = dir.join(format!("{key}.json"));
        let mut bytes = fs::read(&path).unwrap();
        let pos = bytes.windows(2).position(|w| w == b"42").unwrap();
        bytes[pos] = b'9';
        fs::write(&path, &bytes).unwrap();

        assert_eq!(cache.lookup(&key), Lookup::Quarantined);
        assert!(dir.join("quarantine").join(format!("{key}.json")).exists());
        assert_eq!(cache.lookup(&key), Lookup::Miss);
        // Recompute + store heals the key.
        cache.store(&key, &artifact()).unwrap();
        assert!(matches!(cache.lookup(&key), Lookup::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_scan_heals_partials_and_torn_entries() {
        let dir = scratch("scan");
        {
            let cache = Cache::open(&dir).unwrap();
            cache.store(&content_key("good"), &artifact()).unwrap();
        }
        // Simulate kill -9 mid-write: a leftover tmp file and an entry
        // truncated under its final name (as if the fs lost the tail).
        fs::write(dir.join("tmp-999-0"), b"{\"schema\":\"nox-serve/ca").unwrap();
        let torn = content_key("torn");
        fs::write(
            dir.join(format!("{torn}.json")),
            b"{\"schema\":\"nox-serve/cache/v1\",\"key\":\"",
        )
        .unwrap();
        // And one entry with a wrong key (renamed by hand).
        let moved = content_key("moved");
        let good_text =
            fs::read_to_string(dir.join(format!("{}.json", content_key("good")))).unwrap();
        fs::write(dir.join(format!("{moved}.json")), good_text).unwrap();

        let cache = Cache::open(&dir).unwrap();
        assert_eq!(
            cache.scan,
            ScanReport {
                valid: 1,
                partials_removed: 1,
                quarantined: 2
            }
        );
        assert!(!dir.join("tmp-999-0").exists());
        assert!(matches!(cache.lookup(&content_key("good")), Lookup::Hit(_)));
        assert_eq!(cache.lookup(&torn), Lookup::Miss);
        let _ = fs::remove_dir_all(&dir);
    }
}

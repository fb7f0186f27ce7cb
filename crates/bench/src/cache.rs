//! The content-addressed sweep result cache.
//!
//! A completed ledger is immutable, and a sweep is a pure function of its
//! grid declaration, its root seed and the engine's semantic version — so a
//! completed ledger can be **addressed by content**: the cache key is a hash
//! of the grid's canonical encoding (which embeds the root seed) folded with
//! [`rr_corda::ENGINE_VERSION`].  Submitting a grid whose key is cached is
//! served by copying the cached ledger's bytes — zero engine work, proven by
//! the `cache_hit_runs_zero_engine_steps` test against the engine's debug
//! step probe.
//!
//! Entries are published atomically (write to a dot-tempfile, fsync,
//! rename), and an entry is only served after validation against the
//! requesting grid's bound header (header line byte-equality + footer cell
//! count), so a 64-bit key collision or a corrupted entry is a miss, not
//! wrong bytes; [`ResultCache::gc`] sweeps out incomplete or torn entries,
//! leaving recent tempfiles alone so it cannot race a concurrent publish.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::ledger;
use crate::sweep::SweepHeader;

/// Folds `bytes` into an FNV-1a 64-bit hash (start from [`FNV_OFFSET`]).
#[must_use]
pub fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The content-address of a sweep result: hash of the grid's canonical
/// encoding folded with the engine's semantic version.
#[must_use]
pub fn cache_key(canonical_grid_encoding: &str, engine_version: &str) -> u64 {
    let hash = fnv1a64(FNV_OFFSET, canonical_grid_encoding.as_bytes());
    let hash = fnv1a64(hash, b"\0");
    fnv1a64(hash, engine_version.as_bytes())
}

/// A directory of completed ledgers addressed by [`cache_key`].
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Propagates directory creation errors.
    pub fn open(dir: &Path) -> io::Result<ResultCache> {
        std::fs::create_dir_all(dir)?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path an entry for `key` would live at.
    #[must_use]
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.jsonl"))
    }

    /// Whether a scanned entry actually belongs to the grid asking for it:
    /// complete, header line byte-equal to the requesting grid's header
    /// (which binds the grid's content-address and cell count), and footer
    /// cell count in agreement.  This is what makes a 64-bit key collision
    /// — or an entry poisoned by external corruption — a cache **miss**
    /// instead of silently served wrong bytes.
    fn entry_matches(found: &ledger::LedgerScan, header: &SweepHeader) -> bool {
        found.is_complete()
            && found.header.as_deref() == Some(header.to_json_line().as_str())
            && header
                .grid_cells()
                .is_none_or(|cells| found.footer.map(|(c, _)| c) == Some(cells))
    }

    /// The cached ledger for `key`, if a **complete** one matching
    /// `header` (the requesting grid's bound header) is present.
    #[must_use]
    pub fn lookup(&self, key: u64, header: &SweepHeader) -> Option<PathBuf> {
        let path = self.entry_path(key);
        match ledger::scan(&path) {
            Ok(found) if Self::entry_matches(&found, header) => Some(path),
            _ => None,
        }
    }

    /// Publishes the completed ledger at `source` under `key` (atomically;
    /// concurrent publishers of the same key are idempotent — the content is
    /// identical by construction).  Refuses a ledger without a completion
    /// footer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; publishing an incomplete ledger is
    /// `InvalidInput`.
    pub fn publish(&self, key: u64, source: &Path) -> io::Result<PathBuf> {
        let found = ledger::scan(source)?;
        if !found.is_complete() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("refusing to cache incomplete ledger {}", source.display()),
            ));
        }
        let bytes = std::fs::read(source)?;
        let tmp = self
            .dir
            .join(format!(".tmp-{key:016x}-{}", std::process::id()));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_data()?;
        }
        let dest = self.entry_path(key);
        std::fs::rename(&tmp, &dest)?;
        Ok(dest)
    }

    /// Serves the cached ledger for `key` into `dest` (atomically, via a
    /// sibling tempfile), after validating the entry against `header` — a
    /// non-matching entry is a miss, never served.  Returns whether there
    /// was a hit.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn serve(&self, key: u64, header: &SweepHeader, dest: &Path) -> io::Result<bool> {
        let Some(entry) = self.lookup(key, header) else {
            return Ok(false);
        };
        let bytes = std::fs::read(&entry)?;
        let tmp = dest.with_extension("serving");
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_data()?;
        }
        std::fs::rename(&tmp, dest)?;
        Ok(true)
    }

    /// Removes incomplete entries and stale tempfiles, returning how many
    /// files were deleted.  Tempfiles younger than [`GC_TMP_GRACE`] are
    /// kept: they may belong to a publish that is happening right now, and
    /// deleting one under it would fail that publish's rename.
    ///
    /// # Errors
    ///
    /// Propagates directory reading errors (individual unlink races are
    /// ignored).
    pub fn gc(&self) -> io::Result<usize> {
        self.gc_with_grace(GC_TMP_GRACE)
    }

    /// [`ResultCache::gc`] with an explicit tempfile grace period (tests use
    /// zero to force collection).
    ///
    /// # Errors
    ///
    /// Propagates directory reading errors.
    pub fn gc_with_grace(&self, grace: std::time::Duration) -> io::Result<usize> {
        let mut removed = 0usize;
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if !path.is_file() {
                continue;
            }
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let is_tmp = name.starts_with(".tmp-") || name.ends_with(".serving");
            let stale_tmp = is_tmp && file_older_than(&path, grace);
            let incomplete = name.ends_with(".jsonl")
                && !matches!(ledger::scan(&path), Ok(found) if found.is_complete());
            if (stale_tmp || incomplete) && std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// How long a dot-tempfile must sit untouched before [`ResultCache::gc`]
/// considers it abandoned rather than a publish in flight.
pub const GC_TMP_GRACE: std::time::Duration = std::time::Duration::from_secs(300);

/// Whether the file at `path` was last modified at least `grace` ago.  A
/// missing file, an unreadable mtime or a clock that says the file is from
/// the future all answer `false` — never delete what cannot be aged.
#[must_use]
pub fn file_older_than(path: &Path, grace: std::time::Duration) -> bool {
    std::fs::metadata(path)
        .and_then(|meta| meta.modified())
        .ok()
        .and_then(|mtime| mtime.elapsed().ok())
        .is_some_and(|age| age >= grace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Ledger;
    use crate::sweep::SweepHeader;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Rec {
        experiment: &'static str,
        ok: bool,
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rr-cache-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn key_depends_on_encoding_and_engine_version() {
        let a = cache_key("grid-a", "1.0.0");
        assert_eq!(a, cache_key("grid-a", "1.0.0"));
        assert_ne!(a, cache_key("grid-b", "1.0.0"));
        assert_ne!(a, cache_key("grid-a", "1.0.1"));
    }

    #[test]
    fn publish_serve_roundtrip_and_gc() {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let source = dir.join("source.ledger");
        let header = SweepHeader::new("T", 5);
        let mut ledger = Ledger::create(&source, &header).unwrap();
        ledger
            .append(
                0,
                &Rec {
                    experiment: "T",
                    ok: true,
                },
            )
            .unwrap();

        // Incomplete ledgers are refused.
        let key = cache_key("g", "v");
        assert!(cache.publish(key, &source).is_err());
        assert!(cache.lookup(key, &header).is_none());

        ledger.finish().unwrap();
        cache.publish(key, &source).unwrap();
        assert!(cache.lookup(key, &header).is_some());

        let dest = dir.join("served.ledger");
        assert!(cache.serve(key, &header, &dest).unwrap());
        assert_eq!(
            std::fs::read(&source).unwrap(),
            std::fs::read(&dest).unwrap()
        );
        assert!(!cache
            .serve(cache_key("other", "v"), &header, &dest)
            .unwrap());

        // gc removes a hand-planted incomplete entry but keeps the good one.
        let bad = cache.entry_path(cache_key("bad", "v"));
        std::fs::write(&bad, "{\"schema\":\"rr-sweep/v1\"}\n{\"experiment\"").unwrap();
        let removed = cache.gc().unwrap();
        assert_eq!(removed, 1);
        assert!(cache.lookup(key, &header).is_some());
        assert!(!bad.exists());
    }

    #[test]
    fn mismatched_entry_is_a_miss_not_wrong_bytes() {
        let dir = tmp_dir("validate");
        let cache = ResultCache::open(&dir).unwrap();
        let key = cache_key("colliding", "v");

        // An entry written by a *different* grid landing under this key (a
        // key collision, or a poisoned entry) must never be served.
        let other_header = SweepHeader::new("OTHER", 9).for_grid(key, 1);
        let source = dir.join("other.ledger");
        let mut ledger = Ledger::create(&source, &other_header).unwrap();
        ledger
            .append(
                0,
                &Rec {
                    experiment: "OTHER",
                    ok: true,
                },
            )
            .unwrap();
        ledger.finish().unwrap();
        cache.publish(key, &source).unwrap();

        let asking = SweepHeader::new("MINE", 9).for_grid(key, 1);
        assert!(cache.lookup(key, &asking).is_none(), "header must match");
        let dest = dir.join("dest.ledger");
        assert!(!cache.serve(key, &asking, &dest).unwrap());
        assert!(!dest.exists(), "a miss must not touch the destination");
        assert!(
            cache.lookup(key, &other_header).is_some(),
            "the rightful owner still hits"
        );

        // A grid of the same experiment and seed but a different shape
        // (different declared cell count) is also a miss.
        let short = SweepHeader::new("OTHER", 9).for_grid(key, 2);
        assert!(cache.lookup(key, &short).is_none());
    }

    #[test]
    fn gc_spares_recent_tempfiles() {
        let dir = tmp_dir("tmp-grace");
        let cache = ResultCache::open(&dir).unwrap();
        let tmp = dir.join(".tmp-0000000000000001-99999");
        std::fs::write(&tmp, "half a publish").unwrap();
        // Default grace: a freshly written tempfile survives gc...
        cache.gc().unwrap();
        assert!(tmp.exists(), "gc raced a publish in flight");
        // ...but with the grace elapsed (forced to zero) it is collected.
        let removed = cache.gc_with_grace(std::time::Duration::ZERO).unwrap();
        assert_eq!(removed, 1);
        assert!(!tmp.exists());
    }
}

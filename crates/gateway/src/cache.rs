//! The persistent result cache.
//!
//! The gateway answers a repeated submission — the same input (suite
//! name, or file format and text), library, and deterministic config
//! ([`crate::key`]) — in O(1) from this cache instead of burning a
//! worker on it. Entries hold
//! the finished run's circuit name, full [`telemetry::RunReport`], and
//! the optimized netlist as mapped BLIF text: enough to replay a
//! byte-identical terminal event with only the job id changed.
//!
//! Only `done` outcomes are cached. A `done` run never tripped its
//! budget, so its result equals the unlimited run of the same spec —
//! which makes it a sound answer for any later budget. `degraded`,
//! `failed`, and `cancelled` outcomes depend on the budget or on
//! transient state and are never cached.
//!
//! The cache is a capped LRU. With a directory configured it is also
//! persistent: every entry is one file `<key:016x>.json`, written
//! atomically (temp + rename), and [`ResultCache::open`] rebuilds the
//! index by scanning the directory — a gateway restart keeps its warm
//! cache. Unreadable entry files are skipped and deleted, never fatal.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use telemetry::{json_escaped, RunReport};

/// One cached finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Resolved circuit name.
    pub circuit: String,
    /// The run's report.
    pub report: RunReport,
    /// The optimized netlist as mapped BLIF text.
    pub blif: String,
}

struct Inner {
    /// Shared with every hit: a lookup clones the `Arc`, not the entry.
    entries: HashMap<u64, Arc<CacheEntry>>,
    /// Keys from least- to most-recently used.
    order: Vec<u64>,
    hits: u64,
    misses: u64,
}

/// The capped, optionally-persistent LRU result cache. Methods take
/// `&self`; share via `Arc`.
pub struct ResultCache {
    dir: Option<PathBuf>,
    cap: usize,
    inner: Mutex<Inner>,
}

impl ResultCache {
    /// An in-memory cache holding at most `cap` entries (`cap == 0`
    /// disables caching: every lookup misses, every insert is dropped).
    #[must_use]
    pub fn in_memory(cap: usize) -> ResultCache {
        ResultCache {
            dir: None,
            cap,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                order: Vec::new(),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// Opens a persistent cache backed by `dir`, loading every readable
    /// entry file. Recency across restarts is approximated by file
    /// modification time (oldest = least recently used); entries beyond
    /// `cap` are evicted oldest-first during the load.
    ///
    /// # Errors
    ///
    /// IO errors creating or scanning the directory. Individual
    /// unreadable entry files are deleted and skipped, not errors.
    pub fn open(dir: &Path, cap: usize) -> std::io::Result<ResultCache> {
        std::fs::create_dir_all(dir)?;
        let mut found: Vec<(std::time::SystemTime, u64, CacheEntry)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let Some(key) = entry_key(&path) else {
                continue;
            };
            match read_entry(&path) {
                Some(parsed) => {
                    let mtime = entry
                        .metadata()
                        .and_then(|m| m.modified())
                        .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                    found.push((mtime, key, parsed));
                }
                None => {
                    // A torn or corrupt entry (crash mid-write before the
                    // rename, manual edits): drop it rather than serving
                    // garbage.
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        found.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let cache = ResultCache {
            dir: Some(dir.to_path_buf()),
            cap,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                order: Vec::new(),
                hits: 0,
                misses: 0,
            }),
        };
        {
            let mut inner = cache.lock();
            for (_, key, parsed) in found {
                inner.entries.insert(key, Arc::new(parsed));
                inner.order.push(key);
            }
        }
        cache.evict_over_cap();
        Ok(cache)
    }

    /// Looks `key` up, refreshing its recency on a hit. Every hit on an
    /// entry shares it; the caller clones what it needs.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<Arc<CacheEntry>> {
        let mut inner = self.lock();
        match inner.entries.get(&key).cloned() {
            Some(entry) => {
                inner.hits += 1;
                inner.order.retain(|&k| k != key);
                inner.order.push(key);
                Some(entry)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts a finished run under `key` (replacing any previous
    /// entry), persists it when a directory is configured, and evicts
    /// the least recently used entries beyond the cap.
    pub fn insert(&self, key: u64, entry: CacheEntry) {
        if self.cap == 0 {
            return;
        }
        if let Some(dir) = &self.dir {
            write_entry(dir, key, &entry);
        }
        {
            let mut inner = self.lock();
            inner.entries.insert(key, Arc::new(entry));
            inner.order.retain(|&k| k != key);
            inner.order.push(key);
        }
        self.evict_over_cap();
    }

    /// Entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime (hits, misses) tally.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.hits, inner.misses)
    }

    fn evict_over_cap(&self) {
        let mut evicted: Vec<u64> = Vec::new();
        {
            let mut inner = self.lock();
            while inner.entries.len() > self.cap {
                let key = inner.order.remove(0);
                inner.entries.remove(&key);
                evicted.push(key);
            }
        }
        if let Some(dir) = &self.dir {
            for key in evicted {
                let _ = std::fs::remove_file(dir.join(format!("{key:016x}.json")));
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The key encoded in an entry file's name, or `None` for foreign files.
fn entry_key(path: &Path) -> Option<u64> {
    let stem = path.file_name()?.to_str()?.strip_suffix(".json")?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

fn read_entry(path: &Path) -> Option<CacheEntry> {
    let text = std::fs::read_to_string(path).ok()?;
    let v = proto::json::parse(&text).ok()?;
    let circuit = v.get("circuit")?.as_str()?.to_string();
    let blif = v.get("blif")?.as_str()?.to_string();
    // The report parser is lossless (shortest-round-trip floats), so a
    // reloaded entry replays the same bytes the original run produced.
    let report = proto::report_from_json(v.get("report")?).ok()?;
    Some(CacheEntry {
        circuit,
        report,
        blif,
    })
}

fn write_entry(dir: &Path, key: u64, entry: &CacheEntry) {
    let line = format!(
        "{{\"key\":\"{key:016x}\",\"circuit\":{},\"blif\":{},\"report\":{}}}\n",
        json_escaped(&entry.circuit),
        json_escaped(&entry.blif),
        entry.report.to_json(),
    );
    // Atomic publish: a crash mid-write leaves a `.tmp` the next open
    // ignores, never a torn entry under the real name.
    let tmp = dir.join(format!("{key:016x}.tmp"));
    let fin = dir.join(format!("{key:016x}.json"));
    if std::fs::write(&tmp, line).is_ok() {
        let _ = std::fs::rename(&tmp, &fin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tag: &str) -> CacheEntry {
        let mut r = RunReport::default();
        r.meta.insert("job".into(), format!("job-{tag}"));
        r.meta.insert("circuit".into(), tag.to_string());
        r.summary.insert("delay_after".into(), 2.5);
        CacheEntry {
            circuit: tag.to_string(),
            report: r,
            blif: format!(".model {tag}\n.end\n"),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gdo_cache_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ResultCache::in_memory(2);
        cache.insert(1, entry("a"));
        cache.insert(2, entry("b"));
        assert!(cache.get(1).is_some(), "touch 1: now 2 is coldest");
        cache.insert(3, entry("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none(), "2 was evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (3, 1));
    }

    #[test]
    fn hits_share_one_entry() {
        let cache = ResultCache::in_memory(2);
        cache.insert(1, entry("a"));
        let (first, second) = (cache.get(1).unwrap(), cache.get(1).unwrap());
        assert!(
            Arc::ptr_eq(&first, &second),
            "a hit must not copy the entry"
        );
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::in_memory(0);
        cache.insert(1, entry("a"));
        assert!(cache.get(1).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn persists_across_reopen_and_survives_corruption() {
        let dir = tmp_dir("persist");
        {
            let cache = ResultCache::open(&dir, 8).unwrap();
            cache.insert(0xabcd, entry("a"));
            cache.insert(0x1234, entry("b"));
        }
        // A torn write and a foreign file must both be ignored.
        std::fs::write(dir.join("00000000000000ff.json"), "{\"circuit\":").unwrap();
        std::fs::write(dir.join("README.txt"), "not an entry").unwrap();

        let cache = ResultCache::open(&dir, 8).unwrap();
        assert_eq!(cache.len(), 2);
        let back = cache.get(0xabcd).unwrap();
        assert_eq!(*back, entry("a"), "entry round-trips byte-identically");
        assert!(
            !dir.join("00000000000000ff.json").exists(),
            "corrupt entry was deleted"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_removes_the_entry_file() {
        let dir = tmp_dir("evict");
        let cache = ResultCache::open(&dir, 1).unwrap();
        cache.insert(1, entry("a"));
        cache.insert(2, entry("b"));
        assert_eq!(cache.len(), 1);
        assert!(!dir.join(format!("{:016x}.json", 1u64)).exists());
        assert!(dir.join(format!("{:016x}.json", 2u64)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}

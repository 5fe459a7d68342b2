//! The daemon's content-addressed result store.
//!
//! One file per request digest, `<dir>/<digest>.out.json`, holding a header
//! line and the canonical result bytes:
//!
//! ```text
//! WRSNSVC v1 req=<digest 16 hex> len=<result bytes> fnv=<result FNV-1a 64, 16 hex>
//! <result JSON>
//! ```
//!
//! A lookup replays the stored bytes **verbatim** — the daemon's dedupe
//! guarantee is that a cache hit is byte-identical to the miss that produced
//! it. The header makes corruption detectable instead of believable: the
//! `req` digest catches a file renamed or hard-linked onto the wrong key,
//! `len` catches truncation (the failure mode of a non-atomic write cut off
//! by SIGKILL), and `fnv` catches bit rot inside the body. Anything that
//! fails validation is reported as [`CacheLookup::Rejected`] and recomputed —
//! never served.
//!
//! Writes go through [`store::write_atomic`] (same-directory temp file +
//! fsync + rename), so a daemon killed mid-write leaves either the old entry
//! or the new one, never a torn file at the final path.
//!
//! A cache opened with [`ResultCache::open_bounded`] additionally keeps the
//! store under a byte cap with **deterministic LRU eviction**: every save and
//! validated hit stamps the entry with a monotonically increasing generation,
//! and when the total (body + header) bytes exceed the cap, entries are
//! removed in ascending `(generation, digest)` order until the store fits.
//! Pre-existing entries found on open are indexed in digest order (so a
//! restarted daemon evicts the same entries a fresh one would, given the same
//! request sequence). Evicting an entry mid-lookup is benign: the reader sees
//! `NotFound` → a miss → recompute, never a torn read, because removal only
//! unlinks a complete file.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use wrsn::sim::store;

/// Magic + version prefix of every cache entry header.
pub const HEADER_MAGIC: &str = "WRSNSVC v1";

/// The outcome of a cache lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLookup {
    /// Entry present and validated; the stored canonical result bytes.
    Hit(String),
    /// No entry for this digest.
    Miss,
    /// An entry exists but failed validation (reason inside). The caller
    /// recomputes and overwrites it.
    Rejected(String),
}

/// A point-in-time summary of a bounded cache's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Configured byte cap.
    pub cap_bytes: u64,
    /// Live entries in the index.
    pub entries: u64,
    /// Total on-disk bytes of live entries (headers included).
    pub total_bytes: u64,
    /// Entries evicted since open.
    pub evictions: u64,
}

/// Per-entry bookkeeping of a bounded cache.
#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    bytes: u64,
    /// LRU stamp: the bound-wide generation at the entry's last save or
    /// validated hit. Strictly increasing, so `(last_used, digest)` orders
    /// eviction deterministically.
    last_used: u64,
}

#[derive(Debug)]
struct BoundState {
    cap_bytes: u64,
    total_bytes: u64,
    clock: u64,
    entries: HashMap<String, EntryMeta>,
    evictions: u64,
}

/// A directory of digest-keyed result artifacts.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    /// LRU index + cap; `None` for an unbounded cache. Shared across clones
    /// so every worker sees one consistent byte budget.
    bound: Option<Arc<Mutex<BoundState>>>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory, unbounded.
    ///
    /// # Errors
    ///
    /// An [`std::io::Error`] if the directory cannot be created.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
            bound: None,
        })
    }

    /// Opens the cache directory with a byte cap. Entries already on disk
    /// are indexed (in digest order, oldest-stamped first) and the cap is
    /// enforced immediately, so a daemon restarted onto an over-full store
    /// trims it before serving.
    ///
    /// # Errors
    ///
    /// An [`std::io::Error`] if the directory cannot be created or scanned.
    pub fn open_bounded(dir: &Path, cap_bytes: u64) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let mut found: Vec<(String, u64)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(digest) = name
                .to_string_lossy()
                .strip_suffix(".out.json")
                .map(String::from)
            else {
                continue;
            };
            found.push((digest, entry.metadata()?.len()));
        }
        found.sort_by(|a, b| a.0.cmp(&b.0));
        let mut state = BoundState {
            cap_bytes,
            total_bytes: found.iter().map(|(_, bytes)| bytes).sum(),
            clock: 0,
            entries: HashMap::new(),
            evictions: 0,
        };
        for (digest, bytes) in found {
            state.clock += 1;
            state.entries.insert(
                digest,
                EntryMeta {
                    bytes,
                    last_used: state.clock,
                },
            );
        }
        let cache = ResultCache {
            dir: dir.to_path_buf(),
            bound: Some(Arc::new(Mutex::new(state))),
        };
        cache.with_bound(evict_to_cap);
        Ok(cache)
    }

    /// The bookkeeping snapshot of a bounded cache; `None` when unbounded.
    pub fn stats(&self) -> Option<CacheStats> {
        self.bound.as_ref().map(|bound| {
            let state = bound.lock().expect("cache bound lock");
            CacheStats {
                cap_bytes: state.cap_bytes,
                entries: state.entries.len() as u64,
                total_bytes: state.total_bytes,
                evictions: state.evictions,
            }
        })
    }

    fn with_bound(&self, f: impl FnOnce(&mut BoundState, &Path)) {
        if let Some(bound) = &self.bound {
            let mut state = bound.lock().expect("cache bound lock");
            f(&mut state, &self.dir);
        }
    }

    /// The entry path for a request digest.
    fn entry_path(&self, digest: &str) -> PathBuf {
        self.dir.join(format!("{digest}.out.json"))
    }

    /// Looks up `digest`, validating the entry end to end. A validated hit
    /// refreshes the entry's LRU stamp in a bounded cache.
    pub fn lookup(&self, digest: &str) -> CacheLookup {
        let path = self.entry_path(digest);
        let raw = match fs::read(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(e) => return CacheLookup::Rejected(format!("read {}: {e}", path.display())),
        };
        match validate(digest, &raw) {
            Ok(result) => {
                self.with_bound(|state, _| {
                    state.clock += 1;
                    let stamp = state.clock;
                    if let Some(meta) = state.entries.get_mut(digest) {
                        meta.last_used = stamp;
                    }
                });
                CacheLookup::Hit(result)
            }
            Err(reason) => CacheLookup::Rejected(reason),
        }
    }

    /// Stores `result` (canonical bytes) under `digest`, atomically. In a
    /// bounded cache this may evict least-recently-used entries to fit the
    /// cap — possibly including the just-saved entry, if it alone exceeds
    /// the cap (the caller already holds the result in memory, so the
    /// response is unaffected; the digest just recomputes next time).
    ///
    /// # Errors
    ///
    /// A [`store::StoreError`] if the temp-file write or rename fails.
    pub fn save(&self, digest: &str, result: &str) -> Result<(), store::StoreError> {
        let body = format!(
            "{HEADER_MAGIC} req={digest} len={} fnv={:016x}\n{result}",
            result.len(),
            store::fnv1a64(result.as_bytes())
        );
        store::write_atomic(&self.entry_path(digest), body.as_bytes())?;
        self.with_bound(|state, dir| {
            state.clock += 1;
            let stamp = state.clock;
            let bytes = body.len() as u64;
            let old = state.entries.insert(
                digest.to_string(),
                EntryMeta {
                    bytes,
                    last_used: stamp,
                },
            );
            state.total_bytes = state.total_bytes - old.map_or(0, |o| o.bytes) + bytes;
            evict_to_cap(state, dir);
        });
        Ok(())
    }
}

/// Removes entries in ascending `(last_used, digest)` order until the store
/// fits its cap. Called with the bound lock held.
fn evict_to_cap(state: &mut BoundState, dir: &Path) {
    while state.total_bytes > state.cap_bytes && !state.entries.is_empty() {
        let victim = state
            .entries
            .iter()
            .min_by(|a, b| (a.1.last_used, a.0).cmp(&(b.1.last_used, b.0)))
            .map(|(digest, meta)| (digest.clone(), meta.bytes))
            .expect("non-empty entry index");
        let path = dir.join(format!("{}.out.json", victim.0));
        if let Err(e) = fs::remove_file(&path) {
            if e.kind() != std::io::ErrorKind::NotFound {
                eprintln!("wrsnd: cache eviction of {} failed: {e}", path.display());
                // Drop it from the index anyway so eviction cannot loop
                // forever on an unremovable file.
            }
        }
        state.entries.remove(&victim.0);
        state.total_bytes = state.total_bytes.saturating_sub(victim.1);
        state.evictions += 1;
    }
}

/// Validates a raw cache entry against its expected request digest and
/// returns the embedded result bytes.
fn validate(digest: &str, raw: &[u8]) -> Result<String, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "entry is not UTF-8".to_string())?;
    let (header, body) = text
        .split_once('\n')
        .ok_or("entry has no header/body separator (truncated?)")?;
    let mut fields = header.split(' ');
    let magic = (fields.next(), fields.next());
    if magic != (Some("WRSNSVC"), Some("v1")) {
        return Err(format!("bad header magic `{header}`"));
    }
    let mut req = None;
    let mut len = None;
    let mut fnv = None;
    for field in fields {
        match field.split_once('=') {
            Some(("req", v)) => req = Some(v.to_string()),
            Some(("len", v)) => {
                len = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("bad len field `{v}`"))?,
                )
            }
            Some(("fnv", v)) => {
                fnv = Some(u64::from_str_radix(v, 16).map_err(|_| format!("bad fnv field `{v}`"))?)
            }
            _ => return Err(format!("unknown header field `{field}`")),
        }
    }
    let req = req.ok_or("header missing req=")?;
    let len = len.ok_or("header missing len=")?;
    let fnv = fnv.ok_or("header missing fnv=")?;
    if req != digest {
        return Err(format!("entry is for digest {req}, expected {digest}"));
    }
    if body.len() != len {
        return Err(format!(
            "body is {} bytes, header says {len} (truncated or padded)",
            body.len()
        ));
    }
    let got = store::fnv1a64(body.as_bytes());
    if got != fnv {
        return Err(format!("body digest {got:016x} != header {fnv:016x}"));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wrsn-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_then_lookup_replays_exact_bytes() {
        let dir = temp_dir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let digest = "00112233deadbeef";
        let result = r#"{"scenario":{"nodes":40},"report":{"x":1.25}}"#;
        assert_eq!(cache.lookup(digest), CacheLookup::Miss);
        cache.save(digest, result).unwrap();
        assert_eq!(cache.lookup(digest), CacheLookup::Hit(result.to_string()));
        // Overwrite is idempotent and still atomic.
        cache.save(digest, result).unwrap();
        assert_eq!(cache.lookup(digest), CacheLookup::Hit(result.to_string()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_prefix_is_rejected_never_served() {
        // The SIGKILL-mid-write failure mode: a prefix of a valid entry. No
        // prefix may validate — a hit must mean the full original bytes.
        let dir = temp_dir("truncate");
        let cache = ResultCache::open(&dir).unwrap();
        let digest = "feedface01234567";
        let result = r#"{"exp":"fig2","rendered":["table"]}"#;
        cache.save(digest, result).unwrap();
        let path = cache.entry_path(digest);
        let full = fs::read(&path).unwrap();
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            match cache.lookup(digest) {
                CacheLookup::Rejected(_) => {}
                other => panic!("prefix of {cut} bytes validated as {other:?}"),
            }
        }
        // Restoring the full bytes validates again.
        fs::write(&path, &full).unwrap();
        assert_eq!(cache.lookup(digest), CacheLookup::Hit(result.to_string()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let dir = temp_dir("bitflip");
        let cache = ResultCache::open(&dir).unwrap();
        let digest = "0123456789abcdef";
        let result = r#"{"v":[1,2,3]}"#;
        cache.save(digest, result).unwrap();
        let path = cache.entry_path(digest);
        let full = fs::read(&path).unwrap();
        for pos in 0..full.len() {
            let mut corrupt = full.clone();
            corrupt[pos] ^= 0x01;
            fs::write(&path, &corrupt).unwrap();
            match cache.lookup(digest) {
                CacheLookup::Rejected(_) => {}
                other => panic!("flip at byte {pos} validated as {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_filed_under_the_wrong_digest_is_rejected() {
        let dir = temp_dir("wrongkey");
        let cache = ResultCache::open(&dir).unwrap();
        cache.save("aaaaaaaaaaaaaaaa", "{}").unwrap();
        fs::rename(
            cache.entry_path("aaaaaaaaaaaaaaaa"),
            cache.entry_path("bbbbbbbbbbbbbbbb"),
        )
        .unwrap();
        match cache.lookup("bbbbbbbbbbbbbbbb") {
            CacheLookup::Rejected(reason) => assert!(reason.contains("aaaaaaaaaaaaaaaa")),
            other => panic!("mis-filed entry validated as {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The on-disk size of one `save(digest, result)` entry.
    fn entry_bytes(result: &str) -> u64 {
        let dir = temp_dir("sizeprobe");
        let cache = ResultCache::open(&dir).unwrap();
        cache.save("00000000000000aa", result).unwrap();
        let bytes = fs::metadata(cache.entry_path("00000000000000aa"))
            .unwrap()
            .len();
        let _ = fs::remove_dir_all(&dir);
        bytes
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used_first() {
        let dir = temp_dir("evict-lru");
        let result = r#"{"k":1}"#;
        let per_entry = entry_bytes(result);
        // Room for exactly two entries.
        let cache = ResultCache::open_bounded(&dir, 2 * per_entry).unwrap();
        cache.save("aaaaaaaaaaaaaaaa", result).unwrap();
        cache.save("bbbbbbbbbbbbbbbb", result).unwrap();
        // Touch `a` so `b` is now the least recently used…
        assert!(matches!(
            cache.lookup("aaaaaaaaaaaaaaaa"),
            CacheLookup::Hit(_)
        ));
        // …and a third save must evict exactly `b`.
        cache.save("cccccccccccccccc", result).unwrap();
        assert!(matches!(
            cache.lookup("aaaaaaaaaaaaaaaa"),
            CacheLookup::Hit(_)
        ));
        assert_eq!(cache.lookup("bbbbbbbbbbbbbbbb"), CacheLookup::Miss);
        assert!(matches!(
            cache.lookup("cccccccccccccccc"),
            CacheLookup::Hit(_)
        ));
        let stats = cache.stats().unwrap();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.total_bytes <= stats.cap_bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_cache_trims_preexisting_entries_on_open() {
        let dir = temp_dir("evict-open");
        let result = r#"{"k":2}"#;
        let per_entry = entry_bytes(result);
        {
            let unbounded = ResultCache::open(&dir).unwrap();
            for k in 0..4 {
                unbounded.save(&format!("{k:016x}"), result).unwrap();
            }
        }
        // Reopen bounded to two entries: the two lexicographically smallest
        // digests (= oldest seed stamps) go first, deterministically.
        let cache = ResultCache::open_bounded(&dir, 2 * per_entry).unwrap();
        let stats = cache.stats().unwrap();
        assert_eq!(stats.evictions, 2);
        assert_eq!(cache.lookup("0000000000000000"), CacheLookup::Miss);
        assert_eq!(cache.lookup("0000000000000001"), CacheLookup::Miss);
        assert!(matches!(
            cache.lookup("0000000000000002"),
            CacheLookup::Hit(_)
        ));
        assert!(matches!(
            cache.lookup("0000000000000003"),
            CacheLookup::Hit(_)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_larger_than_the_cap_is_evicted_after_save() {
        let dir = temp_dir("evict-giant");
        let cache = ResultCache::open_bounded(&dir, 8).unwrap();
        let big = r#"{"payload":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}"#;
        cache.save("dddddddddddddddd", big).unwrap();
        assert_eq!(cache.lookup("dddddddddddddddd"), CacheLookup::Miss);
        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.total_bytes, 0);
        assert_eq!(stats.evictions, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_cache_has_no_stats_and_never_evicts() {
        let dir = temp_dir("unbounded");
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.stats(), None);
        for k in 0..16 {
            cache.save(&format!("{k:016x}"), r#"{"k":3}"#).unwrap();
        }
        for k in 0..16 {
            assert!(matches!(
                cache.lookup(&format!("{k:016x}")),
                CacheLookup::Hit(_)
            ));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn saves_leave_no_temp_droppings() {
        let dir = temp_dir("tmpfiles");
        let cache = ResultCache::open(&dir).unwrap();
        for k in 0..8 {
            cache.save(&format!("{k:016x}"), "{\"k\":1}").unwrap();
        }
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            let name = name.to_string_lossy();
            assert!(
                name.ends_with(".out.json") && !name.contains(".tmp"),
                "unexpected file {name}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

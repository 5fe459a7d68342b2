//! The run manifest: durable per-experiment status for `exp --resume`.
//!
//! A campaign run with `--out-dir <dir>` keeps a small ledger next to its
//! CSVs:
//!
//! * `<dir>/manifest.json` — run id, worker count, observability flag,
//!   watchdog deadline, and one [`ManifestEntry`] per experiment
//!   (pending → running → done/failed), rewritten atomically on every
//!   transition;
//! * `<dir>/.run/<id>.out.json` — the completed experiment's full output
//!   (rendered tables, CSVs, JSONL trace lines, counters) as a
//!   [`StoredOutput`] artifact, with its FNV-1a digest pinned in the
//!   manifest entry.
//!
//! `exp --resume <dir>` replays `Done` entries byte-for-byte from their
//! artifacts (digest-checked) and re-runs everything else. Experiments are
//! deterministic — seeds are compile-time constants — so the resumed
//! transcript, CSVs, and trace are byte-identical to an uninterrupted run;
//! CI enforces this with a kill-and-resume smoke test.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use wrsn::sim::cancel::budget_from_secs;
use wrsn::sim::store;

use crate::error::BenchError;

/// Manifest file name under `--out-dir`.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Artifact directory name under `--out-dir`.
pub const ARTIFACT_DIR: &str = ".run";

/// Manifest schema tag; bumped on incompatible layout changes.
pub const SCHEMA: &str = "wrsn-manifest-v1";

/// Lifecycle of one experiment inside a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExpStatus {
    /// Not started yet.
    Pending,
    /// Claimed by a worker; a crash leaves it here, and resume re-runs it.
    Running,
    /// Finished; its artifact and digest are valid.
    Done,
    /// Failed terminally (panic out of retries, timeout, or engine error).
    Failed,
}

/// Why a `Failed` entry failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailKind {
    /// The experiment panicked on every allowed attempt.
    Panic,
    /// The watchdog cancelled it at its wall-clock deadline.
    Timeout,
}

/// One experiment's durable status line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Experiment id (one of [`crate::ALL_IDS`]).
    pub id: String,
    /// Where it is in its lifecycle.
    pub status: ExpStatus,
    /// Wall-clock seconds of the completed run (0 until `Done`).
    pub wall_s: f64,
    /// FNV-1a 64 digest (16 hex digits) of the artifact bytes, once `Done`.
    pub digest: Option<String>,
    /// The failure message, once `Failed`.
    pub error: Option<String>,
    /// The failure kind, once `Failed`.
    pub failure: Option<FailKind>,
}

impl ManifestEntry {
    fn pending(id: &str) -> Self {
        ManifestEntry {
            id: id.to_string(),
            status: ExpStatus::Pending,
            wall_s: 0.0,
            digest: None,
            error: None,
            failure: None,
        }
    }
}

/// The campaign ledger persisted as `manifest.json` under `--out-dir`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Opaque id of the original run (pid + monotonic tag).
    pub run_id: String,
    /// Worker threads of the original run (informational; resume may differ).
    pub threads: u64,
    /// Whether the original run collected observability records. A resume
    /// can only produce a byte-identical `--trace` if this was set.
    pub observed: bool,
    /// Watchdog deadline of the original run, seconds.
    pub timeout_s: Option<f64>,
    /// How many times this campaign has been resumed.
    pub resumes: u64,
    /// One entry per experiment, in canonical order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// A fresh manifest with every experiment `Pending`.
    pub fn new(
        run_id: String,
        ids: &[&str],
        threads: usize,
        observed: bool,
        timeout_s: Option<f64>,
    ) -> Self {
        Manifest {
            schema: SCHEMA.to_string(),
            run_id,
            threads: threads as u64,
            observed,
            timeout_s,
            resumes: 0,
            entries: ids.iter().map(|id| ManifestEntry::pending(id)).collect(),
        }
    }

    /// The entry for `id`, if the manifest tracks it.
    pub fn entry_mut(&mut self, id: &str) -> Option<&mut ManifestEntry> {
        self.entries.iter_mut().find(|e| e.id == id)
    }

    /// Path of the manifest file under `out_dir`.
    pub fn path(out_dir: &Path) -> PathBuf {
        out_dir.join(MANIFEST_FILE)
    }

    /// Atomically persists the manifest under `out_dir`.
    ///
    /// # Errors
    ///
    /// [`BenchError::Manifest`] when serialization or the atomic write fails.
    pub fn save(&self, out_dir: &Path) -> Result<(), BenchError> {
        let path = Manifest::path(out_dir);
        let text = serde_json::to_string(self).map_err(|e| BenchError::Manifest {
            path: path.clone(),
            detail: format!("cannot serialize: {}", e.0),
        })?;
        store::write_atomic(&path, (text + "\n").as_bytes()).map_err(|e| BenchError::Manifest {
            path,
            detail: e.to_string(),
        })
    }

    /// Loads and validates the manifest under `out_dir`.
    ///
    /// # Errors
    ///
    /// [`BenchError::Manifest`] when the file is missing, malformed, has an
    /// unsupported schema tag, or a `timeout_s` that is not a positive
    /// number of seconds a `Duration` can hold; [`BenchError::UnknownId`]
    /// when an entry
    /// names an experiment this binary does not know.
    pub fn load(out_dir: &Path) -> Result<Self, BenchError> {
        let path = Manifest::path(out_dir);
        let text = std::fs::read_to_string(&path).map_err(|e| BenchError::Manifest {
            path: path.clone(),
            detail: format!("cannot read: {e}"),
        })?;
        let value = serde_json::from_str(&text).map_err(|e| BenchError::Manifest {
            path: path.clone(),
            detail: format!("malformed JSON: {}", e.0),
        })?;
        let manifest = Manifest::from_value(&value).map_err(|e| BenchError::Manifest {
            path: path.clone(),
            detail: format!("malformed manifest: {}", e.0),
        })?;
        if manifest.schema != SCHEMA {
            return Err(BenchError::Manifest {
                path,
                detail: format!(
                    "unsupported schema `{}` (this binary speaks `{SCHEMA}`)",
                    manifest.schema
                ),
            });
        }
        if let Some(s) = manifest
            .timeout_s
            .filter(|&s| budget_from_secs(s).is_none())
        {
            return Err(BenchError::Manifest {
                path,
                detail: format!("timeout_s must be positive and below 1.8e19 s, got {s}"),
            });
        }
        for entry in &manifest.entries {
            if !crate::is_known_id(&entry.id) {
                return Err(BenchError::unknown_id(&entry.id));
            }
        }
        Ok(manifest)
    }
}

/// A completed experiment's full output, persisted so `--resume` can replay
/// it byte-for-byte without re-running anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredOutput {
    /// Experiment id.
    pub id: String,
    /// Wall-clock seconds of the original run.
    pub wall_s: f64,
    /// Rendered ASCII tables, in order.
    pub rendered: Vec<String>,
    /// `(file name, contents)` CSV exports.
    pub csvs: Vec<(String, String)>,
    /// Serialized JSONL trace lines (empty unless observability was on).
    pub jsonl: Vec<String>,
}

/// Path of the artifact for `id` under `out_dir`.
fn artifact_path(out_dir: &Path, id: &str) -> PathBuf {
    out_dir.join(ARTIFACT_DIR).join(format!("{id}.out.json"))
}

/// Atomically persists a completed experiment's artifact and returns its
/// digest (16 hex digits of FNV-1a 64 over the file bytes).
///
/// # Errors
///
/// [`BenchError::Manifest`] when serialization or the write fails.
pub fn save_artifact(out_dir: &Path, output: &StoredOutput) -> Result<String, BenchError> {
    let path = artifact_path(out_dir, &output.id);
    let text = serde_json::to_string(output).map_err(|e| BenchError::Manifest {
        path: path.clone(),
        detail: format!("cannot serialize artifact: {}", e.0),
    })?;
    let bytes = text.into_bytes();
    let digest = format!("{:016x}", store::fnv1a64(&bytes));
    store::write_atomic(&path, &bytes).map_err(|e| BenchError::Manifest {
        path,
        detail: e.to_string(),
    })?;
    Ok(digest)
}

/// Loads the artifact for `id`, verifying its digest against the manifest's
/// pinned value.
///
/// # Errors
///
/// [`BenchError::Manifest`] when the artifact is missing, corrupt, or does
/// not match `expected_digest`.
pub fn load_artifact(
    out_dir: &Path,
    id: &str,
    expected_digest: &str,
) -> Result<StoredOutput, BenchError> {
    let path = artifact_path(out_dir, id);
    let bytes = std::fs::read(&path).map_err(|e| BenchError::Manifest {
        path: path.clone(),
        detail: format!("cannot read artifact: {e}"),
    })?;
    let digest = format!("{:016x}", store::fnv1a64(&bytes));
    if digest != expected_digest {
        return Err(BenchError::Manifest {
            path,
            detail: format!("artifact digest {digest} does not match manifest {expected_digest}"),
        });
    }
    let text = String::from_utf8(bytes).map_err(|e| BenchError::Manifest {
        path: path.clone(),
        detail: format!("artifact is not UTF-8: {e}"),
    })?;
    let value = serde_json::from_str(&text).map_err(|e| BenchError::Manifest {
        path: path.clone(),
        detail: format!("malformed artifact JSON: {}", e.0),
    })?;
    let output = StoredOutput::from_value(&value).map_err(|e| BenchError::Manifest {
        path: path.clone(),
        detail: format!("malformed artifact: {}", e.0),
    })?;
    if output.id != id {
        return Err(BenchError::Manifest {
            path,
            detail: format!("artifact is for `{}`, expected `{id}`", output.id),
        });
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "wrsn-manifest-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn manifest_round_trips_through_disk() {
        let dir = temp_dir("roundtrip");
        let mut m = Manifest::new("run-1".to_string(), &["fig2", "tab1"], 4, true, Some(30.0));
        m.entry_mut("fig2").unwrap().status = ExpStatus::Done;
        m.entry_mut("fig2").unwrap().digest = Some("00deadbeef00cafe".to_string());
        m.entry_mut("tab1").unwrap().status = ExpStatus::Failed;
        m.entry_mut("tab1").unwrap().error = Some("tab1: work item 1 timed out".to_string());
        m.entry_mut("tab1").unwrap().failure = Some(FailKind::Timeout);
        m.save(&dir).expect("save");
        let loaded = Manifest::load(&dir).expect("load");
        assert_eq!(loaded, m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_schema_and_unknown_ids_are_rejected() {
        let dir = temp_dir("schema");
        let mut m = Manifest::new("run-1".to_string(), &["fig2"], 1, false, None);
        m.schema = "wrsn-manifest-v99".to_string();
        m.save(&dir).expect("save");
        let err = Manifest::load(&dir).unwrap_err();
        assert!(matches!(err, BenchError::Manifest { .. }), "{err}");
        assert!(err.to_string().contains("v99"));

        let mut m = Manifest::new("run-1".to_string(), &["fig2"], 1, false, None);
        m.entries[0].id = "fig99".to_string();
        m.save(&dir).expect("save");
        let err = Manifest::load(&dir).unwrap_err();
        assert!(matches!(err, BenchError::UnknownId { .. }), "{err}");

        // A deadline no `Duration` can hold would panic the resumed run.
        let m = Manifest::new("run-1".to_string(), &["fig2"], 1, false, Some(1e20));
        m.save(&dir).expect("save");
        let err = Manifest::load(&dir).unwrap_err();
        assert!(matches!(err, BenchError::Manifest { .. }), "{err}");
        assert!(err.to_string().contains("timeout_s"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_a_typed_error() {
        let dir = temp_dir("missing");
        let err = Manifest::load(&dir.join("nope")).unwrap_err();
        assert!(matches!(err, BenchError::Manifest { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifacts_round_trip_and_pin_their_digest() {
        let dir = temp_dir("artifact");
        let output = StoredOutput {
            id: "fig2".to_string(),
            wall_s: 1.25,
            rendered: vec!["## fig2\ntable".to_string()],
            csvs: vec![("fig2_0.csv".to_string(), "a,b\n1,2\n".to_string())],
            jsonl: vec!["{\"t\":\"meta\"}".to_string()],
        };
        let digest = save_artifact(&dir, &output).expect("save");
        assert_eq!(digest.len(), 16);
        let loaded = load_artifact(&dir, "fig2", &digest).expect("load");
        assert_eq!(loaded, output);

        // A flipped byte must be rejected by the digest check.
        let path = artifact_path(&dir, "fig2");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_artifact(&dir, "fig2", &digest).unwrap_err();
        assert!(matches!(err, BenchError::Manifest { .. }), "{err}");
        assert!(err.to_string().contains("digest"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_artifacts_are_rejected_at_every_cut_point() {
        // The crash signature atomic writes exist to prevent: a prefix of
        // the real bytes at the final path (power loss mid-write on a
        // filesystem that still tore it, a partial copy, …). Every proper
        // prefix must fail the digest check — never load as a shorter-but-
        // plausible artifact.
        let dir = temp_dir("truncate");
        let output = StoredOutput {
            id: "fig2".to_string(),
            wall_s: 0.5,
            rendered: vec!["## fig2".to_string()],
            csvs: vec![("fig2_0.csv".to_string(), "a\n1\n".to_string())],
            jsonl: Vec::new(),
        };
        let digest = save_artifact(&dir, &output).expect("save");
        let path = artifact_path(&dir, "fig2");
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = load_artifact(&dir, "fig2", &digest).unwrap_err();
            assert!(
                matches!(err, BenchError::Manifest { .. }),
                "cut at {cut}: {err}"
            );
        }
        // The intact bytes still load.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(load_artifact(&dir, "fig2", &digest).unwrap(), output);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saves_and_artifacts_leave_no_temp_droppings() {
        // write_atomic's temp files must never be visible after a
        // successful save — resume scans the out-dir and a stray
        // `.manifest.json.tmp.<pid>` would be one crash away from shadowing
        // real state.
        let dir = temp_dir("tmpfiles");
        let m = Manifest::new("run-1".to_string(), &["fig2"], 1, false, None);
        m.save(&dir).expect("save");
        let output = StoredOutput {
            id: "fig2".to_string(),
            wall_s: 0.1,
            rendered: Vec::new(),
            csvs: Vec::new(),
            jsonl: Vec::new(),
        };
        save_artifact(&dir, &output).expect("save artifact");
        let mut walk = vec![dir.clone()];
        while let Some(d) = walk.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let entry = entry.unwrap();
                if entry.file_type().unwrap().is_dir() {
                    walk.push(entry.path());
                    continue;
                }
                let name = entry.file_name();
                assert!(
                    !name.to_string_lossy().contains(".tmp"),
                    "stray temp file {:?}",
                    entry.path()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

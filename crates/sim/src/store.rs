//! Disk-backed checkpoint store: crash-safe persistence for [`Checkpoint`]s.
//!
//! A checkpoint file is a one-line versioned header followed by the JSON
//! world snapshot:
//!
//! ```text
//! WRSNCKPT v1 len=<payload bytes> fnv=<16 hex digits>\n
//! {"net":{...},"charger":{...},...}
//! ```
//!
//! Writes are atomic — the bytes go to a temp file in the target directory
//! which is fsynced and then renamed over the destination — so a reader (or a
//! resumed run) only ever sees the previous complete checkpoint or the new
//! complete checkpoint, never a torn one. Loads verify the magic, format
//! version, payload length, and FNV-1a checksum before parsing, and reject
//! anything that does not match with a typed [`StoreError`] (never a panic,
//! never silently wrong state).
//!
//! [`CheckpointPolicy`] + [`Checkpointer`] turn the store into a training-job
//! style periodic snapshotter: attach one to a [`World`] with
//! [`World::set_checkpointer`] and the run loop persists the world at
//! integration-segment boundaries, rolling a single "latest" file. Due
//! instants fall every N *simulated* seconds; a checkpoint is written at the
//! first segment boundary at or after a due instant, at most once per
//! boundary, so due instants that pass inside one event-free segment yield a
//! single write. Restoring that file and re-advancing reproduces the
//! uninterrupted trajectory bitwise (see
//! `crates/sim/tests/checkpoint_restore.rs`).
//!
//! The payload after the header line is exactly the world's forensic JSON
//! snapshot, so `tail -n +2 file.ckpt` yields a document the `wrsn audit`
//! command understands.
//!
//! Saving is one pass: the world streams its JSON through
//! [`serde::Serialize::write_json`] into a buffer, and the header and payload
//! are written as two slices. A [`Checkpointer`] encodes the live world
//! without cloning it, reuses one buffer across its checkpoints, and keeps
//! what it already encoded of the parts that barely change between two
//! checkpoints: the network's static columns and topology, and the
//! append-only logs of the trace and the audit. Each checkpoint then formats
//! only what changed, and its bytes stay those [`save`] writes for
//! [`World::snapshot`] (debug builds check this at every checkpoint).

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::obs::{Counter, Recorder};
use crate::world::{Checkpoint, World, WorldEncoder};

/// Magic string opening every checkpoint header.
pub const MAGIC: &str = "WRSNCKPT";

/// On-disk format version. Bump when the header or payload shape changes.
pub const FORMAT_VERSION: u64 = 1;

/// Errors from the checkpoint store.
///
/// Carries the offending path and a machine-checkable reason; I/O details are
/// captured as strings so the error stays `Clone + PartialEq` (and therefore
/// composable into [`crate::SimError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// An OS-level read/write/rename failed.
    Io {
        /// What was being attempted.
        op: &'static str,
        /// The file involved.
        path: PathBuf,
        /// Stringified [`std::io::Error`].
        detail: String,
    },
    /// The file does not open with [`MAGIC`] — not a checkpoint at all.
    BadMagic {
        /// The rejected file.
        path: PathBuf,
    },
    /// The header declares a format version this build cannot read.
    UnsupportedVersion {
        /// The rejected file.
        path: PathBuf,
        /// The declared version.
        version: u64,
    },
    /// The header line is present but malformed (missing or unparsable
    /// fields).
    MalformedHeader {
        /// The rejected file.
        path: PathBuf,
        /// What failed to parse.
        detail: String,
    },
    /// The payload is shorter or longer than the header declares — a torn or
    /// tampered write.
    Truncated {
        /// The rejected file.
        path: PathBuf,
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The payload's FNV-1a checksum does not match the header.
    ChecksumMismatch {
        /// The rejected file.
        path: PathBuf,
    },
    /// The checksummed payload is not a parsable world snapshot.
    Payload {
        /// The rejected file.
        path: PathBuf,
        /// The deserializer's complaint.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, detail } => {
                write!(f, "cannot {op} {}: {detail}", path.display())
            }
            StoreError::BadMagic { path } => {
                write!(f, "{}: not a {MAGIC} checkpoint file", path.display())
            }
            StoreError::UnsupportedVersion { path, version } => write!(
                f,
                "{}: checkpoint format v{version} not supported (this build reads v{FORMAT_VERSION})",
                path.display()
            ),
            StoreError::MalformedHeader { path, detail } => {
                write!(f, "{}: malformed checkpoint header: {detail}", path.display())
            }
            StoreError::Truncated {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{}: checkpoint payload truncated or padded ({actual} bytes, header declares {expected})",
                path.display()
            ),
            StoreError::ChecksumMismatch { path } => write!(
                f,
                "{}: checkpoint payload corrupted (checksum mismatch)",
                path.display()
            ),
            StoreError::Payload { path, detail } => write!(
                f,
                "{}: checkpoint payload is not a world snapshot: {detail}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// FNV-1a (64-bit) of one byte slice: the store's dependency-free checksum,
/// also used by the bench harness to digest experiment outputs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename. A crash mid-write leaves the previous file (or nothing)
/// intact, never a torn one.
///
/// # Errors
///
/// Returns [`StoreError::Io`] when any filesystem step fails; the temp file
/// is cleaned up on a failed rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    write_atomic_parts(path, &[bytes])
}

/// [`write_atomic`] of the concatenation of `parts`, without building it.
fn write_atomic_parts(path: &Path, parts: &[&[u8]]) -> Result<(), StoreError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir).map_err(|e| io_err("create directory for", path, &e))?;
    }
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "checkpoint".to_string());
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}", std::process::id()));
    let result = (|| {
        let mut file = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, &e))?;
        for part in parts {
            file.write_all(part)
                .map_err(|e| io_err("write", &tmp, &e))?;
        }
        file.sync_all().map_err(|e| io_err("sync", &tmp, &e))?;
        drop(file);
        fs::rename(&tmp, path).map_err(|e| io_err("rename into place", path, &e))
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Serializes `checkpoint` and writes it to `path` atomically under the
/// versioned, checksummed header.
///
/// # Errors
///
/// Returns [`StoreError::Payload`] if the snapshot cannot be serialized
/// (non-finite floats) or [`StoreError::Io`] on filesystem failure.
pub fn save(path: &Path, checkpoint: &Checkpoint) -> Result<(), StoreError> {
    let mut payload = String::new();
    encode(
        path,
        checkpoint.world(),
        &mut WorldEncoder::default(),
        &mut payload,
    )?;
    write_atomic_parts(path, &[header(&payload).as_bytes(), payload.as_bytes()])
}

/// Encodes `world` into `payload` (cleared first, so one buffer serves many
/// checkpoints) through `encoder`.
fn encode(
    path: &Path,
    world: &World,
    encoder: &mut WorldEncoder,
    payload: &mut String,
) -> Result<(), StoreError> {
    payload.clear();
    encoder
        .encode(world, payload)
        .map_err(|e| StoreError::Payload {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })
}

/// The header line declaring `payload`'s length and checksum.
fn header(payload: &str) -> String {
    format!(
        "{MAGIC} v{FORMAT_VERSION} len={} fnv={:016x}\n",
        payload.len(),
        fnv1a64(payload.as_bytes())
    )
}

fn header_field<'a>(field: &'a str, key: &str, path: &Path) -> Result<&'a str, StoreError> {
    field
        .strip_prefix(key)
        .and_then(|f| f.strip_prefix('='))
        .ok_or_else(|| StoreError::MalformedHeader {
            path: path.to_path_buf(),
            detail: format!("expected `{key}=<value>`, found `{field}`"),
        })
}

/// Loads and fully validates a checkpoint written by [`save`].
///
/// # Errors
///
/// Every way a file can be wrong has a dedicated [`StoreError`] variant:
/// missing file ([`StoreError::Io`]), foreign content
/// ([`StoreError::BadMagic`]), future format
/// ([`StoreError::UnsupportedVersion`]), malformed header, torn write
/// ([`StoreError::Truncated`]), bit rot ([`StoreError::ChecksumMismatch`]),
/// or an unparsable payload ([`StoreError::Payload`]).
pub fn load(path: &Path) -> Result<Checkpoint, StoreError> {
    // Bytes first: the header and the checksum are checked before anything
    // is decoded, so bit rot reads as a checksum mismatch, not as text that
    // is not UTF-8.
    let bytes = fs::read(path).map_err(|e| io_err("read", path, &e))?;
    let Some(newline) = bytes.iter().position(|&b| b == b'\n') else {
        // No newline at all: either foreign content or a header torn
        // before its terminator.
        if bytes.starts_with(MAGIC.as_bytes()) {
            return Err(StoreError::MalformedHeader {
                path: path.to_path_buf(),
                detail: "header line is not newline-terminated".to_string(),
            });
        }
        return Err(StoreError::BadMagic {
            path: path.to_path_buf(),
        });
    };
    let (header, payload) = (&bytes[..newline], &bytes[newline + 1..]);
    if !header.starts_with(MAGIC.as_bytes()) {
        return Err(StoreError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let header = std::str::from_utf8(header).map_err(|_| StoreError::MalformedHeader {
        path: path.to_path_buf(),
        detail: "header line is not UTF-8".to_string(),
    })?;
    let mut fields = header.split(' ');
    if fields.next() != Some(MAGIC) {
        return Err(StoreError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let version = fields
        .next()
        .and_then(|f| f.strip_prefix('v'))
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| StoreError::MalformedHeader {
            path: path.to_path_buf(),
            detail: "missing `v<version>` field".to_string(),
        })?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
        });
    }
    let len_field = fields.next().ok_or_else(|| StoreError::MalformedHeader {
        path: path.to_path_buf(),
        detail: "missing `len=` field".to_string(),
    })?;
    let expected: usize =
        header_field(len_field, "len", path)?
            .parse()
            .map_err(|_| StoreError::MalformedHeader {
                path: path.to_path_buf(),
                detail: format!("unparsable `{len_field}`"),
            })?;
    let fnv_field = fields.next().ok_or_else(|| StoreError::MalformedHeader {
        path: path.to_path_buf(),
        detail: "missing `fnv=` field".to_string(),
    })?;
    let checksum =
        u64::from_str_radix(header_field(fnv_field, "fnv", path)?, 16).map_err(|_| {
            StoreError::MalformedHeader {
                path: path.to_path_buf(),
                detail: format!("unparsable `{fnv_field}`"),
            }
        })?;
    if payload.len() != expected {
        return Err(StoreError::Truncated {
            path: path.to_path_buf(),
            expected,
            actual: payload.len(),
        });
    }
    if fnv1a64(payload) != checksum {
        return Err(StoreError::ChecksumMismatch {
            path: path.to_path_buf(),
        });
    }
    let payload_error = |detail: String| StoreError::Payload {
        path: path.to_path_buf(),
        detail,
    };
    let text = std::str::from_utf8(payload).map_err(|e| payload_error(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| payload_error(e.to_string()))
}

/// How often an attached [`Checkpointer`] persists the world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    /// Interval between due instants, *simulated* seconds.
    pub every_sim_s: f64,
}

impl CheckpointPolicy {
    /// A policy with a due instant every `every_sim_s` simulated seconds.
    /// The world is written at the first integration-segment boundary at or
    /// after each due instant, once per boundary however many due instants
    /// it passed, so a long event-free segment yields one write, not one per
    /// interval.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or non-positive interval (callers validating
    /// user input should check before constructing).
    pub fn every(every_sim_s: f64) -> Self {
        assert!(
            every_sim_s.is_finite() && every_sim_s > 0.0,
            "checkpoint interval must be finite and positive, got {every_sim_s}"
        );
        CheckpointPolicy { every_sim_s }
    }
}

/// Periodic on-disk snapshotter attached to a [`World`] via
/// [`World::set_checkpointer`].
///
/// The run loop calls into it at segment boundaries; whenever the simulation
/// clock crosses the next due instant the world is serialized and atomically
/// rolled into the single target file (the "latest valid checkpoint"). Pure
/// observation: attaching a checkpointer never perturbs the trajectory, and
/// the checkpointer itself is never part of a snapshot.
#[derive(Debug)]
pub struct Checkpointer {
    policy: CheckpointPolicy,
    path: PathBuf,
    next_due_s: f64,
    written: u64,
    /// Encode buffer reused across checkpoints (scratch, not state).
    payload: String,
    /// What earlier checkpoints encoded of the world (scratch, not state).
    encoder: WorldEncoder,
}

// Hand-written: a clone starts with an empty buffer and encoder, since it may
// be attached to another world.
impl Clone for Checkpointer {
    fn clone(&self) -> Self {
        Checkpointer {
            policy: self.policy,
            path: self.path.clone(),
            next_due_s: self.next_due_s,
            written: self.written,
            payload: String::new(),
            encoder: WorldEncoder::default(),
        }
    }
}

impl Checkpointer {
    /// A checkpointer rolling its snapshots into `path` under `policy`.
    pub fn new(path: impl Into<PathBuf>, policy: CheckpointPolicy) -> Self {
        Checkpointer {
            policy,
            path: path.into(),
            next_due_s: policy.every_sim_s,
            written: 0,
            payload: String::new(),
            encoder: WorldEncoder::default(),
        }
    }

    /// The file snapshots roll into.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The policy in force.
    pub fn policy(&self) -> CheckpointPolicy {
        self.policy
    }

    /// Checkpoint files written so far: one per segment boundary that found
    /// a due instant passed, not one per elapsed interval.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Re-arms the first due instant relative to `now_s` (called when the
    /// checkpointer is attached to a world mid-run, or the world is
    /// restored). What it encoded of its previous world is dropped.
    pub(crate) fn armed_at(mut self, now_s: f64) -> Self {
        self.next_due_s = now_s + self.policy.every_sim_s;
        self.forget_encoded();
        self
    }

    /// Drops what earlier checkpoints encoded: the next one encodes the
    /// whole world afresh. Called when the world's logs may have been
    /// replaced rather than appended to.
    pub(crate) fn forget_encoded(&mut self) {
        self.encoder = WorldEncoder::default();
    }

    /// Whether the clock has crossed the next due instant.
    pub(crate) fn due(&self, now_s: f64) -> bool {
        now_s >= self.next_due_s
    }

    /// Persists `world` if due and advances the schedule past its clock.
    ///
    /// The live world is encoded in place: its encoding never includes the
    /// checkpointer, so it is byte for byte the file [`save`] writes for
    /// [`World::snapshot`], without cloning the world. The work is recorded
    /// as a `checkpoint` span with `encode`, `hash` and `write` (create,
    /// write, fsync and rename) children.
    pub(crate) fn write_due(
        &mut self,
        world: &World,
        rec: &mut dyn Recorder,
    ) -> Result<(), StoreError> {
        let now_s = world.time_s();
        if !self.due(now_s) {
            return Ok(());
        }
        rec.span_enter("checkpoint");
        let result = self.write(world, rec);
        rec.span_exit("checkpoint");
        result?;
        self.written += 1;
        rec.add(Counter::CheckpointsWritten, 1);
        while self.next_due_s <= now_s {
            self.next_due_s += self.policy.every_sim_s;
        }
        Ok(())
    }

    fn write(&mut self, world: &World, rec: &mut dyn Recorder) -> Result<(), StoreError> {
        rec.span_enter("encode");
        let encoded = encode(&self.path, world, &mut self.encoder, &mut self.payload);
        rec.span_exit("encode");
        encoded?;
        #[cfg(debug_assertions)]
        {
            let mut fresh = String::new();
            encode(&self.path, world, &mut WorldEncoder::default(), &mut fresh)?;
            assert!(
                fresh == self.payload,
                "checkpoint at t = {} s: the cached encoding differs from a fresh one",
                world.time_s()
            );
        }
        rec.span_enter("hash");
        let header = header(&self.payload);
        rec.span_exit("hash");
        rec.span_enter("write");
        let written = write_atomic_parts(&self.path, &[header.as_bytes(), self.payload.as_bytes()]);
        rec.span_exit("write");
        written
    }
}

/// The JSON of an append-only log's first elements, kept so the next encode
/// of the same log copies them instead of formatting them again: `[` and
/// the first `len` elements, comma-separated.
#[derive(Debug, Default)]
pub(crate) struct LogPrefix {
    text: String,
    len: usize,
}

impl LogPrefix {
    /// Appends `items` as a JSON array to `out`. The first `settled` items
    /// are final: any not yet kept are encoded once and kept. The rest are
    /// encoded on every call. A log whose settled part is shorter than what
    /// is kept was replaced, not appended to, and is encoded afresh.
    ///
    /// # Errors
    ///
    /// Fails on a non-finite float; `out` then holds a partial document and
    /// the kept prefix is unchanged.
    pub(crate) fn encode<T: Serialize>(
        &mut self,
        items: &[T],
        settled: usize,
        out: &mut String,
    ) -> Result<(), serde::Error> {
        if settled < self.len {
            self.text.clear();
            self.len = 0;
        }
        if self.text.is_empty() {
            self.text.push('[');
        }
        for item in &items[self.len..settled] {
            let mark = self.text.len();
            if self.len > 0 {
                self.text.push(',');
            }
            if let Err(e) = item.write_json(&mut self.text) {
                self.text.truncate(mark);
                return Err(e);
            }
            self.len += 1;
        }
        out.push_str(&self.text);
        for (i, item) in items.iter().enumerate().skip(settled) {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out)?;
        }
        out.push(']');
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "wrsn_store_{tag}_{}_{}.ckpt",
            std::process::id(),
            seq
        ))
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn write_atomic_replaces_previous_content() {
        let path = temp_path("atomic");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_rejects_missing_foreign_and_future_files() {
        let path = temp_path("reject");
        assert!(matches!(
            load(&path),
            Err(StoreError::Io { op: "read", .. })
        ));
        fs::write(&path, "not a checkpoint\n{}").unwrap();
        assert!(matches!(load(&path), Err(StoreError::BadMagic { .. })));
        fs::write(
            &path,
            format!("{MAGIC} v999 len=2 fnv={:016x}\n{{}}", fnv1a64(b"{}")),
        )
        .unwrap();
        assert!(matches!(
            load(&path),
            Err(StoreError::UnsupportedVersion { version: 999, .. })
        ));
        fs::write(&path, format!("{MAGIC} v1 len=abc fnv=0\n{{}}")).unwrap();
        assert!(matches!(
            load(&path),
            Err(StoreError::MalformedHeader { .. })
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_checks_the_checksum_before_decoding_text() {
        let path = temp_path("bytes");
        let frame = |payload: &[u8], fnv: u64| {
            let mut file =
                format!("{MAGIC} v1 len={} fnv={fnv:016x}\n", payload.len()).into_bytes();
            file.extend_from_slice(payload);
            file
        };
        // A corrupted byte that is not UTF-8 is bit rot, not an I/O error.
        fs::write(&path, frame(b"\xff}", fnv1a64(b"{}"))).unwrap();
        assert!(matches!(
            load(&path),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        // A checksummed payload that is not UTF-8 is a payload error.
        fs::write(&path, frame(b"\xff}", fnv1a64(b"\xff}"))).unwrap();
        assert!(matches!(load(&path), Err(StoreError::Payload { .. })));
        // So is a header that is not UTF-8 after the magic.
        let mut file = frame(b"{}", fnv1a64(b"{}"));
        file[MAGIC.len() + 1] = 0xff;
        fs::write(&path, file).unwrap();
        assert!(matches!(
            load(&path),
            Err(StoreError::MalformedHeader { .. })
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_policy_rejects_bad_intervals() {
        assert!(std::panic::catch_unwind(|| CheckpointPolicy::every(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| CheckpointPolicy::every(-5.0)).is_err());
        assert!(std::panic::catch_unwind(|| CheckpointPolicy::every(f64::NAN)).is_err());
        assert_eq!(CheckpointPolicy::every(10.0).every_sim_s, 10.0);
    }
}

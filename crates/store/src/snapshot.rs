//! Atomic, versioned index snapshots.
//!
//! A snapshot is one JSON document holding the full [`ShardedState`] —
//! schema (hash coefficients included), classifier, and every shard's
//! populated blocking plan + record store — plus the server's streaming
//! side state. The header carries a format magic, a format version, and a
//! hash of the serialized schema, so a reload can reject files from a
//! different format or an incompatible index before touching any state.
//!
//! Writes go through [`crate::atomic::write_atomic`]: temp sibling +
//! fsync + rename, so a crash mid-write never corrupts an existing
//! snapshot, and stale temps from crashed writers are swept on the next
//! successful save.
//!
//! This module lived in `rl-server` before the durability subsystem
//! existed; `rl-server` still re-exports it under the old paths.

use crate::atomic::write_atomic;
use cbv_hb::sharded::ShardedState;
use cbv_hb::RecordSchema;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Format magic: identifies a file as an rl-server snapshot.
pub const SNAPSHOT_MAGIC: &str = "RLSNAP1";

/// Current snapshot format version. Version 4 tables hold each record's
/// slot in its shard's record slab, and the slab's document records its
/// slot order; builds that read only version 3 refuse it by this number.
/// Version 3 (tables of client ids, a slab without slot order) still loads:
/// its records take fresh slots and its tables are re-keyed from their rows
/// ([`cbv_hb::matcher::rekey`]). Version 3 also introduced the pluggable
/// block store (in-memory buckets or an mmap manifest + delta overlay);
/// version 2 serialized raw `tables` arrays, and version 1 files predate
/// pluggable backends. Neither of those can be read.
pub const SNAPSHOT_VERSION: u32 = 4;

/// The oldest version this build reads (see [`SNAPSHOT_VERSION`]).
const OLDEST_READABLE_VERSION: u32 = 3;

/// Errors raised while saving or loading snapshots (and checkpoints,
/// which embed them). Every variant's Display names the offending file,
/// so a recovery failure is diagnosable from the message alone.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure: which operation, on which path, and the
    /// underlying [`std::io::Error`].
    Io {
        /// The operation that failed (`"create"`, `"write"`, `"fsync"`,
        /// `"rename"`, `"read"`).
        op: &'static str,
        /// The file the operation was applied to.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file is not a snapshot, or is from an incompatible format
    /// version, or its schema hash does not match its schema. `path` is
    /// `None` only for in-memory validation (no file involved yet).
    Format {
        /// The file that failed validation, when one is involved.
        path: Option<PathBuf>,
        /// What was wrong.
        msg: String,
    },
    /// JSON (de)serialization failure. `path` is `None` when the
    /// document was still in memory (encode before any file was chosen).
    Serde {
        /// The file being read or written, when one is involved.
        path: Option<PathBuf>,
        /// The serializer's message.
        msg: String,
    },
}

impl SnapshotError {
    pub(crate) fn io(op: &'static str, path: &Path, source: std::io::Error) -> Self {
        SnapshotError::Io {
            op,
            path: path.to_path_buf(),
            source,
        }
    }

    fn fmt_path(path: &Option<PathBuf>) -> String {
        path.as_ref()
            .map(|p| format!(" in {}", p.display()))
            .unwrap_or_default()
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { op, path, source } => {
                write!(f, "snapshot I/O: {op} {}: {source}", path.display())
            }
            SnapshotError::Format { path, msg } => {
                write!(f, "snapshot format{}: {msg}", Self::fmt_path(path))
            }
            SnapshotError::Serde { path, msg } => {
                write!(f, "snapshot encoding{}: {msg}", Self::fmt_path(path))
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The on-disk snapshot document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// Must equal [`SNAPSHOT_MAGIC`].
    pub magic: String,
    /// Must equal [`SNAPSHOT_VERSION`].
    pub version: u32,
    /// FNV-1a hash of the serialized schema, hex-encoded. Verified on
    /// load so a snapshot cannot silently pair records with the wrong
    /// embedding coefficients.
    pub schema_hash: String,
    /// The sharded pipeline state.
    pub state: ShardedState,
    /// Matched pairs accumulated by `Stream` requests (rebuilds the
    /// dedup union-find on restore).
    pub stream_pairs: Vec<(u64, u64)>,
    /// Records observed through `Stream`.
    pub streamed: u64,
}

/// Hex-encoded FNV-1a 64 over the schema's canonical JSON form. The serde
/// shim serializes maps with sorted keys, so the encoding is deterministic
/// for equal schemas.
pub fn schema_hash(schema: &RecordSchema) -> Result<String, SnapshotError> {
    let json = serde_json::to_string(schema).map_err(|e| SnapshotError::Serde {
        path: None,
        msg: e.to_string(),
    })?;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in json.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok(format!("{hash:016x}"))
}

impl Snapshot {
    /// Wraps a pipeline state into a versioned snapshot document.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Serde`] if the schema cannot be hashed.
    pub fn new(
        state: ShardedState,
        stream_pairs: Vec<(u64, u64)>,
        streamed: u64,
    ) -> Result<Self, SnapshotError> {
        Ok(Self {
            magic: SNAPSHOT_MAGIC.to_string(),
            version: SNAPSHOT_VERSION,
            schema_hash: schema_hash(&state.schema)?,
            state,
            stream_pairs,
            streamed,
        })
    }

    /// Writes the snapshot atomically (see [`crate::atomic::write_atomic`]).
    ///
    /// # Errors
    /// Returns [`SnapshotError::Io`] (naming the path) or
    /// [`SnapshotError::Serde`] on encoding failure.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        let json = serde_json::to_string(self).map_err(|e| SnapshotError::Serde {
            path: Some(path.to_path_buf()),
            msg: e.to_string(),
        })?;
        write_atomic(path, json.as_bytes())
    }

    /// Loads and validates a snapshot: magic, version, and schema hash
    /// must all check out.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Io`] when the file cannot be read,
    /// [`SnapshotError::Serde`] when it is not JSON for this document,
    /// and [`SnapshotError::Format`] when validation fails — all naming
    /// the offending path.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let json = std::fs::read_to_string(path).map_err(|e| SnapshotError::io("read", path, e))?;
        let snapshot: Snapshot = serde_json::from_str(&json).map_err(|e| SnapshotError::Serde {
            path: Some(path.to_path_buf()),
            msg: e.to_string(),
        })?;
        snapshot.validate(Some(path))?;
        Ok(snapshot)
    }

    /// Header validation shared by [`Self::load`] and checkpoint loading:
    /// magic, version, and schema hash must all check out. `path` (when
    /// known) is carried into the error for diagnosability.
    pub fn validate(&self, path: Option<&Path>) -> Result<(), SnapshotError> {
        let fail = |msg: String| {
            Err(SnapshotError::Format {
                path: path.map(Path::to_path_buf),
                msg,
            })
        };
        if self.magic != SNAPSHOT_MAGIC {
            return fail(format!(
                "bad magic {:?} (expected {SNAPSHOT_MAGIC:?})",
                self.magic
            ));
        }
        if !(OLDEST_READABLE_VERSION..=SNAPSHOT_VERSION).contains(&self.version) {
            let hint = if self.version < OLDEST_READABLE_VERSION {
                "; the file predates the pluggable block store — re-index and snapshot again"
            } else {
                ""
            };
            return fail(format!(
                "unsupported version {} (this build reads {OLDEST_READABLE_VERSION} to \
                 {SNAPSHOT_VERSION}){hint}",
                self.version
            ));
        }
        let actual = schema_hash(&self.state.schema)?;
        if actual != self.schema_hash {
            return fail(format!(
                "schema hash mismatch: header {} vs content {actual}",
                self.schema_hash
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_hb::sharded::ShardedPipeline;
    use cbv_hb::{AttributeSpec, LinkageConfig, Record, RecordSchema, Rule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::Alphabet;

    fn sample_state() -> ShardedState {
        let mut rng = StdRng::seed_from_u64(3);
        let schema = RecordSchema::build(
            Alphabet::linkage(),
            vec![
                AttributeSpec::new("FirstName", 2, 15, false, 5),
                AttributeSpec::new("LastName", 2, 15, false, 5),
            ],
            &mut rng,
        );
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let mut p =
            ShardedPipeline::new(schema, LinkageConfig::rule_aware(rule), 2, &mut rng).unwrap();
        p.index(&[
            Record::new(1, ["JOHN", "SMITH"]),
            Record::new(2, ["MARY", "JONES"]),
        ])
        .unwrap();
        p.export_state().unwrap()
    }

    #[test]
    fn save_load_roundtrip() {
        let state = sample_state();
        let dir = std::env::temp_dir().join("rl-store-snap-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.snap");
        let snap = Snapshot::new(state, vec![(1, 2)], 3).unwrap();
        snap.save(&path).unwrap();
        let loaded = Snapshot::load(&path).unwrap();
        assert_eq!(loaded.stream_pairs, vec![(1, 2)]);
        assert_eq!(loaded.streamed, 3);
        assert_eq!(loaded.state.indexed, 2);
        // The restored pipeline must answer probes like the original.
        let p = ShardedPipeline::from_state(loaded.state).unwrap();
        let (m, _) = p.link(&[Record::new(10, ["JON", "SMITH"])]).unwrap();
        assert_eq!(m, vec![(1, 10)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_magic_version_and_hash() {
        let state = sample_state();
        let dir = std::env::temp_dir().join("rl-store-snap-test-reject");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.snap");
        let good = Snapshot::new(state, vec![], 0).unwrap();

        let mut bad = good.clone();
        bad.magic = "NOTASNAP".into();
        bad.save(&path).unwrap();
        assert!(matches!(
            Snapshot::load(&path),
            Err(SnapshotError::Format { .. })
        ));

        let mut bad = good.clone();
        bad.version = SNAPSHOT_VERSION + 1;
        bad.save(&path).unwrap();
        assert!(matches!(
            Snapshot::load(&path),
            Err(SnapshotError::Format { .. })
        ));

        let mut bad = good.clone();
        bad.schema_hash = "0".repeat(16);
        bad.save(&path).unwrap();
        assert!(matches!(
            Snapshot::load(&path),
            Err(SnapshotError::Format { .. })
        ));

        good.save(&path).unwrap();
        assert!(Snapshot::load(&path).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_and_format_errors_name_the_path() {
        // Regression (satellite): SnapshotError variants used to drop the
        // offending path, making recovery failures undiagnosable.
        let dir = std::env::temp_dir().join("rl-store-snap-test-path-ctx");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.snap");

        // Io: missing file.
        let missing = dir.join("nope.snap");
        let msg = Snapshot::load(&missing).unwrap_err().to_string();
        assert!(msg.contains("nope.snap"), "Io must name the path: {msg}");

        // Serde: not JSON at all.
        std::fs::write(&path, "not json").unwrap();
        let msg = Snapshot::load(&path).unwrap_err().to_string();
        assert!(
            msg.contains("index.snap"),
            "Serde must name the path: {msg}"
        );

        // Format: wrong magic.
        let mut bad = Snapshot::new(sample_state(), vec![], 0).unwrap();
        bad.magic = "NOTASNAP".into();
        bad.save(&path).unwrap();
        let msg = Snapshot::load(&path).unwrap_err().to_string();
        assert!(
            msg.contains("index.snap"),
            "Format must name the path: {msg}"
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_snapshot_rejected_with_backend_hint() {
        // A pre-backend snapshot (version 1) must fail with an error that
        // tells the operator why the file is unreadable, not a generic
        // deserialization failure.
        let state = sample_state();
        let dir = std::env::temp_dir().join("rl-store-snap-test-v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.snap");
        let mut old = Snapshot::new(state, vec![], 0).unwrap();
        old.version = 1;
        old.save(&path).unwrap();
        match Snapshot::load(&path) {
            Err(SnapshotError::Format { msg, .. }) => {
                assert!(msg.contains("unsupported version 1"), "{msg}");
                assert!(msg.contains("predates the pluggable block store"), "{msg}");
            }
            other => panic!("expected format error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_is_atomic_no_temp_left_behind() {
        let state = sample_state();
        let dir = std::env::temp_dir().join("rl-store-snap-test-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.snap");
        Snapshot::new(state, vec![], 0)
            .unwrap()
            .save(&path)
            .unwrap();
        let entries: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(entries, vec!["index.snap"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_saves_do_not_clobber_each_other() {
        // Two overlapping in-process saves to one path: both must land a
        // complete document (the in-flight set keeps the sweep off live
        // temps).
        let state = sample_state();
        let dir = std::env::temp_dir().join("rl-store-snap-test-concurrent");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.snap");
        let snap = Snapshot::new(state, vec![], 0).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| snap.save(&path).unwrap());
            }
        });
        assert!(Snapshot::load(&path).is_ok());
        let entries: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(entries, vec!["index.snap"], "no temps left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_hash_is_stable_and_discriminating() {
        let state_a = sample_state();
        let state_b = sample_state(); // same seed → identical schema
        let ha = schema_hash(&state_a.schema).unwrap();
        assert_eq!(ha, schema_hash(&state_b.schema).unwrap());
        let mut rng = StdRng::seed_from_u64(99);
        let other = RecordSchema::build(
            Alphabet::linkage(),
            vec![AttributeSpec::new("X", 2, 20, false, 5)],
            &mut rng,
        );
        assert_ne!(ha, schema_hash(&other).unwrap());
    }
}

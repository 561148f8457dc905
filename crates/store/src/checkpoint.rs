//! Checkpoints: a snapshot plus the WAL position it covers.
//!
//! A checkpoint is the snapshot document wrapped with the sequence number
//! of the last WAL segment whose mutations are fully contained in it.
//! Recovery loads the checkpoint, then replays only segments *after* that
//! sequence — the log prefix the checkpoint covers has been pruned (or is
//! about to be; replaying it anyway is harmless, because applying a WAL
//! op twice is idempotent at the index level).

use crate::atomic::write_atomic;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::store::CHECKPOINT_FILE;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Format magic: identifies a file as an rl-store checkpoint.
pub const CHECKPOINT_MAGIC: &str = "RLCKPT1";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Installs checkpoint bytes received from a primary as `dir`'s committed
/// checkpoint (creating `dir` if missing), byte for byte: the primary's
/// file is written as it arrived rather than re-serialized from the parsed
/// document. The caller has decoded and validated `bytes` with
/// [`Checkpoint::from_bytes`].
///
/// # Errors
/// Returns [`SnapshotError::Io`] naming the offending path.
pub fn install_checkpoint(dir: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    std::fs::create_dir_all(dir).map_err(|e| SnapshotError::io("create", dir, e))?;
    // `write_atomic` ends the document with the newline it arrived with.
    let doc = bytes.strip_suffix(b"\n").unwrap_or(bytes);
    write_atomic(&dir.join(CHECKPOINT_FILE), doc)
}

/// The on-disk checkpoint document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Must equal [`CHECKPOINT_MAGIC`].
    pub magic: String,
    /// Must equal [`CHECKPOINT_VERSION`].
    pub version: u32,
    /// Every WAL segment with sequence ≤ this is fully covered by
    /// `snapshot` and safe to prune.
    pub wal_seq: u64,
    /// Global op-sequence watermark: how many mutations (since the data
    /// directory was created) the snapshot contains. Replication uses this
    /// to number WAL frames globally; checkpoints written before the field
    /// existed read back as 0, which only costs a follower one resync.
    #[serde(default)]
    pub ops: u64,
    /// Primary epoch the store held when the checkpoint was written.
    /// Recovery starts its epoch floor here, so stale-primary frames never
    /// replay even when every epoch marker has been pruned with its
    /// segment; pre-epoch checkpoints read back as 0.
    #[serde(default)]
    pub epoch: u64,
    /// The embedded index snapshot (validated with the same rules as a
    /// standalone snapshot file).
    pub snapshot: Snapshot,
}

impl Checkpoint {
    /// Wraps a snapshot with the WAL sequence it covers.
    pub fn new(wal_seq: u64, snapshot: Snapshot) -> Self {
        Self {
            magic: CHECKPOINT_MAGIC.to_string(),
            version: CHECKPOINT_VERSION,
            wal_seq,
            ops: 0,
            epoch: 0,
            snapshot,
        }
    }

    /// Sets the global op-sequence watermark the snapshot covers.
    pub fn with_ops(mut self, ops: u64) -> Self {
        self.ops = ops;
        self
    }

    /// Sets the primary epoch the snapshot was exported under.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Writes the checkpoint atomically (temp sibling + fsync + rename),
    /// so a crash mid-checkpoint leaves the previous checkpoint intact.
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

    /// Loads and validates a checkpoint file with [`Self::from_bytes`].
    ///
    /// # Errors
    /// Returns [`SnapshotError::Io`] when the file cannot be read, and
    /// otherwise what [`Self::from_bytes`] returns — all naming the
    /// offending path.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::io("read", path, e))?;
        Self::from_bytes(&bytes, Some(path))
    }

    /// The one checkpoint decoder: parses a checkpoint document and
    /// validates its own magic/version plus the embedded snapshot's magic,
    /// version, and schema hash. `path` names the file the bytes came from
    /// in errors; a checkpoint received over the wire passes `None`.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Serde`] when the bytes are not a
    /// checkpoint document and [`SnapshotError::Format`] when validation
    /// fails.
    pub fn from_bytes(bytes: &[u8], path: Option<&Path>) -> Result<Self, SnapshotError> {
        let ckpt: Checkpoint = serde_json::from_slice(bytes).map_err(|e| SnapshotError::Serde {
            path: path.map(Path::to_path_buf),
            msg: e.to_string(),
        })?;
        ckpt.validate(path)?;
        Ok(ckpt)
    }

    /// Validates the checkpoint's magic, version, and embedded snapshot.
    /// `path` (when known) is threaded into errors for context; a
    /// checkpoint received over the wire validates with `None`.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] describing the first failed check.
    pub fn validate(&self, path: Option<&Path>) -> Result<(), SnapshotError> {
        if self.magic != CHECKPOINT_MAGIC {
            return Err(SnapshotError::Format {
                path: path.map(Path::to_path_buf),
                msg: format!("bad magic {:?} (expected {CHECKPOINT_MAGIC:?})", self.magic),
            });
        }
        if self.version != CHECKPOINT_VERSION {
            return Err(SnapshotError::Format {
                path: path.map(Path::to_path_buf),
                msg: format!(
                    "unsupported version {} (this build reads {CHECKPOINT_VERSION})",
                    self.version
                ),
            });
        }
        self.snapshot.validate(path)
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

    fn sample_snapshot() -> Snapshot {
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
        p.index(&[Record::new(1, ["JOHN", "SMITH"])]).unwrap();
        let state = p.export_state().unwrap();
        Snapshot::new(state, vec![], 0).unwrap()
    }

    #[test]
    fn save_load_roundtrip_preserves_wal_seq() {
        let dir = std::env::temp_dir().join("rl-store-ckpt-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.snap");
        Checkpoint::new(7, sample_snapshot()).save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.wal_seq, 7);
        assert_eq!(loaded.snapshot.state.indexed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_magic_version_and_embedded_snapshot() {
        let dir = std::env::temp_dir().join("rl-store-ckpt-test-reject");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.snap");
        let good = Checkpoint::new(1, sample_snapshot());

        let mut bad = good.clone();
        bad.magic = "NOTACKPT".into();
        bad.save(&path).unwrap();
        let msg = Checkpoint::load(&path).unwrap_err().to_string();
        assert!(msg.contains("checkpoint.snap"), "names the path: {msg}");

        let mut bad = good.clone();
        bad.version = CHECKPOINT_VERSION + 1;
        bad.save(&path).unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(SnapshotError::Format { .. })
        ));

        // A corrupt embedded snapshot is caught by the same validation a
        // standalone snapshot file gets.
        let mut bad = good.clone();
        bad.snapshot.schema_hash = "0".repeat(16);
        bad.save(&path).unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(SnapshotError::Format { .. })
        ));

        good.save(&path).unwrap();
        assert!(Checkpoint::load(&path).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

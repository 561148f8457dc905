//! # rl-store — durable storage for the linkage index
//!
//! The compact c-vectors of Section 5.2 make the whole cBV-HB index cheap
//! to persist; this crate turns that observation into a dependency-light
//! durability subsystem for the linkage service:
//!
//! - [`wal`] — an append-only, length-prefixed, CRC-checksummed
//!   **write-ahead log** of index mutations ([`WalOp`]: insert / observe /
//!   delete), fsync'd per append or on a configurable group-commit
//!   interval ([`SyncPolicy`]).
//! - [`snapshot`] — the atomic, versioned index **snapshot** document
//!   (moved here from `rl-server`, which re-exports it unchanged).
//! - [`checkpoint`] — a snapshot **plus the WAL position it covers**, so
//!   recovery knows which log suffix still needs replay.
//! - [`store`] — [`Store`]: the data-directory manager tying the three
//!   together — open/recover, append, rotate, checkpoint, prune.
//!
//! ## Recovery contract
//!
//! [`Store::open`] loads the latest valid checkpoint (if any) and returns
//! the WAL tail to replay. A torn or corrupt final frame — the signature
//! a crash leaves mid-append — is **truncated with a warning, never a
//! refusal to start**: recovery yields exactly the longest valid prefix
//! of acknowledged mutations. See `docs/STORAGE.md` for formats and
//! tuning.

pub mod atomic;
pub mod checkpoint;
pub mod error;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use checkpoint::{install_checkpoint, Checkpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use error::StoreError;
pub use snapshot::{schema_hash, Snapshot, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use store::{
    scan_segments, segment_path, Recovery, RecoveryReport, Store, StoreOptions, CHECKPOINT_FILE,
};
pub use wal::{
    crc32, replay_from_epoch, Batch, FrameRecords, FrameRecordsBuf, Mutation, ReadFrame,
    SyncPolicy, Wal, WalFrame, WalOp, WalReader, WAL_EPOCH_MARK_TAG, WAL_FRAME_EPOCH_TAG,
    WAL_FRAME_TAG, WAL_MAGIC,
};

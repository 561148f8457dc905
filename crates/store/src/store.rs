//! [`Store`]: the data-directory manager tying WAL, checkpoint, and
//! recovery together.
//!
//! ## Directory layout
//!
//! ```text
//! <data-dir>/
//!   checkpoint.snap   # latest checkpoint (atomic rename; may be absent)
//!   wal-000001.log    # WAL segments, monotonically numbered
//!   wal-000002.log    # ... the highest-numbered one is being appended to
//! ```
//!
//! ## Checkpoint protocol
//!
//! 1. [`Store::begin_checkpoint`] — fsync and rotate: the active segment
//!    is closed and a new one opened; the closed segment's sequence is the
//!    `covered` watermark. Mutations keep flowing into the new segment
//!    while the caller exports the (now-stable-prefix) index state.
//! 2. [`Store::commit_checkpoint`] — atomically write `checkpoint.snap`
//!    embedding the exported snapshot and `covered`, then prune every
//!    segment with sequence ≤ `covered`.
//!
//! A crash anywhere in this window is safe: before the checkpoint rename
//! lands, recovery uses the *previous* checkpoint and replays the old
//! segments (still present); after the rename but before the prune
//! finishes, recovery deletes the covered segments itself. Replaying an
//! op the checkpoint already contains would also be harmless — inserts
//! replace by id, deletes of absent ids are no-ops.

use crate::checkpoint::{install_checkpoint, Checkpoint};
use crate::error::StoreError;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::wal::{replay_from_epoch, Mutation, SyncPolicy, Wal, WalOp};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Name of the checkpoint document inside a data directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.snap";

/// Tuning for a [`Store`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// fsync cadence for WAL appends.
    pub sync: SyncPolicy,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            sync: SyncPolicy::Always,
        }
    }
}

/// What [`Store::open`] recovered from the data directory. Applying
/// `snapshot` (if any) and then `ops` in order reproduces the exact state
/// at the last acknowledged, durable mutation.
#[derive(Debug)]
pub struct Recovery {
    /// The latest checkpoint's snapshot, absent on a fresh directory.
    pub snapshot: Option<Snapshot>,
    /// WAL ops past the checkpoint, in append order.
    pub ops: Vec<WalOp>,
    /// What happened during recovery (for logs and metrics).
    pub report: RecoveryReport,
}

/// Diagnostics from one recovery pass.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// WAL sequence covered by the loaded checkpoint (`None` without one).
    pub checkpoint_seq: Option<u64>,
    /// Ops replayed from the WAL tail.
    pub replayed_ops: u64,
    /// Segments the replayed ops came from.
    pub segments_replayed: u64,
    /// Bytes dropped from torn/corrupt frames (0 on a clean shutdown).
    pub truncated_bytes: u64,
    /// Primary epoch recovered (checkpoint epoch or any higher epoch seen
    /// in the replayed tail).
    pub epoch: u64,
    /// Wall-clock time spent loading the checkpoint and scanning the WAL.
    pub duration: Duration,
}

/// An open data directory: the active WAL segment plus checkpoint
/// management. One `Store` owns the directory; callers serialize access
/// (the server holds it under its state write lock).
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: Wal,
    /// Sequence of the active segment.
    seq: u64,
    /// Bytes in retained segments older than the active one.
    prior_bytes: u64,
    /// Total appends through this handle, across rotations.
    appends: u64,
    /// Global sequence of the last appended op (checkpoint watermark +
    /// every op since the data directory was created). Replication
    /// numbers WAL frames with this.
    op_seq: u64,
    /// Global op sequence the committed checkpoint covers: the first
    /// frame in the retained segments is op `base_ops + 1`.
    base_ops: u64,
    /// `op_seq` captured at [`Store::begin_checkpoint`]'s rotation, so
    /// [`Store::commit_checkpoint`] stamps the matching watermark.
    pending_ckpt_ops: Option<u64>,
    /// Primary epoch: stamped into every appended frame, bumped by
    /// [`Store::bump_epoch`] on promote, adopted from the stream by
    /// [`Store::observe_epoch`] on a follower. Recovered as the maximum of
    /// the checkpoint's epoch and every epoch seen in the replayed tail.
    epoch: u64,
    opts: StoreOptions,
}

/// Path of the WAL segment numbered `seq` inside `dir`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:06}.log"))
}

fn parse_segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// All WAL segment sequences in `dir`, sorted ascending.
///
/// # Errors
/// Returns [`StoreError::Io`] when the directory cannot be read.
pub fn scan_segments(dir: &Path) -> Result<Vec<u64>, StoreError> {
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io("read_dir", dir, e))?;
    let mut seqs: Vec<u64> = entries
        .flatten()
        .filter_map(|e| parse_segment_seq(&e.file_name().to_string_lossy()))
        .collect();
    seqs.sort_unstable();
    Ok(seqs)
}

impl Store {
    /// Opens (creating if needed) a data directory and recovers its
    /// state: loads the latest checkpoint, replays the WAL tail, and
    /// truncates any torn final frame **with a warning, never a refusal
    /// to start**. Returns the store (ready for appends) plus everything
    /// needed to rebuild the index.
    ///
    /// # Errors
    /// Returns [`StoreError`] on filesystem failure or a *corrupt
    /// checkpoint* (unlike a torn WAL tail, the checkpoint is written
    /// atomically, so corruption there is damage recovery must not paper
    /// over — the error names the file).
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<(Self, Recovery), StoreError> {
        let started = std::time::Instant::now();
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("create_dir", dir, e))?;

        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let checkpoint = match Checkpoint::load(&ckpt_path) {
            Ok(c) => Some(c),
            Err(SnapshotError::Io { ref source, .. })
                if source.kind() == std::io::ErrorKind::NotFound =>
            {
                None
            }
            Err(e) => return Err(e.into()),
        };
        let covered = checkpoint.as_ref().map(|c| c.wal_seq);

        // Finish any prune a crash interrupted: segments the checkpoint
        // covers are dead weight.
        let mut seqs = scan_segments(dir)?;
        if let Some(covered) = covered {
            let mut pruned = false;
            for &seq in seqs.iter().filter(|&&s| s <= covered) {
                pruned |= std::fs::remove_file(segment_path(dir, seq)).is_ok();
            }
            if pruned {
                let _ = crate::atomic::fsync_dir(dir);
            }
            seqs.retain(|&s| s > covered);
        }

        let mut ops = Vec::new();
        let mut report = RecoveryReport {
            checkpoint_seq: covered,
            ..RecoveryReport::default()
        };
        // (active segment seq, valid length to reuse) — None means start a
        // fresh segment instead of reusing the last one.
        let mut reuse: Option<(u64, u64)> = None;
        let mut abandoned_after = None;
        // Damaged/unreplayable segments to rename out of the WAL namespace
        // (`<name>.abandoned`): kept on disk for forensics, but no longer
        // scanned — otherwise every later open would re-abandon at the
        // same spot and never replay segments appended *after* this
        // recovery, silently dropping acknowledged writes.
        let mut quarantine: Vec<u64> = Vec::new();
        // The epoch floor rises across segments: a frame stamped below it
        // (stale-primary residue) ends the valid prefix like a tear.
        let mut epoch = checkpoint.as_ref().map(|c| c.epoch).unwrap_or(0);
        for (i, &seq) in seqs.iter().enumerate() {
            let path = segment_path(dir, seq);
            let last = i == seqs.len() - 1;
            let seg = match replay_from_epoch(&path, epoch) {
                Ok(seg) => seg,
                // A leftover old-format segment holds acknowledged writes
                // this build cannot read: quarantining it would drop them
                // silently, so refuse to start and leave it untouched.
                Err(e @ StoreError::NotAWal { .. }) if crate::wal::is_retired_v1(&path) => {
                    return Err(e)
                }
                Err(StoreError::NotAWal { path, msg }) => {
                    eprintln!(
                        "rl-store: WARNING: {} is not a WAL segment ({msg}); \
                         abandoning replay at seq {seq}",
                        path.display()
                    );
                    // Everything from the foreign file onward is
                    // unreplayable (later ops may depend on its contents).
                    // The new active segment must number past *every*
                    // scanned segment, never over a valid later one.
                    quarantine.extend(seqs[i..].iter().copied());
                    abandoned_after = seqs.last().copied();
                    break;
                }
                Err(e) => return Err(e),
            };
            if seg.torn_bytes > 0 {
                eprintln!(
                    "rl-store: WARNING: truncating {} torn byte(s) at end of {} \
                     (crash mid-append); recovering the longest valid prefix",
                    seg.torn_bytes,
                    path.display()
                );
                report.truncated_bytes += seg.torn_bytes;
            }
            report.replayed_ops += seg.ops.len() as u64;
            report.segments_replayed += 1;
            epoch = seg.max_epoch;
            ops.extend(seg.ops);
            if last {
                reuse = Some((seq, seg.valid_len));
            } else if seg.torn_bytes > 0 {
                // A tear in a non-final segment means later segments were
                // written after corruption crept in; their ordering
                // guarantee is gone. Keep the recovered prefix (truncate
                // the tear away so the next open replays this segment
                // cleanly), quarantine the rest, and append to a fresh
                // segment numbered past everything scanned.
                eprintln!(
                    "rl-store: WARNING: tear in non-final segment {}; \
                     later segments are not replayed",
                    path.display()
                );
                if let Err(e) = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(seg.valid_len))
                {
                    eprintln!(
                        "rl-store: WARNING: could not truncate torn segment {}: {e}",
                        path.display()
                    );
                }
                quarantine.extend(seqs[i + 1..].iter().copied());
                abandoned_after = seqs.last().copied();
                break;
            }
        }

        for seq in quarantine {
            let from = segment_path(dir, seq);
            let to = from.with_extension("log.abandoned");
            match std::fs::rename(&from, &to) {
                Ok(()) => eprintln!(
                    "rl-store: WARNING: quarantined unreplayable segment as {}",
                    to.display()
                ),
                Err(e) => eprintln!(
                    "rl-store: WARNING: could not quarantine {}: {e}",
                    from.display()
                ),
            }
        }

        let (seq, mut wal) = match (reuse, abandoned_after) {
            (_, Some(max)) => {
                let seq = max + 1;
                (seq, Wal::create(&segment_path(dir, seq), opts.sync)?)
            }
            (Some((seq, valid_len)), None) => (
                seq,
                Wal::open_append(&segment_path(dir, seq), opts.sync, valid_len)?,
            ),
            (None, None) => {
                let seq = covered.unwrap_or(0) + 1;
                (seq, Wal::create(&segment_path(dir, seq), opts.sync)?)
            }
        };
        wal.set_epoch(epoch);

        let prior_bytes = scan_segments(dir)?
            .into_iter()
            .filter(|&s| s != seq)
            .map(|s| {
                std::fs::metadata(segment_path(dir, s))
                    .map(|m| m.len())
                    .unwrap_or(0)
            })
            .sum();

        report.duration = started.elapsed();
        report.epoch = epoch;
        let base_ops = checkpoint.as_ref().map(|c| c.ops).unwrap_or(0);
        let store = Self {
            dir: dir.to_path_buf(),
            wal,
            seq,
            prior_bytes,
            appends: 0,
            op_seq: base_ops + ops.len() as u64,
            base_ops,
            pending_ckpt_ops: None,
            epoch,
            opts,
        };
        let recovery = Recovery {
            snapshot: checkpoint.map(|c| c.snapshot),
            ops,
            report,
        };
        Ok((store, recovery))
    }

    /// Appends one mutation to the WAL (durability per the sync policy).
    /// Must complete before the mutation is acknowledged.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] naming the segment on failure.
    pub fn append(&mut self, op: &WalOp) -> Result<(), StoreError> {
        self.append_mutation(op.into())
    }

    /// Appends every op of `mutation` all-or-nothing (one write; see
    /// [`Wal::append_mutation`]): on failure none of the batch is durable,
    /// so a rejected multi-record request never leaves a prefix in the WAL
    /// to resurface at replay.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] naming the segment on failure.
    pub fn append_mutation(&mut self, mutation: Mutation<'_>) -> Result<(), StoreError> {
        self.wal.append_mutation(mutation)?;
        self.appends += mutation.ops() as u64;
        self.op_seq += mutation.ops() as u64;
        Ok(())
    }

    /// Forces an fsync of the active segment regardless of policy.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] naming the segment on failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal.sync()
    }

    /// Phase 1 of a checkpoint: fsync, close the active segment, open the
    /// next one. Returns the covered watermark to pass to
    /// [`Self::commit_checkpoint`] once the caller has exported state.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] on fsync or segment-creation failure.
    pub fn begin_checkpoint(&mut self) -> Result<u64, StoreError> {
        self.pending_ckpt_ops = Some(self.op_seq);
        self.rotate()
    }

    /// fsyncs and closes the active segment, opening the next one.
    /// Returns the sequence of the segment just closed. Promotion rotates
    /// so a freshly-promoted primary starts its mutation stream on a
    /// segment boundary; checkpoints rotate through
    /// [`Self::begin_checkpoint`].
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] on fsync or segment-creation failure.
    pub fn rotate(&mut self) -> Result<u64, StoreError> {
        self.wal.sync()?;
        let covered = self.seq;
        self.seq += 1;
        let mut next = Wal::create(&segment_path(&self.dir, self.seq), self.opts.sync)?;
        next.set_epoch(self.epoch);
        let old = std::mem::replace(&mut self.wal, next);
        self.prior_bytes += old.len();
        Ok(covered)
    }

    /// The current primary epoch (0 until the first promote in the
    /// directory's history).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Promotes this store to a new primary epoch: bumps the epoch,
    /// rotates to a fresh segment, and makes the bump durable with an
    /// epoch marker frame **before returning** — so no mutation can be
    /// acknowledged at the new epoch until a crashed restart would recover
    /// it. A crash before the marker lands merely loses the bump, which is
    /// safe: nothing was accepted under it. Returns the new epoch.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] on rotation, marker append, or fsync
    /// failure; the epoch is **not** considered bumped in that case.
    pub fn bump_epoch(&mut self) -> Result<u64, StoreError> {
        let next = self.epoch + 1;
        self.rotate()?;
        self.wal.append_marker(next)?;
        self.wal.sync()?;
        self.epoch = next;
        Ok(next)
    }

    /// Adopts a higher epoch observed on the replication stream (a
    /// follower learning its primary was re-elected). Subsequent local
    /// appends are stamped with it; lower or equal epochs are no-ops.
    pub fn observe_epoch(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.epoch = epoch;
            self.wal.set_epoch(epoch);
        }
    }

    /// Phase 2 of a checkpoint: atomically publish `checkpoint.snap` and
    /// prune the covered segments. `snapshot` must reflect at least every
    /// mutation up to the `covered` watermark from
    /// [`Self::begin_checkpoint`] (exporting *after* the rotation
    /// guarantees that).
    ///
    /// # Errors
    /// Returns [`StoreError::Snapshot`] if the checkpoint cannot be
    /// written; pruning failures are best-effort (a leftover covered
    /// segment is deleted on the next open).
    pub fn commit_checkpoint(
        &mut self,
        snapshot: Snapshot,
        covered: u64,
    ) -> Result<(), StoreError> {
        let ops = self.pending_ckpt_ops.take().unwrap_or(self.op_seq);
        Checkpoint::new(covered, snapshot)
            .with_ops(ops)
            .with_epoch(self.epoch)
            .save(&self.dir.join(CHECKPOINT_FILE))?;
        self.base_ops = ops;
        let mut pruned = false;
        for seq in scan_segments(&self.dir)?
            .into_iter()
            .filter(|&s| s <= covered)
        {
            let path = segment_path(&self.dir, seq);
            let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            if std::fs::remove_file(&path).is_ok() {
                self.prior_bytes = self.prior_bytes.saturating_sub(len);
                pruned = true;
            }
        }
        if pruned {
            // Best-effort, like the prune itself: a resurrected covered
            // segment is re-deleted (not replayed) on the next open. The
            // ordering that matters — checkpoint durable before any prune
            // — is already guaranteed by the directory fsync inside the
            // checkpoint's atomic save.
            let _ = crate::atomic::fsync_dir(&self.dir);
        }
        Ok(())
    }

    /// Live WAL bytes across all retained segments (the
    /// `rl_wal_bytes` gauge).
    pub fn wal_bytes(&self) -> u64 {
        self.prior_bytes + self.wal.len()
    }

    /// Total appends through this handle (the `rl_wal_appends_total`
    /// counter), across rotations.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the active WAL segment.
    pub fn active_seq(&self) -> u64 {
        self.seq
    }

    /// Global sequence of the last appended op (checkpoint watermark plus
    /// every append since). Frame `op_seq` is the newest mutation in the
    /// WAL; a fresh directory starts at 0.
    pub fn op_seq(&self) -> u64 {
        self.op_seq
    }

    /// Global op sequence covered by the committed checkpoint: the first
    /// frame in the retained segments is op `base_ops() + 1`. A
    /// subscriber asking for history older than this must resync from a
    /// checkpoint instead.
    pub fn base_ops(&self) -> u64 {
        self.base_ops
    }

    /// Replaces the directory's entire contents with a checkpoint received
    /// from a primary: installs `bytes` as the committed checkpoint
    /// ([`install_checkpoint`]), deletes every WAL segment, and opens a
    /// fresh active segment past both the checkpoint's `wal_seq` and the
    /// previous active sequence, resuming at its `ops` watermark under its
    /// `epoch` (the three fields of the document `bytes` hold). A follower
    /// too far behind the primary's retained log calls this to restart from
    /// a shipped checkpoint; the caller rebuilds its in-memory state from
    /// the checkpoint's snapshot.
    ///
    /// # Errors
    /// Returns [`StoreError`] on filesystem failure; on error the store
    /// may be left with no active segment frames but the checkpoint and
    /// recovery path remain consistent (the checkpoint lands atomically
    /// before any segment is deleted).
    pub fn reset_to_checkpoint(
        &mut self,
        bytes: &[u8],
        wal_seq: u64,
        ops: u64,
        epoch: u64,
    ) -> Result<(), StoreError> {
        install_checkpoint(&self.dir, bytes)?;
        let mut removed = false;
        for seq in scan_segments(&self.dir)? {
            removed |= std::fs::remove_file(segment_path(&self.dir, seq)).is_ok();
        }
        if removed {
            let _ = crate::atomic::fsync_dir(&self.dir);
        }
        self.seq = self.seq.max(wal_seq) + 1;
        self.wal = Wal::create(&segment_path(&self.dir, self.seq), self.opts.sync)?;
        self.prior_bytes = 0;
        self.base_ops = ops;
        self.op_seq = ops;
        self.pending_ckpt_ops = None;
        // The shipped checkpoint carries the primary's epoch; installing
        // it above already made it durable here.
        self.epoch = self.epoch.max(epoch);
        self.wal.set_epoch(self.epoch);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::replay;
    use cbv_hb::sharded::ShardedPipeline;
    use cbv_hb::{AttributeSpec, LinkageConfig, Record, RecordSchema, Rule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::Alphabet;

    fn rec(id: u64) -> Record {
        Record::new(id, ["JOHN", "SMITH"])
    }

    fn sample_snapshot(indexed: &[u64]) -> Snapshot {
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
        let records: Vec<Record> = indexed.iter().map(|&id| rec(id)).collect();
        p.index(&records).unwrap();
        let state = p.export_state().unwrap();
        Snapshot::new(state, vec![], 0).unwrap()
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rl-store-store-test-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_dir_then_reopen_replays_everything() {
        let dir = fresh_dir("fresh");
        let (mut store, rec0) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(rec0.snapshot.is_none());
        assert!(rec0.ops.is_empty());
        store.append(&WalOp::Insert(rec(1))).unwrap();
        store.append(&WalOp::Delete(1)).unwrap();
        store.append(&WalOp::Observe(rec(2))).unwrap();
        assert_eq!(store.appends(), 3);
        drop(store);

        let (store, recov) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(recov.snapshot.is_none());
        assert_eq!(
            recov.ops,
            vec![
                WalOp::Insert(rec(1)),
                WalOp::Delete(1),
                WalOp::Observe(rec(2)),
            ]
        );
        assert_eq!(recov.report.replayed_ops, 3);
        assert_eq!(recov.report.truncated_bytes, 0);
        assert!(store.wal_bytes() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_prunes_and_recovery_uses_snapshot_plus_tail() {
        let dir = fresh_dir("ckpt");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.append(&WalOp::Insert(rec(1))).unwrap();
        store.append(&WalOp::Insert(rec(2))).unwrap();
        let covered = store.begin_checkpoint().unwrap();
        assert_eq!(covered, 1);
        // Mutations during the checkpoint land in the new segment.
        store.append(&WalOp::Insert(rec(3))).unwrap();
        store
            .commit_checkpoint(sample_snapshot(&[1, 2]), covered)
            .unwrap();
        store.append(&WalOp::Delete(2)).unwrap();
        drop(store);

        // Covered segment is gone.
        assert!(!segment_path(&dir, 1).exists());
        assert!(segment_path(&dir, 2).exists());

        let (_, recov) = Store::open(&dir, StoreOptions::default()).unwrap();
        let snap = recov.snapshot.expect("checkpoint snapshot");
        assert_eq!(snap.state.indexed, 2);
        assert_eq!(recov.ops, vec![WalOp::Insert(rec(3)), WalOp::Delete(2)]);
        assert_eq!(recov.report.checkpoint_seq, Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = fresh_dir("torn");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..4 {
            store.append(&WalOp::Insert(rec(i))).unwrap();
        }
        drop(store);
        // Tear the last frame.
        let seg = segment_path(&dir, 1);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

        let (mut store, recov) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recov.ops.len(), 3, "longest valid prefix");
        // Torn bytes = cut file length minus the valid prefix length.
        let valid = replay(&seg).unwrap().valid_len as usize;
        assert_eq!(
            recov.report.truncated_bytes as usize,
            bytes.len() - 3 - valid
        );
        // The store keeps working on the truncated segment.
        store.append(&WalOp::Insert(rec(9))).unwrap();
        drop(store);
        let (_, recov) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recov.ops.len(), 4);
        assert_eq!(recov.ops[3], WalOp::Insert(rec(9)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_segment_never_clobbers_later_valid_segments() {
        let dir = fresh_dir("notawal");
        // Segment 1: valid, one op.
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.append(&WalOp::Insert(rec(1))).unwrap();
        drop(store);
        // Segment 2: a foreign file wearing a segment name.
        std::fs::write(segment_path(&dir, 2), b"definitely not a wal").unwrap();
        // Segment 3: valid, one op — must survive recovery untouched.
        let mut w3 = Wal::create(&segment_path(&dir, 3), SyncPolicy::Always).unwrap();
        w3.append(&WalOp::Insert(rec(3))).unwrap();
        drop(w3);

        let (mut store, recov) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recov.ops, vec![WalOp::Insert(rec(1))]);
        // The new active segment numbers past EVERY scanned segment; a
        // `Wal::create` over segment 3 would have destroyed its data.
        assert_eq!(store.active_seq(), 4);
        // The damaged/unreplayable files are quarantined for forensics,
        // segment 3's bytes intact inside its quarantine file.
        assert!(!segment_path(&dir, 2).exists());
        assert!(!segment_path(&dir, 3).exists());
        let kept = replay(&dir.join("wal-000003.log.abandoned")).unwrap();
        assert_eq!(kept.ops, vec![WalOp::Insert(rec(3))]);

        // Post-recovery appends must survive the NEXT restart too: the
        // quarantine keeps the foreign file out of the scan, so replay no
        // longer re-abandons in front of them.
        store.append(&WalOp::Insert(rec(9))).unwrap();
        drop(store);
        let (_, again) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(
            again.ops,
            vec![WalOp::Insert(rec(1)), WalOp::Insert(rec(9))]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_final_tear_truncates_quarantines_and_stays_recovered() {
        let dir = fresh_dir("midtear");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.append(&WalOp::Insert(rec(1))).unwrap();
        store.append(&WalOp::Insert(rec(2))).unwrap();
        drop(store);
        // Tear segment 1 mid-frame, then add a later segment written
        // "after corruption crept in".
        let seg1 = segment_path(&dir, 1);
        let bytes = std::fs::read(&seg1).unwrap();
        std::fs::write(&seg1, &bytes[..bytes.len() - 3]).unwrap();
        let mut w2 = Wal::create(&segment_path(&dir, 2), SyncPolicy::Always).unwrap();
        w2.append(&WalOp::Insert(rec(5))).unwrap();
        drop(w2);

        let (mut store, recov) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(
            recov.ops,
            vec![WalOp::Insert(rec(1))],
            "prefix before the tear"
        );
        assert_eq!(store.active_seq(), 3);
        assert!(dir.join("wal-000002.log.abandoned").exists());
        // The torn segment was truncated to its valid prefix, so the next
        // open replays it cleanly (no repeated abandonment) and sees
        // appends made after this recovery.
        store.append(&WalOp::Delete(1)).unwrap();
        drop(store);
        let (_, again) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(again.ops, vec![WalOp::Insert(rec(1)), WalOp::Delete(1)]);
        assert_eq!(again.report.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_mutation_counts_and_replays_like_singles() {
        let dir = fresh_dir("batch");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        let records = [rec(1), rec(2)];
        store
            .append_mutation(Mutation::Insert(records[..].into()))
            .unwrap();
        store.append_mutation(Mutation::Delete(&[1])).unwrap();
        assert_eq!((store.appends(), store.op_seq()), (3, 3));
        drop(store);
        let (_, recov) = Store::open(&dir, StoreOptions::default()).unwrap();
        let ops = vec![
            WalOp::Insert(rec(1)),
            WalOp::Insert(rec(2)),
            WalOp::Delete(1),
        ];
        assert_eq!(recov.ops, ops);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_checkpoint_and_prune_is_recovered() {
        let dir = fresh_dir("midprune");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.append(&WalOp::Insert(rec(1))).unwrap();
        let covered = store.begin_checkpoint().unwrap();
        // Simulate the crash window: checkpoint written, prune never ran.
        Checkpoint::new(covered, sample_snapshot(&[1]))
            .save(&dir.join(CHECKPOINT_FILE))
            .unwrap();
        store.append(&WalOp::Insert(rec(2))).unwrap();
        drop(store);
        assert!(segment_path(&dir, 1).exists(), "prune never ran");

        let (_, recov) = Store::open(&dir, StoreOptions::default()).unwrap();
        // The covered segment was deleted at open and NOT replayed.
        assert!(!segment_path(&dir, 1).exists());
        assert_eq!(recov.snapshot.unwrap().state.indexed, 1);
        assert_eq!(recov.ops, vec![WalOp::Insert(rec(2))]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_an_error_not_silent_data_loss() {
        let dir = fresh_dir("badckpt");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.append(&WalOp::Insert(rec(1))).unwrap();
        drop(store);
        std::fs::write(dir.join(CHECKPOINT_FILE), "garbage").unwrap();
        let err = Store::open(&dir, StoreOptions::default()).unwrap_err();
        assert!(
            err.to_string().contains(CHECKPOINT_FILE),
            "error names the file: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_bytes_tracks_rotation_and_prune() {
        let dir = fresh_dir("bytes");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.append(&WalOp::Insert(rec(1))).unwrap();
        let before = store.wal_bytes();
        let covered = store.begin_checkpoint().unwrap();
        assert!(
            store.wal_bytes() > before,
            "rotation adds a fresh header without dropping old bytes"
        );
        store
            .commit_checkpoint(sample_snapshot(&[1]), covered)
            .unwrap();
        let after = store.wal_bytes();
        assert!(
            after < before,
            "prune reclaims the covered segment ({after} vs {before})"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn op_seq_survives_checkpoint_and_reopen() {
        let dir = fresh_dir("opseq");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.op_seq(), 0);
        assert_eq!(store.base_ops(), 0);
        store.append(&WalOp::Insert(rec(1))).unwrap();
        store.append_mutation(Mutation::Delete(&[1, 2])).unwrap();
        assert_eq!(store.op_seq(), 3);

        let covered = store.begin_checkpoint().unwrap();
        store.append(&WalOp::Insert(rec(4))).unwrap();
        store
            .commit_checkpoint(sample_snapshot(&[2]), covered)
            .unwrap();
        // The checkpoint covers ops 1..=3 (captured at rotation), not the
        // append that raced in during the export window.
        assert_eq!(store.base_ops(), 3);
        assert_eq!(store.op_seq(), 4);
        drop(store);

        let (store, recov) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recov.ops.len(), 1, "one op past the checkpoint");
        assert_eq!(store.base_ops(), 3);
        assert_eq!(store.op_seq(), 4, "watermark + replayed tail");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_to_checkpoint_replaces_history() {
        let dir = fresh_dir("reset");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..5 {
            store.append(&WalOp::Insert(rec(i))).unwrap();
        }
        let ckpt = Checkpoint::new(9, sample_snapshot(&[1, 2])).with_ops(42);
        // Received bytes end in the newline the primary's file ends with.
        let mut bytes = serde_json::to_vec(&ckpt).unwrap();
        bytes.push(b'\n');
        store.reset_to_checkpoint(&bytes, 9, 42, 0).unwrap();
        let installed = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        assert!(installed == bytes, "installed as received, one newline");
        assert_eq!(store.op_seq(), 42);
        assert_eq!(store.base_ops(), 42);
        assert!(store.active_seq() > 9);
        store.append(&WalOp::Insert(rec(100))).unwrap();
        assert_eq!(store.op_seq(), 43);
        drop(store);

        let (store, recov) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recov.snapshot.unwrap().state.indexed, 2);
        assert_eq!(recov.ops, vec![WalOp::Insert(rec(100))], "old ops gone");
        assert_eq!(store.op_seq(), 43);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_begin_and_commit_checkpoint_loses_nothing() {
        // The kill window satellite: a crash after begin_checkpoint
        // (rotation done) but before commit_checkpoint (no new
        // checkpoint.snap) — possibly mid-write, leaving a stale temp
        // sibling — must recover every acknowledged op and must not treat
        // the partial temp as a checkpoint.
        let dir = fresh_dir("ckpt-interrupt");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.append(&WalOp::Insert(rec(1))).unwrap();
        store.append(&WalOp::Insert(rec(2))).unwrap();
        let _covered = store.begin_checkpoint().unwrap();
        store.append(&WalOp::Insert(rec(3))).unwrap();
        // Crash before commit_checkpoint: drop the store with a partial
        // checkpoint temp on disk, exactly what a kill mid-write_atomic
        // leaves behind.
        let stale_tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp-99999-0"));
        std::fs::write(&stale_tmp, b"{\"partial\":").unwrap();
        drop(store);

        let (mut store, recov) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(
            recov.snapshot.is_none(),
            "a temp sibling is not a checkpoint"
        );
        assert_eq!(
            recov.ops,
            vec![
                WalOp::Insert(rec(1)),
                WalOp::Insert(rec(2)),
                WalOp::Insert(rec(3)),
            ],
            "every acknowledged op recovered across both segments"
        );
        assert_eq!(store.op_seq(), 3);
        assert!(stale_tmp.exists(), "ignored, not deleted, at open");

        // The next successful checkpoint sweeps the stale temp.
        let covered = store.begin_checkpoint().unwrap();
        store
            .commit_checkpoint(sample_snapshot(&[1, 2]), covered)
            .unwrap();
        assert!(
            !stale_tmp.exists(),
            "stale checkpoint temp swept by the next atomic save"
        );
        drop(store);
        let (_, recov) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(recov.snapshot.is_some());
        assert!(recov.ops.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bump_epoch_rotates_and_survives_restart() {
        let dir = fresh_dir("epoch-bump");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.append(&WalOp::Insert(rec(1))).unwrap();
        assert_eq!(store.epoch(), 0);
        let before = store.active_seq();
        assert_eq!(store.bump_epoch().unwrap(), 1);
        assert!(store.active_seq() > before, "bump starts a fresh segment");
        store.append(&WalOp::Insert(rec(2))).unwrap();
        assert_eq!(store.op_seq(), 2, "the marker consumed no op sequence");
        drop(store);

        // No checkpoint yet: the bump survives purely via the marker.
        let (store, recov) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(recov.report.epoch, 1);
        assert_eq!(
            recov.ops,
            vec![WalOp::Insert(rec(1)), WalOp::Insert(rec(2))]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_carries_epoch_and_reset_adopts_it() {
        let dir = fresh_dir("epoch-ckpt");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.bump_epoch().unwrap();
        store.append(&WalOp::Insert(rec(1))).unwrap();
        let covered = store.begin_checkpoint().unwrap();
        store
            .commit_checkpoint(sample_snapshot(&[1]), covered)
            .unwrap();
        drop(store);
        let ckpt = Checkpoint::load(&dir.join(CHECKPOINT_FILE)).unwrap();
        assert_eq!(ckpt.epoch, 1);
        // The marker segment was pruned with the checkpoint; the epoch now
        // survives via the checkpoint field alone.
        let (store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.epoch(), 1);
        drop(store);

        // A follower resetting to a shipped checkpoint adopts its epoch.
        let dir2 = fresh_dir("epoch-reset");
        let (mut follower, _) = Store::open(&dir2, StoreOptions::default()).unwrap();
        let bytes = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        follower
            .reset_to_checkpoint(&bytes, ckpt.wal_seq, ckpt.ops, ckpt.epoch)
            .unwrap();
        assert_eq!(follower.epoch(), 1);
        follower.append(&WalOp::Insert(rec(2))).unwrap();
        drop(follower);
        let (follower, _) = Store::open(&dir2, StoreOptions::default()).unwrap();
        assert_eq!(follower.epoch(), 1, "stamped frames carry it forward");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn observe_epoch_raises_and_ignores_lower() {
        let dir = fresh_dir("epoch-observe");
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.observe_epoch(3);
        assert_eq!(store.epoch(), 3);
        store.observe_epoch(2);
        assert_eq!(store.epoch(), 3, "epochs never go backwards");
        store.append(&WalOp::Insert(rec(1))).unwrap();
        drop(store);
        let (store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.epoch(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_name_parsing() {
        assert_eq!(parse_segment_seq("wal-000001.log"), Some(1));
        assert_eq!(parse_segment_seq("wal-123456.log"), Some(123456));
        assert_eq!(parse_segment_seq("wal-.log"), None);
        assert_eq!(parse_segment_seq("checkpoint.snap"), None);
        assert_eq!(parse_segment_seq("wal-1.txt"), None);
    }
}

//! [`ReplHandle`]: what the `rl-repl` follower loop drives a running
//! server through — apply streamed ops, reset to a checkpoint, publish
//! replication lag — without seeing its internals.

use crate::commit::{commit, CommitError};
use crate::repl::{ApplyError, ReplRole};
use crate::server::{Inner, ServerState};
use rl_store::{Checkpoint, WalOp};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The follower-side driver interface: everything the `rl-repl` apply
/// loop needs from a running server, without exposing its internals.
/// Cloneable and thread-safe; holding one does not keep the server
/// running.
#[derive(Clone)]
pub struct ReplHandle {
    inner: Arc<Inner>,
}

impl ReplHandle {
    pub(crate) fn new(inner: Arc<Inner>) -> Self {
        Self { inner }
    }

    /// The node's current replication role.
    pub fn role(&self) -> ReplRole {
        self.inner.repl.role()
    }

    /// True once shutdown has begun (the apply loop should exit).
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// The global op sequence applied locally — what to resume a
    /// subscription from (`Subscribe { from_seq: op_seq() }`).
    pub fn op_seq(&self) -> u64 {
        self.inner.store.as_ref().map_or(0, |s| s.lock().op_seq())
    }

    /// Applies one streamed WAL frame: validated, sequence-checked,
    /// write-ahead logged to the follower's own WAL (so restarts resume
    /// without re-bootstrapping), then applied to the index.
    ///
    /// # Errors
    /// [`ApplyError::Retry`] means drop the subscription and resubscribe
    /// from [`Self::op_seq`]; [`ApplyError::Resync`] means the local WAL
    /// and index disagree and the caller must re-bootstrap via
    /// [`Self::resync`]; [`ApplyError::StaleEpoch`] means the frame was
    /// written by a fenced (demoted) primary and the session must end —
    /// reconnecting to the same node will keep failing until it stands
    /// down or catches up past the current epoch.
    pub fn apply(&self, seq: u64, op: &WalOp, epoch: u64) -> Result<(), ApplyError> {
        let inner = &self.inner;
        let mut state = inner.state.write();
        if !inner.repl.role.lock().is_follower() {
            return Err(ApplyError::Retry(
                "not a follower (promoted or standalone)".into(),
            ));
        }
        let Some(store) = &inner.store else {
            return Err(ApplyError::Retry("no data directory".into()));
        };
        // Epoch fencing: a frame from an older era than this follower has
        // observed comes from a demoted primary that does not yet know it
        // lost — refusing it is what makes failover safe against split
        // brain. A newer era is legitimate news (a promotion happened);
        // adopt it durably before the frame lands in the local WAL.
        let known = inner.repl.epoch();
        if epoch < known {
            return Err(ApplyError::StaleEpoch(format!(
                "frame {seq} carries epoch {epoch} but this follower has \
                 observed epoch {known}; the sender is a fenced ex-primary"
            )));
        }
        self.observe_epoch(epoch).map_err(ApplyError::Retry)?;
        let expected = store.lock().op_seq() + 1;
        if seq != expected {
            return Err(ApplyError::Retry(format!(
                "sequence gap: expected op {expected}, got {seq}"
            )));
        }
        // Followers serve match subscriptions off the replicated stream.
        commit(inner, &mut state, op.into()).map_err(|e| match e {
            // The primary's own rule: a record the local schema refuses
            // never enters the local WAL, where it would fail again at
            // every replay.
            CommitError::Refused(e) => {
                ApplyError::Resync(format!("frame {seq} rejected by the local schema: {e}"))
            }
            CommitError::Append(e) => ApplyError::Retry(format!("wal append failed: {e}")),
            // The op is durable locally: resubscribing from `op_seq` would
            // skip it in memory forever (it only resurfaces at a restart
            // replay), so the failure is not reconnectable.
            CommitError::Apply(e) => {
                ApplyError::Resync(format!("apply of durable op {seq} failed: {e}"))
            }
        })?;
        drop(state);
        self.applied_through(seq);
        Ok(())
    }

    /// Replaces the follower's entire state with a primary checkpoint
    /// (bootstrap, or a `ResyncRequired` answer): `ckpt` is the document
    /// `bytes` hold, as [`Checkpoint::from_bytes`] decoded them. Validates
    /// it, rebuilds the in-memory index from its snapshot, and resets the
    /// local data directory to the received bytes so the WAL resumes at
    /// the checkpoint's op watermark.
    ///
    /// # Errors
    /// An invalid checkpoint, a snapshot the pipeline cannot load, or a
    /// storage failure while resetting the data directory.
    pub fn resync(&self, bytes: &[u8], ckpt: Checkpoint) -> Result<(), String> {
        ckpt.validate(None).map_err(|e| e.to_string())?;
        let inner = &self.inner;
        let mut state = inner.state.write();
        if !inner.repl.role.lock().is_follower() {
            return Err("not a follower (promoted or standalone)".into());
        }
        let Some(store) = &inner.store else {
            return Err("no data directory".into());
        };
        // Build the replacement state before touching anything, so a bad
        // snapshot leaves both memory and disk untouched.
        let mut restored = ServerState::restore(ckpt.snapshot)
            .map_err(|e| format!("checkpoint snapshot rejected: {e}"))?;
        restored
            .pipeline
            .attach_metrics(Arc::clone(&inner.metrics.pipeline));
        {
            let mut store = store.lock();
            store
                .reset_to_checkpoint(bytes, ckpt.wal_seq, ckpt.ops, ckpt.epoch)
                .map_err(|e| format!("data directory reset failed: {e}"))?;
            // The checkpoint may come from a newer era than any frame we
            // saw; mirror whatever the store adopted so epoch fencing
            // judges future frames against the freshest known era.
            inner.repl.epoch.store(store.epoch(), Ordering::SeqCst);
        }
        restored.publish(&inner.metrics);
        *state = restored;
        drop(state);
        self.applied_through(ckpt.ops);
        Ok(())
    }

    /// Records every op through `seq` applied, and the lag behind the
    /// primary's head that leaves.
    fn applied_through(&self, seq: u64) {
        let repl = &self.inner.repl;
        repl.applied_seq.store(seq, Ordering::SeqCst);
        let head = repl.head_seq.fetch_max(seq, Ordering::SeqCst).max(seq);
        let lag = head.saturating_sub(seq) as i64;
        self.inner.metrics.repl_lag_frames.set(lag);
    }

    /// Records the primary's head position from a stream heartbeat and
    /// refreshes the lag gauges.
    pub fn update_lag(&self, head_seq: u64, lag_bytes: u64) {
        let repl = &self.inner.repl;
        repl.head_seq.store(head_seq, Ordering::SeqCst);
        repl.lag_bytes.store(lag_bytes, Ordering::SeqCst);
        let applied = repl.applied_seq.load(Ordering::SeqCst);
        self.inner
            .metrics
            .repl_lag_frames
            .set(head_seq.saturating_sub(applied) as i64);
        self.inner.metrics.repl_lag_bytes.set(lag_bytes as i64);
    }

    /// Counts one subscription reconnect (for `rl_repl_reconnects_total`).
    pub fn note_reconnect(&self) {
        self.inner.repl.reconnects.fetch_add(1, Ordering::SeqCst);
        self.inner.metrics.repl_reconnects.inc();
    }

    /// The highest primary epoch this node has observed. Subscriptions
    /// present it so a fenced ex-primary refuses to serve them.
    pub fn epoch(&self) -> u64 {
        self.inner.repl.epoch()
    }

    /// Durably adopts a newer primary epoch learned out-of-band (a
    /// heartbeat, not a frame). Raise-only; older values are ignored.
    pub fn observe_epoch(&self, epoch: u64) -> Result<(), String> {
        if epoch <= self.inner.repl.epoch() {
            return Ok(());
        }
        let Some(store) = &self.inner.store else {
            return Err("no data directory".into());
        };
        store.lock().observe_epoch(epoch);
        self.inner.repl.epoch.store(epoch, Ordering::SeqCst);
        Ok(())
    }

    /// Marks a checkpoint bootstrap/resync window. While set, `Promote`
    /// is refused with `Unavailable` — promoting a half-bootstrapped
    /// follower would crown a primary with torn state.
    pub fn set_resyncing(&self, resyncing: bool) {
        self.inner.repl.resyncing.store(resyncing, Ordering::SeqCst);
    }
}
